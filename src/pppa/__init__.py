"""Strongly polynomial pivoting solver for box-constrained convex QPs.

Resolves  minimize q'x + x'Mx/2  over 0 <= x <= u  (u_i in (0, inf])
for Hessians whose comparison matrix is positive semidefinite, plus
the k-weakly quasi-diagonally dominant extensions, by tracing the
parametric solution path with principal pivots.
"""

from . import errors
from .classify import (ClassReport, blockwise_dominance_vector,
                       build_parametric_vector, class_level, classify,
                       find_dominance_vector, is_in_sbar_plus, is_sbar_nk,
                       is_z_matrix)
from .factors import FactorState, factor_update
from .generate import (GENERATOR_ID, GenSpec, gen_sbar_nk, gen_sbar_random,
                       gen_tridiagonal, generate)
from .matrices import (SymMatrix, as_sym, comparison_matrix,
                       irreducible_components, is_pd, is_psd, schur_complement,
                       tridiag_solve)
from .oracle import (enumerate_active_sets, find_recession_direction, kkt_residual,
                     recession_check)
from .pivoting import (ERROR, OPTIMAL, UNBOUNDED, ParamState, Partition,
                       PivotDecision, QpInstance, SolveOutcome, Stats,
                       apply_pivot, compute_bars, ratio_test_tau,
                       second_ratio_test, solution_at_tau, solve_pd, solve_psd)
from .qpb import load_qpb, parse_qpb, save_qpb, write_qpb
from .reductions import (DropStep, FixStep, FlipStep, ReductionTrace,
                         flip_variable, fm_feasibility_2var,
                         interior_solution, preprocess_zero_diag,
                         reduce_nonpositive_row, solve_sbar, solve_sbar_n1,
                         solve_sbar_nk)

__version__ = "0.1.0"
