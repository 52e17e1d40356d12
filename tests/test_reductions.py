import numpy as np
import pytest
from scipy.optimize import linprog

from pppa import (QpInstance, SolveOutcome, SymMatrix, build_parametric_vector,
                  class_level, comparison_matrix, enumerate_active_sets,
                  find_dominance_vector, flip_variable, fm_feasibility_2var,
                  interior_solution, is_in_sbar_plus, is_pd, kkt_residual,
                  preprocess_zero_diag, recession_check, reduce_nonpositive_row,
                  solve_sbar, solve_sbar_n1, solve_sbar_nk)
from pppa import reductions
from pppa.errors import (ClassificationFailed, GenerationFailed, InvariantViolation,
                         NotApplicable, PppaError, PreconditionViolated, RecursionCapExceeded)
from pppa.generate import GenSpec, gen_sbar_nk, gen_sbar_random
from pppa.reductions import DropStep, FixStep, FlipStep, ReductionTrace

from helpers import (cyclic_family, dense_of_band, dyadic_laplacian, laplacian_bump,
                     make_instance, mixed_level_blocks, objectives_match, random_sbar)


class TestPreprocessZeroDiag:
    def _inst(self, q0, u0):
        m = np.zeros((2, 2))
        m[1, 1] = 2.0
        return make_instance(m, [q0, -1.0], [u0, 5.0])

    def test_nonnegative_cost_fixes_to_zero(self):
        reduced, steps, ray = preprocess_zero_diag(self._inst(1.0, np.inf))
        assert ray is None
        assert [s.value for s in steps] == [0.0]
        assert reduced.n == 1 and reduced.q == pytest.approx([-1.0])

    def test_negative_cost_fixes_to_upper(self):
        reduced, steps, ray = preprocess_zero_diag(self._inst(-1.0, 2.0))
        assert ray is None
        assert [s.value for s in steps] == [2.0]

    def test_negative_cost_without_bound_is_unbounded(self):
        inst = self._inst(-1.0, np.inf)
        _, steps, ray = preprocess_zero_diag(inst)
        assert not steps and ray is not None
        assert recession_check(inst, ray)

    def test_nonzero_row_with_zero_diagonal_rejected(self):
        m = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(InvariantViolation):
            preprocess_zero_diag(make_instance(m, [0.0, 0.0], [1.0, 1.0]))


class TestReduceNonpositiveRow:
    def test_drop_variable_without_bound(self):
        inst = make_instance([[1, -1], [-1, 1]], [-1.0, 0.0], [np.inf, np.inf])
        d = np.array([1.0, 1.0])
        p = build_parametric_vector(inst.m, d)
        reduced, step = reduce_nonpositive_row(inst, p, 0)
        assert isinstance(step, DropStep)
        assert reduced.m.full() == pytest.approx(np.array([[0.0]]))
        assert reduced.q == pytest.approx([-1.0])
        out = solve_sbar(reduced)
        assert out.status == "unbounded"
        # the lifted ray certifies the original problem
        full = solve_sbar(inst)
        assert full.status == "unbounded" and recession_check(inst, full.ray)

    def test_flip_variable_with_bound(self):
        inst = make_instance([[1, -1], [-1, 1]], [-1.0, 0.0], [2.0, np.inf])
        d = np.array([1.0, 1.0])
        p = build_parametric_vector(inst.m, d)
        reduced, step = reduce_nonpositive_row(inst, p, 0)
        assert isinstance(step, FlipStep)
        assert reduced.q == pytest.approx([-1.0, -2.0])
        assert reduced.m.full() == pytest.approx(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not np.isfinite(reduced.u[0])

    def test_flip_twice_is_identity(self):
        rng = np.random.default_rng(0)
        m = random_sbar(rng, 4)
        q = rng.uniform(-2, 2, size=4)
        m1, q1 = flip_variable(m, q, 2, 1.5)
        m2, q2 = flip_variable(m1, q1, 2, 1.5)
        assert m2.full() == pytest.approx(m.full())
        assert q2 == pytest.approx(q)

    def test_banded_flip_matches_dense_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = rng.uniform(0.5, 2.0, size=n)
            e = rng.uniform(-1.0, 1.0, size=n - 1)
            e[rng.uniform(size=n - 1) < 0.3] = 0.0
            q = rng.uniform(-2.0, 2.0, size=n)
            q[rng.uniform(size=n) < 0.2] = -0.0
            i, u_i = int(rng.integers(0, n)), rng.uniform(0.5, 3.0)
            banded = SymMatrix.from_banded(d, e)
            mb, qb = flip_variable(banded, q, i, u_i)
            md, qd = flip_variable(SymMatrix.from_dense(dense_of_band(d, e)), q, i, u_i)
            assert qb.tobytes() == qd.tobytes()
            # Equal values; a flipped zero coupling is -0.0 on the band.
            assert np.array_equal(mb.full(), md.full())
            assert mb.tridiagonal and banded._dense is None

    def test_preconditions_enforced(self):
        inst = make_instance([[2, 1], [1, 2]], [-1.0, 0.0], [np.inf, np.inf])
        d = np.ones(2)
        p = build_parametric_vector(inst.m, d)  # strictly positive here
        with pytest.raises(PreconditionViolated):
            reduce_nonpositive_row(inst, p, 0)

    def test_reduction_preserves_class(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            m = SymMatrix.from_dense(dyadic_laplacian(rng, n, flip_edges_from=[0]).full())
            q = rng.uniform(0.5, 2.0, size=n)
            q[0] = -1.0
            finite = rng.random() < 0.5
            u = np.full(n, np.inf)
            if finite:
                u[0] = 2.0
            inst = QpInstance(m, q, u)
            d = find_dominance_vector(comparison_matrix(m))
            p = build_parametric_vector(m, d)
            if p[0] > 1e-12:
                continue
            reduced, step = reduce_nonpositive_row(inst, p, 0)
            assert is_in_sbar_plus(reduced.m)


class TestReductionTrace:
    def test_replay_soundness_on_random_planted(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(4, 9))
            planted = [0] if rng.random() < 0.6 else [0, 1]
            m = dyadic_laplacian(rng, n, flip_edges_from=planted)
            q = rng.uniform(0.5, 4.0, size=n)
            for i in planted:
                q[i] = -rng.uniform(0.5, 2.0)
            u = np.full(n, np.inf)
            u[n - 1] = rng.uniform(1.0, 3.0)  # keeps the problem bounded
            if rng.random() < 0.5 and planted:
                u[planted[0]] = rng.uniform(1.0, 3.0)
            inst = QpInstance(m, q, u)
            out = solve_sbar(inst)
            assert out.status == "optimal"
            assert out.stats.reductions >= 1
            assert np.all(out.x >= -1e-12) and np.all(out.x <= inst.u + 1e-12)
            assert kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(q)))
            if n <= 8:
                ref = enumerate_active_sets(inst)
                assert objectives_match(out.objective, ref.objective)

    def test_manual_lift_composition(self):
        trace = ReductionTrace(original_n=3)
        trace.steps.append(DropStep(i=1, row=np.array([-1.0, 0.0]), m_ii=2.0, q_i=-4.0))
        x = np.array([3.0, 5.0])
        lifted = trace.lift_point(x)
        assert lifted == pytest.approx([3.0, (4.0 + 3.0) / 2.0, 5.0])
        d = trace.lift_ray(np.array([2.0, 0.0]))
        assert d == pytest.approx([2.0, 1.0, 0.0])

    def test_reduction_loop_event_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            m = dyadic_laplacian(rng, n)
            q = -rng.uniform(0.5, 2.0, size=n)
            u = np.where(rng.uniform(size=n) < 0.5, np.inf, rng.uniform(1.0, 3.0, size=n))
            inst = QpInstance(SymMatrix.from_dense(m.full()), q, u)
            out = solve_sbar(inst)
            assert out.stats.reductions <= 2 * n


class TestSolveSbar:
    def test_block_diagonal_concatenates(self):
        m = np.zeros((2, 2))
        m[0, 0], m[1, 1] = 2.0, 1.0
        inst = make_instance(m, [-3.0, 1.0], [1.0, 4.0])
        out = solve_sbar(inst)
        assert out.x == pytest.approx([1.0, 0.0])

    def test_dominant_corner(self):
        inst = make_instance([[2, 1], [1, 2]], [-3.0, -3.0], [1.0, 1.0])
        out = solve_sbar(inst)
        assert out.x == pytest.approx([1.0, 1.0])
        assert objectives_match(out.objective, enumerate_active_sets(inst).objective)

    def test_unbounded_singular(self):
        inst = make_instance([[1, -1], [-1, 1]], [-1.0, 0.0], [np.inf, np.inf])
        out = solve_sbar(inst)
        assert out.status == "unbounded"
        assert recession_check(inst, out.ray)

    def test_classification_check(self):
        with pytest.raises(ClassificationFailed):
            solve_sbar(make_instance([[1, 3], [3, 5]], [0.0, 0.0], [1.0, 1.0]))

    def test_matches_oracle_small(self):
        rng = np.random.default_rng(4)
        for seed in range(60):
            n = 2 + seed % 6
            inst = gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=0.5, seed=seed))
            out = solve_sbar(inst, check=False)
            ref = enumerate_active_sets(inst)
            assert out.status == ref.status == "optimal"
            assert objectives_match(out.objective, ref.objective)


class TestFmFeasibility:
    def test_unique_solution_inside_bounds(self):
        x = fm_feasibility_2var(np.eye(2), np.array([1.0, 1.0]),
                                lower=np.zeros(2), upper=np.array([2.0, 2.0]))
        assert x == pytest.approx([1.0, 1.0])

    def test_unique_solution_violating_bounds(self):
        x = fm_feasibility_2var(np.eye(2), np.array([3.0, 1.0]),
                                lower=np.zeros(2), upper=np.array([2.0, 2.0]))
        assert x is None

    def test_singular_line_matches_scan_oracle(self):
        # Independent oracle: walk a fine grid along the exact solution
        # line of the rank-1 system and test box membership directly.
        rng = np.random.default_rng(5)
        for _ in range(60):
            v = rng.uniform(-1, 1, size=2)
            eq_a = np.outer(rng.uniform(0.2, 1.0, size=2) * np.sign(rng.uniform(-1, 1, size=2)), v)
            consistent = rng.random() < 0.7
            if consistent:
                x_star = rng.uniform(-1.0, 3.0, size=2)
                eq_b = eq_a @ x_star
            else:
                eq_b = rng.uniform(0.5, 1.0, size=2) * np.array([1.0, -1.0])
                if np.linalg.matrix_rank(np.column_stack([eq_a, eq_b]), tol=1e-10) == 1:
                    continue
            upper = rng.uniform(0.5, 2.5, size=2)
            got = fm_feasibility_2var(eq_a, eq_b, lower=np.zeros(2), upper=upper)

            x0, *_ = np.linalg.lstsq(eq_a, eq_b, rcond=None)
            if np.max(np.abs(eq_a @ x0 - eq_b)) > 1e-9 * (1 + np.max(np.abs(eq_b))):
                scan_feasible = False  # inconsistent system
            else:
                _, _, vt = np.linalg.svd(eq_a)
                direction = vt[-1]
                span = 2.0 + float(np.max(upper)) + float(np.max(np.abs(x0)))
                ts = np.linspace(-span, span, 20001)
                pts = x0[None, :] + ts[:, None] * direction[None, :]
                inside = np.all(pts >= -1e-9, axis=1) & np.all(pts <= upper + 1e-9, axis=1)
                scan_feasible = bool(np.any(inside))
            if got is not None:
                assert np.all(got >= -1e-9) and np.all(got <= upper + 1e-9)
                assert np.max(np.abs(eq_a @ got - eq_b)) <= 1e-7 * (1 + np.max(np.abs(eq_b)))
            else:
                assert not scan_feasible

    def test_inequality_only_two_vars(self):
        g = np.array([[1.0, 1.0], [-1.0, 0.0]])
        h = np.array([2.0, -0.5])
        x = fm_feasibility_2var(np.zeros((1, 2)), np.zeros(1), g, h,
                                lower=np.zeros(2), upper=np.array([np.inf, np.inf]))
        assert x is not None
        assert x[0] >= 0.5 - 1e-9 and x.sum() <= 2 + 1e-9

    def test_infeasible_inequalities(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        h = np.array([1.0, -2.0])
        x = fm_feasibility_2var(np.zeros((1, 2)), np.zeros(1), g, h)
        assert x is None


class TestSolveSbarN1:
    def test_agrees_with_sbar_on_class_members(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            n = 3 + seed % 4
            inst = gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=0.5, seed=200 + seed))
            a = solve_sbar_n1(inst)
            b = solve_sbar(inst, check=False)
            assert a.status == b.status == "optimal"
            assert objectives_match(a.objective, b.objective)

    def test_planted_level_one_matches_oracle(self):
        found = 0
        seed = 0
        while found < 12:
            seed += 1
            try:
                inst = gen_sbar_nk(GenSpec(family="sbar_nk", n=4 + seed % 3,
                                           rho=0.6, seed=seed, k=1))
            except Exception:
                continue
            found += 1
            out = solve_sbar_n1(inst)
            ref = enumerate_active_sets(inst)
            assert out.status == ref.status == "optimal"
            assert objectives_match(out.objective, ref.objective)
            assert kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(inst.q)))
            assert out.stats.subproblems <= 2 * inst.n + 1

    def test_interior_optimum_via_final_check(self):
        # q = -M x* with x* strictly inside the box: no bound certificate
        # fires and the stationary-feasibility check returns the optimum.
        a = np.full((4, 4), 0.45)
        np.fill_diagonal(a, 1.0)
        x_star = np.array([0.5, 0.6, 0.4, 0.55])
        q = -(a @ x_star)
        inst = make_instance(a, q, np.ones(4))
        out = solve_sbar_n1(inst)
        assert out.status == "optimal"
        assert out.x == pytest.approx(x_star, abs=1e-8)
        assert out.stats.subproblems == 1

    def test_unbounded_subproblem_propagates(self):
        m = np.zeros((3, 3))
        m[:2, :2] = [[1, -1], [-1, 1]]
        m[2, 2] = 1.0
        inst = make_instance(m, [-1.0, 0.0, 1.0], [np.inf, np.inf, np.inf])
        out = solve_sbar_n1(inst)
        assert out.status == "unbounded"
        assert out.ray is not None and recession_check(inst, out.ray)


class TestSolveSbarNk:
    def test_level_one_agreement(self):
        found = 0
        seed = 100
        while found < 6:
            seed += 1
            try:
                inst = gen_sbar_nk(GenSpec(family="sbar_nk", n=4, rho=0.6, seed=seed, k=1))
            except Exception:
                continue
            found += 1
            a = solve_sbar_nk(inst, 2)
            b = solve_sbar_n1(inst)
            assert objectives_match(a.objective, b.objective)

    def test_planted_level_two_matches_oracle(self):
        found = 0
        seed = 300
        while found < 5:
            seed += 1
            try:
                inst = gen_sbar_nk(GenSpec(family="sbar_nk", n=4, rho=0.6, seed=seed, k=2))
            except Exception:
                continue
            found += 1
            out = solve_sbar_nk(inst, 2)
            ref = enumerate_active_sets(inst)
            assert out.status == ref.status == "optimal"
            assert objectives_match(out.objective, ref.objective)

    def test_unbounded_detected_through_recursion(self):
        m = np.zeros((3, 3))
        m[:2, :2] = [[1, -1], [-1, 1]]
        m[2, 2] = 1.0
        inst = make_instance(m, [-1.0, 0.0, 1.0], [np.inf, np.inf, np.inf])
        out = solve_sbar_nk(inst, 2)
        assert out.status == "unbounded"

    def test_recursion_cap(self):
        with pytest.raises(RecursionCapExceeded):
            solve_sbar_nk(make_instance(np.eye(2), [0.0, 0.0], [1.0, 1.0]), 9)

    def test_check_classifies_each_block(self):
        # No level holds for the whole matrix, so a whole-matrix check refuses it.
        inst = mixed_level_blocks()
        out = solve_sbar_nk(inst, 1, check=True)
        assert out.status == "optimal"
        assert out.objective == pytest.approx(-5.78856383, abs=1e-8)
        assert kkt_residual(inst, out.x) <= 1e-12
        with pytest.raises(ClassificationFailed, match="classification_failed"):
            solve_sbar_nk(inst, 0, check=True)

    @pytest.mark.parametrize("k", [0, 1])
    def test_each_block_anchors_at_its_own_scale(self, k):
        # The small block is positive definite: at the large block's scale its
        # diagonal would read as zero and the solve as unbounded.
        a = np.zeros((4, 4))
        a[:2, :2] = 1e6 * np.array([[2.0, -1.0], [-1.0, 2.0]])
        a[2:, 2:] = 1e-5 * np.array([[2.0, 1.0], [1.0, 2.0]])
        inst = make_instance(a, -np.ones(4), np.full(4, np.inf))
        out = solve_sbar_nk(inst, k)
        assert out.status == "optimal"
        assert out.x[2:] == pytest.approx([1e5 / 3, 1e5 / 3])
        assert kkt_residual(inst, out.x) <= 1e-12

    @pytest.mark.parametrize("k, check", [(0, False), (1, False), (2, True)])
    @pytest.mark.parametrize("q3", [-1e-7, -1e-5])
    def test_zero_diagonal_ray_at_the_problems_q_scale(self, k, check, q3):
        # x_3 separates with m_33 = 0.  The driver must call it unbounded
        # exactly when recession_check, which scales by the whole problem's q
        # (1e-8 * (1 + 100)), accepts the ray e_3: not for q_3 = -1e-7, where
        # x_3 = 0 leaves a KKT residual within that tolerance.
        a = np.zeros((3, 3))
        a[:2, :2] = [[2.0, -1.0], [-1.0, 2.0]]
        inst = make_instance(a, [-100.0, 1.0, q3], np.full(3, np.inf))
        out = solve_sbar_nk(inst, k, check=check)
        if q3 == -1e-7:
            assert out.status == "optimal"
            assert kkt_residual(inst, out.x) <= 1e-8 * 101
        else:
            assert out.status == "unbounded"
            assert recession_check(inst, out.ray)


class TestLinearTermConstancy:
    def test_gradient_row_constant_over_optima(self):
        # Singular matrices admit many optima; the certificate quantity
        # sum_j m_ij x_j must not depend on which optimum was computed.
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(3, 7))
            base = rng.uniform(-1, 1, size=(n, 2))
            a = base @ base.T  # psd, rank 2
            a = a + np.diag(np.full(n, 1e-9))
            q = rng.uniform(-1, 1, size=n)
            u = rng.uniform(0.5, 2.0, size=n)
            inst = make_instance(a, q, u)
            ref = enumerate_active_sets(inst)
            if ref.status != "optimal":
                continue
            x_hat = ref.x
            x_tilde = None
            if is_in_sbar_plus(inst.m):
                x_tilde = solve_sbar(inst).x
            else:
                x_tilde = enumerate_active_sets(
                    QpInstance(inst.m, inst.q.copy(), inst.u.copy())).x
            row = a[0]
            lhs = abs(row @ x_hat - row @ x_tilde)
            assert lhs <= 1e-6 * (1 + np.max(np.abs(q)))
            checked += 1
        assert checked > 20


INTERIOR_CASES = [(n, deficit, repeat) for n in range(3, 9)
                  for deficit, repeat in ((0, False), (1, False), (1, True), (2, False))
                  if n >= 4 or not repeat]


def _planted(n, k, seed):
    for attempt in range(50):
        try:
            return gen_sbar_nk(GenSpec(family="sbar_nk", n=n, rho=0.6, seed=seed + 7 * attempt,
                                       k=k))
        except GenerationFailed:
            continue
    raise GenerationFailed(f"no planted k={k} n={n} instance near seed {seed}")


def _driver_family(name):
    """Instances of one family that reach the fixing driver, n <= 10."""
    if name in ("planted-k1", "planted-k2"):
        # A finite box: the oracle enumerates 3^n active sets, so n <= 8.
        return [_planted(4 + seed % 5, int(name[-1]), seed) for seed in range(1, 11)]
    if name == "interior":
        # q = -M x* with x* > 0 and u = inf: the interior step answers.
        rng = np.random.default_rng(18)
        out = []
        for n in range(3, 11):
            m = _planted(n, 1, 40 + n).m
            out.append(QpInstance(m, -m.matvec(rng.uniform(0.5, 2.0, size=n)),
                                  np.full(n, np.inf)))
        return out
    if name == "bump":
        rng = np.random.default_rng(19)
        out = []
        while len(out) < 10:
            inst = laplacian_bump(rng, 4 + len(out) % 7)
            if inst is not None:
                out.append(inst)
        return out
    return [inst for n in range(3, 11)
            for inst in cyclic_family(n, seeds=range(2), fractions=(0.0,))]


class TestFixingDriverOrder:
    """The fixing driver certifies first (interior step, then the ray) and
    enumerates its bound fixes after; its answers are the oracle's."""

    @pytest.mark.parametrize("family", ["planted-k1", "planted-k2", "interior", "bump",
                                        "cyclic-f0"])
    def test_agrees_with_the_oracle(self, family):
        for inst in _driver_family(family):
            level = class_level(inst.m)
            assert level in (1, 2)
            out = solve_sbar_nk(inst, level, check=True)
            ref = enumerate_active_sets(inst)
            assert out.status == ref.status
            if out.status == "optimal":
                assert objectives_match(out.objective, ref.objective)
            else:
                assert recession_check(inst, out.ray)
            assert out.stats.subproblems <= 2 * inst.n + 1
            if family in ("interior", "bump"):
                # One interior step, and for the bump the ray right after it.
                assert out.status == ("optimal" if family == "interior" else "unbounded")
                assert out.stats.subproblems == 1

    def test_a_full_rank_block_fixes_the_most_violated_bound_first(self, monkeypatch):
        # x0 = -M^{-1} q has x0_2 < 0, the only broken bound: its lower fix runs
        # first and certifies, so the solve takes the interior step and one fix.
        a = np.full((4, 4), 0.45)
        np.fill_diagonal(a, 1.0)
        x0 = np.array([0.5, 0.6, -0.4, 0.55])
        inst = make_instance(a, -(a @ x0), np.full(4, 2.0))
        fixed = []
        real = reductions._lift_outcome
        monkeypatch.setattr(reductions, "_lift_outcome",
                            lambda step, out: fixed.append(step) or real(step, out))
        out = solve_sbar_nk(inst, 1)
        assert [(s.i, s.value) for s in fixed if isinstance(s, FixStep)] == [(2, 0.0)]
        assert out.stats.subproblems == 2
        assert objectives_match(out.objective, enumerate_active_sets(inst).objective)


def _linprog_feasible(a, q, u):
    """Reference: is {Mx = -q, 0 <= x <= u} nonempty?"""
    bounds = [(0.0, ui if np.isfinite(ui) else None) for ui in u]
    res = linprog(np.zeros(len(q)), A_eq=a, b_eq=-q, bounds=bounds, method="highs")
    assert res.status in (0, 2)
    return res.status == 0


class TestInteriorSolution:
    def test_recovers_stationary_point(self):
        rng = np.random.default_rng(13)
        m = random_sbar(rng, 5)
        x_star = rng.uniform(0.2, 0.8, size=5)
        inst = QpInstance(m, -(m.full() @ x_star), np.ones(5))
        x = interior_solution(inst)
        assert x is not None
        assert x == pytest.approx(x_star, abs=1e-8)

    def test_none_when_inconsistent(self):
        inst = make_instance([[1, -1], [-1, 1]], [-1.0, 0.0], [np.inf, np.inf])
        assert interior_solution(inst) is None

    @pytest.mark.parametrize("n, deficit, repeat", INTERIOR_CASES)
    def test_matches_linprog_reference(self, n, deficit, repeat):
        # M = B B' of rank n - deficit; with ``repeat`` rows 0 and 1 of M
        # coincide, so the leading order-(n-2) subset is singular.  Scaling
        # (M, q) by c keeps the feasible set, so the reference is taken at
        # c = 1; at rank n-2 the rank decision must follow M's scale.
        rng = np.random.default_rng(100 * n + 10 * deficit + repeat)
        b = rng.normal(size=(n, n - deficit))
        if repeat:
            b[1] = b[0]
        a = b @ b.T
        assert is_pd(a[:n - 2, :n - 2]) != repeat
        u = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(1.0, 2.0, n))
        inside = rng.uniform(0.2, 0.8, n)
        outside = rng.uniform(0.2, 0.8, n)
        outside[rng.integers(n)] = -1.0
        qs = [-a @ inside, -a @ outside]
        if deficit:
            qs.append(qs[0] + np.linalg.eigh(a)[1][:, 0])  # leaves the range of M
        found = []
        for q in qs:
            feasible = _linprog_feasible(a, q, u)
            for c in (1.0, 1e2, 1e4, 1e6):
                inst = make_instance(c * a, c * q, u)
                x = interior_solution(inst)
                assert (x is not None) == feasible, c
                if x is not None:
                    assert kkt_residual(inst, x) <= 1e-10 * (1 + np.max(np.abs(c * q)))
            found.append(feasible)
        assert found[0] and not all(found)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_rank_below_n_minus_2_is_none(self, n):
        # q + Mx = 0 has interior solutions, but they form a set wider
        # than the two variables the feasibility check takes.
        rng = np.random.default_rng(n)
        b = rng.normal(size=(n, n - 3))
        a = b @ b.T
        inst = make_instance(a, -a @ rng.uniform(0.2, 0.8, n), np.full(n, 2.0))
        assert interior_solution(inst) is None



def _frustrated_cycle(n):
    """Signed n-cycle with one frustrated loop, shifted to just above psd.

    The random diagonal puts lambda_min of M and of its comparison matrix
    both within about 1e-13 of zero at n >= 50: the boundary of level 0.
    """
    rng = np.random.default_rng(n)
    w = rng.uniform(0.5, 1.5, n)
    s = rng.choice([-1.0, 1.0], n)
    if np.prod(-s) > 0:
        s[0] = -s[0]
    a = np.zeros((n, n))
    nxt = (np.arange(n) + 1) % n
    a[np.arange(n), nxt] = a[nxt, np.arange(n)] = s * w
    b = a + np.diag(rng.uniform(0.0, 0.2, n))
    lm = np.linalg.eigvalsh(b)[0]
    lc = np.linalg.eigvalsh(comparison_matrix(b).full())[0]
    m = b + (-lm + 1e-3 * (lm - lc)) * np.eye(n)
    return make_instance(m, np.random.default_rng(n).uniform(-1.0, 1.0, n), np.full(n, 2.0))


def test_frustrated_cycle_is_solved_or_refused():
    # Solved at its class level (0), the pivoting driver reaches objective
    # -2.36313 with KKT residual 0.196 (the true optimum is -2.36758); the
    # certified exit refuses that answer.
    inst = _frustrated_cycle(100)
    k = class_level(inst.m)
    assert k == 0
    try:
        out = solve_sbar_nk(inst, k)
    except PppaError:
        return
    assert out.status != "optimal" or kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(inst.q)))


# comparison(M) has kernel (1, 1, 1), so p_0 = 0: with q_0 < 0 and no upper
# bound, index 0 blocks the start and is dropped, and the Schur complement
# it leaves is diag(0.5, 0.5), two blocks.
_SPLIT_BY_A_DROP = [[1.0, -0.5, -0.5], [-0.5, 0.75, 0.25], [-0.5, 0.25, 0.75]]


@pytest.mark.parametrize("q, u", [
    ((-1.0, 0.5, 0.3), (np.inf, 2.0, 2.0)),
    ((-1.0, 0.5, -0.3), (np.inf, 2.0, 2.0)),
    ((-2.0, 0.1, 0.3), (np.inf, 1.0, 3.0)),
    ((-1.0, -0.5, 0.3), (np.inf, 0.5, np.inf)),
    ((-3.0, 0.5, 0.3), (np.inf, 0.2, 2.0)),
])
def test_a_drop_that_splits_the_block_solves_each_part(monkeypatch, q, u):
    splits = []
    solve_blocks = reductions._solve_blocks

    def spy(instance, solve, blocks=None):
        if blocks is not None:
            splits.append(len(blocks))
        return solve_blocks(instance, solve, blocks)

    monkeypatch.setattr(reductions, "_solve_blocks", spy)
    inst = make_instance(_SPLIT_BY_A_DROP, q, u)
    out = solve_sbar(inst)
    ref = enumerate_active_sets(inst)
    assert splits == [2]
    assert out.status == ref.status == "optimal"
    assert objectives_match(out.objective, ref.objective)


def test_unchecked_matrix_outside_the_class_is_classification_failed():
    inst = make_instance([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ClassificationFailed) as info:
        solve_sbar(inst, check=False)
    assert isinstance(info.value.__cause__, NotApplicable)


@pytest.mark.parametrize("answer", [
    SolveOutcome(status="optimal", x=np.array([0.0, 0.0])),
    SolveOutcome(status="unbounded", ray=np.array([1.0, 0.0])),
])
def test_an_uncertified_answer_is_refused(monkeypatch, answer):
    # q = (-1, -1), u = (inf, 1): x = 0 is not a KKT point, and (1, 0) is
    # no descent ray of M = I.
    monkeypatch.setattr(reductions, "_solve_nk", lambda *args: answer)
    inst = make_instance(np.eye(2), [-1.0, -1.0], [np.inf, 1.0])
    with pytest.raises(InvariantViolation):
        solve_sbar_nk(inst, 0)


@pytest.mark.parametrize("level", [0, 2])
def test_the_exit_prices_and_certifies_the_answer_it_returns(level):
    # Level 0 reaches the pivoting driver directly; level 2 goes through the
    # fixing driver on the first block of mixed_level_blocks.
    if level == 0:
        rng = np.random.default_rng(7)
        inst = make_instance(random_sbar(rng, 8), rng.uniform(-3.0, 3.0, 8), np.full(8, 1.5))
    else:
        inst = mixed_level_blocks()
    out = solve_sbar_nk(inst, level)
    assert out.status == "optimal"
    assert out.kkt_residual == kkt_residual(inst, out.x)
    assert out.objective == inst.objective(out.x)
    if level == 2:
        assert out.stats.subproblems > 0


def test_an_unbounded_ray_is_an_array_recession_check_accepts():
    inst = make_instance([[1.0, -1.0], [-1.0, 1.0]], [-1.0, 0.5], [np.inf, np.inf])
    out = solve_sbar_nk(inst, 0)
    assert out.status == "unbounded"
    assert isinstance(out.ray, np.ndarray) and recession_check(inst, out.ray)
    assert out.objective is None and out.kkt_residual is None
