"""Invariance of the solution under reordering, scaling, bound flips,
block-diagonal composition and the storage state of the matrix.

Each transform maps the problem to an equivalent one, so the status must
match, the objective must map as the transform says, and the solution
mapped back must pass the KKT check of the original problem.
"""

import numpy as np
import pytest

from pppa import (GenSpec, QpInstance, SymMatrix, enumerate_active_sets, flip_variable,
                  gen_sbar_nk, gen_sbar_random, irreducible_components, kkt_residual,
                  recession_check, solve_psd, solve_sbar, solve_sbar_n1, solve_sbar_nk)
from pppa.reductions import FlipStep

from helpers import banded_family, objectives_match


def _kkt_ok(inst, x):
    return kkt_residual(inst, x) <= 1e-8 * (1 + np.max(np.abs(inst.q)))


def test_reversal_and_scaling_on_banded_storage():
    # Reversing the index order keeps M tridiagonal; scaling (M, q) by c > 0
    # keeps x and scales the objective by c.  The family's p = 10 + |q| is
    # not the class construction's p, and on a few singular matrices the
    # path ends off the KKT set, so this compares the engine with itself.
    rng = np.random.default_rng(17)
    cases = 0
    for d, e, q, u, p in banded_family():
        inst = QpInstance(SymMatrix.from_banded(d, e), q, u)
        base = solve_psd(inst, p)
        for c in 10.0 ** rng.uniform(-2.0, 2.0, size=2):
            flipped = QpInstance(SymMatrix.from_banded(c * d[::-1], c * e[::-1]),
                                 c * q[::-1], u[::-1])
            out = solve_psd(flipped, p[::-1])
            assert flipped.m._dense is None
            assert out.status == base.status
            if out.status == "optimal":
                assert abs(out.objective - c * base.objective) <= 1e-7 * max(
                    1.0, abs(c * base.objective))
            else:
                assert recession_check(flipped, out.ray)
                assert recession_check(inst, out.ray[::-1])
            cases += 1
    assert cases == 800


def test_permutation_through_solve_sbar():
    n = 60
    for seed in range(20):
        inst = gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=0.2, seed=seed))
        perm = np.random.default_rng(seed).permutation(n)
        permuted = QpInstance(SymMatrix.from_dense(inst.m.full()[np.ix_(perm, perm)]),
                              inst.q[perm], inst.u[perm])
        base, out = solve_sbar(inst), solve_sbar(permuted)
        assert out.status == base.status == "optimal"
        assert objectives_match(out.objective, base.objective)
        x = np.empty(n)
        x[perm] = out.x
        assert _kkt_ok(inst, x)


def _flip_cases():
    # Banded instances with a finite bound, then dense sbar_random ones
    # (every u is finite there).
    rng = np.random.default_rng(23)
    for d, e, q, u, _ in banded_family(count=150, seed=11):
        finite = np.flatnonzero(np.isfinite(u))
        if finite.size:
            yield QpInstance(SymMatrix.from_banded(d, e), q, u), int(rng.choice(finite))
    for seed in range(10):
        inst = gen_sbar_random(GenSpec(family="sbar_random", n=30, rho=0.3, seed=seed))
        yield inst, int(rng.integers(0, inst.n))


def test_flip_variable_on_a_finite_bound():
    # With z_i = u_i - x_i, f(x) = f~(z) + u_i q_i + u_i^2 m_ii / 2.
    statuses = set()
    for inst, i in _flip_cases():
        u_i = float(inst.u[i])
        m2, q2 = flip_variable(inst.m, inst.q, i, u_i)
        base, out = solve_sbar(inst), solve_sbar(QpInstance(m2, q2, inst.u))
        assert out.status == base.status
        statuses.add(out.status)
        if out.status == "optimal":
            shift = u_i * inst.q[i] + 0.5 * u_i * u_i * inst.m.value(i, i)
            assert objectives_match(out.objective + shift, base.objective)
            x = FlipStep(i=i, u_i=u_i).lift_point(out.x)
            assert _kkt_ok(inst, x)
        else:
            assert recession_check(inst, FlipStep(i=i, u_i=u_i).lift_ray(out.ray))
    assert statuses == {"optimal", "unbounded"}


def _block_diag(a, b):
    m = np.zeros((a.n + b.n, a.n + b.n))
    m[:a.n, :a.n] = a.m.full()
    m[a.n:, a.n:] = b.m.full()
    return QpInstance(SymMatrix.from_dense(m), np.concatenate([a.q, b.q]),
                      np.concatenate([a.u, b.u]))


@pytest.mark.parametrize("k", [1, 2])
def test_block_diagonal_composition(k):
    # The level-k driver solves each irreducible block on its own, so
    # diag(A, B) gives the two separate answers side by side.
    for seed in range(6):
        a = gen_sbar_nk(GenSpec(family="sbar_nk", n=5, rho=0.6, seed=seed, k=1))
        b = gen_sbar_random(GenSpec(family="sbar_random", n=4, rho=0.6, seed=seed))
        out = solve_sbar_nk(_block_diag(a, b), k)
        parts = [solve_sbar_nk(a, k), solve_sbar_nk(b, k)]
        assert out.status == "optimal"
        assert out.x.tobytes() == np.concatenate([part.x for part in parts]).tobytes()
        assert out.stats.pivots == sum(part.stats.pivots for part in parts)


@pytest.mark.parametrize("solve", [solve_sbar_n1, lambda inst: solve_sbar_nk(inst, 2)],
                         ids=["sbar_n1", "sbar_nk2"])
def test_comparison_psd_input_goes_straight_to_pivoting(solve):
    for seed in range(5):
        inst = gen_sbar_random(GenSpec(family="sbar_random", n=12, rho=0.5, seed=seed))
        assert len(irreducible_components(inst.m)) == 1
        out, ref = solve(inst), solve_sbar(inst, check=False)
        assert out.stats.subproblems == 0
        assert out.x.tobytes() == ref.x.tobytes()


def _answer(out):
    vector = out.x if out.status == "optimal" else out.ray
    return out.status, vector.tobytes(), out.stats.pivots


def test_cached_dense_view_keeps_the_banded_answer():
    # full() caches a dense array on a banded matrix; the tridiagonal tag
    # alone picks the kernels, so the answer stays the same to the bit.
    for d, e, q, u, _ in banded_family():
        viewed = SymMatrix.from_banded(d, e)
        viewed.full()
        out = solve_sbar(QpInstance(viewed, q, u))
        assert _answer(out) == _answer(solve_sbar(QpInstance(SymMatrix.from_banded(d, e), q, u)))


def test_banded_family_against_the_oracle():
    # The oracle reads the dense view first, on the same instance object.
    statuses = set()
    for d, e, q, u, _ in banded_family():
        if d.size > 10:
            continue
        inst = QpInstance(SymMatrix.from_banded(d, e), q, u)
        ref = enumerate_active_sets(inst)
        out = solve_sbar(inst)
        assert out.status == ref.status
        statuses.add(out.status)
        if out.status == "optimal":
            assert abs(out.objective - ref.objective) <= 1e-8 * max(1.0, abs(ref.objective))
    assert statuses == {"optimal", "unbounded"}
