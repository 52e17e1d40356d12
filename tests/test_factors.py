import numpy as np
import pytest

from pppa import FactorState, SymMatrix, factor_update
from pppa.errors import SingularPivot

from helpers import random_pd


def scratch_inverse(m, alpha):
    a = m.full()
    return np.linalg.inv(a[np.ix_(alpha, alpha)])


class TestFactorUpdate:
    def test_bordered_add(self):
        m = SymMatrix.from_dense([[2, 1], [1, 2]])
        f = FactorState.for_alpha(m, [0])
        f2 = factor_update(f, 1, "add")
        assert f2.alpha == [0, 1]
        assert f2.inv == pytest.approx(np.array([[2, -1], [-1, 2]]) / 3.0)

    def test_add_then_remove_is_identity(self):
        # Updates are in place, so the state before them is snapshotted.
        rng = np.random.default_rng(0)
        m = random_pd(rng, 5)
        f = FactorState.for_alpha(m, [0, 3])
        alpha0, inv0 = list(f.alpha), f.inv.copy()
        f2 = factor_update(factor_update(f, 2, "add"), 2, "remove")
        assert f2 is f
        assert alpha0 == [0, 3] and f2.alpha == alpha0
        assert inv0 == pytest.approx(scratch_inverse(m, alpha0), abs=1e-12)
        assert f2.inv == pytest.approx(inv0, abs=1e-12)

    def test_add_to_empty(self):
        m = SymMatrix.from_dense([[2.0]])
        f = FactorState.for_alpha(m, [])
        f2 = factor_update(f, 0, "add")
        assert f2.inv == pytest.approx(np.array([[0.5]]))

    def test_singular_schur_scalar_rejected(self):
        m = SymMatrix.from_dense([[1, 1], [1, 1]])
        f = FactorState.for_alpha(m, [0])
        with pytest.raises(SingularPivot):
            factor_update(f, 1, "add")

    def test_invalid_direction(self):
        m = SymMatrix.from_dense([[2.0]])
        f = FactorState.for_alpha(m, [])
        with pytest.raises(ValueError):
            factor_update(f, 0, "sideways")

    def test_residual_invariant(self):
        rng = np.random.default_rng(1)
        m = random_pd(rng, 6)
        f = FactorState.for_alpha(m, [1, 4, 2])
        assert f.residual() <= 1e-10

    def test_random_walks_match_scratch(self):
        # From-scratch inverse is the oracle after every update.
        rng = np.random.default_rng(2)
        for walk in range(40):
            n = int(rng.integers(2, 9))
            m = random_pd(rng, n)
            f = FactorState.for_alpha(m, [])
            inside = []
            for _ in range(2 * n):
                if inside and (len(inside) == n or rng.random() < 0.4):
                    i = inside.pop(int(rng.integers(0, len(inside))))
                    f = factor_update(f, i, "remove")
                else:
                    candidates = [j for j in range(n) if j not in inside]
                    i = candidates[int(rng.integers(0, len(candidates)))]
                    f = factor_update(f, i, "add")
                    inside.append(i)
                if f.alpha:
                    ref = scratch_inverse(m, f.alpha)
                    cond = np.linalg.cond(m.full()[np.ix_(f.alpha, f.alpha)])
                    err = np.max(np.abs(f.inv - ref))
                    assert err <= 1e-9 * max(cond, 1.0)

    def test_refactorization_triggers_after_n_updates(self):
        rng = np.random.default_rng(3)
        m = random_pd(rng, 4)
        f = FactorState.for_alpha(m, [])
        for i in range(4):
            f = factor_update(f, i, "add")
        # counter resets to zero whenever a full refactorization happened
        assert f.refresh_counter <= m.n

    def test_schur_scalar_and_column_solve(self):
        rng = np.random.default_rng(4)
        m = random_pd(rng, 5)
        f = FactorState.for_alpha(m, [0, 2, 3])
        a = m.full()
        idx = [0, 2, 3]
        expected = a[4, 4] - a[4, idx] @ np.linalg.solve(a[np.ix_(idx, idx)], a[idx, 4])
        col, sigma = f.border(4)
        assert sigma == pytest.approx(expected)
        assert col == pytest.approx(np.linalg.solve(a[np.ix_(idx, idx)], a[idx, 4]))
