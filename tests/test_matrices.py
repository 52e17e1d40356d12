import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pppa import (SymMatrix, comparison_matrix, irreducible_components, is_pd,
                  is_psd, schur_complement, tridiag_solve)
from pppa.errors import SingularBlock, SingularPivot
from pppa.matrices import (_pivoted_cholesky, _trailing_block, definiteness,
                           tridiag_run_solve)
from pppa.tolerances import TOL_PIVOT, TOL_PSD

from helpers import random_pd, random_sbar, random_symmetric, random_tridiagonal_sym


@st.composite
def small_symmetric(draw, n_max=6):
    n = draw(st.integers(1, n_max))
    vals = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
                         min_size=n * n, max_size=n * n))
    a = np.array(vals).reshape(n, n)
    return SymMatrix.from_dense(np.tril(a) + np.tril(a, -1).T)


class TestComparisonMatrix:
    def test_z_matrix_is_fixed_point(self):
        m = [[2, -1], [-1, 2]]
        assert np.array_equal(comparison_matrix(m).full(), np.array(m, dtype=float))

    def test_positive_offdiagonal_negated(self):
        out = comparison_matrix([[2, 1], [1, 2]]).full()
        assert np.array_equal(out, [[2, -1], [-1, 2]])

    def test_zero_diagonal_preserved(self):
        out = comparison_matrix([[0, 3], [3, 5]]).full()
        assert np.array_equal(out, [[0, -3], [-3, 5]])

    @given(small_symmetric())
    def test_idempotent(self, m):
        once = comparison_matrix(m)
        twice = comparison_matrix(once)
        assert np.array_equal(once.full(), twice.full())

    @given(small_symmetric())
    def test_result_is_z(self, m):
        out = comparison_matrix(m).full()
        off = out - np.diag(np.diagonal(out))
        assert np.all(off <= 0.0)

    def test_banded_path_matches_dense(self):
        rng = np.random.default_rng(0)
        m = random_tridiagonal_sym(rng, 7)
        banded = comparison_matrix(m)
        dense = comparison_matrix(SymMatrix.from_dense(m.full()))
        assert np.array_equal(banded.full(), dense.full())


class TestQuadraticFormBound:
    def test_bound_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            m = random_symmetric(rng, n, spread=3.0)
            x = rng.uniform(-5.0, 5.0, size=n)
            mbar = comparison_matrix(m)
            lhs = x @ m.full() @ x
            rhs = np.abs(x) @ mbar.full() @ np.abs(x)
            assert lhs >= rhs - 1e-12 * (x @ x)


class TestSchurComplement:
    def test_two_by_two(self):
        out = schur_complement([[2, 1], [1, 2]], [0])
        assert out.full() == pytest.approx(np.array([[1.5]]))

    def test_empty_alpha_is_identity(self):
        m = random_symmetric(np.random.default_rng(1), 4)
        out = schur_complement(m, [])
        assert np.array_equal(out.full(), m.full())

    def test_tridiagonal_leading_block(self):
        # Independent dense-solve oracle for the same complement.
        a = np.array([[4.0, 1, 0], [1, 4, 1], [0, 1, 4]])
        alpha = [0, 1]
        x = np.linalg.solve(a[np.ix_(alpha, alpha)], a[np.ix_(alpha, [2])])
        expected = a[2, 2] - a[np.ix_([2], alpha)] @ x
        out = schur_complement(a, alpha)
        assert out.full() == pytest.approx(expected)
        assert out.full()[0, 0] == pytest.approx(56.0 / 15.0)

    def test_singular_block_rejected(self):
        with pytest.raises(SingularBlock):
            schur_complement([[0, 1], [1, 2]], [0])

    def test_determinantal_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            m = random_pd(rng, n)
            k = int(rng.integers(1, n))
            alpha = rng.choice(n, size=k, replace=False)
            s = schur_complement(m, alpha)
            det_m = _det_by_cholesky(m.full())
            det_a = _det_by_cholesky(m.full()[np.ix_(sorted(alpha), sorted(alpha))])
            det_s = _det_by_cholesky(s.full())
            assert abs(det_m - det_a * det_s) <= 1e-9 * abs(det_m)

    def test_comparison_psd_heredity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            m = random_sbar(rng, n)
            k = int(rng.integers(1, n))
            alpha = rng.choice(n, size=k, replace=False)
            s = schur_complement(m, alpha)
            eigs = np.linalg.eigvalsh(comparison_matrix(s).full())
            assert eigs.min() >= -1e-9


def _det_by_cholesky(a):
    if a.size == 0:
        return 1.0
    return float(np.prod(np.diagonal(np.linalg.cholesky(a)) ** 2))


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_indefinite(self):
        assert not is_psd([[1, 2], [2, 1]])

    def test_singular_rank_one(self):
        assert is_psd([[1, 1], [1, 1]])

    def test_zero_diag_with_coupling(self):
        assert not is_psd([[0, 1], [1, 0]])
        assert not is_psd(SymMatrix.from_banded([0.0, 0.0], [1.0]))

    def test_pd_strictness(self):
        assert is_pd([[2, 1], [1, 2]])
        assert not is_pd([[1, 1], [1, 1]])
        assert not is_pd([[1, 2], [2, 1]])

    def test_matches_eigenvalues_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = random_symmetric(rng, n)
            if rng.random() < 0.5:
                m = SymMatrix.from_dense(m.full() @ m.full().T)  # force psd
            eigs = np.linalg.eigvalsh(m.full())
            reference = eigs.min() >= -1e-9 * max(np.max(np.abs(np.diagonal(m.full()))), 1e-30)
            assert is_psd(m) == reference

    @pytest.mark.parametrize("n", [1, 5, 30, 90, 150])
    @pytest.mark.parametrize("kind", ["symmetric", "shifted_gram"])
    def test_decisions_match_eigenvalues_away_from_threshold(self, n, kind):
        # n = 90 and 150 run past LAPACK's panel width, so dpstrf stops
        # inside a blocked step whose trailing block is not fully updated.
        rng = np.random.default_rng(n)
        checked = 0
        for _ in range(20):
            if kind == "symmetric":
                a = random_symmetric(rng, n).full()
            else:
                b = rng.uniform(-1, 1, size=(n, int(rng.integers(1, n + 1))))
                a = b @ b.T + rng.uniform(-0.2, 0.2) * np.eye(n)
            m = SymMatrix.from_dense(a)
            lam = np.linalg.eigvalsh(a).min()
            margins = {"psd": 100 * TOL_PSD * m.scale(), "pd": 100 * TOL_PIVOT * m.scale()}
            if min(abs(lam) - margin for margin in margins.values()) < 0:
                continue
            checked += 1
            assert is_psd(m) == (lam > 0)
            assert is_pd(m) == (lam > 0)
            assert definiteness(m) == (lam > 0, lam > 0)
        assert checked > 0

    @pytest.mark.parametrize("a, psd, pd", [
        (np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]]), True, False),
        (np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]]) - 1e-6 * np.eye(3), False, False),
        (np.zeros((4, 4)), True, False),
        (np.outer([1.0, 2, 3], [1.0, 2, 3]) + np.outer([0.0, 1, -1], [0.0, 1, -1]), True, False),
        # The pivot 0 is <= tol; the block left there is within 10*tol, so psd.
        (np.array([[1.0, 0, 0], [0, 0, 3e-9], [0, 3e-9, 0]]), True, False),
        (np.array([[1.0, 0], [0, -5e-9]]), True, False),
        (np.array([[1.0, 0], [0, -2e-8]]), False, False),
        (np.array([[1.0, 0, 0], [0, 0, 2e-8], [0, 2e-8, 0]]), False, False),
    ])
    def test_boundary_cases(self, a, psd, pd):
        m = SymMatrix.from_dense(a)
        assert is_psd(m) == psd
        assert is_pd(m) == pd
        assert definiteness(m) == (psd, pd)

    @pytest.mark.parametrize("entry, psd", [(4.0, True), (20.0, False)])
    def test_remaining_block_rule_past_panel_width(self, entry, psd):
        # A pd block of order 100 and a 10 x 10 block of entry*tol*scale off
        # the diagonal, mixed by a permutation: elimination stops after 100
        # pivots and the rule decides on the rest.
        rng = np.random.default_rng(3)
        b = rng.uniform(-1, 1, size=(100, 100))
        a = np.zeros((110, 110))
        a[:100, :100] = b @ b.T + np.eye(100)
        tol_abs = TOL_PSD * np.abs(np.diagonal(a)).max()
        a[100:, 100:] = entry * tol_abs * (np.ones((10, 10)) - np.eye(10))
        perm = rng.permutation(110)
        m = SymMatrix.from_dense(a[np.ix_(perm, perm)])
        assert is_psd(m) == psd
        assert not is_pd(m)

    @pytest.mark.parametrize("n, stop_at", [(6, 3), (40, 17), (150, 100)])
    def test_remaining_is_schur_complement_of_pivoted_block(self, n, stop_at):
        rng = np.random.default_rng(n)
        a = random_pd(rng, n).full()
        l, _, full_rank = _pivoted_cholesky(a, 0.0)
        full_pivots = np.diagonal(l)[:full_rank] ** 2
        stop_tol = full_pivots[stop_at]
        l, perm, rank = _pivoted_cholesky(a, stop_tol)
        pivots = np.diagonal(l)[:rank] ** 2
        remaining = _trailing_block(a, l, perm, rank)
        assert pivots.size == rank and 0 < rank < n
        assert pivots == pytest.approx(full_pivots[:rank])
        lead, rest = perm[:rank], perm[rank:]
        expected = a[np.ix_(rest, rest)] - a[np.ix_(rest, lead)] @ np.linalg.solve(
            a[np.ix_(lead, lead)], a[np.ix_(lead, rest)])
        assert remaining == pytest.approx(expected, abs=1e-9 * np.abs(a).max())
        assert np.diagonal(remaining).max() <= stop_tol * (1 + 1e-12)

    def test_tridiagonal_psd_iff_comparison_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            m = random_tridiagonal_sym(rng, n, dominant=bool(rng.integers(0, 2)))
            assert is_psd(m) == is_psd(comparison_matrix(m))

    def test_sum_closure_of_comparison_psd(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            a = random_sbar(rng, n)
            b = random_sbar(rng, n)
            total = SymMatrix.from_dense(a.full() + b.full())
            assert is_psd(comparison_matrix(total))


class TestIrreducibleComponents:
    def test_block_diagonal(self):
        m = np.zeros((3, 3))
        m[:2, :2] = [[2, 1], [1, 2]]
        m[2, 2] = 3.0
        comps = irreducible_components(m)
        assert [list(c) for c in comps] == [[0, 1], [2]]

    def test_tridiagonal_no_zero_superdiagonal_is_single(self):
        rng = np.random.default_rng(2)
        diag = rng.uniform(1, 2, size=8)
        sub = rng.uniform(0.1, 0.5, size=7)
        comps = irreducible_components(SymMatrix.from_banded(diag, sub))
        assert len(comps) == 1 and list(comps[0]) == list(range(8))

    def test_zero_matrix_splits_fully(self):
        comps = irreducible_components(np.zeros((3, 3)))
        assert [list(c) for c in comps] == [[0], [1], [2]]

    def test_banded_matches_dense(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            diag = rng.uniform(0.5, 1.0, size=n)
            sub = np.where(rng.uniform(size=max(n - 1, 0)) < 0.4, 0.0,
                           rng.uniform(0.1, 1.0, size=max(n - 1, 0)))
            m = SymMatrix.from_banded(diag, sub)
            banded = [list(c) for c in irreducible_components(m)]
            dense = [list(c) for c in irreducible_components(SymMatrix.from_dense(m.full()))]
            assert banded == dense

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.5])
    def test_matches_union_find(self, seed, density):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 40):
            a = np.where(rng.uniform(size=(n, n)) < density, rng.uniform(-1, 1, size=(n, n)), 0.0)
            a = np.tril(a, -1) + np.tril(a, -1).T
            np.fill_diagonal(a, rng.uniform(0, 1, size=n) * (rng.uniform(size=n) < 0.5))
            comps = [list(c) for c in irreducible_components(a)]
            assert comps == _union_find_components(a)


def _union_find_components(a):
    n = a.shape[0]
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(a)):
        parent[root(int(i))] = root(int(j))
    groups = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


class TestTridiagSolve:
    def test_row_sums(self):
        m = SymMatrix.from_banded([2.0, 2.0], [-1.0])
        y = tridiag_solve(m, [0, 1], np.array([1.0, 1.0]))
        assert y == pytest.approx([1.0, 1.0])

    def test_singleton(self):
        m = SymMatrix.from_banded([2.0, 4.0, 8.0], [0.0, 0.0])
        y = tridiag_solve(m, [1], np.array([1.0, 2.0, 3.0]))
        assert y == pytest.approx([0.5])

    def test_matches_dense_solve(self):
        # Dense LU oracle on random pd tridiagonal systems.
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = random_tridiagonal_sym(rng, n, dominant=True)
            d = m.diagonal().copy()
            d += 0.1
            m = SymMatrix.from_banded(d, m.band()[1])
            k = int(rng.integers(1, n + 1))
            alpha = np.sort(rng.choice(n, size=k, replace=False))
            rhs = rng.uniform(-2, 2, size=n)
            y = tridiag_solve(m, alpha, rhs)
            dense = np.linalg.solve(m.full()[np.ix_(alpha, alpha)], rhs[alpha])
            assert y == pytest.approx(dense, abs=1e-10)

    def test_two_column_rhs(self):
        m = SymMatrix.from_banded([2.0, 3.0, 2.0], [-1.0, -0.5])
        rhs = np.column_stack([np.ones(3), np.arange(3.0)])
        out = tridiag_solve(m, [0, 1, 2], rhs)
        dense = np.linalg.solve(m.full(), rhs)
        assert out == pytest.approx(dense)

    def test_run_solve_is_solve_banded_to_the_bit(self):
        # solve_banded((1, 1), ...) is the reference: the same gtsv call,
        # so equal bits, and SingularPivot exactly where it raises.
        rng = np.random.default_rng(19)
        singular = 0
        for _ in range(3000):
            k = int(rng.integers(2, 12))
            d = rng.uniform(-1.0, 2.0, size=k)
            e = rng.uniform(-1.0, 1.0, size=k - 1)
            e[rng.uniform(size=k - 1) < 0.3] = 0.0
            if rng.uniform() < 0.1:
                d[int(rng.integers(0, k))] = 0.0
            rhs = rng.uniform(-3.0, 3.0, size=(k, int(rng.integers(1, 3))))
            ab = np.zeros((3, k))
            ab[0, 1:], ab[1], ab[2, :-1] = e, d, e
            try:
                ref = scipy.linalg.solve_banded((1, 1), ab, rhs, check_finite=False)
            except np.linalg.LinAlgError:
                singular += 1
                with pytest.raises(SingularPivot):
                    tridiag_run_solve(d, e, 0, k, rhs, 0.0)
                continue
            if np.all(np.isfinite(ref)):
                assert tridiag_run_solve(d, e, 0, k, rhs, 0.0).tobytes() == ref.tobytes()
        assert singular > 0


class TestSymMatrix:
    def test_symmetry_from_lower_triangle(self):
        m = SymMatrix.from_dense([[1, 99], [2, 3]])
        assert m.value(0, 1) == m.value(1, 0) == 2.0

    def test_submatrix_banded_keeps_structure(self):
        rng = np.random.default_rng(31)
        m = random_tridiagonal_sym(rng, 9)
        keep = np.array([0, 1, 2, 5, 6, 8])
        sub = m.submatrix(keep)
        assert sub.tridiagonal
        assert np.array_equal(sub.full(), m.full()[np.ix_(keep, keep)])

    def test_matvec_banded(self):
        rng = np.random.default_rng(37)
        m = random_tridiagonal_sym(rng, 11)
        x = rng.uniform(-1, 1, size=11)
        assert m.matvec(x) == pytest.approx(m.full() @ x)
        block = rng.uniform(-1, 1, size=(11, 3))
        assert m.matvec(block) == pytest.approx(m.full() @ block)
