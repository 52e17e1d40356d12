import itertools

import numpy as np
import pytest
import scipy.linalg

from pppa import (SymMatrix, build_parametric_vector, class_level, classify,
                  comparison_matrix, find_dominance_vector, irreducible_components,
                  is_in_sbar_plus, is_psd, is_sbar_nk, is_z_matrix)
from pppa.errors import NegativeComponent, NotApplicable, TooLarge
from pppa.tolerances import TOL_D_POSITIVE, TOL_KERNEL
from pppa.generate import GenSpec, gen_sbar_nk, gen_sbar_random, gen_tridiagonal

from helpers import random_sbar, random_symmetric, random_z_psd


class TestIsZMatrix:
    def test_examples(self):
        assert is_z_matrix([[2, -1], [-1, 3]])
        assert not is_z_matrix([[2, 1], [1, 3]])
        assert is_z_matrix(np.diag([1.0, -2.0, 3.0]))


class TestIsInSbarPlus:
    def test_positive_offdiagonal_dominant(self):
        assert is_in_sbar_plus([[2, 1], [1, 2]])

    def test_rank_one_boundary(self):
        assert is_in_sbar_plus([[1, 1], [1, 1]])

    def test_dominance_violated(self):
        # comparison matrix [[1,-3],[-3,5]] has determinant -4
        assert not is_in_sbar_plus([[1, 3], [3, 5]])


class TestFindDominanceVector:
    def test_singular_kernel(self):
        d = find_dominance_vector([[1, -1], [-1, 1]])
        assert d == pytest.approx([1.0, 1.0])
        assert np.max(np.abs(np.array([[1, -1], [-1, 1]]) @ d)) <= 1e-12

    def test_nonsingular_row_sums(self):
        d = find_dominance_vector([[2, -1], [-1, 2]])
        assert d == pytest.approx([1.0, 1.0])

    def test_path_laplacian(self):
        d = find_dominance_vector([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert d == pytest.approx([1.0, 1.0, 1.0])

    def test_rejects_non_psd(self):
        with pytest.raises(NotApplicable):
            find_dominance_vector([[1, -3], [-3, 1]])

    def test_banded_matches_dense(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            sub = -np.abs(rng.uniform(0.1, 1.0, size=max(n - 1, 0)))
            diag = np.zeros(n)
            if n > 1:
                diag[:-1] -= sub
                diag[1:] -= sub
            diag += rng.uniform(0.0, 0.5, size=n) * rng.integers(0, 2, size=n)
            m = SymMatrix.from_banded(diag, sub)
            if not is_psd(m) or len(irreducible_components(m)) > 1:
                continue
            d_banded = find_dominance_vector(m)
            d_dense = find_dominance_vector(SymMatrix.from_dense(m.full()))
            assert d_banded == pytest.approx(d_dense, rel=1e-9)

    def test_one_factorization_decides_as_two_solves_do(self):
        # The reference factors the leading block and the whole matrix
        # separately; the one bordered factorization must reach the same
        # branch, the same NotApplicable text and the same d.
        def two_solves(a):
            n = a.shape[0]
            d = np.ones(n)
            try:
                if n > 1:
                    c = scipy.linalg.cho_factor(a[:-1, :-1], lower=True, check_finite=False)
                    d[:-1] = scipy.linalg.cho_solve(c, -a[:-1, -1], check_finite=False)
            except np.linalg.LinAlgError as exc:
                return f"leading principal block is not positive definite: {exc}"
            tol = TOL_KERNEL * SymMatrix.from_dense(a).scale() * max(1.0, np.max(np.abs(d)))
            if np.max(np.abs(a @ d)) <= tol:
                return d if np.min(d) > TOL_D_POSITIVE else \
                    "kernel vector of the comparison matrix is not positive"
            try:
                d = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), np.ones(n))
            except np.linalg.LinAlgError as exc:
                return f"comparison matrix is not positive definite: {exc}"
            return d if np.min(d) > TOL_D_POSITIVE else "solved dominance vector is not positive"

        rng = np.random.default_rng(9)
        branches = set()
        for _ in range(200):
            n = int(rng.integers(1, 12))
            a = random_z_psd(rng, n).full().copy()
            a[np.diag_indices(n)] += rng.choice([0.0, 0.0, -0.3, -2.0]) * rng.random(n)
            expected = two_solves(a)
            try:
                got = find_dominance_vector(a)
            except NotApplicable as exc:
                got = str(exc)
            if isinstance(expected, str):
                branches.add(expected.split(":")[0])
                assert got == expected
            else:
                branches.add("kernel" if np.max(np.abs(a @ expected)) <= 1e-9 * n else "solve")
                assert got == pytest.approx(expected, rel=1e-10)
        assert {"kernel", "solve", "leading principal block is not positive definite",
                "comparison matrix is not positive definite"} <= branches

    def test_equivalence_with_psd_over_z_matrices(self):
        # psd <=> a positive dominance vector exists, checked per block.
        rng = np.random.default_rng(5)
        seen_nonpsd = 0
        for _ in range(300):
            n = int(rng.integers(1, 8))
            if rng.random() < 0.5:
                m = random_z_psd(rng, n)
            else:
                a = -np.abs(random_symmetric(rng, n).full())
                np.fill_diagonal(a, rng.uniform(0.0, 1.5, size=n) * np.abs(np.diagonal(a)).max())
                m = SymMatrix.from_dense(a)
            assert is_z_matrix(m)
            found_all = True
            for blk in irreducible_components(m):
                sub = m.submatrix(blk)
                try:
                    d = find_dominance_vector(sub)
                    assert np.min(d) > 0
                    assert np.min(sub.matvec(d)) >= -1e-9 * sub.scale() * np.max(d)
                except NotApplicable:
                    found_all = False
                    break
            if not is_psd(m):
                seen_nonpsd += 1
            assert found_all == is_psd(m)
        assert seen_nonpsd > 20  # the sample genuinely covers both sides


class TestBuildParametricVector:
    def test_dominant_positive_case(self):
        p = build_parametric_vector([[2, 1], [1, 2]], np.array([1.0, 1.0]))
        assert p == pytest.approx([2.0, 2.0])

    def test_z_matrix_gives_dominance_product(self):
        m = np.array([[2.0, -1], [-1, 2]])
        d = np.array([1.0, 1.0])
        p = build_parametric_vector(m, d)
        assert p == pytest.approx(m @ d)

    def test_singular_kernel_gives_zero(self):
        p = build_parametric_vector([[1, -1], [-1, 1]], np.array([1.0, 1.0]))
        assert p == pytest.approx([0.0, 0.0])

    def test_zero_component_only_for_nonpositive_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = random_sbar(rng, n)
            d = find_dominance_vector(comparison_matrix(m)) \
                if len(irreducible_components(m)) == 1 else None
            if d is None:
                continue
            p = build_parametric_vector(m, d)
            for i in np.flatnonzero(p <= 1e-12 * m.scale()):
                row = m.full()[i].copy()
                row[i] = 0.0
                assert np.all(row <= 1e-12)

    def test_bad_dominance_vector_rejected(self):
        with pytest.raises(NotApplicable):
            build_parametric_vector([[1, -3], [-3, 1]], np.array([1.0, 1.0]))

    def test_n_step_condition_sampling(self):
        # Validate the inverse-nonnegativity condition on random blocks.
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 8))
            m = random_sbar(rng, n)
            if len(irreducible_components(m)) > 1:
                continue
            d = find_dominance_vector(comparison_matrix(m))
            p = build_parametric_vector(m, d)
            a = m.full()
            k = int(rng.integers(1, n))
            alpha = np.sort(rng.choice(n, size=k, replace=False))
            rest = np.setdiff1d(np.arange(n), alpha)
            i = int(rng.choice(rest))
            block = a[np.ix_(alpha, alpha)]
            if np.linalg.cond(block) > 1e10:
                continue
            sol = np.linalg.solve(block, p[alpha])
            assert np.min(sol) >= -1e-9 * max(1.0, np.max(np.abs(p)))
            assert p[i] - a[i, alpha] @ sol >= -1e-9 * max(1.0, np.max(np.abs(p)))
            checked += 1


class TestWeakQuasiDiagonalDominance:
    def test_restatement_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = random_symmetric(rng, n)
            d = rng.uniform(0.1, 2.0, size=n)
            a = m.full()
            mbar_d = comparison_matrix(m).matvec(d)
            rowwise = np.array([a[i, i] * d[i] - sum(abs(a[i, j]) * d[j]
                                                     for j in range(n) if j != i)
                                for i in range(n)])
            assert mbar_d == pytest.approx(rowwise)


class TestIsSbarNk:
    def test_heredity_from_level_zero(self):
        rng = np.random.default_rng(23)
        m = random_sbar(rng, 5)
        assert is_sbar_nk(m, 1)

    def test_rank_one_all_ones(self):
        assert is_sbar_nk([[1, 1], [1, 1]], 1)

    def test_violating_order_three_submatrix(self):
        # Any psd 2x2 block is automatically comparison-psd, so the
        # smallest genuine violation needs order-3 submatrices (n=4).
        a = np.full((4, 4), 0.9)
        np.fill_diagonal(a, 1.0)
        m = SymMatrix.from_dense(a)
        assert is_psd(m)
        assert not is_in_sbar_plus(m)
        assert is_sbar_nk(m, 1) == _exhaustive_nk(m, 1)
        assert not is_sbar_nk(m, 1)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            base = random_sbar(rng, n).full()
            bump = rng.uniform(-1.0, 1.0, size=n)
            a = base + rng.uniform(0.0, 2.0) * np.outer(bump, bump)
            m = SymMatrix.from_dense(a)
            k = int(rng.integers(0, 3))
            got = is_sbar_nk(m, k)
            assert got == _exhaustive_nk(m, k)
            hits += got
        assert 0 < hits < 60

    def test_guard(self):
        with pytest.raises(TooLarge):
            is_sbar_nk(np.eye(300), 4)

    def test_banded_input_stays_banded(self):
        m = gen_tridiagonal(GenSpec(family="tridiagonal", n=12, seed=0)).m
        assert is_sbar_nk(m, 1)
        assert m._dense is None


def _exhaustive_nk(m, k):
    if k == 0:
        return is_in_sbar_plus(m)
    if not is_psd(m):
        return False
    n = m.n
    if k >= n:
        return True
    a = m.full()
    for kept in itertools.combinations(range(n), n - k):
        idx = np.array(kept)
        if not is_psd(comparison_matrix(SymMatrix.from_dense(a[np.ix_(idx, idx)]))):
            return False
    return True


class TestClassify:
    def test_report_on_dominant_matrix(self):
        rep = classify([[2, 1], [1, 2]])
        assert rep.is_symmetric and rep.is_psd and rep.is_pd
        assert rep.is_sbar_plus and rep.k_level == 0 and rep.is_irreducible
        assert rep.d is not None and np.min(rep.d) > 0
        assert rep.p is not None and np.min(rep.p) >= 0

    def test_level_one_matrix(self):
        # Constant off-diagonal c in (1/3, 1/2]: the full comparison has
        # eigenvalue 1 - 3c < 0 while every order-3 comparison stays psd.
        a = np.full((4, 4), 0.45)
        np.fill_diagonal(a, 1.0)
        rep = classify(a)
        assert rep.is_psd and not rep.is_sbar_plus
        assert rep.k_level == 1
        assert rep.d is None

    def test_level_two_matrix(self):
        a = np.full((4, 4), 0.9)
        np.fill_diagonal(a, 1.0)
        rep = classify(a)
        assert rep.is_psd and rep.k_level == 2

    def test_indefinite_matrix(self):
        rep = classify([[1, 2], [2, 1]])
        assert not rep.is_psd and rep.k_level is None

    def test_blockwise_dominance(self):
        m = np.zeros((3, 3))
        m[:2, :2] = [[1, -1], [-1, 1]]
        m[2, 2] = 2.0
        rep = classify(m)
        assert not rep.is_irreducible and len(rep.blocks) == 2
        assert rep.d is not None
        assert comparison_matrix(m).matvec(rep.d).min() >= -1e-9


class TestClassLevel:
    """class_level(m, k) is the k_level of classify(m, k)."""

    @staticmethod
    def _matrices():
        yield gen_sbar_random(GenSpec(family="sbar_random", n=12, seed=1)).m
        yield gen_tridiagonal(GenSpec(family="tridiagonal", n=12, seed=2)).m
        for k in (1, 2):
            yield gen_sbar_nk(GenSpec(family="sbar_nk", n=8, rho=0.6, seed=3, k=k)).m
        for c in (0.45, 0.9):
            a = np.full((4, 4), c)
            np.fill_diagonal(a, 1.0)
            yield SymMatrix.from_dense(a)
        yield SymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        mix = np.zeros((9, 9))
        mix[:4, :4] = np.full((4, 4), 0.45) + 0.55 * np.eye(4)
        mix[4:6, 4:6] = [[1.0, -1.0], [-1.0, 1.0]]
        mix[6:, 6:] = np.full((3, 3), 0.3) + 0.7 * np.eye(3)
        yield SymMatrix.from_dense(mix)

    def test_matches_classify(self):
        levels = []
        for m in self._matrices():
            for k in (0, 1, 2):
                assert class_level(m, k) == classify(m, k).k_level
            levels.append(class_level(m))
        # The mix has no level: removing k indices outside its level-1 block
        # leaves that block's comparison matrix indefinite.
        assert levels == [0, 0, 1, 2, 1, 2, None, None]
