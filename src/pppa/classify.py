"""Matrix taxonomy tests and construction of the parametric direction.

The solver needs two vectors per irreducible block: a positive
dominance vector d with comparison(M) @ d >= 0, and the parametric
vector p = (M + comparison(M)) @ d / 2 that steers the pivoting path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import NegativeComponent, NotApplicable, SingularPivot, TooLarge
from .matrices import (SymMatrix, as_sym, comparison_matrix, definiteness,
                       irreducible_components, is_psd)
from .tolerances import TOL_D_POSITIVE, TOL_KERNEL, TOL_PSD

SUBSET_GUARD = 10 ** 6


def is_z_matrix(m) -> bool:
    """True iff all off-diagonal entries are nonpositive."""
    return as_sym(m).is_z()


def is_in_sbar_plus(m) -> bool:
    """True iff the comparison matrix of M is positive semidefinite."""
    return is_psd(comparison_matrix(m))


def find_dominance_vector(mbar, scale: float | None = None) -> np.ndarray:
    """Positive d with mbar @ d >= 0 for an irreducible psd Z-matrix.

    Pins d_n = 1 and solves the first n-1 equations of mbar @ d = 0.
    A small full residual identifies the kernel vector; otherwise mbar
    is nonsingular (hence positive definite) and d = mbar^{-1} 1.
    Raises NotApplicable when the input fails these dichotomies, which
    for a symmetric Z-matrix means it is not psd-irreducible.

    ``scale`` anchors the kernel-decision tolerance; matrices arising
    deep in a reduction chain pass the original problem's scale so that
    roundoff-sized residuals are recognized as zero.
    """
    mbar = as_sym(mbar)
    n = mbar.n
    if n == 0:
        return np.zeros(0)
    if scale is None:
        scale = mbar.scale()
    d = np.ones(n)
    try:
        if n > 1:
            d[:-1] = mbar.solve(np.arange(n - 1), -mbar.row(n - 1))
    except SingularPivot as exc:
        raise NotApplicable(f"leading principal block is not positive definite: {exc}") from exc

    residual = float(np.max(np.abs(mbar.matvec(d))))
    if residual <= TOL_KERNEL * scale * max(1.0, float(np.max(np.abs(d)))):
        if np.min(d) <= TOL_D_POSITIVE:
            raise NotApplicable("kernel vector of the comparison matrix is not positive")
        return d

    # Nonsingular case: d = mbar^{-1} 1 > 0 for a Stieltjes matrix.
    try:
        d = mbar.solve(np.arange(n), np.ones(n))
    except SingularPivot as exc:
        raise NotApplicable(f"comparison matrix is not positive definite: {exc}") from exc
    if np.min(d) <= TOL_D_POSITIVE:
        raise NotApplicable("solved dominance vector is not positive")
    return d


def build_parametric_vector(m, d: np.ndarray, scale: float | None = None) -> np.ndarray:
    """p = (M + comparison(M)) @ d / 2; nonnegative for valid (M, d)."""
    m = as_sym(m)
    d = np.asarray(d, dtype=float)
    if np.min(d, initial=np.inf) <= 0.0:
        raise NotApplicable("dominance vector must be positive")
    mbar = comparison_matrix(m)
    if scale is None:
        scale = m.scale()
    slack = TOL_PSD * scale * float(np.max(d, initial=0.0))
    dominance = mbar.matvec(d)
    if dominance.size and float(np.min(dominance)) < -slack:
        raise NotApplicable("comparison(M) @ d has negative components; d is not a dominance vector")
    p = 0.5 * (m.matvec(d) + dominance)
    if p.size and float(np.min(p)) < -slack:
        raise NegativeComponent(f"parametric vector has a component below -{slack:.3e}")
    return np.maximum(p, 0.0)


def is_sbar_nk(m, k: int) -> bool:
    """Membership in the k-weakly quasi-diagonally dominant class.

    True iff M is psd and every principal submatrix of order n-k has a
    psd comparison matrix.  Exhaustive over all C(n, k) subsets; guarded.
    """
    m = as_sym(m)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return is_in_sbar_plus(m)
    n = m.n
    if comb(n, min(k, n)) > SUBSET_GUARD:
        raise TooLarge(f"C({n},{k}) exceeds the exhaustive-check guard")
    return is_psd(m) and _subsets_in_sbar_plus(m, k)


def _subsets_in_sbar_plus(m: SymMatrix, k: int) -> bool:
    """True iff every principal submatrix of order n-k has a psd comparison matrix."""
    return k >= m.n or all(is_in_sbar_plus(m.submatrix(kept))
                           for kept in combinations(range(m.n), m.n - k))


@dataclass
class ClassReport:
    """Every class fact about a matrix, as ``pppa classify`` prints it."""

    is_symmetric: bool
    is_z: bool
    is_psd: bool
    is_pd: bool
    is_sbar_plus: bool
    is_irreducible: bool
    blocks: list[np.ndarray]
    k_level: int | None
    d: np.ndarray | None
    p: np.ndarray | None


def blockwise_dominance_vector(m, blocks: list[np.ndarray]) -> np.ndarray:
    """Dominance vector assembled over M's irreducible ``blocks``."""
    m = as_sym(m)
    d = np.empty(m.n)
    mbar = comparison_matrix(m)
    for block in blocks:
        d[block] = find_dominance_vector(mbar.submatrix(block))
    return d


def class_level(m, k_max: int = 2) -> int | None:
    """Smallest k <= ``k_max`` with M in the level-k class, or None; the psd
    test and the subset loop run only when M is not comparison-psd."""
    m = as_sym(m)
    if is_in_sbar_plus(m):
        return 0
    if not is_psd(m):
        return None
    for k in range(1, k_max + 1):
        if comb(m.n, min(k, m.n)) > SUBSET_GUARD:
            return None
        if _subsets_in_sbar_plus(m, k):
            return k
    return None


def classify(m, k_max: int = 2) -> ClassReport:
    """Full membership report; k_level search capped at ``k_max``."""
    if isinstance(m, SymMatrix):
        symmetric = True  # symmetric by construction; m.full() would densify banded storage
    else:
        raw = np.asarray(m, dtype=float)
        symmetric = bool(raw.ndim == 2 and raw.shape[0] == raw.shape[1]
                         and np.array_equal(raw, raw.T))
    m = as_sym(m)
    blocks = irreducible_components(m)
    psd, pd = definiteness(m)
    k_level = class_level(m, k_max)
    d = p = None
    if k_level == 0:
        try:
            d = blockwise_dominance_vector(m, blocks)
            p = build_parametric_vector(m, d)
        except NotApplicable:
            d = p = None
    return ClassReport(
        is_symmetric=symmetric,
        is_z=is_z_matrix(m),
        is_psd=psd,
        is_pd=pd,
        is_sbar_plus=k_level == 0,
        is_irreducible=len(blocks) == 1,
        blocks=blocks,
        k_level=k_level,
        d=d,
        p=p,
    )
