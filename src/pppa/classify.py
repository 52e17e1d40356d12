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
import scipy.linalg

from .errors import NegativeComponent, NotApplicable, SingularPivot, TooLarge
from .matrices import (SymMatrix, as_sym, comparison_matrix, definiteness,
                       irreducible_components, is_psd, tridiag_solve)
from .tolerances import TOL_D_POSITIVE, TOL_KERNEL, TOL_PSD

SUBSET_GUARD = 10 ** 6


def is_z_matrix(m) -> bool:
    """True iff all off-diagonal entries are nonpositive."""
    m = as_sym(m)
    if m.tridiagonal:
        _, e = m.band()
        return bool(np.all(e <= 0.0))
    a = m.full().copy()
    np.fill_diagonal(a, 0.0)
    return bool(np.all(a <= 0.0))


def is_in_sbar_plus(m, tol: float = TOL_PSD) -> bool:
    """True iff the comparison matrix of M is positive semidefinite."""
    return is_psd(comparison_matrix(m), tol)


def _dense_spd_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    c = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    return scipy.linalg.cho_solve(c, rhs, check_finite=False)


def find_dominance_vector(mbar, tol: float = TOL_KERNEL,
                          scale: float | None = None) -> np.ndarray:
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
    lead = np.arange(n - 1)
    try:
        if n > 1:
            rhs = -mbar.full()[:-1, -1] if not mbar.tridiagonal else None
            if mbar.tridiagonal:
                rhs_full = np.zeros(n)
                diag, sub = mbar.band()
                rhs_full[n - 2] = -sub[n - 2]
                d[:-1] = tridiag_solve(mbar, lead, rhs_full)
            else:
                d[:-1] = _dense_spd_solve(mbar.full()[:-1, :-1], rhs)
    except (np.linalg.LinAlgError, SingularPivot) as exc:
        raise NotApplicable(f"leading principal block is not positive definite: {exc}") from exc

    residual = float(np.max(np.abs(mbar.matvec(d))))
    if residual <= tol * scale * max(1.0, float(np.max(np.abs(d)))):
        if np.min(d) <= TOL_D_POSITIVE:
            raise NotApplicable("kernel vector of the comparison matrix is not positive")
        return d

    # Nonsingular case: d = mbar^{-1} 1 > 0 for a Stieltjes matrix.
    ones = np.ones(n)
    try:
        if mbar.tridiagonal:
            d = tridiag_solve(mbar, np.arange(n), ones)
        else:
            d = _dense_spd_solve(mbar.full(), ones)
    except (np.linalg.LinAlgError, SingularPivot) as exc:
        raise NotApplicable(f"comparison matrix is not positive definite: {exc}") from exc
    if np.min(d) <= TOL_D_POSITIVE:
        raise NotApplicable("solved dominance vector is not positive")
    return d


def build_parametric_vector(m, d: np.ndarray, tol: float = TOL_PSD,
                            scale: float | None = None) -> np.ndarray:
    """p = (M + comparison(M)) @ d / 2; nonnegative for valid (M, d)."""
    m = as_sym(m)
    d = np.asarray(d, dtype=float)
    if np.min(d, initial=np.inf) <= 0.0:
        raise NotApplicable("dominance vector must be positive")
    mbar = comparison_matrix(m)
    if scale is None:
        scale = m.scale()
    slack = tol * scale * float(np.max(d, initial=0.0))
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
    if not is_psd(m):
        return False
    if k >= n:
        return True
    for kept in combinations(range(n), n - k):
        if not is_in_sbar_plus(m.submatrix(kept)):
            return False
    return True


@dataclass
class ClassReport:
    """Everything the routing logic needs to know about a matrix."""

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


def blockwise_dominance_vector(m) -> np.ndarray:
    """Dominance vector assembled per irreducible block."""
    m = as_sym(m)
    d = np.empty(m.n)
    mbar = comparison_matrix(m)
    for block in irreducible_components(m):
        d[block] = find_dominance_vector(mbar.submatrix(block))
    return d


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
    sbar = is_in_sbar_plus(m)
    k_level: int | None = None
    if sbar:
        k_level = 0
    elif psd:
        for k in range(1, k_max + 1):
            if comb(m.n, min(k, m.n)) > SUBSET_GUARD:
                break
            if is_sbar_nk(m, k):
                k_level = k
                break
    d = p = None
    if sbar:
        try:
            d = blockwise_dominance_vector(m)
            p = build_parametric_vector(m, d)
        except NotApplicable:
            d = p = None
    return ClassReport(
        is_symmetric=symmetric,
        is_z=is_z_matrix(m),
        is_psd=psd,
        is_pd=pd,
        is_sbar_plus=sbar,
        is_irreducible=len(blocks) == 1,
        blocks=blocks,
        k_level=k_level,
        d=d,
        p=p,
    )
