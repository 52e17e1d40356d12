"""Symmetric matrix storage and the dense/banded linear-algebra kernel.

Matrices are stored symmetric by construction: the dense constructor
reads only the lower triangle and mirrors it, so ``value(i, j) ==
value(j, i)`` holds exactly.  Tridiagonal matrices additionally carry
their diagonal and sub-diagonal as flat arrays so that every operation
on them runs in linear time; the dense array is materialized lazily
and only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SingularBlock, SingularPivot
from .tolerances import TOL_PIVOT, TOL_PSD, _SCALE_FLOOR

_gtsv = scipy.linalg.lapack.dgtsv


def _as_vector(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


@dataclass
class SymMatrix:
    """Dense symmetric matrix with an optional tridiagonal tag.

    Use :meth:`from_dense` or :meth:`from_banded` to construct; the
    raw constructor is internal.
    """

    n: int
    tridiagonal: bool = False
    _dense: np.ndarray | None = field(default=None, repr=False)
    _diag: np.ndarray | None = field(default=None, repr=False)
    _sub: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_dense(cls, a) -> "SymMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        lower = np.tril(a)
        full = lower + np.tril(a, -1).T
        return cls(n=n, _dense=full)

    @classmethod
    def from_banded(cls, diag, sub) -> "SymMatrix":
        diag = _as_vector(diag)
        sub = np.asarray(sub, dtype=float).reshape(-1)
        n = diag.size
        if sub.size != max(n - 1, 0):
            raise ValueError(f"sub-diagonal length {sub.size} does not match n={n}")
        return cls(n=n, tridiagonal=True, _diag=diag.copy(), _sub=sub.copy())

    def full(self) -> np.ndarray:
        """Dense symmetric array (materialized once for banded storage)."""
        if self._dense is None:
            a = np.diag(self._diag)
            if self.n > 1:
                idx = np.arange(self.n - 1)
                a[idx + 1, idx] = self._sub
                a[idx, idx + 1] = self._sub
            self._dense = a
        return self._dense

    def band(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.tridiagonal:
            raise ValueError("band() requires a tridiagonal matrix")
        return self._diag, self._sub

    def value(self, i: int, j: int) -> float:
        if self.tridiagonal and self._dense is None:
            if i == j:
                return float(self._diag[i])
            if abs(i - j) == 1:
                return float(self._sub[min(i, j)])
            return 0.0
        return float(self.full()[i, j])

    def diagonal(self) -> np.ndarray:
        if self.tridiagonal and self._dense is None:
            return self._diag
        return np.diagonal(self.full())

    def scale(self) -> float:
        """max |m_ii|, floored away from zero; the tolerance unit."""
        if self.n == 0:
            return 1.0
        return max(float(np.max(np.abs(self.diagonal()))), _SCALE_FLOOR)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M @ x for a vector or a (n, k) block; O(n) per column if banded."""
        x = np.asarray(x, dtype=float)
        if self.tridiagonal and self._dense is None:
            d, e = self._diag, self._sub
            if x.ndim == 1:
                y = d * x
                if self.n > 1:
                    y[:-1] += e * x[1:]
                    y[1:] += e * x[:-1]
                return y
            y = d[:, None] * x
            if self.n > 1:
                y[:-1] += e[:, None] * x[1:]
                y[1:] += e[:, None] * x[:-1]
            return y
        return self.full() @ x

    def add_column(self, out: np.ndarray, j: int, c: float) -> None:
        """out += c * M[:, j] in place; three band entries if banded."""
        if self.tridiagonal:
            d, e = self._diag, self._sub
            out[j] += c * d[j]
            if j > 0:
                out[j - 1] += c * e[j - 1]
            if j < self.n - 1:
                out[j + 1] += c * e[j]
        else:
            out += c * self.full()[j]  # a row: M is symmetric

    def submatrix(self, keep) -> "SymMatrix":
        """Principal submatrix on the (sorted) index set ``keep``."""
        keep = np.asarray(keep, dtype=int)
        if self.tridiagonal and self._dense is None:
            d = self._diag[keep]
            if keep.size > 1:
                adjacent = keep[1:] == keep[:-1] + 1
                e = np.where(adjacent, self._sub[np.minimum(keep[:-1], self.n - 2)], 0.0)
            else:
                e = np.zeros(0)
            return SymMatrix.from_banded(d, e)
        a = self.full()[np.ix_(keep, keep)]
        return SymMatrix(n=keep.size, _dense=a)


def as_sym(m) -> SymMatrix:
    """Coerce an array-like (or pass through a SymMatrix) to SymMatrix."""
    if isinstance(m, SymMatrix):
        return m
    return SymMatrix.from_dense(m)


def comparison_matrix(m) -> SymMatrix:
    """Comparison matrix: same diagonal, off-diagonal entries -|m_ij|."""
    m = as_sym(m)
    if m.tridiagonal:
        d, e = m.band()
        return SymMatrix.from_banded(d, -np.abs(e))
    a = -np.abs(m.full())
    np.fill_diagonal(a, m.diagonal())
    return SymMatrix(n=m.n, _dense=a)


def _complement(n: int, alpha: np.ndarray) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[alpha] = False
    return np.flatnonzero(mask)


def _pivoted_cholesky(a: np.ndarray, stop_tol: float):
    """Diagonal-pivoted Cholesky factorization by LAPACK ``dpstrf``.

    Elimination stops at the first pivot ``<= stop_tol``; the columns
    computed before the stop do not depend on ``stop_tol``.  Returns
    ``(l, perm, rank)``: ``l[:, :rank]`` holds the lower factor of
    ``a[perm][:, perm]``.  ``dpstrf`` leaves the trailing block only
    partly updated, so read it through :func:`_trailing_block`.
    """
    l, piv, rank, _ = scipy.linalg.lapack.dpstrf(a, tol=stop_tol, lower=1)
    return l, piv - 1, int(rank)


def _trailing_block(a: np.ndarray, l: np.ndarray, perm: np.ndarray, r: int) -> np.ndarray:
    """Schur complement of the leading r pivots: A[p, p] - L21 L21' over the rest p."""
    rest = perm[r:]
    l21 = l[r:, :r]
    return a[np.ix_(rest, rest)] - l21 @ l21.T


def _banded_psd(diag: np.ndarray, sub: np.ndarray, tol_abs: float) -> bool:
    # LDL recursion along the band; a vanished pivot forces the
    # adjacent coupling to vanish too, else the 2x2 block is indefinite.
    t = float("nan")
    n = diag.size
    prev_ok = False
    for k in range(n):
        t_new = diag[k]
        if k > 0:
            if prev_ok:
                t_new -= sub[k - 1] ** 2 / t
            elif abs(sub[k - 1]) > tol_abs:
                return False
        if t_new < -tol_abs:
            return False
        prev_ok = t_new > tol_abs
        t = t_new
    return True


def _banded_pd(diag: np.ndarray, sub: np.ndarray, tol_abs: float) -> bool:
    t = 0.0
    for k in range(diag.size):
        t = diag[k] - (sub[k - 1] ** 2 / t if k > 0 else 0.0)
        if t <= tol_abs:
            return False
    return True


def definiteness(m, psd_tol: float = TOL_PSD, pd_tol: float = TOL_PIVOT) -> tuple[bool, bool]:
    """``(is_psd(m, psd_tol), is_pd(m, pd_tol))`` from one factorization.

    Dense input is factored once, stopped at the smaller threshold.
    The psd test cuts that factor at its first pivot ``<= psd_tol *
    scale``, which is where a factorization stopped at that threshold
    would end, and accepts when the block left there is within ``10 *
    psd_tol * scale``.  pd requires every pivot above ``pd_tol * scale``.
    """
    m = as_sym(m)
    if m.n == 0:
        return True, True
    psd_abs, pd_abs = psd_tol * m.scale(), pd_tol * m.scale()
    if m.tridiagonal and m._dense is None:
        d, e = m.band()
        return _banded_psd(d, e, psd_abs), _banded_pd(d, e, pd_abs)
    a = m.full()
    l, perm, rank = _pivoted_cholesky(a, min(psd_abs, pd_abs))
    pivots = np.diagonal(l)[:rank] ** 2
    pd = rank == m.n and bool(np.all(pivots > pd_abs))
    small = np.flatnonzero(pivots <= psd_abs)
    remaining = _trailing_block(a, l, perm, int(small[0]) if small.size else rank)
    psd = bool(np.all(np.abs(remaining) <= 10.0 * psd_abs))
    return psd, pd


def is_psd(m, tol: float = TOL_PSD) -> bool:
    """Positive semidefiniteness via diagonal-pivoted Cholesky.

    Elimination stops at the first pivot ``<= tol * scale(M)``; the
    block left there must be negligibly small.
    """
    return definiteness(m, tol, tol)[0]


def is_pd(m, tol: float = TOL_PIVOT) -> bool:
    """Strict positive definiteness: pivoted Cholesky completes with all pivots above tol*scale."""
    return definiteness(m, tol, tol)[1]


def _check_block_nonsingular(maa: np.ndarray, scale: float) -> None:
    # Submatrices arising here live inside psd matrices, so
    # nonsingularity is equivalent to positive definiteness.
    if maa.shape[0] == 0:
        return
    _, _, rank = _pivoted_cholesky(maa, TOL_PIVOT * scale)
    if rank < maa.shape[0]:
        raise SingularBlock(f"principal block of order {maa.shape[0]} fails the nonsingularity test")


def schur_complement(m, alpha) -> SymMatrix:
    """Schur complement of M_aa in M: M_cc - M_ca M_aa^{-1} M_ac."""
    m = as_sym(m)
    alpha = np.asarray(sorted(alpha), dtype=int)
    rest = _complement(m.n, alpha)
    if alpha.size == 0:
        return SymMatrix.from_dense(m.full())
    a = m.full()
    maa = a[np.ix_(alpha, alpha)]
    _check_block_nonsingular(maa, m.scale())
    mac = a[np.ix_(alpha, rest)]
    x = np.linalg.solve(maa, mac)
    s = a[np.ix_(rest, rest)] - mac.T @ x
    return SymMatrix.from_dense((s + s.T) / 2.0)


def irreducible_components(m) -> list[np.ndarray]:
    """Connected components of the off-diagonal adjacency graph.

    Components are ordered by smallest member; indices are ascending.
    """
    m = as_sym(m)
    n = m.n
    if n == 0:
        return []
    if m.tridiagonal and m._dense is None:
        _, e = m.band()
        cuts = np.flatnonzero(e == 0.0)
        starts = np.concatenate(([0], cuts + 1))
        ends = np.concatenate((cuts + 1, [n]))
        return [np.arange(s, t) for s, t in zip(starts, ends)]
    adjacent = m.full() != 0.0
    unseen = np.ones(n, dtype=bool)
    comps = []
    while unseen.any():
        # Breadth-first search from the smallest unseen index, one row union per level.
        frontier = np.zeros(n, dtype=bool)
        frontier[np.argmax(unseen)] = True
        members = frontier.copy()
        while frontier.any():
            frontier = adjacent[frontier].any(axis=0) & ~members
            members |= frontier
        unseen &= ~members
        comps.append(np.flatnonzero(members))
    return comps


def alpha_runs(alpha: np.ndarray) -> list[tuple[int, int]]:
    """Split a sorted index array into maximal contiguous runs [s, e)."""
    alpha = np.asarray(alpha, dtype=int)
    if alpha.size == 0:
        return []
    breaks = np.flatnonzero(alpha[1:] - alpha[:-1] > 1).tolist()
    idx = alpha.tolist()
    starts = [idx[0]] + [idx[b + 1] for b in breaks]
    ends = [idx[b] + 1 for b in breaks] + [idx[-1] + 1]
    return list(zip(starts, ends))


def tridiag_run_solve(d: np.ndarray, e: np.ndarray, s: int, t: int, rhs: np.ndarray,
                      tol_abs: float) -> np.ndarray:
    """Solve M[s:t, s:t] y = rhs on one contiguous run of a tridiagonal M.

    ``d``/``e`` are M's diagonal and sub-diagonal and ``rhs`` is a
    ``(t - s, c)`` block.  A one-index run divides by its diagonal;
    longer runs call LAPACK ``gtsv`` directly.  It is the routine
    ``solve_banded((1, 1), ...)`` runs, so the result is the same to the
    bit, without that wrapper's per-call argument handling (it took ~30
    us of a ~32 us call on a three-index run, numpy 2.4, scipy 1.17).
    """
    if t - s == 1:
        if abs(d[s]) <= tol_abs:
            raise SingularPivot(f"diagonal pivot at index {s} below tolerance")
        return rhs / d[s]
    off = e[s:t - 1]
    *_, sol, info = _gtsv(off, d[s:t], off, rhs)
    if info > 0:
        raise SingularPivot("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    if not np.all(np.isfinite(sol)):
        raise SingularPivot(f"banded solve on run [{s},{t}) produced non-finite values")
    return sol


def tridiag_solve(m, alpha, rhs, tol: float = TOL_PIVOT) -> np.ndarray:
    """Solve M_aa y = rhs_a for tridiagonal M in O(n).

    ``alpha`` must be sorted; it splits into contiguous runs and each
    run is solved with :func:`tridiag_run_solve`.  ``rhs`` is indexed by
    original variable positions (full length) and the solution is
    returned aligned with ``alpha``.
    """
    m = as_sym(m)
    if not m.tridiagonal:
        raise ValueError("tridiag_solve requires a tridiagonal matrix")
    alpha = np.asarray(alpha, dtype=int)
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    cols = rhs.reshape(m.n, -1)
    out = np.empty((alpha.size, cols.shape[1]))
    d, e = m.band()
    tol_abs = tol * m.scale()
    pos = 0
    for s, t in alpha_runs(alpha):
        out[pos:pos + t - s] = tridiag_run_solve(d, e, s, t, cols[s:t], tol_abs)
        pos += t - s
    return out[:, 0] if single else out


def quadratic_objective(m, q: np.ndarray, x: np.ndarray) -> float:
    """q'x + x'Mx/2, using the banded product when available."""
    m = as_sym(m)
    return float(q @ x + 0.5 * (x @ m.matvec(x)))
