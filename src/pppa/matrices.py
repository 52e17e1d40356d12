"""Symmetric matrix storage and the dense/banded linear-algebra kernel.

Matrices are stored symmetric by construction: the dense constructor
reads only the lower triangle and mirrors it, so ``value(i, j) ==
value(j, i)`` holds exactly.  Tridiagonal matrices carry their diagonal
and sub-diagonal as flat arrays, and the ``tridiagonal`` tag alone picks
the kernel of every operation, so each runs in linear time on them;
``full()`` builds a dense view on demand and caches it without changing
which kernel runs.
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
    """Symmetric matrix, stored dense or, under the tridiagonal tag, as two bands.

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
    def _from_symmetric(cls, a: np.ndarray) -> "SymMatrix":
        """Take over ``a``, exactly symmetric already; -0.0 becomes 0.0 as in :meth:`from_dense`."""
        np.add(a, 0.0, out=a)
        return cls(n=a.shape[0], _dense=a)

    @classmethod
    def from_banded(cls, diag, sub) -> "SymMatrix":
        diag = _as_vector(diag)
        sub = np.asarray(sub, dtype=float).reshape(-1)
        n = diag.size
        if sub.size != max(n - 1, 0):
            raise ValueError(f"sub-diagonal length {sub.size} does not match n={n}")
        return cls(n=n, tridiagonal=True, _diag=diag.copy(), _sub=sub.copy())

    def full(self) -> np.ndarray:
        """Dense symmetric array; built once and cached for banded storage."""
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
        if self.tridiagonal:
            if i == j:
                return float(self._diag[i])
            if abs(i - j) == 1:
                return float(self._sub[min(i, j)])
            return 0.0
        return float(self.full()[i, j])

    def diagonal(self) -> np.ndarray:
        if self.tridiagonal:
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
        if self.tridiagonal:
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

    def row(self, i: int) -> np.ndarray:
        """Row i of M (its column i too, M being symmetric) as a new array."""
        r = np.zeros(self.n)
        self.add_column(r, i, 1.0)
        return r

    def offdiag_abs_max(self, idx) -> np.ndarray:
        """max over j != i of |m_ij| for each i in ``idx``; O(1) per index if banded."""
        idx = np.asarray(idx, dtype=int)
        if self.tridiagonal:
            # pad[i] is i's coupling to i - 1, pad[i + 1] its coupling to i + 1.
            pad = np.abs(np.concatenate(([0.0], self._sub, [0.0])))
            return np.maximum(pad[idx], pad[idx + 1])
        rows = np.abs(self.full()[idx])
        rows[np.arange(idx.size), idx] = 0.0
        return np.max(rows, axis=1, initial=0.0)

    def is_z(self) -> bool:
        """True iff every off-diagonal entry is nonpositive."""
        if self.tridiagonal:
            return bool(np.all(self._sub <= 0.0))
        a = self.full().copy()
        np.fill_diagonal(a, 0.0)
        return bool(np.all(a <= 0.0))

    def solve(self, idx, rhs) -> np.ndarray:
        """Solve M[idx, idx] y = rhs[idx] for a sorted ``idx`` (the block positive definite).

        ``rhs`` is indexed by original positions (length n, one or more
        columns) and the solution is aligned with ``idx``.  Banded storage
        runs :func:`tridiag_solve`, dense storage a Cholesky factorization
        of the block; both raise :class:`SingularPivot` on a block that
        fails.
        """
        if self.tridiagonal:
            return tridiag_solve(self, idx, rhs)
        idx = np.asarray(idx, dtype=int)
        a = self.full()
        # A contiguous run is sliced: a view costs no gather before the copy LAPACK makes.
        run = idx.size and idx[-1] - idx[0] + 1 == idx.size
        block = a[idx[0]:idx[-1] + 1, idx[0]:idx[-1] + 1] if run else a[np.ix_(idx, idx)]
        try:
            c = scipy.linalg.cho_factor(block, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularPivot(str(exc)) from exc
        return scipy.linalg.cho_solve(c, rhs[idx], check_finite=False)

    def eliminate(self, i: int):
        """Eliminate index i by one pivot: ``(M/m_ii, M[i, others], m_ii)``.

        The Schur complement M/m_ii lives on the other indices in their
        order; a tridiagonal M gives a tridiagonal one, changed only next
        to i.
        """
        n = self.n
        keep = np.concatenate([np.arange(i), np.arange(i + 1, n)])
        row = self.row(i)[keep]
        piv = self.value(i, i)
        if self.tridiagonal:
            reduced = self.submatrix(keep)
            d2, e2 = reduced._diag, reduced._sub  # fresh copies, updated in place
            if i > 0:
                d2[i - 1] -= row[i - 1] * row[i - 1] / piv
            if i < n - 1:
                d2[i] -= row[i] * row[i] / piv
            if 0 < i < n - 1:
                e2[i - 1] -= row[i - 1] * row[i] / piv
            return reduced, row, piv
        # Exactly symmetric: row[k] * row[l] == row[l] * row[k].
        block = self.full()[np.ix_(keep, keep)] - np.outer(row, row) / piv
        return SymMatrix._from_symmetric(block), row, piv

    def flip(self, i: int) -> "SymMatrix":
        """S M S with S the identity but s_ii = -1: row and column i change
        sign, m_ii is negated twice and stays put."""
        if self.tridiagonal:
            e = self._sub.copy()
            at = slice(max(i - 1, 0), i + 1)
            e[at] = -e[at]
            return SymMatrix.from_banded(self._diag, e)
        a = self.full().copy()
        a[i, :] = -a[i, :]
        a[:, i] = -a[:, i]
        return SymMatrix._from_symmetric(a)

    def submatrix(self, keep) -> "SymMatrix":
        """Principal submatrix on the (sorted) index set ``keep``."""
        keep = np.asarray(keep, dtype=int)
        if self.tridiagonal:
            d = self._diag[keep]
            if keep.size > 1:
                adjacent = keep[1:] == keep[:-1] + 1
                e = np.where(adjacent, self._sub[np.minimum(keep[:-1], self.n - 2)], 0.0)
            else:
                e = np.zeros(0)
            return SymMatrix.from_banded(d, e)
        a = self.full()[np.ix_(keep, keep)]
        return SymMatrix(n=keep.size, _dense=a)


def _not_pd(info: int) -> SingularPivot:
    # scipy's cho_factor text, so callers read the same message either way.
    return SingularPivot(f"{info}-th leading minor of the array is not positive definite")


class BorderedSolves:
    """Two solves with M from one factorization: its leading block and the whole.

    :meth:`kernel_candidate` is y with y[-1] = 1 and M[:-1, :-1] y[:-1] =
    -M[:-1, -1], M's kernel vector when M is singular with a positive
    definite leading block; :meth:`solve` is M^{-1} rhs.  Dense storage
    factors M once with LAPACK ``potrf``: the leading block's Cholesky
    factor L11 is the leading part of M's, ``info`` says where the
    factorization stopped, and with M = [[L11, 0], [l', *]] [[L11, 0],
    [l', *]]' the first solve is y[:-1] = -L11^{-T} l, one triangular
    solve of the bordered factor.  Banded storage runs
    :func:`tridiag_solve` for each.  Both raise :class:`SingularPivot`
    where the block they need is not positive definite.
    """

    def __init__(self, m: SymMatrix):
        self.m = m
        if not m.tridiagonal and m.n:
            # M is exactly symmetric, so its transpose is M in Fortran order,
            # which potrf copies without transposing.
            self._chol, self._info = scipy.linalg.lapack.dpotrf(m.full().T, lower=1, clean=0)
            if self._info < 0:
                raise ValueError(f"illegal value in argument {-self._info} of potrf")

    def kernel_candidate(self) -> np.ndarray:
        m, n = self.m, self.m.n
        y = np.zeros(n)
        y[-1] = 1.0
        if n < 2:
            return y
        if m.tridiagonal:
            y[:-1] = m.solve(np.arange(n - 1), -m.row(n - 1))
            return y
        if 0 < self._info < n:
            raise _not_pd(self._info)
        # L' y = e_n with L's last diagonal entry set to 1 (potrf may have
        # stopped there): y[-1] = 1 and L11' y[:-1] = -l.
        chol = self._chol
        last, chol[-1, -1] = chol[-1, -1], 1.0
        y, _ = scipy.linalg.lapack.dtrtrs(chol, y, lower=1, trans=1)
        chol[-1, -1] = last
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        m = self.m
        if m.tridiagonal or not m.n:
            return m.solve(np.arange(m.n), rhs)
        if self._info:
            raise _not_pd(self._info)
        return scipy.linalg.cho_solve((self._chol, True), rhs, check_finite=False)


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
    """The psd and pd verdicts at ``psd_tol`` and ``pd_tol`` from one factorization.

    Dense input is factored once, stopped at the smaller threshold; the
    psd verdict is :func:`_factor_is_psd` at ``psd_tol * scale``.  pd
    requires every pivot above ``pd_tol * scale``.
    """
    m = as_sym(m)
    if m.n == 0:
        return True, True
    psd_abs, pd_abs = psd_tol * m.scale(), pd_tol * m.scale()
    if m.tridiagonal:
        d, e = m.band()
        return _banded_psd(d, e, psd_abs), _banded_pd(d, e, pd_abs)
    a = m.full()
    chol = _pivoted_cholesky(a, min(psd_abs, pd_abs))
    l, _, rank = chol
    pd = rank == m.n and bool(np.all(np.diagonal(l)[:rank] ** 2 > pd_abs))
    return _factor_is_psd(a, chol, psd_abs), pd


def _factor_is_psd(a: np.ndarray, chol, psd_abs: float) -> bool:
    """The psd verdict on ``a`` from its pivoted Cholesky ``chol``, stopped at or below ``psd_abs``.

    The factor is cut at its first pivot ``<= psd_abs``, where a
    factorization stopped at that threshold would end, and the block
    left there must be within ``10 * psd_abs``.
    """
    l, perm, rank = chol
    small = np.flatnonzero(np.diagonal(l)[:rank] ** 2 <= psd_abs)
    remaining = _trailing_block(a, l, perm, int(small[0]) if small.size else rank)
    return bool(np.all(np.abs(remaining) <= 10.0 * psd_abs))


def is_psd(m) -> bool:
    """Positive semidefiniteness via diagonal-pivoted Cholesky.

    Elimination stops at the first pivot ``<= TOL_PSD * scale(M)``; the
    block left there must be negligibly small.
    """
    return definiteness(m, TOL_PSD, TOL_PSD)[0]


def is_pd(m) -> bool:
    """Strict positive definiteness: pivoted Cholesky completes with all pivots above TOL_PIVOT*scale."""
    return definiteness(m)[1]


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
    if m.tridiagonal:
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


def tridiag_solve(m, alpha, rhs) -> np.ndarray:
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
    tol_abs = TOL_PIVOT * m.scale()
    pos = 0
    for s, t in alpha_runs(alpha):
        out[pos:pos + t - s] = tridiag_run_solve(d, e, s, t, cols[s:t], tol_abs)
        pos += t - s
    return out[:, 0] if single else out

