"""Incremental maintenance of the basic-block inverse.

A FactorState keeps an alpha-leading permuted copy ``w`` of M: the
basic indices sit in positions ``0..k-1``, so M_aa is ``w[:k, :k]`` and
M_Na is ``w[k:, :k]``, both plain slices.  The explicit inverse of
M_aa is the leading k x k block of a preallocated buffer.  Growing or
shrinking alpha by one index swaps it to the block's border and updates
the inverse in place with the bordered-inverse formulas: one BLAS
rank-one update (``dger``) over the leading k rows, O(nk) arithmetic and
no k x k temporary.  A full refactorization runs whenever the update
counter exceeds n or a cheap residual probe fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger

from .errors import SingularPivot
from .matrices import SymMatrix, as_sym
from .tolerances import TOL_FACTOR, TOL_PIVOT


@dataclass(eq=False)
class FactorState:
    """Explicit inverse of the principal block M_aa, kept up to date in place.

    Construct with :meth:`for_alpha`.  ``w`` is P M P' for the
    permutation ``order`` (``order[pos[i]] == i``); it is a copy, so M is
    never written.  ``inv`` and ``alpha`` describe the leading k x k block.
    """

    m: SymMatrix
    w: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    pos: np.ndarray = field(repr=False)
    _inv_buf: np.ndarray = field(repr=False)
    _row: np.ndarray = field(repr=False)  # length-n scratch for swaps and rank-one pads
    k: int
    scale: float
    refresh_counter: int = 0

    @classmethod
    def for_alpha(cls, m, alpha=()) -> "FactorState":
        m = as_sym(m)
        n = m.n
        alpha = np.asarray(alpha, dtype=np.intp).reshape(-1)
        in_alpha = np.zeros(n, dtype=bool)
        in_alpha[alpha] = True
        order = np.concatenate([alpha, np.flatnonzero(~in_alpha)])
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n)
        a = m.full()
        w = a.copy() if alpha.size == 0 else a[np.ix_(order, order)]
        # np.empty leaves untouched pages unmapped: the inverse buffer costs
        # memory only for the rows up to the largest k a solve reaches.
        factor = cls(m=m, w=w, order=order, pos=pos, _inv_buf=np.empty((n, n)),
                     _row=np.zeros(n), k=alpha.size, scale=m.scale())
        return factor.refactorize()

    @property
    def alpha(self) -> list[int]:
        """The basic indices in block order (the row order of ``inv``)."""
        return self.order[:self.k].tolist()

    @property
    def inv(self) -> np.ndarray:
        """M_aa^{-1} as a view of the working buffer; copy it to keep it."""
        return self._inv_buf[:self.k, :self.k]

    def border(self, i: int) -> tuple[np.ndarray, float]:
        """(M_aa^{-1} M_{a,i} in block order, m_ii - M_{i,a} M_aa^{-1} M_{a,i}) for i outside alpha."""
        p, k = self.pos[i], self.k
        col = self.w[p, :k]
        mhat = self.inv @ col
        return mhat, float(self.w[p, p] - col @ mhat)

    def embed(self, v: np.ndarray) -> np.ndarray:
        """A block-ordered length-k vector scattered into a length-n one (zero off alpha)."""
        out = np.zeros(self.m.n)
        out[self.order[:self.k]] = v
        return out

    def bars(self, rhs: np.ndarray) -> np.ndarray:
        """M_aa^{-1} rhs_a on alpha and rhs_N - M_Na M_aa^{-1} rhs_a elsewhere, for an (n, c) rhs.

        The result is (c, n): one contiguous row per column of ``rhs``,
        because the ratio tests run markedly slower on strided vectors.
        """
        k = self.k
        # take() permutes rows several times faster than fancy indexing.
        r = rhs.take(self.order, axis=0)
        if k:
            sol = self.inv @ r[:k]
            r[k:] -= self.w[k:, :k] @ sol
            r[:k] = sol
        return r.T.take(self.pos, axis=1)

    def residual(self) -> float:
        """max-norm of inv @ M_aa - I; the testable factor invariant."""
        if not self.k:
            return 0.0
        return float(np.max(np.abs(self.inv @ self.w[:self.k, :self.k] - np.eye(self.k))))

    def refactorize(self) -> "FactorState":
        """Recompute the inverse of the current block from ``w``; in place."""
        k = self.k
        if k:
            self._inv_buf[:k, :k] = np.linalg.inv(self.w[:k, :k])
        self.refresh_counter = 0
        return self

    def _swap(self, a: int, b: int, k: int) -> None:
        # Swap positions a and b in w, in the order maps and, within the
        # leading k x k block, in the inverse.
        if a == b:
            return
        tmp = self._row
        for mat, size in ((self.w, self.m.n), (self._inv_buf, k)):
            if a >= size or b >= size:
                continue
            t = tmp[:size]
            t[:] = mat[a, :size]
            mat[a, :size] = mat[b, :size]
            mat[b, :size] = t
            t[:] = mat[:size, a]
            mat[:size, a] = mat[:size, b]
            mat[:size, b] = t
        ia, ib = self.order[a], self.order[b]
        self.order[a], self.order[b] = ib, ia
        self.pos[ia], self.pos[ib] = b, a


def _spot_residual(factor: FactorState) -> float:
    # Probe only the column of inv @ M_aa at the last block position; O(k^2).
    k = factor.k
    probe = factor.inv @ factor.w[k - 1, :k]
    probe[k - 1] -= 1.0
    return float(np.max(np.abs(probe)))


def _rank_one(buf: np.ndarray, rows: int, alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    # buf[i, :] += alpha * y[i] * x for i < rows, in place.  The leading
    # rows of a C-ordered array are one Fortran (n, rows) array, which
    # BLAS updates in a single pass; numpy's outer-and-add takes 3-10x longer.
    dger(alpha, x, y, a=buf[:rows].T, overwrite_a=1)


def factor_update(factor: FactorState, i: int, direction: str,
                  mhat: np.ndarray | None = None) -> FactorState:
    """Add or remove index ``i`` from the factored block.

    ``mhat`` may supply a precomputed M_aa^{-1} M_{a,i} for the add
    direction, in block order (as :meth:`FactorState.border` returns
    it).  ``factor`` is updated in place and returned.
    """
    i = int(i)
    n, scale, k = factor.m.n, factor.scale, factor.k
    p = int(factor.pos[i])
    inv_buf = factor._inv_buf
    if direction == "add":
        if p < k:
            raise ValueError(f"index {i} already in alpha")
        factor._swap(p, k, k)
        w = factor.w
        a_col = w[k, :k]
        if mhat is None:
            mhat = factor.inv @ a_col
        sigma = float(w[k, k] - a_col @ mhat)
        if sigma <= TOL_PIVOT * scale:
            raise SingularPivot(f"Schur scalar {sigma:.3e} at index {i} below pivot tolerance")
        if k:
            # Rows :k gain mhat mhat' / sigma; the columns past k take
            # whatever the stale tail of the pad gives and are never read.
            pad = factor._row
            pad[:k] = mhat
            _rank_one(inv_buf, k, 1.0 / sigma, pad, mhat)
        b = mhat / sigma
        inv_buf[:k, k] = -b
        inv_buf[k, :k] = -b
        inv_buf[k, k] = 1.0 / sigma
        factor.k = k + 1
    elif direction == "remove":
        if p >= k:
            raise ValueError(f"index {i} not in alpha")
        last = k - 1
        factor._swap(p, last, k)
        factor.k = last
        beta = float(inv_buf[last, last])
        if abs(beta) <= TOL_PIVOT / scale:
            return factor.refactorize()
        if last:
            _rank_one(inv_buf, last, -1.0 / beta, inv_buf[last], inv_buf[:last, last].copy())
    else:
        raise ValueError(f"direction must be 'add' or 'remove', got {direction!r}")

    factor.refresh_counter += 1
    if factor.k and (factor.refresh_counter > n or _spot_residual(factor) > TOL_FACTOR):
        factor.refactorize()
    return factor
