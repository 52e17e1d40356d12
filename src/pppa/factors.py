"""Incremental maintenance of the basic-block inverse.

A FactorState holds what a pivot needs of M for the basic set alpha
and nothing of size n x n: ``rows``, the rows of M at the alpha
indices in block order (k x n), and the explicit inverse of M_aa as the
leading k x k block of a cap x cap buffer.  M_aa is ``rows[:k]`` at the
alpha columns, and the dense bar solve multiplies by ``rows[:k]``, so a
pivot costs O(nk) for k = |alpha|.  Both buffers double their capacity
when alpha outgrows it.  Adding an index borders the inverse with one
BLAS rank-one update (``dger``) over its leading k rows; removing one
downdates with the leaving row and column and moves the last block
position into the hole.  A full refactorization runs whenever the update
counter exceeds n or a cheap residual probe fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger

from .errors import SingularPivot
from .matrices import SymMatrix, as_sym
from .tolerances import TOL_FACTOR, TOL_PIVOT

_MIN_CAPACITY = 16


@dataclass(eq=False)
class FactorState:
    """Explicit inverse of the principal block M_aa, kept up to date in place.

    Construct with :meth:`for_alpha`.  ``rows[:k]`` are the rows of M at
    the alpha indices in block order (M itself is never written);
    ``slot[i]`` is the block position of i, -1 off alpha.  ``inv`` and
    ``alpha`` describe the leading k x k block.
    """

    m: SymMatrix
    a: np.ndarray = field(repr=False)  # m.full(), read only
    rows: np.ndarray = field(repr=False)
    _inv_buf: np.ndarray = field(repr=False)
    _order: np.ndarray = field(repr=False)  # the alpha indices in block order, capacity long
    slot: np.ndarray = field(repr=False)
    k: int
    scale: float
    refresh_counter: int = 0

    @classmethod
    def for_alpha(cls, m, alpha=()) -> "FactorState":
        m = as_sym(m)
        n = m.n
        alpha = np.asarray(alpha, dtype=np.intp).reshape(-1)
        k = alpha.size
        cap = min(n, max(k, _MIN_CAPACITY))
        a = m.full()
        factor = cls(m=m, a=a, rows=np.empty((cap, n)), _inv_buf=np.empty((cap, cap)),
                     _order=np.empty(cap, dtype=np.intp), slot=np.full(n, -1, dtype=np.intp),
                     k=k, scale=m.scale())
        factor.rows[:k] = a.take(alpha, axis=0)
        factor._order[:k] = alpha
        factor.slot[alpha] = np.arange(k)
        return factor.refactorize()

    @property
    def alpha(self) -> list[int]:
        """The basic indices in block order (the row order of ``inv``)."""
        return self._order[:self.k].tolist()

    @property
    def inv(self) -> np.ndarray:
        """M_aa^{-1} as a view of the working buffer; copy it to keep it."""
        return self._inv_buf[:self.k, :self.k]

    def _block(self) -> np.ndarray:
        """M_aa in block order, a k x k copy."""
        return self.rows[:self.k].take(self._order[:self.k], axis=1)

    def border(self, i: int) -> tuple[np.ndarray, float]:
        """(M_aa^{-1} M_{a,i} in block order, m_ii - M_{i,a} M_aa^{-1} M_{a,i}) for i outside alpha."""
        k = self.k
        col = self.rows[:k, i]
        mhat = self._inv_buf[:k, :k] @ col
        return mhat, float(self.a[i, i] - col @ mhat)

    def embed(self, v: np.ndarray) -> np.ndarray:
        """A block-ordered length-k vector scattered into a length-n one (zero off alpha)."""
        out = np.zeros(self.m.n)
        out[self._order[:self.k]] = v
        return out

    def bars(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M_aa^{-1} rhs_a on alpha and rhs_N - M_Na M_aa^{-1} rhs_a elsewhere, for an (n, c) rhs.

        The result is (c, n), written into ``out`` when given: one
        contiguous row per column of ``rhs``, because the ratio tests run
        markedly slower on strided vectors.  The nonbasic part is one
        (c x k)(k x n) product with ``rows[:k]``.
        """
        r, k = rhs.T, self.k
        if out is None:
            out = np.empty(r.shape)
        if not k:
            out[...] = r
            return out
        order = self._order[:k]
        # inv is symmetric, so rhs_a' inv is (inv rhs_a)'.
        sol = r.take(order, axis=1) @ self._inv_buf[:k, :k]
        np.matmul(sol, self.rows[:k], out=out)
        np.subtract(r, out, out=out)
        out[:, order] = sol
        return out

    def residual(self) -> float:
        """max-norm of inv @ M_aa - I; the testable factor invariant."""
        if not self.k:
            return 0.0
        return float(np.max(np.abs(self.inv @ self._block() - np.eye(self.k))))

    def refactorize(self) -> "FactorState":
        """Recompute the inverse of the current block from ``rows``; in place."""
        k = self.k
        if k:
            self._inv_buf[:k, :k] = np.linalg.inv(self._block())
        self.refresh_counter = 0
        return self

    def _grow(self) -> None:
        # Double both capacities (at most n), keeping the leading k entries.
        k, n = self.k, self.m.n
        cap = min(n, 2 * self.rows.shape[0])
        rows, inv_buf, order = np.empty((cap, n)), np.empty((cap, cap)), np.empty(cap, np.intp)
        rows[:k] = self.rows[:k]
        inv_buf[:k, :k] = self.inv
        order[:k] = self._order[:k]
        self.rows, self._inv_buf, self._order = rows, inv_buf, order

    def _fill_hole(self, p: int, last: int) -> None:
        # Move block position ``last`` into position p, which is leaving:
        # its row of M, its index, and its row and column of the inverse.
        if p != last:
            j = int(self._order[last])
            self.rows[p] = self.rows[last]
            self._order[p] = j
            self.slot[j] = p
            inv_buf = self._inv_buf
            inv_buf[p, :last + 1] = inv_buf[last, :last + 1]
            inv_buf[:last + 1, p] = inv_buf[:last + 1, last]


def _spot_residual(factor: FactorState) -> float:
    # Probe only the column of inv @ M_aa at the last block position; O(k^2).
    k = factor.k
    probe = factor._inv_buf[:k, :k] @ factor.rows[k - 1].take(factor._order[:k])
    probe[k - 1] -= 1.0
    return float(np.maximum.reduce(np.abs(probe)))


def factor_update(factor: FactorState, i: int, direction: str,
                  mhat: np.ndarray | None = None) -> FactorState:
    """Add or remove index ``i`` from the factored block.

    ``mhat`` may supply a precomputed M_aa^{-1} M_{a,i} for the add
    direction, in block order (as :meth:`FactorState.border` returns
    it).  ``factor`` is updated in place and returned.
    """
    i = int(i)
    n, scale, k = factor.m.n, factor.scale, factor.k
    p = int(factor.slot[i])
    if direction == "add":
        if p >= 0:
            raise ValueError(f"index {i} already in alpha")
        col = factor.rows[:k, i]
        if mhat is None:
            mhat = factor._inv_buf[:k, :k] @ col
        sigma = float(factor.a[i, i] - col @ mhat)
        if sigma <= TOL_PIVOT * scale:
            raise SingularPivot(f"Schur scalar {sigma:.3e} at index {i} below pivot tolerance")
        if k == factor.rows.shape[0]:
            factor._grow()
        inv_buf = factor._inv_buf
        if k:
            # Rows :k gain mhat mhat' / sigma.  The leading rows of the
            # C-ordered buffer are one Fortran (cap, k) array, which dger
            # updates in place in one pass; the columns past k take whatever
            # the stale tail of the pad gives and are never read.
            pad = np.empty(inv_buf.shape[1])
            pad[:k] = mhat
            dger(1.0 / sigma, pad, mhat, a=inv_buf[:k].T, overwrite_a=1)
        b = mhat / -sigma
        inv_buf[:k, k] = b
        inv_buf[k, :k] = b
        inv_buf[k, k] = 1.0 / sigma
        factor.rows[k] = factor.a[i]
        factor._order[k] = i
        factor.slot[i] = k
        factor.k = k + 1
    elif direction == "remove":
        if p < 0:
            raise ValueError(f"index {i} not in alpha")
        last = k - 1
        inv_buf = factor._inv_buf
        beta = float(inv_buf[p, p])
        tiny = abs(beta) <= TOL_PIVOT / scale
        if last and not tiny:
            # Every row gains -B[r, p] B[p, :] / beta; row and column p become zero.
            dger(-1.0 / beta, inv_buf[p].copy(), inv_buf[:k, p].copy(), a=inv_buf[:k].T,
                 overwrite_a=1)
        factor._fill_hole(p, last)
        factor.slot[i] = -1
        factor.k = last
        if tiny:
            return factor.refactorize()
    else:
        raise ValueError(f"direction must be 'add' or 'remove', got {direction!r}")

    factor.refresh_counter += 1
    if factor.k and (factor.refresh_counter > n or _spot_residual(factor) > TOL_FACTOR):
        factor.refactorize()
    return factor
