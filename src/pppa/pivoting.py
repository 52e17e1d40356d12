"""Parametric principal pivoting for box-constrained convex QPs.

The engine traces the solution path of

    minimize (q + tau p)' x + x' M x / 2   over  0 <= x <= u

as tau decreases to zero, keeping the index partition

    alpha: strictly between bounds,  beta: at zero,  gamma: at the upper bound.

Each iteration solves for the basic components, runs a ratio test for
the next critical tau, and applies a diagonal pivot, or a 2x2 pivot
when the entering index has a vanishing Schur diagonal.  Positive
definite instances never reach the 2x2 branch, which recovers the
plain 2n-step scheme as a special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IterationCap, PreconditionViolated, SingularPivot
from .factors import FactorState, factor_update
from .matrices import SymMatrix, as_sym, tridiag_run_solve
from .tolerances import (TOL_PIVOT, TOL_PSD, TOL_RATIO, TOL_RAY_NEGATIVE, TOL_RAY_ZERO,
                         TOL_TAU_OPTIMAL)

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ERROR = "error"


@dataclass
class QpInstance:
    """Box-constrained QP data: minimize q'x + x'Mx/2 over 0 <= x <= u."""

    m: SymMatrix
    q: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.m = as_sym(self.m)
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        self.u = np.atleast_1d(np.asarray(self.u, dtype=float))
        n = self.m.n
        if self.q.shape != (n,) or self.u.shape != (n,):
            raise ValueError(f"q/u shapes {self.q.shape}/{self.u.shape} do not match n={n}")
        if n and float(np.min(self.u)) <= 0.0:
            raise ValueError("upper bounds must be positive (use inf for unbounded)")

    @property
    def n(self) -> int:
        return self.m.n

    def objective(self, x: np.ndarray) -> float:
        """q'x + x'Mx/2, using the banded product when available."""
        return float(self.q @ x + 0.5 * (x @ self.m.matvec(x)))


# Partition labels: at zero, basic (strictly between bounds), at the upper bound.
BETA, ALPHA, GAMMA = 0, 1, 2


class Partition:
    """Disjoint index sets (alpha, beta, gamma) covering range(n).

    Stored as one int8 label per index (BETA, ALPHA or GAMMA), so a
    pivot rewrites one or two labels in O(1).  ``alpha``, ``beta`` and
    ``gamma`` are sorted index arrays derived from the labels on demand.
    """

    __slots__ = ("labels",)
    __hash__ = None

    def __init__(self, alpha=(), beta=(), gamma=(), *, labels: np.ndarray | None = None):
        if labels is None:
            sets = [(label, np.asarray(idx, dtype=np.intp).reshape(-1))
                    for label, idx in ((BETA, beta), (ALPHA, alpha), (GAMMA, gamma))]
            labels = np.full(sum(idx.size for _, idx in sets), -1, dtype=np.int8)
            for label, idx in sets:
                labels[idx] = label
            if np.any(labels < 0):
                raise ValueError("alpha, beta and gamma must be disjoint and cover range(n)")
        self.labels = labels

    @classmethod
    def initial(cls, n: int) -> "Partition":
        return cls(labels=np.full(n, BETA, dtype=np.int8))

    @property
    def alpha(self) -> np.ndarray:
        return np.flatnonzero(self.labels == ALPHA)

    @property
    def beta(self) -> np.ndarray:
        return np.flatnonzero(self.labels == BETA)

    @property
    def gamma(self) -> np.ndarray:
        return np.flatnonzero(self.labels == GAMMA)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return bool(np.array_equal(self.labels, other.labels))

    def __repr__(self) -> str:
        return (f"Partition(alpha={self.alpha.tolist()}, beta={self.beta.tolist()}, "
                f"gamma={self.gamma.tolist()})")


@dataclass
class Stats:
    """Work counters of one solve; ``merge`` adds the counts of a ``solve_psd`` call it made."""

    pivots: int = 0
    two_by_two: int = 0
    reductions: int = 0
    subproblems: int = 0
    refactorizations: int = 0
    flops: int = 0
    max_iter_flops: int = 0

    def merge(self, other: "Stats") -> None:
        self.pivots += other.pivots
        self.two_by_two += other.two_by_two
        self.reductions += other.reductions
        self.subproblems += other.subproblems
        self.refactorizations += other.refactorizations
        self.flops += other.flops
        self.max_iter_flops = max(self.max_iter_flops, other.max_iter_flops)


@dataclass
class SolveOutcome:
    """A solve's record; ``ray`` is the recession direction (feasible, linear descent)."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    ray: np.ndarray | None = None
    kkt_residual: float | None = None
    stats: Stats = field(default_factory=Stats)
    reason: str | None = None


@dataclass
class ParamState:
    """One engine iteration's view: partition, bar vectors, factor.

    ``factor`` is None on tridiagonal input, whose M_aa systems are
    solved run by run.  ``mug`` is the running M @ (u on gamma, 0
    elsewhere) that the bars were computed with.
    """

    partition: Partition
    qbar: np.ndarray | None
    pbar: np.ndarray | None
    factor: FactorState | None
    stats: Stats = field(default_factory=Stats)
    mug: np.ndarray | None = None


@dataclass
class PivotDecision:
    """Outcome of the ratio tests; consumed by apply_pivot and the engine's refresh.

    kind: 'to_upper'            alpha -> gamma            (case 1)
          'from_lower'          beta -> alpha             (case 2a)
          'at_ub'               beta -> gamma             (2x2, rho = u_i)
          'exchange_to_lower'   i: beta->alpha, j: alpha->beta   (2x2)
          'exchange_to_upper'   i: beta->alpha, j: alpha->gamma  (2x2)

    mhat: M_aa^{-1} M_{a,i_bar} in the factor's block order, carried by a
    dense 'from_lower' pivot so that the factor update need not recompute it.
    """

    kind: str
    i_bar: int
    j_bar: int | None = None
    tau_new: float = 0.0
    mhat: np.ndarray | None = None


def compute_bars(instance: QpInstance, partition: Partition, p: np.ndarray,
                 factor=None, mug: np.ndarray | None = None):
    """Solve for (qbar, pbar): basic components via M_aa, nonbasic by substitution.

    ``mug`` may carry a precomputed M @ (u on gamma, 0 elsewhere).  With
    a ``factor`` the nonbasic rows cost one M_Na product, (n-k)k work
    per column; without one, M_aa is solved directly and M multiplied whole.
    """
    m, q, u = instance.m, instance.q, instance.u
    if mug is None:
        mug = m.matvec(np.where(partition.labels == GAMMA, u, 0.0))
    p = np.asarray(p, dtype=float)
    rhs = np.column_stack([q + mug, p])
    if factor is not None:
        qbar, pbar = factor.bars(rhs)
        return qbar, pbar
    alpha = partition.alpha
    sol = np.zeros_like(rhs)
    if alpha.size:
        sol[alpha] = m.solve(alpha, rhs)
    prod = m.matvec(sol)
    qbar = q + mug - prod[:, 0]
    pbar = p - prod[:, 1]
    qbar[alpha] = sol[alpha, 0]
    pbar[alpha] = sol[alpha, 1]
    return qbar, pbar


def _ratio_candidates(labels, qbar, pbar, u, threshold: float):
    """First-ratio-test quotients: -qbar/pbar on beta and -(u + qbar)/pbar on
    alpha where pbar > threshold, -inf (no candidate) elsewhere.

    Only candidates are divided, so a zero pbar elsewhere raises no
    warning; an infinite u gives -inf, the no-candidate value.
    """
    rising = pbar > threshold
    ratios_b = np.divide(-qbar, pbar, out=np.full(pbar.shape, -np.inf),
                         where=rising & (labels == BETA))
    ratios_a = np.divide(-(u + qbar), pbar, out=np.full(pbar.shape, -np.inf),
                         where=rising & (labels == ALPHA))
    return ratios_b, ratios_a


def _select(ratios_b: np.ndarray, ratios_a: np.ndarray, tau_eps: float):
    # argmax returns the first, i.e. smallest, index attaining the maximum.
    i_b, i_a = int(ratios_b.argmax()), int(ratios_a.argmax())
    best_b, best_a = float(ratios_b[i_b]), float(ratios_a[i_a])
    tau_new = max(best_b, best_a, 0.0)
    if tau_new <= tau_eps:
        return 0.0, "optimal", None
    if best_b >= best_a:
        return tau_new, "from_lower", i_b
    return tau_new, "to_upper", i_a


def ratio_test_tau(state: ParamState, u: np.ndarray, tau_eps: float = 0.0):
    """First ratio test: next critical tau and the blocking index.

    Returns (tau_new, kind, i_bar) with kind in {'optimal', 'to_upper',
    'from_lower'}.  Exact ties prefer beta candidates, then the
    smallest index.
    """
    pbar = state.pbar
    if pbar.size == 0:
        return 0.0, "optimal", None
    threshold = TOL_RATIO * float(np.max(np.abs(pbar)))
    return _select(*_ratio_candidates(state.partition.labels, state.qbar, pbar, u, threshold),
                   tau_eps)


def second_ratio_test(state: ParamState, instance: QpInstance, i_bar: int,
                      tau_new: float, mhat: np.ndarray):
    """Blocking-variable search for a 2x2 pivot at a zero Schur diagonal.

    ``mhat`` is M_aa^{-1} M_{a, i_bar} embedded into a full-length
    vector.  Returns (rho_min, kind, j_bar) with kind in {'at_ub',
    'exchange_to_lower', 'exchange_to_upper', 'unbounded'}; ties keep
    u_i first, then the smallest j_bar.
    """
    qbar, pbar, u = state.qbar, state.pbar, instance.u
    n = qbar.size
    in_alpha = state.partition.labels == ALPHA
    mtol = TOL_RATIO * float(np.max(np.abs(mhat), initial=0.0))

    x_tau = np.maximum(-qbar - tau_new * pbar, 0.0)
    s_tau = np.maximum(u + qbar + tau_new * pbar, 0.0)

    # An infinite u gives s_tau = inf, the no-candidate value of rho_upper.
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_lower = np.where(in_alpha & (mhat > mtol), x_tau / mhat, np.inf)
        rho_upper = np.where(in_alpha & (mhat < -mtol), s_tau / -mhat, np.inf)

    rho_u = float(u[i_bar]) if np.isfinite(u[i_bar]) else np.inf
    rho_min = min(float(np.min(rho_lower, initial=np.inf)),
                  float(np.min(rho_upper, initial=np.inf)), rho_u)
    if not np.isfinite(rho_min):
        return np.inf, "unbounded", None
    if rho_u <= rho_min:
        return rho_min, "at_ub", None
    lower_hits = np.flatnonzero(rho_lower == rho_min)
    upper_hits = np.flatnonzero(rho_upper == rho_min)
    j_lower = int(lower_hits[0]) if lower_hits.size else n
    j_upper = int(upper_hits[0]) if upper_hits.size else n
    if j_lower <= j_upper:
        return rho_min, "exchange_to_lower", j_lower
    return rho_min, "exchange_to_upper", j_upper


# Decision kind -> (new label of i_bar, new label of j_bar or None).
_MOVES = {
    "to_upper": (GAMMA, None),
    "from_lower": (ALPHA, None),
    "at_ub": (GAMMA, None),
    "exchange_to_lower": (ALPHA, BETA),
    "exchange_to_upper": (ALPHA, GAMMA),
}

# Decision kind -> the field naming the index that enters gamma, for those that add one.
_TO_GAMMA = {"to_upper": "i_bar", "at_ub": "i_bar", "exchange_to_upper": "j_bar"}


def _factor_step(factor: FactorState, idx: int, direction: str, mhat, stats: Stats) -> None:
    before = factor.refresh_counter
    factor_update(factor, idx, direction, mhat=mhat)
    if factor.refresh_counter <= before:
        stats.refactorizations += 1


def apply_pivot(state: ParamState, decision: PivotDecision) -> ParamState:
    """Relabel i_bar (and j_bar) for one pivot, in O(1).

    ``state`` is updated in place and returned; the bar engine's
    ``refresh`` then updates whatever it factored.
    """
    if decision.kind not in _MOVES:
        raise ValueError(f"unknown pivot kind {decision.kind!r}")
    to_i, to_j = _MOVES[decision.kind]
    labels, stats = state.partition.labels, state.stats
    labels[decision.i_bar] = to_i
    if to_j is not None:
        labels[decision.j_bar] = to_j
    if decision.kind not in ("to_upper", "from_lower"):
        stats.two_by_two += 1
    stats.pivots += 1
    return state


def solution_at_tau(state: ParamState, instance: QpInstance, tau: float) -> np.ndarray:
    """Path point: x_beta = 0, x_gamma = u, x_alpha = -qbar - tau*pbar."""
    labels = state.partition.labels
    x = np.where(labels == GAMMA, instance.u, 0.0)
    alpha = np.flatnonzero(labels == ALPHA)
    x[alpha] = -state.qbar[alpha] - tau * state.pbar[alpha]
    return x


def _widen_to_runs(labels: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """Grow [lo, hi) until neither end cuts through an alpha run.

    Scans 4, 16, 64, ... labels at a time, so the cost follows the run
    length, not n.
    """
    width = 4
    while lo > 0 and labels[lo - 1] == ALPHA:
        s = max(lo - width, 0)
        stops = np.flatnonzero(labels[s:lo] != ALPHA)
        lo = s + int(stops[-1]) + 1 if stops.size else s
        width *= 4
    width, n = 4, labels.size
    while hi < n and labels[hi] == ALPHA:
        t = min(hi + width, n)
        stops = np.flatnonzero(labels[hi:t] != ALPHA)
        hi = hi + int(stops[0]) if stops.size else t
        width *= 4
    return lo, hi


class _BandedBars:
    """qbar, pbar and the first-ratio-test candidates of tridiagonal input.

    ``xq`` and ``xp`` hold the two columns of M_aa^{-1} [q + mug, p]_a,
    zero off alpha.  A pivot that relabels indices lo..hi, and so moves
    ``mug`` only within one index of them, changes them only on the alpha
    runs that meet [lo-1, hi+1] and the bars only on those runs and one
    index beyond.  :meth:`update` recomputes just that window in Python
    floats, with the operations of ``compute_bars(factor=None)`` in the
    same order, so the bars stay bitwise equal to a full recomputation
    with the same ``mug``: a window holds about six entries, too few to
    repay the fixed cost of a numpy call, so single entries are read and
    written through memoryviews of the arrays.  The ratio threshold
    follows an index of the largest |pbar|, found again over all n only
    when a window covers it.  The candidate arrays are rebuilt over all
    n, in numpy, only when the threshold moved.  A pivot without either
    costs a window of Python work and two argmax passes.
    """

    def __init__(self, instance: QpInstance, p: np.ndarray, state: ParamState):
        n = instance.n
        self.d, self.e = instance.m.band()
        self.q, self.u, self.p, self.mug = instance.q, instance.u, p, state.mug
        # The constant data again as Python floats, read entry by entry in the window.
        self.dl, self.el, self.ql, self.pl, self.ul = (
            v.tolist() for v in (self.d, self.e, self.q, p, self.u))
        self.labels = state.partition.labels
        self.tol_abs = TOL_PIVOT * instance.m.scale()
        # The engine owns qbar and pbar and updates them in place.
        self.qbar, self.pbar = state.qbar, state.pbar = np.empty(n), np.empty(n)
        self.xq, self.xp = [0.0] * n, [0.0] * n
        self.cand_b, self.cand_a = np.empty(n), np.empty(n)
        # One entry through a memoryview is a Python scalar, several times
        # faster to read or write than through numpy indexing.
        self.lv, self.mv, self.qv, self.pv, self.bv, self.av = map(memoryview, (
            self.labels, self.mug, self.qbar, self.pbar, self.cand_b, self.cand_a))
        self.threshold = np.nan
        self.big = 0  # an index of the largest |pbar|; the first update covers it
        # Counts for flops(), kept by update() and ratio_test(): entries the last
        # update re-solved, its O(n) passes over pbar, candidates rebuilt.
        self.rebuilt = 0
        self.update(0, n - 1)

    def _pivot(self, s: int) -> float:
        """d[s], the pivot of a one-index run, tested as ``tridiag_run_solve`` tests it."""
        if abs(self.dl[s]) <= self.tol_abs:
            raise SingularPivot(f"diagonal pivot at index {s} below tolerance")
        return self.dl[s]

    def update(self, lo: int, hi: int) -> None:
        """Refresh xq, xp, the bars and the largest |pbar| after a pivot that relabelled lo..hi."""
        n, lv, mv = self.labels.size, self.lv, self.mv
        lo, hi = max(lo - 1, 0), min(hi + 2, n)
        a, b = lo, hi  # most windows end at labels off alpha and need no widening
        if (a > 0 and lv[a - 1] == ALPHA) or (b < n and lv[b] == ALPHA):
            a, b = _widen_to_runs(self.labels, a, b)
        w0, w1 = max(a - 1, 0), min(b + 1, n)
        d, e, q, p, xq, xp = self.dl, self.el, self.ql, self.pl, self.xq, self.xp
        # The widening crossed alpha alone, so [lo, hi) holds every other
        # index of [a, b), the cuts; each alpha run [s, t) ends at one, or at b.
        cuts, s = [], a
        for t in range(lo, hi + 1):
            if t == hi:
                t = b
            elif lv[t] == ALPHA:
                continue
            else:
                cuts.append(t)
                xq[t] = xp[t] = 0.0
            if t - s == 1:
                pivot = self._pivot(s)
                xq[s], xp[s] = (q[s] + mv[s]) / pivot, p[s] / pivot
            elif t > s:
                rhs = np.empty((t - s, 2))
                np.add(self.q[s:t], self.mug[s:t], out=rhs[:, 0])
                rhs[:, 1] = self.p[s:t]
                xq[s:t], xp[s:t] = tridiag_run_solve(self.d, self.e, s, t, rhs,
                                                     self.tol_abs).T.tolist()
            s = t + 1
        # The bars are x on alpha.  Off alpha (the cuts, a - 1 and b),
        # SymMatrix.matvec's order: d*x, then + e*x[+1], then + e*x[-1].
        if a > 0:
            cuts.append(a - 1)
        if b < n:
            cuts.append(b)
        qw, pw = xq[w0:w1], xp[w0:w1]
        for i in cuts:
            yq, yp = d[i] * xq[i], d[i] * xp[i]
            if i < n - 1:
                yq += e[i] * xq[i + 1]
                yp += e[i] * xp[i + 1]
            if i >= 1:
                yq += e[i - 1] * xq[i - 1]
                yp += e[i - 1] * xp[i - 1]
            qw[i - w0], pw[i - w0] = (q[i] + mv[i]) - yq, p[i] - yp
        qv, pv = self.qv, self.pv
        for i, qb, pb in zip(range(w0, w1), qw, pw):
            qv[i] = qb
            pv[i] = pb
        # Outside the window pbar is unchanged, so the largest |pbar| is the
        # kept one or the window's own, unless the window held the kept one.
        big, self.scans = self.big, 0
        if w0 <= big < w1:
            top, bottom = int(self.pbar.argmax()), int(self.pbar.argmin())
            self.big = top if pv[top] >= -pv[bottom] else bottom
            self.scans = 2
        else:
            top, bottom, kept = max(pw), min(pw), abs(pv[big])
            if top > kept or -bottom > kept:
                self.big = w0 + (pw.index(top) if top >= -bottom else pw.index(bottom))
        self.solved, self.window, self.window_bars = b - a, (w0, w1), (qw, pw)

    def ratio_test(self, tau_eps: float):
        """``ratio_test_tau`` on the current bars; candidates outside the window are reused."""
        threshold = TOL_RATIO * abs(self.pv[self.big])
        if threshold == self.threshold:
            (w0, w1), (qw, pw) = self.window, self.window_bars
            lv, ul, bv, av, none = self.lv, self.ul, self.bv, self.av, -math.inf
            # _ratio_candidates' quotients, entry by entry.
            for i, qb, pb in zip(range(w0, w1), qw, pw):
                if pb > threshold:
                    label = lv[i]
                    bv[i] = -qb / pb if label == BETA else none
                    av[i] = -(ul[i] + qb) / pb if label == ALPHA else none
                else:
                    bv[i] = av[i] = none
            self.rebuilt = w1 - w0
        else:
            self.cand_b, self.cand_a = _ratio_candidates(self.labels, self.qbar, self.pbar,
                                                         self.u, threshold)
            self.bv, self.av = memoryview(self.cand_b), memoryview(self.cand_a)
            self.rebuilt = self.labels.size
        self.threshold = threshold
        return _select(self.cand_b, self.cand_a, tau_eps)

    def _border_runs(self, i: int):
        """M_aa^{-1} M_{a,i} for i outside alpha, run by run.

        Only the alpha runs holding a coupled neighbour of i have a
        nonzero right-hand side; yields ``(nb, s, t, y)`` for each such
        run [s, t) and its solution y.  Every other run of the solution is zero.
        """
        labels = self.labels
        for nb in (i - 1, i + 1):
            c = self.el[min(nb, i)] if 0 <= nb < labels.size else 0.0
            if c != 0.0 and self.lv[nb] == ALPHA:
                s, t = _widen_to_runs(labels, nb, nb + 1)
                if t - s == 1:
                    yield nb, s, t, [c / self._pivot(s)]
                    continue
                rhs = np.zeros((t - s, 1))
                rhs[nb - s, 0] = c
                yield nb, s, t, tridiag_run_solve(self.d, self.e, s, t, rhs, self.tol_abs)[:, 0]

    def border(self, i: int) -> tuple[None, float]:
        """(None, m_ii - M_{i,a} M_aa^{-1} M_{a,i}); :meth:`column` solves for the vector."""
        return None, float(self.dl[i] - sum(self.el[min(nb, i)] * y[nb - s]
                                            for nb, s, _, y in self._border_runs(i)))

    def column(self, i: int, mhat: None) -> np.ndarray:
        """M_aa^{-1} M_{a,i} scattered into a length-n vector (zero off alpha)."""
        out = np.zeros(self.labels.size)
        for _, s, t, y in self._border_runs(i):
            out[s:t] = y
        return out

    def refresh(self, decision: PivotDecision) -> None:
        moved = (decision.i_bar,) if decision.j_bar is None else (decision.i_bar, decision.j_bar)
        self.update(min(moved), max(moved))

    def flops(self) -> int:
        # Entries touched: two columns of x re-solved and two bars on the
        # window, two candidate arrays rebuilt, and the passes over n: one
        # argmax per candidate array, and argmax and argmin of pbar when the
        # window held its largest |pbar|.
        w0, w1 = self.window
        return 2 * (self.solved + (w1 - w0) + self.rebuilt) + (2 + self.scans) * self.labels.size


class _DenseBars:
    """The dense bar engine: :class:`_BandedBars`' five methods over a :class:`FactorState`.

    The bars are recomputed from the factor at every ratio test, and
    :meth:`refresh` moves the pivoted indices in and out of the factor.
    """

    def __init__(self, instance: QpInstance, p: np.ndarray, state: ParamState):
        self.instance, self.p, self.state = instance, p, state
        self.factor = state.factor = FactorState.for_alpha(instance.m, state.partition.alpha)

    def ratio_test(self, tau_eps: float):
        st = self.state
        st.qbar, st.pbar = compute_bars(self.instance, st.partition, self.p, self.factor,
                                        mug=st.mug)
        return ratio_test_tau(st, self.instance.u, tau_eps)

    def border(self, i: int) -> tuple[np.ndarray, float]:
        return self.factor.border(i)

    def column(self, i: int, mhat: np.ndarray) -> np.ndarray:
        return self.factor.embed(mhat)

    def refresh(self, decision: PivotDecision) -> None:
        # j_bar leaves alpha before i_bar enters it.  Only a 'from_lower'
        # pivot carries mhat: an exchange changes the alpha it was formed against.
        factor, stats = self.factor, self.state.stats
        if decision.kind == "to_upper":
            _factor_step(factor, decision.i_bar, "remove", None, stats)
        if decision.j_bar is not None:
            _factor_step(factor, decision.j_bar, "remove", None, stats)
        if self.state.partition.labels[decision.i_bar] == ALPHA:
            _factor_step(factor, decision.i_bar, "add", decision.mhat, stats)

    def flops(self) -> int:
        # Two bar columns of k^2 + (n-k)k multiply-adds each (4nk flops), the
        # factor's column solve and rank-one update (4k^2), O(n) vector work.
        n, k = self.instance.n, self.factor.k
        return 4 * n * k + 4 * k * k + 8 * n


def blocked_start(p: np.ndarray, q: np.ndarray, scale: float) -> np.ndarray:
    """Indices where p_i ~ 0 while q_i < 0, so no tau0 > 0 gives q + tau0*p >= 0."""
    p_tol = TOL_PSD * max(float(np.max(np.abs(p), initial=0.0)), scale)
    q_tol = TOL_PSD * (1.0 + float(np.max(np.abs(q), initial=0.0)))
    return np.flatnonzero((p <= p_tol) & (q < -q_tol))


def solve_psd(instance: QpInstance, p, *, callback=None,
              scale: float | None = None) -> SolveOutcome:
    """Streamlined pivoting for psd M with positive diagonal.

    ``p`` must be the class construction's (M + comparison(M)) d / 2, with
    q + tau0 p >= 0 for some tau0 > 0 (callers reduce first when that fails):
    another nonnegative p can end at a wrong optimum, as p = 10 + |q| does on
    ``tests/helpers.py::banded_family()[372]``.  ``scale``
    anchors the zero/pivot thresholds (reduced problems pass the
    original problem's scale).  ``callback(state, tau_new, decision)``
    runs before each pivot and once at the end with ``decision=None``;
    the pivot then updates ``state`` in place, so copy what must outlive
    the call.
    """
    m, q, u = instance.m, instance.q, instance.u
    n = m.n
    stats = Stats()
    if n == 0:
        return SolveOutcome(status=OPTIMAL, x=np.zeros(0), objective=0.0, stats=stats)
    p = np.asarray(p, dtype=float)
    if scale is None:
        scale = m.scale()
    diag = instance.m.diagonal()
    if float(np.min(diag)) <= TOL_PIVOT * scale:
        raise PreconditionViolated("matrix has a nonpositive diagonal entry; run zero-diagonal preprocessing first")
    blocked = blocked_start(p, q, scale)
    if blocked.size:
        i = int(blocked[0])
        raise PreconditionViolated(
            f"no tau0 > 0 with q + tau0*p >= 0: p[{i}] ~ 0 while q[{i}] = {q[i]:.6g} < 0")

    mug = np.zeros(n)
    state = ParamState(partition=Partition.initial(n), qbar=None, pbar=None, factor=None,
                       stats=stats, mug=mug)
    labels = state.partition.labels
    cap = max(3 * n, 4)
    tau_eps = None
    engine = (_BandedBars if m.tridiagonal else _DenseBars)(instance, p, state)

    while True:
        tau_new, kind, i_bar = engine.ratio_test(tau_eps or 0.0)
        it_flops = engine.flops()
        stats.flops += it_flops
        stats.max_iter_flops = max(stats.max_iter_flops, it_flops)

        if tau_eps is None:
            tau_eps = TOL_TAU_OPTIMAL * max(1.0, tau_new)
        if kind == "optimal":
            x = solution_at_tau(state, instance, 0.0)
            x = np.minimum(np.maximum(x, 0.0), u)
            if callback is not None:
                callback(state, 0.0, None)
            return SolveOutcome(status=OPTIMAL, x=x, objective=instance.objective(x), stats=stats)

        if kind == "to_upper":
            decision = PivotDecision(kind="to_upper", i_bar=i_bar, tau_new=tau_new)
        else:
            mhat, sigma = engine.border(i_bar)
            if sigma > TOL_PIVOT * scale:
                decision = PivotDecision(kind="from_lower", i_bar=i_bar, tau_new=tau_new, mhat=mhat)
            else:
                mhat = engine.column(i_bar, mhat)
                rho, sub_kind, j_bar = second_ratio_test(state, instance, i_bar, tau_new, mhat)
                if sub_kind == "unbounded":
                    d = np.zeros(n)
                    d[i_bar] = 1.0
                    alpha_arr = np.flatnonzero(labels == ALPHA)
                    d[alpha_arr] = -mhat[alpha_arr]
                    d[np.abs(d) <= TOL_RAY_ZERO * max(1.0, float(np.max(np.abs(d))))] = 0.0
                    d[(d < 0.0) & (d > -TOL_RAY_NEGATIVE)] = 0.0
                    if callback is not None:
                        callback(state, tau_new, None)
                    return SolveOutcome(status=UNBOUNDED, ray=d, stats=stats)
                decision = PivotDecision(kind=sub_kind, i_bar=i_bar, j_bar=j_bar,
                                         tau_new=tau_new)

        if callback is not None:
            callback(state, tau_new, decision)
        state = apply_pivot(state, decision)
        # gamma is monotone, so M @ (u on gamma) updates one column at a time.
        to_gamma = _TO_GAMMA.get(decision.kind)
        if to_gamma is not None:
            entered = getattr(decision, to_gamma)
            m.add_column(mug, entered, u[entered])
        if stats.pivots > cap:
            raise IterationCap(f"pivot count exceeded {cap} (3n cap); degeneracy anomaly")
        engine.refresh(decision)


def solve_pd(instance: QpInstance, p, **kwargs) -> SolveOutcome:
    """Positive definite specialization: same path, no 2x2 pivots arise."""
    p = np.asarray(p, dtype=float)
    if p.size and float(np.min(p)) <= 0.0:
        raise PreconditionViolated("positive definite mode requires a positive parametric vector")
    return solve_psd(instance, p, **kwargs)
