"""Preprocessing, problem reductions, and the class-specific drivers.

The comparison-psd driver decomposes into irreducible blocks, strips
zero-diagonal variables, and repeatedly removes variables that block
the parametric start (a vanished parametric component with a negative
linear term) until the pivoting engine applies.  Every transformation
is logged as a trace step so solutions and recession rays of the
reduced problem lift back to the original coordinates.

The level-k driver splits M into irreducible blocks and classifies each
block once: a comparison-psd block goes to the pivoting driver.  Any
other block certifies before it enumerates: it tries the interior
stationary point (a two-variable linear feasibility check), then a
recession ray, and only then fixes one variable at each bound, solves
the reduced problems one level down and tests the bound certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .classify import (build_parametric_vector, class_level, find_dominance_vector,
                       is_in_sbar_plus)
from .errors import (ClassificationFailed, InvariantViolation, NotApplicable,
                     PreconditionViolated, RecursionCapExceeded)
from .matrices import (SymMatrix, as_sym, comparison_matrix,
                       irreducible_components, _pivoted_cholesky)
from .oracle import find_recession_direction, kkt_residual, recession_check
from .pivoting import (OPTIMAL, UNBOUNDED, QpInstance, SolveOutcome, Stats, blocked_start,
                       solve_psd)
from .tolerances import TOL_FM, TOL_KKT, TOL_LIFT_RAY, TOL_PIVOT, TOL_ZERO_ROW, kkt_threshold

K_CAP = 3


# ---------------------------------------------------------------------------
# Trace steps: each maps a solution of the reduced problem back one level.


@dataclass
class FixStep:
    """Variable i was fixed at ``value`` and removed."""

    i: int
    value: float

    def lift_point(self, x: np.ndarray) -> np.ndarray:
        return np.insert(x, self.i, self.value)

    def lift_ray(self, d: np.ndarray) -> np.ndarray:
        return np.insert(d, self.i, 0.0)


@dataclass
class DropStep:
    """Variable i was eliminated through its stationarity equation."""

    i: int
    row: np.ndarray  # off-diagonal row M[i, others], reduced coordinates
    m_ii: float
    q_i: float

    def lift_point(self, x: np.ndarray) -> np.ndarray:
        xi = -(self.q_i + float(self.row @ x)) / self.m_ii
        return np.insert(x, self.i, xi)

    def lift_ray(self, d: np.ndarray) -> np.ndarray:
        di = -float(self.row @ d) / self.m_ii
        if -TOL_LIFT_RAY * max(1.0, float(np.max(np.abs(d), initial=0.0))) < di < 0.0:
            di = 0.0
        return np.insert(d, self.i, di)


@dataclass
class FlipStep:
    """Variable i was replaced by its upper-bound slack z_i = u_i - x_i."""

    i: int
    u_i: float

    def lift_point(self, x: np.ndarray) -> np.ndarray:
        y = x.copy()
        y[self.i] = self.u_i - x[self.i]
        return y

    def lift_ray(self, d: np.ndarray) -> np.ndarray:
        y = d.copy()
        y[self.i] = -d[self.i]
        # A descent ray of the flipped problem cannot move the flipped
        # coordinate, so this entry vanishes up to roundoff.
        if abs(y[self.i]) <= TOL_LIFT_RAY * max(1.0, float(np.max(np.abs(d), initial=0.0))):
            y[self.i] = 0.0
        return y


@dataclass
class ReductionTrace:
    """Ordered log of reductions; replaying in reverse lifts solutions."""

    original_n: int
    steps: list = field(default_factory=list)

    def lift_point(self, x: np.ndarray) -> np.ndarray:
        for step in reversed(self.steps):
            x = step.lift_point(x)
        return x

    def lift_ray(self, d: np.ndarray) -> np.ndarray:
        for step in reversed(self.steps):
            d = step.lift_ray(d)
        return d


def _lift_outcome(step, out: SolveOutcome) -> SolveOutcome:
    """Map a reduced problem's answer back through ``step`` (a trace step or a whole trace)."""
    if out.status == OPTIMAL:
        out.x = step.lift_point(out.x)
    else:
        out.ray = step.lift_ray(out.ray)
    return out


def _finish(instance: QpInstance, out: SolveOutcome) -> SolveOutcome:
    """Clamp an optimal x into the box; :func:`solve_sbar_nk`'s exit prices it once."""
    if out.status == OPTIMAL:
        out.x = np.minimum(np.maximum(out.x, 0.0), instance.u)
    return out


# ---------------------------------------------------------------------------
# Elementary reductions.


def flip_variable(m: SymMatrix, q: np.ndarray, i: int, u_i: float):
    """Sign-flip transform for variable i at finite upper bound u_i.

    Returns (M~, q~) for the equivalent problem in z with z_i = u_i - x_i;
    applying it twice with the same u_i is the identity.
    """
    m = as_sym(m)
    q = np.asarray(q, dtype=float)
    q2 = q + u_i * m.row(i)
    q2[i] = -(q[i] + m.value(i, i) * u_i)
    return m.flip(i), q2


def preprocess_zero_diag(instance: QpInstance, scale: float | None = None,
                         q_tol: float | None = None):
    """Fix (or expose as unbounded) every zero-diagonal variable.

    For comparison-psd M a vanished diagonal forces the whole row to
    vanish, so the variable separates: returns (reduced instance, fix
    steps, None) or (instance, [], ray) when some separated variable
    has a cost below ``-q_tol`` and no upper bound.  ``scale`` anchors the
    zero-diagonal threshold (reduced problems pass the original scale
    so roundoff-sized Schur entries register as zero).  ``q_tol``
    defaults to :func:`recession_check`'s descent threshold for this
    instance; a block of a larger problem passes that problem's.
    """
    m, q, u = instance.m, instance.q, instance.u
    n = m.n
    diag = m.diagonal()
    if scale is None:
        scale = m.scale()
    zero = np.flatnonzero(diag <= TOL_PIVOT * scale)
    if zero.size == 0:
        return instance, [], None
    nonzero_row = np.flatnonzero(m.offdiag_abs_max(zero) > TOL_ZERO_ROW * scale)
    if nonzero_row.size:
        raise InvariantViolation(f"diagonal entry {zero[nonzero_row[0]]} vanishes but its row "
                                 "does not; matrix is not comparison-psd")
    if q_tol is None:
        q_tol = kkt_threshold(q)
    for i in zero:
        if not np.isfinite(u[i]) and q[i] < -q_tol:
            ray = np.zeros(n)
            ray[i] = 1.0
            return instance, [], ray
    steps = []
    removed_before = 0
    for i in zero:
        if np.isfinite(u[i]) and q[i] < 0.0:
            value = float(u[i])
        else:
            value = 0.0
        steps.append(FixStep(i=int(i) - removed_before, value=value))
        removed_before += 1
    keep = np.setdiff1d(np.arange(n), zero)
    reduced = QpInstance(m.submatrix(keep), q[keep], u[keep])
    return reduced, steps, None


def reduce_nonpositive_row(instance: QpInstance, p: np.ndarray, i: int,
                           scale: float | None = None):
    """One blocked-start reduction at an index i of :func:`blocked_start` with m_ii > 0.

    Without an upper bound the variable is eliminated through its
    stationarity equation (Schur complement); with a finite bound the
    variable is replaced by its upper slack, which removes the bound.
    Returns (reduced instance, trace step).
    """
    m, q, u = instance.m, instance.q, instance.u
    if scale is None:
        scale = m.scale()
    p = np.asarray(p, dtype=float)
    if i not in blocked_start(p, q, scale):
        raise PreconditionViolated(f"index {i} does not block the parametric start: "
                                   f"p[{i}] = {p[i]:.3e}, q[{i}] = {q[i]:.6g}")
    if m.value(i, i) <= TOL_PIVOT * scale:
        raise PreconditionViolated(f"diagonal entry {i} is not positive")
    n = m.n
    keep = np.concatenate([np.arange(i), np.arange(i + 1, n)])
    if not np.isfinite(u[i]):
        reduced_m, row, piv = m.eliminate(i)
        q_hat = q[keep] - row * (q[i] / piv)
        step = DropStep(i=int(i), row=row, m_ii=piv, q_i=float(q[i]))
        return QpInstance(reduced_m, q_hat, u[keep]), step
    m2, q2 = flip_variable(m, q, i, float(u[i]))
    u2 = u.copy()
    u2[i] = np.inf
    step = FlipStep(i=int(i), u_i=float(u[i]))
    return QpInstance(m2, q2, u2), step


# ---------------------------------------------------------------------------
# The comparison-psd driver.


def _restrict(instance: QpInstance, idx: np.ndarray) -> QpInstance:
    return QpInstance(instance.m.submatrix(idx), instance.q[idx], instance.u[idx])


def _solve_blocks(instance: QpInstance, solve, blocks=None) -> SolveOutcome:
    """Solve each irreducible block in order and scatter the answers back.

    ``blocks`` is M's split when the caller has made it.  The first
    unbounded block ends the solve; its ray is zero elsewhere.
    """
    if blocks is None:
        blocks = irreducible_components(instance.m)
    if len(blocks) == 1:
        return solve(instance)
    x = np.empty(instance.n)
    for blk in blocks:
        out = solve(_restrict(instance, blk))
        if out.status == UNBOUNDED:
            ray = np.zeros(instance.n)
            ray[blk] = out.ray
            return SolveOutcome(status=UNBOUNDED, ray=ray)
        x[blk] = out.x
    return SolveOutcome(status=OPTIMAL, x=x)


def _resolve_sbar(instance: QpInstance, anchor: float, q_tol: float, stats: Stats) -> SolveOutcome:
    """Pivoting driver for one irreducible comparison-psd block; counts into ``stats``.

    Every zero/singularity threshold anchors at ``anchor``, the scale of the
    block the driver was entered with, so roundoff left by a Schur-complement
    chain registers as zero.  A zero-diagonal variable is unbounded when its
    cost is below ``-q_tol``."""
    trace = ReductionTrace(original_n=instance.n)
    work = instance
    cached_d = None
    budget = 3 * max(instance.n, 1) + 3
    for _ in range(budget):
        work, fix_steps, ray = preprocess_zero_diag(work, scale=anchor, q_tol=q_tol)
        if ray is not None:
            return _lift_outcome(trace, SolveOutcome(status=UNBOUNDED, ray=ray))
        if fix_steps:
            trace.steps.extend(fix_steps)
            cached_d = None
        if work.n == 0:
            return _lift_outcome(trace, SolveOutcome(status=OPTIMAL, x=np.zeros(0)))

        if cached_d is None and trace.steps:
            # A fix or a drop removed variables, which can split the block;
            # a flip keeps the sparsity pattern.
            blocks = irreducible_components(work.m)
            if len(blocks) > 1:
                out = _solve_blocks(
                    work, lambda blk: _resolve_sbar(blk, anchor, q_tol, stats), blocks)
                return _lift_outcome(trace, out)

        if cached_d is None:
            cached_d = find_dominance_vector(comparison_matrix(work.m), scale=anchor)
        p = build_parametric_vector(work.m, cached_d, scale=anchor)
        blocked = blocked_start(p, work.q, anchor)
        if blocked.size == 0:
            out = solve_psd(work, p, scale=anchor)
            stats.merge(out.stats)
            return _lift_outcome(trace, out)
        droppable = [int(i) for i in blocked if not np.isfinite(work.u[i])]
        i = droppable[0] if droppable else int(blocked[0])
        work, step = reduce_nonpositive_row(work, p, i, scale=anchor)
        trace.steps.append(step)
        stats.reductions += 1
        if droppable:
            # A drop changes the matrix; a flip keeps comparison(M) and so d.
            cached_d = None
    raise InvariantViolation("reduction loop exceeded its termination bound")


def solve_sbar(instance: QpInstance, *, check: bool = True) -> SolveOutcome:
    """Driver for comparison-psd M (verified unless ``check=False``): :func:`solve_sbar_nk` at k=0."""
    return solve_sbar_nk(instance, 0, check=check)


# ---------------------------------------------------------------------------
# Two-variable linear feasibility (Fourier-Motzkin).


def _fm_pick_in_interval(lo: float, hi: float) -> float:
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(lo):
        return max(lo, 0.0)
    if np.isfinite(hi):
        return min(hi, 0.0)
    return 0.0


def _fm_interval(coeffs: np.ndarray, rhs: np.ndarray, tol: float):
    """Intersection of {c_k t <= r_k} into a single interval [lo, hi]."""
    lo, hi = -np.inf, np.inf
    for c, r in zip(coeffs, rhs):
        if c > tol:
            hi = min(hi, r / c)
        elif c < -tol:
            lo = max(lo, r / c)
        elif r < -tol:
            return None
    if lo > hi + tol:
        return None
    return lo, hi


def fm_feasibility_2var(eq_a, eq_b, ineq_a=None, ineq_b=None,
                        lower=None, upper=None, tol: float = TOL_FM):
    """Feasible point of a <=2-variable linear system, or None.

    Solves eq_a @ x = eq_b, ineq_a @ x <= ineq_b, lower <= x <= upper by
    rank splitting: a unique equality solution is checked directly, a
    one-dimensional solution set becomes an interval intersection, and
    with no effective equalities the variables are eliminated one at a
    time Fourier-Motzkin style.
    """
    eq_a = np.atleast_2d(np.asarray(eq_a, dtype=float))
    eq_b = np.atleast_1d(np.asarray(eq_b, dtype=float))
    nv = eq_a.shape[1]
    if nv > 2:
        raise ValueError("feasibility check supports at most 2 variables")
    rows = [] if ineq_a is None else [np.atleast_2d(np.asarray(ineq_a, dtype=float))]
    rhs = [] if ineq_b is None else [np.atleast_1d(np.asarray(ineq_b, dtype=float))]
    eye = np.eye(nv)
    if lower is not None:
        lower = np.asarray(lower, dtype=float)
        finite = np.isfinite(lower)
        if np.any(finite):
            rows.append(-eye[finite])
            rhs.append(-lower[finite])
    if upper is not None:
        upper = np.asarray(upper, dtype=float)
        finite = np.isfinite(upper)
        if np.any(finite):
            rows.append(eye[finite])
            rhs.append(upper[finite])
    g = np.vstack(rows) if rows else np.zeros((0, nv))
    h = np.concatenate(rhs) if rhs else np.zeros(0)
    # Normalize rows so the slack tolerance is meaningful everywhere.
    if g.shape[0]:
        norms = np.maximum(np.max(np.abs(g), axis=1), 1.0)
        g = g / norms[:, None]
        h = h / norms

    if eq_a.shape[0]:
        sv = np.linalg.svd(eq_a, compute_uv=False)
        rank_tol = max(tol * float(sv[0]) if sv.size else tol, 1e-13)
        rank = int(np.sum(sv > rank_tol))
    else:
        rank = 0
    eq_scale = 1.0 + float(np.max(np.abs(eq_b), initial=0.0))

    if rank == nv:
        x0, *_ = np.linalg.lstsq(eq_a, eq_b, rcond=None)
        if float(np.max(np.abs(eq_a @ x0 - eq_b), initial=0.0)) > tol * eq_scale:
            return None
        if g.shape[0] and float(np.max(g @ x0 - h, initial=0.0)) > tol * eq_scale:
            return None
        return x0

    if rank > 0:
        x0, *_ = np.linalg.lstsq(eq_a, eq_b, rcond=None)
        if float(np.max(np.abs(eq_a @ x0 - eq_b), initial=0.0)) > tol * eq_scale:
            return None
        _, _, vt = np.linalg.svd(eq_a)
        v = vt[rank:].T  # null-space basis, nv - rank columns
        # For nv <= 2 and rank >= 1 the null space is a single line.
        vdir = v[:, 0]
        interval = _fm_interval(g @ vdir if g.shape[0] else np.zeros(0),
                                h - g @ x0 if g.shape[0] else np.zeros(0),
                                tol * eq_scale)
        if interval is None:
            return None
        t = _fm_pick_in_interval(*interval)
        return x0 + t * vdir

    if np.max(np.abs(eq_b), initial=0.0) > tol * eq_scale:
        return None
    if nv == 0:
        return np.zeros(0)
    if nv == 1:
        interval = _fm_interval(g[:, 0], h, tol)
        if interval is None:
            return None
        return np.array([_fm_pick_in_interval(*interval)])
    # Pure 2-variable Fourier-Motzkin: eliminate x2, solve for x1, back-substitute.
    a1, a2 = g[:, 0], g[:, 1]
    x1_rows, x1_rhs = [], []
    ups = [(a1[k], h[k], a2[k]) for k in range(len(h)) if a2[k] > tol]
    downs = [(a1[k], h[k], a2[k]) for k in range(len(h)) if a2[k] < -tol]
    flats = [(a1[k], h[k]) for k in range(len(h)) if abs(a2[k]) <= tol]
    for cu, hu, au in ups:
        for cd, hd, ad in downs:
            # x2 <= (hu - cu x1)/au and x2 >= (hd - cd x1)/ad combine.
            x1_rows.append(cu * (-ad) + cd * au)
            x1_rhs.append(hu * (-ad) + hd * au)
    for c, r in flats:
        x1_rows.append(c)
        x1_rhs.append(r)
    interval = _fm_interval(np.array(x1_rows), np.array(x1_rhs), tol)
    if interval is None:
        return None
    x1 = _fm_pick_in_interval(*interval)
    coeffs = np.array([au for _, _, au in ups] + [ad for _, _, ad in downs])
    rhs2 = np.array([hu - cu * x1 for cu, hu, _ in ups] +
                    [hd - cd * x1 for cd, hd, _ in downs])
    interval2 = _fm_interval(coeffs, rhs2, tol)
    if interval2 is None:
        return None
    return np.array([x1, _fm_pick_in_interval(*interval2)])


# ---------------------------------------------------------------------------
# Interior stationary-point check (the first step of the k-level drivers).


def _interior_block(instance: QpInstance):
    """Feasible solution of q + Mx = 0, 0 <= x <= u on one block, or None,
    and the factorization ``(l, perm, rank)`` of M it came from.

    One pivoted Cholesky of M picks alpha, its first n-2 pivots (a
    positive definite block by construction), and leaves the other two
    indices beta to a two-variable feasibility check.  Below rank n-2
    the solution set is wider than two variables and the answer is None.
    """
    m, q, u = instance.m, instance.q, instance.u
    n = m.n
    a = m.full()
    chol = _pivoted_cholesky(a, TOL_PIVOT * m.scale())
    if n <= 2:
        return fm_feasibility_2var(a, -q, lower=np.zeros(n), upper=u, tol=TOL_KKT), chol
    l, perm, rank = chol
    if rank < n - 2:
        return None, chol
    alpha, beta = perm[:n - 2], perm[n - 2:]
    factor = (l[:n - 2, :n - 2], True)
    mab = a[np.ix_(alpha, beta)]
    sol_q = scipy.linalg.cho_solve(factor, q[alpha], check_finite=False)
    sol_b = scipy.linalg.cho_solve(factor, mab, check_finite=False)
    # At rank n-2 the factorization found the Schur block on beta zero at M's
    # scale; the subtraction would leave roundoff for the check to misjudge.
    eq_a = a[np.ix_(beta, beta)] - mab.T @ sol_b if rank > n - 2 else np.zeros((2, 2))
    eq_b = -(q[beta] - mab.T @ sol_q)
    # 0 <= -Maa^{-1}(q_a + Mab x_b) <= u_a  becomes two banks of rows.
    g = np.vstack([sol_b, -sol_b])
    h = np.concatenate([-sol_q, u[alpha] + sol_q])
    finite = np.isfinite(h)
    x_beta = fm_feasibility_2var(eq_a, eq_b, g[finite], h[finite],
                                 lower=np.zeros(2), upper=u[beta], tol=TOL_KKT)
    if x_beta is None:
        return None, chol
    x = np.empty(n)
    x[beta] = x_beta
    x[alpha] = -(sol_q + sol_b @ x_beta)
    return np.minimum(np.maximum(x, 0.0), u), chol


def interior_solution(instance: QpInstance) -> np.ndarray | None:
    """Solve q + Mx = 0 with 0 <= x <= u blockwise; None when infeasible."""
    blocks = irreducible_components(instance.m)
    x = np.empty(instance.n)
    for blk in blocks:
        xb, _ = _interior_block(_restrict(instance, blk))
        if xb is None:
            return None
        x[blk] = xb
    return x


# ---------------------------------------------------------------------------
# Fixed-variable drivers for the k-weakly dominant classes.


def _fixing_driver(instance: QpInstance, subsolve, stats: Stats) -> SolveOutcome:
    """Certify before enumerating; counts into ``stats``.

    One pivoted Cholesky of the block serves all three stages.  The
    interior step comes first (a feasible stationary x of a convex block
    is optimal) and counts as one subproblem.  A ray can exist only on a
    singular block with an infinite bound, so only there is the recession
    direction sought next.  Then each variable is fixed at each bound and
    the reduced problem solved one level down, until a bound certificate
    holds.  On a full-rank block the fixes go in order of how far
    x0 = -M^{-1} q breaks their bound (violated bounds first, stable);
    a singular block keeps index order.  At most 2n+1 subproblems.
    """
    m, q, u = instance.m, instance.q, instance.u
    n = m.n
    if n == 0:
        return SolveOutcome(status=OPTIMAL, x=np.zeros(0))
    stats.subproblems += 1
    x, (l, perm, rank) = _interior_block(instance)
    if x is not None:
        return SolveOutcome(status=OPTIMAL, x=x)
    ray_tried = rank < n and not np.all(np.isfinite(u))
    if ray_tried:
        d = find_recession_direction(instance)
        if d is not None:
            return SolveOutcome(status=UNBOUNDED, ray=d)
    fixes = [(i, upper) for i in range(n) for upper in (False, True)
             if not upper or np.isfinite(u[i])]
    if rank == n:
        x0 = np.empty(n)
        x0[perm] = -scipy.linalg.cho_solve((l, True), q[perm], check_finite=False)
        below, above = np.maximum(-x0, 0.0), np.maximum(x0 - u, 0.0)
        fixes.sort(key=lambda fix: -(above if fix[1] else below)[fix[0]])
    tol_cert = kkt_threshold(q)
    for i, upper in fixes:
        keep = np.delete(np.arange(n), i)
        row = m.row(i)[keep]
        sub_q = q[keep] + u[i] * row if upper else q[keep]
        out = subsolve(QpInstance(m.submatrix(keep), sub_q, u[keep]))
        stats.subproblems += 1
        # The certificate is the KKT sign condition of x_i at its bound; at
        # u_i the gradient includes the m_ii u_i term.
        if (out.status == UNBOUNDED
                or (upper and q[i] + m.value(i, i) * u[i] + float(row @ out.x) <= tol_cert)
                or (not upper and q[i] + float(row @ out.x) >= -tol_cert)):
            return _lift_outcome(FixStep(i, float(u[i]) if upper else 0.0), out)
    d = None if ray_tried else find_recession_direction(instance)
    if d is None:
        raise InvariantViolation("no bound certificate, the stationary system is infeasible "
                                 "and no recession direction was found")
    return SolveOutcome(status=UNBOUNDED, ray=d)


def solve_sbar_n1(instance: QpInstance, *, check: bool = False) -> SolveOutcome:
    """Driver for matrices one level beyond comparison-psd: :func:`solve_sbar_nk` at k=1."""
    return solve_sbar_nk(instance, 1, check=check)


def solve_sbar_nk(instance: QpInstance, k: int, *, check: bool = False) -> SolveOutcome:
    """Recursive driver for the k-weakly quasi-diagonally dominant class.

    Each irreducible block of M is classified once: unchecked, at level 0
    if k <= 0 or it is comparison-psd and at k otherwise; with ``check``, at
    its ``class_level`` up to k, or it raises :class:`ClassificationFailed`.
    A level-0 block goes to the pivoting driver, anchored at the block's own
    scale (the blocks are independent problems); any other block goes to
    the fixing driver, which tries the interior point and a recession ray
    before it fixes one variable at each bound and solves those
    subproblems one level down.
    Every block and subproblem judges a zero-diagonal ray at the q scale of
    ``instance``, as :func:`recession_check` judges the ray it returns.

    The answer is one record, completed here: ``stats`` counts the whole
    solve, and an optimal x is priced (``objective``) and certified
    (``kkt_residual``) once.  ``optimal`` comes only with a KKT residual
    within :func:`kkt_threshold`, ``unbounded`` only with a ray that
    :func:`recession_check` accepts; any other answer raises
    :class:`InvariantViolation`."""
    q_tol = kkt_threshold(instance.q)
    stats = Stats()
    try:
        out = _solve_nk(instance, k, check, q_tol, stats)
    except NotApplicable as exc:
        raise ClassificationFailed(str(exc)) from exc
    out.stats = stats
    if out.status == OPTIMAL:
        out.objective = instance.objective(out.x)
        out.kkt_residual = kkt_residual(instance, out.x)
        if out.kkt_residual > q_tol:
            raise InvariantViolation(f"optimal answer has KKT residual {out.kkt_residual:.3e}, "
                                     f"above its tolerance {q_tol:.3e}")
    elif not recession_check(instance, out.ray):
        raise InvariantViolation("unbounded answer's ray fails recession_check")
    return out


def _solve_nk(instance: QpInstance, k: int, check: bool, q_tol: float,
              stats: Stats) -> SolveOutcome:
    """:func:`solve_sbar_nk` below its exit: counts into ``stats`` and leaves x unpriced."""
    if k > K_CAP:
        raise RecursionCapExceeded(f"k={k} exceeds the recursion cap {K_CAP}")

    def solve_block(block: QpInstance) -> SolveOutcome:
        if check:
            level = class_level(block.m, k)
            if level is None:
                raise ClassificationFailed(f"classification_failed: no level up to {max(k, 0)} is "
                                           f"verified for an irreducible block of order {block.n}")
        else:
            level = 0 if k <= 0 or is_in_sbar_plus(block.m) else k
        if level == 0:
            return _resolve_sbar(block, block.m.scale(), q_tol, stats)
        return _fixing_driver(block, lambda sub: _solve_nk(sub, level - 1, False, q_tol, stats),
                              stats)

    return _finish(instance, _solve_blocks(instance, solve_block))
