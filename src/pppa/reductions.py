"""Preprocessing, problem reductions, and the class-specific drivers.

The comparison-psd driver decomposes into irreducible blocks, strips
zero-diagonal variables, and repeatedly removes variables that block
the parametric start (a vanished parametric component with a negative
linear term) until the pivoting engine applies.  Every transformation
is logged as a trace step so solutions and recession rays of the
reduced problem lift back to the original coordinates.

The level-k driver solves each irreducible block on its own: a
comparison-psd block goes to the pivoting driver, any other block fixes
one variable at each bound, solves the reduced problems one level down,
tests the bound certificates, and finishes with a two-variable linear
feasibility check for the interior case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .classify import (build_parametric_vector, find_dominance_vector,
                       is_in_sbar_plus, is_sbar_nk)
from .errors import (ClassificationFailed, InvariantViolation, NotApplicable,
                     PreconditionViolated, RecursionCapExceeded)
from .matrices import (SymMatrix, as_sym, comparison_matrix,
                       irreducible_components, _pivoted_cholesky)
from .oracle import find_recession_direction
from .pivoting import (OPTIMAL, UNBOUNDED, QpInstance, Ray, SolveOutcome,
                       Stats, solve_psd)
from .tolerances import (TOL_FM, TOL_KKT, TOL_LIFT_RAY, TOL_PIVOT,
                         TOL_PSD, TOL_ZERO_ROW)

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
    elif out.status == UNBOUNDED and out.ray is not None:
        out.ray = Ray(direction=step.lift_ray(out.ray.direction))
    return out


def _finish(instance: QpInstance, out: SolveOutcome) -> SolveOutcome:
    """The drivers' one exit: clamp an optimal x into the box and price it."""
    if out.status == OPTIMAL:
        out.x = np.minimum(np.maximum(out.x, 0.0), instance.u)
        out.objective = instance.objective(out.x)
    return out


# ---------------------------------------------------------------------------
# Elementary reductions.


def _drop_matrix(m: SymMatrix, i: int):
    """Single-pivot Schur complement (M/m_ii) plus the data the lift needs."""
    n = m.n
    keep = np.concatenate([np.arange(i), np.arange(i + 1, n)])
    if m.tridiagonal:
        d, e = m.band()
        piv = d[i]
        sub_m = m.submatrix(keep)
        d2, e2 = sub_m.band()
        d2 = d2.copy()
        e2 = e2.copy()
        left = e[i - 1] if i > 0 else 0.0
        right = e[i] if i < n - 1 else 0.0
        if i > 0:
            d2[i - 1] -= left * left / piv
        if i < n - 1:
            d2[i] -= right * right / piv
        if 0 < i < n - 1:
            e2[i - 1] -= left * right / piv
        reduced = SymMatrix.from_banded(d2, e2)
        row = np.zeros(n - 1)
        if i > 0:
            row[i - 1] = left
        if i < n - 1:
            row[i] = right
        return reduced, row, float(piv)
    a = m.full()
    piv = float(a[i, i])
    row = a[i, keep].copy()
    block = a[np.ix_(keep, keep)] - np.outer(row, row) / piv
    return SymMatrix.from_dense((block + block.T) / 2.0), row, piv


def flip_variable(m: SymMatrix, q: np.ndarray, i: int, u_i: float):
    """Sign-flip transform for variable i at finite upper bound u_i.

    Returns (M~, q~) for the equivalent problem in z with z_i = u_i - x_i;
    applying it twice with the same u_i is the identity.
    """
    m = as_sym(m)
    q = np.asarray(q, dtype=float)
    n = m.n
    if m.tridiagonal:
        d, e = m.band()
        e2 = e.copy()
        col = np.zeros(n)
        col[i] = d[i]
        if i > 0:
            e2[i - 1] = -e2[i - 1]
            col[i - 1] = e[i - 1]
        if i < n - 1:
            e2[i] = -e2[i]
            col[i + 1] = e[i]
        m2 = SymMatrix.from_banded(d, e2)
    else:
        # Conjugation by the signature matrix: row and column i flip,
        # the diagonal entry is negated twice and stays put.
        a = m.full().copy()
        a[i, :] = -a[i, :]
        a[:, i] = -a[:, i]
        m2 = SymMatrix.from_dense(a)
        col = m.full()[:, i]
    q2 = q + u_i * col
    q2[i] = -(q[i] + m.value(i, i) * u_i)
    return m2, q2


def preprocess_zero_diag(instance: QpInstance, scale: float | None = None):
    """Fix (or expose as unbounded) every zero-diagonal variable.

    For comparison-psd M a vanished diagonal forces the whole row to
    vanish, so the variable separates: returns (reduced instance, fix
    steps, None) or (instance, [], ray) when some separated variable
    has negative cost and no upper bound.  ``scale`` anchors the
    zero-diagonal threshold (reduced problems pass the original scale
    so roundoff-sized Schur entries register as zero).
    """
    m, q, u = instance.m, instance.q, instance.u
    n = m.n
    diag = m.diagonal()
    if scale is None:
        scale = m.scale()
    zero = np.flatnonzero(diag <= TOL_PIVOT * scale)
    if zero.size == 0:
        return instance, [], None
    a_full = None
    for i in zero:
        if m.tridiagonal:
            row_max = max(abs(m.value(i, i - 1)) if i > 0 else 0.0,
                          abs(m.value(i, i + 1)) if i < n - 1 else 0.0)
        else:
            a_full = m.full() if a_full is None else a_full
            row = a_full[i].copy()
            row[i] = 0.0
            row_max = float(np.max(np.abs(row), initial=0.0))
        if row_max > TOL_ZERO_ROW * scale:
            raise InvariantViolation(
                f"diagonal entry {i} vanishes but its row does not; matrix is not comparison-psd")
    q_tol = TOL_KKT * (1.0 + float(np.max(np.abs(q), initial=0.0)))
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
    """One blocked-start reduction at index i (p_i ~ 0, q_i < 0, m_ii > 0).

    Without an upper bound the variable is eliminated through its
    stationarity equation (Schur complement); with a finite bound the
    variable is replaced by its upper slack, which removes the bound.
    Returns (reduced instance, trace step).
    """
    m, q, u = instance.m, instance.q, instance.u
    if scale is None:
        scale = m.scale()
    p = np.asarray(p, dtype=float)
    p_tol = TOL_PSD * max(float(np.max(np.abs(p), initial=0.0)), scale)
    if p[i] > p_tol:
        raise PreconditionViolated(f"p[{i}] = {p[i]:.3e} is not numerically zero")
    if m.value(i, i) <= TOL_PIVOT * scale:
        raise PreconditionViolated(f"diagonal entry {i} is not positive")
    if q[i] >= 0.0:
        raise PreconditionViolated(f"q[{i}] = {q[i]:.6g} is not negative")
    n = m.n
    keep = np.concatenate([np.arange(i), np.arange(i + 1, n)])
    if not np.isfinite(u[i]):
        reduced_m, row, piv = _drop_matrix(m, i)
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


def _solve_blocks(instance: QpInstance, blocks: list[np.ndarray], solve) -> SolveOutcome:
    """Solve each irreducible block in order and scatter the answers back.

    The first unbounded block ends the solve; its ray is zero elsewhere.
    """
    if len(blocks) == 1:
        return solve(instance)
    stats = Stats()
    x = np.empty(instance.n)
    for blk in blocks:
        out = solve(_restrict(instance, blk))
        stats.merge(out.stats)
        if out.status == UNBOUNDED:
            ray = None
            if out.ray is not None:
                ray = Ray(direction=np.zeros(instance.n))
                ray.direction[blk] = out.ray.direction
            return SolveOutcome(status=UNBOUNDED, ray=ray, stats=stats, reason=out.reason)
        x[blk] = out.x
    return SolveOutcome(status=OPTIMAL, x=x, stats=stats)


def _resolve_sbar(instance: QpInstance, anchor: float) -> SolveOutcome:
    # All zero/singularity thresholds anchor at the scale of the matrix
    # the driver was entered with: entries that shrink to roundoff along
    # a Schur-complement chain must register as zero.
    stats = Stats()
    trace = ReductionTrace(original_n=instance.n)
    work = instance
    cached_d = None
    budget = 3 * max(instance.n, 1) + 3
    for _ in range(budget):
        work, fix_steps, ray = preprocess_zero_diag(work, scale=anchor)
        if ray is not None:
            out = SolveOutcome(status=UNBOUNDED, ray=Ray(direction=ray), stats=stats)
            return _lift_outcome(trace, out)
        if fix_steps:
            trace.steps.extend(fix_steps)
            cached_d = None
        if work.n == 0:
            out = SolveOutcome(status=OPTIMAL, x=np.zeros(0), stats=stats)
            return _lift_outcome(trace, out)

        blocks = irreducible_components(work.m)
        if len(blocks) > 1:
            out = _solve_blocks(work, blocks, lambda blk: _resolve_sbar(blk, anchor))
            stats.merge(out.stats)
            out.stats = stats
            return _lift_outcome(trace, out)

        if cached_d is None:
            cached_d = find_dominance_vector(comparison_matrix(work.m), scale=anchor)
        p = build_parametric_vector(work.m, cached_d, scale=anchor)
        q = work.q
        p_tol = TOL_PSD * max(float(np.max(np.abs(p), initial=0.0)), anchor)
        q_tol = TOL_PSD * (1.0 + float(np.max(np.abs(q), initial=0.0)))
        blocked = np.flatnonzero((p <= p_tol) & (q < -q_tol))
        if blocked.size == 0:
            out = solve_psd(work, p, scale=anchor)
            stats.merge(out.stats)
            out.stats = stats
            return _lift_outcome(trace, out)
        droppable = [int(i) for i in blocked if not np.isfinite(work.u[i])]
        i = droppable[0] if droppable else int(blocked[0])
        work, step = reduce_nonpositive_row(work, p, i, scale=anchor)
        trace.steps.append(step)
        stats.reductions += 1
        if isinstance(step, DropStep):
            cached_d = None
    raise InvariantViolation("reduction loop exceeded its termination bound")


def solve_sbar(instance: QpInstance, *, check: bool = True) -> SolveOutcome:
    """Resolve the QP for comparison-psd M (verified unless ``check=False``).

    Decomposes into irreducible blocks, preprocesses and reduces until
    the parametric start condition holds, runs the pivoting engine per
    block, and lifts everything back to the original coordinates.
    """
    if check and not is_in_sbar_plus(instance.m):
        raise ClassificationFailed("comparison matrix is not positive semidefinite")
    try:
        return _finish(instance, _resolve_sbar(instance, instance.m.scale()))
    except NotApplicable as exc:
        raise ClassificationFailed(str(exc)) from exc


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
# Interior stationary-point check (the final step of the k-level drivers).


def _interior_block(instance: QpInstance, tol: float) -> np.ndarray | None:
    """Feasible solution of q + Mx = 0, 0 <= x <= u on one block, or None.

    One pivoted Cholesky of M picks alpha, its first n-2 pivots (a
    positive definite block by construction), and leaves the other two
    indices beta to a two-variable feasibility check.  Below rank n-2
    the solution set is wider than two variables and the answer is None.
    """
    m, q, u = instance.m, instance.q, instance.u
    n = m.n
    a = m.full()
    if n <= 2:
        return fm_feasibility_2var(a, -q, lower=np.zeros(n), upper=u,
                                   tol=tol)
    l, perm, rank = _pivoted_cholesky(a, TOL_PIVOT * m.scale())
    if rank < n - 2:
        return None
    alpha, beta = perm[:n - 2], perm[n - 2:]
    factor = (l[:n - 2, :n - 2], True)
    mab = a[np.ix_(alpha, beta)]
    sol_q = scipy.linalg.cho_solve(factor, q[alpha], check_finite=False)
    sol_b = scipy.linalg.cho_solve(factor, mab, check_finite=False)
    eq_a = a[np.ix_(beta, beta)] - mab.T @ sol_b
    eq_b = -(q[beta] - mab.T @ sol_q)
    # 0 <= -Maa^{-1}(q_a + Mab x_b) <= u_a  becomes two banks of rows.
    g = np.vstack([sol_b, -sol_b])
    h = np.concatenate([-sol_q, u[alpha] + sol_q])
    finite = np.isfinite(h)
    x_beta = fm_feasibility_2var(eq_a, eq_b, g[finite], h[finite],
                                 lower=np.zeros(2), upper=u[beta], tol=tol)
    if x_beta is None:
        return None
    x = np.empty(n)
    x[beta] = x_beta
    x[alpha] = -(sol_q + sol_b @ x_beta)
    return np.minimum(np.maximum(x, 0.0), u)


def interior_solution(instance: QpInstance, tol: float | None = None) -> np.ndarray | None:
    """Solve q + Mx = 0 with 0 <= x <= u blockwise; None when infeasible."""
    if tol is None:
        tol = TOL_KKT
    blocks = irreducible_components(instance.m)
    x = np.empty(instance.n)
    for blk in blocks:
        xb = _interior_block(_restrict(instance, blk), tol)
        if xb is None:
            return None
        x[blk] = xb
    return x


# ---------------------------------------------------------------------------
# Fixed-variable drivers for the k-weakly dominant classes.


def _fixing_driver(instance: QpInstance, subsolve) -> SolveOutcome:
    """Fix each variable at each bound, test the optimality certificates,
    then fall back to the interior stationarity check."""
    m, q, u = instance.m, instance.q, instance.u
    n = m.n
    stats = Stats()
    if n == 0:
        return SolveOutcome(status=OPTIMAL, x=np.zeros(0), stats=stats)
    a = m.full()
    tol_cert = TOL_KKT * (1.0 + float(np.max(np.abs(q), initial=0.0)))
    for i in range(n):
        keep = np.concatenate([np.arange(i), np.arange(i + 1, n)])
        row = a[i, keep]
        sub_m = m.submatrix(keep)
        out = subsolve(QpInstance(sub_m, q[keep], u[keep]))
        stats.subproblems += 1
        stats.merge(out.stats)
        if out.status == UNBOUNDED or q[i] + float(row @ out.x) >= -tol_cert:
            return _lift_outcome(FixStep(i, 0.0), replace(out, stats=stats))
        if np.isfinite(u[i]):
            out = subsolve(QpInstance(sub_m, q[keep] + u[i] * row, u[keep]))
            stats.subproblems += 1
            stats.merge(out.stats)
            # Upper-bound certificate is the KKT sign condition at x_i = u_i,
            # which includes the m_ii u_i term of the gradient.
            if out.status == UNBOUNDED or q[i] + a[i, i] * u[i] + float(row @ out.x) <= tol_cert:
                return _lift_outcome(FixStep(i, float(u[i])), replace(out, stats=stats))
    stats.subproblems += 1
    x = interior_solution(instance)
    if x is not None:
        return SolveOutcome(status=OPTIMAL, x=x, stats=stats)
    d = find_recession_direction(instance)
    ray = Ray(direction=d) if d is not None else None
    return SolveOutcome(status=UNBOUNDED, ray=ray, stats=stats,
                        reason="no bound certificate and the stationary system is infeasible")


def solve_sbar_n1(instance: QpInstance, *, check: bool = False) -> SolveOutcome:
    """Driver for matrices one level beyond comparison-psd: :func:`solve_sbar_nk` at k=1."""
    return solve_sbar_nk(instance, 1, check=check)


def solve_sbar_nk(instance: QpInstance, k: int, *, check: bool = False) -> SolveOutcome:
    """Recursive driver for the k-weakly quasi-diagonally dominant class.

    Every irreducible block is at level k or below.  A comparison-psd
    block goes to the pivoting driver; any other block fixes one
    variable at each bound and solves those subproblems one level down,
    where k=0 is :func:`solve_sbar`.
    """
    if k > K_CAP:
        raise RecursionCapExceeded(f"k={k} exceeds the recursion cap {K_CAP}")
    if k <= 0:
        return solve_sbar(instance, check=check)
    if check and not is_sbar_nk(instance.m, k):
        raise ClassificationFailed(f"matrix is not in the k={k} weakly dominant class")

    def solve_block(block: QpInstance) -> SolveOutcome:
        if is_in_sbar_plus(block.m):
            return solve_sbar(block, check=False)
        return _fixing_driver(block, lambda sub: solve_sbar_nk(sub, k - 1))

    return _finish(instance, _solve_blocks(instance, irreducible_components(instance.m), solve_block))
