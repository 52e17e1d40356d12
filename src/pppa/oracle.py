"""Desk-scale verification: exhaustive enumeration, KKT residuals, ray checks.

The enumeration solver is deliberately independent of the pivoting
path: it tries every assignment of variables to {lower, upper, free},
solves the free block by least squares, and keeps the best KKT point.
It is the reference implementation the randomized test suite compares
against.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import TooLarge
from .pivoting import ERROR, OPTIMAL, UNBOUNDED, QpInstance, SolveOutcome
from .tolerances import TOL_KERNEL_FLOOR, TOL_KKT, TOL_PSD, kkt_threshold

ORACLE_MAX_N = 10


def kkt_residual(instance: QpInstance, x: np.ndarray) -> float:
    """Max violation over bounds, dual feasibility, and complementarity.

    Zero exactly at KKT points of the box-constrained QP.
    """
    x = np.asarray(x, dtype=float)
    u = instance.u
    g = instance.q + instance.m.matvec(x)
    finite = np.isfinite(u)

    viol = 0.0
    if x.size:
        viol = max(viol, float(np.max(-x, initial=0.0)))
        over = x[finite] - u[finite]
        if over.size:
            viol = max(viol, float(np.max(over, initial=0.0)))
        lam = np.where(finite, np.maximum(-g, 0.0), 0.0)
        w = g + lam
        # Dual feasibility: without a finite upper bound the gradient
        # itself must be nonnegative at a KKT point.
        free_neg = -g[~finite]
        if free_neg.size:
            viol = max(viol, float(np.max(free_neg, initial=0.0)))
        comp_lower = np.minimum(np.maximum(x, 0.0), np.maximum(w, 0.0))
        viol = max(viol, float(np.max(comp_lower, initial=0.0)))
        s = np.where(finite, u - x, np.inf)
        comp_upper = np.abs(lam[finite] * s[finite])
        if comp_upper.size:
            viol = max(viol, float(np.max(comp_upper, initial=0.0)))
    return viol


def recession_check(instance: QpInstance, ray: np.ndarray, tol: float = TOL_KKT) -> bool:
    """Validate an unboundedness certificate.

    Requires d >= 0, zero on finitely bounded coordinates, Md ~ 0 and
    q'd decisively negative (all after sup-norm normalization of d).
    """
    d = np.asarray(ray, dtype=float)
    if d.size != instance.n or not np.all(np.isfinite(d)):
        return False
    dmax = float(np.max(np.abs(d), initial=0.0))
    if dmax <= 0.0:
        return False
    d = d / dmax
    if float(np.min(d)) < -tol:
        return False
    finite = np.isfinite(instance.u)
    if np.any(d[finite] > tol):
        return False
    md = instance.m.matvec(d)
    if float(np.max(np.abs(md), initial=0.0)) > tol * max(instance.m.scale(), 1.0):
        return False
    descent = float(instance.q @ d)
    return descent < -kkt_threshold(instance.q, tol)


def find_recession_direction(instance: QpInstance) -> np.ndarray | None:
    """Search the kernel of the unbounded-coordinate block for a descent ray.

    Sufficient for convex QPs over a box: any direction of unbounded
    descent is a nonnegative kernel vector supported on coordinates
    with infinite upper bound.
    """
    free = np.flatnonzero(~np.isfinite(instance.u))
    if free.size == 0:
        return None
    a = instance.m.full()[np.ix_(free, free)]
    scale = max(float(np.max(np.abs(np.diagonal(a)), initial=0.0)), 1e-30)
    vals, vecs = np.linalg.eigh(a)
    kernel = vecs[:, np.abs(vals) <= max(TOL_PSD * scale, TOL_KERNEL_FLOOR)]
    if kernel.shape[1] == 0:
        return None
    # Imported here, its one use: at module level it cost every `pppa` import
    # about 20 MB of memory and 0.2 s, though most solves never reach it.
    import scipy.optimize

    qf = instance.q[free]
    # LP over the kernel: minimize q'd with d >= 0 and sum(d) <= 1.
    c = qf @ kernel
    a_ub = np.vstack([-kernel, np.sum(kernel, axis=0, keepdims=True)])
    b_ub = np.concatenate([np.zeros(kernel.shape[0]), [1.0]])
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub,
                                 bounds=[(None, None)] * kernel.shape[1])
    if not res.success:
        return None
    d_free = kernel @ res.x
    if float(qf @ d_free) >= -TOL_PSD * (1.0 + float(np.max(np.abs(instance.q), initial=0.0))):
        return None
    d = np.zeros(instance.n)
    d[free] = np.maximum(d_free, 0.0)
    return d / float(np.max(d))


def enumerate_active_sets(instance: QpInstance) -> SolveOutcome:
    """Brute-force reference solve for n <= 10.

    Tries all 3^n lower/upper/free assignments, solving each free block
    by least squares and filtering by consistency, bounds, and
    multiplier signs; returns the best-objective KKT point, or an
    unboundedness verdict from the kernel search.
    """
    n = instance.n
    if n > ORACLE_MAX_N:
        raise TooLarge(f"enumeration oracle is limited to n <= {ORACLE_MAX_N}, got {n}")
    if n == 0:
        return SolveOutcome(status=OPTIMAL, x=np.zeros(0), objective=0.0)
    a = instance.m.full()
    q, u = instance.q, instance.u
    qmax = float(np.max(np.abs(q), initial=0.0))
    tol = 1e-9 * (1.0 + qmax + instance.m.scale())

    options = [("lower", "free") if not np.isfinite(u[i]) else ("lower", "upper", "free")
               for i in range(n)]
    best_x = None
    best_obj = np.inf
    for combo in product(*options):
        free = [i for i, tag in enumerate(combo) if tag == "free"]
        x = np.where([tag == "upper" for tag in combo], np.where(np.isfinite(u), u, 0.0), 0.0)
        if free:
            f = np.array(free, dtype=int)
            rhs = -(q[f] + a[f] @ x)
            block = a[np.ix_(f, f)]
            xf, *_ = np.linalg.lstsq(block, rhs, rcond=None)
            if float(np.max(np.abs(block @ xf - rhs), initial=0.0)) > tol:
                continue
            if float(np.min(xf, initial=0.0)) < -tol or np.any(xf - u[f] > tol):
                continue
            x = x.astype(float)
            x[f] = xf
        g = q + a @ x
        ok = True
        for i, tag in enumerate(combo):
            if tag == "lower" and g[i] < -tol:
                ok = False
                break
            if tag == "upper" and g[i] > tol:
                ok = False
                break
        if not ok:
            continue
        obj = instance.objective(x)
        if obj < best_obj:
            best_obj = obj
            best_x = x
    if best_x is not None:
        return SolveOutcome(status=OPTIMAL, x=best_x, objective=best_obj)
    d = find_recession_direction(instance)
    if d is not None:
        return SolveOutcome(status=UNBOUNDED, ray=d)
    return SolveOutcome(status=ERROR, reason="no KKT point and no recession direction found")
