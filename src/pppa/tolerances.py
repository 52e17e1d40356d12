"""Numeric tolerances used throughout the solver.

All thresholds are relative; they get multiplied by a scale factor
(max absolute diagonal entry of the matrix at hand) before use.
The KKT/certificate tolerance may be overridden per process through
the PPPA_TOL environment variable, or per call through function
arguments; the linear-algebra thresholds are fixed.
"""

import math
import os

import numpy as np

# Nonsingularity / zero-Schur-diagonal threshold (times scale).
TOL_PIVOT = 1e-10

# Positive-semidefiniteness slack for pivoted Cholesky (times scale).
TOL_PSD = 1e-9

# Residual threshold that forces a factor refresh (times scale).
TOL_FACTOR = 1e-8

# Default KKT / certificate tolerance (times 1 + ||q||_inf).
TOL_KKT = 1e-8

# Ratio-test positivity threshold (times ||pbar||_inf).
TOL_RATIO = 1e-12

# Kernel decision residual in dominance-vector search (times scale).
TOL_KERNEL = 1e-8

# Strict positivity threshold for dominance vectors.
TOL_D_POSITIVE = 1e-12

# Path-end threshold (times max(1, first critical tau)): a ratio test whose
# critical tau is at or below it ends the path at tau = 0.
TOL_TAU_OPTIMAL = 1e-12

# Recession-ray cleanup: components within this (times max(1, ||d||_inf))
# of zero are set to zero.
TOL_RAY_ZERO = 1e-14

# Recession-ray cleanup: negative components above -TOL_RAY_NEGATIVE
# (absolute) are roundoff and set to zero, which keeps the ray feasible.
TOL_RAY_NEGATIVE = 1e-10

# Lifting a ray through a drop or flip step: a lifted component within this
# (times max(1, ||d||_inf)) below zero, or of the flipped coordinate, is
# roundoff and set to zero.
TOL_LIFT_RAY = 1e-9

# A zero-diagonal variable's off-diagonal row must vanish to this (times scale).
TOL_ZERO_ROW = 1e-8

# Absolute floor of the eigenvalue threshold that picks a kernel basis.
TOL_KERNEL_FLOOR = 1e-12

# Default slack of the two-variable Fourier-Motzkin feasibility check.
TOL_FM = 1e-9

_SCALE_FLOOR = 1e-30


def kkt_threshold(q, tol: float = TOL_KKT) -> float:
    """``tol`` times 1 + ||q||_inf: the KKT and certificate threshold of a problem with cost q."""
    return tol * (1.0 + float(np.max(np.abs(q), initial=0.0)))


def default_kkt_tol() -> float:
    """KKT tolerance honoring the PPPA_TOL environment override."""
    raw = os.environ.get("PPPA_TOL")
    if raw is None:
        return TOL_KKT
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # Written so that NaN fails it too.
    if not 0.0 < value < math.inf:
        raise ValueError(f"PPPA_TOL must be a positive finite number, got {raw!r}")
    return value
