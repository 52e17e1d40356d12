"""Seeded random instance generation.

The random family draws a symmetric uniform matrix, masks the
off-diagonal with Bernoulli(rho) sparsity, and sets each diagonal to
|R_ii| plus the absolute off-diagonal row sum, which makes the
comparison matrix diagonally dominant (with the all-ones vector) and
hence guarantees class membership.  Generation is bit-reproducible:
one PCG64 stream per instance, consumed in a documented order.

Stream order (generator id "pcg64-rowmajor-v1"):
  sbar_random:  R lower triangle row-major incl. diagonal ~ U(-0.5, 0.5);
                P lower strict triangle row-major, 1{u < rho} with
                u ~ U(0, 1);  q ~ U(-500, 500).
  tridiagonal:  diagonal draws R_ii ~ U(-0.5, 0.5); super-diagonal
                ~ U(-0.5, 0.5) redrawn while |value| <= 1e-6;
                q ~ U(-500, 500).
  sbar_nk:      one sbar_random block per attempt, then a mixed-sign
                direction v ~ U(-1, 1)^n per attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import is_in_sbar_plus, is_sbar_nk
from .errors import GenerationFailed, InvalidSpec
from .matrices import SymMatrix
from .pivoting import QpInstance

GENERATOR_ID = "pcg64-rowmajor-v1"
FAMILIES = ("sbar_random", "tridiagonal", "sbar_nk")
SBAR_NK_ATTEMPTS = 100


@dataclass(frozen=True)
class GenSpec:
    """Instance recipe: family, size, density, seed (and k for sbar_nk)."""

    family: str
    n: int
    rho: float = 0.2
    seed: int = 0
    k: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise InvalidSpec("n must be at least 1")
        if not (0.0 < self.rho < 1.0):
            raise InvalidSpec("rho must lie strictly between 0 and 1")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _draw_q(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-500.0, 500.0, size=n)


def gen_sbar_random(spec: GenSpec) -> QpInstance:
    """Dense random comparison-psd instance with u_i = 100/sqrt(n)."""
    n, rho = spec.n, spec.rho
    rng = _rng(spec.seed)
    rows, cols = np.tril_indices(n)        # row-major over the lower triangle
    r_vals = rng.uniform(-0.5, 0.5, size=rows.size)
    r = np.zeros((n, n))
    r[rows, cols] = r_vals
    srow, scol = np.tril_indices(n, k=-1)
    p_vals = rng.uniform(0.0, 1.0, size=srow.size) < rho
    mask = np.zeros((n, n), dtype=bool)
    mask[srow, scol] = p_vals
    a = np.where(mask, r, 0.0)
    a = a + a.T
    # Diagonal dominance with d = 1: |R_ii| plus the absolute row sum.
    np.fill_diagonal(a, np.abs(np.diagonal(r)) + np.sum(np.abs(a), axis=1))
    q = _draw_q(rng, n)
    u = np.full(n, 100.0 / np.sqrt(n))
    return QpInstance(SymMatrix.from_dense(a), q, u)


def gen_tridiagonal(spec: GenSpec) -> QpInstance:
    """Irreducible tridiagonal comparison-psd instance."""
    n = spec.n
    rng = _rng(spec.seed)
    r_diag = rng.uniform(-0.5, 0.5, size=n)
    sup = np.empty(max(n - 1, 0))
    for k in range(n - 1):
        value = rng.uniform(-0.5, 0.5)
        while abs(value) <= 1e-6:
            value = rng.uniform(-0.5, 0.5)
        sup[k] = value
    diag = np.abs(r_diag)
    if n > 1:
        diag[:-1] += np.abs(sup)
        diag[1:] += np.abs(sup)
    q = _draw_q(rng, n)
    u = np.full(n, 100.0 / np.sqrt(n))
    return QpInstance(SymMatrix.from_banded(diag, sup), q, u)


def gen_sbar_nk(spec: GenSpec) -> QpInstance:
    """Planted instance beyond the comparison-psd class at level k.

    Adds an increasing rank-one bump eps * v v' with mixed-sign v until
    comparison psd-ness breaks, then keeps the instance when the level-k
    membership (verified exhaustively) still holds.  The bump keeps the
    matrix psd by construction.
    """
    if spec.k == 0:
        return gen_sbar_random(spec)
    if spec.n > 12:
        raise GenerationFailed("planted generation verifies membership exactly; use n <= 12")
    for attempt in range(SBAR_NK_ATTEMPTS):
        sub = GenSpec(family="sbar_random", n=spec.n, rho=spec.rho,
                      seed=spec.seed + 7919 * attempt)
        base = gen_sbar_random(sub)
        rng = _rng(spec.seed + 7919 * attempt + 104729)
        v = rng.uniform(-1.0, 1.0, size=spec.n)
        if np.all(v >= 0) or np.all(v <= 0):
            continue
        a0 = base.m.full()
        eps = 0.125 * base.m.scale() / max(float(np.max(np.abs(v))) ** 2, 1e-12)
        for _ in range(40):
            a = a0 + eps * np.outer(v, v)
            m = SymMatrix.from_dense(a)
            if not is_in_sbar_plus(m):
                if is_sbar_nk(m, spec.k):
                    return QpInstance(m, base.q, base.u)
                break
            eps *= 2.0
    raise GenerationFailed(f"no level-{spec.k} instance found in {SBAR_NK_ATTEMPTS} attempts "
                           f"for seed {spec.seed}; retry with a different seed")


def generate(spec: GenSpec) -> QpInstance:
    if spec.family == "sbar_random":
        return gen_sbar_random(spec)
    if spec.family == "tridiagonal":
        return gen_tridiagonal(spec)
    return gen_sbar_nk(spec)
