"""Seeded instance sets for the benchmark workloads.

Every instance is a function of the workload seed alone, so the same
seed gives the same QPB files.  Each case carries the status it must
reach by construction: finite boxes are always optimal, and the
Laplacian cases with infinite bounds and q'1 < 0 are always unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pppa import QpInstance, SymMatrix, is_in_sbar_plus, is_sbar_nk
from pppa.errors import GenerationFailed
from pppa.generate import GenSpec, gen_sbar_nk, generate

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
SMALL_COPIES = 3


@dataclass(frozen=True)
class Case:
    """One QPB instance, the CLI method that solves it and the status it must reach."""

    label: str
    instance: QpInstance
    method: str
    expected: str


def _sub_seed(seed: int, k: int) -> int:
    return seed * 1009 + k


def _family(family: str, n: int, seed: int, method: str, rho: float = 0.2) -> Case:
    inst = generate(GenSpec(family=family, n=n, rho=rho, seed=seed))
    return Case(f"{family}-n{n}", inst, method, OPTIMAL)


def _planted_nk(n: int, k: int, seed: int) -> Case:
    # The planted generator gives up on some seeds; the retry sequence
    # depends on the seed only, so the instance stays reproducible.
    for attempt in range(50):
        try:
            inst = gen_sbar_nk(GenSpec(family="sbar_nk", n=n, rho=0.6,
                                       seed=seed + 7 * attempt, k=k))
            return Case(f"sbar_nk-k{k}-n{n}", inst, "auto", OPTIMAL)
        except GenerationFailed:
            continue
    raise GenerationFailed(f"no planted k={k} n={n} instance near seed {seed}")


def _laplacian(rng: np.random.Generator, n: int, protected=()) -> np.ndarray:
    """Dyadic complete-graph Laplacian; edges away from ``protected`` may turn positive."""
    w = rng.integers(1, 9, size=(n, n)) / 8.0
    a = -(np.tril(w, -1) + np.tril(w, -1).T)
    np.fill_diagonal(a, -a.sum(axis=1))
    for i in range(n):
        for j in range(i):
            if i not in protected and j not in protected and rng.random() < 0.5:
                a[i, j] = a[j, i] = -a[i, j]
    return a


def _with_isolated(a: np.ndarray, q: np.ndarray, u: np.ndarray, q_i: float, u_i: float):
    """Append a variable with an all-zero row (the zero-diagonal reduction)."""
    n = a.shape[0]
    b = np.zeros((n + 1, n + 1))
    b[:n, :n] = a
    return b, np.append(q, q_i), np.append(u, u_i)


def _unbounded_laplacian(rng: np.random.Generator, n: int, variant: int) -> Case:
    a = _laplacian(rng, n, protected=range(n))
    q = rng.uniform(-3.0, 3.0, size=n)
    q -= (q.sum() + 1.0) / n              # q'1 = -1 along the kernel vector
    u = np.full(n, np.inf)
    if variant == 1:
        # A positive definite block next to the singular one.
        k = int(rng.integers(1, 4))
        off = np.tril(rng.uniform(-1.0, 1.0, size=(k, k)), -1)
        extra = off + off.T
        np.fill_diagonal(extra, np.abs(extra).sum(axis=1) + rng.uniform(0.1, 1.0, size=k))
        b = np.zeros((n + k, n + k))
        b[:n, :n] = a
        b[n:, n:] = extra
        a, q, u = b, np.concatenate([q, rng.uniform(-1.0, 1.0, size=k)]), np.full(n + k, np.inf)
    elif variant == 2:
        a, q, u = _with_isolated(a, q, u, -rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0))
    inst = QpInstance(SymMatrix.from_dense(a), q, u)
    return Case(f"laplacian-unbounded-v{variant}", inst, "auto", UNBOUNDED)


def _planted_reduction(rng: np.random.Generator, n: int, flip: bool, isolated: bool) -> Case:
    """Blocked parametric start: p_i = 0 with q_i < 0 forces a drop (u_i = inf) or a flip."""
    planted = [0] if rng.random() < 0.5 else [0, 1]
    a = _laplacian(rng, n, protected=planted)
    q = rng.uniform(0.5, 4.0, size=n)
    u = np.full(n, np.inf)
    u[n - 1] = rng.uniform(1.0, 3.0)      # the kernel direction meets a finite bound
    for j, i in enumerate(planted):
        q[i] = -rng.uniform(0.5, 2.0)
        if (j % 2 == 0) == flip:
            u[i] = rng.uniform(1.0, 3.0)
    if isolated:
        a, q, u = _with_isolated(a, q, u, rng.uniform(0.5, 2.0), np.inf)
    inst = QpInstance(SymMatrix.from_dense(a), q, u)
    kind = "flip" if flip else "drop"
    return Case(f"planted-{kind}{'-zero' if isolated else ''}", inst, "auto", OPTIMAL)


def _interior_nk(n: int, k: int, seed: int, rng: np.random.Generator) -> Case:
    """Planted level-k matrix with q = -M x*, x* > 0 and no upper bounds.

    No bound-fixed subproblem certifies optimality, so the fixing driver
    runs every subproblem and ends in ``interior_solution``.
    """
    m = _planted_nk(n, k, seed).instance.m
    q = -m.matvec(rng.uniform(0.5, 2.0, size=n))
    inst = QpInstance(m, q, np.full(n, np.inf))
    return Case(f"sbar_nk-interior-k{k}-n{n}", inst, "auto", OPTIMAL)


def _unbounded_level1(rng: np.random.Generator, n: int) -> Case:
    """Laplacian plus a rank-one bump v v' with v'1 = 0, just past comparison-psd.

    The all-ones kernel vector survives the bump, so with infinite bounds
    and q'1 < 0 the fixing driver ends in ``find_recession_direction``.
    """
    for _ in range(100):
        base = _laplacian(rng, n, protected=range(n))
        v = rng.uniform(-1.0, 1.0, size=n)
        v -= v.mean()
        eps = 0.125 * float(np.max(np.diag(base))) / float(np.max(np.abs(v))) ** 2
        for _ in range(40):
            m = SymMatrix.from_dense(base + eps * np.outer(v, v))
            if not is_in_sbar_plus(m):
                if is_sbar_nk(m, 1):
                    q = rng.uniform(-3.0, 3.0, size=n)
                    q -= (q.sum() + 1.0) / n
                    inst = QpInstance(m, q, np.full(n, np.inf))
                    return Case("laplacian-bump-unbounded", inst, "auto", UNBOUNDED)
                break
            eps *= 2.0
    raise GenerationFailed("no level-1 Laplacian bump found in 100 draws")


def _small_mix(seed: int) -> list[Case]:
    # Sizes are fixed and only the entries depend on the seed, so the cost of
    # a mix varies little between seeds.  Interior-optimum level-2 cases are
    # left out: their subproblem count, and so their cost, varied 2-5x
    # between seeds, which alone moved a pass's time by a tenth.
    rng = np.random.Generator(np.random.PCG64(_sub_seed(seed, 0)))
    cases = []
    for k in (1, 2):
        # The oracle cross-check enumerates 3^n active sets (1.3 s at n = 9 for
        # a planted box), so only n = 8 of the finite boxes is checked by it.
        for n in (8, 11, 12):
            cases.append(_planted_nk(n, k, _sub_seed(seed, 100 + 10 * k + n)))
    for n in (8, 9, 10):
        cases.append(_interior_nk(n, 1, _sub_seed(seed, 160 + n), rng))
    cases += [_unbounded_level1(rng, n) for n in (4, 5, 6, 7, 8, 5, 6, 7)]
    cases += [_unbounded_laplacian(rng, 3 + v % 6, v % 3) for v in range(18)]
    cases += [_planted_reduction(rng, 4 + v % 6, flip=bool(v % 2), isolated=v % 4 == 3)
              for v in range(20)]
    for v, n in enumerate((6, 12, 18, 24, 30, 36, 42, 48, 54, 60) * 2):
        cases.append(_family("sbar_random", n, _sub_seed(seed, 200 + v), "auto", rho=0.3))
    return cases


def build(name: str, seed: int, shrink: int = 1) -> list[Case]:
    """The case list of workload ``name``; ``shrink`` divides the large sizes (smoke runs)."""
    # Solve times differ between instances by several percent (their pivot
    # counts do), so each run solves several instances of the family.  Sizes
    # are chosen so that a run of 20 s holds 25-40 solves: a median of the
    # 5-10 solves that fit at twice these sizes moved by a quarter between
    # runs on a shared 2-core host.
    if name == "dense_sbar":
        return [_family("sbar_random", 600 // shrink, _sub_seed(seed, k), "sbar")
                for k in range(6)]
    if name == "tridiag_sbar":
        return [_family("tridiagonal", 2000 // shrink, _sub_seed(seed, k), "sbar")
                for k in range(6)]
    if name == "auto_default":
        # 2:1 dense to tridiagonal puts the median solve in the dense mode.
        families = ("sbar_random", "tridiagonal", "sbar_random") * 2
        return [_family(f, (400 if f == "sbar_random" else 600) // shrink,
                        _sub_seed(seed, k), "auto") for k, f in enumerate(families)]
    if name == "small_mixed":
        # Three mixes from three sub-seeds: the slow members of one mix vary
        # with the seed, and the 95th percentile over instances needs at
        # least ten instances above it.
        return [case for copy in range(max(1, SMALL_COPIES // shrink))
                for case in _small_mix(_sub_seed(seed, 300 + copy))]
    raise ValueError(f"unknown workload {name!r}")
