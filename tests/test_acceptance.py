"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line when its criterion holds; a failed
assertion marks the criterion (and the build) red.  Tolerances are
pinned here and match the module contracts.
"""

import time

import numpy as np
import pytest

from pppa import (FactorState, GenSpec, QpInstance, SymMatrix,
                  comparison_matrix, enumerate_active_sets, factor_update,
                  find_dominance_vector, build_parametric_vector,
                  gen_sbar_nk, gen_sbar_random, gen_tridiagonal,
                  irreducible_components, is_in_sbar_plus, is_psd,
                  kkt_residual, recession_check, reduce_nonpositive_row,
                  schur_complement, solve_sbar, solve_sbar_n1)
from pppa.errors import GenerationFailed, IterationCap

from helpers import dyadic_laplacian, random_pd, random_sbar, random_symmetric, \
    random_tridiagonal_sym


def _report(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS", flush=True)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    count = 0
    for idx in range(500):
        n = 2 + idx % 7
        family = "sbar_random" if idx % 2 == 0 else "tridiagonal"
        spec = GenSpec(family=family, n=n, rho=0.4, seed=10_000 + idx)
        inst = gen_sbar_random(spec) if family == "sbar_random" else gen_tridiagonal(spec)
        assert np.all(np.isfinite(inst.u))
        out = solve_sbar(inst, check=False)
        ref = enumerate_active_sets(inst)
        assert out.status == ref.status == "optimal", (idx, out.status, ref.status)
        assert abs(out.objective - ref.objective) <= 1e-8 * (1 + abs(ref.objective)), idx
        assert kkt_residual(inst, out.x) <= 1e-8, idx
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 500
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "oracle equivalence, 500 instances")


def test_criterion_2_pivot_bound():
    plan = [(10, 0.5, 700), (50, 0.25, 200), (200, 0.15, 100)]
    solved = 0
    for n, rho, target in plan:
        accepted = 0
        seed = 0
        while accepted < target:
            seed += 1
            inst = gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=rho,
                                           seed=seed * 31 + n))
            if len(irreducible_components(inst.m)) != 1:
                continue
            accepted += 1
            try:
                out = solve_sbar(inst, check=False)
            except IterationCap:
                raise AssertionError(f"IterationCap at n={n}, seed={seed}")
            assert out.status == "optimal"
            assert out.stats.pivots <= 2 * n, (n, seed, out.stats.pivots)
            solved += 1
    assert solved == 1000
    _report(2, "pivot count <= 2n on 1000 irreducible instances")


def test_criterion_3_step_count_linearity():
    start = time.perf_counter()
    sizes = [100, 200, 400, 800, 1600]
    means = []
    for n in sizes:
        pivots = []
        for rep in range(5):
            inst = gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=0.2,
                                           seed=5_000 + 17 * n + rep))
            out = solve_sbar(inst, check=False)
            assert out.status == "optimal"
            pivots.append(out.stats.pivots)
        means.append(np.mean(pivots))
    ns = np.array(sizes, dtype=float)
    y = np.array(means)
    coeffs = np.polyfit(ns, y, 1)
    pred = np.polyval(coeffs, ns)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    elapsed = time.perf_counter() - start
    assert r2 >= 0.9, f"R^2 = {r2:.4f}, means = {means}"
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"
    _report(3, f"step-count linearity R^2 = {r2:.4f}")


def test_criterion_4_tridiagonal_scaling():
    def timed_solve(n, seed):
        inst = gen_tridiagonal(GenSpec(family="tridiagonal", n=n, seed=seed))
        t0 = time.perf_counter()
        out = solve_sbar(inst, check=False)
        dt = time.perf_counter() - t0
        assert out.status == "optimal"
        assert out.stats.max_iter_flops <= 64 * n, \
            f"per-iteration flops {out.stats.max_iter_flops} > 64n at n={n}"
        return dt

    timed_solve(500, 0)  # warm-up
    times = {}
    for n in (1000, 2000, 4000):
        times[n] = min(timed_solve(n, seed) for seed in (1, 2, 3))
    r1 = times[2000] / times[1000]
    r2 = times[4000] / times[2000]
    assert r1 <= 5.0 and r2 <= 5.0, f"time ratios {r1:.2f}, {r2:.2f}"
    _report(4, f"tridiagonal scaling ratios {r1:.2f}, {r2:.2f}; O(n) per-iteration flops")


def test_criterion_5_unboundedness_certificates():
    rng = np.random.default_rng(777)
    confirmed = 0
    while confirmed < 50:
        n = int(rng.integers(3, 9))
        lap = dyadic_laplacian(rng, n)
        if rng.random() < 0.3:
            # reducible variant: embed next to a well-behaved bounded block
            extra = random_sbar(rng, int(rng.integers(1, 4)))
            a = np.zeros((n + extra.n, n + extra.n))
            a[:n, :n] = lap.full()
            a[n:, n:] = extra.full()
            m = SymMatrix.from_dense(a)
            q = np.concatenate([rng.uniform(-3, 3, size=n), rng.uniform(-1, 1, size=extra.n)])
            q[:n] -= (q[:n].sum() + 1.0) / n  # q' 1 = -1 on the singular block
            u = np.full(n + extra.n, np.inf)
            inst = QpInstance(m, q, u)
        else:
            q = rng.uniform(-3, 3, size=n)
            q -= (q.sum() + 1.0) / n
            inst = QpInstance(lap, q, np.full(n, np.inf))
        out = solve_sbar(inst)
        assert out.status == "unbounded", out.status
        assert out.ray is not None and recession_check(inst, out.ray)
        if inst.n <= 8:
            assert enumerate_active_sets(inst).status == "unbounded"
        confirmed += 1
    _report(5, "50 unbounded instances with validated certificates")


def test_criterion_6_reduction_soundness():
    rng = np.random.default_rng(4242)
    solved = 0
    while solved < 200:
        n = int(rng.integers(4, 10))
        planted = [0] if rng.random() < 0.5 else [0, 1]
        m = dyadic_laplacian(rng, n, flip_edges_from=planted)
        q = rng.uniform(0.5, 4.0, size=n)
        u = np.full(n, np.inf)
        u[n - 1] = rng.uniform(1.0, 3.0)  # bounded: kernel support hits a finite bound
        for j, i in enumerate(planted):
            q[i] = -rng.uniform(0.5, 2.0)
            if j % 2 == (solved % 2):
                u[i] = rng.uniform(1.0, 3.0)  # flip variant; else drop variant
        inst = QpInstance(m, q, u)
        assert is_in_sbar_plus(inst.m)

        # The first reduction step keeps the matrix inside the class.
        d = find_dominance_vector(comparison_matrix(m))
        p = build_parametric_vector(m, d)
        assert p[planted[0]] <= 1e-12 * m.scale()
        reduced, _ = reduce_nonpositive_row(inst, p, planted[0])
        assert is_in_sbar_plus(reduced.m)

        out = solve_sbar(inst)
        assert out.status == "optimal"
        assert out.stats.reductions >= 1
        assert np.all(out.x >= -1e-12) and np.all(out.x <= inst.u + 1e-12)
        assert kkt_residual(inst, out.x) <= 1e-8
        solved += 1
    _report(6, "200 planted reductions replay to KKT points")


def test_criterion_7_fixed_variable_driver():
    solved = 0
    seed = 0
    while solved < 100:
        seed += 1
        n = 4 + seed % 4  # 4..7
        try:
            inst = gen_sbar_nk(GenSpec(family="sbar_nk", n=n, rho=0.6, seed=seed, k=1))
        except GenerationFailed:
            continue
        out = solve_sbar_n1(inst)
        ref = enumerate_active_sets(inst)
        assert out.status == ref.status == "optimal", seed
        assert abs(out.objective - ref.objective) <= 1e-8 * (1 + abs(ref.objective)), seed
        assert out.stats.subproblems <= 2 * inst.n + 1, (seed, out.stats.subproblems)
        solved += 1
    # Class members must route to the same answers as the direct driver.
    for seed in range(20):
        inst = gen_sbar_random(GenSpec(family="sbar_random", n=3 + seed % 5, rho=0.5,
                                       seed=90_000 + seed))
        a = solve_sbar_n1(inst)
        b = solve_sbar(inst, check=False)
        assert abs(a.objective - b.objective) <= 1e-8 * (1 + abs(b.objective))
        assert a.stats.subproblems <= 2 * inst.n + 1
    _report(7, "level-1 driver matches the oracle on 100 planted instances")


def test_criterion_8_matrix_theory_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(31337)

    for _ in range(200):  # comparison idempotence, exact
        m = random_symmetric(rng, int(rng.integers(1, 9)), spread=5.0)
        once = comparison_matrix(m)
        assert np.array_equal(once.full(), comparison_matrix(once).full())

    for _ in range(1000):  # quadratic-form bound
        n = int(rng.integers(1, 9))
        m = random_symmetric(rng, n, spread=3.0)
        x = rng.uniform(-4, 4, size=n)
        lhs = x @ m.full() @ x
        rhs = np.abs(x) @ comparison_matrix(m).full() @ np.abs(x)
        assert lhs >= rhs - 1e-12 * (x @ x)

    for _ in range(200):  # Schur determinantal identity on random pd
        n = int(rng.integers(2, 9))
        m = random_pd(rng, n)
        alpha = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        det_m = np.linalg.det(m.full())
        det_a = np.linalg.det(m.full()[np.ix_(sorted(alpha), sorted(alpha))])
        det_s = np.linalg.det(schur_complement(m, alpha).full())
        assert abs(det_m - det_a * det_s) <= 1e-9 * abs(det_m)

    for _ in range(200):  # Schur-complement comparison psd-ness
        n = int(rng.integers(2, 9))
        m = random_sbar(rng, n)
        alpha = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        s = schur_complement(m, alpha)
        assert np.linalg.eigvalsh(comparison_matrix(s).full()).min() >= -1e-9

    for _ in range(200):  # tridiagonal psd iff comparison psd
        n = int(rng.integers(1, 12))
        m = random_tridiagonal_sym(rng, n, dominant=bool(rng.integers(0, 2)))
        assert is_psd(m) == is_psd(comparison_matrix(m))

    for _ in range(200):  # sum closure of the comparison-psd class
        n = int(rng.integers(1, 9))
        total = SymMatrix.from_dense(random_sbar(rng, n).full() + random_sbar(rng, n).full())
        assert is_in_sbar_plus(total)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.1f}s"
    _report(8, "matrix-theory invariant suite")


def test_criterion_9_incremental_factor_walks():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        m = random_pd(rng, n)
        a = m.full()
        factor = FactorState.for_alpha(m, [])
        inside = []
        for _ in range(2 * n):
            if inside and (len(inside) == n or rng.random() < 0.45):
                i = inside.pop(int(rng.integers(0, len(inside))))
                factor = factor_update(factor, i, "remove")
            else:
                free = [j for j in range(n) if j not in inside]
                i = free[int(rng.integers(0, len(free)))]
                factor = factor_update(factor, i, "add")
                inside.append(i)
            if factor.alpha:
                block = a[np.ix_(factor.alpha, factor.alpha)]
                err = np.max(np.abs(factor.inv - np.linalg.inv(block)))
                assert err <= 1e-9 * max(np.linalg.cond(block), 1.0)
    _report(9, "100 incremental factor walks match from-scratch inverses")
