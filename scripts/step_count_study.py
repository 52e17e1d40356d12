#!/usr/bin/env python3
"""Step-count study: mean pivot count of the solver as n grows.

Generates seeded random comparison-psd instances at fixed density,
solves each, and fits pivots ~ a*n + b.  A strongly linear fit is the
empirical signature of the 2n pivot bound.

For each n it also prints the dense pivot loop's cost, the counterpart
of ``tridiagonal_scaling.py``: the best time per pivot of ``solve_psd``
with the class construction's direction, and the mean size of the basic
set alpha over its pivots (a dense pivot costs O(n |alpha|) work).

Example:
    python scripts/step_count_study.py --n-list 100,200,400,800,1600 \
        --rho 0.2 --reps 5 --csv steps.csv
"""

import argparse
import csv
import math
import sys
import time

import numpy as np

from pppa import (GenSpec, blockwise_dominance_vector, build_parametric_vector,
                  gen_sbar_random, irreducible_components, solve_psd, solve_sbar)
from pppa.pivoting import ALPHA


def _count(text: str) -> int:
    """A positive integer, as an argparse type."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _counts(text: str) -> list:
    """A non-empty comma-separated list of positive integers, as an argparse type."""
    try:
        values = [_count(t) for t in text.split(",") if t]
    except argparse.ArgumentTypeError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of positive integers, got {text!r}")
    return values


def _pivot_loop(inst) -> tuple[float, float]:
    """(best of three seconds per pivot, mean |alpha| at the ratio tests) of ``solve_psd`` on ``inst``."""
    m = inst.m
    p = build_parametric_vector(m, blockwise_dominance_vector(m, irreducible_components(m)))
    sizes = []
    out = solve_psd(inst, p, callback=lambda state, tau, decision: sizes.append(
        int(np.count_nonzero(state.partition.labels == ALPHA))))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        solve_psd(inst, p)
        best = min(best, time.perf_counter() - t0)
    return best / max(out.stats.pivots, 1), float(np.mean(sizes))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-list", type=_counts, default="100,200,400,800,1600")
    ap.add_argument("--rho", type=float, default=0.2)
    ap.add_argument("--reps", type=_count, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None, help="optionally write per-run rows")
    args = ap.parse_args(argv)
    sizes = args.n_list
    if len(set(sizes)) < 2:
        ap.error("--n-list needs two different sizes to fit a line")
    rows = []
    means = []
    for n in sizes:
        pivots, per_pivot, alpha = [], [], []
        for rep in range(args.reps):
            seed = args.seed + 17 * n + rep
            inst = gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=args.rho,
                                           seed=seed))
            t0 = time.perf_counter()
            out = solve_sbar(inst, check=False)
            dt = (time.perf_counter() - t0) * 1e3
            pivots.append(out.stats.pivots)
            unit, mean_alpha = _pivot_loop(inst)
            per_pivot.append(unit)
            alpha.append(mean_alpha)
            rows.append({"n": n, "rho": args.rho, "seed": seed, "pivots": out.stats.pivots,
                         "two_by_two_pivots": out.stats.two_by_two,
                         "time_ms": f"{dt:.3f}", "us_per_pivot": f"{unit * 1e6:.1f}",
                         "mean_alpha": f"{mean_alpha:.1f}"})
        means.append(float(np.mean(pivots)))
        print(f"n={n:6d}  mean pivots={means[-1]:9.1f}  "
              f"min={min(pivots)}  max={max(pivots)}  "
              f"us/pivot={min(per_pivot) * 1e6:7.1f}  mean |alpha|={np.mean(alpha):7.1f}")

    ns = np.array(sizes, dtype=float)
    y = np.array(means)
    slope, intercept = np.polyfit(ns, y, 1)
    pred = slope * ns + intercept
    r2 = 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))
    print(f"\nfit: pivots ~ {slope:.4f} * n + {intercept:.1f}   (R^2 = {r2:.4f})")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
