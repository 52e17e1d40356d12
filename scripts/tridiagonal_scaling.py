#!/usr/bin/env python3
"""Timing study for the tridiagonal fast path.

A solve makes about n pivots.  Each pivot re-solves a window of a few
entries in Python floats and makes two O(n) selection passes in numpy,
one argmax per candidate array (pbar is scanned again only when a
window covers its largest entry), so the time per pivot is nearly flat
up to n of several thousand (the doubling ratio t(2n)/t(n) sits nearer
2 than 4) and grows linearly beyond, which makes the total quadratic in
the limit.  The script prints, for each n, the best solve time and the
time per pivot, and the ratio of the per-pivot times at the largest and
the smallest n.

Example:
    python scripts/tridiagonal_scaling.py --n-list 1000,2000,4000 --reps 3
"""

import argparse
import sys
import time

from pppa import GenSpec, gen_tridiagonal, solve_sbar


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-list", type=_counts, default="1000,2000,4000")
    ap.add_argument("--reps", type=_count, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    sizes = args.n_list
    solve_sbar(gen_tridiagonal(GenSpec(family="tridiagonal", n=200, seed=0)),
               check=False)  # warm-up
    best, per_pivot = {}, {}
    for n in sizes:
        times, unit = [], []
        pivots = flops = 0
        for rep in range(args.reps):
            inst = gen_tridiagonal(GenSpec(family="tridiagonal", n=n,
                                           seed=args.seed + rep + 1))
            t0 = time.perf_counter()
            out = solve_sbar(inst, check=False)
            times.append(time.perf_counter() - t0)
            pivots = out.stats.pivots
            flops = out.stats.max_iter_flops
            unit.append(times[-1] / max(pivots, 1))
        best[n], per_pivot[n] = min(times), min(unit)
        print(f"n={n:6d}  best={best[n]*1e3:9.2f} ms  pivots={pivots}  "
              f"us/pivot={per_pivot[n]*1e6:7.1f}  max per-iteration flops/n={flops / n:.1f}")
    for small, large in zip(sizes, sizes[1:]):
        if large == 2 * small:
            print(f"t({large})/t({small}) = {best[large] / best[small]:.2f}")
    if len(per_pivot) > 1:
        small, large = min(per_pivot), max(per_pivot)
        print(f"us/pivot at n={large} / n={small} = {per_pivot[large] / per_pivot[small]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
