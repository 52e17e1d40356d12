#!/usr/bin/env python3
"""Benchmark of `pppa solve` on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense_sbar --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones taken
by wrapping the pppa modules from outside.  Human-readable lines, and
a report under .perfbench_out/, come before it.  Exit code 2 means
the benchmark could not run (for example, no solver sources under src/).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense_sbar", "tridiag_sbar", "auto_default", "small_mixed")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "pppa" / "__init__.py").is_file():
        print(f"error: no pppa sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One BLAS thread per library: with the default pool of nproc threads a
    # dense n=1000 solve ran about 3x slower whenever another process held a
    # core of the 2-core host, which swamped every other source of spread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import bench  # imports numpy, scipy and pppa; their cost is part of setup_s
    import pppa
    if Path(pppa.__file__).resolve().parent != src / "pppa":
        print(f"error: pppa imported from {pppa.__file__}, not {src}", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       time.perf_counter() - START, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
