"""Command-line front end: solve, classify, generate, verify, bench.

Exit codes: 0 solved to optimality, 2 unbounded, 1 error, 64 usage.
The PPPA_TOL environment variable (or --tol) overrides the default
KKT/certificate tolerance used for reporting and verification.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import re
import sys
import time

import numpy as np

from .classify import classify
from .errors import PppaError
from .generate import GENERATOR_ID, GenSpec, generate
from .oracle import ORACLE_MAX_N, enumerate_active_sets, kkt_residual, recession_check
from .pivoting import OPTIMAL, UNBOUNDED, QpInstance, SolveOutcome, solve_pd
from .qpb import load_qpb, save_qpb
from .reductions import solve_sbar, solve_sbar_nk
from .tolerances import default_kkt_tol

EXIT_OPTIMAL = 0
EXIT_ERROR = 1
EXIT_UNBOUNDED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _method(text: str):
    """``(name, level)``: the class level a method solves at; ``auto`` and ``pd`` carry None."""
    if re.fullmatch(r"sbark=\d+", text):
        return ("sbark", int(text.split("=")[1]))
    levels = {"auto": None, "pd": None, "psd": 0, "sbar": 0, "sbar1": 1}
    if text in levels:
        return (text, levels[text])
    raise argparse.ArgumentTypeError(
        f"unknown method {text!r}; expected auto|pd|psd|sbar|sbar1|sbark=K")


def _solve_with_method(instance: QpInstance, method) -> SolveOutcome:
    name, k = method
    if name == "pd":
        report = classify(instance.m, k_max=0)
        if not (report.is_pd and report.is_sbar_plus and report.p is not None):
            raise PppaError("method pd requires a positive definite comparison-psd matrix")
        return solve_pd(instance, report.p)
    if name == "auto":
        # Route by the smallest verified class level.
        report = classify(instance.m, k_max=2)
        k = report.k_level
        if k is None:
            raise PppaError("classification_failed: matrix is outside the supported classes "
                            f"(psd={str(report.is_psd).lower()}, comparison_psd="
                            f"{str(report.is_sbar_plus).lower()})")
    return solve_sbar_nk(instance, k, check=name == "psd")


def _outcome_line(out: SolveOutcome) -> str:
    parts = [f"status={out.status}"]
    if out.objective is not None:
        parts.append(f"objective={_fmt(out.objective)}")
    parts.append(f"pivots={out.stats.pivots}")
    parts.append(f"two_by_two_pivots={out.stats.two_by_two}")
    return " ".join(parts)


def _cmd_solve(args) -> int:
    instance, _ = load_qpb(args.file)
    tol = args.tol if args.tol is not None else default_kkt_tol()
    out = _solve_with_method(instance, args.method)
    line = _outcome_line(out)
    residual_ok = True
    if out.status == OPTIMAL:
        residual = kkt_residual(instance, out.x)
        residual_ok = residual <= tol * (1.0 + float(np.max(np.abs(instance.q), initial=0.0)))
        line += f" kkt_residual={residual:.3e}"
    vector = None
    label = None
    if out.status == OPTIMAL:
        vector, label = out.x, "x"
    elif out.status == UNBOUNDED and out.ray is not None:
        vector, label = out.ray.direction, "ray"
    if vector is not None:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(_fmt(v) for v in vector) + "\n")
            print(line)
        else:
            print(f"{line} {label}=" + ",".join(_fmt(v) for v in vector))
    else:
        print(line)
    if out.status == OPTIMAL:
        if not residual_ok:
            print("reason=kkt_residual_above_tolerance", file=sys.stderr)
            return EXIT_ERROR
        return EXIT_OPTIMAL
    if out.status == UNBOUNDED:
        return EXIT_UNBOUNDED
    print(f"reason={out.reason}", file=sys.stderr)
    return EXIT_ERROR


def _bool(v) -> str:
    return str(bool(v)).lower()


def _cmd_classify(args) -> int:
    instance, _ = load_qpb(args.file)
    report = classify(instance.m, k_max=args.k_max)
    print(f"n={instance.n}")
    print(f"is_symmetric={_bool(report.is_symmetric)}")
    print(f"is_z={_bool(report.is_z)}")
    print(f"is_psd={_bool(report.is_psd)}")
    print(f"is_pd={_bool(report.is_pd)}")
    print(f"is_sbar_plus={_bool(report.is_sbar_plus)}")
    print(f"is_irreducible={_bool(report.is_irreducible)}")
    print("blocks=" + ";".join(",".join(str(i + 1) for i in blk) for blk in report.blocks))
    print(f"k_level={report.k_level if report.k_level is not None else 'unknown'}")
    if report.d is not None:
        print("d=" + ",".join(_fmt(v) for v in report.d))
    if report.p is not None:
        print("p=" + ",".join(_fmt(v) for v in report.p))
    return EXIT_OPTIMAL


def _cmd_generate(args) -> int:
    spec = GenSpec(family=args.family, n=args.n, rho=args.rho, seed=args.seed, k=args.k)
    instance = generate(spec)
    header = {"family": spec.family, "seed": spec.seed, "rho": spec.rho,
              "generator-id": GENERATOR_ID}
    save_qpb(args.out, instance, header)
    print(f"wrote {args.out} (n={instance.n}, family={spec.family}, seed={spec.seed})")
    return EXIT_OPTIMAL


def _cmd_verify(args) -> int:
    instance, _ = load_qpb(args.file)
    tol = args.tol if args.tol is not None else default_kkt_tol()
    out = _solve_with_method(instance, args.method)
    print(f"status={out.status}")
    ok = True
    if out.status == OPTIMAL:
        residual = kkt_residual(instance, out.x)
        bound = tol * (1.0 + float(np.max(np.abs(instance.q), initial=0.0)))
        print(f"objective={_fmt(out.objective)}")
        print(f"kkt_residual={residual:.3e}")
        print(f"kkt_ok={_bool(residual <= bound)}")
        ok &= residual <= bound
    elif out.status == UNBOUNDED:
        valid = out.ray is not None and recession_check(instance, out.ray, tol)
        print(f"certificate_ok={_bool(valid)}")
        ok &= valid
    if args.oracle:
        if instance.n > ORACLE_MAX_N:
            print(f"oracle=skipped (n > {ORACLE_MAX_N})")
        else:
            ref = enumerate_active_sets(instance)
            print(f"oracle_status={ref.status}")
            agree = ref.status == out.status
            if agree and out.status == OPTIMAL:
                gap = abs(ref.objective - out.objective)
                agree = gap <= 1e-8 * (1.0 + abs(ref.objective))
                print(f"oracle_objective={_fmt(ref.objective)}")
            print(f"oracle_agrees={_bool(agree)}")
            ok &= agree
    if not ok:
        return EXIT_ERROR
    return EXIT_OPTIMAL if out.status == OPTIMAL else EXIT_UNBOUNDED


def _bench_task(task) -> dict:
    family, n, rho, seed, k = task
    spec = GenSpec(family=family, n=n, rho=rho, seed=seed, k=k)
    instance = generate(spec)
    start = time.perf_counter()
    out = solve_sbar(instance, check=False)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    residual = ""
    if out.status == OPTIMAL:
        residual = f"{kkt_residual(instance, out.x):.3e}"
    return {
        "n": n,
        "rho": rho,
        "seed": seed,
        "status": out.status,
        "pivots": out.stats.pivots,
        "two_by_two_pivots": out.stats.two_by_two,
        "time_ms": f"{elapsed_ms:.3f}",
        "kkt_residual": residual,
    }


CSV_COLUMNS = ["n", "rho", "seed", "status", "pivots", "two_by_two_pivots",
               "time_ms", "kkt_residual"]


def _cmd_bench(args) -> int:
    n_list = [int(t) for t in args.n_list.split(",") if t]
    rho_list = [float(t) for t in args.rho_list.split(",") if t]
    tasks = []
    idx = 0
    for n in n_list:
        for rho in rho_list:
            for _ in range(args.reps):
                tasks.append((args.family, n, rho, args.seed + idx, args.k))
                idx += 1
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.csv} ({len(rows)} rows)")
    return EXIT_OPTIMAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pppa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a QPB instance")
    p.add_argument("file")
    p.add_argument("--method", type=_method, default=("auto", None))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None, help="write the solution vector to this file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", help="print the class report of an instance")
    p.add_argument("file")
    p.add_argument("--k-max", type=int, default=2)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="generate a seeded random instance")
    p.add_argument("--family", required=True, choices=("sbar_random", "tridiagonal", "sbar_nk"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="solve and check KKT residual / certificates")
    p.add_argument("file")
    p.add_argument("--method", type=_method, default=("auto", None))
    p.add_argument("--oracle", action="store_true",
                   help=f"cross-check against the enumeration oracle (n <= {ORACLE_MAX_N})")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="timing/step-count harness, CSV output")
    p.add_argument("--family", required=True, choices=("sbar_random", "tridiagonal", "sbar_nk"))
    p.add_argument("--n-list", required=True)
    p.add_argument("--rho-list", default="0.2")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except PppaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
