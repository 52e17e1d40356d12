"""Command-line front end: solve, classify, generate, verify, bench.

Exit codes: 0 solved to optimality, 2 unbounded, 1 error, 64 usage.
The PPPA_TOL environment variable (or --tol) overrides the default
KKT/certificate tolerance used for reporting and verification.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import math
import re
import sys
import time

from .classify import classify, is_in_sbar_plus
from .errors import PppaError
from .generate import GENERATOR_ID, GenSpec, generate
from .oracle import ORACLE_MAX_N, enumerate_active_sets, recession_check
from .matrices import is_pd
from .pivoting import OPTIMAL, UNBOUNDED, QpInstance, SolveOutcome
from .qpb import load_qpb, save_qpb
from .reductions import solve_sbar_nk
from .tolerances import default_kkt_tol, kkt_threshold

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


def _tol(text: str) -> float:
    """``--tol``: a positive finite number, as ``PPPA_TOL`` must be."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text!r}")
    return value


def _list_of(convert, what: str):
    """An argparse type for a comma-separated list of ``convert`` values."""
    def parse(text: str) -> list:
        try:
            return [convert(t) for t in text.split(",") if t]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {what}, got {text!r}") from None
    return parse


def _method(text: str):
    """``(name, level)``: the class level a method solves at."""
    if re.fullmatch(r"sbark=\d+", text):
        return ("sbark", int(text.split("=")[1]))
    levels = {"auto": 2, "pd": 0, "psd": 0, "sbar": 0, "sbar1": 1}
    if text in levels:
        return (text, levels[text])
    raise argparse.ArgumentTypeError(
        f"unknown method {text!r}; expected auto|pd|psd|sbar|sbar1|sbark=K")


def _solve_with_method(instance: QpInstance, method) -> SolveOutcome:
    name, k = method
    m = instance.m
    if name == "pd" and not (is_pd(m) and is_in_sbar_plus(m)):
        raise PppaError("method pd requires a positive definite comparison-psd matrix")
    return solve_sbar_nk(instance, k, check=name in ("auto", "psd"))


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
    # The solver answers optimal or unbounded with a ray, or raises.
    line = _outcome_line(out)
    if out.status == OPTIMAL:
        line += f" kkt_residual={out.kkt_residual:.3e}"
        vector, label = out.x, "x"
    else:
        vector, label = out.ray, "ray"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(_fmt(v) for v in vector) + "\n")
        print(line)
    else:
        print(f"{line} {label}=" + ",".join(_fmt(v) for v in vector))
    if out.status == UNBOUNDED:
        return EXIT_UNBOUNDED
    if out.kkt_residual > kkt_threshold(instance.q, tol):
        print("reason=kkt_residual_above_tolerance", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OPTIMAL


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
        kkt_ok = out.kkt_residual <= kkt_threshold(instance.q, tol)
        print(f"objective={_fmt(out.objective)}")
        print(f"kkt_residual={out.kkt_residual:.3e}")
        print(f"kkt_ok={_bool(kkt_ok)}")
        ok &= kkt_ok
    elif out.status == UNBOUNDED:
        valid = recession_check(instance, out.ray, tol)
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
    out = solve_sbar_nk(instance, k if family == "sbar_nk" else 0)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return {
        "n": n,
        "rho": rho,
        "seed": seed,
        "status": out.status,
        "pivots": out.stats.pivots,
        "two_by_two_pivots": out.stats.two_by_two,
        "time_ms": f"{elapsed_ms:.3f}",
        "kkt_residual": "" if out.kkt_residual is None else f"{out.kkt_residual:.3e}",
    }


CSV_COLUMNS = ["n", "rho", "seed", "status", "pivots", "two_by_two_pivots",
               "time_ms", "kkt_residual"]


def _cmd_bench(args) -> int:
    tasks = []
    idx = 0
    for n in args.n_list:
        for rho in args.rho_list:
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
    p.add_argument("--method", type=_method, default="auto")
    p.add_argument("--tol", type=_tol, default=None)
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
    p.add_argument("--method", type=_method, default="auto")
    p.add_argument("--oracle", action="store_true",
                   help=f"cross-check against the enumeration oracle (n <= {ORACLE_MAX_N})")
    p.add_argument("--tol", type=_tol, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="timing/step-count harness, CSV output")
    p.add_argument("--family", required=True, choices=("sbar_random", "tridiagonal", "sbar_nk"))
    p.add_argument("--n-list", type=_list_of(int, "integers"), required=True)
    p.add_argument("--rho-list", type=_list_of(float, "reals"), default="0.2")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree of :func:`main`, built on its first call: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (PppaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
