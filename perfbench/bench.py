"""Measurement loop, metrics and host record of the benchmark.

Each solve goes through the real CLI path, ``pppa.cli.main(["solve",
FILE, "--method", M, "--out", ANSWER])``, in this process, which has
already imported ``pppa`` and loads only the workload's QPB files.  A
pass solves every case of the workload once; passes repeat until the
run's time is used.  Untraced runs report the end-to-end metrics.
Traced runs alternate untraced and traced passes and report the
per-layer metrics from the traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from pppa import cli
from pppa.cli import EXIT_UNBOUNDED
from pppa.qpb import load_qpb, save_qpb
from pppa.tolerances import default_kkt_tol

import workloads
from checker import Checker
from tracer import Tracer

SETUP_REPS = 3

END_TO_END = {
    "solve_s_p50": "s",
    "solve_s_p95": "s",
    "batch_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "qpb.load_qpb.s": "s",
    "qpb.load_qpb.peak_mb": "MB",
    "classify.classify.s": "s",
    "classify.classify.calls": "count",
    "classify.is_in_sbar_plus.s": "s",
    "classify.is_in_sbar_plus.calls": "count",
    "classify.is_sbar_nk.s": "s",
    "classify.is_sbar_nk.calls": "count",
    "classify.find_dominance_vector.s": "s",
    "classify.find_dominance_vector.calls": "count",
    "matrices.is_psd.s": "s",
    "matrices.is_pd.s": "s",
    "matrices.irreducible_components.s": "s",
    "matrices.SymMatrix.matvec.s": "s",
    "matrices.SymMatrix.matvec.calls": "count",
    "matrices.tridiag_solve.s": "s",
    "matrices.tridiag_solve.calls": "count",
    "matrices.banded_densified": "count",
    "pivoting.solve_psd.s": "s",
    "pivoting.solve_psd.self_s": "s",
    "pivoting.compute_bars.self_s": "s",
    "pivoting.ratio_test_tau.s": "s",
    "pivoting.apply_pivot.self_s": "s",
    "pivoting.second_ratio_test.s": "s",
    "pivoting.pivots": "count",
    "pivoting.two_by_two": "count",
    "pivoting.pivots_per_n": "pivots/n",
    "factors.factor_update.s": "s",
    "factors.factor_update.calls": "count",
    "factors.refactorizations": "count",
    "reductions.solve_sbar.self_s": "s",
    "reductions.solve_sbar_n1.s": "s",
    "reductions.solve_sbar_nk.s": "s",
    "reductions.interior_solution.s": "s",
    "reductions.reductions": "count",
    "reductions.subproblems": "count",
    "oracle.kkt_residual.s": "s",
    "oracle.find_recession_direction.s": "s",
    "cli.self_s": "s",
    "cli.unbounded_exits": "count",
    "trace.solve_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}

_STATUS_LINE = re.compile(r"pivots=(\d+) two_by_two_pivots=(\d+)")
_SPAN_SUFFIX = {".s": 0, ".self_s": 1, ".calls": 2}


@dataclass
class Solve:
    case: int
    pass_no: int
    traced: bool
    seconds: float
    code: object
    stdout: str
    answer: str | None


def _cli_solve(path: Path, method: str, answer: Path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["solve", str(path), "--method", method, "--out", str(answer)])
    return code, buf.getvalue()


def _timed_solve(path: Path, method: str, answer: Path, tracer: Tracer | None):
    answer.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        if tracer is None:
            code, out = _cli_solve(path, method, answer)
        else:
            code, out = tracer.call_root(_cli_solve, path, method, answer)
    except Exception as exc:  # a crash is one failed solve, not the end of the run
        traceback.print_exc()
        code, out = f"raised {type(exc).__name__}: {exc}", ""
    seconds = time.perf_counter() - start
    text = answer.read_text(encoding="utf-8") if answer.exists() else None
    return seconds, code, out, text


def _write_inputs(name: str, seed: int, work: Path, shrink: int):
    """Generate the workload and write its QPB files; returns (cases, qpb paths, answer paths)."""
    cases = workloads.build(name, seed, shrink)
    paths = [work / f"case{i}.qpb" for i in range(len(cases))]
    answers = [work / f"case{i}.ans" for i in range(len(cases))]
    for case, path in zip(cases, paths):
        save_qpb(path, case.instance, {"family": case.label, "seed": seed})
    return cases, paths, answers


def _measure(cases, paths, answers, seconds: float, tracer: Tracer | None):
    """Whole passes until ``seconds`` are used; traced runs alternate untraced/traced passes."""
    solves: list[Solve] = []
    pass_seconds: list[tuple[bool, float]] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(pass_seconds) % 2 == 1
        if traced:
            tracer.install()
        try:
            total = 0.0
            for idx, case in enumerate(cases):
                if traced:
                    tracer.solve_id = len(solves)
                t, code, out, text = _timed_solve(paths[idx], case.method, answers[idx],
                                                  tracer if traced else None)
                total += t
                solves.append(Solve(idx, len(pass_seconds), traced, t, code, out, text))
        finally:
            if traced:
                tracer.uninstall()
        pass_seconds.append((traced, total))
        elapsed = time.perf_counter() - start
        done = len(pass_seconds) >= (2 if tracer is not None else 1)
        # Stop at the pass boundary nearest to the time budget.
        if done and elapsed + 0.5 * elapsed / len(pass_seconds) >= seconds:
            return solves, pass_seconds


def _end_to_end(solves, pass_seconds, setup_s: float) -> dict:
    by_case: dict[int, list[float]] = {}
    for s in solves:
        by_case.setdefault(s.case, []).append(s.seconds)
    # The tail is taken over instances, each at its median over the passes,
    # so a burst of host load during one solve does not set it.
    per_case = [statistics.median(v) for v in by_case.values()]
    return {
        "solve_s_p50": statistics.median(s.seconds for s in solves),
        "solve_s_p95": statistics.quantiles(per_case, n=100, method="inclusive")[94],
        "batch_s": statistics.median(t for _, t in pass_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def _load_peak_mb(path) -> float:
    """tracemalloc peak of one untraced, untimed load_qpb call."""
    tracemalloc.start()
    try:
        load_qpb(path)
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


def _per_layer(tracer: Tracer, cases, solves, pass_seconds, failed: int, paths) -> dict:
    traced = {i: s.pass_no for i, s in enumerate(solves) if s.traced}
    per_pass = tracer.aggregate(traced)
    rows = []
    for pass_no, spans in sorted(per_pass.items()):
        ids = [i for i, p in traced.items() if p == pass_no]
        pivots = two_by_two = 0
        for i in ids:
            match = _STATUS_LINE.search(solves[i].stdout)
            if match:
                pivots += int(match.group(1))
                two_by_two += int(match.group(2))
        driver = [sum(tracer.driver_stats.get(i, (0, 0, 0))[k] for i in ids) for k in range(3)]
        row = {
            "matrices.banded_densified": sum(tracer.densified.get(i, 0) for i in ids),
            "pivoting.pivots": pivots,
            "pivoting.two_by_two": two_by_two,
            "pivoting.pivots_per_n": pivots / sum(cases[solves[i].case].instance.n for i in ids),
            "reductions.reductions": driver[0],
            "reductions.subproblems": driver[1],
            "factors.refactorizations": driver[2],
            "cli.unbounded_exits": sum(solves[i].code == EXIT_UNBOUNDED for i in ids),
            "trace.solve_s": sum(solves[i].seconds for i in ids),
            "trace.self_sum_s": sum(rec[1] for rec in spans.values()) / 1e9,
        }
        for metric in PER_LAYER:
            for suffix, field in _SPAN_SUFFIX.items():
                if metric not in row and metric.endswith(suffix):
                    value = spans.get(metric[:-len(suffix)], (0, 0, 0))[field]
                    row[metric] = value if field == 2 else value / 1e9
        rows.append(row)
    metrics = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    largest = max(range(len(cases)), key=lambda i: cases[i].instance.n)
    metrics["qpb.load_qpb.peak_mb"] = _load_peak_mb(paths[largest])
    metrics["trace.overhead_s"] = (statistics.median(t for tr, t in pass_seconds if tr)
                                   - statistics.median(t for tr, t in pass_seconds if not tr))
    metrics["failed_frac"] = failed / len(solves)
    return metrics


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref


def host_record(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "seed": seed,
        "commit": _git_commit(root),
    }


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        root: Path, shrink: int = 1) -> dict:
    """One benchmark run; returns the result object printed as the last stdout line."""
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up (generate, write, one warm-up solve of the first case) runs
        # SETUP_REPS times and its median counts; the imports happen once.
        setup_times, warmup_times = [], []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            cases, paths, answers = _write_inputs(name, seed, work, shrink)
            written = time.perf_counter()
            _timed_solve(paths[0], cases[0].method, answers[0], None)
            setup_times.append(time.perf_counter() - start)
            warmup_times.append(time.perf_counter() - written)
        setup_s = import_s + statistics.median(setup_times)
        tracer = Tracer() if trace else None
        solves, pass_seconds = _measure(cases, paths, answers, seconds, tracer)
        checker = Checker(cases, default_kkt_tol())
        failures = []
        for i, s in enumerate(solves):
            reason = checker.failure(s.case, s.code, s.answer)
            if reason is not None:
                failures.append({"solve": i, "case": cases[s.case].label, "reason": reason})
        if trace:
            metrics = _per_layer(tracer, cases, solves, pass_seconds, len(failures), paths)
            units = PER_LAYER
            tracer.write(out_dir / f"spans-{name}.csv")
        else:
            metrics = _end_to_end(solves, pass_seconds, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host = host_record(root, seed)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "host": host,
        "import_s": import_s, "setup_rep_s": setup_times, "warmup_s": warmup_times,
        "passes": [{"traced": tr, "seconds": t} for tr, t in pass_seconds],
        "solves": [{"case": cases[s.case].label, "pass": s.pass_no, "traced": s.traced,
                    "seconds": s.seconds, "code": s.code, "status_line": s.stdout.strip()}
                   for s in solves],
        "failures": failures, "metrics": metrics,
    }
    with open(out_dir / f"report-{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print("host " + json.dumps(host, default=str))
    print(f"workload {name}: {len(cases)} cases, {len(pass_seconds)} passes, "
          f"{len(solves)} solves, {len(failures)} failed")
    for failure in failures[:20]:
        print(f"FAILED solve {failure['solve']} ({failure['case']}): {failure['reason']}",
              file=sys.stderr)
    for metric, unit in units.items():
        print(f"  {metric} = {metrics[metric]:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {m: {"value": float(metrics[m]), "unit": units[m]} for m in units},
    }
