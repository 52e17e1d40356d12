"""Self-tests of the benchmark: checker, tracer, metric names and smoke runs.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pppa  # noqa: E402
from pppa.cli import main as cli_main  # noqa: E402
from pppa.qpb import save_qpb, write_qpb  # noqa: E402
from pppa.tolerances import default_kkt_tol  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checker import Checker, parse_vector  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _solved(tmp_path, case):
    path, answer = tmp_path / "case.qpb", tmp_path / "case.ans"
    save_qpb(path, case.instance)
    code = cli_main(["solve", str(path), "--method", case.method, "--out", str(answer)])
    return code, answer.read_text(encoding="utf-8")


def _first(expected):
    cases = workloads.build("small_mixed", 1)
    return next(i for i, c in enumerate(cases) if c.expected == expected), cases


def test_perturbed_solution_fails(tmp_path):
    idx, cases = _first(workloads.OPTIMAL)
    code, answer = _solved(tmp_path, cases[idx])
    checker = Checker(cases, default_kkt_tol())
    assert checker.failure(idx, code, answer) is None
    x = parse_vector(answer)
    x[0] += 1e-2
    assert checker.failure(idx, code, "\n".join(f"{v:.17g}" for v in x)) is not None


def test_sign_flipped_ray_fails(tmp_path):
    idx, cases = _first(workloads.UNBOUNDED)
    code, answer = _solved(tmp_path, cases[idx])
    checker = Checker(cases, default_kkt_tol())
    assert checker.failure(idx, code, answer) is None
    ray = -parse_vector(answer)
    assert checker.failure(idx, code, "\n".join(f"{v:.17g}" for v in ray)) is not None


def test_wrong_exit_code_fails(tmp_path):
    idx, cases = _first(workloads.OPTIMAL)
    code, answer = _solved(tmp_path, cases[idx])
    assert Checker(cases, default_kkt_tol()).failure(idx, 1, answer) is not None


def test_same_seed_same_inputs():
    for name in run.WORKLOADS:
        a = [write_qpb(c.instance) for c in workloads.build(name, 5, shrink=20)]
        b = [write_qpb(c.instance) for c in workloads.build(name, 5, shrink=20)]
        assert a == b
        assert a != [write_qpb(c.instance) for c in workloads.build(name, 6, shrink=20)]


def test_tracer_patches_by_name_imports_and_restores():
    import importlib
    reductions = importlib.import_module("pppa.reductions")
    cli = importlib.import_module("pppa.cli")
    originals = (reductions.solve_psd, cli.load_qpb, pppa.classify)
    tracer = Tracer()
    tracer.install()
    try:
        assert reductions.solve_psd is not originals[0]
        assert cli.load_qpb is not originals[1]
        assert pppa.classify is not originals[2]
        assert importlib.import_module("pppa.classify").classify is not originals[2]
    finally:
        tracer.uninstall()
    assert (reductions.solve_psd, cli.load_qpb, pppa.classify) == originals


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(tmp_path, capsys, name, trace):
    start = time.perf_counter()
    result = bench.run(name, 3, 0.2, trace, 0.0, tmp_path, shrink=20)
    assert time.perf_counter() - start < 60.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    printed = capsys.readouterr().out
    for metric, entry in result["metrics"].items():
        line = rf"^  {re.escape(metric)} = \S+ {re.escape(entry['unit'])}$"
        assert re.search(line, printed, re.MULTILINE), metric
    if trace:
        m = result["metrics"]
        assert m["trace.self_sum_s"]["value"] == pytest.approx(m["trace.solve_s"]["value"],
                                                               rel=0.02)


def test_benchmark_json_matches_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


def test_fails_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "small_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
