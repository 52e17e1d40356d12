import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pppa import QpInstance, SolveOutcome, SymMatrix, classify, load_qpb, save_qpb
from pppa import cli, oracle, reductions
from pppa.cli import main

from helpers import mixed_level_blocks

N1_TEXT = """qpb 1
n 1
q -3
u 1
m 1
1 1 2.0
"""


def test_import_leaves_scipy_optimize_unloaded():
    # Only find_recession_direction uses scipy.optimize; importing it with the
    # package cost every solve about 20 MB of memory.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, pppa, pppa.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


@pytest.fixture
def n1_file(tmp_path):
    path = tmp_path / "n1.qpb"
    path.write_text(N1_TEXT)
    return str(path)


def test_solve_minimal(n1_file, capsys):
    code = main(["solve", n1_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=optimal" in out
    assert "objective=-2" in out
    assert "x=1" in out


def test_solve_writes_vector_file(n1_file, tmp_path, capsys):
    dest = tmp_path / "x.txt"
    code = main(["solve", n1_file, "--out", str(dest)])
    assert code == 0
    assert dest.read_text().strip() == "1"
    assert "x=" not in capsys.readouterr().out


def test_solve_methods(n1_file):
    for method in ("auto", "pd", "psd", "sbar", "sbar1", "sbark=2"):
        assert main(["solve", n1_file, "--method", method]) == 0


def test_solve_unbounded_exit_code(tmp_path, capsys):
    inst = QpInstance(SymMatrix.from_dense([[1, -1], [-1, 1]]),
                      [-1.0, 0.0], [np.inf, np.inf])
    path = tmp_path / "unb.qpb"
    save_qpb(path, inst)
    code = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "status=unbounded" in out and "ray=" in out


def test_solve_unclassifiable_is_error(tmp_path, capsys):
    inst = QpInstance(SymMatrix.from_dense([[1, 3], [3, 1]]), [0.0, 0.0], [1.0, 1.0])
    path = tmp_path / "bad.qpb"
    save_qpb(path, inst)
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "classification_failed" in err


def test_classify_output(tmp_path, capsys):
    path = tmp_path / "g.qpb"
    assert main(["generate", "--family", "sbar_random", "--n", "5",
                 "--rho", "0.4", "--seed", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "is_sbar_plus=true" in out
    assert "k_level=0" in out
    assert "d=" in out and "p=" in out


# Entries whose 17-digit text is easy to get wrong: a signed zero, the
# smallest subnormal, a value near overflow, and a sum that 17 digits tell apart.
ODD = np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2])
ODD_TEXT = ["-0", "4.9406564584124654e-324", "1e+308", "0.30000000000000004"]


@pytest.mark.parametrize("status", ["optimal", "unbounded"])
def test_solve_vector_digits(tmp_path, capsys, monkeypatch, status):
    assert ODD_TEXT == [f"{v:.17g}" for v in ODD.tolist()]
    path = tmp_path / "i.qpb"
    save_qpb(path, QpInstance(SymMatrix.from_dense(np.eye(4)), np.ones(4), np.ones(4)))
    if status == "optimal":
        out, label = SolveOutcome(status, x=ODD, objective=0.0, kkt_residual=0.0), "x"
    else:
        out, label = SolveOutcome(status, ray=ODD), "ray"
    monkeypatch.setattr(cli, "solve_sbar_nk", lambda *args, **kwargs: out)
    main(["solve", str(path)])
    assert capsys.readouterr().out.split()[-1] == f"{label}=" + ",".join(ODD_TEXT)
    dest = tmp_path / "v.txt"
    main(["solve", str(path), "--out", str(dest)])
    assert dest.read_text() == "\n".join(ODD_TEXT) + "\n"


def test_classify_vector_digits(tmp_path, capsys, monkeypatch):
    path = tmp_path / "i.qpb"
    save_qpb(path, QpInstance(SymMatrix.from_dense(np.eye(4)), np.ones(4), np.ones(4)))
    report = dataclasses.replace(classify(SymMatrix.from_dense(np.eye(4))), d=ODD, p=ODD)
    monkeypatch.setattr(cli, "classify", lambda *args, **kwargs: report)
    assert main(["classify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "d=" + ",".join(ODD_TEXT) in lines and "p=" + ",".join(ODD_TEXT) in lines


def test_generate_header_round_trip(tmp_path):
    path = tmp_path / "g.qpb"
    main(["generate", "--family", "tridiagonal", "--n", "12", "--seed", "8",
          "--out", str(path)])
    text = path.read_text()
    assert "family tridiagonal" in text
    assert "generator-id pcg64-rowmajor-v1" in text
    assert "structure tridiagonal" in text


def test_verify_with_oracle(n1_file, capsys):
    code = main(["verify", n1_file, "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kkt_ok=true" in out
    assert "oracle_agrees=true" in out


def test_verify_unbounded(tmp_path, capsys):
    inst = QpInstance(SymMatrix.from_dense([[1, -1], [-1, 1]]),
                      [-1.0, 0.0], [np.inf, np.inf])
    path = tmp_path / "unb.qpb"
    save_qpb(path, inst)
    code = main(["verify", str(path), "--oracle"])
    out = capsys.readouterr().out
    assert code == 2
    assert "certificate_ok=true" in out
    assert "oracle_agrees=true" in out


def test_bench_csv(tmp_path):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--family", "sbar_random", "--n-list", "5,8",
                 "--rho-list", "0.3", "--reps", "2", "--seed", "10",
                 "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,rho,seed,status,pivots,two_by_two_pivots,time_ms,kkt_residual"
    assert len(lines) == 1 + 4
    seeds = [int(line.split(",")[2]) for line in lines[1:]]
    assert seeds == [10, 11, 12, 13]


def test_bench_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["bench", "--family", "tridiagonal", "--n-list", "10,20", "--reps", "2",
            "--seed", "3"]
    main(args + ["--csv", str(serial)])
    main(args + ["--csv", str(parallel), "--jobs", "2"])

    def strip_time(path):
        rows = path.read_text().strip().splitlines()
        return [",".join(c for i, c in enumerate(r.split(",")) if i != 6) for r in rows]

    assert strip_time(serial) == strip_time(parallel)


def test_bench_deterministic_modulo_time(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--family", "sbar_random", "--n-list", "6", "--reps", "2",
            "--seed", "4"]
    main(args + ["--csv", str(a)])
    main(args + ["--csv", str(b)])

    def strip_time(path):
        rows = path.read_text().strip().splitlines()
        return [",".join(c for i, c in enumerate(r.split(",")) if i != 6) for r in rows]

    assert strip_time(a) == strip_time(b)


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["solve", "x.qpb", "--method", "wat"]) == 64


def test_calls_share_the_parser_but_no_state(n1_file, tmp_path, capsys, monkeypatch):
    # main builds its argparse tree once; the options of one call must not
    # reach the next.
    dest = tmp_path / "x.txt"
    assert main(["solve", n1_file, "--tol", "0.5", "--out", str(dest)]) == 0
    assert "x=" not in capsys.readouterr().out
    dest.unlink()
    defaults = []

    def recording_tol():
        defaults.append(True)
        return 1e-8

    monkeypatch.setattr(cli, "default_kkt_tol", recording_tol)
    assert main(["solve", n1_file]) == 0
    assert "x=1" in capsys.readouterr().out
    assert not dest.exists()
    assert defaults == [True]
    assert main(["solve"]) == 64
    assert main(["solve", n1_file]) == 0
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["bench", "--help"],
                                  ["frobnicate"], ["solve"], ["solve", "x", "--method", "wat"]])
def test_help_and_usage_match_a_fresh_parser(argv, capsys):
    code = main(argv)
    cached = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    fresh = capsys.readouterr()
    assert (code, cached.out, cached.err) == (exc.value.code, fresh.out, fresh.err)
    assert code == (0 if "--help" in argv else 64)


def test_missing_file_is_error(capsys):
    assert main(["solve", "/nonexistent/path.qpb"]) == 1


def test_pppa_tol_env(n1_file, capsys, monkeypatch):
    monkeypatch.setenv("PPPA_TOL", "1e-6")
    assert main(["verify", n1_file]) == 0
    monkeypatch.setenv("PPPA_TOL", "bogus")
    with pytest.raises(ValueError):
        main(["verify", n1_file])


NONFINITE_TEXT = """qpb 1
n 2
q {q}
u {u}
m 3
1 1 2.0
1 2 {m}
2 2 2.0
"""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_pppa_tol_env_that_is_not_finite_is_rejected(n1_file, monkeypatch, value):
    monkeypatch.setenv("PPPA_TOL", value)
    with pytest.raises(ValueError, match="PPPA_TOL"):
        main(["verify", n1_file])
    with pytest.raises(ValueError, match="PPPA_TOL"):
        main(["solve", n1_file])


@pytest.mark.parametrize("q, u, m, line", [
    ("nan -1", "1 1", "0.5", 3),
    ("-1 inf", "1 1", "0.5", 3),
    ("-inf -1", "1 1", "0.5", 3),
    ("-1 -1", "1 1", "nan", 7),
    ("-1 -1", "1 1", "inf", 7),
    ("-1 -1", "1 1", "-inf", 7),
    ("-1 -1", "nan 1", "0.5", 4),
    ("-1 -1", "1 -inf", "0.5", 4),
])
def test_nonfinite_value_is_parse_error(tmp_path, capsys, q, u, m, line):
    path = tmp_path / "bad.qpb"
    path.write_text(NONFINITE_TEXT.format(q=q, u=u, m=m))
    for command in ("solve", "classify"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}:")


@pytest.mark.parametrize("header", ["seed abc", "seed 1.5", "rho nan", "rho inf", "rho x"])
def test_bad_header_value_is_parse_error(tmp_path, capsys, header):
    path = tmp_path / "bad.qpb"
    path.write_text(N1_TEXT.replace("qpb 1\n", f"qpb 1\n{header}\n"))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2:")


def test_inf_upper_bound_still_accepted(tmp_path, capsys):
    path = tmp_path / "ok.qpb"
    path.write_text(NONFINITE_TEXT.format(q="-1 -1", u="inf 1", m="0.5"))
    assert main(["solve", str(path)]) == 0
    assert "status=optimal" in capsys.readouterr().out


def test_tridiagonal_input_stays_banded(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tri.qpb"
    assert main(["generate", "--family", "tridiagonal", "--n", "40", "--seed", "4",
                 "--out", str(path)]) == 0
    instance, _ = load_qpb(path)
    assert instance.m.tridiagonal
    classify(instance.m)
    assert instance.m._dense is None
    loaded = []

    def recording_load(file):
        loaded.append(load_qpb(file))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_qpb", recording_load)
    assert main(["solve", str(path), "--method", "auto"]) == 0
    assert "status=optimal" in capsys.readouterr().out
    assert loaded[0][0].m._dense is None


METHODS = ("auto", "pd", "psd", "sbar", "sbar1", "sbark=2")


def test_solve_builds_no_class_report(tmp_path, capsys, monkeypatch):
    path = tmp_path / "r.qpb"
    assert main(["generate", "--family", "sbar_random", "--n", "30", "--seed", "3",
                 "--out", str(path)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a solve route built a class report")

    monkeypatch.setattr(cli, "classify", refuse)
    for method in METHODS:
        assert main(["solve", str(path), "--method", method]) == 0, method
    assert capsys.readouterr().out.count("status=optimal") == len(METHODS)


def test_pd_solves_a_near_singular_matrix(tmp_path):
    # Positive definite by 1e-9, so d reads as the kernel vector (1, 1) and
    # p = (0, 2e-9): p_0 vanishes where q_0 < 0, and the start needs a reduction.
    inst = QpInstance(SymMatrix.from_dense([[1 + 1e-9, -1.0], [-1.0, 1 + 1e-9]]),
                      [-1.0, 0.5], [2.0, 2.0])
    path = tmp_path / "ns.qpb"
    save_qpb(path, inst)
    answers = []
    for method in ("pd", "sbar"):
        dest = tmp_path / f"{method}.txt"
        assert main(["solve", str(path), "--method", method, "--out", str(dest)]) == 0
        answers.append(dest.read_bytes())
    assert answers[0] == answers[1]
    assert np.array([float(v) for v in answers[0].split()]) == pytest.approx([2.0, 1.4999999985])


def test_auto_classifies_each_block(tmp_path, capsys):
    # Each block has a level while the whole matrix has none; auto solves it
    # block by block, as sbar1 does.
    path = tmp_path / "mixed.qpb"
    save_qpb(path, mixed_level_blocks())
    answers = []
    for method in ("auto", "sbar1"):
        dest = tmp_path / f"{method}.txt"
        assert main(["solve", str(path), "--method", method, "--out", str(dest)]) == 0
        answers.append(dest.read_bytes())
    assert answers[0] == answers[1]
    assert "objective=-5.78856382978" in capsys.readouterr().out


def test_auto_tests_an_irreducible_matrix_once(tmp_path, monkeypatch):
    path = tmp_path / "nk.qpb"
    assert main(["generate", "--family", "sbar_nk", "--n", "8", "--k", "1", "--seed", "3",
                 "--out", str(path)]) == 0
    full = load_qpb(path)[0].m.full()
    tested = []
    classify_module = importlib.import_module("pppa.classify")
    original = classify_module.is_in_sbar_plus

    def counting(m):
        if m.n == full.shape[0] and np.array_equal(m.full(), full):
            tested.append(m)
        return original(m)

    for module in (classify_module, reductions):
        monkeypatch.setattr(module, "is_in_sbar_plus", counting)
    assert main(["solve", str(path), "--method", "auto"]) == 0
    assert len(tested) == 1


def test_bench_sbar_nk_solves_at_its_level(tmp_path):
    csv_path = tmp_path / "nk.csv"
    assert main(["bench", "--family", "sbar_nk", "--n-list", "6,8", "--k", "1",
                 "--rho-list", "0.6", "--csv", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row[3] == "optimal"
        assert float(row[7]) <= 1e-12


def test_an_optimal_solve_evaluates_the_kkt_residual_once(n1_file, capsys, monkeypatch):
    # The solver's exit measures the residual; the CLI prints that record.
    calls = []
    original = oracle.kkt_residual

    def counting(instance, x):
        calls.append(x)
        return original(instance, x)

    for name, module in list(sys.modules.items()):
        if (name == "pppa" or name.startswith("pppa.")) and \
                getattr(module, "kkt_residual", None) is original:
            monkeypatch.setattr(module, "kkt_residual", counting)
    assert main(["solve", n1_file]) == 0
    assert "kkt_residual=" in capsys.readouterr().out
    assert len(calls) == 1


def test_a_directory_as_input_is_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_directory_as_out_is_error(n1_file, tmp_path, capsys):
    assert main(["solve", n1_file, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_file_that_is_not_utf8_is_error(tmp_path, capsys):
    path = tmp_path / "bad.qpb"
    path.write_bytes(N1_TEXT.encode().replace(b"1 1 2.0", b"1 1 2.0\xff"))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan", "abc"])
def test_a_tolerance_that_is_not_positive_and_finite_is_usage_error(n1_file, capsys,
                                                                       command, tol):
    assert main([command, n1_file, "--tol", tol]) == 64
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--n-list", "abc"), ("--n-list", "4,x"),
                                           ("--n-list", "2.5"), ("--rho-list", "0.2,abc")])
def test_a_bench_list_token_that_is_not_a_number_is_usage_error(tmp_path, capsys,
                                                                option, value):
    argv = ["bench", "--family", "sbar_random", "--n-list", "4", "--csv", str(tmp_path / "b.csv")]
    assert main(argv + [option, value]) == 64
    err = capsys.readouterr().err
    assert option in err
    assert "Traceback" not in err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "sbar_random", "--n", "0"],
    ["generate", "--family", "sbar_random", "--n", "5", "--rho", "1.5"],
    ["bench", "--family", "sbar_random", "--n-list", "0"],
])
def test_an_invalid_generator_recipe_is_error(tmp_path, capsys, argv):
    dest = str(tmp_path / "out")
    argv = argv + (["--csv", dest] if argv[0] == "bench" else ["--out", dest])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
