"""CLI surface: selectors, exit codes, output formats, the environment
override, and byte determinism of reports."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from mpmath import mp

import exptail
from exptail.cli import main


# sha256 of the joined transcripts of test_sharpness_transcripts_pinned
PINNED_SHARPNESS = "9dacfb1a566778c76314e04c4c41c80de3685c8f15ce718c32b5ab02b61c79ae"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_tail(capsys):
    code, out, _ = run(capsys, "eval", "--quantity", "rn", "--n", "4", "--x", "0.1")
    assert code == 0
    assert out.splitlines()[0].startswith("8.4742314291478")
    assert "err_estimate" in out


def test_eval_zero(capsys):
    code, out, _ = run(capsys, "eval", "--quantity", "rn", "--n", "0", "--x", "0")
    assert code == 0
    assert out.splitlines()[0] == "0.0"


def test_eval_pade_exact(capsys):
    code, out, _ = run(capsys, "eval", "--quantity", "pade", "--n", "1", "--m", "1", "--x", "1")
    assert code == 0
    assert out.splitlines()[0] == "3.0"


@pytest.mark.parametrize("quantity,flags", [
    ("ra", ["--a", "0.5", "--x", "2"]),
    ("rneg", ["--n", "2", "--x", "3"]),
    ("robr", ["--n", "1", "--m", "1", "--x", "1"]),
    ("q", ["--n", "2", "--x", "1"]),
    ("b", ["--nu", "0.5", "--x", "2"]),
    ("eps", ["--nu", "1", "--x", "1"]),
    ("g", ["--n", "1", "--x", "1"]),
    ("gammainc", ["--v", "3", "--x", "1"]),
    ("kummer", ["--b", "4", "--x", "2"]),
    ("aitken", ["--n", "2", "--x", "1"]),
    ("cesaro", ["--n", "1", "--x", "1"]),
])
def test_eval_all_selectors(capsys, quantity, flags):
    code, out, _ = run(capsys, "eval", "--quantity", quantity, *flags)
    assert code == 0
    assert out.strip()


def test_eval_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--quantity", "nosuch", "--x", "1")
    assert code == 2
    code, _, err = run(capsys, "eval", "--quantity", "rn", "--x", "1")
    assert code == 2 and "requires --n" in err
    code, _, err = run(capsys, "eval", "--quantity", "rn", "--n", "1.5", "--x", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--quantity", "rn", "--n", "3", "--x", "inf"),
    ("--quantity", "kummer", "--b", "2", "--x", "nan"),
    ("--quantity", "ra", "--a=-inf", "--x", "1"),
    ("--quantity", "rn", "--n", "3", "--x", "abc"),
])
def test_eval_bad_number_exits_2(capsys, argv):
    code, _, err = run(capsys, "eval", *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_check_single_pass_row(capsys):
    code, out, _ = run(capsys, "check", "--id", "ALZER", "--grid", "n=1..1;x=lin(1,1,1)",
                       "--format", "text")
    assert code == 0
    assert out.count("PASS") == 1


def test_check_unknown_id(capsys):
    code, _, err = run(capsys, "check", "--id", "NOSUCH")
    assert code == 2
    assert "unknown check id" in err


def test_check_nonpositive_x_exits_2(capsys):
    # ALZER does not validate x, so x <= 0 on its grid is a usage error
    code, out, err = run(capsys, "check", "--id", "ALZER", "--grid", "x=lin(-1,1,3)")
    assert code == 2 and out == ""
    assert "requires x > 0" in err


@pytest.mark.parametrize("check,grid,rows", [
    # a = -1 + 1e-20 exceeds -1 at 256 bits; rounded to 53 it is -1
    ("RATIO_32", "a=lin(-0.99999999999999999999,-0.99999999999999999999,1);x=lin(1,1,1)", 1),
    # n = 2 + 1e-22 is no integer at 256 bits; rounded to 53 it is 2
    ("ALZER", "n=lin(2.0000000000000000000001,2.0000000000000000000001,1);x=lin(1,1,1)", 0),
])
def test_check_validators_judge_the_context_precision_value(capsys, check, grid, rows):
    # mpmath's ambient precision is 53 bits under the CLI
    with mp.workprec(53):
        code, out, _ = run(capsys, "check", "--id", check, "--grid", grid, "--format", "text")
    assert code == 0
    assert out.count("PASS ") == rows and f"summary: {rows} pass" in out


def test_check_bad_grid(capsys):
    code, _, _ = run(capsys, "check", "--id", "ALZER", "--grid", "n=1..8;x=geo(1,2,3)")
    assert code == 2
    code, _, _ = run(capsys, "check", "--id", "ALZER", "--grid", "zz=1..3;x=lin(1,1,1)")
    assert code == 2  # axis matching no parameter


@pytest.mark.parametrize("argv", [
    ["--id", "ALZER", "--grid", "x=lin(-1,1,3)"],  # found by the sweep, mid-grid
    ["--id", "NOSUCH"],
    ["--id", "ALZER", "--grid", "zz=1..3;x=lin(1,1,1)"],  # an unused axis
])
@pytest.mark.parametrize("to_file", [False, True])
def test_check_usage_errors_write_nothing(capsys, tmp_path, argv, to_file):
    out_file = tmp_path / "report.json"
    extra = ["--out", str(out_file)] if to_file else []
    code, out, _ = run(capsys, "check", *argv, *extra)
    assert code == 2 and out == ""
    assert not out_file.exists()


def test_check_unknown_id_among_known_fails_before_any_row(capsys, monkeypatch):
    # every id is resolved before the sweep evaluates its first row
    from exptail import inequalities

    calls = []
    original = inequalities.evaluate_check
    monkeypatch.setattr(inequalities, "evaluate_check",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    code, out, err = run(capsys, "check", "--id", "ALZER,NOSUCH")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: unknown check id 'NOSUCH' (known: ALZER, ")


@pytest.mark.parametrize("check,grid", [
    # at 288 bits a + 1 == a and x + y == x: the rows compared the wrong
    # remainders and reported FAIL
    ("RATIO_32", "a=lin(1e300,1e300,1);x=lin(0.5,0.5,1)"),
    ("KIM_37", "nu=lin(0.5,0.5,1);x=lin(1e300,1e300,1);y=lin(2,2,1)"),
])
def test_check_parameter_of_2_to_the_bits_is_refused(capsys, check, grid):
    code, out, err = run(capsys, "check", "--id", check, "--grid", grid)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "< 2**256" in err


def test_check_all_with_shared_grid(capsys, tmp_path):
    # one shared grid drives the whole catalog: named axes override the
    # defaults, everything else keeps its default values
    out_file = tmp_path / "all.json"
    code, _, _ = run(capsys, "check", "--id", "all", "--grid", "n=2..3;x=lin(1,2,2)",
                     "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["summary"]["FAIL"] == 0
    covered = {rec["check"] for rec in doc["records"]}
    assert {"ALZER", "KIM_37", "FRACMONO_34", "PADE_ROW_45"} <= covered


def test_check_json_schema(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", "--id", "ALZER", "--grid", "n=1..2;x=lin(1,2,2)",
                     "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["precision_bits"] == 256
    assert doc["summary"]["PASS"] == 4
    rec = doc["records"][0]
    assert list(rec) == ["check", "params", "x", "lhs", "rhs", "margin", "ratio",
                         "status", "err_bound"]
    assert rec["status"] == "PASS"
    assert isinstance(rec["margin"], str)


def test_check_csv_format(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "check", "--id", "SANDWICH_49", "--grid", "n=1..2;x=lin(1,3,2)",
                     "--out", str(out_file), "--format", "csv")
    assert code == 0
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "params", "x", "lhs", "rhs", "margin", "ratio",
                       "status", "err_bound"]
    assert len(rows) == 5
    assert all(row[7] == "PASS" for row in rows[1:])


def test_orders_past_the_pade_bound_are_skipped(capsys):
    # PADE_ROW_45 builds exact rows up to n + 1 = MAX_PADE_ORDER, so its
    # n = 1000 points are skipped, not an error that aborts every check
    code, out, _ = run(capsys, "check", "--id", "all", "--grid", "n=998..1000;x=lin(1,3,2)")
    assert code in (0, 1)
    records = json.loads(out)["records"]
    orders = {(r["check"], r["params"].get("n")) for r in records}
    assert {n for check, n in orders if check == "PADE_ROW_45"} == {998, 999}
    assert ("ALZER", 1000) in orders and ("REVERSE_43", 1000) in orders


def test_check_determinism_bytes(capsys, tmp_path):
    args = ("check", "--id", "ALZER,REVERSE_43", "--grid", "n=1..3;x=log(1e-2,5,4)")
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(f1))[0] == 0
    assert run(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_check_stdout_gives_the_bytes_of_out(tmp_path, fmt):
    # 320 rows: more than one chunk reaches the sink
    args = ("check", "--id", "ALZER", "--grid", "n=1..8;x=log(1e-3,30,40)", "--bits", "53",
            "--format", fmt)
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out_file = tmp_path / "report"
    to_file = subprocess.run([sys.executable, "-m", "exptail", *args, "--out", str(out_file)],
                             capture_output=True, env=env, timeout=300)
    to_stdout = subprocess.run([sys.executable, "-m", "exptail", *args],
                               capture_output=True, env=env, timeout=300)
    assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
    assert to_file.stdout == b""
    assert to_stdout.stdout == out_file.read_bytes()
    assert to_stdout.stdout.count(b"ALZER") == 320


def test_check_cold_subprocess_matches_warm_in_process(capsys, tmp_path):
    # the checks whose sharp constants are cached per parameter point: a
    # fresh interpreter and an in-process run on warm caches write the
    # same bytes
    args = ("check", "--id", "INTERP,COR_25,COR_27,PROD_28,CHEBYSHEV_GEN", "--bits", "53")
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cold = tmp_path / "cold.json"
    proc = subprocess.run([sys.executable, "-m", "exptail.cli", *args, "--out", str(cold)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert run(capsys, *args, "--out", str(tmp_path / "warmup.json"))[0] == 0
    for i in range(2):
        warm = tmp_path / f"warm{i}.json"
        assert run(capsys, *args, "--out", str(warm))[0] == 0
        assert warm.read_bytes() == cold.read_bytes()


def test_check_indeterminate_does_not_flip_exit_code(capsys):
    # a degenerate equality point reports INDET and still exits 0
    code, out, _ = run(capsys, "check", "--id", "GEN_K", "--grid", "n=3..3;k=0..0;x=lin(1,1,1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["INDET"] == 1 and doc["summary"]["PASS"] == 0


@pytest.mark.parametrize("check", ["REFINED_31", "STRENGTH_36"])
@pytest.mark.parametrize("bits,grid", [("256", "x=log(1e-40,1e-12,8)"),
                                       ("53", "x=log(1e-12,1e-3,10)")])
def test_cancelling_sides_escalate_to_pass(capsys, check, bits, grid):
    # proven inequalities whose sides cancel at the working precision, which
    # reported false FAILs before their rows escalated
    code, out, _ = run(capsys, "check", "--id", check, "--bits", bits, "--grid", grid)
    summary = json.loads(out)["summary"]
    assert code == 0 and summary["PASS"] == summary["total"] > 0


def test_check_numerical_failure_exits_3(capsys, monkeypatch):
    from mpmath import mpf

    import exptail.cli as cli
    from exptail.inequalities import CheckResult

    nan = mpf("nan")
    broken = CheckResult(check="ALZER", params={"n": 1}, x=mpf(1), lhs=nan, rhs=nan,
                         margin=nan, ratio=None, err_bound=nan, status="ERROR")
    monkeypatch.setattr(cli, "default_sweep", lambda ids, ctx: [broken])
    code, out, _ = run(capsys, "check", "--id", "ALZER")
    assert code == 3
    assert json.loads(out)["summary"]["ERROR"] == 1


def test_bits_floor_rejected(capsys):
    code, _, err = run(capsys, "check", "--id", "ALZER", "--grid", "n=1..1;x=lin(1,1,1)",
                       "--bits", "52")
    assert code == 2
    assert "53" in err


def test_precision_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("EXPTAIL_PREC", "128")
    code, out, _ = run(capsys, "check", "--id", "ALZER", "--grid", "n=1..1;x=lin(1,1,1)")
    assert code == 0
    assert json.loads(out)["precision_bits"] == 128
    # explicit flag wins over the environment
    code, out, _ = run(capsys, "check", "--id", "ALZER", "--grid", "n=1..1;x=lin(1,1,1)",
                       "--bits", "192")
    assert json.loads(out)["precision_bits"] == 192


def test_sharpness_output(capsys):
    code, out, _ = run(capsys, "sharpness", "--id", "ALZER", "--n", "3", "--dir", "zero")
    assert code == 0
    assert out.splitlines()[0].startswith("0.8 ")
    assert "documented limit: 0.8" in out


def test_sharpness_missing_direction(capsys):
    code, _, _ = run(capsys, "sharpness", "--id", "ALZER", "--n", "3")
    assert code == 2


def test_sharpness_undocumented(capsys):
    code, _, err = run(capsys, "sharpness", "--id", "LINEAR_44", "--n", "3", "--dir", "zero")
    assert code == 2
    assert "no documented sharpness limit" in err


def test_explore_rk(capsys):
    code, out, _ = run(capsys, "explore", "--problem", "rk", "--lambda", "1", "--h", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "rk"
    assert float(doc["diagnostics"]["relative_agreement"]) < 1e-10


def test_explore_problem15(capsys):
    code, out, _ = run(capsys, "explore", "--problem", "15", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnostics"]["violations"] == []


def test_explore_out_of_scope(capsys):
    code, _, err = run(capsys, "explore", "--problem", "2")
    assert code == 2
    assert "not implemented (out of scope)" in err


def test_explore_unknown(capsys):
    code, _, err = run(capsys, "explore", "--problem", "99")
    assert code == 2
    assert "unknown problem '99'" in err


def test_explore_table_names_explorer_functions():
    from exptail import explorer
    from exptail.cli import EXPLORE, OUT_OF_SCOPE_PROBLEMS

    assert all(callable(getattr(explorer, name)) for name, _ in EXPLORE.values())
    assert not OUT_OF_SCOPE_PROBLEMS & set(EXPLORE)


@pytest.mark.parametrize("bits", ["53", "256"])
def test_explore_problem5_at_order_201(capsys, bits):
    # exit 3 while the pole came from a scan with a step budget
    code, out, _ = run(capsys, "explore", "--problem", "5", "--n", "201", "--bits", bits)
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnostics"]["pole"].startswith("267.0856882820898")
    assert doc["params"] == {"n": 201, "k_max": 4}


def test_explore_problem5_pole_of_row_51(capsys):
    # the scan put it at 61.489 at 53 bits
    code, out, _ = run(capsys, "explore", "--problem", "5", "--n", "51", "--bits", "53")
    assert code == 0
    assert json.loads(out)["diagnostics"]["pole"].startswith("68.26292543217702")


def test_explore_each_problem_runs(capsys):
    fast_args = {
        "1": ["--n", "2", "--xgrid", "log(0.1,5,5)"],
        "5": ["--n", "1", "--kmax", "2"],
        "7": ["--nmax", "20"],
        "8": ["--n", "2", "--k", "3", "--xgrid", "log(0.5,2,3)"],
        "9": ["--nmax", "20"],
        "11": ["--kmax", "2", "--nmax", "6", "--xgrid", "lin(1,1,1)"],
        "12": ["--nmax", "3"],
        "15": ["--n", "2", "--xgrid", "log(0.1,5,5)"],
    }
    for problem, extra in fast_args.items():
        code, out, _ = run(capsys, "explore", "--problem", problem, *extra)
        assert code == 0, problem
        assert json.loads(out)["kind"] == f"problem{problem}"


def test_explore_text_and_csv_formats(capsys):
    code, out, _ = run(capsys, "explore", "--problem", "rk", "--format", "text")
    assert code == 0 and out.startswith("report: rk")
    code, out, _ = run(capsys, "explore", "--problem", "rk", "--format", "csv")
    assert code == 0
    header = next(csv.reader(io.StringIO(out)))
    assert header == ["one_step_error", "remainder_reference", "relative_agreement"]


def test_eval_overflow_exits_3_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # a Cesaro sum of 10**8 terms at x < 0 is past the work cap
    proc = subprocess.run([sys.executable, "-m", "exptail.cli", "eval", "--quantity", "cesaro",
                           "--n", "100000000", "--x=-1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure:") and "Traceback" not in proc.stderr


def _subprocess(*argv, timeout=120):
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_python_dash_m_exptail(tmp_path):
    argv = ["eval", "--quantity", "rn", "--n", "4", "--x", "0.1"]
    package = _subprocess("-m", "exptail", *argv)
    module = _subprocess("-m", "exptail.cli", *argv)
    assert package.returncode == 0 and package.stdout == module.stdout
    # the exit code is the command's
    assert _subprocess("-m", "exptail", "check", "--id", "NOSUCH").returncode == 2


def _sharpness_argv(name, direction, bits):
    """``sharpness`` at the first default point of a check: every parameter
    but x and y as its flag."""
    from exptail.inequalities import CATALOG, Evaluator
    from exptail.precision import PrecisionContext

    point = CATALOG[name].default_points(Evaluator(PrecisionContext(bits)))[0]
    flags = [f"--{k}={v if isinstance(v, int) else mp.nstr(v, 30)}"
             for k, v in point.items() if k not in ("x", "y")]
    return ["sharpness", "--id", name, "--dir", direction, f"--bits={bits}", *flags]


def test_sharpness_transcripts_pinned(capsys):
    # every documented limit of the catalog, at 53 and 256 bits
    from exptail.inequalities import CATALOG

    transcripts = []
    for bits in (53, 256):
        for name, cdef in CATALOG.items():
            for direction in sorted(cdef.sharp_limits):
                argv = _sharpness_argv(name, direction, bits)
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, ""), argv
                transcripts.append(" ".join(argv) + "\n" + out)
    assert len(transcripts) == 32
    digest = hashlib.sha256("".join(transcripts).encode()).hexdigest()
    assert digest == PINNED_SHARPNESS


@pytest.mark.parametrize("n", ["2.5", "two"])
def test_sharpness_non_integer_order_is_a_usage_error(capsys, n):
    code, out, err = run(capsys, "sharpness", "--id", "ALZER", "--dir", "zero", "--n", n)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("enabled", [True, False])
def test_check_holds_the_collector_off_and_restores_it(capsys, monkeypatch, enabled):
    import gc

    import exptail.cli as cli

    seen = []
    sweep = cli.default_sweep

    def watched(ids, ctx):
        seen.append(gc.isenabled())
        return sweep(ids, ctx)

    monkeypatch.setattr(cli, "default_sweep", watched)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, "check", "--id", "ALZER", "--format", "csv")[0] == 0
        assert seen == [False] and gc.isenabled() is enabled
        # a usage error raised inside the sweep leaves it as found too
        assert run(capsys, "check", "--id", "ALZER", "--grid", "x=lin(-1,1,3)")[0] == 2
        assert run(capsys, "check", "--id", "NO_SUCH_CHECK")[0] == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_sweep_and_its_report_leave_no_cyclic_garbage():
    # what makes holding the collector off during ``check`` safe: the
    # default sweep and its report are freed by reference counting alone
    import gc

    from exptail.cli import render_check_report
    from exptail.inequalities import default_sweep, parse_grid, sweep
    from exptail.precision import PrecisionContext

    ctx = PrecisionContext(53)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        rows = default_sweep(None, ctx)
        render_check_report(rows, ctx, "json", io.StringIO())
        # a grid whose k > n points are skipped
        grid = parse_grid("n=1..3;k=0..5;x=lin(1,2,2)", ctx)
        skipped = sweep(["GEN_K", "NEG_GEN_K", "KUMMER_FORM"], grid, ctx)
        render_check_report(skipped, ctx, "text", io.StringIO())
        del rows, skipped
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_a_sweep_that_raises_leaves_no_cyclic_garbage():
    # a sweep keeps each run's staged sides, which refer to its evaluator,
    # only while it runs, also when a row's usage error ends it
    import gc

    from exptail.errors import UsageError
    from exptail.inequalities import parse_grid, sweep
    from exptail.precision import PrecisionContext

    ctx = PrecisionContext(53)
    grid = parse_grid("n=1..2;x=lin(1,-1,3)", ctx)  # x = 0 ends the first run
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(UsageError, match="requires x > 0"):
            sweep(["ALZER"], grid, ctx)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_importing_the_cli_leaves_the_explorer_unloaded():
    proc = _subprocess("-c", "import sys, exptail.cli; print('exptail.explorer' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")
