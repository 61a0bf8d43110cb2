"""Self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

* Runs every workload at a tiny size (``run.py --smoke``), untraced and
  traced, and checks that the last line is the result object with exactly
  the metrics BENCHMARK.json names, each with its unit.
* Shows that the ``points_256`` gate is not vacuous: every function's value
  at an ordinary point passes, and the same value perturbed far beyond
  the tolerance fails.
* Shows that the catalog report check catches a summary that disagrees
  with its records, a dropped row, and a value that moved beyond the
  package's tolerance, and lets a move within it pass.
* Checks that a paced worker's times leave out its pauses, and that a
  paced run records calibration slices.
* Checks that the benchmark fails, without printing a result, in a copy
  that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from mpmath import mp  # noqa: E402

import points  # noqa: E402
import run  # noqa: E402
from exptail.precision import PrecisionContext  # noqa: E402


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_smoke_runs(config: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    assert {w["name"] for w in config["workloads"]} <= set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] is True, proc.stdout
            assert isinstance(out["attempted"], int) and out["attempted"] >= 1
            assert isinstance(out["failed"], int) and 0 <= out["failed"] <= out["attempted"]
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            assert units == expected[trace], (workload, trace, set(units) ^ set(expected[trace]))
            for name, entry in out["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (workload, name, entry)
            if trace == 0:
                assert all(v["value"] > 0 for v in out["metrics"].values()), out["metrics"]
            print(f"ok   smoke {workload} trace={trace}: {out['attempted']} attempted, "
                  f"{out['failed']} failed, {len(units)} metrics")


def check_gate() -> None:
    ctx = PrecisionContext(256)
    tolerance = 100 * ctx.target_rel_err
    for name in points.FUNCTIONS:
        point = dict(points.WARMUP_POINT, fn=name)
        value = points.evaluate(point, ctx)
        ok, err = points.gate(point, value, ctx.bits, tolerance)
        assert ok, f"{name} fails the gate at an ordinary point: rel err {err}"
        with mp.workprec(2 * ctx.bits):
            perturbed = value * (1 + 1000 * tolerance)
        ok, err = points.gate(point, perturbed, ctx.bits, tolerance)
        assert not ok, f"{name}: a value off by {err} passes the gate"
    print(f"ok   gate: {len(points.FUNCTIONS)} functions pass unperturbed and fail perturbed")


def check_report_check() -> None:
    report = {"precision_bits": 256, "target_rel_err": "1",
              "records": [dict.fromkeys(run.RECORD_KEYS, "0") | {"status": "PASS"}],
              "summary": {"PASS": 1, "FAIL": 0, "INDET": 0, "ERROR": 0, "total": 1}}
    data = json.dumps(report).encode()
    assert run.check_report(data, 0, 256, None) == (1, 0, [])
    report["records"][0]["status"] = "FAIL"
    rows, failed, problems = run.check_report(json.dumps(report).encode(), 0, 256, None)
    assert (rows, failed) == (1, 1) and len(problems) == 2, problems
    print("ok   report check flags a summary and exit code that disagree with the records")

    # The smoke report against its reference: as produced it passes; a
    # dropped row, or an lhs moved by 1e-40 relative, is a problem; an lhs
    # moved by 1e-70, inside 100 * target_rel_err, is not.
    spec = run.SMOKE_WORKLOADS["catalog_256"]
    bench = run.Bench("catalog_256", spec, 0)
    res = bench.spawn({"mode": "catalog", "argv": spec["argv"] + ["--out", str(bench.report)]})
    doc = json.loads(bench.report.read_bytes())

    def problems_of(records):
        doc2 = dict(doc, records=records, summary=dict(doc["summary"], PASS=len(records),
                                                       total=len(records)))
        return run.check_report(json.dumps(doc2).encode(), res["exit_code"], 256,
                                spec["reference"])[2]

    def moved(rel):
        records = [dict(r) for r in doc["records"]]
        with mp.workprec(400):
            records[3]["lhs"] = mp.nstr(mp.mpf(records[3]["lhs"]) * (1 + mp.mpf(rel)), 100)
        return records

    assert problems_of(doc["records"]) == []
    dropped = problems_of(doc["records"][:5] + doc["records"][6:])
    assert len(dropped) == 1 and "rows" in dropped[0], dropped
    assert len(problems_of(moved("1e-40"))) == 1
    assert problems_of(moved("1e-70")) == []
    print("ok   report check flags a dropped row and a moved value against the reference")


def check_pacing() -> None:
    pauses = [(1.0, 1.5), (3.0, 4.0), (9.0, 9.5)]
    assert run.active(0.5, 8.0, pauses) == 7.5 - 1.5
    assert run.active(1.2, 3.5, pauses) == 2.3 - 0.3 - 0.5
    res = run.Bench("points_256", run.SMOKE_WORKLOADS["points_256"], 1).cold_run(traced=False)
    assert res["cal_slices"] > 0 and res["cal_s"] > 0, res
    run.scale_group([res])
    assert res["wall_ref_s"] == res["wall_s"] * res["scale"] > 0
    print(f"ok   pacing: pauses left out, {res['cal_slices']} calibration slices in a smoke run")


def check_bare_copy() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "points_256", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print(f"ok   bare copy exits {proc.returncode} without a result")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_report_check()
    check_pacing()
    check_bare_copy()
    check_smoke_runs(config)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
