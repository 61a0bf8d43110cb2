"""exptail benchmark: cold catalog sweeps and a seeded point-evaluation stream.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (one caller in a closed loop, no threads, every run a fresh
interpreter so the package's process-lifetime caches start cold):

* ``catalog_256``  - ``exptail check --id all --format json --out FILE``,
  the default grid at 256 bits.  Mostly cached series, FRACMONO_34
  quadrature and JSON rendering.
* ``points_256``   - independent library evaluations of every remainder
  variant and derived quantity at seeded arguments (see points.py): no
  sweep cache, no quadrature, no rendering.

The catalog grid is fixed, because it is the command users run; the seed
drives only ``points_256``, and every cold run of one invocation evaluates
the same batch.

With ``--trace 0`` the run repeats segments while one more, as long as
the longest so far, would end within ``--seconds`` (at least one).  A
segment is a few launches that only import the CLI and one cold run.
The shared host this benchmark was defined on changes speed by up to
1.8x, for seconds to minutes at a time, so the benchmark measures the
speed each launch had: it pins itself and its workers to one CPU, stops
the worker every SLICE_S seconds, times a fixed slice of mpmath work
(which shares no code with exptail) while it is stopped, and lets it go
on.  A launch's times exclude the pauses, and are also given in
*reference seconds*: measured seconds x CALIBRATION_REF_S / the mean
calibration slice taken while it ran (for the setup launches, while the
segment's group of them ran).  (CPU seconds, which the account
prints next to wall seconds, are sampled by the kernel's clock tick; in
a paced run they can read up to a tenth above the active wall time.)
The end-to-end metrics are medians
over the invocation of these reference-speed figures: setup_s over every
launch; wall_s, ops_per_s and peak_rss_mb over the cold runs.  The
account above the result gives the measured seconds next to them.
With ``--trace 1`` nothing is paused or scaled: a segment holds one
untraced and one traced cold run on the same inputs, and the result is
the per-layer metrics of the first traced run and the tracing overhead
between the median measured wall times of the two sides.  There,
op_p50_ms and op_p99_ms are the catalog rows' latencies from the first
traced run's ``evaluate_check`` spans, or the evaluations' latencies of
the first untraced ``points_256`` run, timed by its own loop; the
account gives their sample count and the highest percentile with ten
samples beyond it.  Row latencies of the catalog are no
end-to-end metric: their median and 99th percentile fall where the
latency distribution jumps (cached rows against computed ones), so they
moved by a third between seeds.

Every run checks its outputs: a catalog report must parse, carry the
record schema the CLI tests expect, agree with its own summary and exit
code, be byte-identical across all cold runs of one invocation, and match
reference.json: the rows per check id, and their params, x, lhs, rhs and
status to 50 digits, as this benchmark's first commit produced them
(``--record-reference`` rewrites the entry).  Every point evaluation is
compared with an independent reference.  Rows that are not PASS and
evaluations outside tolerance are the ``failed`` count, so fail_frac is
failed / attempted.  Cold runs repeat the same operations to time them,
so ``attempted`` and ``failed`` count each distinct operation once, and
every repeat must give the same outputs and the same failures as the
first.  ``correct`` is false when a report is malformed, when runs
disagree, or when a report differs from the reference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable account, and ``perfbench/out/<workload>.result.json``
keeps every run's record.  ``--smoke`` runs each workload at a tiny size.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

# Every invocation must end within 180 s; children are killed past this.
DEADLINE_S = 170.0
# Launches that only import the CLI, before each cold run, so that
# setup_s samples the whole run rather than its first seconds.  Each group
# is scaled by its own calibration slices: over 12 groups of 10 launches
# the quartiles of the measured medians were 12 % of their median apart,
# and those of the scaled ones 6 %.
SETUP_PROBES = 8
# Workers run in turns of SLICE_S seconds.  Between turns a calibration
# slice of CALIBRATION_CALLS evaluations of 1F1(1; b; x) at 256 bits runs
# in this process.  CALIBRATION_REF_S is a slice's typical time between
# turns on the 2-vCPU Xeon VM (Python 3.11.7, mpmath 1.3.0, python
# backend) where the benchmark was defined; it fixes the unit of every
# reported time and must not change.
SLICE_S = 0.05
CALIBRATION_CALLS = 100
CALIBRATION_REF_S = 0.008

_CHECK = ["check", "--format", "json"]
WORKLOADS = {
    "catalog_256": {"mode": "catalog", "argv": _CHECK + ["--id", "all"],
                    "reference": "catalog_256"},
    "points_256": {"mode": "points", "bits": 256, "count": 1300},
}
SMOKE_WORKLOADS = {
    "catalog_256": {"mode": "catalog",
                    "argv": _CHECK + ["--id", "ALZER,GAUTSCHI_K,FRACMONO_34,PADE_ROW_45",
                                      "--grid", "x=log(1e-3,30,2)"],
                    "reference": "catalog_256.smoke"},
    "points_256": {"mode": "points", "bits": 256, "count": 26},
}

RECORD_KEYS = ["check", "params", "x", "lhs", "rhs", "margin", "ratio", "status", "err_bound"]
STATUSES = ("PASS", "FAIL", "INDET", "ERROR")
# Significant digits of x, lhs and rhs that the reference pins.  The
# package promises agreement to 100 * target_rel_err (about 4e-66 at 256
# bits), so a correct change moves none of the first 50 digits; a value
# rounds differently at digit 50 only if digits 51-66 sit on a rounding
# boundary, about one chance in 1e16 per value.
REFERENCE_DIGITS = 50


class BenchError(Exception):
    """A run could not be measured: a worker crashed or timed out."""


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark reads nothing outside its checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float | None:
    """The highest of the usual percentiles with at least ten samples
    beyond it."""
    for p in (99.99, 99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p
    return None


# ---------------------------------------------------------------------------
# runs


class Bench:
    def __init__(self, workload: str, spec: dict, seed: int, paced: bool = True):
        self.spec, self.seed, self.paced = spec, seed, paced
        self.start = time.monotonic()
        self.report = OUT / f"{workload}.report.json"
        self.spans = OUT / f"{workload}.spans.jsonl"

    def spawn(self, config: dict) -> dict:
        """Run one worker to its end.  A paced bench pauses it every SLICE_S
        seconds for a calibration slice (see ``paced``), and its times
        exclude the pauses."""
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before the next run")
        loadavg = os.getloadavg()
        stdout, stderr = OUT / "worker.out", OUT / "worker.err"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            launch = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(config)], cwd=ROOT,
                                    stdout=out, stderr=err)
            try:
                if self.paced:
                    pauses, cal_s, slices = paced(proc, launch + remaining)
                else:
                    pauses, cal_s, slices = [], 0.0, 0
                    proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"worker timed out after {remaining:.0f} s") from exc
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        text = stdout.read_text().strip()
        if proc.returncode != 0 or not text:
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             f"{stderr.read_text()[-3000:]}")
        res = json.loads(text.splitlines()[-1])
        res.update(launch=launch, loadavg=loadavg, cal_s=cal_s, cal_slices=slices,
                   setup_s=active(launch, res["ready"], pauses))
        if "done" in res:
            res["wall_s"] = active(launch, res["done"], pauses)
            res["cpu_per_wall"] = res["cpu_s"] / res["wall_s"]
        return res

    def setup_probes(self, count: int) -> list:
        return [self.spawn({"mode": "setup"}) for _ in range(count)]

    def cold_run(self, traced: bool) -> dict:
        if self.spec["mode"] == "catalog":
            return self._catalog_run(traced)
        return self._points_run(traced)

    def _catalog_run(self, traced: bool) -> dict:
        argv = self.spec["argv"] + ["--out", str(self.report)]
        res = self.spawn({"mode": "catalog", "argv": argv, "trace": traced,
                          "spans": str(self.spans)})
        data = self.report.read_bytes()
        res["sha256"] = hashlib.sha256(data).hexdigest()
        res["report_bytes"] = len(data)
        res["rows"], res["failed"], res["problems"] = check_report(
            data, res["exit_code"], report_bits(self.spec["argv"]), self.spec["reference"])
        return res

    def _points_run(self, traced: bool) -> dict:
        res = self.spawn({"mode": "points", "bits": self.spec["bits"], "count": self.spec["count"],
                          "seed": self.seed, "trace": traced, "spans": str(self.spans)})
        res["rows"] = res["attempted"]
        res["failed"] = len(res["failures"])
        res["report_bytes"] = 0
        res["problems"] = [] if len(res["latencies_ms"]) == res["attempted"] else [
            "latency count differs from evaluations attempted"]
        return res


def report_bits(argv: list) -> int:
    return int(argv[argv.index("--bits") + 1]) if "--bits" in argv else 256


def _rounded(text: str) -> str:
    try:
        with decimal.localcontext() as ctx:
            ctx.prec = REFERENCE_DIGITS
            return str(+decimal.Decimal(text))
    except decimal.InvalidOperation:
        return text


def row_digests(records: list) -> dict:
    """check id -> [rows, sha256 of its rows' params, x, lhs, rhs and status
    in report order, the reals rounded to REFERENCE_DIGITS digits]."""
    hashes, rows = {}, Counter()
    for r in records:
        line = json.dumps([r["params"], _rounded(r["x"]), _rounded(r["lhs"]),
                           _rounded(r["rhs"]), r["status"]], sort_keys=True)
        hashes.setdefault(r["check"], hashlib.sha256()).update(line.encode() + b"\n")
        rows[r["check"]] += 1
    return {check: [rows[check], h.hexdigest()] for check, h in hashes.items()}


def load_reference(name: str) -> dict:
    return json.loads(REFERENCE.read_text())[name]


def check_report(data: bytes, exit_code: int, bits: int,
                 reference: str | None) -> tuple[int, int, list]:
    """(rows, rows not PASS, problems) of one JSON check report, compared
    with the named entry of reference.json, which holds the rows per check
    id and the digests of their values at the commit that defined the
    benchmark.  Exit code 1 means FAIL rows and 3 ERROR rows; both are
    counted, not crashes."""
    problems = []
    doc = json.loads(data)
    records = doc["records"]
    if doc.get("precision_bits") != bits:
        problems.append(f"precision_bits {doc.get('precision_bits')} != {bits}")
    bad = sum(1 for r in records if list(r) != RECORD_KEYS)
    if bad:
        problems.append(f"{bad} records without the keys {RECORD_KEYS}")
    counts = Counter(r.get("status") for r in records)
    unknown = set(counts) - set(STATUSES)
    if unknown:
        problems.append(f"unknown statuses {sorted(map(str, unknown))}")
    summary = doc.get("summary", {})
    if any(summary.get(s) != counts.get(s, 0) for s in STATUSES) \
            or summary.get("total") != len(records):
        problems.append(f"summary {summary} disagrees with the records {dict(counts)}")
    expected = 3 if counts.get("ERROR") else 1 if counts.get("FAIL") else 0
    if exit_code != expected:
        problems.append(f"exit code {exit_code}, expected {expected} from the statuses")
    if reference is not None and not bad:
        want, got = load_reference(reference), row_digests(records)
        for check in sorted(set(want) | set(got)):
            w, g = want.get(check, [0, None]), got.get(check, [0, None])
            if w[0] != g[0]:
                problems.append(f"{check}: {g[0]} rows, the reference has {w[0]}")
            elif w[1] != g[1]:
                problems.append(f"{check}: params, x, lhs, rhs or status differ from the "
                                f"reference in the first {REFERENCE_DIGITS} digits")
    return len(records), len(records) - counts.get("PASS", 0), problems


# ---------------------------------------------------------------------------
# metrics


def calibration_slice() -> float:
    """Seconds this process takes for one slice of calibration work."""
    with mp.workprec(256):
        start = time.monotonic()
        for k in range(CALIBRATION_CALLS):
            mp.hyp1f1(1, mpf(k % 8) / 4 + 1.5, mpf(k % 11) / 8 + 0.125)
        return time.monotonic() - start


def paced(proc: subprocess.Popen, deadline: float) -> tuple[list, float, int]:
    """Let the worker run in turns of SLICE_S seconds, with a calibration
    slice in this process between turns while the worker is stopped, until
    it exits (at least one slice, after the exit of a worker that ended
    within its first turn).  Returns the pauses as (stop, continue) clock
    pairs, the calibration seconds and the slice count.

    On a shared 2-vCPU Xeon VM the same points_256 batch took 3.6 to 5.3 s
    in cold runs minutes apart, with CPU time equal to wall time: the host
    changes speed, for seconds to minutes at a time.  Over 8 such runs the
    quartiles of the measured times were 22 % of their median apart, and
    those of the reference-speed times 5 %."""
    pauses, cal_s, slices = [], 0.0, 0
    while True:
        time.sleep(SLICE_S)
        if proc.poll() is not None:
            if not slices:
                cal_s, slices = calibration_slice(), 1
            return pauses, cal_s, slices
        if time.monotonic() > deadline:
            raise subprocess.TimeoutExpired(proc.args, SLICE_S)
        os.kill(proc.pid, signal.SIGSTOP)
        stop = time.monotonic()
        cal_s += calibration_slice()
        slices += 1
        os.kill(proc.pid, signal.SIGCONT)
        pauses.append((stop, time.monotonic()))


def active(launch: float, end: float, pauses: list) -> float:
    """Seconds from launch to end, less the pauses within them."""
    return end - launch - sum(max(0.0, min(b, end) - max(a, launch)) for a, b in pauses)


def scale_group(launches: list) -> None:
    """Give every launch of a group its times in reference seconds, from
    the mean calibration slice taken while they ran."""
    slice_s = sum(r["cal_s"] for r in launches) / sum(r["cal_slices"] for r in launches)
    scale = CALIBRATION_REF_S / slice_s
    for r in launches:
        r["scale"] = scale
        r["setup_ref_s"] = r["setup_s"] * scale
        if "wall_s" in r:
            r["wall_ref_s"] = r["wall_s"] * scale


def latency_metrics(latencies: list) -> dict:
    """Median and 99th percentile latency of one evaluation or catalog row."""
    return {"op_p50_ms": (percentile(latencies, 50), "ms"),
            "op_p99_ms": (percentile(latencies, 99), "ms")}


def end_to_end_metrics(runs: list, setups: list) -> tuple[dict, dict]:
    """Medians over the invocation, in reference seconds: setup_s over every
    launch, the others over the cold runs."""
    med = statistics.median
    metrics = {
        "setup_s": (med(r["setup_ref_s"] for r in setups), "s"),
        "wall_s": (med(r["wall_ref_s"] for r in runs), "s"),
        "ops_per_s": (med(r["rows"] / (r["wall_ref_s"] - r["setup_ref_s"]) for r in runs),
                      "1/s"),
        "peak_rss_mb": (med(r["maxrss_kb"] for r in runs) * 1024 / 1e6, "MB"),
    }
    detail = {
        "setup_samples": len(setups),
        "cold_runs": len(runs),
        "measured_setup_s": med(r["setup_s"] for r in setups),
        "measured_wall_s": med(r["wall_s"] for r in runs),
        "scale": [r["scale"] for r in runs],
    }
    return metrics, detail


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload]
    # Traced runs are not paced: their spans use the worker's own clock.
    bench = Bench(workload, spec, seed, paced=not trace)
    env = environment()
    # The first launch compiles bytecode; users pay that once per install.
    bench.setup_probes(1)
    probes = 0 if trace else 1 if smoke else SETUP_PROBES
    calibration_slice()  # warms mpmath's caches in this process

    # Segments of setup probes and an untraced cold run, or an untraced and
    # traced pair on the same inputs, while one more, as long as the longest
    # so far, would end within the run's seconds.
    runs, traced, durations, setups = [], [], [], []
    while True:
        began = time.monotonic()
        group = bench.setup_probes(probes)
        runs.append(bench.cold_run(traced=False))
        if trace:
            traced.append(bench.cold_run(traced=True))
        else:
            scale_group(group)
            scale_group(runs[-1:])
        setups += group + runs[-1:] + traced[-1:]
        durations.append(time.monotonic() - began)
        if smoke or time.monotonic() - bench.start + max(durations) > seconds:
            break

    checked = runs + traced
    problems = [p for r in checked for p in r["problems"]]
    key = "sha256" if spec["mode"] == "catalog" else "failures"
    if any(r[key] != runs[0][key] for r in checked):
        problems.append(f"cold runs of the same inputs disagree on their {key}")
    attempted, failed = runs[0]["rows"], runs[0]["failed"]

    if trace:
        first = traced[0]
        metrics = tracing.layer_metrics(
            first["trace"], first["report_bytes"], first["cache"], first["wall_s"],
            statistics.median(r["wall_s"] for r in traced),
            statistics.median(r["wall_s"] for r in runs))
        latencies = (first["trace"]["request_ms"] if spec["mode"] == "catalog"
                     else runs[0]["latencies_ms"])
        metrics.update(latency_metrics(latencies))
        tail = tail_percentile(len(latencies))
        detail = {"trace_pairs": len(traced), "latency_samples": len(latencies),
                  "latency_tail": None if tail is None
                  else {"p": tail, "ms": percentile(latencies, tail)}}
    else:
        metrics, detail = end_to_end_metrics(runs, setups)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "env": dict(env, python=runs[0]["python"], mpmath=runs[0]["mpmath"],
                    mpmath_backend=runs[0]["mpmath_backend"]),
        "setup_samples_s": setups,
        "runs": [{k: v for k, v in r.items() if k not in ("latencies_ms", "trace")}
                 for r in checked],
        "detail": detail,
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_reference(workload: str, smoke: bool) -> int:
    spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload]
    if spec["mode"] != "catalog":
        print(f"error: {workload} has no reference report", file=sys.stderr)
        return 2
    bench = Bench(workload, spec, 0)
    res = bench.spawn({"mode": "catalog", "argv": spec["argv"] + ["--out", str(bench.report)]})
    records = json.loads(bench.report.read_bytes())["records"]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference[spec["reference"]] = row_digests(records)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{spec['reference']}: {len(records)} rows, exit code {res['exit_code']}")
    return 0


def print_account(result: dict) -> None:
    print(f"exptail benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={int(result['trace'])}"
          f"{' smoke' if result['smoke'] else ''}")
    print(f"env: {json.dumps(result['env'])}")
    for i, r in enumerate(result["runs"]):
        ref = (f" ({r['wall_ref_s']:.3f} ref), setup {r['setup_s']:.3f} s "
               f"({r['setup_ref_s']:.3f} ref)") if "scale" in r else f", setup {r['setup_s']:.3f} s"
        print(f"run {i}: wall {r['wall_s']:.3f} s{ref}, "
              f"cpu {r['cpu_s']:.3f} s (cpu/wall {r['cpu_per_wall']:.3f}), "
              f"rss {r['maxrss_kb'] / 1024:.1f} MiB, rows {r['rows']}, failed {r['failed']}, "
              f"loadavg {r['loadavg'][0]:.2f}"
              + (f", sha256 {r['sha256'][:16]}" if "sha256" in r else ""))
        for f in r.get("failures", []) if i == 0 else []:
            args = " ".join(f"{k}={v!r}" for k, v in f["args"].items())
            what = f"rel_err={f['rel_err']:.3e}" if "rel_err" in f else f["error"]
            print(f"  fail {f['fn']} {args} {what}")
    if result["detail"]:
        print(f"samples: {json.dumps(result['detail'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value} {unit}")
    print(f"fail_frac = {result['failed'] / result['attempted']} ratio "
          f"({result['failed']} of {result['attempted']})")
    for p in result["problems"]:
        print(f"problem: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one run")
    ap.add_argument("--record-reference", action="store_true",
                    help="make one cold catalog run and store its row digests in reference.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "exptail" / "cli.py").is_file():
        print(f"error: no exptail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # A terminated benchmark unwinds, so that a worker it has stopped is
    # killed and reaped rather than left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # One CPU for this process and its workers, so that the calibration
    # slices run where the work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.record_reference:
        return record_reference(args.workload, args.smoke)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}.result.json").write_text(json.dumps(result, indent=1) + "\n")
    print_account(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
