"""Run every workload several times, one seed per run, and record the
end-to-end figures of this commit as the baseline.

Usage (from the repository root):

    python3 perfbench/baseline.py [--runs 10] [--seconds S] [--workload NAME ...] [--out FILE]

For each workload and end-to-end metric it prints the median of the runs
and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  S defaults to the run_seconds of
BENCHMARK.json; the figures are written to FILE, by default
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=config["run_seconds"])
    ap.add_argument("--workload", nargs="*", default=[w["name"] for w in config["workloads"]])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    table = {}
    for workload in args.workload:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            rows[name] = {"unit": results[0]["metrics"][name]["unit"],
                          "median": statistics.median(values), "spread": spread(values),
                          "bound": bound, "values": values}
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        table[workload] = {"metrics": rows, "attempted": attempted, "failed": failed,
                           "fail_frac": failed / attempted,
                           "correct": all(r["correct"] for r in results)}

    for workload, entry in table.items():
        print(f"\n{workload}: correct={entry['correct']} "
              f"fail_frac={entry['fail_frac']:.4g} ({entry['failed']} of {entry['attempted']})")
        for name, row in entry["metrics"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <- wide"
            print(f"  {name:12s} {row['median']:12.6g} {row['unit']:4s} "
                  f"spread {row['spread']:.4f} (bound {row['bound']}){flag}")
    Path(args.out).write_text(json.dumps({"runs": args.runs, "seconds": args.seconds,
                                          "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
