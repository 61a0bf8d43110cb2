"""One cold run of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json config>'

The config's ``mode`` is ``setup`` (import the CLI and exit), ``catalog``
(call ``exptail.cli.main`` with ``argv``) or ``points`` (evaluate ``count``
seeded points at ``bits``).  With ``trace`` set, spans are recorded around
every layer function and written to ``spans``.  The result is printed as
one JSON line; times are ``time.monotonic()`` readings, which share one
clock with the parent process.

Nothing but the standard library is imported before ``exptail.cli``, so
the ``ready`` stamp is the set-up cost a user of the CLI pays.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import exptail.cli  # noqa: E402

READY = time.monotonic()

import resource  # noqa: E402

import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402

from exptail import inequalities  # noqa: E402
from exptail.precision import PrecisionContext  # noqa: E402

import points  # noqa: E402
import tracing  # noqa: E402


def _stamp() -> dict:
    """End of the measured part of a run: clock, CPU seconds, peak RSS."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"done": time.monotonic(), "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def _cache_counts():
    """(hits, misses) summed over the module-level caches of inequalities,
    or None when it has none."""
    infos = [v.cache_info() for v in vars(inequalities).values()
             if callable(getattr(v, "cache_info", None))]
    if not infos:
        return None
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_catalog(config, tracer):
    code = exptail.cli.main(config["argv"])
    return dict(_stamp(), **{
        "exit_code": code,
        "requests": None if tracer is None else tracer.requests_started,
    })


def run_points(config, tracer):
    ctx = PrecisionContext(config["bits"])
    batch = points.make_points(config["seed"], config["count"])
    for name in points.FUNCTIONS:
        points.evaluate(dict(points.WARMUP_POINT, fn=name), ctx)
    if tracer is not None:
        tracer.install()
    values, latencies_ns = [], []
    for i, point in enumerate(batch):
        if tracer is not None:
            tracer.request = i
        start = time.monotonic_ns()
        try:
            values.append(points.evaluate(point, ctx))
        except Exception as exc:  # a raising evaluation is a failed operation
            values.append(exc)
        latencies_ns.append(time.monotonic_ns() - start)
    stamp = _stamp()

    tolerance = 100 * ctx.target_rel_err
    failures = []
    for point, value in zip(batch, values):
        if isinstance(value, Exception):
            failures.append({"fn": point["fn"], "args": points.args_of(point),
                             "error": repr(value)})
            continue
        ok, err = points.gate(point, value, ctx.bits, tolerance)
        if not ok:
            failures.append({"fn": point["fn"], "args": points.args_of(point),
                             "rel_err": float(err)})
    return dict(stamp, **{
        "attempted": len(batch),
        "failures": failures,
        "tolerance": float(tolerance),
        "latencies_ms": [ns / 1e6 for ns in latencies_ns],
        "requests": len(batch),
    })


def main(config):
    result = {"ready": READY}
    if config["mode"] != "setup":
        tracer = None
        if config.get("trace"):
            tracer = tracing.Tracer()
            if config["mode"] == "catalog":  # points installs it after its warm-up
                tracer.install()
        run = run_catalog if config["mode"] == "catalog" else run_points
        result.update(run(config, tracer), cache=_cache_counts())
        if tracer is not None:
            result["trace"] = tracer.summary(result["requests"])
            tracer.write(config["spans"])
    result.update(python=sys.version.split()[0], mpmath=mpmath.__version__,
                  mpmath_backend=mpmath.libmp.BACKEND)
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
