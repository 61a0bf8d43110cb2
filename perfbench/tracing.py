"""Spans around the calls into each layer of exptail, recorded from outside
the package.

A span is (name, start_ns, end_ns, parent index, request id, tag).  Spans
are kept in memory and written out when the run ends.  Wrappers replace
every alias of a traced function in every loaded ``exptail`` module, not
only its defining module: ``inequalities`` and ``cli`` call the names they
imported, so a wrapper installed only on ``remainders.r_tail`` would miss
every call made through ``inequalities.r_tail``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# layer -> functions whose calls are spans.  numerics._gauss_legendre_nodes
# is the one non-public boundary: node generation is a layer of its own.
LAYERS = {
    "cli": ("main", "render_check_report"),
    "inequalities": ("evaluate_check", "default_sweep", "sweep"),
    "remainders": ("r_tail", "r_frac", "r_neg", "r_obreshkov", "q_value", "g_ratio",
                   "eps_value", "b_value"),
    "numerics": ("kummer_1f1_one", "lower_incomplete_gamma", "gamma_fn", "quad_integral",
                 "_gauss_legendre_nodes"),
    "pade": ("pade_exp", "eval_approximant", "aitken_row", "cesaro_mean"),
    "precision": ("format_real",),
}

REQUEST_SPAN = "inequalities.evaluate_check"
GL_NODES = "numerics._gauss_legendre_nodes"


def _tag(name, args):
    """What a span remembers of its arguments: the check id of a catalog
    row, the x of a remainder call."""
    if name == REQUEST_SPAN:
        check = args[0]
        return getattr(check, "id", check)
    if name.startswith("remainders.") and len(args) >= 2:
        return float(args[-2])
    return None


def rebind(original, replacement) -> int:
    """Point every alias of ``original`` in the loaded exptail modules at
    ``replacement``; returns how many names were rebound."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "exptail" or mod_name.startswith("exptail.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.requests_started = 0
        self.request = -1
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            outer_request = self.request
            if name == REQUEST_SPAN:
                self.request = self.requests_started
                self.requests_started += 1
            request = self.request
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.request = outer_request
                spans[idx] = (name, start, end, parent, request, _tag(name, args))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS; names a module no longer has are
        recorded in ``missing`` so their metrics read as missing, not 0."""
        for layer, names in LAYERS.items():
            mod = sys.modules[f"exptail.{layer}"]
            for fn_name in names:
                original = getattr(mod, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                rebind(original, self._wrap(f"{layer}.{fn_name}", original))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, requests: int) -> dict:
        """Per-layer figures from the recorded spans; ``requests`` is the
        number of catalog rows or point evaluations the run made."""
        spans = self.spans
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        total_ns = defaultdict(int)
        self_ns = defaultdict(int)
        check_ns = defaultdict(int)
        remainder_calls = 0
        by_regime = {"x_le_1": [0, 0], "x_ge_100": [0, 0]}
        root_ns = 0
        request_ns = []
        for idx, (name, start, end, parent, _, tag) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total_ns[name] += dur
            self_ns[name] += dur - child_ns[idx]
            if parent < 0:
                root_ns += dur
            if name == REQUEST_SPAN:
                check_ns[tag] += dur
                request_ns.append(dur)
            if name.startswith("remainders."):
                remainder_calls += 1
                outermost = parent < 0 or not spans[parent][0].startswith("remainders.")
                regime = None if tag is None else "x_le_1" if tag <= 1 \
                    else "x_ge_100" if tag >= 100 else None
                if outermost and regime:
                    by_regime[regime][0] += 1
                    by_regime[regime][1] += dur
        return {
            "calls": dict(calls),
            "total_s": {k: v / 1e9 for k, v in total_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "check_s": {k: v / 1e9 for k, v in check_ns.items()},
            "remainder_calls": remainder_calls,
            "regime_us": {k: (ns / n / 1e3 if n else 0.0) for k, (n, ns) in by_regime.items()},
            "requests": requests,
            "root_covered_s": root_ns / 1e9,
            "request_ms": [ns / 1e6 for ns in request_ns],
            "missing": list(self.missing),
        }


CHECK_IDS = (
    "ALZER", "GAUTSCHI_K", "GEN_K", "KUMMER_FORM", "INCGAMMA_FORM", "FRACINT_FORM",
    "CHEBYSHEV_GEN", "INTERP", "COR_25", "COR_26", "COR_27", "PROD_28", "REFINED_31",
    "RATIO_32", "FRACMONO_34", "TWO_SIDED_35", "STRENGTH_36", "KIM_37", "KIM_38", "KIM_39",
    "KIM_40", "NEG_ALZER", "NEG_GEN_K", "NEG_SANDWICH", "REVERSE_43", "LINEAR_44",
    "PADE_ROW_45", "SANDWICH_49", "PROB15_BOUNDS",
)
NUMERIC_KERNELS = ("kummer_1f1_one", "lower_incomplete_gamma", "gamma_fn")


def layer_metrics(s: dict, report_bytes: int, cache, wall_s: float, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """name -> (value, unit) for every per-layer metric, from a traced run's
    ``summary`` and that run's ``wall_s``; the median ``traced_wall_s`` and
    ``untraced_wall_s`` of the invocation give the tracing overhead.  A
    metric whose function no longer exists is None."""
    calls, total, self_s = s["calls"], s["total_s"], s["self_s"]

    def count(name):
        return calls.get(name, 0)

    def per_call(table, name, scale):
        return table.get(name, 0.0) / count(name) * scale if count(name) else 0.0

    rows = count(REQUEST_SPAN)
    render_s = total.get("cli.render_check_report", 0.0)
    m = {
        "cli.render_s": (render_s, "s"),
        "cli.render_us_per_row": (render_s / rows * 1e6 if rows else 0.0, "us/row"),
        "cli.report_bytes": (report_bytes, "B"),
        "precision.format_real.calls": (count("precision.format_real"), "count"),
        "precision.format_real.us_per_call": (
            per_call(total, "precision.format_real", 1e6), "us/call"),
        "inequalities.rows": (rows, "count"),
        "inequalities.row_self_us": (per_call(self_s, REQUEST_SPAN, 1e6), "us/row"),
        "inequalities.cache_hit_frac": (
            None if cache is None else cache[0] / max(1, cache[0] + cache[1]), "ratio"),
    }
    for cid in CHECK_IDS:
        m[f"inequalities.check.{cid}.s"] = (s["check_s"].get(cid, 0.0), "s")
    m["remainders.calls_per_row"] = (
        s["remainder_calls"] / s["requests"] if s["requests"] else 0.0, "calls/row")
    for fn in LAYERS["remainders"]:
        m[f"remainders.{fn}.calls"] = (count(f"remainders.{fn}"), "count")
        m[f"remainders.{fn}.self_us"] = (per_call(self_s, f"remainders.{fn}", 1e6), "us/call")
    for regime, us in s["regime_us"].items():
        m[f"remainders.us_per_call.{regime}"] = (us, "us/call")
    for fn in NUMERIC_KERNELS:
        m[f"numerics.{fn}.calls"] = (count(f"numerics.{fn}"), "count")
        m[f"numerics.{fn}.self_us"] = (per_call(self_s, f"numerics.{fn}", 1e6), "us/call")
    quad = "numerics.quad_integral"
    m[f"{quad}.calls"] = (count(quad), "count")
    m[f"{quad}.self_s"] = (self_s.get(quad, 0.0), "s")
    m[f"{quad}.ms_per_call"] = (per_call(total, quad, 1e3), "ms/call")
    m["numerics.gl_nodes.calls"] = (count(GL_NODES), "count")
    m["numerics.gl_nodes.s"] = (total.get(GL_NODES, 0.0), "s")
    for fn in LAYERS["pade"]:
        m[f"pade.{fn}.calls"] = (count(f"pade.{fn}"), "count")
        m[f"pade.{fn}.us_per_call"] = (per_call(total, f"pade.{fn}", 1e6), "us/call")
    m["trace.overhead_frac"] = ((traced_wall_s - untraced_wall_s) / untraced_wall_s, "ratio")
    m["trace.uncovered_frac"] = (1 - s["root_covered_s"] / wall_s, "ratio")
    for gone in s["missing"]:
        prefix = "numerics.gl_nodes." if gone == GL_NODES else gone + "."
        for name, (_, unit) in m.items():
            if name.startswith(prefix):
                m[name] = (None, unit)
    return m
