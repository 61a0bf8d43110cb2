"""What the benchmark under perfbench/ reads of the package.

Its traced metrics are looked up by function name and its cache hit ratio
from the caches of ``inequalities``; a function renamed away or a cache
without ``cache_info`` turns those metrics into nulls, which the benchmark
rejects as malformed output.
"""

import importlib
import logging
import sys
from pathlib import Path

import pytest

from exptail import inequalities
from exptail.precision import PrecisionContext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module", autouse=True)
def perfbench_on_path():
    sys.path.insert(0, str(PERFBENCH))
    yield
    sys.path.remove(str(PERFBENCH))


def test_every_traced_function_exists():
    tracing = importlib.import_module("tracing")
    missing = [f"{layer}.{name}" for layer, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"exptail.{layer}"), name, None))]
    assert missing == []


def test_inequalities_caches_report_hits_and_misses():
    worker = importlib.import_module("worker")
    inequalities.evaluate_check("ALZER", PrecisionContext(53), {"n": 2, "x": 1})
    counts = worker._cache_counts()
    assert counts is not None
    hits, misses = counts
    assert isinstance(hits, int) and isinstance(misses, int) and hits + misses > 0


def test_one_evaluate_check_call_per_row(monkeypatch, caplog):
    # the benchmark's row span: perfbench/tracing.py rebinds the module-level
    # evaluate_check and counts its calls as rows, so every row of a sweep,
    # an escalated one too, is exactly one call
    calls = []
    original = inequalities.evaluate_check

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(inequalities, "evaluate_check", counted)
    with caplog.at_level(logging.INFO, logger="exptail"):
        rows = inequalities.default_sweep(None, PrecisionContext(53))
    assert calls == [row.check for row in rows] and len(rows) == 10357
    assert [r.getMessage() for r in caplog.records] == \
        ["rows escalated from 53 bits: 54 to 106, 15 to 212"]
