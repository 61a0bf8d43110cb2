"""The value streams of the ``points_256`` benchmark workload, pinned.

Each digest is the SHA-256 of one function's raw values (``repr`` of the
``_mpf_`` tuple, or of the error a point raises) over perfbench/points.py's
1,300 evaluations, in stream order, truncated to 16 hex digits.  A change
to the evaluation code that moves any bit of any value shows here.
g_ratio's values are also held to mpmath, so a deliberate change of its
route can be judged before its digests are renewed.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest
from mpmath import mp

from conftest import rel_err
from exptail.precision import PrecisionContext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (seed, bits) of each stream, in the order of the digests below
STREAMS = [(1, 256), (2, 256), (3, 256), (1, 53), (1, 1024)]

DIGESTS = {
    "r_tail": ("88d69dab33b9af1f", "b9688f45d36c3dfd", "ac6f102fe96d4054", "8ba4a517baeffae5",
               "0056bfa6cd58094d"),
    "r_frac": ("a2f78a51fff01762", "ccffe0c6fff66d59", "c94536392dd7d88e", "57ce128a1b0ba37c",
               "a9f60fd6fb6f9c43"),
    "r_neg": ("95c4bc353525daea", "6c83f539e45619fd", "ac50b3b33425804d", "caceb3c7986dc0fe",
              "5b6c69db8c8e7970"),
    "r_obreshkov": ("56032da76862a299", "63146788f5bc8dc3", "2577c844501bd15f",
                    "e4a0a5ca7a7fad07", "6e1a3f5f1c9cb979"),
    "q_value": ("33a15ceb672620b2", "ed297e50a920423b", "df610d251a8f2929", "16b416d559c7bb82",
                "36ed17aede17eaf6"),
    "g_ratio": ("45bbdd6d62600a2b", "87b14a85127d5b9b", "a5428151f9b0b198", "f41f49c90d533695",
                "97c7690f51a5ebd9"),
    "eps_value": ("57ae9915ba3b4177", "da0c67950a014c96", "33df4034bcb3a426",
                  "9bf5e30ce467f227", "2ce7e4b07de62f85"),
    "b_value": ("44e2d193f8104a16", "28b1ca42549fafda", "148c794d18ac7039", "4f48ee6d805bb57a",
                "106660a33f4b5320"),
    "lower_incomplete_gamma": ("f4199dad66d3d32c", "451a60b39b013f27", "bca95e463e4c9f87",
                               "2d8ab06af15d5e06", "356f2105c3ae514a"),
    "kummer_1f1_one": ("e441a4db98713a8a", "729e21725404f517", "29094cd9bda876d9",
                       "e448efab8024a7f6", "109c1a3e9060a909"),
    "eval_approximant": ("a9e9afcaf259a9f3", "d5bdc4cc1c12e02e", "8b7a27bb44bfc865",
                         "c446d8a05adec6ba", "076fcb2ae4fe8bc2"),
    "aitken_row": ("30860077d3164dff", "cc6fdf49432a280f", "030f39c87ba5c1db",
                   "4795148b222672e2", "b37461734d892778"),
    "cesaro_mean": ("de886d128621288a", "54b76197b6ae829a", "a8d91bce4ce7a1fc",
                    "9a41bd1d84c0d27e", "367783710f1c9553"),
}


@pytest.fixture(scope="module")
def points():
    sys.path.insert(0, str(PERFBENCH))
    yield importlib.import_module("points")
    sys.path.remove(str(PERFBENCH))


def _stream(points, seed, bits):
    """[(point, value or error)] of one stream, and each function's digest."""
    ctx = PrecisionContext(bits)
    values, lines = [], {name: [] for name in points.FUNCTIONS}
    for point in points.make_points(seed, 1300):
        try:
            value = points.evaluate(point, ctx)
            line = repr(value._mpf_)
        except Exception as exc:  # a raising point is part of the stream
            value, line = exc, repr(exc)
        values.append((point, value))
        lines[point["fn"]].append(line)
    digests = {name: hashlib.sha256("\n".join(got).encode()).hexdigest()[:16]
               for name, got in lines.items()}
    return values, digests


@pytest.mark.parametrize("index", range(len(STREAMS)), ids=[f"seed{s}-{b}" for s, b in STREAMS])
def test_points_value_streams_are_pinned(points, index):
    seed, bits = STREAMS[index]
    values, digests = _stream(points, seed, bits)
    assert digests == {name: pins[index] for name, pins in DIGESTS.items()}
    ctx = PrecisionContext(bits)
    for point, value in values:
        if point["fn"] != "g_ratio":
            continue
        n, x = point["n"], point["x"]
        with mp.workprec(bits + 64):
            x = mp.mpf(x)
            # R_{n-1}/R_n = (n+1)/x * 1F1(1; n+1; x) / 1F1(1; n+2; x)
            ratio = (n + 1) / x * mp.hyp1f1(1, n + 1, x) / mp.hyp1f1(1, n + 2, x)
        assert rel_err(value, ratio) <= 10 * ctx.target_rel_err, point
