"""The large-x regime of the remainder family: from x = max(wp, 2b) on,
with wp = bits + GUARD_BITS, the kernel's closed-form route replaces the
series, stays accurate, and costs no more as x grows."""

import os
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

import exptail
import exptail.numerics as numerics
from conftest import rel_err
from exptail.cli import main
from exptail.numerics import kummer_1f1_one, lower_incomplete_gamma
from exptail.precision import GUARD_BITS, PrecisionContext
from exptail.remainders import (b_value, eps_value, g_ratio, q_value, r_frac, r_neg,
                                r_obreshkov, r_tail)


def _tail(n, x):
    return x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(1, n + 2, x)


def _eps(nu, x):
    f2, f3 = mp.hyp1f1(1, nu + 2, x), mp.hyp1f1(1, nu + 3, x)
    return (nu + 2) / x * (f2 - f3) / f3


# name, orders, function(order, x, ctx), mpmath reference(order, x), the
# lower 1F1 parameter b that decides the switch for that order, whether
# orders are integers
ROUTES = [
    ("r_tail", (0, 7, 16), r_tail, _tail, lambda n: n + 2, True),
    ("r_frac", (3, mpf("-0.5"), mpf("2.5"), mpf("9.7")), r_frac,
     lambda a, x: x ** (a + 1) / mp.gamma(a + 2) * mp.hyp1f1(1, a + 2, x), lambda a: a + 2,
     False),
    ("r_neg", (0, 7, 16), r_neg,
     lambda n, x: mp.exp(-x) * x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(n + 1, n + 2, x),
     lambda n: n + 2, True),
    ("r_obreshkov(n, 3)", (0, 7, 13), lambda n, x, c: r_obreshkov(n, 3, x, c),
     lambda n, x: -6 * mp.factorial(n) / (mp.factorial(n + 3) * mp.factorial(n + 4))
     * x ** (n + 4) * mp.hyp1f1(4, n + 5, x), lambda n: n + 5, True),
    ("q_value", (1, 7, 16), q_value, lambda n, x: mp.log(mp.hyp1f1(1, n + 2, x)) / x,
     lambda n: n + 3, True),
    ("g_ratio", (1, 7, 16), g_ratio, lambda n, x: _tail(n - 1, x) / _tail(n, x),
     lambda n: n + 2, True),
    ("b_value", (2, mpf("-0.5"), mpf("9.7")), b_value,
     lambda nu, x: x ** (nu + 1) * mp.hyp1f1(1, nu + 2, x), lambda nu: nu + 2, False),
    ("eps_value", (2, mpf("-0.5"), mpf("9.7")), eps_value, _eps, lambda nu: nu + 3, False),
    ("lower_incomplete_gamma", (3, mpf("1e-15"), mpf("0.5"), mpf("7.3")),
     lower_incomplete_gamma, lambda v, x: mp.gammainc(v, 0, x), lambda v: v + 1, False),
    ("kummer_1f1_one", (3, mpf("0.5"), mpf("7.3"), mpf("1e-15"), mpf("1e-100")),
     kummer_1f1_one, lambda b, x: mp.hyp1f1(1, b, x), lambda b: b, False),
]


def _orders(orders, integer, bits):
    # plus an order near bits: with b close to x/2 and x < 4 bits, the
    # upper-gamma expansion is not negligible against e**x
    return orders + ((bits - 3) if integer else mpf(bits) - mpf("2.5"),)


def _reference(ref, order, x, bits):
    with mp.workprec(max(mp.prec, bits + 128)):
        return ref(order, x)


@pytest.mark.parametrize("bits", [53, 256, 1024])
@pytest.mark.parametrize("scale", ["bits", "wp", "2bits", "1e3", "1e4", "1e5"])
def test_large_x_route_against_mpmath(bits, scale):
    ctx = PrecisionContext(bits)
    x = ctx.finalize({"bits": bits, "wp": bits + GUARD_BITS, "2bits": 2 * bits}.get(scale, scale))
    for name, orders, fn, ref, _, integer in ROUTES:
        for p in _orders(orders, integer, bits):
            err = rel_err(fn(p, x, ctx), _reference(ref, p, x, bits))
            assert err < ctx.target_rel_err, (name, p)


def _force_route(monkeypatch, on: bool) -> list:
    """Patch the kernel's switch to ``on``; the list returned records its calls."""
    calls = []

    def forced(b, x, ctx):
        calls.append(x)
        return on

    monkeypatch.setattr(numerics, "_large_x", forced)
    return calls


@pytest.mark.parametrize("bits", [53, 256])
def test_series_and_route_agree_across_switch(bits, monkeypatch):
    # at one point just below and one just above x = max(wp, 2b), the
    # series and the large-x route, each forced, give the same value.  The
    # kernel consults the switch only from |x| >= 2**(bitlen(wp) - 1) on,
    # which 0.97 wp passes at these precisions: each forced evaluation must
    # have consulted it, or the comparison would be series against series
    ctx = PrecisionContext(bits)
    for name, orders, fn, _, lower, integer in ROUTES:
        for p in _orders(orders, integer, bits):
            switch = max(bits + GUARD_BITS, 2 * float(lower(p)))
            for x in (ctx.finalize(switch * 0.97), ctx.finalize(switch * 1.03)):
                calls = _force_route(monkeypatch, False)
                series = fn(p, x, ctx)
                assert calls, (name, p, x)
                calls = _force_route(monkeypatch, True)
                route = fn(p, x, ctx)
                assert calls, (name, p, x)
                assert rel_err(route, series) < ctx.target_rel_err, (name, p, x)


TEN = [
    ("r_tail", lambda x, c: r_tail(16, x, c)),
    ("r_frac", lambda x, c: r_frac(mpf("9.7"), x, c)),
    ("r_neg", lambda x, c: r_neg(16, x, c)),
    ("r_obreshkov", lambda x, c: r_obreshkov(12, 4, x, c)),
    ("q_value", lambda x, c: q_value(16, x, c)),
    ("b_value", lambda x, c: b_value(mpf("9.7"), x, c)),
    ("eps_value", lambda x, c: eps_value(mpf("9.7"), x, c)),
    ("g_ratio", lambda x, c: g_ratio(16, x, c)),
    ("lower_incomplete_gamma", lambda x, c: lower_incomplete_gamma(mpf("10.7"), x, c)),
    ("kummer_1f1_one", lambda x, c: kummer_1f1_one(mpf("11.7"), x, c)),
]


@pytest.mark.parametrize("x", ["1e5", "1e300"])
def test_large_x_stays_off_the_series(x, monkeypatch):
    # the series would have asked _series_budget for its term budget; the
    # switch, counted, must have been consulted at every evaluation, or a
    # series that no longer asks would pass unseen
    budgets, switches = [], []
    large_x = numerics._large_x

    def no_series(*args):
        budgets.append(args)
        raise AssertionError("the series kernel ran at large x")

    def counted(b, x, ctx):
        switches.append(x)
        return large_x(b, x, ctx)

    monkeypatch.setattr(numerics, "_series_budget", no_series)
    monkeypatch.setattr(numerics, "_large_x", counted)
    ctx = PrecisionContext(256)
    x = ctx.finalize(x)
    for name, fn in TEN:
        before = len(switches)
        value = fn(x, ctx)
        assert mp.isfinite(value) and value != 0, name
        assert len(switches) > before, name
    assert budgets == []
    # R_16(x) / e**x -> 1 and eps -> 1 as x -> oo
    assert rel_err(r_tail(16, x, ctx) / mp.exp(x), 1) < mpf("1e-3")
    assert 0.99 < eps_value(mpf("9.7"), x, ctx) <= 1


@pytest.mark.parametrize("bits", [53, 256, 1024])
@pytest.mark.parametrize("scale", ["-wp", "-1e3", "-1e5", "-1e300"])
def test_kummer_negative_x_against_mpmath(bits, scale):
    # from x = -max(wp, 2b) on, 1F1(1; b; x) is the expansion of the large-x
    # route, in bounded time; b = 1 + 2**-bits is the case where the
    # e**x term still counts (b = 1 is e**x itself)
    ctx = PrecisionContext(bits)
    x = ctx.finalize(-(bits + GUARD_BITS) if scale == "-wp" else scale)
    for b in (mpf("0.5"), 1, 1 + mpf(2) ** -bits, 2, mpf("2.5"), 7, mpf("13.7")):
        start = time.monotonic()
        value = kummer_1f1_one(b, x, ctx)
        assert time.monotonic() - start < 1, b
        with mp.workprec(bits + 128):
            assert rel_err(value, mp.hyp1f1(1, b, x)) < ctx.target_rel_err, b


@pytest.mark.parametrize("quantity,flags", [
    ("rn", ["--n", "4"]), ("ra", ["--a", "2.5"]), ("rneg", ["--n", "4"]),
    ("robr", ["--n", "3", "--m", "2"]), ("q", ["--n", "4"]), ("b", ["--nu", "1.5"]),
    ("eps", ["--nu", "1.5"]), ("g", ["--n", "4"]), ("gammainc", ["--v", "2.5"]),
    ("kummer", ["--b", "3.5"]),
])
def test_eval_at_huge_x_exits_0(quantity, flags):
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "exptail.cli", "eval", "--quantity", quantity, *flags,
         "--x", "1e300"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("\n") == 2


@pytest.mark.parametrize("x", ["-3e4", "-1e300"])
def test_eval_kummer_at_huge_negative_x_exits_0(x):
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "exptail.cli", "eval", "--quantity", "kummer", "--b", "2.5",
         f"--x={x}"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 2


def test_kummer_beyond_x_max_refused_at_once(capsys):
    # for |x| < 2b the large-|x| expansion does not apply; Kummer's
    # transformation makes b = 1e5, x = -1.5e5 one positive series of about
    # 1.5e5 terms, a value, and a point whose series the kernel's term
    # estimate puts past MAX_SERIES_TERMS is refused before it starts
    start = time.monotonic()
    code = main(["eval", "--quantity", "kummer", "--b", "1e5", "--x=-1.5e5"])
    assert time.monotonic() - start < 2
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    ctx = PrecisionContext(256)
    value = mpf(out.splitlines()[0])
    with mp.workprec(ctx.bits + 200):
        # mpmath's series does not converge here; the Euler integral
        # (b-1) * integral of e**(x t) (1-t)**(b-2) over (0, 1) (DLMF 13.4.1)
        b, x = mpf(10) ** 5, mpf("-1.5e5")
        expected = (b - 1) * mp.quad(lambda t: mp.exp(x * t + (b - 2) * mp.log1p(-t)),
                                     [0, mpf("1e-6"), mpf("1e-5"), mpf("1e-4"), mpf("1e-3"), 1])
        assert abs(value - expected) <= ctx.target_rel_err * abs(expected)
    start = time.monotonic()
    code = main(["eval", "--quantity", "kummer", "--b", "1e6", "--x=-1.5e6"])
    assert time.monotonic() - start < 1
    assert code == 2 and "Traceback" not in capsys.readouterr().err


def test_kummer_huge_b_within_x_max_against_mpmath():
    ctx = PrecisionContext(256)
    b, x = mpf(10) ** 4, mpf(-15000)
    value = kummer_1f1_one(b, x, ctx)
    with mp.workprec(ctx.bits + 128):
        assert rel_err(value, mp.hyp1f1(1, b, x)) < ctx.target_rel_err
