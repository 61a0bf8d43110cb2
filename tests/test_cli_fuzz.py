"""Fuzz of ``exptail eval``: over all quantities and hostile inputs (nan,
the infinities, -0, 1e-300, 1e300, orders up to 10^5) a call ends with
exit code 0, 2 or 3 and never with a traceback; points below the large-x
switch whose series is short return values.  ``exptail check --grid`` with
single-point axes at such endpoints ends with 0, 1, 2 or 3, likewise."""

import contextlib
import io
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptail.cli import EVAL_QUANTITIES, main

# the flags each quantity reads
FLAGS = {
    "rn": ("n", "x"), "ra": ("a", "x"), "rneg": ("n", "x"), "robr": ("n", "m", "x"),
    "q": ("n", "x"), "b": ("nu", "x"), "eps": ("nu", "x"), "g": ("n", "x"),
    "gammainc": ("v", "x"), "kummer": ("b", "x"), "pade": ("n", "m", "x"),
    "aitken": ("n", "x"), "cesaro": ("n", "x"),
}
INTEGER_FLAGS = {"n", "m"}

SPECIAL = st.sampled_from(["nan", "inf", "-inf", "-0", "0", "1e-300", "-1e-300", "1e300",
                           "-1e300", "0.5", "1", "30", "1e4", "2.5e4", "3e4", "1e5", "-3"])
REALS = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.integers(-10**4, 10**4).map(str))
ORDERS = st.one_of(st.integers(-2, 40), st.integers(0, 10**4),
                   st.sampled_from([10**5, 3 * 10**4, 10**4, 9999, 1000])).map(str) | \
    st.sampled_from(["1.5", "nan", "inf", "-0", "1e300"])


@st.composite
def eval_argv(draw):
    quantity = draw(st.sampled_from(EVAL_QUANTITIES))
    argv = ["eval", "--quantity", quantity]
    for flag in FLAGS[quantity]:
        if draw(st.integers(0, 19)):  # now and then a required flag is left out
            value = draw(ORDERS if flag in INTEGER_FLAGS else REALS)
            argv.append(f"--{flag}={value}")
    if draw(st.booleans()):
        argv.append(f"--bits={draw(st.sampled_from([53, 256]))}")
    return argv


def test_every_quantity_has_its_flags():
    assert set(FLAGS) == set(EVAL_QUANTITIES)


@settings(max_examples=250, deadline=None)
@given(eval_argv())
def test_eval_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    if code:
        assert err.startswith(("error:", "numerical failure:")), (argv, err)
    # a bound on cost, not a benchmark: of 1,500 exploratory calls the slowest
    # took 2.2 s (`cesaro --n=100000`, an exact factorial)
    assert elapsed < 10, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("flags", [
    ["--quantity=kummer", "--b=1e5", "--x=3e4"],
    ["--quantity=rn", "--n=50000", "--x=2.5e4"],
    ["--quantity=ra", "--a=5e4", "--x=3e4"],
    ["--quantity=q", "--n=40000", "--x=3e4"],
    ["--quantity=gammainc", "--v=5e4", "--x=3e4"],
    ["--quantity=kummer", "--b=1e5", "--x=1e5"],
])
def test_short_series_past_x_20000_return_values(flags):
    # x < 2b keeps these off the closed form, but their series are short
    code, out, err = _run(["eval", *flags])
    assert (code, err) == (0, ""), flags
    assert out.strip()


def test_series_of_about_1e136_terms_is_refused_at_once():
    # x = b: the terms fall off only after about sqrt(2 b wp ln 2) of them
    start = time.perf_counter()
    code, _, err = _run(["eval", "--quantity=ra", "--a=1.2355134971584838e+270",
                         "--x=1.2355134971584838e+270"])
    assert code == 2 and err.startswith("error:"), err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("bits", ["53", "256"])
def test_pade_pole_search_is_bounded(bits):
    # x = 300 lies where the degree-999 denominator cancels ~730 bits, 20
    # units from its only real root (279.472...): it is evaluated with the
    # bits it loses, not refused as a pole, and soon; the root itself, to
    # 17 digits, is a pole at 53 bits
    start = time.perf_counter()
    code, out, err = _run(["eval", "--quantity=pade", "--n=0", "--m=999", "--x=300",
                           f"--bits={bits}"])
    assert (code, err) == (0, ""), err
    assert out.startswith("-3.95599547523847")
    assert time.perf_counter() - start < 10
    if bits == "53":
        start = time.perf_counter()
        code, _, err = _run(["eval", "--quantity=pade", "--n=0", "--m=999",
                             "--x=279.47207572836363", "--bits=53"])
        assert code == 2 and err.startswith("error:") and "root near 279.4720757283636" in err
        assert time.perf_counter() - start < 10


@pytest.mark.parametrize("bits", ["53", "256"])
def test_aitken_work_is_bounded(bits):
    # 30,000 terms at 523,939 extra bits took 12-16 s in the transform of the
    # partial sums; the closed form on integers loses about 75 bits there and
    # gives the value (e**-26 to far more than 15 digits) at once, and a sum
    # past the work cap is refused before it runs
    start = time.perf_counter()
    code, out, err = _run(["eval", "--quantity=aitken", "--n=30000", "--x=-26", f"--bits={bits}"])
    assert (code, err) == (0, ""), err
    assert abs(float(out.split()[0]) / math.exp(-26) - 1) < 1e-15
    code, _, err = _run(["eval", "--quantity=aitken", "--n=100000000", "--x=-1",
                         f"--bits={bits}"])
    assert code == 3 and err.startswith("numerical failure:"), err
    assert time.perf_counter() - start < 10


# checks of the grid fuzz -> the real parameters a grid axis may set
GRID_AXES = {"ALZER": ("x",), "RATIO_32": ("a", "x"), "PADE_ROW_45": ("x",),
             "KIM_37": ("nu", "x", "y"), "INCGAMMA_FORM": ("x",)}
ENDPOINTS = st.sampled_from(["nan", "inf", "-inf", "-0", "1e300", "-1e300", "1e-300", "-1e-300",
                             "0.5", "2"])


@st.composite
def check_argv(draw):
    check = draw(st.sampled_from(sorted(GRID_AXES)))
    axes = []
    for name in GRID_AXES[check]:
        if name == "x" or draw(st.booleans()):
            spacing = draw(st.sampled_from(["lin", "log"]))
            axes.append(f"{name}={spacing}({draw(ENDPOINTS)},{draw(ENDPOINTS)},1)")
    argv = ["check", "--id", check, "--grid", ";".join(axes), "--format", "text"]
    if draw(st.booleans()):
        argv.append("--bits=53")
    return argv


@settings(max_examples=100, deadline=None)
@given(check_argv())
def test_check_grid_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    if code == 2 or (code == 3 and err):
        assert err.startswith(("error:", "numerical failure:")), (argv, err)
    assert elapsed < 10, argv
