"""The declared-argument boundary of the public scalar functions: one
declaration per function converts, checks and holds the precision, and
the inequality catalog reads its parameters through the same records."""

import contextlib
import inspect
import io
import logging
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from exptail import inequalities, precision, remainders
from exptail.cli import EVAL, main
from exptail.errors import DomainError, NumericalError, UsageError
from exptail.inequalities import (CATALOG, Evaluator, chebyshev_constant, cor25_constant,
                                  cor27_constant, default_sweep, interp_constant, lin_grid,
                                  log_grid)
from exptail.numerics import arctan_fracint, gamma_fn, kummer_1f1_one, lower_incomplete_gamma
from exptail.pade import aitken_row, cesaro_mean, eval_approximant, pade_exp, taylor_partial
from exptail.precision import GUARD_BITS, Param, PrecisionContext, as_real
from exptail.remainders import (b_value, eps_value, g_ratio, q_value, r_frac, r_neg,
                                r_obreshkov, r_tail)

# each x-taking function with admissible values of its other arguments
X_TAKING = {
    r_tail: (3,), r_frac: (mpf("0.5"),), r_neg: (3,), r_obreshkov: (3, 1), q_value: (3,),
    b_value: (mpf("0.5"),), eps_value: (mpf("0.5"),), g_ratio: (3,),
    arctan_fracint: (mpf("0.5"),), lower_incomplete_gamma: (mpf("1.5"),),
    kummer_1f1_one: (mpf("2.5"),), eval_approximant: (pade_exp(2, 1),), taylor_partial: (3,),
    aitken_row: (3,), cesaro_mean: (3,),
}
DECLARED = (*X_TAKING, gamma_fn, chebyshev_constant, interp_constant, cor25_constant,
            cor27_constant)


def test_twenty_functions_declare_their_arguments_once():
    assert len(DECLARED) == 20
    for fn in DECLARED:
        names = list(inspect.signature(fn.__wrapped__).parameters)
        assert [spec.name for spec in fn.params] == names[:len(fn.params)], fn.__name__
        assert names[len(fn.params)] == "ctx", fn.__name__
    # the catalog declares its parameters with the same records and kinds
    assert inequalities.Param is precision.Param and inequalities.KINDS is precision.KINDS
    assert all(type(spec) is Param for cdef in CATALOG.values() for spec in cdef.params)


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fn", list(X_TAKING), ids=lambda fn: fn.__name__)
def test_non_finite_x_is_a_domain_error(ctx, fn, x):
    with pytest.raises(DomainError, match="finite real 'x'"):
        fn(*X_TAKING[fn], mpf(x), ctx)


def test_broken_bounds_and_unreadable_kinds_are_domain_errors(ctx):
    with pytest.raises(DomainError, match="r_tail requires n >= 0"):
        r_tail(-1, 1, ctx)
    with pytest.raises(DomainError, match="q_value requires x > 0"):
        q_value(2, 0, ctx)
    with pytest.raises(DomainError, match="r_obreshkov needs an integer 'm'"):
        r_obreshkov(2, 1.5, 1, ctx)
    with pytest.raises(TypeError):
        r_tail(2, ctx)
    # an integral float or decimal string is an integer order
    assert r_tail(2.0, 1, ctx) == r_tail("2", 1, ctx) == r_tail(2, 1, ctx)


def test_orders_declared_non_finite_keep_their_lower_bounds(ctx):
    # +oo and nan reach the series (test_numerics.py pins their outcomes)
    for fn in (r_frac, eps_value, kummer_1f1_one, lower_incomplete_gamma):
        with pytest.raises(DomainError, match="requires"):
            fn(mpf("-inf"), 1, ctx)


@pytest.mark.parametrize("spec", ["lin(inf,inf,1)", "lin(nan,nan,1)", "lin(1,inf,2)",
                                  "lin(-inf,1,3)", "log(1,inf,3)", "log(inf,inf,1)"])
def test_grid_axes_refuse_non_finite_values(spec):
    ctx = PrecisionContext(53)
    make = lin_grid if spec.startswith("lin") else log_grid
    lo, hi, count = spec[4:-1].split(",")
    with pytest.raises(UsageError):
        make(lo, hi, int(count), ctx)
    assert all(map(mp.isfinite, lin_grid("-0", "1e300", 2, ctx)))


@pytest.mark.parametrize("argv", [
    ["check", "--id", "ALZER", "--grid", "n=1..1;x=lin(inf,inf,1)"],
    ["check", "--id", "RATIO_32", "--grid", "a=lin(inf,inf,1);x=lin(1,1,1)"],
    ["check", "--id", "PADE_ROW_45", "--grid", "x=lin(inf,inf,1)"],
    ["check", "--id", "ALZER", "--grid", "x=lin(1,inf,2)"],
    ["explore", "--problem", "1", "--xgrid", "lin(nan,1,3)"],
])
def test_non_finite_grid_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and err.getvalue().startswith("error:"), err.getvalue()
    assert out.getvalue() == ""


def _exp_calls_from_remainders(monkeypatch) -> list:
    calls = []
    exp = mp.exp

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == remainders.__name__:
            calls.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(mp, "exp", counted)
    return calls


@pytest.mark.parametrize("ids", [None, ["NEG_ALZER", "NEG_GEN_K", "NEG_SANDWICH"]])
def test_r_neg_takes_exp_from_the_sweep_memo(monkeypatch, ids):
    # e**-x once per x of the default grid at most, not once per (n, x)
    calls = _exp_calls_from_remainders(monkeypatch)
    default_sweep(ids, PrecisionContext(256))
    assert len(calls) <= 25


def test_r_neg_with_a_memo_is_bit_identical(ctx):
    ev = Evaluator(ctx)
    for x in ev.x_grid:
        for n in range(10):
            assert ev._rn(n, x)._mpf_ == r_neg(n, x, ctx)._mpf_


@pytest.fixture
def precision_never_lowered(monkeypatch):
    """``PrecisionContext.work`` raising where it would lower an active
    precision above the context's working precision: a public function
    called inside a caller's boost would undo that boost."""
    work = PrecisionContext.work

    def guarded(self, extra_bits=0):
        wanted = self.bits + GUARD_BITS + max(0, extra_bits)
        if self.bits + GUARD_BITS < mp.prec and wanted < mp.prec:
            raise AssertionError(f"a {mp.prec}-bit boost lowered to {wanted} bits")
        return work(self, extra_bits)

    monkeypatch.setattr(PrecisionContext, "work", guarded)
    with mp.workprec(53):  # the tests' ambient 640 bits would trip every call
        yield


_FLAG_VALUES = {"n": "3", "m": "1", "x": "1.5", "a": "0.5", "nu": "0.5", "v": "1.5", "b": "2.5"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("x", ["1.5", "-7"])
@pytest.mark.parametrize("quantity", list(EVAL))
def test_eval_never_lowers_a_boost(precision_never_lowered, quantity, x):
    flags = [f"--{spec.name}={dict(_FLAG_VALUES, x=x)[spec.name]}"
             for spec in EVAL[quantity].params]
    code, err = _run(["eval", "--quantity", quantity, *flags])
    # x = -7 is outside the remainders' domain: a usage error, not a lowered boost
    assert code == 0 or (x == "-7" and err.startswith("error:")), (quantity, err)


@pytest.mark.parametrize("problem", ["1", "5", "7", "8", "9", "11", "12", "15", "rk"])
def test_explore_never_lowers_a_boost(precision_never_lowered, problem):
    assert _run(["explore", "--problem", problem]) == (0, "")


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                   float("inf"), float("-inf"), float("nan")]


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_subnormal=True)),
       bits=st.sampled_from([53, 256, 1024]), ambient=st.sampled_from([53, 113, 2000]))
def test_as_real_of_a_float_is_its_mpf_at_the_working_precision(x, bits, ambient):
    ctx = PrecisionContext(bits)
    with ctx.work():
        expected = (+mpf(x))._mpf_
    with mp.workprec(ambient):
        assert as_real(x, ctx)._mpf_ == expected


def _shown(x, ctx) -> str:
    """x as a boundary message prints it: its mpf at the working precision."""
    with ctx.work():
        return str(+mpf(x))


_OUT_OF_BOUNDS = st.one_of(st.sampled_from([-0.0, -5e-324, -1e308, float("-inf"), float("nan")]),
                           st.floats(max_value=0.0), st.integers(-(2 ** 400), 0),
                           st.builds("{}e{}".format, st.integers(-(10 ** 30), 0),
                                     st.integers(-300, 300)))


@settings(max_examples=300, deadline=None)
@given(x=_OUT_OF_BOUNDS, bits=st.sampled_from([53, 256]))
def test_boundary_messages_print_values_at_the_working_precision(x, bits):
    # a real at or below q_value's bound x > 0, or not finite, as a float,
    # an int or a decimal string: the message names the value as the mpf
    # route printed it at the working precision
    ctx = PrecisionContext(bits)
    shown = _shown(x, ctx)
    with pytest.raises(DomainError) as raised:
        q_value(2, x, ctx)
    if shown in ("nan", "+inf", "-inf"):
        assert str(raised.value) == f"q_value needs a finite real 'x', got {shown}"
    else:
        assert str(raised.value) == f"q_value requires x > 0, got x = {shown}"
    # an order declared non-finite keeps its numeric bound a > -1 and lets
    # nan through to the series
    a = x if isinstance(x, str) else x - 1
    shown = _shown(a, ctx)
    if shown == "nan":
        with pytest.raises(NumericalError):
            r_frac(a, 1, ctx)
    elif mpf(shown) <= -1:
        with pytest.raises(DomainError) as raised:
            r_frac(a, 1, ctx)
        assert str(raised.value) == f"r_frac requires a > -1, got a = {shown}"


@pytest.mark.parametrize("args,message", [
    ((-1, 1), "r_tail requires n >= 0, got n = -1"),
    ((2.5, 1), "r_tail needs an integer 'n', got 2.5"),
    ((mpf("0.1"), 1), "r_tail needs an integer 'n', got 0.1"),
    (("1e-9", 1), "r_tail needs an integer 'n', got 1e-9"),
    ((3, -0.1), "r_tail requires x >= 0, got x = "
                "-0.1000000000000000055511151231257827021181583404541015625"),
    ((3, "-0.25"), "r_tail requires x >= 0, got x = -0.25"),
    ((3, "x"), "r_tail needs a real 'x', got x"),
])
def test_boundary_messages_are_unchanged(ctx, args, message):
    with pytest.raises(DomainError) as raised:
        r_tail(*args, ctx)
    assert str(raised.value) == message


def _probe(kind):
    """A function declaring one parameter of ``kind``, recording what its
    body receives, then raising."""
    seen = []

    @precision.declared(Param("v", kind))
    def probe(v, ctx):
        seen.append(v)
        raise ZeroDivisionError("the body raised")

    return probe, seen


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _logged(fn, *args):
    """(fn's outcome: its raw value, int or DomainError text; the warnings
    of the exptail logger while it ran)."""
    handler = _Records()
    logger = logging.getLogger("exptail")
    logger.addHandler(handler)
    try:
        try:
            value = fn(*args)
        except (ValueError, DomainError) as exc:
            value = str(exc)
    finally:
        logger.removeHandler(handler)
    return (value._mpf_ if isinstance(value, mpf) else value), handler.messages


@st.composite
def _wider_mpf(draw):
    """An mpf of 1,100 to 1,500 bits, wider than every working precision here."""
    width = draw(st.integers(1100, 1500))
    man = draw(st.integers(2 ** (width - 1), 2 ** width - 1)) | 1
    return mp.make_mpf(from_man_exp(draw(st.sampled_from([1, -1])) * man,
                                    draw(st.integers(-1600, 1600)) - width))


_ARGUMENTS = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_subnormal=True),
    st.sampled_from([True, False, 2 ** 2000, -(2 ** 2000), 0]),
    st.integers(-(2 ** 2100), 2 ** 2100), _wider_mpf(),
    st.fractions(max_denominator=2 ** 100),
    st.builds("{}e{}".format, st.integers(-(10 ** 40), 10 ** 40), st.integers(-400, 400)),
)


@settings(max_examples=400, deadline=None)
@given(v=_ARGUMENTS, bits=st.sampled_from([53, 256, 1024]),
       ambient=st.sampled_from([53, "wp", 2000]))
def test_inline_conversion_is_convert(v, bits, ambient):
    # ints and finite floats are read inline at the boundary; every argument,
    # read as an integer and as a real, gives what convert gives at the
    # working precision: the same raw value, or the same DomainError text,
    # with the same one downgrade warning.  The body raises, and the
    # boundary restores the caller's precision
    ctx = PrecisionContext(bits)
    ambient = bits + GUARD_BITS if ambient == "wp" else ambient
    for kind in (int, mpf):
        probe, seen = _probe(kind)
        spec = probe.params[0]

        def converted():
            with ctx.work():
                try:
                    return precision.convert(spec, v, ctx)
                except ValueError as exc:
                    raise DomainError(f"probe needs {exc}") from exc

        expected = _logged(converted)

        def called():
            with pytest.raises(ZeroDivisionError):
                probe(v, ctx)
            return seen[0]

        with mp.workprec(ambient):
            got = _logged(called)
            assert mp.prec == ambient
        assert got == expected, kind
        assert len(got[1]) <= 1
        if type(expected[0]) is int:
            assert type(seen[0]) is int
