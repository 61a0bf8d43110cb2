import logging
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, mpf_pos, round_nearest, to_str

import exptail
from exptail.errors import DomainError, UsageError
from exptail.precision import PrecisionContext, _decimal, as_real, format_real, parse_real
from exptail.remainders import r_tail


def test_defaults():
    ctx = PrecisionContext()
    assert ctx.bits == 256
    assert 0 < ctx.target_rel_err < mpf("1e-60")
    assert ctx.target_rel_err >= mpf(2) ** (1 - ctx.bits)


@pytest.mark.parametrize("bits", [52, 0, -1])
def test_bits_floor(bits):
    with pytest.raises(DomainError):
        PrecisionContext(bits=bits)


def test_target_rel_err_floor():
    with pytest.raises(DomainError):
        PrecisionContext(bits=64, target_rel_err=mpf(2) ** -100)
    # at the floor itself it is accepted
    PrecisionContext(bits=64, target_rel_err=mpf(2) ** -63)


def test_doubling_bits_tightens_threshold():
    for bits in (64, 128, 256, 512):
        assert PrecisionContext(2 * bits).target_rel_err < PrecisionContext(bits).target_rel_err


def test_context_is_hashable_and_frozen():
    a, b = PrecisionContext(256), PrecisionContext(256)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.bits = 128


def test_as_real_fraction_exact(ctx):
    v = as_real(Fraction(1, 3), ctx)
    with mp.workprec(ctx.bits + 32):
        assert abs(3 * v - 1) < mpf(2) ** (-ctx.bits)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-30, max_value=1e30, allow_nan=False, allow_infinity=False))
def test_decimal_round_trip(x):
    ctx = PrecisionContext(256)
    v = as_real(x, ctx)
    back = parse_real(format_real(v, ctx), ctx)
    assert abs(back - v) <= abs(v) * mpf(2) ** (1 - ctx.bits)


def test_round_trip_at_context_precision(ctx):
    with mp.workprec(ctx.bits):
        v = mp.exp(mpf("0.7"))  # a full-precision mantissa
    back = parse_real(format_real(v, ctx), ctx)
    assert abs(back - v) <= abs(v) * mpf(2) ** (1 - ctx.bits)


@pytest.mark.parametrize("text,error", [("nan", DomainError), ("inf", DomainError),
                                        ("-inf", DomainError), ("abc", UsageError)])
def test_parse_real_rejects_non_numbers(ctx, text, error):
    with pytest.raises(error):
        parse_real(text, ctx)


_WIDE_OPERAND = """
from mpmath import mp, mpf
from exptail import PrecisionContext, r_tail
with mp.workprec(640):
    x = mpf(1) / 3
r_tail(3, x, PrecisionContext(256))
"""


def test_operand_downgrade_is_logged_not_printed(ctx, caplog):
    # in a fresh interpreter with no logging configured the warning must not
    # reach stderr (pytest's own handlers would hide that in-process) ...
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _WIDE_OPERAND], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    # ... while a configured handler still records it
    with mp.workprec(640):
        x = mpf(1) / 3
    with caplog.at_level(logging.WARNING, logger="exptail"):
        r_tail(3, x, ctx)
    assert "rounding 640-bit operand down to 288-bit context" in caplog.text


# -- the libmp fast paths against the workprec forms they replaced ----------


def _finalize_by_workprec(x, ctx):
    with mp.workprec(ctx.bits):
        return +mpf(x)


def _as_real_by_workprec(x, ctx):
    with ctx.work():
        if isinstance(x, str):
            return mpf(x)
        try:
            num, den = x.numerator, x.denominator
        except AttributeError:
            return +mpf(x)
        return mpf(num) / mpf(den) if den != 1 else mpf(num)


def _format_by_workprec(x, ctx, digits=None):
    if digits is None:
        digits = ctx.decimal_digits
    with mp.workprec(ctx.bits + 32):
        return mp.nstr(mpf(x), digits, min_fixed=-4, max_fixed=18)


def _outcome(fn, *args):
    """A comparable result: the raw mpf tuple or string, or the exception type."""
    try:
        value = fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return value._mpf_ if isinstance(value, mpf) else value


@st.composite
def _wide_mpf(draw):
    """An exact mpf of 53 to 1,200 significant bits, up to far beyond the
    contexts under test, with ordinary, huge or tiny binary exponents."""
    width = draw(st.integers(53, 1200))
    man = draw(st.integers(2 ** (width - 1), 2 ** width - 1)) | 1
    exp = draw(st.one_of(st.integers(-1500, 1500),
                         st.sampled_from([-10 ** 6, -2 ** 40, 10 ** 6, 2 ** 40])))
    sign = draw(st.sampled_from([1, -1]))
    return mp.make_mpf(from_man_exp(sign * man, exp - width))


_OPERANDS = st.one_of(
    _wide_mpf(),
    st.sampled_from([mpf(0), mpf("-0"), mpf(-0.0), 0, mpf(1), mpf(-1), mpf("inf"),
                     mpf("-inf"), mpf("nan")]),
    st.integers(-(2 ** 400), 2 ** 400),
    st.integers(2 ** 300, 2 ** 1300).map(lambda n: n | 1),
    st.fractions(max_denominator=2 ** 200),
    st.builds(Fraction, st.integers(-(2 ** 1300), 2 ** 1300), st.integers(1, 2 ** 1300)),
    st.builds("{}e{}".format, st.integers(-(10 ** 40), 10 ** 40), st.integers(-400, 400)),
    st.floats(allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(x=_OPERANDS, bits=st.sampled_from([53, 256, 1024]),
       ambient=st.sampled_from([None, 53, 113, 2000]))
def test_fast_paths_match_workprec_forms(x, bits, ambient):
    ctx = PrecisionContext(bits)
    expected = [
        _outcome(_finalize_by_workprec, x, ctx),
        _outcome(_as_real_by_workprec, x, ctx),
        _outcome(_format_by_workprec, x, ctx),
        _outcome(_format_by_workprec, x, ctx, 8),
    ]
    # the caller's ambient precision must not reach any of the helpers
    prec = mp.prec if ambient is None else ambient
    with mp.workprec(prec):
        got = [
            _outcome(ctx.finalize, x),
            _outcome(as_real, x, ctx),
            _outcome(format_real, x, ctx),
            _outcome(format_real, x, ctx, 8),
        ]
    assert got == expected


def test_fraction_is_rounded_in_two_steps():
    # numerator and denominator are rounded to the working precision before
    # the division, as the mpf quotient has always been formed; a single
    # correctly rounded quotient differs from that in the last bit here
    ctx = PrecisionContext(53)
    q = Fraction(3 ** 800 + 1, 7 ** 450 + 2)
    got = as_real(q, ctx)._mpf_
    assert got == _as_real_by_workprec(q, ctx)._mpf_
    assert got != from_rational(q.numerator, q.denominator, ctx.bits + 32, "n")


# -- the exact fast decimal renderer against libmp.to_str --------------------


@st.composite
def _decimal_values(draw):
    """Raw mpfs for the renderer: random mantissas of up to 1,100 bits with
    binary exponents across +-4,000 (past the fast path's +-3,500), runs of
    nines that round up, exact powers of ten, and values at the edges of the
    fixed-notation window 1e-4 .. 1e18."""
    kind = draw(st.sampled_from(["random", "nines", "ten", "edge"]))
    sign = draw(st.sampled_from([1, -1]))
    prec = draw(st.integers(1, 1100))
    if kind == "random":
        man = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1))
        return from_man_exp(sign * man, draw(st.integers(-4000, 4000)) - prec)
    if kind == "nines":  # d...d99...9 near 10**top, rounded to prec bits
        head = draw(st.integers(0, 10 ** draw(st.integers(0, 12)))) * 10 + draw(st.integers(0, 8))
        nines, top = draw(st.integers(1, 400)), draw(st.integers(-6, 20))
        num = (head + 1) * 10 ** nines - 1
        e = top - len(str(num))
        return from_rational(sign * num * 10 ** max(e, 0), 10 ** max(-e, 0), prec, round_nearest)
    k = draw(st.integers(-40, 40) if kind == "ten" else st.sampled_from([-5, -4, -3, 17, 18, 19]))
    raw = from_rational(sign * 10 ** max(k, 0), 10 ** max(-k, 0), prec, round_nearest)
    if kind == "edge":  # one to 1,100 units in the last place above or below
        offset = draw(st.integers(-2 ** 10, 2 ** 10).filter(bool))
        s, man, exp, _ = raw
        raw = from_man_exp((-1) ** s * ((man << 1100) + offset), exp - 1100)
    return raw


@settings(max_examples=1000, deadline=None)
@given(raw=_decimal_values(), bits=st.sampled_from([53, 256, 1024]),
       digits=st.sampled_from([1, 8, None]))
def test_decimal_fast_path_matches_to_str(raw, bits, digits):
    ctx = PrecisionContext(bits)
    shown = ctx.decimal_digits if digits is None else digits
    wide = mpf_pos(raw, bits + 32, round_nearest)
    assert format_real(mp.make_mpf(raw), ctx, digits) == to_str(wide, shown, min_fixed=-4,
                                                                 max_fixed=18)
    # the fast path itself, on mantissas wider than any context's
    sign, man, exp, bc = raw
    if abs(exp + bc) <= 3500:
        assert _decimal(sign, man, exp, bc, shown) == to_str(raw, shown, min_fixed=-4,
                                                             max_fixed=18)
