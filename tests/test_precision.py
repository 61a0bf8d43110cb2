import logging
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import exptail
from exptail.errors import DomainError, UsageError
from exptail.precision import PrecisionContext, as_real, format_real, parse_real
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
