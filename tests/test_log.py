"""The package's logarithm, numerics._log, against mpmath's mpf_log bit for
bit, the real powers built on it against mpf_pow, and the cold cost it
spares: mpmath's lazily filled log table stays unfilled."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (ComplexResult, finf, fnan, fninf, from_float, from_int, from_man_exp,
                          fzero, mpf_log, mpf_pow, round_nearest)

import exptail
from exptail.numerics import _log, _power

# Inputs whose log lies within 2**-15 ulp of a halfway point of the
# rounding to prec bits, where mpf_log's value is not the correctly
# rounded one: found by a search that set log x at a few units of
# 2**-(prec+20) from a halfway point and kept the inputs mpf_log rounded
# to the far side.  Each is (prec, raw x).  The first four, at |mag| < 40,
# fail on a copy of _log whose window is 0; the last three, at
# |mag| = 10**4 and 10**5 and a few hundred units from the halfway point,
# fail on a copy whose window lacks its |mag| term.
NEAR_HALFWAY = [
    (53, (0, 8601878932753741340890855707604682980968360547, -175, 153)),
    (64, (0, 12262687571770200235970418933604489923741356593333, -154, 164)),
    (53, (0, 8039669833331443163008443672009743417519478872, -151, 153)),
    (113, (0, 8333417475412854939696683465578020352955452136183802218194021672, -247, 213)),
    (53, (0, 6644690722139729626189624275431760882167727210, -100153, 153)),
    (64, (0, 20415097906856860923865048722699124971798155175987, 99836, 164)),
    (64, (0, 16162288300225999034953285750020535195356575804013, -10163, 164)),
]


def _same_as_mpf_log(raw, prec):
    try:
        expected = mpf_log(raw, prec, round_nearest)
    except ComplexResult:
        with pytest.raises(ComplexResult):
            _log(raw, prec)
        return
    assert _log(raw, prec) == expected, (raw, prec)


@settings(max_examples=150, deadline=None)
@given(prec=st.one_of(st.integers(53, 2400), st.sampled_from([53, 95, 298, 1066, 2400])),
       data=st.data())
def test_log_is_mpf_log_bit_for_bit(prec, data):
    bc = data.draw(st.integers(1, 3 * prec), label="bc")
    man = data.draw(st.integers(1 << bc - 1, (1 << bc) - 1), label="man")
    mag = data.draw(st.integers(-10**5, 10**5), label="mag")
    _same_as_mpf_log(from_man_exp(man, mag - bc), prec)


@pytest.mark.parametrize("prec", [53, 95, 298, 1066, 2400, 2401])
def test_log_at_the_edges(prec):
    one = from_int(1)
    cases = [fzero, finf, fninf, fnan, one, from_float(-2.5), from_float(0.5),
             from_float(2 - 2.0**-52), (0, (1 << 61) - 1, -60, 61)]  # 2 - 2**-60
    cases += [(0, 1, e, 1) for e in (-10000, -1001, -64, -2, 1, 2, 63, 1000, 10000)]
    for k in (1, 2, 5, 10, 13, 14, 15, 20, 30, 60, 100, prec, prec + 30):
        cases += [(0, (1 << k) + 1, -k, k + 1), (0, (1 << k) - 1, -k, k)]  # 1 + 2**-k, 1 - 2**-k
    for raw in cases:
        _same_as_mpf_log(raw, prec)


@pytest.mark.parametrize("prec,raw", NEAR_HALFWAY)
def test_log_near_a_halfway_point(prec, raw):
    with mp.workprec(prec + 200):
        value = mp.log(mpf(raw))
        sign, man, exp, bc = value._mpf_
        unit = mpf(2) ** (exp + bc - prec)
        offset = value / unit - mp.floor(value / unit)
        assert abs(offset - mpf(1) / 2) < mpf(2) ** -15
    _same_as_mpf_log(raw, prec)


_BASES = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(0.25, 4))
_EXPONENTS = st.one_of(st.integers(-40, 40).map(float), st.integers(-81, 81).map(lambda k: k / 2),
                       st.sampled_from([float("inf"), float("-inf")]), st.floats(-50, 50))


@settings(max_examples=150, deadline=None)
@given(x=_BASES, e=_EXPONENTS, prec=st.sampled_from([53, 85, 298, 1066]))
@example(x=0.0, e=-0.5, prec=85)
@example(x=0.0, e=float("-inf"), prec=85)
@example(x=1.0, e=float("inf"), prec=85)
def test_power_is_mpf_pow(x, e, prec):
    # integer, half-integer, infinite and general exponents of x >= 0,
    # failures included
    x, e = from_float(x), from_float(e)
    try:
        expected = mpf_pow(x, e, prec, round_nearest)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _power(x, e, prec)
        return
    assert _power(x, e, prec) == expected


_COLD_RUN = """
import json, random
from mpmath.libmp import libelefun
from exptail import numerics
from exptail.numerics import _log, lower_incomplete_gamma
from exptail.precision import PrecisionContext
from exptail.remainders import b_value, r_frac

ctx = PrecisionContext(256)
rng = random.Random(20261022)
before = len(libelefun.log_taylor_cache)
for _ in range(300):
    x, a = 10.0 ** rng.uniform(-20, 4), rng.uniform(-0.999, 10)
    r_frac(a, x, ctx)
    b_value(a, x, ctx)
    lower_incomplete_gamma(a + 1, x, ctx)
gained = len(libelefun.log_taylor_cache) - before
for prec in range(53, 2453, 12):
    _log((0, 3, -1, 2), prec)
info = numerics._log_tables.cache_info()
print(json.dumps([gained, info.currsize, info.maxsize, info.misses]))
"""


def test_cold_powers_leave_mpmaths_log_table_unfilled():
    # in a fresh interpreter, where every entry of mpmath's log table is
    # still to be built: the real powers of three remainders fill none,
    # and the package's own tables stay within their bound
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    gained, size, bound, built = json.loads(proc.stdout)
    assert gained <= 5
    assert built >= 30 and size <= bound
