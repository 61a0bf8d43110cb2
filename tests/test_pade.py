"""Rational approximants of exp: exact coefficients, the order condition,
the Aitken link to the first row, and the direction switch at x = n+1."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, mpf_div, mpf_pos, round_nearest

import exptail
from exptail import pade
from conftest import rel_err
from exptail.errors import DegeneratePointError, DomainError, NumericalError, PoleError
from exptail.pade import (MAX_PADE_ORDER, aitken_row, cesaro_identity_probe, cesaro_mean,
                          delta_fn, eval_approximant, order_condition_defect, pade_exp,
                          real_pole, taylor_partial)
from exptail.precision import GUARD_BITS, PrecisionContext


def test_low_order_coefficients():
    # num and den are integers whose ratios to den[0] are the closed forms
    # p_j and q_j of the [n/m] row
    f = math.factorial
    for n in range(13):
        for m in range(13):
            a = pade_exp(n, m)
            assert all(type(c) is int for c in a.num + a.den), (n, m)
            assert [Fraction(c, a.den[0]) for c in a.num] == [
                Fraction(f(n) * f(n + m - j), f(n + m) * f(j) * f(n - j)) for j in range(n + 1)]
            assert [Fraction(c, a.den[0]) for c in a.den] == [
                Fraction((-1) ** j * f(m) * f(n + m - j), f(n + m) * f(j) * f(m - j))
                for j in range(m + 1)]


def test_order_condition_symbolic():
    for n in range(11):
        for m in range(11 - n):
            defects = order_condition_defect(pade_exp(n, m))
            assert all(d == 0 for d in defects)


def test_eval_values(ctx):
    assert eval_approximant(pade_exp(1, 1), 1, ctx) == 3
    assert eval_approximant(pade_exp(1, 1), 0, ctx) == 1
    assert eval_approximant(pade_exp(0, 1), mpf("0.5"), ctx) == 2


def test_pole_guard(ctx):
    with pytest.raises(PoleError) as err:
        eval_approximant(pade_exp(1, 1), 2, ctx)
    assert err.value.root == 2
    with pytest.raises(PoleError):
        eval_approximant(pade_exp(0, 1), 1, ctx)


def _exact_den(appr, x):
    """den(x)/den(0) in exact rational arithmetic at the dyadic x."""
    man, exp = x.man_exp
    xq = int(man) * Fraction(2) ** int(exp)
    return sum(c * xq**j for j, c in enumerate(appr.den)) / appr.den[0]


def test_cancelling_denominator_far_from_its_root_is_evaluated():
    # [0/999] at x = 300: the denominator cancels ~730 bits against its term
    # scale, but its only real root is at 279.47; the value is 1/den(300)
    appr = pade_exp(0, 999)
    for bits in (53, 256):
        ctx = PrecisionContext(bits)
        value = eval_approximant(appr, 300, ctx)
        exact = 1 / _exact_den(appr, mpf(300))
        with mp.workprec(bits + 64):
            assert rel_err(value, mpf(exact.numerator) / exact.denominator) < ctx.target_rel_err
        assert value < 0


def test_pole_refused_only_within_the_relative_distance_of_a_root():
    appr = pade_exp(0, 999)
    ctx = PrecisionContext(256)
    with mp.workprec(2000):
        coeffs = [mpf(c) / appr.den[0] for c in appr.den]
        root = mp.findroot(lambda t: mp.polyval(coeffs[::-1], t), mpf("279.472"))
        near, beyond = (ctx.finalize(root * (1 + mpf(d))) for d in ("1e-70", "1e-60"))
    with pytest.raises(PoleError) as err:
        eval_approximant(appr, near, ctx)
    assert abs(err.value.root - root) <= 10 * ctx.target_rel_err * root
    assert mp.isfinite(eval_approximant(appr, beyond, ctx))


def test_exact_zeros_of_a_numerator_are_zero():
    ctx = PrecisionContext(53)
    assert eval_approximant(pade_exp(1, 1), -2, ctx) == 0
    assert eval_approximant(pade_exp(1, 0), -1, ctx) == 0


def test_cancellation_past_the_boost_cap_is_a_numerical_error(monkeypatch):
    # room for the degree-999 denominator's pass at the working precision,
    # not for the ~730 extra bits it loses at x = 300
    monkeypatch.setattr(pade, "MAX_HORNER_WORK", 999 * (2048 + 256))
    with pytest.raises(NumericalError):
        eval_approximant(pade_exp(0, 999), 300, PrecisionContext(53))


def _exact_sum(n: int, x: Fraction, weight=lambda j: 1) -> Fraction:
    """sum_{j<=n} weight(j) x**j/j! in exact rational arithmetic."""
    total, term = Fraction(0), Fraction(1)
    for j in range(n + 1):
        total += weight(j) * term
        term = term * x / (j + 1)
    return total


def _within_one_ulp(value: mpf, exact: Fraction, bits: int) -> bool:
    """Whether the mpf ``value`` of at most ``bits`` bits lies within one unit
    in its last place, 2**(exp + bc - bits), of ``exact``."""
    sign, man, exp, bc = value._mpf_
    if not man:
        return exact == 0
    return abs((-1) ** sign * man * Fraction(2) ** exp - exact) <= Fraction(2) ** (exp + bc - bits)


_FAMILY = ("eval_approximant", "aitken_row", "cesaro_mean", "taylor_partial")


@settings(max_examples=300, deadline=None)
@given(fn=st.sampled_from(_FAMILY), n=st.integers(0, 16), m=st.integers(0, 16),
       x=st.one_of(st.floats(-60, 60), st.floats(-1e-300, 1e-300)),
       bits=st.sampled_from([53, 256, 1024]))
@example(fn="eval_approximant", n=1, m=1, x=-2.0, bits=53)  # exact zeros of a numerator
@example(fn="eval_approximant", n=1, m=0, x=-1.0, bits=53)
@example(fn="taylor_partial", n=1, m=0, x=-1.0, bits=256)
@example(fn="cesaro_mean", n=1, m=0, x=-2.0, bits=256)
@example(fn="aitken_row", n=1, m=0, x=-2.0, bits=1024)
@example(fn="eval_approximant", n=12, m=12, x=-60.0, bits=53)  # both sides cancel
@example(fn="eval_approximant", n=0, m=3, x=5e-324, bits=1024)
def test_family_within_one_ulp_of_the_exact_value(fn, n, m, x, bits):
    # every value of the family, rounded once from its integer Horner pass,
    # is within one ulp at bits of the exact rational value at the float x;
    # a point refused as a pole or a degenerate point is one
    ctx, xq = PrecisionContext(bits), Fraction(x)
    tre = _exact(ctx.target_rel_err)
    if fn == "eval_approximant":
        appr = pade_exp(n, m)
        den = lambda t: sum(c * t ** j for j, c in enumerate(appr.den))
        try:
            value = eval_approximant(appr, x, ctx)
        except PoleError:
            delta = 20 * tre * abs(xq)
            assert den(xq) == 0 or den(xq - delta) * den(xq + delta) < 0
            return
        exact = sum(c * xq ** j for j, c in enumerate(appr.num)) / den(xq)
    elif fn == "aitken_row":
        n = max(n, 1)
        try:
            value = aitken_row(n, x, ctx)
        except DegeneratePointError:
            assert abs(xq) <= 10 * tre or abs(xq - n - 1) <= 10 * tre * (n + 1)
            return
        exact = _exact_sum(n, xq, lambda j: n + 1 - j) / (n + 1 - xq)
    elif fn == "cesaro_mean":
        value = cesaro_mean(n, x, ctx)
        exact = _exact_sum(n, xq, lambda j: 1 - Fraction(j, n + 1))
    else:
        value, exact = taylor_partial(n, x, ctx), _exact_sum(n, xq)
    assert _within_one_ulp(value, exact, bits), (value, exact)


def _ints_at(coeffs, xq: Fraction) -> tuple[Fraction, Fraction]:
    """(value, term scale) of the integer polynomial ``coeffs`` at xq, exactly."""
    terms = [c * xq ** j for j, c in enumerate(coeffs)]
    return sum(terms), sum(abs(t) for t in terms)


def _pass_window(coeffs, ctx: PrecisionContext) -> int:
    """The window of _accurate's first Horner pass, before any extra bits."""
    return ctx.bits + GUARD_BITS + (len(coeffs) - 1).bit_length() + 8


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 12), m=st.integers(0, 12), x=st.floats(-60, 60),
       bits=st.sampled_from([53, 256]))
def test_points_that_lose_few_bits_are_one_horner_pass(n, m, x, bits):
    # where neither polynomial loses more than GUARD_BITS to cancellation,
    # the value is num/den of one integer Horner pass each, rounded once
    ctx, xq = PrecisionContext(bits), Fraction(x)
    appr = pade_exp(n, m)
    for coeffs in (appr.num, appr.den):
        value, scale = _ints_at(coeffs, xq)
        # the pass's estimate of the bits lost errs by at most 2
        if not value or scale > 2 ** (GUARD_BITS - 3) * abs(value):
            return
    sign, man, exp, _ = mpf(x)._mpf_
    num, den = (from_man_exp(*pade._horner(c, -man if sign else man, exp, _pass_window(c, ctx))[:2])
                for c in (appr.num, appr.den))
    expected = mpf_div(num, den, bits, round_nearest)
    assert eval_approximant(appr, x, ctx)._mpf_ == expected


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 12), m=st.integers(0, 12), x=st.floats(-60, 60),
       bits=st.sampled_from([53, 256]))
@example(n=1, m=1, x=-2.0, bits=53)  # an exact zero of the numerator
@example(n=12, m=12, x=0.5, bits=53)
@example(n=12, m=12, x=-59.75, bits=256)
def test_exact_branch_is_the_rounded_fraction_horner(n, m, x, bits):
    # where a Horner pass drops no bit, _accurate gives the exact rational
    # value of the polynomial at the dyadic x, which rounds as a Fraction
    # Horner's value does
    ctx, xq, xr = PrecisionContext(bits), Fraction(x), mpf(x)._mpf_
    sign, man, exp, _ = xr
    appr = pade_exp(n, m)
    for coeffs in (appr.num, appr.den):
        exact = _ints_at(coeffs, xq)[0]
        A, t, is_exact = pade._horner(coeffs, -man if sign else man, exp, _pass_window(coeffs, ctx))
        if not is_exact:
            continue
        assert A * Fraction(2) ** t == exact
        value, _ = pade._accurate(coeffs, xr, ctx)
        assert value == from_man_exp(A, t)
        assert mpf_pos(value, bits, round_nearest) == from_rational(
            exact.numerator, exact.denominator, bits, round_nearest)


@pytest.mark.parametrize("n,x", [(200, -60), (400, -40), (100, -20)])
def test_cesaro_and_taylor_at_negative_x_against_exact_sum(n, x):
    # alternating terms cancel about 2|x| log2(e) bits; summed without extra
    # bits, cesaro_mean(200, -60) read 0.02746 at 53 bits for 1.422e-23
    for bits in (53, 256, 1024):
        ctx = PrecisionContext(bits)
        exact = _exact_sum(n, Fraction(x), lambda j: 1 - Fraction(j, n + 1))
        assert _within_one_ulp(cesaro_mean(n, x, ctx), exact, bits), bits
        assert _within_one_ulp(taylor_partial(n, x, ctx), _exact_sum(n, Fraction(x)), bits), bits


def test_widest_window_the_cap_allows_is_tried_before_refusing(monkeypatch):
    # cesaro_mean(2000, -300) at 256 bits asks for windows of 307, 617, 928
    # and 1,549 bits; under a cap of 1,300-bit steps the 1,549-bit pass was
    # refused, though a 1,300-bit pass loses 865 bits, within its allowance
    # of 1,025, and under a cap of 1,100-bit steps that pass is refused
    ctx = PrecisionContext(256)
    exact = _exact_sum(2000, Fraction(-300), lambda j: 1 - Fraction(j, 2001))
    monkeypatch.setattr(pade, "MAX_HORNER_WORK", 2000 * (1300 + 2048))
    assert _within_one_ulp(cesaro_mean(2000, -300, ctx), exact, 256)
    monkeypatch.setattr(pade, "MAX_HORNER_WORK", 2000 * (1100 + 2048))
    with pytest.raises(NumericalError):
        cesaro_mean(2000, -300, ctx)


@pytest.mark.parametrize("call", [
    *(pytest.param(lambda ctx, x=x, nm=nm: eval_approximant(pade_exp(*nm), mpf(x), ctx),
                   id=f"pade-{nm[0]}-{nm[1]}-{x}")
      for nm in ((0, 999), (500, 500))
      for x in ("1e-100000", "-1e-100000", "1e100000", "-1e100000")),
    pytest.param(lambda ctx: aitken_row(29, -1e6, ctx), id="aitken29--1e6"),
    *(pytest.param(lambda ctx, f=f, x=x: f(10 ** 5, x, ctx), id=f"{f.__name__}-1e5-{x}")
      for f in (cesaro_mean, taylor_partial) for x in (1, 2 * 10 ** 5)),
    pytest.param(lambda ctx: cesaro_mean(10 ** 8, -1, ctx), id="cesaro-1e8--1"),
])
def test_cost_stays_bounded(call):
    # a pass costs O(degree * window bits) whatever the exponent of x, and
    # one past MAX_HORNER_WORK is refused before it runs
    ctx = PrecisionContext(256)
    start = time.perf_counter()
    try:
        assert mp.isfinite(call(ctx))
    except NumericalError:
        pass
    assert time.perf_counter() - start < 5


def _sturm_count(coeffs) -> int:
    """Distinct real roots of the polynomial with ascending Fraction
    ``coeffs``: sign changes of an exact Sturm sequence at -oo minus +oo."""
    seq = [list(reversed(coeffs))]  # descending
    if len(seq[0]) > 1:
        seq.append([c * (len(seq[0]) - 1 - i) for i, c in enumerate(seq[0][:-1])])
    while len(seq[-1]) > 1:
        rem = list(seq[-2])
        while len(rem) >= len(seq[-1]):
            f = rem[0] / seq[-1][0]
            rem = [a - f * b for a, b in zip(rem[1:], seq[-1][1:] + [0] * len(rem))]
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            break
        seq.append([-c for c in rem])

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_inf = [(p[0] > 0) - (p[0] < 0) for p in seq]
    at_minus_inf = [s * (-1) ** (len(p) - 1) for s, p in zip(at_inf, seq)]
    return changes(at_minus_inf) - changes(at_inf)


def test_sturm_count_of_known_polynomials():
    F = Fraction
    assert _sturm_count([F(-2), F(0), F(1)]) == 2  # x**2 - 2
    assert _sturm_count([F(2), F(0), F(1)]) == 0  # x**2 + 2
    assert _sturm_count([F(0), F(-1), F(0), F(1)]) == 3  # x**3 - x
    assert _sturm_count([F(1)]) == 0


def test_denominator_has_one_real_root_for_odd_m_and_none_for_even_m():
    # the parity rule of Saff and Varga, Numer. Math. 1975, that real_pole rests on
    for n in range(13):
        for m in range(13):
            assert _sturm_count([Fraction(c) for c in pade_exp(n, m).den]) == m % 2, (n, m)


@pytest.mark.parametrize("bits", [53, 256, 1024])
def test_real_pole_against_findroot(bits):
    # at 53 bits the old scan found 7 roots of [0/201], 29.1810 for [0/101]'s
    # root, and 61.489 for [51/51]'s; the references are 2048-bit roots
    ctx = PrecisionContext(bits)
    cases = {(0, 201): "57.0870375358253577", (0, 101): "29.1697640329205754",
             (51, 51): "68.2629254321770257", (201, 201): "267.085688282089875",
             (390, 73): "414.869966540637106"}  # den cancels 209 bits > 2m there
    for (n, m), digits in cases.items():
        appr = pade_exp(n, m)
        with mp.workprec(2048):
            coeffs = [mpf(c) / appr.den[0] for c in reversed(appr.den)]
            root = mp.findroot(lambda t: mp.polyval(coeffs, t), mpf(digits))
            assert mp.nstr(root, 30).startswith(digits)
            assert abs(real_pole(appr, ctx) - root) <= root * mpf(2) ** -bits, (n, m)
    assert real_pole(pade_exp(0, 200), ctx) is None


def test_real_pole_exact_cases(ctx):
    assert real_pole(pade_exp(2, 1), ctx) == 3  # den = 1 - x/3
    assert real_pole(pade_exp(1, 1), PrecisionContext(53)) == 2
    assert real_pole(pade_exp(0, 1), ctx) == 1
    assert all(real_pole(pade_exp(n, 2 * j), ctx) is None for n in range(5) for j in range(4))


def test_real_pole_not_isolated_is_a_numerical_error(monkeypatch):
    # a root rounded to 20 bits before its certificate cannot be isolated
    # 2**-(bits+8) apart
    rounding = pade.mpf_pos
    monkeypatch.setattr(pade, "mpf_pos", lambda raw, prec, rnd: rounding(raw, 20, rnd))
    with pytest.raises(NumericalError):
        real_pole(pade_exp(0, 101), PrecisionContext(53))


def test_taylor_partial(ctx):
    assert taylor_partial(0, mpf("7.3"), ctx) == 1
    assert rel_err(taylor_partial(2, 1, ctx), mpf("2.5")) == 0
    with pytest.raises(DomainError):
        taylor_partial(-1, 1, ctx)


def test_aitken_equals_first_row(ctx):
    for n in range(1, 7):
        appr = pade_exp(n, 1)
        for x in (mpf("0.3"), mpf(1), mpf("2.7")):
            if abs(x - (n + 1)) < mpf("1e-6"):
                continue
            lhs = aitken_row(n, x, ctx)
            rhs = eval_approximant(appr, x, ctx)
            assert rel_err(lhs, rhs) < mpf("1e-25")


def test_aitken_closed_form_n1(ctx):
    # for n = 1 the transform simplifies to (2+x)/(2-x)
    for x in (mpf("0.5"), mpf(1), mpf("1.9")):
        assert rel_err(aitken_row(1, x, ctx), (2 + x) / (2 - x)) < mpf("1e-30")
    assert aitken_row(1, 1, ctx) == 3


def test_aitken_degenerate_points(ctx):
    with pytest.raises(DegeneratePointError):
        aitken_row(2, 3, ctx)
    with pytest.raises(DegeneratePointError):
        aitken_row(2, 0, ctx)


def _exact_aitken(n: int, x: Fraction) -> Fraction:
    t = [sum(x ** k / math.factorial(k) for k in range(m + 1)) for m in (n - 1, n, n + 1)]
    return (t[0] * t[2] - t[1] ** 2) / (t[2] + t[0] - 2 * t[1])


def _exact(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("x", [181000, -181000])
def test_aitken_just_under_the_boost_cap_against_exact_value(bits, x):
    # n = 29 at x = -182,000 was refused past the transform's old cap of 2**19
    # extra bits; the closed form N(x)/(n+1-x) loses no bits where |x| > n,
    # so both sides of that cap are evaluated, at either sign
    n, ctx = 29, PrecisionContext(bits)
    for point in (x, 182000 if x > 0 else -182000):
        exact = _exact_aitken(n, Fraction(point))
        with mp.workprec(bits + 64):
            reference = mpf(exact.numerator) / exact.denominator
        assert rel_err(aitken_row(n, point, ctx), reference) < ctx.target_rel_err, point


@pytest.mark.parametrize("n", [29, 100, 200])
@pytest.mark.parametrize("x", [-1, -50, -80, -200])
def test_aitken_at_negative_x_against_exact_value(n, x):
    # the alternating partial sums keep the boost that absorbs their
    # cancellation, at every precision
    exact = _exact_aitken(n, Fraction(x))
    for bits in (53, 256, 1024):
        ctx = PrecisionContext(bits)
        with mp.workprec(bits + 64):
            reference = mpf(exact.numerator) / exact.denominator
        assert rel_err(aitken_row(n, x, ctx), reference) < ctx.target_rel_err, bits


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("n,x", [(1, "0.5"), (3, "4.1"), (10, "11.01"), (10, "9000"),
                                 (29, "1e9"), (100, "50"), (100, "101.01"), (100, "1000"),
                                 (2, "3.001")])
def test_aitken_closed_form_against_exact_value(bits, n, x):
    # x > 0, near and past the degenerate point n + 1, at a few guard bits
    ctx = PrecisionContext(bits)
    xw = ctx.finalize(mpf(x))
    exact = _exact_aitken(n, _exact(xw))
    with mp.workprec(bits + 64):
        reference = mpf(exact.numerator) / exact.denominator
    assert rel_err(aitken_row(n, xw, ctx), reference) < ctx.target_rel_err


def test_aitken_at_large_x_is_fast():
    # the closed form took 2 ms here at about 26,000 extra bits
    ctx = PrecisionContext(256)
    start = time.perf_counter()
    for _ in range(10):
        aitken_row(10, 9000, ctx)
    assert time.perf_counter() - start < 0.5


def test_aitken_past_the_float_range_is_evaluated(ctx):
    # float(x) is -inf there: the transform's boost estimate refused it, and
    # the closed form on integers takes it exactly
    xw = ctx.finalize(mpf("-1e400"))
    exact = _exact_aitken(3, _exact(xw))
    assert rel_err(aitken_row(3, xw, ctx), exact) < ctx.target_rel_err
    assert rel_err(aitken_row(3, mpf("1e400"), ctx), -mpf("1e800") / 6) < ctx.target_rel_err


def test_aitken_near_zero_limit(ctx):
    assert abs(aitken_row(3, mpf("1e-8"), ctx) - 1) < mpf("1e-7")


def test_delta_fn():
    assert delta_fn(0, 1) == 0
    assert delta_fn(3, 1) == -3
    assert delta_fn(2, mpf("4.5")) == mpf("1.5")


def test_delta_sign_matches_inequality_direction(ctx):
    # below the switch the approximant dominates exp, above it is dominated
    for n in range(0, 7):
        appr = pade_exp(n, 1)
        lo = mpf(n + 1) / 2
        hi = mpf(3) * (n + 1) / 2
        assert delta_fn(n, lo) < 0
        assert eval_approximant(appr, lo, ctx) > mp.exp(lo)
        assert delta_fn(n, hi) > 0
        assert eval_approximant(appr, hi, ctx) < mp.exp(hi)


def test_cesaro_values(ctx):
    assert cesaro_mean(0, mpf(5), ctx) == 1
    assert rel_err(cesaro_mean(1, 1, ctx), mpf("1.5")) == 0


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("x", ["0.75", "3", "1500", "1999.5", "2500", "-5"])
def test_cesaro_against_exact_sum(bits, x):
    # for 0 <= x < n the sum stops once its terms fall below half an ulp;
    # x >= n and x < 0 sum every term
    n, ctx = 2000, PrecisionContext(bits)
    xw = ctx.finalize(mpf(x))
    xf = _exact(xw)
    exact = sum((1 - Fraction(j, n + 1)) * xf ** j / math.factorial(j) for j in range(n + 1))
    with mp.workprec(bits + 64):
        reference = mpf(exact.numerator) / exact.denominator
    assert rel_err(cesaro_mean(n, xw, ctx), reference) < ctx.target_rel_err


def test_cesaro_at_order_1e5_stops_early():
    # every one of the 100,001 terms took 1.6 s here
    ctx = PrecisionContext(256)
    start = time.perf_counter()
    value = cesaro_mean(10**5, 1, ctx)
    assert time.perf_counter() - start < 0.2
    with mp.workprec(256 + 64):
        reference = mp.e - mp.e / (10**5 + 1)  # sum_j (1 - j/(n+1)) / j! to 2**-300
    assert rel_err(value, reference) < ctx.target_rel_err


def test_cesaro_identity_probe(ctx):
    # the classical reading closes the identity with the two-parameter
    # remainder; the reading with x inside the bracket fails badly
    for n, x in [(2, mpf(2)), (1, mpf(2)), (4, mpf("0.5"))]:
        probe = cesaro_identity_probe(n, x, ctx)
        assert probe["closes_identity"] == "classical"
        assert probe["classical_residual"] < mpf("1e-60")
        assert probe["alternative_residual"] > mpf("1e-3")
    reported = cesaro_identity_probe(2, 1, ctx)
    assert {"classical_residual", "alternative_residual", "closes_identity"} <= set(reported)


@pytest.mark.parametrize("n,m", [(MAX_PADE_ORDER, 1), (0, MAX_PADE_ORDER + 1), (10 ** 4, 1)])
def test_pade_order_limit(n, m):
    with pytest.raises(DomainError):
        pade_exp(n, m)


def test_pade_order_limit_exits_2_at_once():
    src = os.path.dirname(os.path.dirname(exptail.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "exptail.cli", "eval", "--quantity", "pade",
                           "--n", "10000", "--m", "1", "--x", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.monotonic() - start < 1
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
