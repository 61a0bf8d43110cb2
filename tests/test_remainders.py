"""Remainder family: closed forms, dual-path agreement, and the
structural identities tying orders together."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import rel_err
from exptail.errors import DomainError, UsageError
from exptail.numerics import gamma_fn, quad_integral
from exptail.pade import taylor_partial
from exptail.precision import PrecisionContext
from exptail.remainders import (RemainderKind, RemainderSpec, b_value, cross_check,
                                eps_value, finite_diff, g_ratio, neg_remainder_sign, q_value,
                                r_frac, r_neg, r_obreshkov, r_tail)

# frozen: 512-bit subtraction e**x - degree-4 partial sum at the binary
# double closest to 0.1 (the tail series must reproduce it independently)
R_TAIL_4_01 = ("8.4742314291478398093217602124425524715399196738309949183778189473562710"
               "10943441156404266898798544247e-8")
# frozen: ln(2(e-2)) evaluated at 512 bits
Q_1_1 = ("0.36225391235589077585108611672724602827406733156429029665607488116118913"
         "62502378619631187275199003632")
# frozen: (e-1)/(e-2) evaluated at 512 bits
G_1_1 = ("2.392211191177332814376552878479816528373978385315287123591324567083279"
         "570461610926691710587267612999")


def test_tail_basic_values(ctx):
    assert rel_err(r_tail(0, 1, ctx), mp.e - 1) < 10 * ctx.target_rel_err
    assert r_tail(7, 0, ctx) == 0
    assert rel_err(r_tail(4, mpf(0.1), ctx), mpf(R_TAIL_4_01)) < 10 * ctx.target_rel_err


def test_tail_plus_partial_is_exp(ctx):
    for n in (0, 3, 9):
        for x in (mpf("0.25"), mpf(2), mpf(17)):
            total = taylor_partial(n, x, ctx) + r_tail(n, x, ctx)
            assert rel_err(total, mp.exp(x)) < 10 * ctx.target_rel_err


def test_partial_sum_identity(ctx):
    # r_tail(n-1, x) - r_tail(n, x) = x**n/n! to rounding of the operands
    for n in (1, 4, 9):
        for x in (mpf("0.3"), mpf(2), mpf(20)):
            lhs = r_tail(n - 1, x, ctx) - r_tail(n, x, ctx)
            scale = r_tail(n - 1, x, ctx)
            assert abs(lhs - x**n / math.factorial(n)) <= 10 * ctx.target_rel_err * scale


def test_frac_matches_integer_orders(ctx):
    for n, x in [(3, mpf(2)), (0, mpf(1)), (6, mpf("11.5"))]:
        assert rel_err(r_frac(n, x, ctx), r_tail(n, x, ctx)) < 10 * ctx.target_rel_err


def test_frac_zero_and_domain(ctx):
    assert r_frac(mpf("0.5"), 0, ctx) == 0
    with pytest.raises(DomainError):
        r_frac(-1, 1, ctx)
    with pytest.raises(DomainError):
        r_frac(mpf("-1.2"), 1, ctx)
    with pytest.raises(DomainError):
        r_frac(mpf("0.5"), -2, ctx)


def test_frac_against_quadrature(ctx):
    a = mpf("0.5")
    res = quad_integral(lambda t: (1 - t) ** a * mp.exp(t), 0, 1, a, ctx)
    assert rel_err(r_frac(a, 1, ctx), res.value / gamma_fn(a + 1, ctx)) < mpf("1e-25")


def test_ladder_identity(ctx):
    # R_a(x) = x**(a+1)/Gamma(a+2) + R_{a+1}(x)
    for a in (mpf("-0.9"), mpf("-0.5"), mpf(0), mpf("0.5"), mpf("1.7"), mpf(3), mpf(8)):
        for x in (mpf("0.1"), mpf(1), mpf(5), mpf(20)):
            lhs = r_frac(a, x, ctx)
            rhs = x ** (a + 1) / gamma_fn(a + 2, ctx) + r_frac(a + 1, x, ctx)
            assert rel_err(lhs, rhs) < 10 * ctx.target_rel_err


def test_derivative_property_order2_convergence(ctx):
    # central difference of R_nu at step h approaches R_{nu-1} like h**2
    for nu, x in [(mpf("3.5"), mpf(2)), (mpf("5.2"), mpf("0.7"))]:
        target = r_frac(nu - 1, x, ctx)
        errors = []
        h = mpf(1) / 64
        for _ in range(3):
            approx = (r_frac(nu, x + h, ctx) - r_frac(nu, x - h, ctx)) / (2 * h)
            errors.append(abs(approx - target))
            h /= 2
        assert errors[2] < errors[1] < errors[0]
        assert 3.5 < errors[0] / errors[1] < 4.5
        assert 3.5 < errors[1] / errors[2] < 4.5


def test_positivity(ctx):
    for x in (mpf("0.01"), mpf(1), mpf(25)):
        assert r_tail(5, x, ctx) > 0
        assert r_frac(mpf("-0.5"), x, ctx) > 0
        assert r_neg(4, x, ctx) > 0
        assert r_obreshkov(2, 2, x, ctx) > 0
        assert r_obreshkov(2, 1, x, ctx) < 0  # sign (-1)**m


def test_neg_closed_form_and_sign(ctx):
    assert rel_err(r_neg(0, 1, ctx), 1 - mp.exp(-1)) < 10 * ctx.target_rel_err
    assert r_neg(3, 0, ctx) == 0
    assert neg_remainder_sign(0) == -1
    assert neg_remainder_sign(1) == 1
    assert neg_remainder_sign(4) == -1


def test_neg_matches_alternating_tail(ctx):
    # alternating subtraction path at boosted precision as an oracle
    for n, x in [(2, mpf(3)), (5, mpf("0.4")), (1, mpf(12))]:
        with mp.workprec(ctx.bits + int(float(x) * 1.5) + 128):
            tail = mpf(0)
            term = (-x) ** (n + 1) / math.factorial(n + 1)
            k = n + 1
            while abs(term) > mpf(2) ** (-(ctx.bits + 96)) * max(1, abs(tail)):
                tail += term
                k += 1
                term *= -x / k
            ref = abs(tail)
        assert rel_err(r_neg(n, x, ctx), ref) < 10 * ctx.target_rel_err


def test_obreshkov_reduces_to_tail(ctx):
    for n, x in [(2, mpf(1)), (0, mpf(4)), (5, mpf("0.3"))]:
        assert rel_err(r_obreshkov(n, 0, x, ctx), r_tail(n, x, ctx)) < 10 * ctx.target_rel_err
    assert r_obreshkov(3, 2, 0, ctx) == 0


def test_obreshkov_exact_rational_point(ctx):
    # explicit form (1 - x/2)e**x - (1 + x/2): the front factor vanishes
    # at x = 2, leaving exactly -2
    assert rel_err(r_obreshkov(1, 1, 2, ctx), -2) < 10 * ctx.target_rel_err


def test_obreshkov_against_quadrature(ctx):
    for n, m, x in [(1, 1, mpf(1)), (2, 3, mpf("2.5"))]:
        res = quad_integral(lambda t: (x - t) ** n * t**m * mp.exp(t), 0, x, n, ctx)
        ref = (-1) ** m * res.value / math.factorial(n + m)
        assert rel_err(r_obreshkov(n, m, x, ctx), ref) < mpf("1e-25")


def test_q_value_basics(ctx):
    assert rel_err(q_value(1, 1, ctx), mpf(Q_1_1)) < 10 * ctx.target_rel_err
    with pytest.raises(DomainError):
        q_value(1, 0, ctx)
    with pytest.raises(DomainError):
        q_value(0, 1, ctx)


def test_q_value_in_unit_interval(ctx):
    for n in (1, 2, 5, 9):
        for x in (mpf("0.001"), mpf("0.7"), mpf(4), mpf(30)):
            q = q_value(n, x, ctx)
            assert 0 < q < 1


def test_q_value_small_x_limit(ctx):
    # Q_n(x) -> 1/(n+2); validated by shrinking x
    n = 2
    q3 = q_value(n, mpf("1e-3"), ctx)
    q6 = q_value(n, mpf("1e-6"), ctx)
    assert abs(q3 - Fraction(1, n + 2)) < mpf("1e-3")
    assert abs(q6 - Fraction(1, n + 2)) < mpf("1e-6")


@pytest.mark.parametrize("x", ["1e-10", "1e-20", "1e-90", "1e-300"])
def test_q_value_tiny_x(ctx, x):
    # log 1F1(1; n+2; x) rounds to log 1 here; the log1p form does not
    x = ctx.finalize(x)
    for n in (1, 3, 16):
        ref = mp.log1p(x / (n + 2) * mp.hyp1f1(1, n + 3, x)) / x
        assert rel_err(q_value(n, x, ctx), ref) < 10 * ctx.target_rel_err


def test_b_value(ctx):
    assert rel_err(b_value(0, 1, ctx), mp.e - 1) < 10 * ctx.target_rel_err
    composed = gamma_fn(mpf("2.5"), ctx) * r_frac(mpf("0.5"), 2, ctx)
    assert rel_err(b_value(mpf("0.5"), 2, ctx), composed) < 10 * ctx.target_rel_err


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("nu,x", [(0, "1"), ("0.5", "2"), ("-0.75", "0.01"), ("13.7", "30"),
                                  ("3", "1e-20"), ("2.25", "400")])
def test_b_value_against_mpmath(bits, nu, x):
    # x**(nu+1) 1F1(1; nu+2; x) summed directly, on the series route and
    # (x = 400) the large-x route
    ctx = PrecisionContext(bits)
    nuw, xw = ctx.finalize(mpf(nu)), ctx.finalize(mpf(x))
    value = b_value(nuw, xw, ctx)
    with mp.workprec(bits + 64):
        reference = xw ** (nuw + 1) * mp.hyp1f1(1, nuw + 2, xw)
    assert rel_err(value, reference) < ctx.target_rel_err
    assert b_value(nuw, 0, ctx) == 0


@pytest.mark.parametrize("nu,x", [(-1, 1), (-2, 1), ("nan", 1), ("inf", 1), (1, -1)])
def test_b_value_domain(ctx, nu, x):
    with pytest.raises(DomainError):
        b_value(mpf(nu), x, ctx)


def test_b_log_convexity(ctx):
    for x in (mpf("0.2"), mpf(2), mpf(15)):
        bs = [b_value(n, x, ctx) for n in range(8)]
        for i in range(1, 7):
            assert bs[i] ** 2 <= bs[i - 1] * bs[i + 1]


def test_eps_range_and_monotonicity(ctx):
    for nu in (mpf("0.5"), mpf(1), mpf("3.7")):
        values = [eps_value(nu, x, ctx) for x in (mpf("0.01"), mpf("0.5"), mpf(2), mpf(10), mpf(100))]
        assert all(0 <= v <= 1 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_eps_limits(ctx):
    # x -> 0 limit is 1/(nu+3); x -> oo approaches 1
    assert abs(eps_value(1, mpf("1e-6"), ctx) - Fraction(1, 4)) < mpf("1e-5")
    assert eps_value(1, 1, ctx) > 0 and eps_value(1, 1, ctx) < 1
    assert eps_value(1, 100, ctx) > mpf("0.95")
    with pytest.raises(DomainError):
        eps_value(1, 0, ctx)


@pytest.mark.parametrize("x", ["1e-10", "1e-20", "1e-90", "1e-300"])
def test_eps_tiny_x(ctx, x):
    # reference from the defining difference R_nu/R_{nu+1} - (nu+2)/x,
    # with the log2(1/x) bits it cancels added to the precision
    x = ctx.finalize(x)
    for nu in (mpf("-0.5"), mpf("0.5"), mpf("3.7")):
        with mp.workprec(mp.prec + int(-mp.log(x, 2))):
            f2, f3 = mp.hyp1f1(1, nu + 2, x), mp.hyp1f1(1, nu + 3, x)
            ref = (nu + 2) / x * (f2 - f3) / f3
        assert rel_err(eps_value(nu, x, ctx), ref) < 10 * ctx.target_rel_err


def test_g_ratio(ctx):
    assert rel_err(g_ratio(1, 1, ctx), mpf(G_1_1)) < 10 * ctx.target_rel_err
    for n, x in [(1, mpf("0.2")), (4, mpf(3)), (8, mpf(25))]:
        assert g_ratio(n, x, ctx) > 1
    approx = g_ratio(3, mpf("0.001"), ctx)
    assert abs(approx - 4000) / 4000 < mpf("0.005")
    with pytest.raises(DomainError):
        g_ratio(3, 0, ctx)


def test_finite_diff_basics():
    assert finite_diff([1, 2, 4], 1).values == (1, 2)
    assert finite_diff([1, 3, 5, 7], 2).values == (0, 0)
    with pytest.raises(UsageError):
        finite_diff([1, 2], 2)
    with pytest.raises(UsageError):
        finite_diff([1, 2, 3], 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=9),
       st.integers(min_value=1, max_value=3))
def test_finite_diff_matches_binomial_formula(values, k):
    vals = [Fraction(v) for v in values]
    iterated = finite_diff(vals, k).values
    formula = tuple(
        sum((-1) ** (k - j) * math.comb(k, j) * vals[i + j] for j in range(k + 1))
        for i in range(len(vals) - k)
    )
    assert iterated == formula


def test_finite_diff_nested(ctx):
    vals = [q_value(n, mpf("0.8"), ctx) for n in range(1, 6)]
    assert finite_diff(vals, 2).values == finite_diff(finite_diff(vals, 1), 1).values


def test_q_second_difference_positive(ctx):
    for x in (mpf("0.5"), mpf(1), mpf(10)):
        qs = [q_value(n, x, ctx) for n in (1, 2, 3)]
        assert finite_diff(qs, 2).values[0] > 0


def test_cross_check_integer_tail(ctx):
    spec = RemainderSpec(RemainderKind.INTEGER_TAIL, n=5)
    assert cross_check(spec, 3, ctx) < mpf("1e-25")
    assert cross_check(spec, 0, ctx) == 0


def test_cross_check_fractional(ctx):
    spec = RemainderSpec(RemainderKind.FRACTIONAL, a=mpf("0.5"))
    assert cross_check(spec, 10, ctx) < mpf("1e-20")


def test_cross_check_negative(ctx):
    spec = RemainderSpec(RemainderKind.NEGATIVE_ARGUMENT, n=2)
    assert cross_check(spec, 3, ctx) < mpf("1e-25")


def test_cross_check_obreshkov(ctx):
    spec = RemainderSpec(RemainderKind.OBRESHKOV, n=1, m=1)
    assert cross_check(spec, 1, ctx) < mpf("1e-25")


def test_remainder_spec_validation():
    with pytest.raises(UsageError):
        RemainderSpec(RemainderKind.INTEGER_TAIL)  # n missing
    with pytest.raises(UsageError):
        RemainderSpec(RemainderKind.INTEGER_TAIL, n=-1)
    with pytest.raises(UsageError):
        RemainderSpec(RemainderKind.FRACTIONAL, a=-1)
    with pytest.raises(UsageError):
        RemainderSpec(RemainderKind.FRACTIONAL, a=0.5, n=2)
    with pytest.raises(UsageError):
        RemainderSpec(RemainderKind.OBRESHKOV, n=1)
