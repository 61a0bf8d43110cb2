"""Special-function primitives against closed forms, independent
high-precision constants, and the quadrature oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_mul, round_nearest, to_float

import exptail.numerics as numerics
from conftest import rel_err
from exptail.errors import DomainError, NumericalError
from exptail.numerics import (MAX_SERIES_TERMS, _fixed_param, _hyp1f1_pos, _positive_series, _raw,
                              _scaled, _series_budget, _series_terms, _tolerance, gamma_fn,
                              kummer_1f1_one, lower_incomplete_gamma, quad_integral)
from exptail.precision import GUARD_BITS, PrecisionContext
from exptail.remainders import b_value, r_frac, r_neg, r_obreshkov, r_tail

# frozen from an independent high-precision constant (square root of pi)
SQRT_PI = ("1.7724538509055160272981674833411451827975494561223871282138077898"
           "52911284591032181374950656738544665")
# frozen from the adaptive-quadrature oracle of the defining integral,
# cross-confirmed by the closed form 2 - 5/e
GAMMAINC_3_1 = ("0.160602794142788392022381149192695662770944344841160827460815991"
                "5126925212755009832142636282704017813")


def test_gamma_integer_factorials(ctx):
    assert gamma_fn(5, ctx) == 24
    assert gamma_fn(1, ctx) == 1
    assert gamma_fn(13, ctx) == math.factorial(12)


@pytest.mark.parametrize("bits", [53, 256])
def test_gamma_and_b_value_at_order_1e5_against_mpmath(bits):
    # mp.gamma's Stirling route: the exact factorial took over a second here,
    # and converting (n + 1)! to an mpf most of a second in r_tail and r_neg
    ctx, n = PrecisionContext(bits), 10**5
    value, b = gamma_fn(n + 2, ctx), b_value(mpf(n), 1, ctx)
    tail, neg = r_tail(n, 1, ctx), r_neg(n, 1, ctx)
    with mp.workprec(bits + 64):
        assert rel_err(value, mp.gamma(n + 2)) < ctx.target_rel_err
        assert rel_err(b, mp.hyp1f1(1, n + 2, 1)) < ctx.target_rel_err
        assert rel_err(tail, mp.hyp1f1(1, n + 2, 1) / mp.factorial(n + 1)) < ctx.target_rel_err
        assert rel_err(neg, mp.hyp1f1(n + 1, n + 2, 1) / (mp.e * mp.factorial(n + 1))) \
            < ctx.target_rel_err


@pytest.mark.parametrize("bits", [53, 256, 1024])
@pytest.mark.parametrize("n,x", [(10**4, "1e5"), (16, "wp"), (10**4, "7.4367e152"),
                                 (40, "2.5e4")])
def test_contiguous_relation_against_mpmath(bits, n, x):
    # |R_n(-x)| at x >= max(wp, 2(n+2)) steps n times up from 1F1(1; n+2; x)
    ctx = PrecisionContext(bits)
    x = ctx.finalize(bits + 32 if x == "wp" else mpf(x))
    value = r_neg(n, x, ctx)
    with mp.workprec(bits + 64):
        reference = mp.exp(-x) * x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(n + 1, n + 2, x)
    assert rel_err(value, reference) < ctx.target_rel_err


@pytest.mark.parametrize("bits", [53, 256])
def test_short_series_past_x_20000_against_mpmath(bits):
    # x < 2b keeps these below the closed form's switch; their terms fall
    # from the first (x < b), so a few hundred of them are summed, and past
    # the float range, where x / b = 1e-100, one
    ctx = PrecisionContext(bits)
    n, x = 5 * 10**4, mpf("2.5e4")
    kummer_points = [(10**5, 3 * 10**4), (mpf("1e500"), mpf("1e400"))]
    kummers = [kummer_1f1_one(b, z, ctx) for b, z in kummer_points]
    tail = r_tail(n, x, ctx)
    with mp.workprec(bits + 64):
        for (b, z), kummer in zip(kummer_points, kummers):
            assert rel_err(kummer, mp.hyp1f1(1, b, z)) < ctx.target_rel_err
        reference = x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(1, n + 2, x)
        assert rel_err(tail, reference) < ctx.target_rel_err


@pytest.mark.parametrize("bits", [53, 256])
def test_obreshkov_at_orders_1e5_against_mpmath(bits):
    # the factorials' exact values took about 20 s to multiply and convert
    ctx, n, x = PrecisionContext(bits), 10**5, mpf(3356)
    value = r_obreshkov(n, n, x, ctx)
    with mp.workprec(bits + 64):
        reference = (mp.factorial(n) ** 2 / (mp.factorial(2 * n) * mp.factorial(2 * n + 1))
                     * x ** (2 * n + 1) * mp.hyp1f1(n + 1, 2 * n + 2, x))
    assert rel_err(value, reference) < ctx.target_rel_err


@pytest.mark.parametrize("a,b,x,wp,terms", [
    (1, 10**5, 3 * 10**4, 288, (50, 400)),          # terms fall from the first
    (1, 8, 20010, 20032, (2 * 10**4, 10**5)),       # x - b up to the peak, then ~sqrt(2 x wp)
    (mpf("2.5"), 20006, mpf("4.5e5"), 288, (4.3e5, 4.6e5)),
])
def test_series_term_estimate(a, b, x, wp, terms):
    # the estimate that decides a refusal: near the count on either side
    # (4.4e5 summed terms for the third point)
    assert terms[0] < _series_terms(mpf(a), mpf(b), mpf(x), wp) < terms[1] < MAX_SERIES_TERMS


def test_series_past_max_terms_refused(ctx):
    # x = b = 1e300: the terms only start falling after about 1e151 of them
    assert _series_terms(mpf(1), mpf("1e300"), mpf("1e300"), 288) > 10**150
    with pytest.raises(DomainError):
        kummer_1f1_one(mpf("1e300"), mpf("1e300"), ctx)


def test_gamma_half(ctx):
    assert rel_err(gamma_fn(0.5, ctx), mpf(SQRT_PI)) < ctx.target_rel_err * 10


@pytest.mark.parametrize("bad", [0, -1, -0.5, mpf("inf"), mpf("nan")])
def test_gamma_domain(ctx, bad):
    with pytest.raises(DomainError):
        gamma_fn(bad, ctx)


@pytest.mark.parametrize("x", ["0.5", "1", "2"])
def test_gammainc_unit_shape_closed_form(ctx, x):
    with mp.workprec(ctx.bits + 64):
        ref = 1 - mp.exp(-mpf(x))
    assert rel_err(lower_incomplete_gamma(1, mpf(x), ctx), ref) < 10 * ctx.target_rel_err


def test_gammainc_empty_integral(ctx):
    assert lower_incomplete_gamma(mpf("3.3"), 0, ctx) == 0


def test_gammainc_frozen_oracle_value(ctx):
    assert rel_err(lower_incomplete_gamma(3, 1, ctx), mpf(GAMMAINC_3_1)) < 10 * ctx.target_rel_err


def test_gammainc_matches_quadrature_oracle(ctx):
    v = mpf("2.5")
    x = mpf(3)
    oracle = quad_integral(lambda t: t ** (v - 1) * mp.exp(-t), 0, x, 0, ctx)
    assert rel_err(lower_incomplete_gamma(v, x, ctx), oracle.value) < 20 * ctx.target_rel_err


def test_gammainc_increasing_in_x(ctx):
    for v in (mpf("0.5"), mpf(2), mpf("7.3")):
        values = [lower_incomplete_gamma(v, x, ctx) for x in (mpf("0.1"), 1, 3, 10, 25)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_gammainc_recurrence(ctx):
    # gamma(v+1, x) = v*gamma(v, x) - x**v e**-x
    for v in (mpf("0.5"), mpf(1), mpf("2.7"), mpf("5.5"), mpf(10)):
        for x in (mpf("0.1"), mpf(1), mpf("4.3"), mpf(20)):
            with mp.workprec(ctx.bits + 32):
                lhs = lower_incomplete_gamma(v + 1, x, ctx)
                rhs = v * lower_incomplete_gamma(v, x, ctx) - x**v * mp.exp(-x)
            assert rel_err(lhs, rhs) < 10 * ctx.target_rel_err


def test_gammainc_domain(ctx):
    with pytest.raises(DomainError):
        lower_incomplete_gamma(0, 1, ctx)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1, -1, ctx)


def test_kummer_closed_form_b2(ctx):
    with mp.workprec(ctx.bits + 32):
        assert rel_err(kummer_1f1_one(2, 1, ctx), mp.e - 1) < 10 * ctx.target_rel_err
        x = mpf("3.7")
        assert rel_err(kummer_1f1_one(2, x, ctx), (mp.exp(x) - 1) / x) < 10 * ctx.target_rel_err


def test_kummer_empty_sum(ctx):
    assert kummer_1f1_one(4, 0, ctx) == 1
    assert kummer_1f1_one(mpf("0.3"), 0, ctx) == 1


def test_kummer_negative_argument(ctx):
    # (1 - e**-x)/x stays accurate despite the alternating series
    x = mpf(15)
    with mp.workprec(ctx.bits + 64):
        ref = (1 - mp.exp(-x)) / x
    assert rel_err(kummer_1f1_one(2, -x, ctx), ref) < 10 * ctx.target_rel_err


@st.composite
def _kummer_negative_case(draw):
    """A precision, a b in (0, 10**4], as a float or as 10**v, v in [-3, 4],
    or one of b = 1, 1 + 2**-bits and +oo, and an x < 0 above the
    large-|x| switch, -x = 10**u from 1e-6 up to max(wp, 2b) (2e4 for
    b = +oo), formed at the working precision wp."""
    bits = draw(st.sampled_from([53, 256, 1024]))
    wp = bits + GUARD_BITS
    with mp.workprec(wp):
        b = draw(st.one_of(st.floats(0, 1e4, exclude_min=True).map(mpf),
                           st.floats(-3, 4).map(lambda v: mpf(10) ** mpf(v)),
                           st.sampled_from([mpf(1), 1 + mpf(2) ** -bits, mpf("inf")])))
        top = min(max(wp, 2 * b), 20000)
        x = -mpf(10) ** mpf(draw(st.floats(-6, math.log10(top))))
        if -x >= top:
            x = -top * (1 - mpf(2) ** -20)
    return PrecisionContext(bits), b, x


@settings(max_examples=40, deadline=None)
@given(case=_kummer_negative_case())
@example(case=(PrecisionContext(53), 1 + mpf(2) ** -53, mpf(-50)))
@example(case=(PrecisionContext(256), 1 + mpf(2) ** -256, mpf(-250)))
def test_kummer_negative_x_is_one_positive_series(case):
    # below the large-|x| switch 1F1(1; b; x) at x < 0 is e**x 1F1(b-1; b; -x)
    # for b > 1 and one measured step up from it for b < 1; at b = 1 + 2**-bits
    # the series' terms dip to about 2**-bits |x| at k = 1 before they rise
    ctx, b, x = case
    value = kummer_1f1_one(b, x, ctx)
    with mp.workprec(ctx.bits + 200 + int(1.5 * abs(x))):
        expected = mpf(1) if mp.isinf(b) else mp.hyp1f1(1, b, x)
        assert abs(value - expected) <= ctx.target_rel_err * abs(expected), (b, x)


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("offset", [40, 55])
def test_kummer_near_its_zero_keeps_the_relative_target(bits, offset):
    # 1F1(1; 0.9; x) vanishes at x ~ -3.17028; at 2**-offset from it the
    # step 1 + (x/b) 1F1(1; b+1; x) loses about offset bits, which are
    # measured and added (the alternating series with a fixed boost missed
    # the target there by up to 37 times at 53 bits)
    ctx = PrecisionContext(bits)
    with mp.workprec(bits + GUARD_BITS):
        b = mpf("0.9")
    with mp.workprec(bits + 400):
        zero = mp.findroot(lambda t: mp.hyp1f1(1, b, t), mpf("-3.17"))
    with mp.workprec(bits + GUARD_BITS):
        x = zero + mpf(2) ** -offset
    value = kummer_1f1_one(b, x, ctx)
    with mp.workprec(bits + 400):
        expected = mp.hyp1f1(1, b, x)
        assert abs(value - expected) <= ctx.target_rel_err * abs(expected)


def test_kummer_tail_identity(ctx):
    # r_tail(n, x) = x**(n+1)/(n+1)! * 1F1(1; n+2; x)
    for n in range(9):
        for x in (mpf("0.1"), mpf(1), mpf(2), mpf(5), mpf(20)):
            with mp.workprec(ctx.bits + 32):
                lhs = kummer_1f1_one(n + 2, x, ctx) * x ** (n + 1) / math.factorial(n + 1)
            assert rel_err(lhs, r_tail(n, x, ctx)) < 10 * ctx.target_rel_err


_KERNEL_ROUTES = [
    ("r_tail", (0, 7), r_tail,
     lambda n, x: x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(1, n + 2, x)),
    ("r_neg", (0, 7), r_neg,
     lambda n, x: mp.exp(-x) * x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(n + 1, n + 2, x)),
    ("r_obreshkov(n, 2)", (0, 7), lambda n, x, c: r_obreshkov(n, 2, x, c),
     lambda n, x: 2 * mp.factorial(n) / (mp.factorial(n + 2) * mp.factorial(n + 3))
     * x ** (n + 3) * mp.hyp1f1(3, n + 4, x)),
    ("r_frac", (3, mpf("-0.5"), mpf("2.5")), r_frac,
     lambda a, x: x ** (a + 1) / mp.gamma(a + 2) * mp.hyp1f1(1, a + 2, x)),
    ("lower_incomplete_gamma", (3, mpf("0.5"), mpf("7.3")), lower_incomplete_gamma,
     lambda v, x: mp.gammainc(v, 0, x)),
    ("kummer_1f1_one", (3, mpf("0.5"), mpf("7.3"), mpf("1e-15"), mpf("1e-100")), kummer_1f1_one,
     lambda b, x: mp.hyp1f1(1, b, x)),
]


@pytest.mark.parametrize("bits", [53, 256, 1024])
@pytest.mark.parametrize("x", ["1e-300", "1e-20", "1e-3", "1", "30", "1e3", "1e4"])
def test_series_kernel_against_mpmath(bits, x):
    # every route through the positive-series kernel, integer and fractional
    # orders; large x exercises the kernel's renormalisation and tiny b the
    # scaling of fractional parameters to full significance.  The reference
    # precision grows with bits, since 640 bits cannot resolve a 1024-bit target.
    ctx = PrecisionContext(bits)
    x = ctx.finalize(x)
    for name, orders, fn, ref in _KERNEL_ROUTES:
        for p in orders:
            with mp.workprec(max(mp.prec, bits + 128)):
                expected = ref(p, x)
            err = rel_err(fn(p, x, ctx), expected)
            assert err < 10 * ctx.target_rel_err, (name, p)


@pytest.mark.parametrize("fn", [kummer_1f1_one, lower_incomplete_gamma])
@pytest.mark.parametrize("order", ["nan", "inf"])
def test_series_non_finite_order(ctx, fn, order):
    if fn is kummer_1f1_one and order == "inf":
        # the limit b -> oo of 1F1(1; b; x)
        assert kummer_1f1_one(mpf(order), 1, ctx) == 1
        return
    with pytest.raises(NumericalError):
        fn(mpf(order), 1, ctx)


def test_r_frac_infinite_order(ctx):
    # the limit a -> oo of R_a(x) for x < 1
    assert r_frac(mpf("inf"), mpf("0.5"), ctx) == 0


def test_kummer_domain(ctx):
    with pytest.raises(DomainError):
        kummer_1f1_one(0, 1, ctx)
    with pytest.raises(DomainError):
        kummer_1f1_one(-2, 1, ctx)


def test_quad_exp_closed_form(ctx):
    res = quad_integral(lambda t: mp.exp(t), 0, 1, 0, ctx)
    with mp.workprec(ctx.bits + 32):
        assert rel_err(res.value, mp.e - 1) < 10 * ctx.target_rel_err
    assert res.error < 10 * ctx.target_rel_err * abs(res.value)


def test_quad_algebraic_endpoint(ctx):
    res = quad_integral(lambda t: (1 - t) ** mpf("-0.5"), 0, 1, -0.5, ctx)
    assert rel_err(res.value, 2) < 10 * ctx.target_rel_err


def test_quad_against_tail_series(ctx):
    res = quad_integral(lambda t: (2 - t) ** 3 * mp.exp(t), 0, 2, 3, ctx)
    assert rel_err(res.value / 6, r_tail(3, 2, ctx)) < mpf("1e-25")


def test_quad_error_estimate_is_honest(ctx):
    res = quad_integral(lambda t: mp.exp(t), 0, mpf(2), 0, ctx)
    with mp.workprec(ctx.bits + 32):
        truth = mp.exp(2) - 1
        assert abs(res.value - truth) <= max(res.error * 10, truth * 10 * ctx.target_rel_err)


def test_quad_monotone_refinement():
    # doubling the working precision must not worsen the reported error
    lo, hi = PrecisionContext(128), PrecisionContext(256)
    integrand = lambda t: (1 - t) ** mpf("0.5") * mp.exp(t)
    coarse = quad_integral(integrand, 0, 1, 0.5, lo)
    fine = quad_integral(integrand, 0, 1, 0.5, hi)
    assert fine.error <= coarse.error
    assert rel_err(fine.value, coarse.value) < 10 * lo.target_rel_err


def test_quad_budget_failure_carries_estimate(ctx):
    with pytest.raises(NumericalError) as err:
        quad_integral(lambda t: mp.sin(1 / t) + 2, mpf("1e-12"), 1, 0, ctx, panel_budget=4)
    assert err.value.best_estimate is not None


def test_quad_domain(ctx):
    with pytest.raises(DomainError):
        quad_integral(lambda t: t, 1, 0, 0, ctx)
    with pytest.raises(DomainError):
        quad_integral(lambda t: t, 0, 1, -1, ctx)


def test_series_threshold_tightens_with_bits(ctx, ctx512):
    # the reported truncation threshold scales down as precision grows and
    # the two evaluations agree within the coarser tolerance
    a, b = lower_incomplete_gamma(2, 3, ctx), lower_incomplete_gamma(2, 3, ctx512)
    assert ctx512.target_rel_err < ctx.target_rel_err
    assert rel_err(a, b) < 10 * ctx.target_rel_err


@st.composite
def _kernel_params(draw):
    """An mpf of 1 to 2,112 mantissa bits with a binary exponent in
    [-400, 400], either sign, or zero."""
    if draw(st.integers(0, 30)) == 0:
        return mpf(0)
    width = draw(st.integers(1, 2112))
    man = draw(st.integers(2 ** (width - 1), 2 ** width - 1))
    sign = draw(st.sampled_from([1, -1]))
    return mp.make_mpf(from_man_exp(sign * man, draw(st.integers(-400, 400))))


@settings(max_examples=500, deadline=None)
@given(_kernel_params())
def test_fixed_param_is_the_parameter_itself(p):
    # n / 2**s is p exactly, in its fewest fractional bits, and d = 2**s
    n, d, s = _fixed_param(p)
    assert d == 1 << s
    sign, man, exp, _ = p._mpf_
    exact = (-1) ** sign * Fraction(man) * Fraction(2) ** exp
    assert Fraction(n, d) == exact and d == exact.denominator
    # an int is itself
    if exact.denominator == 1:
        assert _fixed_param(int(exact)) == (int(exact), 1, 0)


@st.composite
def _series_case(draw):
    """A precision and the a, b and 0 < x <= 2**(bitlen(wp) - 1) of a series
    below the large-x switch: a = 1, 2, an order n + 1 <= 40 or a fractional
    a >= 1 with an integer or fractional b, or a in (0, 1) with b = a + 1
    exactly, as kummer_1f1_one's transformed series at x < 0 forms them;
    x = 2**u, u in [-70, bitlen(wp) - 1], as a float, as a full-width mpf
    or as an integer."""
    bits = draw(st.sampled_from([53, 256, 1024]))
    wp = bits + GUARD_BITS
    top = wp.bit_length() - 1
    a = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40),
                       st.floats(1, 40).map(mpf),
                       st.floats(0, 1, exclude_min=True, exclude_max=True).map(mpf)))
    if a < 1:
        b = mp.fadd(a, 1, exact=True)
    else:
        b = draw(st.one_of(st.integers(1, 60), st.floats(2.0 ** -40, 100).map(mpf)))
    u = draw(st.floats(-70, top))
    form = draw(st.sampled_from(["float", "wide", "integer"]))
    with mp.workprec(wp):
        if form == "wide":
            x = mpf(2) ** mpf(u)
        elif form == "integer" and u >= 0:
            x = mpf(int(2.0 ** u))
        else:
            x = mpf(2.0 ** u)
    return PrecisionContext(bits), a, b, min(x, mpf(2) ** top)


def _signed_series(a, b, x, ctx: PrecisionContext, scale, budget: int):
    """The series of ``numerics._hyp1f1_pos`` in one phase, testing the stop
    rule at every term: the reference of ``numerics._positive_series``.

    The sum starts at 1 and no term is negative, so each truncation of
    2**-wp is a relative error.  Once the sum passes 2*wp bits, sum and term
    are shifted down together into an exponent, so the integers stay short
    however large x is.  With the term ratio r falling in k >= 1, the rest
    of the series is below term * r/(1-r) once r < 1.  Past ``budget``
    terms it raises :class:`NumericalError`.
    """
    wp = mp.prec
    tol = _tolerance(ctx)
    na, da, sa = _fixed_param(a)
    nb, db, sb = _fixed_param(b)
    xm, _, sx = _fixed_param(x)
    # term * xm * na carries sx + sa - sb fractional bits more than term
    up, down = max(0, sb - sx - sa), max(0, sx + sa - sb)
    af, bf = to_float(_raw(a), False, round_nearest), to_float(_raw(b), False, round_nearest)
    xf = abs(to_float(x._mpf_, False, round_nearest))
    term = total = 1 << wp
    exp, top = -wp, 2 * wp
    for k in range(1, budget):
        term = (term * xm * na << up) // (nb * k << down)
        if not term:  # every later term is 0 too; past the float range r would be nan
            break
        total += term
        size = total.bit_length()
        gap = size - term.bit_length() - tol
        if gap >= 0:
            # term < 2**-gap * target * total, and the rest of the series
            # is below term * r/(1-r) with r the next term ratio
            r = xf * (af + k) / ((bf + k) * (k + 1))
            if r <= (1 - r) * 2.0 ** min(gap, 64):
                break
        if size > top:
            term >>= wp
            total >>= wp
            exp += wp
        na += da
        nb += db
    else:
        raise NumericalError(f"1F1({a}; {b}; {x}) series did not converge",
                             best_estimate=ctx.finalize(_scaled(scale, total, exp, wp)))
    return _scaled(scale, total, exp, wp)


def _series_outcome(series, *args):
    """A series' raw value, or its error's text and raw best estimate."""
    try:
        return series(*args)._mpf_
    except NumericalError as exc:
        return str(exc), exc.best_estimate._mpf_


@settings(max_examples=300, deadline=None)
@given(case=_series_case(), short=st.integers(2, 60))
@example(case=(PrecisionContext(53), mpf(5e-324), mp.fadd(5e-324, 1, exact=True), mpf(8)), short=2)
def test_two_phase_series_is_the_one_phase_series(case, short):
    # the kernel's x >= 0 loop skips the stop rule while the terms rise and
    # tests it only for terms small enough to pass its gap; its values, and
    # the error and best estimate of a budget too short, are bit for bit
    # those of the loop that tests every term
    ctx, a, b, x = case
    budgets = []

    def recorded(*args):
        budgets.append(args[-1])
        return _positive_series(*args)

    with ctx.work(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_positive_series", recorded)
        budget = _series_budget(x, ctx.bits)
        reference = _series_outcome(_signed_series, a, b, x, ctx, 1, budget)
        assert _series_outcome(_hyp1f1_pos, a, b, x, ctx) == reference
        # below 2**(bitlen(wp) - 1) the kernel forms the budget inline
        assert budgets == [budget]
        for n in (budget, short):
            assert (_series_outcome(_positive_series, a, b, x, ctx, 1, n)
                    == _series_outcome(_signed_series, a, b, x, ctx, 1, n)), n


@settings(max_examples=300, deadline=None)
@given(man=st.integers(-(2 ** 2200), 2 ** 2200), zeros=st.integers(0, 300),
       exp=st.integers(-3000, 3000),
       scale=st.one_of(st.just(1), st.integers(-(2 ** 80), 2 ** 80), _kernel_params()),
       wp=st.sampled_from([85, 288, 1056]))
def test_unnormalised_sum_rounds_once_to_the_same_value(man, zeros, exp, scale, wp):
    # the series hands its sum of more than wp bits to the product with
    # scale with its trailing zeros; the product rounds the same exact value
    man <<= zeros
    expected = mpf_mul(from_int(scale) if type(scale) is int else scale._mpf_,
                       from_man_exp(man, exp), wp, round_nearest)
    assert _scaled(scale, man, exp, wp)._mpf_ == expected
