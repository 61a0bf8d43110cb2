"""Exact-rational Pade approximants of exp, Taylor partial sums, the
Aitken transformation, and Cesaro means.

A Pade row is two integer polynomials over their common denominator
(:class:`RationalApproximant`), so the order condition (num/den matches
exp through degree n+m) can be checked exactly, the sharp direction
switch of the first-row inequalities can be probed arbitrarily close to
the crossover without floating noise, and exact signs and Taylor
coefficients at dyadic points certify the real pole of a row
(:func:`real_pole`) and make the derivatives of num/den exact
(:func:`approximant_derivatives`).

Each value of the family is a polynomial with rational coefficients, or a
ratio of two, at a dyadic x: num/den, the partial sum t_n(x), and N(x) =
sum_{j<=n} (n+1-j) x**j/j!, n+1 times :func:`cesaro_mean` and n+1-x times
:func:`aitken_row`.  One Horner pass on integers (:func:`_horner`), exact
while it fits a window of W bits and truncated past it, evaluates each at
O(degree * W) cost whatever the exponent of x; W covers the bits
cancellation loses (:func:`_accurate`), and results are rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_abs, mpf_div, mpf_le, mpf_lt, mpf_mul,
                          mpf_pos, mpf_sub, round_nearest)

from .errors import DegeneratePointError, DomainError, NumericalError, PoleError
from .precision import GUARD_BITS, Param, PrecisionContext, Real, as_real, declared

# Largest total degree n + m that pade_exp builds, which bounds the cost of
# a row's exact integers and of the exact work on them.  The integers take
# 3 ms at n + m = 1000 and grow as (n + m)**2: 33 ms at 3000, 0.42 s at
# 10,000; real_pole grows faster, 0.3 s for [0/999] and 1.1 s for [0/1999]
# at 256 bits (2-core host).
MAX_PADE_ORDER = 1000

# The most work one Horner pass may do: degree times (window bits + 2,048 for
# a step's fixed cost).  A step dividing by j takes 0.35 ns per bit and 0.8 us
# more (2-core host): a pass at the cap takes 1.5-1.9 s.  A refusal first runs
# the widest pass the cap allows after the narrower ones, about 4.5 s in all
# for cesaro_mean(10**5, -2 * 10**4) at 256 bits.
MAX_HORNER_WORK = 1 << 32


@dataclass(frozen=True)
class RationalApproximant:
    """num/den as integer polynomials in ascending powers; n and m are
    their degrees, len(num) - 1 and len(den) - 1.  For a row of
    :func:`pade_exp` both are over their common denominator den[0]."""

    num: tuple[int, ...]
    den: tuple[int, ...]


def pade_exp(n: int, m: int) -> RationalApproximant:
    """[n/m] Pade approximant of exp, whose coefficients
    p_j = n! (n+m-j)! / ((n+m)! j! (n-j)!) and
    q_j = (-1)**j m! (n+m-j)! / ((n+m)! j! (m-j)!),  q_0 = 1,
    are num and den over den[0] = (n+m)!: the integers C(n, j) (n+m-j)!
    and (-1)**j C(m, j) (n+m-j)!, stepped from (n+m)! by term ratios.
    """
    if n < 0 or m < 0:
        raise DomainError(f"pade_exp requires n, m >= 0, got n={n}, m={m}")
    if n + m > MAX_PADE_ORDER:
        raise DomainError(f"pade_exp builds exact rows up to n + m = {MAX_PADE_ORDER}, "
                          f"got n={n}, m={m}")
    common = math.factorial(n + m)
    num, den = [common], [common]
    for j in range(n):
        num.append(num[-1] * (n - j) // ((j + 1) * (n + m - j)))
    for j in range(m):
        den.append(-den[-1] * (m - j) // ((j + 1) * (n + m - j)))
    return RationalApproximant(tuple(num), tuple(den))


def order_condition_defect(appr: RationalApproximant) -> list[Fraction]:
    """Taylor coefficients of (num(x) - den(x)*exp(x))/den[0] up to degree
    n+m, exact: the k-th is (k! num_k - sum_j den_j k!/(k-j)!)/(den_0 k!).
    All vanish for a true Pade approximant."""
    num, den = appr.num, appr.den
    defects = []
    for k in range(len(num) + len(den) - 1):
        c = math.factorial(k) * num[k] if k < len(num) else 0
        c -= sum(den[j] * math.perm(k, j) for j in range(min(k + 1, len(den))))
        defects.append(Fraction(c, den[0] * math.factorial(k)))
    return defects


def _shifted(ints: list[int], x, k: int = 0) -> tuple[list[int], int]:
    """The first k+1 Taylor coefficients at the dyadic x = u/2**e of the
    integer polynomial ``ints`` of degree d, exactly, as T_0..T_k and e: the
    i-th is T_i/2**(e*(d-i)), and T_i is Horner's rule at u over the
    coefficients C(j, i) c_j 2**(e*(d-j)) of the i-th derivative over i!."""
    sign, man, exp, _ = x._mpf_
    u, e = (-man if sign else man) << max(0, exp), max(0, -exp)
    d = len(ints) - 1
    taylor = [0] * (k + 1)
    for i in range(k + 1):
        for j in range(d, i - 1, -1):
            taylor[i] = taylor[i] * u + ((math.comb(j, i) * ints[j]) << e * (d - j))
    return taylor, e


def real_pole(appr: RationalApproximant, ctx: PrecisionContext) -> Real | None:
    """The real root of den for ``appr`` = pade_exp(n, m), rounded to ``bits``,
    or None: that den has one real zero when m is odd and none when m is
    even (Saff and Varga, Numer. Math. 1975), at x > 0.  Exact signs at
    integers bracket it (an integer root is returned exactly), Newton's
    method at bits + 64 + n + m bits refines it (den cancels up to about
    n + m bits near its root), and exact signs of opposite sense 2**-(bits+8)
    apart relative to it certify it, or :class:`NumericalError` is raised."""
    n, m, den = len(appr.num) - 1, len(appr.den) - 1, appr.den
    if m % 2 == 0:
        return None

    def sign(x) -> int:  # of den at the dyadic x, exactly
        value = _shifted(den, mpf(x) if isinstance(x, int) else x)[0][0]
        return (value > 0) - (value < 0)

    lo, hi = 0, 1  # den(0) > 0 > den(x) for large x
    while sign(hi) > 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sign(mid) > 0 else (lo, mid)
    if not sign(hi):
        return mpf(hi)
    with ctx.work(32 + n + m):
        cs, x = [mpf(c) for c in reversed(den)], lo + mpf(0.5)
        for _ in range(mp.prec):
            value = slope = mpf(0)
            for c in cs:
                value, slope = value * x + c, slope * x + value
            step = value / slope if slope else 0
            x -= step
            if abs(step) <= mp.ldexp(x, -ctx.bits - 32):
                break
    x = mp.make_mpf(mpf_pos(x._mpf_, ctx.bits + 16, round_nearest))
    ends = [mp.fadd(x, s * mp.ldexp(1, mp.mag(x) - ctx.bits - 9), exact=True) for s in (-1, 1)]
    if sign(ends[0]) * sign(ends[1]) > 0:
        raise NumericalError(f"Newton's method did not isolate the real pole of the "
                             f"[{n}/{m}] approximant of exp near {mp.nstr(x, 17)}")
    return ctx.finalize(x)


def approximant_derivatives(appr: RationalApproximant, x, k: int,
                            ctx: PrecisionContext) -> list[Real]:
    """num/den and its first k derivatives at the dyadic x, exact and each
    rounded once: i! times the t**i coefficient of num(x+t)/den(x+t), by series
    division on integers.  Raises :class:`PoleError` where den(x) is zero."""
    (p, e), (q, _) = (_shifted(poly, x, k) for poly in (appr.num, appr.den))
    if not q[0]:
        raise PoleError(f"x={mp.nstr(x, 17)} is a root of the denominator", root=x)
    c = []  # c[i] is q_0**(i+1) times the t**i coefficient of p(t)/q(t)
    for i in range(k + 1):
        c.append(p[i] * q[0] ** i
                 - sum(q[j] * c[i - j] * q[0] ** (j - 1) for j in range(1, i + 1)))
    shift = e * (len(appr.den) - len(appr.num))
    return [mp.make_mpf(mpf_div(from_man_exp(math.factorial(i) * ci, shift + e * i),
                                from_int(q[0] ** (i + 1)), ctx.bits, round_nearest))
            for i, ci in enumerate(c)]


def _horner(coeffs, u: int, ex: int, window: int, ratios: bool = False) -> tuple[int, int, bool]:
    """Horner's rule on the integer ``coeffs`` for sum_j coeffs[j] x**j, or
    with ``ratios`` sum_j coeffs[j] x**j/j!, at x = u*2**ex: (A, t, exact),
    the value A*2**t.  Each step scales to a ``window``-bit integer, dropping
    under 2**(5-window) of its larger term; ``exact`` says no step dropped a
    bit or divided."""
    A, t, exact = coeffs[-1], 0, True
    for j in range(len(coeffs) - 2, -1, -1):
        c, X, q = coeffs[j], A * u, j + 1 if ratios else 1
        t += ex
        top, bc = X.bit_length() + t + 2 - q.bit_length(), c.bit_length() + 1
        tn = (top if top > bc else bc) - window
        if tn > t or tn > 0 or q > 1:
            exact = False
        X = X << t - tn if t >= tn else X >> tn - t
        A = (X // q if q > 1 else X) + (c << -tn if tn <= 0 else c >> tn)
        t = tn
    return A, t, exact


def _refuse_past_cap(degree: int, window: int, x: tuple) -> None:
    """Refuse a pass of ``degree`` steps at ``window`` bits past MAX_HORNER_WORK."""
    if degree * (window + 2048) > MAX_HORNER_WORK:
        raise NumericalError(f"a degree-{degree} sum at x={mp.nstr(mp.make_mpf(x), 17)} would "
                             f"take {window}-bit Horner steps, past the work cap of "
                             f"{MAX_HORNER_WORK} step bits")


def _accurate(coeffs, x: tuple, ctx: PrecisionContext,
              ratios: bool = False) -> tuple[tuple, tuple | None]:
    """(value, scale) of the polynomial ``coeffs`` (with ``ratios``, positive
    Taylor-type weights) at the raw x: an exact raw mpf within 2**-(bits+2)
    of its value, and the raw term scale sum |c_j x**j|, or None where the
    terms have one sign.  A pass at bits + GUARD_BITS + extra + log2(degree)
    + 8 window bits errs by under 2**-(bits + GUARD_BITS + extra + 3) of the
    scale; it is taken where exact or where it loses at most extra +
    GUARD_BITS bits, log2(scale/|value|), else repeated with extra =
    max(lost, 2 * extra).  A window past MAX_HORNER_WORK is narrowed to the
    widest the cap allows, where that is wider than the last pass, and
    refused once that window has been tried."""
    sign, man, ex, _ = x
    u, degree, scale = -man if sign else man, len(coeffs) - 1, None
    # the signs of the terms c_j x**j: where they differ, the terms cancel
    if sign if ratios else len({(c < 0) ^ (sign and j % 2) for j, c in enumerate(coeffs) if c}) > 1:
        S, ts, _ = _horner(coeffs if ratios else [abs(c) for c in coeffs], man, ex, 64, ratios)
        scale = from_man_exp(S, ts)
    base = ctx.bits + GUARD_BITS + degree.bit_length() + 8
    extra, last = 0, base - 1
    while True:
        window = min(base + extra, MAX_HORNER_WORK // max(degree, 1) - 2048)
        if window <= last:  # the cap leaves no wider pass than the last
            _refuse_past_cap(degree, base + extra, x)
        A, t, exact = _horner(coeffs, u, ex, window, ratios)
        if exact or scale is None:
            return from_man_exp(A, t), scale
        lost = S.bit_length() + ts - A.bit_length() - t if A else window
        if lost <= window - base + GUARD_BITS:
            return from_man_exp(A, t), scale
        extra, last = max(lost, 2 * (window - base)), window


@declared(Param("appr", object), Param("x"))
def eval_approximant(appr: RationalApproximant, x, ctx: PrecisionContext) -> Real:
    """num(x)/den(x) rounded once to ``bits``, refusing points within
    10*target_rel_err relative distance of a real denominator root.

    Near such a root |den(x)| is at most about 10 m target_rel_err times
    its term scale, so only where it is at most 20 (m+1) target_rel_err
    times that scale, compared exactly, are the exact signs of den(x -+
    delta), delta = 10*target_rel_err*|x|, taken: a sign change between
    them is the root, a :class:`PoleError` naming its linear interpolate."""
    num, den = appr.num, appr.den
    xr, tre = x._mpf_, ctx.target_rel_err._mpf_
    value, scale = _accurate(den, xr, ctx)
    if scale is not None and mpf_le(mpf_abs(value),
                                    mpf_mul(mpf_mul(tre, from_int(20 * len(den))), scale)):
        delta = 10 * ctx.target_rel_err * abs(x)
        ends = x - delta, x + delta
        lo, hi = (mp.make_mpf(_accurate(den, end._mpf_, ctx)[0]) for end in ends)
        if lo * hi <= 0:
            root = ends[0] + 2 * delta * lo / (lo - hi) if lo != hi else x
            raise PoleError(
                f"evaluation at x={mp.nstr(x, 17)} is too close to the denominator root "
                f"near {mp.nstr(root, 17)}", root=ctx.finalize(root))
    return mp.make_mpf(mpf_div(_accurate(num, xr, ctx)[0], value, ctx.bits, round_nearest))


def _last_term(n: int, x: tuple, wp: int, weighted: bool) -> int:
    """Cesaro's stopping rule at 0 <= x < n: the least J > x whose next term
    w_{J+1} x**(J+1)/(J+1)! is below 2**-(wp+1) of the largest (w_j = n+1-j
    where ``weighted``, else 1), or n, by bisection on the log2 of the terms,
    which fall from j = floor(x) on; longer sums than MAX_HORNER_WORK fail."""
    _, man, ex, _ = x
    least = (man << ex if ex >= 0 else man >> -ex) + 1
    if not man or least >= MAX_HORNER_WORK:
        return least
    lx = math.log2(man) + ex

    def log_term(j: int) -> float:
        weight = math.log2(n + 1 - j) if weighted else 0.0
        return weight + j * lx - math.lgamma(j + 1) / math.log(2)

    floor = max(log_term(0), log_term(least - 1)) - wp - 1
    hi = min(n, MAX_HORNER_WORK)
    if log_term(hi) >= floor:  # the last term counts: no term is left out
        return hi
    while least < hi:
        mid = (least + hi) // 2
        least, hi = (least, mid) if log_term(mid + 1) < floor else (mid + 1, hi)
    return least


def _exp_sum(n: int, x: Real, ctx: PrecisionContext, weighted: bool) -> tuple:
    """sum_{j<=n} w_j x**j/j! (w_j = n+1-j where ``weighted``, else 1) as
    an exact raw mpf within 2**-(bits+2) of it, to :func:`_last_term`."""
    raw = x._mpf_
    below = not raw[0] and mpf_lt(raw, from_int(n))  # 0 <= x < n
    last = _last_term(n, raw, ctx.bits + GUARD_BITS, weighted) if below else n
    _refuse_past_cap(last, ctx.bits + GUARD_BITS, raw)  # before the coefficients are listed
    coeffs = range(n + 1, n - last, -1) if weighted else [1] * (last + 1)
    return _accurate(coeffs, raw, ctx, ratios=True)[0]


@declared(Param("n", int, ge=0), Param("x"))
def taylor_partial(n: int, x, ctx: PrecisionContext) -> Real:
    """Degree-n partial sum of the exponential series."""
    return mp.make_mpf(mpf_pos(_exp_sum(n, x, ctx, weighted=False), ctx.bits, round_nearest))


@declared(Param("n", int, ge=1), Param("x"))
def aitken_row(n: int, x, ctx: PrecisionContext) -> Real:
    """Aitken transform (t_{n-1} t_{n+1} - t_n**2)/(t_{n+1} + t_{n-1} - 2 t_n)
    of the Taylor partial sums; coincides with the [n/1] Pade row away from
    the degenerate points x = 0 and x = n+1 where the denominator vanishes.

    Elsewhere it is the closed form t_{n-1} + (n+1) u_n/(n+1-x), u_n =
    x**n/n!, which is N(x)/(n+1-x) with N(x) = sum_{j<=n} (n+1-j) x**j/j!,
    the sum :func:`cesaro_mean` shares."""
    wp, xr = ctx.bits + GUARD_BITS, x._mpf_
    guard = mpf_mul(ctx.target_rel_err._mpf_, from_int(10), wp, round_nearest)
    gap = mpf_sub(from_int(n + 1), xr, wp, round_nearest)
    if mpf_le(mpf_abs(xr), guard) or mpf_le(mpf_abs(gap),
                                            mpf_mul(guard, from_int(n + 1), wp, round_nearest)):
        raise DegeneratePointError(
            f"Aitken denominator vanishes at x=0 and x={n + 1}; got x={mp.nstr(x, 17)}")
    return mp.make_mpf(mpf_div(_exp_sum(n, x, ctx, weighted=True), gap, ctx.bits, round_nearest))


def delta_fn(n: int, x) -> Real:
    """Direction switch of the first-row inequalities for exp: x - (n+1).
    Negative means the approximant lies above exp, positive below."""
    if n < 0:
        raise DomainError(f"delta_fn requires n >= 0, got {n}")
    return mpf(x) - (n + 1)


@declared(Param("n", int, ge=0), Param("x"))
def cesaro_mean(n: int, x, ctx: PrecisionContext) -> Real:
    """First-order Cesaro mean of the exponential partial sums:
    sum_{j=0}^n (1 - j/(n+1)) x**j/j!.  For 0 <= x < n the sum stops once
    its next term falls below 2**-(wp+1) of the sum (:func:`_last_term`).

    This is the classical reading; see :func:`cesaro_identity_probe` for
    the numerical comparison against the alternative reading with the
    factor (1 - j*x/(n+1)).
    """
    return mp.make_mpf(mpf_div(_exp_sum(n, x, ctx, weighted=True), from_int(n + 1), ctx.bits,
                               round_nearest))


def cesaro_identity_probe(n: int, x, ctx: PrecisionContext) -> dict:
    """Residuals of (1 - x/(n+1)) e**x - mean against R_{n,1}(x) for both
    textual readings of the mean; reports which one closes the identity."""
    from .remainders import r_obreshkov

    with ctx.work():
        xw = as_real(x, ctx)
        target = r_obreshkov(n, 1, xw, ctx)
        front = (1 - xw / (n + 1)) * mp.exp(xw)
        classical = front - cesaro_mean(n, xw, ctx)

        pow_term = mpf(1)
        alt_sum = mpf(0)
        for j in range(n + 1):
            alt_sum += (1 - mpf(j) * xw / (n + 1)) * pow_term
            pow_term *= xw / (j + 1)
        alternative = front - alt_sum

        scale = max(abs(target), abs(classical), abs(alternative), mpf(1))
        res_classical = abs(classical - target) / scale
        res_alternative = abs(alternative - target) / scale
    return {
        "classical_residual": ctx.finalize(res_classical),
        "alternative_residual": ctx.finalize(res_alternative),
        "closes_identity": "classical" if res_classical <= res_alternative else "alternative",
    }
