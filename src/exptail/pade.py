"""Exact-rational Pade approximants of exp, Taylor partial sums, the
Aitken transformation, and Cesaro means.

Coefficients are kept as ``fractions.Fraction`` so the order condition
(num/den matches exp through degree n+m) can be checked symbolically and
the sharp direction switch of the first-row inequalities can be probed
arbitrarily close to the crossover without floating noise.  Scaled to
integers they give exact signs and Taylor coefficients at dyadic points,
which certify the real pole of a row (:func:`real_pole`) and make the
derivatives of num/den exact (:func:`approximant_derivatives`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_pos, round_nearest

from .errors import DegeneratePointError, DomainError, NumericalError, PoleError
from .precision import GUARD_BITS, Param, PrecisionContext, Real, as_real, declared

# Largest total degree n + m that pade_exp builds.  The exact coefficients
# are O(n + m) Fractions of factorials; n + m = 1000 takes about 0.6 s
# from the command line, 1200 about 1 s, and n = 3000 took 13.6 s.
MAX_PADE_ORDER = 1000

# aitken_row's caps.  Its boost, the extra bits that absorb the cancellation
# of the alternating partial sums at x < 0, is about 2 |x| log2(e) (x >= 0
# needs a few dozen bits), so the boost cap takes n = 29 down to x = -181,000.
# All n terms run at the boost, about 1 ns per term and extra bit at 53 and
# at 256 bits (pure-python mpmath, 2-core host; x = -26: n = 12,000, 2.1e9,
# 1.8-2.2 s; n = 30,000, 1.6e10, 12-13 s; n = 8,000 at x = -216,046, 4.2e9,
# 4.4-4.9 s), so a call within both caps takes about five seconds at most.
MAX_AITKEN_BOOST = 1 << 19
MAX_AITKEN_WORK = 1 << 32  # n times the boost

# The most extra bits eval_approximant spends on a numerator or denominator
# whose terms cancel.  One Horner pass of a degree-999 polynomial at 2**16
# extra bits takes about 0.5 s (2-core host).
MAX_PADE_BOOST = 1 << 16


@dataclass(frozen=True)
class RationalApproximant:
    """num/den with exact rational coefficients in ascending powers;
    den normalised so den[0] == 1."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]
    n: int
    m: int

    def __post_init__(self):
        if self.den[0] != 1:
            raise DomainError("denominator must be normalised to den[0] == 1")
        if len(self.num) != self.n + 1 or len(self.den) != self.m + 1:
            raise DomainError("coefficient lists must match the declared degrees")


def pade_exp(n: int, m: int) -> RationalApproximant:
    """[n/m] Pade approximant of exp with exact rational coefficients:
    p_j = n! (n+m-j)! / ((n+m)! j! (n-j)!),
    q_j = (-1)**j m! (n+m-j)! / ((n+m)! j! (m-j)!),  q_0 = 1.
    """
    if n < 0 or m < 0:
        raise DomainError(f"pade_exp requires n, m >= 0, got n={n}, m={m}")
    if n + m > MAX_PADE_ORDER:
        raise DomainError(f"pade_exp builds exact rows up to n + m = {MAX_PADE_ORDER}, "
                          f"got n={n}, m={m}")
    nf, mf, nmf = math.factorial(n), math.factorial(m), math.factorial(n + m)
    num = tuple(
        Fraction(nf * math.factorial(n + m - j), nmf * math.factorial(j) * math.factorial(n - j))
        for j in range(n + 1)
    )
    den = tuple(
        Fraction((-1) ** j * mf * math.factorial(n + m - j),
                 nmf * math.factorial(j) * math.factorial(m - j))
        for j in range(m + 1)
    )
    return RationalApproximant(num, den, n, m)


def order_condition_defect(appr: RationalApproximant) -> list[Fraction]:
    """Taylor coefficients of num(x) - den(x)*exp(x) up to degree n+m,
    computed exactly; all must vanish for a true Pade approximant."""
    defects = []
    for order in range(appr.n + appr.m + 1):
        c = appr.num[order] if order <= appr.n else Fraction(0)
        c -= sum(
            appr.den[j] * Fraction(1, math.factorial(order - j))
            for j in range(min(order, appr.m) + 1)
        )
        defects.append(c)
    return defects


def _horner(coeffs, x, ctx: PrecisionContext, extra: int = 0) -> tuple[Real, Real]:
    """The polynomial of exact ``coeffs`` at x, and its term scale
    sum |c_j| |x|**j, at the working precision plus ``extra`` bits."""
    with ctx.work(extra):
        value = scale = mpf(0)
        ax = abs(x)
        for c in reversed([mpf(c.numerator) / c.denominator for c in coeffs]):
            value, scale = value * x + c, scale * ax + abs(c)
        return value, scale


def _integers(coeffs) -> tuple[list[int], int]:
    """(ints, scale): the rational ``coeffs`` times their least common denominator."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs], scale


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
    if appr.m % 2 == 0:
        return None
    den, _ = _integers(appr.den)

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
    with ctx.work(32 + appr.n + appr.m):
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
                             f"[{appr.n}/{appr.m}] approximant of exp near {mp.nstr(x, 17)}")
    return ctx.finalize(x)


def approximant_derivatives(appr: RationalApproximant, x, k: int,
                            ctx: PrecisionContext) -> list[Real]:
    """num/den and its first k derivatives at the dyadic x, exact and each
    rounded once: i! times the t**i coefficient of num(x+t)/den(x+t), by series
    division on integers.  Raises :class:`PoleError` where den(x) is zero."""
    (num, snum), (den, sden) = _integers(appr.num), _integers(appr.den)
    (p, e), (q, _) = _shifted(num, x, k), _shifted(den, x, k)
    if not q[0]:
        raise PoleError(f"x={mp.nstr(x, 17)} is a root of the denominator", root=x)
    c = []  # c[i] is q_0**(i+1) times the t**i coefficient of p(t)/q(t)
    for i in range(k + 1):
        c.append(p[i] * q[0] ** i
                 - sum(q[j] * c[i - j] * q[0] ** (j - 1) for j in range(1, i + 1)))
    shift = e * (appr.m - appr.n)
    return [mp.make_mpf(mpf_div(from_man_exp(math.factorial(i) * sden * ci, shift + e * i),
                                from_int(snum * q[0] ** (i + 1)), ctx.bits, round_nearest))
            for i, ci in enumerate(c)]


def _accurate(coeffs, x, ctx: PrecisionContext, value=None, scale=None) -> Real:
    """The polynomial of exact ``coeffs`` at x, evaluated again with as many
    extra bits as its cancellation loses, log2(scale/|value|), wherever
    that exceeds GUARD_BITS (``value`` and ``scale`` are its evaluation at
    the working precision, when the caller has it).  An evaluation whose
    loss exceeds its extra bits by more than GUARD_BITS is taken for
    rounding noise and repeated with more; past MAX_PADE_BOOST extra bits
    it raises :class:`NumericalError`.  Where an evaluation gives exactly
    zero, the polynomial is evaluated exactly at the dyadic x and rounded."""
    extra = 0
    if value is None:
        value, scale = _horner(coeffs, x, ctx)
    while value:
        lost = mp.mag(scale) - mp.mag(value)
        if lost <= extra + GUARD_BITS:
            return value
        extra = max(lost, 2 * extra)
        if extra > MAX_PADE_BOOST:
            raise NumericalError(f"a degree-{len(coeffs) - 1} Pade polynomial at "
                                 f"x={mp.nstr(x, 17)} cancels more than {MAX_PADE_BOOST} bits")
        value, scale = _horner(coeffs, x, ctx, extra)
    ints, scale = _integers(coeffs)
    (value,), e = _shifted(ints, x)
    return as_real(Fraction(value, scale << e * (len(ints) - 1)), ctx)


@declared(Param("appr", object), Param("x"))
def eval_approximant(appr: RationalApproximant, x, ctx: PrecisionContext) -> Real:
    """num(x)/den(x) at context precision, refusing points within
    10*target_rel_err relative distance of a real denominator root.

    Near such a root |den(x)| is at most about 10 m target_rel_err times
    its term scale, so only there are den(x -+ delta), delta =
    10*target_rel_err*|x|, evaluated (:func:`_accurate`): a sign change
    between them is the root, a :class:`PoleError` naming its linear
    interpolate.  A numerator or denominator whose terms cancel is
    evaluated with the extra bits its cancellation loses; one that loses
    at most GUARD_BITS is evaluated once, at the working precision."""
    den, scale = _horner(appr.den, x, ctx)
    tre = ctx.target_rel_err
    if abs(den) <= 20 * (appr.m + 1) * tre * scale:
        delta = 10 * tre * abs(x)
        ends = x - delta, x + delta
        lo, hi = (_accurate(appr.den, end, ctx) for end in ends)
        if lo * hi <= 0:
            root = ends[0] + 2 * delta * lo / (lo - hi) if lo != hi else x
            raise PoleError(
                f"evaluation at x={mp.nstr(x, 17)} is too close to the denominator root "
                f"near {mp.nstr(root, 17)}", root=ctx.finalize(root))
    den = _accurate(appr.den, x, ctx, den, scale)
    return _accurate(appr.num, x, ctx) / den


def _partial_sum(n: int, x) -> Real:
    """sum_{k<=n} x**k/k! at the active precision.  Each term is the last
    one times x, then divided by k: x / k first would be a division at the
    full precision, which is the cost at aitken_row's boosts."""
    term = mpf(1)
    total = term
    for k in range(1, n + 1):
        term = term * x / k
        total += term
    return total


@declared(Param("n", int, ge=0), Param("x"))
def taylor_partial(n: int, x, ctx: PrecisionContext) -> Real:
    """Degree-n partial sum of the exponential series."""
    return _partial_sum(n, x)


def _aitken_boost(n: int, x: float) -> int:
    """Extra bits :func:`aitken_row` carries at x.

    For x >= 0 the closed form has only positive terms up to its last
    difference, which past x = n+1 keeps at least 1/(2n+2) of its larger
    part (it is -(n+1) P(x)/(x-n-1) with P the [n/1] numerator, whose x**n
    coefficient is 1/(n+1)!), so it loses at most log2(2n+2) bits, and the
    n roundings of the sum cost log2(n) more.  For x < 0 the transform of
    the alternating partial sums cancels t_n**2 ~ e**(2|x|) down to roughly
    x**(2n+1)/(n!(n+1)!); compensate with that many bits."""
    if x >= 0:
        return 2 * (2 * n + 2).bit_length() + 8
    ax = -x
    if ax == math.inf:  # past the float range, and past any cap
        return MAX_AITKEN_BOOST + 1
    lost = 2 * ax * 1.4427 + (math.lgamma(n + 1) + math.lgamma(n + 2)) / math.log(2) \
        - (2 * n + 1) * math.log2(ax)
    return max(0, int(lost)) + 64


@declared(Param("n", int, ge=1), Param("x"))
def aitken_row(n: int, x, ctx: PrecisionContext) -> Real:
    """Aitken transform (t_{n-1} t_{n+1} - t_n**2)/(t_{n+1} + t_{n-1} - 2 t_n)
    of the Taylor partial sums; coincides with the [n/1] Pade row away from
    the degenerate points x = 0 and x = n+1 where the denominator vanishes.

    For x > 0 it is evaluated as the closed form t_{n-1} + (n+1) u_n/(n+1-x)
    with u_n = x**n/n! = t_n - t_{n-1}, whose denominator is exact, so it
    needs only a few guard bits at any x (:func:`_aitken_boost`).  A point
    x < 0 whose cancellation needs more than MAX_AITKEN_BOOST extra bits, or
    more than MAX_AITKEN_WORK terms times extra bits, raises
    :class:`NumericalError`.
    """
    guard = 10 * ctx.target_rel_err
    if abs(x) <= guard or abs(x - (n + 1)) <= guard * (n + 1):
        raise DegeneratePointError(
            f"Aitken denominator vanishes at x=0 and x={n + 1}; got x={mp.nstr(x, 17)}")
    boost = _aitken_boost(n, float(x))
    if boost > MAX_AITKEN_BOOST or n * boost > MAX_AITKEN_WORK:
        raise NumericalError(f"aitken_row at n={n}, x={mp.nstr(x, 17)} would sum {n} terms at "
                             f"{boost:.3g} extra bits (at most {MAX_AITKEN_BOOST}, and n times "
                             f"that at most {MAX_AITKEN_WORK})")
    with ctx.work(boost):
        if x > 0:
            return _partial_sum(n - 1, x) + (n + 1) * (x**n / mp.factorial(n)) / (n + 1 - x)
        t_prev = _partial_sum(n - 1, x)
        t_mid = t_prev + x**n / mpf(math.factorial(n))
        t_next = t_mid + x ** (n + 1) / mpf(math.factorial(n + 1))
        return (t_prev * t_next - t_mid * t_mid) / (t_next + t_prev - 2 * t_mid)


def delta_fn(n: int, x) -> Real:
    """Direction switch of the first-row inequalities for exp: x - (n+1).
    Negative means the approximant lies above exp, positive below."""
    if n < 0:
        raise DomainError(f"delta_fn requires n >= 0, got {n}")
    return mpf(x) - (n + 1)


@declared(Param("n", int, ge=0), Param("x"))
def cesaro_mean(n: int, x, ctx: PrecisionContext) -> Real:
    """First-order Cesaro mean of the exponential partial sums:
    sum_{j=0}^n (1 - j/(n+1)) x**j/j!.

    This is the classical reading; see :func:`cesaro_identity_probe` for
    the numerical comparison against the alternative reading with the
    factor (1 - j*x/(n+1)).
    """
    # for x >= 0 the terms fall once j > x; a term below 2**-(wp+1) of
    # the sum is under half its last place, so neither it nor any later
    # term changes the rounded sum
    falls_from = int(x) + 1 if 0 <= x < n else n + 1
    small = mpf(2) ** -(mp.prec + 1)
    pow_term = mpf(1)
    total = mpf(0)
    for j in range(n + 1):
        total += (1 - mpf(j) / (n + 1)) * pow_term
        pow_term *= x / (j + 1)
        if j >= falls_from and pow_term < small * total:
            break
    return total


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
