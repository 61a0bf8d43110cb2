"""Extended-precision scalar special functions and a quadrature oracle.

One kernel, :func:`_hyp1f1_pos`, sums every positive series of the
package: the remainders, the lower incomplete gamma function and Kummer's
1F1(1; b; x) are each a prefactor times one 1F1(a; b; x), x >= 0, with
a >= 1, b > 0 or (1F1(1; b; x) at x < 0 transformed) 0 < a < 1, b = a + 1.
The kernel has two regimes, split at x = max(wp, 2b) with wp = bits +
GUARD_BITS the working precision (:func:`_large_x`):

* below the switch it sums the series.  All its terms are positive, so
  no cancellation occurs and a truncation rule on the term and the
  partial sum yields the requested relative accuracy directly.
  It needs about x terms, so its cost grows linearly with x.  The terms
  are summed in two phases (:func:`_positive_series`): while they rise
  the truncation rule cannot fire and is not tested, and after the peak
  it is tested only for terms small enough to pass it.  Each term is one
  multiply by x and one division, by a one-digit integer where a = 1 and
  b is an integer;
* from the switch on, 1F1(1; b; x) is Gamma(b) x**(1-b) e**x minus a
  short upper-gamma expansion (:func:`_kummer_one_large_x`), whose cost
  falls as x grows, and an integer a >= 2 (up to b + 1) steps up from
  a = 1 by the contiguous relation in a, in a - 1 all-positive steps.

The catalog evaluates remainders at x <= 60 (KIM_39 at 2x), below the
switch even at 53 bits (wp = 85), so it never reaches the second regime;
it calls the kernel once per block of orders of
:func:`.remainders.r_frac_ladder` (803 calls in a default 256-bit sweep)
and once per |R_n(-x)| (425 calls).  Below the switch the kernel refuses
a series estimated to need more than MAX_SERIES_TERMS terms
(:func:`_series_terms`: about max(0, x - b) up to its largest term, more
near x = b at huge b), kummer_1f1_one's at x < 0 included.
:func:`arctan_fracint`, the fractional integral of arctan, sums two
geometric series whose bounded cancellation is paid for with extra
working bits.  Every real power x**e of the evaluation paths is
exp(e log x) (:func:`_power`), and every log x comes from :func:`_log`:
mpmath's ``mpf_log`` value bit for bit, from small tables built once per
precision, with ``mpf_log`` itself as the fallback where Ziv's rounding
test fails, so mpmath's lazily filled log table stays cold.

``quad_integral`` is deliberately an independent second route: adaptive
bisection with a fixed-order Gauss-Legendre rule per panel.  An algebraic
endpoint factor (hi - t)**e with e > -1 is absorbed by the power
substitution t = hi - u**p (p chosen so the transformed integrand is
analytic, or at least bounded, at u = 0).  No evaluation path of the
package calls it: it serves only as the oracle of ``cross_check`` and the
tests.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable, NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (fnan, from_int, from_man_exp, mpf_abs, mpf_exp, mpf_ge, mpf_log, mpf_mul,
                          mpf_mul_int, mpf_pow, mpf_shift, round_nearest, to_fixed, to_float,
                          to_int)
from mpmath.libmp.libelefun import ln2_fixed, log_taylor

from .errors import DomainError, NumericalError
from .precision import GUARD_BITS, Param, PrecisionContext, Real, _make, as_real, declared

# Hard cap on adaptive panels before quad_integral gives up.
DEFAULT_PANEL_BUDGET = 4000

# The most terms the kernel's series is asked to sum; :func:`_series_terms`
# estimates them before it starts.  1F1(2.5; 20006; 4.5e5), 4.4e5 terms,
# took 0.44 s at 53 bits, 1.0 s at 256 bits and 4.4 s at 1,024 bits
# (pure-python mpmath, 2-core host).
MAX_SERIES_TERMS = 5 * 10**5


def _raw(v) -> tuple:
    """The raw libmp value of an int or mpf parameter, exactly."""
    return v._mpf_ if type(v) is mpf else from_int(v)


def _scaled(scale, man: int, exp: int, wp: int) -> Real:
    """scale * man * 2**exp for an int or mpf scale, the exact fixed-point
    value rounded once at wp as the mpf product rounds it.  A positive man
    of more than wp bits, as every sum of the series is, goes in
    unnormalised: the product then rounds, and so strips its trailing
    zeros, to the value of the normalised one."""
    bc = man.bit_length()
    raw = (0, man, exp, bc) if man > 0 and bc > wp else from_man_exp(man, exp)
    return _make(mpf_mul(_raw(scale), raw, wp, round_nearest))


@functools.lru_cache(maxsize=8)
def _log_tables(bits: int) -> tuple:
    """ln 2 and log(1 + j/2**K), j < 32, for K = 5 and 10, in units of
    2**-bits, each within 1.01 units: by ``log_taylor`` at 20 more bits."""
    def logs(k):
        return tuple(log_taylor((1 << bits + 20) + (j << bits + 20 - k), bits + 20) >> 20
                     for j in range(32))
    return ln2_fixed(bits), logs(5), logs(10)


def _log(raw, prec: int) -> tuple:
    """``mpf_log(raw, prec, round_nearest)`` bit for bit, for a raw value.

    With x = y 2**(mag-1), y in [1, 2), log x = log(1 + j1/32) +
    log(1 + j2/1024) + 2 atanh(v) + (mag-1) ln 2: y divided by 1 + j1/32 and
    then by 1 + j2/1024 lies in [1, 1 + 2**-10), so v = (y-1)/(y+1) <
    2**-11 and the series takes about wp/22 terms, summed in integer fixed
    point at wp = prec + 40 bits (Tang's two-level reduction).  The tables
    (:func:`_log_tables`) are built once per 64-bit bucket.  This sum errs
    by under 16 + wp/8 + |mag| units of 2**-wp; ``mpf_log``'s own (its
    Taylor route below 2,500 bits) by under 10 + wp'/15 + 1.01 |mag| units
    of 2**-wp', wp' >= prec + 20.  The window (64 + prec/8 + 2 |mag|) 2**20
    holds both, so where both ends of it round to one value at prec,
    ``mpf_log``'s does too (Ziv's test); else, and for zero, negative or
    special x, prec > 2,400 (mpmath's AGM route) or |mag| >= 2**prec,
    ``mpf_log`` is called.  A log within about 2**-12 of 0 fails the test."""
    sign, man, exp, bc = raw
    mag = exp + bc
    if sign or not man or prec > 2400 or abs(mag) >> prec:
        return mpf_log(raw, prec, round_nearest)
    wp = prec + 40
    bits = (wp | 63) + 1
    ln2, t1, t2 = _log_tables(bits)
    y = man << wp + 1 - bc if bc <= wp + 1 else man >> bc - wp - 1
    j1 = (y >> wp - 5) - 32
    y = (y << 5) // (32 + j1)
    j2 = (y >> wp - 10) - 1024
    y = (y << 10) // (1024 + j2)
    one = 1 << wp
    v = (y - one << wp) // (y + one)
    # atanh v = s0 + v**2 s1, s0 over the powers v**(4i+1), s1 over v**(4i+3)
    v2 = v * v >> wp
    v4, s0, s1, k = v2 * v2 >> wp, v, v // 3, 5
    while v:
        v = v * v4 >> wp
        s0 += v // k
        s1 += v // (k + 2)
        k += 4
    m = 2 * (s0 + (s1 * v2 >> wp)) + (t1[j1] + t2[j2] + (mag - 1) * ln2 >> bits - wp)
    # the window m +- err lies within a quarter unit (2**sh) of the last
    # kept bit and clear of the halfway point of m's unit: it rounds as m
    err, a = 64 + prec // 8 + 2 * abs(mag) << 20, abs(m)
    sh = a.bit_length() - prec
    if sh > 2 and err < 1 << sh - 2 and abs((a & (1 << sh) - 1) - (1 << sh - 1)) > err:
        return from_man_exp(m, -wp, prec, round_nearest)
    return mpf_log(raw, prec, round_nearest)


def _memo_free(key, compute, *args):
    """The ``memo`` of a caller without one: every value computed."""
    return compute(*args)


def _power(x, e, wp: int, memo=_memo_free):
    """x**e for raw x >= 0 and e, rounded as ``mpf_pow`` rounds it at wp:
    integer and half-integer powers by ``mpf_pow`` itself, others as
    exp(e log x) with log x at wp + 10 bits by :func:`_log`, taken from
    ``memo`` (as for :func:`.remainders.r_frac_ladder`)."""
    if e[2] >= -1:
        return mpf_pow(x, e, wp, round_nearest)
    log_x = memo(("log", x), _log, x, wp + 10)
    return mpf_exp(mpf_mul(e, log_x), wp, round_nearest)


def _real_pow(x, e) -> Real:
    """The mpf x ** e for an mpf x >= 0 and an int or mpf e, bit for bit,
    by :func:`_power` at the active precision."""
    return _make(_power(x._mpf_, _raw(e), mp.prec))


def _series_budget(x, bits: int) -> int:
    """A-priori term-count bound from the ratio test: generous, never hit
    in practice, but turns a would-be hang into a diagnosable failure.
    Sized from the mpf x itself, which may lie beyond the float range:
    3|x| is rounded at the active precision, as the mpf operators round it."""
    return to_int(mpf_mul_int(mpf_abs(x._mpf_), 3, mp.prec, round_nearest)) + 8 * bits + 256


def _series_terms(a, b, x, wp: int) -> mpf:
    """About how many terms the series of 1F1(a; b; x), a >= 1, b > 0, sums
    at wp bits: those up to its largest term, at the k* where the term
    ratio r_k = |x| (a+k) / ((b+k)(k+1)) falls to 1 (the larger root of
    k**2 - (|x| - b - 1) k - (a |x| - b) = 0, else 0), and the j after it
    until the terms are 2**-wp below it.  Past k*, -log r_k grows by about
    c = (a-1)/((k*+1)(a+k*)) + 1/(b+k*) per term, so j terms fall by
    L j + c j**2/2 nats, L = -log r_0 where k* = 0.  Above 10^4 terms this
    came within a few per cent of the summed count; below a few hundred it
    may fall short several times over, far below the cap either way.
    Formed at a precision that keeps the root's coefficients exact to
    2**-64 however large the parameters."""
    xa = abs(x)
    if not xa:
        return mpf(1)
    with mp.workprec(64 + max(0, mp.mag(a) + mp.mag(xa), mp.mag(b))):
        p, q = xa - b - 1, a * xa - b
        disc = p * p + 4 * q
        s = mp.sqrt(disc) if disc > 0 else mpf(0)
        # the larger root, without cancellation on either sign of p
        k = (p + s) / 2 if p > 0 else (2 * q / (s - p) if s > p else mpf(0))
        k = max(k, mpf(0))
        lead = mp.log(b) - mp.log(a) - mp.log(xa) if k == 0 else mpf(0)
        lead = max(lead, mpf(0))
        c = (a - 1) / ((k + 1) * (a + k)) + 1 / (b + k)
        drop = wp * mp.ln2
        return k + 2 * drop / (lead + mp.sqrt(lead * lead + 2 * c * drop))


@declared(Param("v", gt=0))
def gamma_fn(v, ctx: PrecisionContext) -> Real:
    """Gamma function for v > 0 by ``mp.gamma`` at the working precision.

    At a positive integer v, ``mp.gamma`` rounds the exact factorial
    (v - 1)! (tabled below 150, else by ``ifac`` while v log2 v < 10 wp)
    and otherwise uses its Stirling route, in about a millisecond where
    the exact factorial of v = 1e5 takes over a second."""
    return mp.gamma(v)


def _fixed_param(p) -> tuple[int, int, int]:
    """Start n, step d and scale bits s of p + k = (n + k d) / 2**s for an
    int or finite mpf p, read exactly from its raw value: an integer p is
    itself (s = 0), and otherwise p is its own mantissa over 2**-exp, so a
    short p such as a 53-bit float stays a short operand.  Every caller
    but one forms p at or below the working precision, so n has at most
    that many bits; kummer_1f1_one's step forms b + 1 exactly."""
    if type(p) is int:
        return p, 1, 0
    sign, man, exp, _ = p._mpf_
    if sign:
        man = -man
    if exp >= 0:
        return man << exp, 1, 0
    return man, 1 << -exp, -exp


def _large_x(b, x, ctx: PrecisionContext) -> bool:
    """Whether 1F1(.; b; x) is past the switch x >= max(wp, 2b) to the
    closed-form route, wp = bits + GUARD_BITS the working precision: there
    e**-x < 2**(-1.44 wp) lies far below the working precision, and the
    route's one subtraction loses under 1 bit.  Judged on the raw values."""
    xr = x._mpf_
    return mpf_ge(xr, from_int(ctx.bits + GUARD_BITS)) and mpf_ge(xr, mpf_shift(_raw(b), 1))


def _kummer_one_large_x(b, x, ctx: PrecisionContext) -> Real:
    """1F1(1; b; x) for |x| >= max(wp, 2b), in O(bits) terms or fewer.

    With s = b - 1, 1F1(1; b; x) = s x**-s e**x gamma(s, x), so
    1F1(1; b; x) = Gamma(b) x**(1-b) e**x - (s/x) B with the bracket
    B = x**(1-s) e**x Gamma(s, x) ~ sum_k (s-1)(s-2)...(s-k) / x**k
    (DLMF 8.11.2).  For integer s the expansion ends at k = s and is the
    exact partial sum.

    For x > 0, while k < s - 1 the terms of B are positive with ratio
    (s-k-1)/x <= 1/2, and from k >= s - 1 on the rest is bounded by the
    first neglected term (DLMF 8.11(ii)), so the rest after any term is
    below twice the next term.  Since x >= 2b, (s/x) B < 1 <= 1F1/3, so
    the subtraction loses under 1 bit; for b < 1 it is an addition.

    For x < 0 the same expansion is the large-|x| form of
    1F1(1; b; x) = e**x 1F1(b-1; b; -x) (DLMF 13.7.2): B is the dominant
    part, |B| >= 1/2 as its first term is 1 and the next is below 1/2,
    and the lead term shrinks to Gamma(b) |x|**-s e**x cos(pi s), the real
    part of x**-s, which is exact for integer s and matters only for s
    within about |x| e**x of 0 (b = 1 gives e**x).  Its terms fall by at
    least 1/2 per step until they pass the stop, so about bits terms are
    summed; the stopping rule is the one of x > 0, checked against mpmath
    at 128 extra bits in the tests.
    """
    wp = mp.prec
    s = b - 1
    # exp's argument x - s log|x|, |.| <= |x| (|s| + 1), is formed to an
    # absolute 2**-wp, with s taken from b again at that precision
    with mp.workprec(wp + mp.mag(x) + mp.mag(abs(s) + 1)):
        arg = x - (b - 1) * _make(_log(mpf_abs(x._mpf_, mp.prec, round_nearest), mp.prec))
    lead = mp.gamma(b) * mp.exp(arg)
    if x < 0:
        lead *= mp.cospi(s)
    if not s:
        return lead
    w = s / x
    # stop at 2 |term| |w| <= target/4 * |1F1|, in units of 2**-wp, with
    # |1F1| >= lead for x > 0 and >= about max(|lead|, |w|/2) for x < 0
    size = lead if x > 0 else max(abs(lead), abs(w) / 2)
    stop = int(mp.ldexp(min(ctx.target_rel_err * size / (8 * abs(w)), 1), wp))
    ns, ds, ss = _fixed_param(s)
    xm, _, sx = _fixed_param(x)
    term = total = 1 << wp
    for k in range(1, 4 * ctx.bits):
        term = (term * (ns - k * ds) << sx) // (xm << ss)
        if abs(term) <= stop:
            break
        total += term
    else:
        raise NumericalError(f"1F1(1; {b}; {x}) large-x expansion did not converge")
    return lead - w * mp.ldexp(total, -wp)


def _contiguous_up(a: int, b, x, f1) -> Real:
    """1F1(a; b; x) for an integer 2 <= a <= b + 1 and x >= 2b from
    F(0) = 1 and F(1) = f1 by the contiguous relation (DLMF 13.3.1)
    k F(k+1) = (2k - b + x) F(k) + (b - k) F(k-1), k = 1, ..., a - 1.

    Both coefficients are non-negative, so no step cancels.  The steps run
    in integer fixed point, the way the series does: b and x are exact,
    their own mantissas (:func:`_fixed_param`), and F(k), F(k-1) share one
    power of two, with F(k) between 2 wp and 3 wp bits (wp the active
    working precision), so each step truncates at most 2**-2wp of F(k+1)
    relative."""
    wp = mp.prec
    nb, _, sb = _fixed_param(b)
    xm, _, sx = _fixed_param(x)
    s = max(sb, sx)
    bs, xs = nb << (s - sb), xm << (s - sx)  # b and x in units of 2**-s
    _, man, exp, bc = f1._mpf_
    e = exp + bc - 2 * wp  # F(k) = cur * 2**e
    cur = man << (exp - e) if exp >= e else man >> (e - exp)
    prev = 1 << -e if e <= 0 else 0
    for k in range(1, a):
        ks = k << s
        prev, cur = cur, ((2 * ks - bs + xs) * cur + (bs - ks) * prev) // ks
        excess = cur.bit_length() - 2 * wp
        if excess > wp:
            prev >>= excess
            cur >>= excess
            e += excess
    return mp.ldexp(cur, e)


def _hyp1f1_pos(a, b, x, ctx: PrecisionContext, scale=1) -> Real:
    """scale * 1F1(a; b; x) = scale * sum_k (a)_k/(b)_k x**k/k!, x >= 0, for
    a >= 1, b > 0 or for 0 < a < 1, b = a + 1.

    Summed in integer fixed point at the active working precision wp, with
    x, a and b exact, as their own mantissas (:func:`_fixed_param`), so a
    53-bit x or b is a 53-bit operand of each term's multiply and divide
    however small it is.  Its checks of the parameters and its final
    product with scale work on the raw libmp values, rounded as the mpf
    operators round, without their dispatch.  For b = +oo every term past
    the first vanishes.  :func:`_positive_series` sums the series in two
    phases: the terms up to the peak with no stop test, which cannot fire
    there, and after it the test only for terms small enough to pass it.
    For a = 1 each term divides by b + k - 1 alone, a one-digit divisor
    for an integer b.  The stop rule needs only that the term ratio
    x (a+k)/((b+k)(k+1)) falls for k >= 1, as it does for a >= 1 and, as
    (a+k)(a+k+2) > k+1, for b = a + 1 (see :func:`_kummer_transformed`).

    For an integer a <= b + 1 and x >= max(wp, 2b) a closed form replaces
    the series: a = 1 by :func:`_kummer_one_large_x`, and a >= 2 from
    F(0) = 1 and F(1) by the contiguous relation (DLMF 13.3.1)
    k F(k+1) = (2k - b + x) F(k) + (b - k) F(k-1), whose terms are all
    positive for k < b and x >= b, so no step cancels
    (:func:`_contiguous_up`).  Only an x with |x| >= 2**(bitlen(wp) - 1),
    at or below wp, can reach that switch, so only such an x consults
    :func:`_large_x` and :func:`_series_budget`; a smaller one forms the
    same budget inline.  A series that :func:`_series_terms` estimates at
    more than MAX_SERIES_TERMS terms raises :class:`DomainError` before it
    starts.
    """
    ar, br, xr = _raw(a), _raw(b), x._mpf_
    # a special raw value (nan, +-oo) has mantissa 0 and a non-zero bc
    if br == fnan or not ar[1] and ar[3]:
        raise NumericalError(f"1F1({a}; {b}; {x}) series does not converge: non-finite parameter")
    if not br[1] and br[3]:
        return scale * mpf(1)
    wp = mp.prec
    _, man, e, bc = xr
    if e + bc >= (ctx.bits + GUARD_BITS).bit_length():
        if _large_x(b, x, ctx) and a == int(a) and a <= b + 1:
            f1 = _kummer_one_large_x(b, x, ctx)
            return scale * (_contiguous_up(int(a), b, x, f1) if a > 1 else f1)
        budget = _series_budget(x, ctx.bits)
    else:
        # what _series_budget gives: 3|x| rounds at wp only past wp bits
        if bc + 2 > wp:
            three = to_int(mpf_mul_int(mpf_abs(xr), 3, wp, round_nearest))
        else:
            three = 3 * man >> -e if e < 0 else 3 * man << e
        budget = three + 8 * ctx.bits + 256
    if budget > MAX_SERIES_TERMS:
        terms = _series_terms(a, b, x, wp)
        if terms > MAX_SERIES_TERMS:
            raise DomainError(f"1F1({a}; {b}; {x}) would take about {mp.nstr(terms, 3)} series terms "
                              f"(at most {MAX_SERIES_TERMS}); the closed form needs an integer "
                              f"a <= b + 1 and x >= max(wp, 2b)")
        budget = min(budget, 2 * MAX_SERIES_TERMS)  # an estimate's miss stays bounded too
    return _positive_series(a, b, x, ctx, scale, budget)


def _tolerance(ctx: PrecisionContext) -> int:
    """The tol of the stop rule: term < 2**(1 - tol) * total <= target * total
    (target >= 2**(exp+bc-1))."""
    _, _, texp, tbc = ctx.target_rel_err._mpf_
    return 2 - texp - tbc


def _rise_end(af: float, bf: float, xf: float, last: int) -> int:
    """The largest k <= last up to which every float term ratio
    r_j = xf (af + j) / ((bf + j)(j + 1)) of the stop rule is >= 1, or 0.

    Taken one below the larger root of r_k = 1 (the k of
    :func:`_series_terms`) and kept only if its own float r_k is finite
    and at least 1 + 2**-40: for af >= 1, and for j >= 1 where bf is
    af + 1, the exact ratio of the float inputs falls strictly in j, and
    each float r_j is within 6 ulp of it, so every earlier float r_j is
    >= 1 too.  A root lost to rounding or overflow gives 0, which costs
    time, never a value."""
    p, q = xf - bf - 1, xf * af - bf
    disc = p * p + 4 * q
    if not disc > 0 or p <= 0 and q <= 0:
        return 0
    s = math.sqrt(disc)
    root = (p + s) / 2 if p > 0 else 2 * q / (s - p)
    if not root - 1 < last:
        root = last + 1
    k = int(root) - 1
    if k < 1:
        return 0
    r = xf * (af + k) / ((bf + k) * (k + 1))
    return k if 1 + 2.0**-40 <= r < math.inf else 0


def _positive_series(a, b, x, ctx: PrecisionContext, scale, budget: int) -> Real:
    """The series of :func:`_hyp1f1_pos` in two phases, with the value and
    the error, bit for bit, of one loop that tests the stop rule at every
    term (the tests' reference).

    While the next term ratio r_k is >= 1 (up to :func:`_rise_end`) the
    stop rule cannot fire, and the terms are added with no test.  After the
    peak, the sum's bit length is read again only when the sum passes a
    power of two, and the stop rule runs only for a term below
    2**(size - tol), the terms its gap >= 0 admits.  Each term shifts
    before it divides, (term * xu * na >> down) // (nb * k), as
    floor(floor(A / 2**d) / m) = floor(A / (2**d m)); for a = 1, where
    (a + k - 1)/k = 1 exactly, it divides by nb = b + k - 1 alone, one
    30-bit digit for an integer b, so only a fractional b still costs a
    multi-digit division.  The sum goes to the final product with scale
    unnormalised (:func:`_scaled`), which rounds it once, to the same value."""
    wp = mp.prec
    tol = _tolerance(ctx)
    na, da, sa = _fixed_param(a)
    nb, db, sb = _fixed_param(b)
    xm, _, sx = _fixed_param(x)
    xu, down = xm << max(0, sb - sx - sa), max(0, sx + sa - sb)
    af, bf = to_float(_raw(a), False, round_nearest), to_float(_raw(b), False, round_nearest)
    xf = to_float(x._mpf_, False, round_nearest)
    rise = _rise_end(af, bf, xf, budget - 2)
    one = na == da == 1 and not sa  # a = 1
    term = total = 1 << wp
    exp, top = -wp, 2 * wp
    full = 1 << top
    for k in range(1, rise + 1):
        if one:
            term = (term * xu >> down) // nb
        else:
            term = (term * xu * na >> down) // (nb * k)
            na += da
        total += term
        if total >= full:
            term >>= wp
            total >>= wp
            exp += wp
        nb += db
    size = total.bit_length()
    cross, low = 1 << size, 1 << size - tol
    for k in range(rise + 1, budget):
        if one:
            term = (term * xu >> down) // nb
        else:
            term = (term * xu * na >> down) // (nb * k)
            na += da
        if not term:  # every later term is 0 too
            break
        total += term
        if total >= cross:
            size = total.bit_length()
            cross, low = 1 << size, 1 << size - tol
        if term < low:
            r = xf * (af + k) / ((bf + k) * (k + 1))
            if r <= (1 - r) * 2.0 ** min(size - term.bit_length() - tol, 64):
                break
        if size > top:
            term >>= wp
            total >>= wp
            exp += wp
            size -= wp
            cross, low = 1 << size, 1 << size - tol
        nb += db
    else:
        raise NumericalError(f"1F1({a}; {b}; {x}) series did not converge",
                             best_estimate=ctx.finalize(_scaled(scale, total, exp, wp)))
    return _scaled(scale, total, exp, wp)


@declared(Param("order", ge=0), Param("x", gt=0))
def arctan_fracint(order, x, ctx: PrecisionContext) -> Real:
    """Riemann-Liouville integral I^order[arctan](x), order >= 0, x > 0.

    Since arctan(0) = 0 it equals K / Gamma(order+1) with
    K = integral of (x-t)**order / (1+t**2) over (0, x), which is split at
    d = x/2 when x >= 2 and at d = 0 otherwise.  With h = x - d:

    * near t = x, 1/(1+t**2) = Im 1/(t-i) expands in z = h/(x-i), |z| <= 2/sqrt(5):
      K_x = h**(order+1)/(1+x**2) * (Re S + x Im S), S = sum_k z**k/(order+k+1);
    * near t = 0 (d >= 1), with J_j = integral of t**j/(1+t**2) over (0, d)
      from J_0 = atan d, J_1 = log1p(d**2)/2 and the forward recurrence
      J_j = d**(j-1)/(j-1) - J_{j-2}, stable for d >= 1:
      K_0 = x**order * sum_j C(order, j) (-1/2)**j J_j/d**j.

    Both sums run in integer fixed point.  Taking Im loses at most
    log2(2 sqrt(1+x**2)) bits and the binomial sum at most order*log2(3),
    so the working precision carries those bits on top of the guard.  Each
    sum stops once its geometric tail bound term*r/(1-r) (times
    sqrt(1+x**2) for Re S + x Im S) is below target/2 times a lower bound
    of its value: Re S + x Im S >= 1/(order+1), as 1/(1+t**2) >= 1/(1+x**2)
    on (d, x), and K_0/x**order >= 2**-order atan(d), as (1-t/x)**order >=
    2**-order.  The bounds floor at 2 units, the size of the floored
    fixed-point terms once the true ones have vanished.
    """
    gamma = gamma_fn(order + 1, ctx)
    d = x / 2 if x >= 2 else mpf(0)
    boost = math.ceil(math.log2(2 * math.hypot(1, float(x))))
    if d:
        boost += math.ceil(float(order) * math.log2(3))
    with ctx.work(boost):
        wp = mp.prec
        eps = ctx.target_rel_err / 2
        h = x - d
        w2 = x * x + 1
        w = mp.sqrt(w2)
        r = h / w
        s = wp + max(0, -mp.mag(r))
        zr, zi = to_fixed((h * x / w2)._mpf_, s), to_fixed((h / w2)._mpf_, s)
        na, da, sa = _fixed_param(order + 1)
        stop = max(2, int(mp.ldexp(eps * (1 - r) / (r * w * (order + 1)), s)))
        pr, pi, sr, si = 1 << s, 0, 0, 0
        while True:
            tr, ti = (pr << sa) // na, (pi << sa) // na
            sr += tr
            si += ti
            if abs(tr) + abs(ti) <= stop:
                break
            pr, pi = (pr * zr - pi * zi) >> s, (pr * zi + pi * zr) >> s
            na += da
        total = _real_pow(h, order + 1) / w2 * mp.ldexp(sr + x * si, -s)
        if d:
            atan_d = mp.atan(d)
            inv_d = to_fixed((1 / d)._mpf_, wp)
            j_prev, j_cur = to_fixed(atan_d._mpf_, wp), to_fixed((mp.log1p(d * d) / (2 * d))._mpf_, wp)
            no, _, so = _fixed_param(order)
            stop = max(2, int(mp.ldexp(eps * atan_d / 2**order, wp)))
            c = 1 << wp
            near0 = j_prev
            j = 0
            while True:
                c = c * ((j << so) - no) // ((2 * j + 2) << so)
                j += 1
                term = c * j_cur >> wp
                near0 += term
                # past j = order each term ratio is below 1/2, so the tail is below term
                if j >= order and abs(term) <= stop:
                    break
                j_prev, j_cur = j_cur, ((1 << wp) // j - (j_prev * inv_d >> wp)) * inv_d >> wp
            total += _real_pow(x, order) * mp.ldexp(near0, -wp)
        return total / gamma


@declared(Param("v", gt=0, finite=False), Param("x", ge=0))
def lower_incomplete_gamma(v, x, ctx: PrecisionContext) -> Real:
    """gamma(v, x) = integral of t**(v-1) e**-t over (0, x).

    Evaluated through the all-positive series
    gamma(v,x) = x**v e**-x / v * 1F1(1; v+1; x).
    """
    if mp.isinf(v) and x > 0:
        raise NumericalError(f"incomplete gamma series does not converge for v={v}")
    return _hyp1f1_pos(1, v + 1, x, ctx, _real_pow(x, v) * mp.exp(-x) / v)


def _kummer_transformed(b, x, ctx: PrecisionContext, scale=1) -> Real:
    """scale * 1F1(1; b; x) = scale e**x 1F1(b-1; b; -x) (DLMF 13.2.39), b > 1,
    x < 0, summed to target_rel_err/2 to leave room for the roundings.  For
    b < 2 the terms dip to (b-1)|x|/b at k = 1 before they rise, and each
    later term is formed from that one: the sum holds as many more bits."""
    dip = max(0, -mp.mag((b - 1) * x / b)) if b < 2 else 0
    half = PrecisionContext(ctx.bits + 1, ctx.target_rel_err / 2)
    with mp.workprec(mp.prec + dip):
        try:
            return _hyp1f1_pos(b - 1, b, -x, half, scale * mp.exp(x))
        except DomainError as exc:  # refused by its term estimate
            raise DomainError(f"1F1(1; {b}; {x}) = e**x {exc}") from None


@declared(Param("b", gt=0, finite=False), Param("x"))
def kummer_1f1_one(b, x, ctx: PrecisionContext) -> Real:
    """1F1(1; b; x) = sum_k x**k / (b)_k with (b)_k the rising factorial.

    All terms are positive for x >= 0.  For x < 0 it is e**x at b = 1, the
    expansion of :func:`_kummer_one_large_x` from x = -max(wp, 2b) on, and
    above it one positive series for b > 1 (:func:`_kummer_transformed`).
    For 0 < b < 1 it takes one step, 1F1(1; b; x) = 1 - s with
    s = (-x/b) 1F1(1; b+1; x), whose subtraction loses up to
    mag s - mag(1 - s) + 1 bits, all of them at the one negative zero.  The
    loss is measured, and the step repeated with as many more bits and a
    target tighter by as many, until 1 - s keeps target_rel_err; past 4 wp
    extra bits it raises :class:`NumericalError`.
    """
    if x >= 0 or not mp.isfinite(b):
        return _hyp1f1_pos(1, b, x, ctx)
    if _large_x(b, -x, ctx):
        return _kummer_one_large_x(b, x, ctx)
    if b >= 1:
        return _kummer_transformed(b, x, ctx) if b > 1 else mp.exp(x)
    b1, extra, cap = mp.fadd(b, 1, exact=True), GUARD_BITS, 4 * (ctx.bits + GUARD_BITS)
    while True:
        # the series' stop rule reads its context's target, not mp.prec
        step = PrecisionContext(ctx.bits + extra, mp.ldexp(ctx.target_rel_err, -extra))
        with step.work():
            s = _kummer_transformed(b1, x, step, -x / b)
            value = 1 - s  # s errs by < target/2**(extra+1): 1 - s by < target/4 if lost < extra
            lost = mp.mag(s) - mp.mag(value) + 1 if value else mp.prec
        if lost < extra:
            return value
        if extra >= cap:
            raise NumericalError(f"1F1(1; {b}; {x}) loses over {cap} bits near its zero")
        extra = min(max(lost + 1, 2 * extra), cap)


class QuadResult(NamedTuple):
    value: Real
    error: Real


def _gauss_legendre_nodes(n: int, prec: int) -> list[tuple[mpf, mpf]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    computed by Newton iteration on the Legendre recurrence."""
    with mp.workprec(prec + 32):
        pairs = []
        tol = mpf(2) ** (-prec - 8)
        for i in range(1, n // 2 + 2):
            x = mp.cos(mp.pi * (i - mpf(1) / 4) / (n + mpf(1) / 2))
            if x <= 0:
                break
            for _ in range(200):
                p0, p1 = mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < tol:
                    break
            p0, p1 = mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            pairs.append((x, w))
        nodes = [(-x, w) for x, w in pairs]
        if n % 2 == 1:
            x = mpf(0)
            p0, p1 = mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            nodes.append((x, 2 / (dp * dp)))
        nodes.extend((x, w) for x, w in reversed(pairs))
        return nodes


_NODE_CACHE: dict[tuple[int, int], list[tuple[mpf, mpf]]] = {}


def _nodes(n: int, prec: int) -> list[tuple[mpf, mpf]]:
    key = (n, prec)
    if key not in _NODE_CACHE:
        _NODE_CACHE[key] = _gauss_legendre_nodes(n, prec)
    return _NODE_CACHE[key]


def _panel(f, a: mpf, b: mpf, rule: list[tuple[mpf, mpf]]) -> mpf:
    mid = (a + b) / 2
    half = (b - a) / 2
    total = mpf(0)
    for x, w in rule:
        total += w * f(mid + half * x)
    return total * half


def _substitution_power(e) -> int | mpf | None:
    """Integer p with p*(e+1)-1 a nonnegative integer, if one exists.

    With t = hi - u**p the factor (hi-t)**e together with the Jacobian
    becomes p * u**(p*(e+1)-1) * smooth(u**p), analytic at u = 0 whenever
    p*e is an integer.  For non-rational e in (-1, 0) the real power
    p = 1/(1+e) at least makes the transformed integrand bounded.
    """
    ef = float(e)
    if ef == int(ef) and ef >= 0:
        return None
    for s in range(2, 25):
        if abs(ef * s - round(ef * s)) < 1e-9:
            return s
    if -1 < ef < 0:
        return 1 / (1 + mpf(e))
    return None


def quad_integral(
    integrand: Callable[[mpf], mpf],
    lo,
    hi,
    endpoint_exponent=0,
    ctx: PrecisionContext = None,
    panel_budget: int = DEFAULT_PANEL_BUDGET,
) -> QuadResult:
    """Adaptive Gauss-Legendre integral of ``integrand`` over (lo, hi).

    The integrand must be smooth on the open interval apart from an
    algebraic factor (hi - t)**endpoint_exponent, endpoint_exponent > -1,
    which is absorbed by a power substitution before panels are laid down.
    Returns the value together with an error estimate; raises
    :class:`NumericalError` carrying the best estimate if the panel budget
    is exhausted before the target is met.
    """
    if ctx is None:
        ctx = PrecisionContext()
    e = float(endpoint_exponent)
    if not e > -1:
        raise DomainError(f"endpoint_exponent must exceed -1, got {endpoint_exponent}")
    with ctx.work():
        a = as_real(lo, ctx)
        b = as_real(hi, ctx)
        if not a < b:
            raise DomainError(f"quad_integral requires lo < hi, got [{a}, {b}]")

        p = _substitution_power(endpoint_exponent)
        if p is None:
            f, ta, tb = integrand, a, b
        else:
            width = b - a

            def f(u, _g=integrand, _hi=b, _p=p):
                return _g(_hi - u**_p) * _p * u ** (_p - 1)

            ta, tb = mpf(0), width ** (1 / mpf(p))

        n_nodes = max(32, ctx.bits // 4)
        rule = _nodes(n_nodes, ctx.bits + GUARD_BITS)
        rough = _nodes(n_nodes // 2, ctx.bits + GUARD_BITS)
        tol = 5 * ctx.target_rel_err

        def estimate(pa, pb):
            fine = _panel(f, pa, pb, rule)
            coarse = _panel(f, pa, pb, rough)
            return fine, abs(fine - coarse)

        val, err = estimate(ta, tb)
        heap = [(-err, 0, ta, tb, val, err)]
        seq = 0
        total_val, total_err = val, err
        panels = 1
        while total_err > tol * abs(total_val) and total_err > mpf(2) ** (-(ctx.bits + 8)):
            if panels >= panel_budget:
                raise NumericalError(
                    f"quadrature did not converge within {panel_budget} panels "
                    f"(estimate {mp.nstr(total_val, 17)}, error {mp.nstr(total_err, 5)})",
                    best_estimate=ctx.finalize(total_val),
                    error_estimate=ctx.finalize(total_err),
                )
            neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
            pm = (pa + pb) / 2
            lval, lerr = estimate(pa, pm)
            rval, rerr = estimate(pm, pb)
            total_val += lval + rval - pval
            total_err += lerr + rerr - perr
            seq += 1
            heapq.heappush(heap, (-lerr, seq, pa, pm, lval, lerr))
            seq += 1
            heapq.heappush(heap, (-rerr, seq, pm, pb, rval, rerr))
            panels += 1
        return QuadResult(ctx.finalize(total_val), ctx.finalize(total_err))
