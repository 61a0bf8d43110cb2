"""Exponential Taylor remainders in all four flavours, each with at least
two independent evaluation routes.

Each remainder is a prefactor times one all-positive series 1F1(a; b; x),
evaluated by the one kernel of :mod:`.numerics`.  So the integer
remainder R_n(x) = e**x - sum_{k<=n} x**k/k! is summed as the tail
directly, never as the subtraction, which loses ~x*log2(e) bits.  The
series of |R_n(-x)| and R_{n,m} come from termwise integration of their
positive integral kernels.  From x >= max(wp, 2b) on (wp = bits +
GUARD_BITS, :func:`.numerics._large_x`) the kernel replaces the series,
whose cost grows with x, by a closed form whose cost does not, so every
remainder here has bounded cost at any x.

:func:`r_frac_ladder` serves callers that need R_a(x) at many orders a
with one fractional part: one series at the top order of a block, then
the all-positive downward recurrence R_{a-1} = R_a + x**a/Gamma(a+1),
which neither cancels nor calls the kernel again.  Its steps run in
integer fixed point at twice the working precision, and a caller
reading many blocks shares Gamma and log x between them through a memo
it passes in.  The catalog reads its positive remainders this way; the
single-order functions here keep their direct series.  The quadrature forms survive
only inside :func:`cross_check` as oracles (together with the
subtraction forms at boosted precision).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_div, mpf_gamma, round_nearest

from .errors import DomainError, NumericalError, UsageError
from .numerics import (_hyp1f1_pos, _memo_free, _power, _real_pow, _series_budget,
                       quad_integral)
from .precision import GUARD_BITS, Param, PrecisionContext, Real, _make, as_real, declared

_N0, _N1 = Param("n", int, ge=0), Param("n", int, ge=1)
_X0, _X = Param("x", ge=0), Param("x", gt=0)


class RemainderKind(enum.Enum):
    INTEGER_TAIL = "integer_tail"
    FRACTIONAL = "fractional"
    NEGATIVE_ARGUMENT = "negative_argument"
    OBRESHKOV = "obreshkov"


@dataclass(frozen=True)
class RemainderSpec:
    """Which remainder variant to evaluate, with its order parameters."""

    kind: RemainderKind
    n: int | None = None
    a: float | Real | None = None
    m: int | None = None

    def __post_init__(self):
        k = self.kind
        if k in (RemainderKind.INTEGER_TAIL, RemainderKind.NEGATIVE_ARGUMENT):
            if self.n is None or self.n < 0 or self.a is not None or self.m is not None:
                raise UsageError(f"{k.value} spec needs only n >= 0, got {self}")
        elif k is RemainderKind.FRACTIONAL:
            if self.a is None or not mpf(self.a) > -1 or self.n is not None or self.m is not None:
                raise UsageError(f"fractional spec needs only a > -1, got {self}")
        elif k is RemainderKind.OBRESHKOV:
            if self.n is None or self.n < 0 or self.m is None or self.m < 0 or self.a is not None:
                raise UsageError(f"obreshkov spec needs n >= 0 and m >= 0, got {self}")


@dataclass(frozen=True)
class DiffTable:
    """Finite differences of a sequence indexed by order."""

    values: tuple
    k: int


@declared(_N0, _X0)
def r_tail(n: int, x, ctx: PrecisionContext) -> Real:
    """Tail sum_{k>n} x**k/k! = x**(n+1)/(n+1)! 1F1(1; n+2; x), x >= 0."""
    return _hyp1f1_pos(1, n + 2, x, ctx, x ** (n + 1) / mp.factorial(n + 1))


@declared(Param("a", gt=-1, finite=False), _X0)
def r_frac(a, x, ctx: PrecisionContext) -> Real:
    """Fractional-order remainder R_a(x), real a > -1, via the Kummer series
    x**(a+1)/Gamma(a+2) * 1F1(1; a+2; x)."""
    return _hyp1f1_pos(1, a + 2, x, ctx, _real_pow(x, a + 1) / mp.gamma(a + 2))


def r_frac_ladder(f, lo: int, hi: int, x, ctx: PrecisionContext, *,
                  memo=_memo_free) -> tuple[Real, ...]:
    """R_{f+j}(x) for j = lo, lo+1, ..., hi: one series for a block of orders.

    Needs 0 <= f < 1, lo <= hi, f + lo > -1 and x > 0.  The top order
    a = f + hi is summed by the kernel; each lower order follows by the
    all-positive recurrence R_{a-1}(x) = R_a(x) + t_a with
    t_a = x**a/Gamma(a+1) and t_{a-1} = t_a a/x (DLMF 8.8.1 in remainder
    form), so no step cancels.  The steps run on Python integers at
    2 * wp bits with one shared exponent, and each value is rounded to
    ``ctx.bits`` once.

    The top term x**(a+1)/Gamma(a+2) is rounded at wp exactly as the mpf
    operators round it.  ``memo(key, compute, *args)`` returns
    ``compute(*args)``, from a cache where it holds ``key``: a caller
    reading many blocks at one context passes one, so Gamma(a+2) is
    computed once per top order and log x once per x.
    """
    if not (0 <= f < 1 and lo <= hi and (lo >= 0 or lo == -1 and f > 0)):
        raise DomainError(f"r_frac_ladder needs 0 <= f < 1 and f + {lo} > -1, got f={f}, hi={hi}")
    wp, bits = ctx.bits + GUARD_BITS, ctx.bits
    with ctx.work():
        xw = as_real(x, ctx)
        if not (mp.isfinite(xw) and xw > 0):
            raise DomainError(f"r_frac_ladder requires finite x > 0, got {xw}")
        f = mpf(f)
        a = f + hi
        top = (a + 2)._mpf_
        t = _make(mpf_div(_power(xw._mpf_, (a + 1)._mpf_, wp, memo),
                          memo(("gamma", top), mpf_gamma, top, wp, round_nearest),
                          wp, round_nearest))
        _, rem, unit, bc = _hyp1f1_pos(1, a + 2, xw, ctx, t)._mpf_
    # rem and term hold R_{f+j} and t_{f+j+1} in units of 2**unit, rem
    # with 2 wp bits at the top.  With f + j + 1 = (num + (j + 1 << s)) / 2**s
    # exactly and x = xm 2**xe, the step t_{f+j} = t_{f+j+1} (f+j+1)/x is
    # one integer product and one floor division
    shift = 2 * wp - bc
    unit -= shift
    rem <<= shift
    _, tm, te, _ = t._mpf_
    term = tm << te - unit if te >= unit else tm >> unit - te
    _, fm, fe, _ = f._mpf_
    s = max(0, -fe)
    num = fm << fe + s
    _, xm, xe, _ = xw._mpf_
    d = xe + s
    values = [_make(from_man_exp(rem, unit, bits, round_nearest))]
    for j in range(hi, lo, -1):
        factor = num + (j + 1 << s)
        term = term * factor // (xm << d) if d >= 0 else (term * factor << -d) // xm
        rem += term
        values.append(_make(from_man_exp(rem, unit, bits, round_nearest)))
    values.reverse()
    return tuple(values)


def neg_remainder_sign(n: int) -> int:
    """Sign of R_n(-x) for x > 0: the first omitted term dominates."""
    return -1 if n % 2 == 0 else 1


def _exp_neg(x) -> Real:
    return mp.exp(-x)


@declared(_N0, _X0)
def r_neg(n: int, x, ctx: PrecisionContext, *, memo=_memo_free) -> Real:
    """Magnitude |R_n(-x)| for x >= 0 (use :func:`neg_remainder_sign` for
    the sign).

    Termwise integration of the positive kernel (x-t)**n e**-t gives
    |R_n(-x)| = e**-x x**(n+1)/(n+1)! * 1F1(n+1; n+2; x), all terms
    positive, so no precision boost is needed.  e**-x is taken from
    ``memo`` (as for :func:`r_frac_ladder`) under the key ("exp-", raw x),
    so a caller reading many orders at one x computes it once.
    """
    prefactor = memo(("exp-", x._mpf_), _exp_neg, x) * x ** (n + 1) / mp.factorial(n + 1)
    return _hyp1f1_pos(n + 1, n + 2, x, ctx, prefactor)


@declared(_N0, Param("m", int, ge=0), _X0)
def r_obreshkov(n: int, m: int, x, ctx: PrecisionContext) -> Real:
    """Two-parameter remainder R_{n,m}(x), signed: its sign is (-1)**m.

    Summed through the termwise Beta-integral expansion of the kernel
    (x-t)**n t**m e**t (validated against quadrature in the test suite):
    (-1)**m n! m!/((n+m)! (n+m+1)!) x**(n+m+1) 1F1(m+1; n+m+2; x).
    R_{n,0} coincides with the plain tail.  The factorials are rounded to
    the working precision by ``mp.factorial``: at orders near 10^5 their
    exact values took seconds to multiply and to convert.
    """
    prefactor = ((-1) ** m * mp.factorial(n) * mp.factorial(m) * x ** (n + m + 1)
                 / (mp.factorial(n + m) * mp.factorial(n + m + 1)))
    return _hyp1f1_pos(m + 1, n + m + 2, x, ctx, prefactor)


@declared(_N1, _X)
def q_value(n: int, x, ctx: PrecisionContext) -> Real:
    """Mean-value exponent Q_n(x) in R_n(x) = x**(n+1)/(n+1)! e**(x Q_n(x)).

    Strictly inside (0, 1) for x > 0; x = 0 is refused (the limit
    1/(n+2) exists but is excluded).  Evaluated as log1p(x/(n+2) *
    1F1(1; n+3; x))/x, as log 1F1(1; n+2; x) rounds to log 1 for tiny x.
    """
    return mp.log1p(_hyp1f1_pos(1, n + 3, x, ctx, x / (n + 2))) / x


@declared(Param("nu", gt=-1), _X0)
def b_value(nu, x, ctx: PrecisionContext) -> Real:
    """Normalised remainder Gamma(nu+2) * R_nu(x) = x**(nu+1) 1F1(1; nu+2; x)
    for finite nu > -1 and x >= 0; log-convex in nu.  Summed as the
    series, without the two Gamma(nu+2) of the product, which cancel."""
    return _hyp1f1_pos(1, nu + 2, x, ctx, _real_pow(x, nu + 1))


@declared(Param("nu", gt=-1, finite=False), _X)
def eps_value(nu, x, ctx: PrecisionContext) -> Real:
    """Ratio defect R_nu/R_{nu+1} - (nu+2)/x, nu > -1; lies in (0, 1) and
    increases from 1/(nu+3) (x -> 0) to 1 (x -> oo).  Evaluated without
    the subtraction as 1F1(2; nu+4; x) / ((nu+3) 1F1(1; nu+3; x)), since
    1F1(1; b; x) - 1F1(1; b+1; x) = x/(b (b+1)) 1F1(2; b+2; x)."""
    return _hyp1f1_pos(2, nu + 4, x, ctx) / _hyp1f1_pos(1, nu + 3, x, ctx, nu + 3)


@declared(_N1, _X)
def g_ratio(n: int, x, ctx: PrecisionContext) -> Real:
    """Consecutive-order ratio R_{n-1}(x)/R_n(x); exceeds 1 for x > 0.

    As R_{n-1} = R_n + x**n/n!, it is 1 + (n+1)/(x 1F1(1; n+2; x)): one
    all-positive series, with no factorial and no power of x."""
    return 1 + (n + 1) / _hyp1f1_pos(1, n + 2, x, ctx, x)


def finite_diff(values, k: int) -> DiffTable:
    """Forward differences of order k over the order index.

    Applied iteratively, so the identity (delta^k) = delta(delta^(k-1))
    holds by construction; the iterated result equals the Pascal-sign
    formula sum_j (-1)**(k-j) C(k,j) a_{i+j}.
    """
    if isinstance(values, DiffTable):
        vals = list(values.values)
    else:
        vals = list(values)
    if k < 1:
        raise UsageError(f"finite_diff requires k >= 1, got {k}")
    if len(vals) < k + 1:
        raise UsageError(f"finite_diff of order {k} needs at least {k + 1} values, got {len(vals)}")
    for _ in range(k):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return DiffTable(tuple(vals), k)


def _float_log2(x) -> float:
    """log2 x for x > 0, a float or an mpf below the float range; else 0."""
    return float(mp.log(x, 2)) if x > 0 else 0.0


def _subtraction_boost(n: int, x) -> int:
    """Extra bits needed so that e**x minus a partial sum (or an
    alternating sum peaking at e**x scale) retains full relative accuracy
    of the much smaller remainder x**(n+1)/(n+1)! it cancels down to."""
    if x <= 0:
        return 64
    log2_rem = (n + 1) * _float_log2(x) - math.lgamma(n + 2) / math.log(2)
    log2_big = max(0.0, float(x) * 1.4427)
    return max(0, int(log2_big - log2_rem)) + 64


@declared(Param("spec", object), _X0)
def cross_check(spec: RemainderSpec, x, ctx: PrecisionContext) -> Real:
    """Evaluate every applicable route for the given remainder and return
    the maximum pairwise relative deviation (0 is perfect agreement;
    anything below ~100 * target_rel_err counts as healthy)."""
    if x == 0:
        return 0
    vals = []

    def run(name, fn):
        try:
            vals.append(fn())
        except NumericalError as exc:
            raise NumericalError(f"cross_check path '{name}' failed: {exc}",
                                 best_estimate=exc.best_estimate) from exc

    if spec.kind is RemainderKind.INTEGER_TAIL:
        n = spec.n
        fact = mpf(math.factorial(n))
        run("tail-series", lambda: r_tail(n, x, ctx))
        run("kernel-quadrature", lambda: quad_integral(
            lambda t: (x - t) ** n * mp.exp(t), 0, x, n, ctx).value / fact)

        def rep_shifted():
            inner = quad_integral(lambda t: t ** (n + 1) * mp.exp(-x * t), 0, 1, 0, ctx).value
            return x ** (n + 1) / mpf(math.factorial(n + 1)) * (1 + x * mp.exp(x) * inner)

        run("shifted-kernel", rep_shifted)

        def subtraction():
            boost = _subtraction_boost(n, float(x))
            with ctx.work(boost):
                partial = sum(x**k / mpf(math.factorial(k)) for k in range(n + 1))
                return +(mp.exp(x) - partial)

        run("subtraction", subtraction)

    elif spec.kind is RemainderKind.FRACTIONAL:
        a = as_real(spec.a, ctx)
        run("kummer-series", lambda: r_frac(a, x, ctx))
        run("kernel-quadrature", lambda: quad_integral(
            lambda t: (x - t) ** a * mp.exp(t), 0, x, a, ctx).value / mp.gamma(a + 1))

    elif spec.kind is RemainderKind.NEGATIVE_ARGUMENT:
        n = spec.n
        fact = mpf(math.factorial(n))
        run("positive-series", lambda: r_neg(n, x, ctx))
        run("kernel-quadrature", lambda: quad_integral(
            lambda t: (x - t) ** n * mp.exp(-t), 0, x, n, ctx).value / fact)

        def alternating():
            boost = _subtraction_boost(n, float(x))
            with ctx.work(boost):
                term = (-x) ** (n + 1) / mpf(math.factorial(n + 1))
                total = term
                for k in range(n + 2, n + 2 + _series_budget(x, ctx.bits)):
                    term *= -x / k
                    total += term
                    if abs(term) < ctx.target_rel_err * abs(total) and x < k + 1:
                        break
                return +abs(total)

        run("alternating-tail", alternating)

    elif spec.kind is RemainderKind.OBRESHKOV:
        n, m = spec.n, spec.m
        sign = -1 if m % 2 else 1
        run("beta-series", lambda: r_obreshkov(n, m, x, ctx))
        run("kernel-quadrature", lambda: sign * quad_integral(
            lambda t: (x - t) ** n * t ** m * mp.exp(t), 0, x, n, ctx).value
            / mpf(math.factorial(n + m)))

        def explicit():
            boost = _subtraction_boost(n + m, float(x))
            with ctx.work(boost):
                cnm = math.comb
                front = sum((-1) ** j * mpf(cnm(m, j)) / cnm(n + m, j) * x**j
                            / math.factorial(j) for j in range(m + 1))
                back = sum(mpf(cnm(n, j)) / cnm(n + m, j) * x**j / math.factorial(j)
                           for j in range(n + 1))
                return +(front * mp.exp(x) - back)

        run("explicit-form", explicit)

    scale = max(abs(v) for v in vals)
    return 0 if scale == 0 else (max(vals) - min(vals)) / scale

