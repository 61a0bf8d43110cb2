"""Catalog of sharp-constant inequality checks over the remainder family.

Every check evaluates both sides at extended precision and reports a
signed margin with the convention (favored side) - (other side), so
"pass" always means margin > err_bound.  Margins within err_bound are
INDETERMINATE rather than pass or fail; err_bound is the first-order
rounding estimate 100 * target_rel_err * max(|lhs|, |rhs|).

A sweep owns one :class:`Evaluator`, which computes every value its rows
share once and keeps it in a single memo until the sweep returns; the
module keeps no value between calls.  Every positive remainder a check
reads, and gamma(v, x), 1F1(1; b; x) and Q_n(x) through exact identities,
comes from *ladder blocks*: one series at the top of a block of
LADDER_SPAN consecutive orders and the all-positive downward recurrence
below it (:func:`.remainders.r_frac_ladder`), and from no other route: an
order of -1 or below raises DomainError.  A block is fixed by its
fractional order, floor(order) // LADDER_SPAN and x, so a value never
depends on the rows a sweep holds.  The memo keys on the raw ``_mpf_``
tuples of the arguments, so a lookup hashes tuples of ints, never mpf
objects.

The rows of one check at one point less x form a run (:class:`_Run`):
the row mapping, whose x a sweep sets per row, with its point, admitted
once when the run is built, and the point's sides.  The point is
canonicalized and validated against the declared bounds (a sweep skips a
point they refuse); each row's x is judged by :meth:`_Run.row`, and x <= 0,
as any int or real parameter of magnitude 2**bits or more, is a usage
error.  Below that magnitude an integer shift such as a + 1 or x + y at the
working precision, bits + GUARD_BITS, keeps the shift; beyond it a + 1 can
round to a, and a row would compare the wrong remainders.  A sweep passes a
run as the params of each of its rows' :func:`evaluate_check` calls, so the
rows share one params dict; a lone row, or a sharpness sample, gets a run
of its own (:meth:`Evaluator._admit`).

A check is evaluated in two stages: ``evaluate(point, ev)`` forms the
values that do not depend on x (orders such as nu + a*theta, constants,
exponents) and returns ``sides(x) -> (lhs, rhs)``, which makes only the
x-dependent reads and products, each in the order of the expressions it
stages, so every value is bit-identical.  A run's sides are built on its
first row, inside its :func:`evaluate_check` call, and kept by the run
(:attr:`_Run.sides`); an escalated evaluation builds its own inside that
evaluator's ``ctx.work()``.

A row that is not PASS at the working precision is evaluated again at
twice the bits, and at four times the bits if it still does not pass, by
evaluators that its sweep creates when first needed (Ziv's strategy); it
reports the verdict of the highest precision it reached, with that
evaluation's values rounded to ``ctx.bits``, so a FAIL stands only if it
holds at four times the bits (:func:`_row`).

Real-exponent powers of remainders go through :meth:`Evaluator._pow`,
which rounds as the mpf operator does, keeps each power in the memo and
takes log(base) from the memo that the ladder blocks fill with their log x
values.

The catalog is one table, ``CATALOG``, of :class:`CheckDef` records.  A
record declares each parameter once, with its kind (int, real or str) and
its bounds, where a bound may name another parameter as in k <= n; the
canonical form of a point, its validation and the default points all
follow from those declarations, and a grid axis or a ``sharpness`` flag
sets the parameter of its name.  Checks that state the same inequality
share one sides function and take their sharpness ratio from it; a record
that gives no ratio has lhs/rhs.

Sharp constants are produced in exact rational arithmetic whenever the
parameters are integers (or rationals, for the interpolation constant
raised to the denominator power) and through the gamma function otherwise.
The integer ones are products of as many fractions as the spread k (or
a), so their cost does not grow with the order n.

A sweep (:func:`default_sweep`, :func:`sweep`) enters the working
precision once and evaluates every row inside it: ``ctx.work()`` is a
no-op where that precision is already active, so :func:`evaluate_check`
switches mpmath's precision only when called on its own.  A row takes an
mpf parameter of at most the working precision's bits as it is, and its
result keeps an x of at most ``ctx.bits`` bits as it is; wider values are
rounded (and a wider parameter logged) as before, so a row's value is the
same inside a sweep and alone, at any ambient ``mp.prec``.

The negative-argument analogues NEG_ALZER / NEG_GEN_K / NEG_SANDWICH act
on the magnitude |R_n(-x)|.  For that family the product inequality with
the (n+1)/(n+2) constant is numerically false (the ratio decreases from
(n+1)/(n+2) toward n/(n+1) instead of increasing toward 1), so the
catalog carries the constants the Cauchy-Schwarz route actually proves
for the positive kernel (x-t)**n e**-t:

    |R_{n-k}| |R_{n+k}|  >  (n!)**2 / ((n-k)! (n+k)!) * |R_n|**2,

sharp as x -> oo, together with the two-sided enclosure
n/(n+1) < |R_{n-1}||R_{n+1}|/|R_n|**2 < (n+1)/(n+2).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from typing import Callable, Iterable, Mapping, Sequence

from mpmath import mp, mpf
from mpmath.libmp import (from_man_exp, fzero, mpf_abs, mpf_div, mpf_gt, mpf_mul, mpf_sub,
                          round_nearest)

from .errors import DomainError, NumericalError, PoleError, UsageError
from .numerics import _power, _real_pow, arctan_fracint, gamma_fn
from .pade import MAX_PADE_ORDER, eval_approximant, pade_exp
from .precision import (GUARD_BITS, KINDS, Param, PrecisionContext, Real, _fit, _make, as_real,
                        bounds, breach, convert, declared, log)
from .remainders import finite_diff, r_frac_ladder, r_neg


# ---------------------------------------------------------------------------
# exact sharp constants


def alzer_constant(n: int) -> Fraction:
    """(n+1)/(n+2): the sharp constant of the basic product inequality."""
    if n < 1:
        raise UsageError(f"alzer_constant requires n >= 1, got {n}")
    return Fraction(n + 1, n + 2)


def gen_k_constant(n: int, k: int) -> Fraction:
    """((n+1)!)**2 / ((n+k+1)! (n-k+1)!), sharp for the order-k spread:
    prod_{i=1..k} (n-k+1+i)/(n+1+i)."""
    if k < 0 or n - k < 0:
        raise UsageError(f"gen_k_constant requires 0 <= k <= n, got n={n}, k={k}")
    return Fraction(math.prod(range(n - k + 2, n + 2)), math.prod(range(n + 2, n + k + 2)))


def incgamma_constant(n: int, k: int) -> Fraction:
    """1 - (k/(n+1))**2, the incomplete-gamma reformulation constant."""
    if k < 0 or n - k < 0:
        raise UsageError(f"incgamma_constant requires 0 <= k <= n, got n={n}, k={k}")
    return Fraction((n + 1 + k) * (n + 1 - k), (n + 1) ** 2)


def chebyshev_constant_exact(p: int, a: int, b: int) -> Fraction:
    """Gamma(p+a+2)Gamma(p+b+2) / (Gamma(p+2)Gamma(p+a+b+2)) at integers:
    prod_{i=1..a} (p+1+i)/(p+b+1+i)."""
    if p < 0 or a < 0 or b < 0:
        raise UsageError("exact Chebyshev constant needs integer p, a, beta >= 0")
    return Fraction(math.prod(range(p + 2, p + a + 2)), math.prod(range(p + b + 2, p + a + b + 2)))


@declared(Param("p"), Param("a"), Param("b"))
def chebyshev_constant(p, a, b, ctx: PrecisionContext) -> Real:
    """Gamma(p+a+2)Gamma(p+b+2) / (Gamma(p+2)Gamma(p+a+b+2))."""
    return (gamma_fn(p + a + 2, ctx) * gamma_fn(p + b + 2, ctx)
            / (gamma_fn(p + 2, ctx) * gamma_fn(p + a + b + 2, ctx)))


@declared(Param("nu"), Param("a"), Param("theta"))
def interp_constant(nu, a, theta, ctx: PrecisionContext) -> Real:
    """Interpolation constant Gamma(nu+2)**(1-t) Gamma(nu+a+2)**t / Gamma(nu+at+2)."""
    return (_real_pow(gamma_fn(nu + 2, ctx), 1 - theta)
            * _real_pow(gamma_fn(nu + a + 2, ctx), theta) / gamma_fn(nu + a * theta + 2, ctx))


def interp_constant_power(nu: int, a: int, theta: Fraction) -> Fraction:
    """C(nu, a, theta) ** theta.denominator as an exact rational, defined
    whenever nu, a are integers and a*theta is an integer."""
    theta = Fraction(theta)
    if not 0 <= theta <= 1:
        raise UsageError(f"theta must lie in [0, 1], got {theta}")
    r, s = theta.numerator, theta.denominator
    if (a * r) % s:
        raise UsageError(f"a*theta must be an integer for the exact path, got a={a}, theta={theta}")
    shift = a * r // s
    return Fraction(
        math.factorial(nu + 1) ** (s - r) * math.factorial(nu + a + 1) ** r,
        math.factorial(nu + shift + 1) ** s,
    )


@declared(Param("nu"), Param("a"), Param("p"))
def cor25_constant(nu, a, p, ctx: PrecisionContext) -> Real:
    """Gamma(nu+2)**(p-1) Gamma(nu+a+2) / Gamma(nu+a/p+2)**p."""
    return (_real_pow(gamma_fn(nu + 2, ctx), p - 1) * gamma_fn(nu + a + 2, ctx)
            / _real_pow(gamma_fn(nu + a / p + 2, ctx), p))


def cor26_constant(n: int, k: int) -> Fraction:
    """(n+k+1)! / ((n+2)**(k-1) (n+2)!): prod_{i=3..k+1} (n+i)/(n+2), which
    is 1 at k = 0 and k = 1."""
    if n < 0 or k < 0:
        raise UsageError(f"cor26_constant requires n, k >= 0, got n={n}, k={k}")
    return Fraction(math.prod(range(n + 3, n + k + 2)), (n + 2) ** max(k - 1, 0))


@declared(Param("n"), Param("a"), Param("b"))
def cor27_constant(n, a, b, ctx: PrecisionContext) -> Real:
    """(Gamma(n+2)/Gamma(n+b+2))**a (Gamma(n+a+2)/Gamma(n+2))**b."""
    g_n = gamma_fn(n + 2, ctx)
    return (_real_pow(g_n / gamma_fn(n + b + 2, ctx), a)
            * _real_pow(gamma_fn(n + a + 2, ctx) / g_n, b))


def neg_gen_k_constant(n: int, k: int) -> Fraction:
    """(n!)**2 / ((n-k)! (n+k)!): the Cauchy-Schwarz constant for the
    magnitude of the negative-argument remainder, sharp as x -> oo;
    prod_{i=1..k} (n-k+i)/(n+i)."""
    if k < 0 or n - k < 0:
        raise UsageError(f"neg_gen_k_constant requires 0 <= k <= n, got n={n}, k={k}")
    return Fraction(math.prod(range(n - k + 1, n + 1)), math.prod(range(n + 1, n + k + 1)))


def constant_cross_identities(n_max: int = 12) -> list[str]:
    """Exact-rational consistency of the constant family; returns the list
    of violated identities (empty when everything agrees with zero error)."""
    bad = []
    for n in range(1, n_max + 1):
        if gen_k_constant(n, 1) != alzer_constant(n):
            bad.append(f"gen_k(n={n}, k=1) != alzer(n={n})")
        if chebyshev_constant_exact(n - 1, 1, 1) != alzer_constant(n):
            bad.append(f"chebyshev(p={n - 1}, 1, 1) != alzer(n={n})")
        for k in range(0, n + 1):
            c2 = interp_constant_power(n - k, 2 * k, Fraction(1, 2))
            if c2 * gen_k_constant(n, k) != 1:
                bad.append(f"interp(nu={n - k}, a={2 * k}, theta=1/2)**2 * C(n={n},k={k}) != 1")
            d = incgamma_constant(n, k)
            if d != 1 - Fraction(k, n + 1) ** 2:
                bad.append(f"incgamma constant mismatch at n={n}, k={k}")
    return bad


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class CheckId:
    """A catalog entry plus its non-x parameters."""

    id: str
    params: Mapping = field(default_factory=dict)


@dataclass(slots=True)
class CheckResult:
    check: str
    params: dict  # the point less x of the row's run, which its rows share
    x: Real | None
    lhs: Real
    rhs: Real
    margin: Real
    ratio: Real | None
    err_bound: Real
    status: str  # PASS | FAIL | INDET | ERROR

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


@dataclass(frozen=True)
class GridAxis:
    name: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise UsageError(f"grid axis '{self.name}' is empty")


@dataclass(frozen=True)
class ParamGrid:
    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        if not self.axes:
            raise UsageError("parameter grid is empty")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate grid axis in {names}")


def _ends(lo, hi, count: int, ctx: PrecisionContext) -> tuple:
    """The endpoints of a grid axis of ``count`` values at the working
    precision.  A count below 1 or an endpoint that is nan or infinite
    raises :class:`UsageError`; between finite endpoints every value is
    finite, as mpf exponents do not overflow."""
    if count < 1:
        raise UsageError(f"grid count must be >= 1, got {count}")
    ends = as_real(lo, ctx), as_real(hi, ctx)
    if not all(map(mp.isfinite, ends)):
        raise UsageError(f"grid endpoints must be finite, got {lo}, {hi}")
    return ends


def log_grid(lo, hi, count: int, ctx: PrecisionContext) -> tuple:
    """Logarithmically spaced values, deterministic at context precision."""
    with ctx.work():
        lo, hi = _ends(lo, hi, count, ctx)
        if not (lo > 0 and hi > 0):
            raise UsageError("log spacing needs positive endpoints")
        if count == 1:
            return (ctx.finalize(lo),)
        log_lo = mp.log(lo)
        step = (mp.log(hi) - log_lo) / (count - 1)
        return tuple(ctx.finalize(mp.exp(log_lo + i * step)) for i in range(count))


def lin_grid(lo, hi, count: int, ctx: PrecisionContext) -> tuple:
    """Evenly spaced values, deterministic at context precision."""
    with ctx.work():
        lo, hi = _ends(lo, hi, count, ctx)
        if count == 1:
            return (ctx.finalize(lo),)
        step = (hi - lo) / (count - 1)
        return tuple(ctx.finalize(lo + i * step) for i in range(count))


def parse_grid(spec: str, ctx: PrecisionContext) -> ParamGrid:
    """Grid syntax: semicolon-separated axes, each one of
    ``name=lo..hi`` (integer range), ``name=lin(lo,hi,count)`` or
    ``name=log(lo,hi,count)``; the sweep takes the cross product."""
    axes = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"malformed grid axis '{part}' (expected name=range)")
        name, rng = (s.strip() for s in part.split("=", 1))
        try:
            if ".." in rng:
                lo, hi = rng.split("..")
                lo, hi = int(lo), int(hi)
                if hi < lo:
                    raise UsageError(f"empty integer range '{rng}'")
                axes.append(GridAxis(name, tuple(range(lo, hi + 1))))
            elif rng.startswith("lin(") and rng.endswith(")"):
                lo, hi, count = rng[4:-1].split(",")
                axes.append(GridAxis(name, lin_grid(lo, hi, int(count), ctx)))
            elif rng.startswith("log(") and rng.endswith(")"):
                lo, hi, count = rng[4:-1].split(",")
                axes.append(GridAxis(name, log_grid(lo, hi, int(count), ctx)))
            else:
                raise UsageError(f"unrecognised grid range '{rng}'")
        except (ValueError, TypeError) as exc:
            raise UsageError(f"cannot parse grid axis '{part}': {exc}") from exc
    return ParamGrid(tuple(axes))


# ---------------------------------------------------------------------------
# the evaluator (sweeps revisit the same orders and abscissae; the checks
# compare neighbouring orders, hence the ladder blocks)

LADDER_SPAN = 8

CacheInfo = namedtuple("CacheInfo", "hits misses")

# memo lookups answered and values computed by every evaluator of the
# process: two counts, no values, for a run's cache-hit figure
_hits = _misses = 0


@declared(Param("fname", str), Param("order"), Param("x"))
def _closed_fracint(fname: str, order, x, ctx) -> Real:
    """I^order of ``arctan`` by the two-piece series of
    :func:`arctan_fracint`, or of ``clamp`` by the closed form
    I^order[min(t, 1)](x) = (x**(order+1) - (x-1)_+**(order+1)) / Gamma(order+2),
    whose difference cancels at most log2(x) bits."""
    if fname == "arctan":
        return arctan_fracint(order, x, ctx)
    gamma = gamma_fn(order + 2, ctx)
    with ctx.work(max(0, mp.mag(x))):
        kink = _real_pow(x - 1, order + 1) if x > 1 else 0
        return (_real_pow(x, order + 1) - kink) / gamma


class Evaluator:
    """The values the rows of one sweep share, at one context.

    Every value is computed once, on its first read, and kept in one memo
    that lives as long as the evaluator: a sweep (or a lone row) creates
    it and drops it when it returns.  Keys hold mpf arguments as their raw
    ``_mpf_`` tuples; the accessors take an mpf x, and an int or mpf order.
    """

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        self._memo = {}
        # final bits -> rows this evaluator's rows escalated to them
        self._escalated = Counter()

    @staticmethod
    def cache_info() -> CacheInfo:
        """Memo hits and misses summed over every evaluator so far."""
        return CacheInfo(_hits, _misses)

    @cached_property
    def x_grid(self) -> tuple:
        """The x grid of the checks' default points."""
        return log_grid(*DEFAULT_X_SPEC, self.ctx)

    @cached_property
    def thetas(self) -> tuple:
        """The interpolation weights of PROD_28's product."""
        return tuple(as_real(t, self.ctx) for t in DEFAULT_THETAS)

    @cached_property
    def _finer(self) -> Evaluator:
        """The evaluator at twice the bits that re-evaluates this one's rows
        that do not pass, created on the first such row."""
        return Evaluator(PrecisionContext(2 * self.ctx.bits))

    def _get(self, key, compute, *args):
        global _hits, _misses
        value = self._memo.get(key)
        if value is None:
            _misses += 1
            value = self._memo[key] = compute(*args)
        else:
            _hits += 1
        return value

    def _rung(self, a, shift: int, x) -> Real:
        """R_{a+shift}(x) from its ladder block, for a finite x > 0 and an
        order above -1 (else :class:`DomainError`).

        a (an int or a finite mpf) is split exactly into floor(a) + f with
        0 <= f < 1, so the order a + shift is never rounded."""
        if isinstance(a, int):
            f_raw, j = fzero, a
        else:
            sign, man, exp, _ = a._mpf_
            if exp >= 0:
                f_raw, j = fzero, int(a)
            else:
                signed = -man if sign else man
                j = signed >> -exp
                f_raw = from_man_exp(signed - (j << -exp), exp)
        j += shift
        if j < (0 if f_raw == fzero else -1):
            raise DomainError(f"no ladder holds the order {a + shift}, which is not above -1")
        block = (j + 1) // LADDER_SPAN
        lo, values = self._get(("ladder", f_raw, block, x._mpf_), self._ladder, f_raw, block, x)
        return values[j - lo]

    def _ladder(self, f_raw, block: int, x) -> tuple[int, tuple]:
        """The lowest offset j and the values R_{f+j}(x) of one block; the
        block takes Gamma and log x from the memo."""
        lo = max(LADDER_SPAN * block - 1, 0 if f_raw == fzero else -1)
        hi = LADDER_SPAN * block + LADDER_SPAN - 2
        return lo, r_frac_ladder(_make(f_raw), lo, hi, x, self.ctx, memo=self._get)

    def _derived(self, a, shift: int, x, identity) -> Real:
        """identity(R_{a+shift}(x)) at the working precision."""
        return self.ctx.finalize(self._at_work(identity, self._rung(a, shift, x)))

    def _rt(self, n: int, x) -> Real:
        return self._get(("rt", n, x._mpf_), self._rung, n, 0, x)

    def _rf(self, a, x) -> Real:
        return self._get(("rf", a._mpf_ if type(a) is mpf else a, x._mpf_), self._rung, a, 0, x)

    def _rn(self, n: int, x) -> Real:
        # the recurrence of |R_n(-x)| across orders cancels: one series
        # each, with e**-x from the memo
        return self._get(("rn", n, x._mpf_), self._neg, n, x)

    def _neg(self, n: int, x) -> Real:
        return r_neg(n, x, self.ctx, memo=self._get)

    def _gi(self, v, x) -> Real:
        """gamma(v, x) = Gamma(v) e**-x R_{v-1}(x)."""
        return self._get(("gi", v._mpf_, x._mpf_), self._derived, v, -1, x,
                         lambda rem: mp.gamma(v) * self._exp_neg(x) * rem)

    def _kum(self, b, x) -> Real:
        """1F1(1; b; x) = Gamma(b) R_{b-2}(x) / x**(b-1) for b > 1."""
        return self._get(("kum", b._mpf_, x._mpf_), self._derived, b, -2, x,
                         lambda rem: mp.gamma(b) * rem / _real_pow(x, b - 1))

    def _qv(self, n: int, x) -> Real:
        """Q_n(x) = log1p((n+1)! R_{n+1}(x) / x**(n+1)) / x, n >= 1."""
        return self._get(("qv", n, x._mpf_), self._derived, n, 1, x,
                         lambda rem: mp.log1p(math.factorial(n + 1) * rem / x ** (n + 1)) / x)

    def _fracint(self, fname: str, order, x) -> Real:
        """Fractional integral I^order of a bundled test function at x,
        order > 0.  No route uses quadrature: ``exp`` is the fractional
        remainder R_{order-1}, the others :func:`_closed_fracint`."""
        if fname == "exp":
            return self._rf(order - 1, x)
        return self._get((fname, order._mpf_, x._mpf_), _closed_fracint, fname, order, x, self.ctx)

    def _exp(self, x) -> Real:
        """e**x at the working precision, unrounded, once per x."""
        return self._get(("exp", x._mpf_), self._at_work, lambda: mp.exp(x))

    def _exp_neg(self, x) -> Real:
        """e**-x at the working precision, unrounded, once per x."""
        return self._get(("exp-", x._mpf_), self._at_work, lambda: mp.exp(-x))

    def _at_work(self, compute, *args):
        with self.ctx.work():
            return compute(*args)

    def _pade_row(self, n: int):
        return self._get(("pade", n), pade_exp, n, 1)

    def _constant(self, constant, *params) -> Real:
        """A Gamma-based sharp constant, once per parameter point.  The
        parameters are converted with :func:`as_real` before the lookup, so
        equal values of different Python types share one entry."""
        params = [as_real(v, self.ctx) for v in params]
        return self._get((constant, *[v._mpf_ for v in params]), constant, *params, self.ctx)

    def _exact(self, constant, *params) -> Real:
        """An exact rational constant at the working precision, converted
        once per parameter point."""
        return self._get((constant, *params), lambda: as_real(constant(*params), self.ctx))

    def _pow(self, base, e) -> Real:
        """base**e for a positive mpf base and an mpf e, rounded as the mpf
        operator rounds it at the working precision, once per (base, e); a
        general e takes log(base) from the memo, where the ladder blocks
        keep log x.  The powers share the memo but not its hit and miss
        counts, which stay those of the values the rows share."""
        key = ("pow", base._mpf_, e._mpf_)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = _make(
                _power(key[1], key[2], self.ctx.bits + GUARD_BITS, self._get))
        return value

    def _admit(self, check: CheckId | str, params: Mapping | None, **at) -> tuple[_Run, dict]:
        """The run of ``check``, a :class:`CheckId` or a name with ``params``,
        and its row at the x of ``params``, with ``at`` set over them.  A run
        of this evaluator passed under its own check's name, without ``at``,
        has only its x judged; anything else gets a run of its own."""
        run = params
        if type(run) is not _Run or run.ev is not self or run.cdef.name != check or at:
            if isinstance(check, CheckId):
                check, params = check.id, check.params
            run = _Run(_check_def(check), {**(params or {}), **at}, self)
        return run, run.row()


# ---------------------------------------------------------------------------
# the catalog


class _Inadmissible(UsageError):
    """A parameter point outside a check's admissible region: a direct
    evaluation reports it as a usage error, a sweep skips the point."""


@dataclass(frozen=True, eq=False)
class CheckDef:
    """One inequality of the catalog.

    ``evaluate(point, ev)`` is the check's point stage: at a canonical point
    less x, inside ``ev.ctx.work()``, it forms the values that do not depend
    on x and returns ``sides(x) -> (lhs, rhs)``; a sweep runs it once per
    run (module docstring).  ``params`` declares each parameter once; x is
    appended where a check does not declare it.  ``defaults`` maps a
    parameter, or a tuple of parameters taking values together, to its
    default values (decimal strings for reals); :meth:`default_points`
    crosses them in order.  ``validate(p)`` judges a point less x: it raises
    :class:`_Inadmissible` where p breaks a declared bound, and a bound that
    names x is judged per row instead (:meth:`_Run.row`); ``sharp_ratio(p,
    ev)``, at a point p with its x, defaults to lhs/rhs; ``sharp_limits``
    maps a direction to the documented limit of that ratio, ``(p, ev) ->
    value``.
    """

    name: str
    params: tuple[Param, ...]
    defaults: Mapping
    evaluate: Callable
    sharp_ratio: Callable | None = None
    sharp_limits: Mapping[str, Callable] = field(default_factory=dict)
    validate: Callable | None = None

    def __post_init__(self):
        if "x" not in (spec.name for spec in self.params):
            object.__setattr__(self, "params", self.params + (Param("x", mpf),))
        if self.sharp_ratio is None:
            object.__setattr__(self, "sharp_ratio", _lhs_over_rhs(self.evaluate))
        if self.validate is None:
            object.__setattr__(self, "validate", self._refuse)

    @cached_property
    def _bounds(self) -> tuple:
        return bounds(self.params)

    @cached_property
    def _point_params(self) -> tuple:
        """The declared parameters less x."""
        return tuple(spec for spec in self.params if spec.name != "x")

    @cached_property
    def _x_param(self) -> Param:
        return next(spec for spec in self.params if spec.name == "x")

    @cached_property
    def _x_bounds(self) -> tuple:
        """The declared bounds that name x, on either side."""
        return tuple(b for b in self._bounds if b.name == "x" or b.bound == "x")

    def _refuse(self, p: Mapping) -> None:
        fault = breach(self._bounds, p)  # a parameter p does not hold is not judged
        if fault is not None:
            raise _Inadmissible(f"check {self.name} needs {fault}")

    def default_points(self, ev) -> list[dict]:
        """The product of the default axes in order, less the points a bound
        refuses, crossed with x from the default x grid; a check of x and y
        that lists no pairs of them takes every pair of KIM_XY_VALUES."""
        return [dict(point, x=x) for point, x in self._default_rows(ev)]

    def _default_rows(self, ev) -> list[tuple[dict, Real]]:
        """The default points as (point less x, x) pairs, in order; the rows
        of one point less x share its dict."""
        kinds = {spec.name: KINDS[spec.kind][1] for spec in self.params}
        axes = dict(self.defaults)
        if "y" in kinds and ("x", "y") not in axes:
            axes["x", "y"] = tuple(product(KIM_XY_VALUES, repeat=2))
        points = [{}]
        for key, values in axes.items():
            names, rows = (key, values) if isinstance(key, tuple) else ((key,), zip(values))
            column = [{name: kinds[name](v, ev.ctx) for name, v in zip(names, row)}
                      for row in rows]
            points = [{**pt, **vals} for pt in points for vals in column]
        points = [pt for pt in points if breach(self._bounds, pt) is None]
        if "y" in kinds:  # x is a default axis: equal points less x share a dict
            rows, shared = [(pt, pt.pop("x")) for pt in points], {}
            return [(shared.setdefault(_raw(pt), pt), x) for pt, x in rows]
        return [(pt, x) for pt in points for x in ev.x_grid]


def _tighter(low, high):
    """The (lhs, rhs) pair of a two-sided bound with the smaller margin."""
    return low if low[0] - low[1] <= high[0] - high[1] else high


def _lhs_over_rhs(evaluate):
    """Sharpness ratio lhs/rhs from one evaluation of the check's sides."""
    def ratio(p, ev):
        lhs, rhs = evaluate(p, ev)(p["x"])
        return lhs / rhs
    return ratio


DEFAULT_X_SPEC = ("1e-3", "30", 25)
ORDERS = range(1, 9)
FRACTIONAL_ORDERS = ("-0.5", "0.5", "1.5", "3.7")
DEFAULT_THETAS = ("0.25", "0.5", "0.75")
KIM_XY_VALUES = ("0.5", "1", "2")


# -- the Turan-type products, on the tail (_rt) or on |R_n(-x)| (_rn) --------


def _spread(rem: str, p, ev):
    """x -> (R_{n-k} R_{n+k}, R_n**2) from the remainder accessor ``rem``,
    with k = 1 where a check has no k."""
    n, k, r = p["n"], p.get("k", 1), getattr(ev, rem)
    lo, hi = n - k, n + k
    return lambda x: (r(lo, x) * r(hi, x), r(n, x) ** 2)


def _spread_ratio(rem: str):
    def ratio(p, ev):
        prod, square = _spread(rem, p, ev)(p["x"])
        return prod / square
    return ratio


def _turan(rem: str, constant) -> dict:
    """R_{n-k} R_{n+k} against constant(n, k) R_n**2; its sharpness ratio
    is R_{n-k} R_{n+k} / R_n**2."""
    def evaluate(p, ev):
        spread, c = _spread(rem, p, ev), ev._exact(constant, p["n"], p.get("k", 1))

        def sides(x):
            prod, square = spread(x)
            return prod, c * square
        return sides
    return {"evaluate": evaluate, "sharp_ratio": _spread_ratio(rem)}


def _sandwich(rem: str, low, high=None) -> dict:
    """low(n, 1) R_n**2 < R_{n-1} R_{n+1} < high(n, 1) R_n**2, high = 1 when
    not given, reported on the tighter side."""
    def evaluate(p, ev):
        spread, n = _spread(rem, p, ev), p["n"]
        c_low = ev._exact(low, n, 1)
        c_high = None if high is None else ev._exact(high, n, 1)

        def sides(x):
            prod, square = spread(x)
            upper = square if c_high is None else c_high * square
            return _tighter((prod, c_low * square), (upper, prod))
        return sides
    return {"evaluate": evaluate, "sharp_ratio": _spread_ratio(rem)}


def _limit(constant):
    """The documented limit constant(n, k), k = 1 where a check has no k."""
    return lambda p, ev: constant(p["n"], p.get("k", 1))


def _one(p, ev):
    return 1


def _ev_gautschi(p, ev):
    n, k, zero = p["n"], p["k"], mpf(0)
    orders, sign = range(n, n + k + 1), (-1) ** k

    def sides(x):
        qs = [ev._qv(m, x) for m in orders]
        return (qs[0] if k == 0 else finite_diff(qs, k).values[0] * sign), zero
    return sides


def _ev_kummer_form(p, ev):
    n, k, kum = p["n"], p["k"], ev._kum
    lo, hi, mid = mpf(n + 2 - k), mpf(n + 2 + k), mpf(n + 2)
    return lambda x: (kum(lo, x) * kum(hi, x), kum(mid, x) ** 2)


def _ev_incgamma(p, ev):
    n, k, gi = p["n"], p["k"], ev._gi
    c, hi, lo, mid = ev._exact(incgamma_constant, n, k), mpf(n + k + 1), mpf(n + 1 - k), mpf(n + 1)
    return lambda x: (c * gi(hi, x) * gi(lo, x), gi(mid, x) ** 2)


def _ratio_incgamma(p, ev):
    n, k, x = p["n"], p["k"], p["x"]
    return ev._gi(mpf(n + 1), x) ** 2 / (ev._gi(mpf(n + k + 1), x) * ev._gi(mpf(n + 1 - k), x))


def _ev_fracint_form(p, ev):
    n, k, rf = p["n"], p["k"], ev._rf
    hi, lo, mid, c = mpf(n + k), mpf(n - k), mpf(n), ev._exact(gen_k_constant, n, k)
    return lambda x: (rf(hi, x) * rf(lo, x) / c, rf(mid, x) ** 2)


# -- Chebyshev / interpolation family ---------------------------------------


def _cheb_constant(p, ev):
    pp, a, b = p["p"], p["a"], p["beta"]
    if all(map(mp.isint, (pp, a, b))) and pp >= 0:
        return ev._exact(chebyshev_constant_exact, int(pp), int(a), int(b))
    return ev._constant(chebyshev_constant, pp, a, b)


def _ev_chebyshev(p, ev):
    pp, a, b, rf = p["p"], p["a"], p["beta"], ev._rf
    pab, pa, pb, c = pp + a + b, pp + a, pp + b, _cheb_constant(p, ev)
    return lambda x: (rf(pp, x) * rf(pab, x), c * rf(pa, x) * rf(pb, x))


def _ratio_chebyshev(p, ev):
    pp, a, b, x = p["p"], p["a"], p["beta"], p["x"]
    return ev._rf(pp, x) * ev._rf(pp + a + b, x) / (ev._rf(pp + a, x) * ev._rf(pp + b, x))


def _interp_constant(p, ev):
    return ev._constant(interp_constant, p["nu"], p["a"], p["theta"])


def _ev_interp(p, ev):
    nu, a, th, rf, pw = p["nu"], p["a"], p["theta"], ev._rf, ev._pow
    c, e, na, nat = _interp_constant(p, ev), 1 - th, nu + a, nu + a * th
    return lambda x: (c * pw(rf(nu, x), e) * pw(rf(na, x), th), rf(nat, x))


def _ratio_interp(p, ev):
    nu, a, th, x = p["nu"], p["a"], p["theta"], p["x"]
    return ev._rf(nu + a * th, x) / (ev._pow(ev._rf(nu, x), 1 - th)
                                     * ev._pow(ev._rf(nu + a, x), th))


def _ev_cor25(p, ev):
    nu, a, e, rf, pw = p["nu"], p["a"], p["p"], ev._rf, ev._pow
    c, na, e1, nae = ev._constant(cor25_constant, nu, a, e), nu + a, e - 1, nu + a / e
    return lambda x: (c * rf(na, x) * pw(rf(nu, x), e1), pw(rf(nae, x), e))


def _ev_cor26(p, ev):
    n, k, rt = p["n"], p["k"], ev._rt
    c, nk, n1, k1 = ev._exact(cor26_constant, n, k), n + k, n + 1, k - 1
    return lambda x: (c * rt(nk, x) * rt(n, x) ** k1, rt(n1, x) ** k)


def _ratio_cor26(p, ev):
    n, k, x = p["n"], p["k"], p["x"]
    return ev._rt(n + 1, x) ** k / (ev._rt(n + k, x) * ev._rt(n, x) ** (k - 1))


def _ev_cor27(p, ev):
    n, a, b, rf, pw = p["n"], p["a"], p["beta"], ev._rf, ev._pow
    c, m, ab, na, nb = ev._constant(cor27_constant, n, a, b), mpf(n), a - b, n + a, n + b
    return lambda x: (c * pw(rf(m, x), ab) * pw(rf(na, x), b), pw(rf(nb, x), a))


def _ev_prod28(p, ev):
    nu, a, thetas, rf, pw = p["nu"], p["a"], ev.thetas, ev._rf, ev._pow
    beta = sum(thetas)
    c = mpf(1)
    for t in thetas:
        c *= ev._constant(interp_constant, nu, a, t)
    orders, e, na = [nu + a * t for t in thetas], len(thetas) - beta, nu + a

    def sides(x):
        rhs = mpf(1)
        for order in orders:
            rhs *= rf(order, x)
        return c * pw(rf(nu, x), e) * pw(rf(na, x), beta), rhs
    return sides


# -- complete-monotonicity consequences -------------------------------------


def _ev_refined31(p, ev):
    a, rf = p["a"], ev._rf
    a1, am1, a2 = a + 1, a - 1, a + 2
    c = a1 / a2

    def sides(x):
        ra, ra1 = rf(a, x), rf(a1, x)
        return ra1 * rf(am1, x) - c * ra**2, ra**2 / a2 - a2 / x**2 * ra1**2
    return sides


def _ev_ratio32(p, ev):
    a, a1, a2 = p["a"], p["a"] + 1, p["a"] + 2
    return lambda x: (ev._rf(a, x), a2 / x * ev._rf(a1, x))


def _ev_fracmono(p, ev):
    a, f, a1 = p["a"], p["f"], p["a"] + 1
    return lambda x: (ev._fracint(f, a, x), a1 / x * ev._fracint(f, a1, x))


def _ev_two_sided35(p, ev):
    nu, rf = p["nu"], ev._rf
    nm1, nu1 = nu - 1, nu + 1

    def sides(x):
        low, ratio, r = rf(nm1, x), nu1 / x, rf(nu, x)
        return _tighter((low, ratio * r), ((1 + ratio) * r, low))
    return sides


def _ev_strength36(p, ev):
    nu, rf = p["nu"], ev._rf
    nm2, nm1, nu1, nu2 = nu - 2, nu - 1, nu + 1, nu + 2
    return lambda x: (rf(nm2, x) - nu / x * rf(nm1, x),
                      nu2 / x * (rf(nm1, x) - nu1 / x * rf(nu, x)))


def _ev_kim37(p, ev):
    nu, y, rf = p["nu"], p["y"], ev._rf
    c, inv_y, nu1, ry = ev._constant(gamma_fn, nu + 2), 1 / y, nu + 1, rf(nu, y)
    return lambda x: (rf(nu, x + y), c * _real_pow(1 / x + inv_y, nu1) * rf(nu, x) * ry)


def _ev_kim38(p, ev):
    nu, pw, y, rf = p["nu"], p["p"], p["y"], ev._rf
    qw = pw / (pw - 1)
    inv_p, inv_q, py, nu1 = 1 / pw, 1 / qw, pw * y, nu + 1

    def sides(x):
        xp = x + py
        bracket = (x + y) / (_real_pow(xp, inv_p) * _real_pow(x, inv_q))
        return (_real_pow(bracket, nu1) * _real_pow(rf(nu, xp), inv_p)
                * _real_pow(rf(nu, x), inv_q), rf(nu, x + y))
    return sides


def _ev_kim39(p, ev):
    nu, nu1, rf = p["nu"], p["nu"] + 1, ev._rf
    c = ev._constant(gamma_fn, nu + 2) * _real_pow(mpf(2), nu1)
    return lambda x: (rf(nu, 2 * x), c / _real_pow(x, nu1) * rf(nu, x) ** 2)


def _ev_kim40(p, ev):
    # Scaling-consistent version of the doubling bound: the square of the
    # sum-point value against the bracket to the power nu+1.
    nu, y, rf = p["nu"], p["y"], ev._rf
    nu1, r2y = nu + 1, rf(nu, 2 * y)
    return lambda x: (_real_pow((x + y) ** 2 / (4 * x * y), nu1) * rf(nu, 2 * x) * r2y,
                      rf(nu, x + y) ** 2)


# -- appendix family ----------------------------------------------------------


def _ev_reverse43(p, ev):
    n, lo, hi, rt = p["n"], p["n"] - 1, p["n"] + 1, ev._rt
    return lambda x: (rt(n, x) ** 2, rt(lo, x) * rt(hi, x))


def _ev_linear44(p, ev):
    n, rt = p["n"], ev._rt
    n1, factorial = n + 1, mpf(math.factorial(n))
    return lambda x: (x ** n1 / factorial, (n1 - x) * rt(n, x))


def _ev_pade_row45(p, ev):
    n1, row = p["n"] + 1, ev._pade_row(p["n"])

    def sides(x):
        val, ex = eval_approximant(row, x, ev.ctx), ev._exp(x)
        return (val, ex) if x < n1 else (ex, val)
    return sides


def _ev_prob15(p, ev):
    # against the predicted enclosure ((2n+1)/(n+1), (2n+3)/(n+1)) of problem 15
    n, rt = p["n"], ev._rt
    n2, n1, n3 = n - 2, n - 1, n + 1
    low, high = ev._exact(Fraction, 2 * n + 1, n + 1), ev._exact(Fraction, 2 * n + 3, n + 1)

    def sides(x):
        f = rt(n2, x) * rt(n, x) / rt(n1, x) ** 2 + rt(n, x) ** 2 / (rt(n1, x) * rt(n3, x))
        return _tighter((f, low), (high, f))
    return sides


_N0, _N1 = Param("n", int, ge=0), Param("n", int, ge=1)
_NK = (_N0, Param("k", int, ge=0, le="n"))
_NK_DEFAULTS = {"n": ORDERS, "k": ORDERS}
_NU, _X, _Y = Param("nu", mpf, gt=-1), Param("x", mpf, gt=0), Param("y", mpf, gt=0)

CATALOG: dict[str, CheckDef] = {cdef.name: cdef for cdef in (
    CheckDef("ALZER", (_N1,), {"n": ORDERS}, **_turan("_rt", gen_k_constant),
             sharp_limits={"zero": _limit(gen_k_constant), "inf": _one}),
    CheckDef("GAUTSCHI_K", (_N1, Param("k", int, ge=0)), {"n": ORDERS, "k": (0, 1, 2)},
             _ev_gautschi),
    CheckDef("GEN_K", _NK, _NK_DEFAULTS, **_turan("_rt", gen_k_constant),
             sharp_limits={"zero": _limit(gen_k_constant), "inf": _one}),
    CheckDef("KUMMER_FORM", _NK, _NK_DEFAULTS, _ev_kummer_form, sharp_limits={"zero": _one}),
    CheckDef("INCGAMMA_FORM", _NK, _NK_DEFAULTS, _ev_incgamma, _ratio_incgamma,
             {"zero": _limit(incgamma_constant)}),
    CheckDef("FRACINT_FORM", _NK, _NK_DEFAULTS, _ev_fracint_form),
    CheckDef("CHEBYSHEV_GEN",
             (Param("p", mpf, gt=-1), Param("a", mpf, ge=0), Param("beta", mpf, ge=0)),
             {"p": FRACTIONAL_ORDERS, ("a", "beta"): (("1", "2"), ("0.5", "1.5"))},
             _ev_chebyshev, _ratio_chebyshev, {"zero": _cheb_constant}),
    CheckDef("INTERP", (_NU, Param("a", mpf, ge=0), Param("theta", mpf, ge=0, le=1)),
             {"nu": FRACTIONAL_ORDERS, "a": ("1", "2.5"), "theta": DEFAULT_THETAS},
             _ev_interp, _ratio_interp, {"zero": _interp_constant}),
    CheckDef("COR_25", (_NU, Param("a", mpf, gt=0), Param("p", mpf, ge=1)),
             {"nu": FRACTIONAL_ORDERS, "a": ("1", "2.5"), "p": ("1.5", "2", "3")}, _ev_cor25),
    CheckDef("COR_26", (_N0, Param("k", int, ge=0)), {"n": ORDERS, "k": (2, 3, 4)},
             _ev_cor26, _ratio_cor26, {"zero": _limit(cor26_constant)}),
    CheckDef("COR_27", (_N0, Param("a", mpf, ge=0), Param("beta", mpf, ge=0, le="a")),
             {"n": ORDERS, ("a", "beta"): (("2", "1"), ("3.7", "1.5"), ("1.5", "0.5"))},
             _ev_cor27),
    CheckDef("PROD_28", (_NU, Param("a", mpf, ge=0)),
             {"nu": FRACTIONAL_ORDERS, "a": ("1", "2")}, _ev_prod28),
    CheckDef("REFINED_31", (Param("a", mpf, gt=0),), {"a": FRACTIONAL_ORDERS}, _ev_refined31),
    CheckDef("RATIO_32", (Param("a", mpf, gt=-1),), {"a": FRACTIONAL_ORDERS}, _ev_ratio32),
    CheckDef("FRACMONO_34",
             (Param("a", mpf, gt=0), Param("f", str, among=("exp", "arctan", "clamp"))),
             {("a", "f"): (("0.5", "exp"), ("1.5", "exp"), ("3.7", "exp"), ("0.5", "arctan"),
                           ("0.5", "clamp"), ("1.5", "arctan"), ("1.5", "clamp"))},
             _ev_fracmono),
    CheckDef("TWO_SIDED_35", (Param("nu", mpf, gt=0),),
             {"nu": ("0.5", "1.5", "3.7", "1", "2", "4", "8")}, _ev_two_sided35),
    CheckDef("STRENGTH_36", (Param("nu", mpf, gt=1),), {"nu": ("1.5", "3.7", "2", "3", "5")},
             _ev_strength36),
    CheckDef("KIM_37", (_NU, _X, _Y), {"nu": FRACTIONAL_ORDERS}, _ev_kim37),
    CheckDef("KIM_38", (_NU, Param("p", mpf, gt=1), _X, _Y),
             {"nu": FRACTIONAL_ORDERS, "p": ("2", "3")}, _ev_kim38),
    CheckDef("KIM_39", (_NU,), {"nu": FRACTIONAL_ORDERS}, _ev_kim39,
             sharp_limits={"zero": _one}),
    CheckDef("KIM_40", (_NU, _X, _Y),
             {"nu": FRACTIONAL_ORDERS, ("x", "y"): tuple(permutations(KIM_XY_VALUES, 2))},
             _ev_kim40),
    CheckDef("NEG_ALZER", (_N1,), {"n": ORDERS}, **_turan("_rn", neg_gen_k_constant),
             sharp_limits={"inf": _limit(neg_gen_k_constant), "zero": _limit(gen_k_constant)}),
    CheckDef("NEG_GEN_K", _NK, _NK_DEFAULTS, **_turan("_rn", neg_gen_k_constant),
             sharp_limits={"inf": _limit(neg_gen_k_constant)}),
    CheckDef("NEG_SANDWICH", (_N1,), {"n": ORDERS},
             **_sandwich("_rn", neg_gen_k_constant, gen_k_constant)),
    CheckDef("REVERSE_43", (_N1,), {"n": ORDERS}, _ev_reverse43, sharp_limits={"inf": _one}),
    CheckDef("LINEAR_44", (_N0,), {"n": ORDERS}, _ev_linear44),
    CheckDef("PADE_ROW_45", (Param("n", int, ge=0, le=MAX_PADE_ORDER - 1),), {"n": ORDERS},
             _ev_pade_row45),
    CheckDef("SANDWICH_49", (_N1,), {"n": ORDERS}, **_sandwich("_rt", gen_k_constant),
             sharp_limits={"zero": _limit(gen_k_constant), "inf": _one}),
    CheckDef("PROB15_BOUNDS", (Param("n", int, ge=2),), {"n": ORDERS}, _ev_prob15),
)}

CHECK_IDS = tuple(CATALOG)


# ---------------------------------------------------------------------------
# evaluation, sweeping, sharpness


def _canonical_params(cdef: CheckDef, params: Mapping, ctx, specs=None) -> dict:
    """The declared parameters of a point, or those of ``specs``, each
    converted by its kind (:func:`_read`)."""
    return {spec.name: _read(cdef, spec, params, ctx)
            for spec in (cdef.params if specs is None else specs)}


def _read(cdef: CheckDef, spec: Param, params: Mapping, ctx):
    """The parameter ``spec`` of a point converted by its kind; a value its
    kind cannot read (an order that is not integral, say) is inadmissible."""
    if spec.name not in params:
        raise UsageError(f"check {cdef.name} needs parameter '{spec.name}'")
    try:
        return convert(spec, params[spec.name], ctx)
    except ValueError as exc:
        raise _Inadmissible(f"check {cdef.name} needs {exc}") from exc


def _check_def(name: str) -> CheckDef:
    """The catalog record of ``name``; an unknown id is a usage error."""
    cdef = CATALOG.get(name)
    if cdef is None:
        raise UsageError(f"unknown check id '{name}' (known: {', '.join(CHECK_IDS)})")
    return cdef


class _Run(dict):
    """The rows of ``cdef`` at one point less x: the row mapping, whose x a
    sweep sets per row, with the rows' evaluator ``ev``, the canonical
    ``point`` less x and its magnitude ``fault``, admitted when the run is
    built, and the point's ``sides``.  Nothing refers back to a run."""

    def __init__(self, cdef: CheckDef, params: Mapping, ev: Evaluator):
        """Admit the point of ``params`` less x: canonical, validated (a bound
        that does not name x) and the usage error of its first parameter of
        magnitude 2**bits or more, which a row raises once its x is judged."""
        super().__init__(params)
        bits = ev.ctx.bits
        self.cdef, self.ev, self.fault = cdef, ev, None
        self.point = _canonical_params(cdef, params, ev.ctx, cdef._point_params)
        cdef.validate(self.point)
        for name, v in self.point.items():  # |v| < 2**top: an int's length, an mpf's exp + bc
            top = v.bit_length() if type(v) is int else sum(v._mpf_[2:]) if type(v) is mpf else 0
            if top > bits:
                self.fault = f"check {cdef.name} needs |{name}| < 2**{bits}, got {name} = {v}"
                break

    @cached_property
    def sides(self) -> Callable:
        """``cdef.evaluate(point, ev)``: built on the run's first row, inside
        its :func:`evaluate_check` call, and kept for the others.  A point
        stage that raises keeps nothing."""
        return self.cdef.evaluate(self.point, self.ev)

    def row(self) -> dict:
        """The admitted point at the run's x: the bounds that name x, then
        x > 0, the point's magnitude fault and |x| < 2**bits."""
        cdef, bits = self.cdef, self.ev.ctx.bits
        x = _read(cdef, cdef._x_param, self, self.ev.ctx)
        p = {**self.point, "x": x}
        if cdef._x_bounds:
            breached = breach(cdef._x_bounds, p)
            if breached is not None:
                raise _Inadmissible(f"check {cdef.name} needs {breached}")
        sign, man, exp, bc = x._mpf_  # a finite real: zero is the one with man 0
        if sign or not man:
            raise UsageError(f"check {cdef.name} requires x > 0, got {x}")
        if self.fault is not None:
            raise UsageError(self.fault)
        if exp + bc > bits:
            raise UsageError(f"check {cdef.name} needs |x| < 2**{bits}, got x = {x}")
        return p


def evaluate_check(check: CheckId | str, ctx: PrecisionContext, params: Mapping | None = None,
                   ev: Evaluator | None = None) -> CheckResult:
    """Evaluate one catalog inequality at one parameter point.

    The point is admitted by the evaluator (:meth:`Evaluator._admit`); a
    point outside the check's admissible region raises a
    :class:`UsageError`.  ``ev`` is the evaluator of the sweep the row
    belongs to (an evaluator at ``ctx``), whose run, passed as ``params``,
    has only the row's x judged; a row evaluated on its own gets a fresh
    evaluator and a run of its own, so its point is admitted in full.  The
    row is judged by :func:`_row`, escalating a row that does not pass."""
    alone = ev is None
    if alone:
        ev = Evaluator(ctx)
    row = _row(*ev._admit(check, params))
    if alone:
        _log_escalations(ev)
    return row


def _row(run: _Run, p: dict) -> CheckResult:
    """The row of ``run`` at its admitted point ``p``, evaluated by the run's
    evaluator and judged by :func:`_result`, with the run's point as params.

    A row that is not PASS is evaluated again by the evaluator at twice the
    bits (:attr:`Evaluator._finer`), and at four times the bits if it still
    does not pass; it reports the status of the highest precision reached,
    with that evaluation's values rounded to ``ev.ctx.bits``."""
    ev = run.ev
    ctx, judge, x = ev.ctx, ev, p["x"]
    while True:
        with judge.ctx.work():  # a no-op inside a sweep, which holds the precision
            sides = run.sides if judge is ev else run.cdef.evaluate(run.point, judge)
            lhs, rhs = sides(x)
        row = _result(run.cdef.name, run.point, x, lhs, rhs, ctx, judge.ctx)
        if row.status == "PASS" or judge.ctx.bits >= 4 * ctx.bits:
            break
        judge = judge._finer
    if judge is not ev:
        ev._escalated[judge.ctx.bits] += 1
    return row


def _log_escalations(ev: Evaluator) -> None:
    """Log how many of ``ev``'s rows escalated, by the bits they ended at."""
    if ev._escalated:
        log.info("rows escalated from %d bits: %s", ev.ctx.bits,
                 ", ".join(f"{n} to {bits}" for bits, n in sorted(ev._escalated.items())))


def _result(name: str, params: dict, x: Real, lhs: Real, rhs: Real, ctx: PrecisionContext,
            judge: PrecisionContext | None = None) -> CheckResult:
    """The row of two sides evaluated at the point ``params`` (less x) and
    ``x``: margin, err_bound and ratio rounded to nearest at the working
    precision of ``judge`` (``ctx`` where not given), as mpf operators
    inside ``judge.work()`` round them, and the status judged there; then
    every value rounded to ``ctx.bits``.  The row keeps ``params`` itself.

    The work is done on raw ``mpmath.libmp`` values.  Values that already
    fit a precision are taken as they are, which is what rounding would
    give (:func:`_abs`, :func:`.precision._fit`), and magnitudes are
    compared by :func:`_above`."""
    judge = judge or ctx
    wp, bits, rnd = judge.bits + GUARD_BITS, ctx.bits, round_nearest
    left, right = lhs._mpf_, rhs._mpf_
    margin = mpf_sub(left, right, wp, rnd)
    abs_left, abs_right = _abs(left, wp), _abs(right, wp)
    err_bound = mpf_mul(judge.err_scale, abs_right if _above(abs_right, abs_left) else abs_left,
                        wp, rnd)
    # margin > err_bound is PASS, margin < -err_bound FAIL, anything else
    # (a nan among them) INDET
    status = ("FAIL" if margin[0] else "PASS") if _above(margin, err_bound) else "INDET"
    return CheckResult(
        name,
        params,
        ctx.finalize(x),
        ctx.finalize(lhs),
        ctx.finalize(rhs),
        _make(_fit(margin, bits)),
        None if right == fzero else _make(_fit(mpf_div(left, right, wp, rnd), bits)),
        _make(_fit(err_bound, bits)),
        status,
    )


def _abs(raw: tuple, wp: int) -> tuple:
    """|raw| rounded at wp: a finite non-zero value of at most wp bits with
    its sign cleared."""
    if raw[1] and raw[3] <= wp:
        return (0, raw[1], raw[2], raw[3])
    return mpf_abs(raw, wp, round_nearest)


def _above(a: tuple, b: tuple) -> bool:
    """|a| > |b| for raw values; for finite non-zero ones by their leading
    bits and, where those agree, by the mantissas at one exponent."""
    if not (a[1] and b[1]):  # a zero or a special value
        return mpf_gt(mpf_abs(a), mpf_abs(b))
    top_a, top_b = a[2] + a[3], b[2] + b[3]
    if top_a != top_b:
        return top_a > top_b
    shift = a[2] - b[2]
    if shift >= 0:
        return a[1] << shift > b[1]
    return a[1] > b[1] << -shift


def _evaluate_row(run: _Run) -> CheckResult | None:
    """The row of ``run`` at the x its sweep set in it: one call of
    :func:`evaluate_check`, None where the row is skipped."""
    try:
        return evaluate_check(run.cdef.name, run.ev.ctx, run, run.ev)
    except (_Inadmissible, PoleError):
        return None  # outside the check's admissible region, or at a pole
    except NumericalError:
        nan = mpf("nan")
        return CheckResult(check=run.cdef.name, params=run.point, x=run["x"], lhs=nan, rhs=nan,
                           margin=nan, ratio=None, err_bound=nan, status="ERROR")


def _raw(point: dict) -> tuple:
    """The values of a point of canonical values as a key, mpfs by ``_mpf_``."""
    return tuple(getattr(v, "_mpf_", v) for v in point.values())


def _overridden(rows: list[tuple[dict, Real]], override: list[str],
                axes: Mapping) -> list[tuple[dict, Real]]:
    """The default rows (point less x, x) of one check with the grid values
    in ``axes`` of the parameters ``override`` names: each distinct default
    point less them, in order, crossed with the grid's combinations, as
    (point less x, x) rows.  The rows of one point less x share one dict,
    keyed by its default values and the indices of its grid values, never
    by a grid value, which need not be hashable."""
    grid = []  # each combination: the indices and values of its parameters less x, and its x
    for combo in product(*(enumerate(axes[name]) for name in override)):
        named = dict(zip(override, combo))
        grid_x = named.pop("x", (0, None))[1]
        grid.append((tuple(i for i, _ in named.values()), {k: v for k, (_, v) in named.items()},
                     grid_x))
    x_kept, bases, shared, out, last = "x" not in override, {}, {}, [], None
    for point, x in rows:
        if point is not last:
            last, base = point, {k: v for k, v in point.items() if k not in override}
            key = _raw(base)
        bases.setdefault((key, x._mpf_) if x_kept else key, (key, base, x))
    for key, base, x in bases.values():
        for at, values, grid_x in grid:
            point = shared.get((key, at))
            if point is None:
                point = shared[key, at] = {**base, **values}
            out.append((point, x if x_kept else grid_x))
    return out


def _runs(rows: list[tuple[dict, Real]]) -> list[tuple[dict, list]]:
    """The rows (point less x, x) of one check grouped into runs, one per
    point dict, in the order of each dict's first row: the dict and the
    (index, x) of its rows."""
    runs, last = {}, None
    for i, (point, x) in enumerate(rows):
        if point is not last:
            last = point
            at = runs.setdefault(id(point), (point, []))[1]
        at.append((i, x))
    return list(runs.values())


def _sweep(ids: Iterable[str], axes: Mapping, ctx: PrecisionContext) -> tuple[list, set]:
    """The rows of the checks ``ids`` over their default points, the grid
    values in ``axes`` replacing the defaults of the parameters they name,
    with the names of the axes some check used.  Every id is looked up
    before the first row.

    A check's rows are evaluated run by run (:func:`_runs`): a :class:`_Run`
    per point, with each row's x set in it, is the params of its rows'
    :func:`evaluate_check` calls.  The rows come out in the order of the
    points they were generated from."""
    cdefs = [_check_def(name) for name in ids]
    results, used = [], set()
    ev = Evaluator(ctx)
    with ctx.work():
        for cdef in cdefs:
            rows = cdef._default_rows(ev)
            override = [spec.name for spec in cdef.params if spec.name in axes]
            if override:
                used.update(override)
                rows = _overridden(rows, override, axes)
            slots = [None] * len(rows)
            for point, at in _runs(rows):
                try:
                    run = _Run(cdef, point, ev)
                except _Inadmissible:
                    continue
                for i, x in at:
                    run["x"] = x
                    slots[i] = _evaluate_row(run)
            results += [res for res in slots if res is not None]
    _log_escalations(ev)
    return results, used


def sweep(ids: Sequence[str], grid: ParamGrid, ctx: PrecisionContext) -> list[CheckResult]:
    """Evaluate the given checks over an explicit parameter grid.

    Grid axes override the matching axes of each check's default points;
    parameters the grid does not name keep their default values, so one
    shared grid can drive the whole catalog.  An axis no selected check
    uses is a usage error.  Results come out in deterministic (id order,
    default-point order, grid order); points outside a check's admissible
    parameter combinations are skipped, and per-point numerical failures
    are recorded as ERROR rows without aborting the sweep.
    """
    if not isinstance(grid, ParamGrid):
        raise UsageError("sweep needs a ParamGrid")
    axes = {ax.name: ax.values for ax in grid.axes}
    results, used = _sweep(ids, axes, ctx)
    unused = set(axes) - used
    if unused:
        raise UsageError(f"grid axes {sorted(unused)} match no parameter of {list(ids)}")
    return results


def default_sweep(ids: Sequence[str] | None, ctx: PrecisionContext) -> list[CheckResult]:
    """Evaluate checks over their built-in default parameter points
    (the standing verification grid)."""
    return _sweep(ids or CHECK_IDS, {}, ctx)[0]


def summarize(results: Sequence[CheckResult]) -> dict:
    counts = {"PASS": 0, "FAIL": 0, "INDET": 0, "ERROR": 0}
    for r in results:
        counts[r.status] = counts.get(r.status, 0) + 1
    counts["total"] = len(results)
    return counts


@dataclass
class SharpnessResult:
    check: str
    params: dict
    direction: str
    samples: list  # (x, ratio)
    extrapolants: list
    limit: Real
    converged: bool
    documented_limit: Real | None


def _richardson(values: list, q: mpf) -> list:
    """Repeated Richardson extrapolation for samples on a geometric grid
    h, h*q, h*q^2, ...; returns the successive best extrapolants."""
    out = [values[-1]]
    col = list(values)
    j = 1
    while len(col) > 1:
        factor = q**j
        col = [(col[i + 1] - factor * col[i]) / (1 - factor) for i in range(len(col) - 1)]
        out.append(col[-1])
        j += 1
    return out


def sharpness_probe(check: CheckId | str, direction: str, ctx: PrecisionContext,
                    params: Mapping | None = None) -> SharpnessResult:
    """Estimate the limiting value of a check's structural ratio as
    x -> 0 or x -> oo by sampling a geometric x-sequence and applying
    repeated Richardson extrapolation."""
    name = check.id if isinstance(check, CheckId) else check
    if direction not in _check_def(name).sharp_limits:
        raise UsageError(f"check {name} has no documented sharpness limit toward '{direction}'")
    ev = Evaluator(ctx)
    with ctx.work():
        samples = []
        for e in range(-2, -9, -1) if direction == "zero" else range(1, 5):
            x = mpf(10) ** e
            run, p = ev._admit(check, params, x=x, y=x)  # y only where declared
            samples.append((x, run.cdef.sharp_ratio(p, ev)))
        extrap = _richardson([s[1] for s in samples], mpf(1) / 10)
        limit = extrap[-1]
        tail = extrap[-3:]
        converged = len(tail) == 3 and all(
            abs(t - limit) <= mpf("1e-6") * max(1, abs(limit)) for t in tail
        )
        documented = run.cdef.sharp_limits[direction](p, ev)
        documented = None if documented is None else as_real(documented, ctx)
    if not converged:
        raise NumericalError(
            f"sharpness probe for {name} toward {direction} did not converge; "
            f"samples: {[(mp.nstr(x, 8), mp.nstr(r, 12)) for x, r in samples]}",
            best_estimate=ctx.finalize(limit),
        )
    return SharpnessResult(
        check=name,
        params={k: v for k, v in p.items() if k not in ("x", "y")},
        direction=direction,
        samples=[(ctx.finalize(x), ctx.finalize(r)) for x, r in samples],
        extrapolants=[ctx.finalize(t) for t in extrap],
        limit=ctx.finalize(limit),
        converged=converged,
        documented_limit=None if documented is None else ctx.finalize(documented),
    )
