"""Working-precision context and decimal round-trip helpers.

Every public operation in this package takes a :class:`PrecisionContext`
and performs its arithmetic with ``mpmath`` at ``bits`` of mantissa plus a
fixed guard.  Values are plain ``mpmath.mpf`` scalars; the context decides
how they are produced and printed, so "a Real at context precision" means
"an mpf computed while the context's working precision was active".

Operands carrying more precision than the context are rounded down to it
(the coarser precision wins); the downgrade is reported through the
``exptail`` logger.

The conversion, rounding and rendering helpers (:func:`as_real`,
:meth:`PrecisionContext.finalize`, :func:`format_real`) round ``mpf``,
``float``, ``int`` and ``Fraction`` operands through ``mpmath.libmp`` at an
explicit precision (``from_float``, ``from_int``, ``mpf_pos``, ``mpf_div``),
the values the mpf constructor gives at that precision, and never switch
mpmath's global context, so their results do not depend on an ambient
``mp.prec`` and they cost no context enter/exit per value.  Only decimal
strings and other types go through the mpf constructor inside
``ctx.work()``.
A value that already fits the precision is its own rounding and is taken
as it is (:func:`_fit`): ``as_real`` and ``finalize`` return such an mpf
itself, with no new object.  :func:`format_real` gives exactly the text of
``libmp.to_str``; for finite non-zero values of ordinary size it converts
the binary mantissa to decimal with one multiply by a power of ten, tabled
with its size by the fixed-point precision, and ``str``, and leaves only
zero, the special values and huge exponents to ``to_str``.

Every public scalar function declares its arguments once, as
:class:`Param` records, through :func:`declared`: the one boundary that
converts each argument by its kind, checks its bounds, holds the working
precision and returns ``ctx.finalize`` of the result.  A call switches
the precision once: it assigns ``mp.prec`` on entry and restores it on
exit, and does neither where the caller already works at it.  It
converts int and finite float arguments inline.  A numeric bound is held
as its exact raw value and judged by ``libmp``'s comparisons, the ones
the mpf operators call.  The inequality catalog declares its parameters
with the same records.

:func:`as_real` converts and does not validate; the declarations do.  A
real is finite unless declared otherwise, so a nan or infinite x raises
:class:`.errors.DomainError`.  An order declared non-finite (r_frac's a,
eps_value's nu, 1F1(1; b; x)'s b, gamma(v, x)'s v) passes nan and +oo to
its series, which returns the limit (1F1(1; +oo; x) = 1, R_{+oo}(x) = 0 for
0 <= x < 1) or raises :class:`.errors.NumericalError`.  The command line
refuses nan and the infinities when it parses them (:func:`parse_real`,
the grid axes; exit code 2).
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (fnan, from_float, from_int, mpf_div, mpf_ge, mpf_gt, mpf_le, mpf_mul_int,
                          mpf_pos, round_nearest, to_str)

from .errors import DomainError, UsageError

log = logging.getLogger("exptail")
# A library logs only where the application has configured logging.
log.addHandler(logging.NullHandler())

# Extra mantissa bits used while computing, absorbing accumulated rounding
# from long summations before the result is rounded back to ``bits``.
GUARD_BITS = 32

Real = mpf

_make = mp.make_mpf

# what ``PrecisionContext.work`` returns where its precision is already active
_HELD = nullcontext()


def _fit(raw: tuple, prec: int) -> tuple:
    """A raw libmp value rounded to nearest at ``prec`` bits; a value of at
    most ``prec`` bits (or a special value) is its own rounding."""
    return raw if raw[3] <= prec else mpf_pos(raw, prec, round_nearest)


def _rounded(x, prec: int):
    """Raw libmp value of an ``mpf``, ``float`` or ``int`` rounded to
    nearest at ``prec`` bits, or None for operand types left to mpmath's
    constructor."""
    if isinstance(x, mpf):
        return _fit(x._mpf_, prec)
    if isinstance(x, float):
        return from_float(x, prec, round_nearest)
    if isinstance(x, int):
        return from_int(x, prec, round_nearest)
    return None


def default_target_rel_err(bits: int) -> mpf:
    """Default acceptance threshold: 2**-(7*bits/8).

    Leaves bits/8 of headroom between the requested accuracy and the raw
    arithmetic, so error estimators never bottom out on rounding noise.
    """
    return mpf(2) ** -((7 * bits) // 8)


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision (mantissa bits) plus the truncation threshold
    used by every series / quadrature stopping rule.

    Invariants: ``bits >= 53`` and ``target_rel_err >= 2**(1 - bits)``.
    """

    bits: int = 256
    target_rel_err: mpf = None  # defaults to 2**-(7*bits/8)

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < 53:
            raise DomainError(f"precision must be an integer >= 53 bits, got {self.bits!r}")
        tre = self.target_rel_err
        if tre is None:
            tre = default_target_rel_err(self.bits)
        else:
            tre = mpf(tre)
        if not tre > 0 or tre < mpf(2) ** (1 - self.bits):
            raise DomainError(
                f"target_rel_err must satisfy 2**(1-bits) <= err, got {tre} at {self.bits} bits"
            )
        object.__setattr__(self, "target_rel_err", tre)
        # raw 100 * target_rel_err at the working precision: a check row's
        # err_bound per unit of max(|lhs|, |rhs|)
        object.__setattr__(self, "err_scale",
                           mpf_mul_int(tre._mpf_, 100, self.bits + GUARD_BITS, round_nearest))

    def work(self, extra_bits: int = 0):
        """Context manager activating the working precision; where mpmath
        already works at exactly that precision it changes nothing, so a
        sweep that holds the precision pays no switch per row."""
        prec = self.bits + GUARD_BITS + max(0, extra_bits)
        return _HELD if mp.prec == prec else mp.workprec(prec)

    def finalize(self, x) -> Real:
        """Round a computed value back to exactly ``bits`` of mantissa; an
        mpf that already fits is its own rounding and is returned as it is."""
        if type(x) is mpf and x._mpf_[3] <= self.bits:
            return x
        raw = _rounded(x, self.bits)
        if raw is not None:
            return _make(raw)
        with mp.workprec(self.bits):
            return +mpf(x)

    @property
    def decimal_digits(self) -> int:
        """Digits needed for lossless decimal round-trip (>= 0.3*bits)."""
        return int(self.bits * 0.302) + 3


def as_real(x, ctx: PrecisionContext) -> Real:
    """Convert an input scalar to an mpf at the context's working precision.

    Mixed-precision operands are rounded to the coarser (context) precision;
    a downgrade of a wider mpf is logged.  An mpf of at most that many bits
    is returned as it is, the value rounding would give.  nan and the
    infinities are converted, not refused (see the module docstring).
    """
    wp = ctx.bits + GUARD_BITS
    if isinstance(x, mpf) and x._mpf_[3] > wp:
        log.warning("rounding %d-bit operand down to %d-bit context", x._mpf_[3], wp)
    elif type(x) is mpf:
        return x
    raw = _rounded(x, wp)
    if raw is None and hasattr(x, "denominator"):  # Fraction and other rationals
        # numerator and denominator are rounded before the division, as the
        # mpf quotient has always been formed; a single correctly rounded
        # quotient can differ in the last bit
        raw = from_int(x.numerator, wp, round_nearest)
        if x.denominator != 1:
            raw = mpf_div(raw, from_int(x.denominator, wp, round_nearest), wp, round_nearest)
    if raw is not None:
        return _make(raw)
    with ctx.work():  # decimal strings and other types
        return +mpf(x)


class Param(NamedTuple):
    """A declared argument: its name, its kind (``int``, ``mpf`` for a real,
    ``str``, or ``object`` for a value taken as it is) and its bounds.  A
    numeric bound is a number or the name of another parameter, as in
    k <= n; ``among`` lists the values a string may take.  A real is
    finite unless ``finite`` is False (see the module docstring)."""

    name: str
    kind: type = mpf
    gt: object = None
    ge: object = None
    le: object = None
    among: tuple | None = None
    finite: bool = True


def _as_int(v, ctx) -> int:
    """An order given as an int, or as an integral mpf, float or decimal
    string; anything else raises ValueError, never truncated.  An mpf is
    judged as it is and any other value at the working precision."""
    if isinstance(v, int):
        return int(v)
    r = v if isinstance(v, mpf) else as_real(v, ctx)
    if not mp.isint(r):
        raise ValueError(f"{v!r} is not an integer")
    return int(r)


# kind -> (what a value of it is called, its conversion (value, ctx) -> value)
KINDS = {int: ("an integer", _as_int), mpf: ("a real", as_real),
         str: ("a string", lambda v, ctx: str(v)), object: ("a value", lambda v, ctx: v)}

# bound field -> (its symbol, its test, the same test of raw libmp values)
_BOUNDS = {"gt": (">", operator.gt, mpf_gt), "ge": (">=", operator.ge, mpf_ge),
           "le": ("<=", operator.le, mpf_le), "among": ("in", lambda v, among: v in among, None)}


def convert(spec: Param, v, ctx: PrecisionContext):
    """``v`` read by the kind of ``spec`` at the working precision.  Raises
    ValueError, saying what was expected, where the kind cannot read it or
    where a real declared finite is nan or infinite."""
    what, read = KINDS[spec.kind]
    try:
        value = read(v, ctx)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} '{spec.name}', got {v}") from exc
    # a special mpf (zero, nan, +-oo) has mantissa 0, and only zero has bc 0
    if spec.finite and spec.kind is mpf and not (value._mpf_[1] or not value._mpf_[3]):
        raise ValueError(f"a finite real '{spec.name}', got {value}")
    return value


class Bound(NamedTuple):
    """One declared bound: the parameter's name, the bound's symbol and
    test, the same test of raw libmp values, and the bound itself.  An
    integer bound is also held as its exact raw value, with which the raw
    test judges a real as the mpf comparison does, without its operator
    dispatch (None for other bounds)."""

    name: str
    symbol: str
    test: object
    raw_test: object
    bound: object
    raw_bound: tuple | None


def bounds(params) -> tuple:
    """The :class:`Bound` of every bound declared in ``params``."""
    return tuple(Bound(spec.name, *_BOUNDS[key], bound,
                       from_int(bound) if type(bound) is int else None)
                 for spec in params for key, bound in zip(_BOUNDS, spec[2:6]) if bound is not None)


def breach(checks: tuple, values) -> str | None:
    """The first of the :func:`bounds` ``checks`` that the mapping ``values``
    breaks, as "name symbol bound, got name = value", or None.  A parameter
    it does not hold is not judged, nor a nan (only a non-finite real)."""
    for name, symbol, test, raw_test, bound, raw_bound in checks:
        v = values.get(name)
        if v is None:
            continue
        if raw_bound is not None and type(v) is mpf:
            if raw_test(v._mpf_, raw_bound) or v._mpf_ == fnan:
                continue
        else:
            limit = values.get(bound) if isinstance(bound, str) else bound
            if limit is None or test(v, limit) or v != v:
                continue
        return f"{name} {symbol} {bound}, got {name} = {v}"
    return None


def _read(spec: Param, v, ctx: PrecisionContext, wp: int):
    """:func:`convert` of ``v`` with the precision wp already active; an int
    or a finite float is read inline (a real by ``from_int`` or
    ``from_float`` at wp, what :func:`as_real` gives), any other value by
    ``convert``, with its messages and its downgrade log."""
    t = type(v)
    if spec.kind is mpf:
        if t is float and math.isfinite(v):
            return _make(from_float(v, wp, round_nearest))
        if t is int:
            return _make(from_int(v, wp, round_nearest))
    elif t is int and spec.kind is int:
        return v
    return convert(spec, v, ctx)


def declared(*params: Param):
    """Decorator giving ``f(*args, ctx, **options)`` its one boundary: each
    argument is converted by its declared kind (:func:`convert`) and its
    bounds checked, either failure a :class:`DomainError`; then f runs at
    the working precision, entering only the boosted blocks it needs, and
    its result is finalized.  The declarations are the function's ``params``.

    The boundary sets ``mp.prec`` once, by assignment, and restores it
    when f returns or raises; where mpmath already works at that
    precision, as in a sweep, it switches nothing.  Ints and finite floats
    convert inline through ``libmp`` at the working precision and mpfs
    through :func:`as_real`, and numeric bounds are judged on raw values
    (:func:`bounds`), so the call pays at most one precision switch and
    no mpf operator dispatch before f runs."""
    checks = bounds(params)

    def wrap(impl):
        label = impl.__name__

        @functools.wraps(impl)
        def public(*args, **options):
            if len(args) != len(params) + 1:
                raise TypeError(f"{label}() takes {len(params)} arguments and a context")
            ctx = args[-1]
            wp = ctx.bits + GUARD_BITS
            held = mp.prec
            # switched first, so that no conversion switches the precision
            # again and an error message prints its values at it
            if held != wp:
                mp.prec = wp
            try:
                try:
                    values = {spec.name: _read(spec, v, ctx, wp) for spec, v in zip(params, args)}
                except ValueError as exc:
                    raise DomainError(f"{label} needs {exc}") from exc
                fault = breach(checks, values)
                if fault is not None:
                    raise DomainError(f"{label} requires {fault}")
                return ctx.finalize(impl(*values.values(), ctx, **options))
            finally:
                if held != wp:
                    mp.prec = held

        public.params = params
        return public

    return wrap


# log2(10) exactly as ``libmp.to_str`` computes it, so the fast path below
# derives the same working sizes from it
_LOG2_10 = math.log(10, 2)

# fixprec -> (fixdps, 10**fixdps), filled as renderings need them.  fixdps
# is fixprec * log10(2) rounded, with fixprec <= (digits + 3) * log2(10) +
# 10 + 3500; the fast path takes digits < 1,000, which bounds the table at
# ~6,850 entries with fixdps <= 2,060 (under 3 MB; a 1024-bit default report
# fills 886 entries, 0.2 MB) and keeps every str() far below Python's
# 4,300-digit int conversion limit.
_POW10: dict[int, tuple[int, int]] = {}


def _decimal(sign: int, man: int, exp: int, bc: int, digits: int) -> str:
    """``to_str((sign, man, exp, bc), digits, min_fixed=-4, max_fixed=18)``
    for a finite non-zero raw mpf with |exp + bc| <= 3500 and digits >= 1.

    The same steps as ``to_str``: the mantissa as a binary fixed-point
    number with ``fixprec`` fractional bits, times 10**fixdps and floored,
    gives at least digits + 3 decimal digits (``to_digits_exp``); those are
    rounded half up to ``digits`` and laid out in fixed or scientific
    notation.  Only the binary-to-decimal step is done by one multiply and
    ``str`` instead of mpmath's helpers."""
    fixprec = max(0, int((digits + 3) * _LOG2_10) + 10 - exp - bc)
    entry = _POW10.get(fixprec)
    if entry is None:
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        entry = _POW10[fixprec] = fixdps, 10**fixdps
    fixdps, scale = entry
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    text = str(fixed * scale >> fixprec)
    exponent = len(text) - fixdps - 1
    if len(text) > digits and text[digits] >= "5":
        kept = text[:digits].rstrip("9")
        if kept:
            text = kept[:-1] + chr(ord(kept[-1]) + 1) + "0" * (digits - len(kept))
        else:
            text = "1" + "0" * (digits - 1)
            exponent += 1
    else:
        text = text[:digits]
    if -4 < exponent < 18:
        if exponent < 0:
            text = "0" * -exponent + text
            split = 1
        else:
            split = exponent + 1
            if split > digits:
                text += "0" * (split - digits)
        exponent = 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if sign:
        text = "-" + text
    if exponent == 0:
        return text
    return f"{text}e+{exponent}" if exponent > 0 else f"{text}e{exponent}"


def format_real(x, ctx: PrecisionContext, digits: int | None = None) -> str:
    """Deterministic decimal rendering at round-trip precision; scientific
    notation outside the exponent window [-4, 18).

    The text is exactly ``libmp.to_str(raw, digits, min_fixed=-4,
    max_fixed=18)`` of the value rounded to the working precision; finite
    non-zero values with |exp + bc| <= 3500 and fewer than 1,000 digits
    take the shorter route of :func:`_decimal`.  An mpf of at most the
    working precision's bits is read as it is (:func:`_rounded`)."""
    if digits is None:
        digits = ctx.decimal_digits
    wp = ctx.bits + GUARD_BITS
    raw = _rounded(x, wp)
    if raw is not None:
        sign, man, exp, bc = raw
        if man and -3500 <= exp + bc <= 3500 and 0 < digits < 1000:
            return _decimal(sign, man, exp, bc, digits)
        return to_str(raw, digits, min_fixed=-4, max_fixed=18)
    with mp.workprec(wp):
        return mp.nstr(mpf(x), digits, min_fixed=-4, max_fixed=18)


def parse_real(s: str, ctx: PrecisionContext) -> Real:
    """Parse a decimal string at the context's working precision.

    A string that is no number raises :class:`UsageError`; nan and the
    infinities raise :class:`DomainError`."""
    with ctx.work():
        try:
            x = mpf(s)
        except ValueError as exc:
            raise UsageError(f"cannot parse {s!r} as a number") from exc
    if not mp.isfinite(x):
        raise DomainError(f"expected a finite number, got {s!r}")
    return x
