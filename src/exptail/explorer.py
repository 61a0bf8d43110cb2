"""Numerical experiments around the open questions of the remainder
family, plus the Runge-Kutta one-step error identity.

Everything here produces evidence, never proofs: each report carries the
raw samples and diagnostics, conjectured statements are reported with
their observed margins, and nothing is asserted beyond what was computed.
Internal cross-links (the order-1 ratio differences against the reverse
product inequality, order-2 against the cubic reduction) are verified to
100 * target_rel_err so the explorer and the inequality catalog cannot
silently drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError, PoleError, UsageError
from .pade import approximant_derivatives, eval_approximant, pade_exp, real_pole
from .precision import PrecisionContext, as_real
from .remainders import (_subtraction_boost, finite_diff, g_ratio, q_value, r_neg, r_obreshkov,
                         r_tail)


@dataclass
class Report:
    """Tabular findings of one exploration run."""

    kind: str
    params: dict
    columns: list[str]
    rows: list[tuple]
    notes: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _default_x_grid(ctx, lo="0.01", hi="10", count=20):
    from .inequalities import log_grid

    return log_grid(lo, hi, count, ctx)


def problem1_monotonicity(n: int, x_grid=None, ctx: PrecisionContext = None) -> Report:
    """Is R_{n-1} R_{n+1} / R_n**2 increasing in x?  Differentiation reduces
    the question to positivity of the cubic form
    R_{n-2} R_n R_{n+1} + R_{n-1} R_n**2 - 2 R_{n-1}**2 R_{n+1}."""
    ctx = ctx or PrecisionContext()
    if n < 2:
        raise UsageError(f"problem 1 needs n >= 2, got {n}")
    xs = x_grid if x_grid is not None else _default_x_grid(ctx)
    rows = []
    ratios = []
    min_margin = None
    sign_changes = 0
    prev_sign = None
    with ctx.work():
        for x in xs:
            r = [r_tail(n + j, x, ctx) for j in (-2, -1, 0, 1)]
            margin = r[0] * r[2] * r[3] + r[1] * r[2] ** 2 - 2 * r[1] ** 2 * r[3]
            ratio = r[1] * r[3] / r[2] ** 2
            ratios.append(ratio)
            rows.append((ctx.finalize(x), ctx.finalize(margin), ctx.finalize(ratio)))
            sign = 1 if margin > 0 else (-1 if margin < 0 else 0)
            if prev_sign is not None and sign != prev_sign:
                sign_changes += 1
            prev_sign = sign
            if min_margin is None or margin < min_margin:
                min_margin = margin
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    return Report(
        kind="problem1",
        params={"n": n},
        columns=["x", "cubic_margin", "product_ratio"],
        rows=rows,
        notes=[
            "positive cubic_margin at every sampled x is consistent with the ratio "
            "being increasing; no assertion is made beyond the samples",
        ],
        diagnostics={
            "min_margin": ctx.finalize(min_margin),
            "margin_sign_changes": sign_changes,
            "ratio_strictly_increasing_on_samples": increasing,
        },
    )


def problem5_pade_cm(n: int, k_max: int, x_grid=None, ctx: PrecisionContext = None) -> Report:
    """Sign pattern of the derivatives of the diagonal [n/n] approximant on
    x > 0 before its first pole (absolute monotonicity would need all of
    them nonnegative).  Its pole is certified and its derivatives are exact
    (:func:`.pade.real_pole`, :func:`.pade.approximant_derivatives`)."""
    ctx = ctx or PrecisionContext()
    if n < 1 or k_max < 0:
        raise UsageError(f"problem 5 needs n >= 1 and k_max >= 0, got n={n}, k_max={k_max}")
    appr = pade_exp(n, n)
    with ctx.work():
        pole = real_pole(appr, ctx)
        hi = pole * mpf("0.95") if pole is not None else mpf(2 * (n + 1))
        xs = x_grid if x_grid is not None else [hi * (i + 1) / 10 for i in range(9)]
        rows, excluded = [], []
        for x in map(ctx.finalize, xs):  # the derivatives at the x reported
            if pole is not None and not x < pole:
                excluded.append(x)
            else:
                rows.append((x, *approximant_derivatives(appr, x, k_max, ctx)))
    all_nonneg = {k: all(row[k + 1] >= 0 for row in rows) for k in range(k_max + 1)}
    return Report(
        kind="problem5",
        params={"n": n, "k_max": k_max},
        columns=["x"] + [f"d{k}" for k in range(k_max + 1)],
        rows=rows,
        notes=[f"real pole: {mp.nstr(pole, 17) if pole is not None else 'none (n is even)'}",
               "derivatives are exact Taylor coefficients of num/den times k!, rounded once"]
        + ([f"excluded points at/past the pole: {[mp.nstr(e, 8) for e in excluded]}"]
           if excluded else []),
        diagnostics={"all_nonnegative_by_order": all_nonneg,
                     "pole": pole},
    )


def problem7_limit(n_max: int, c, ctx: PrecisionContext = None) -> Report:
    """Sequence (x/n) R_{n-1}(x)/R_n(x) along x = c*n.

    The conjectured right-hand side references an exponent never defined
    in the problem statement; this routine only reports the sequence and
    a crude Aitken-accelerated guess, leaving interpretation to the user.
    """
    ctx = ctx or PrecisionContext()
    if n_max < 10:
        raise UsageError(f"problem 7 needs n_max >= 10, got {n_max}")
    rows = []
    values = []
    with ctx.work():
        c = as_real(c, ctx)
        if not c > 0:
            raise DomainError(f"problem 7 needs c > 0, got {c}")
        for n in range(10, n_max + 1, max(1, n_max // 10)):
            x = c * n
            val = (x / n) * g_ratio(n, x, ctx)
            ratio_prev = values[-1] if values else None
            values.append(val)
            rows.append((n, ctx.finalize(x), ctx.finalize(val),
                         None if ratio_prev is None else ctx.finalize(val / ratio_prev)))
        guess = None
        if len(values) >= 3:
            s0, s1, s2 = values[-3:]
            den = s2 - 2 * s1 + s0
            if den != 0:
                guess = s2 - (s2 - s1) ** 2 / den
    return Report(
        kind="problem7",
        params={"n_max": n_max, "c": ctx.finalize(c)},
        columns=["n", "x", "value", "consecutive_ratio"],
        rows=rows,
        notes=[
            "the conjectured limit references an undefined exponent; the sequence is "
            "reported verbatim and the Aitken guess is a diagnostic, not a claim",
        ],
        diagnostics={
            "aitken_guess": None if guess is None else ctx.finalize(guess),
            "last_consecutive_ratio": rows[-1][3] if rows else None,
        },
    )


def problem8_gautschi_k(n: int, k: int, x_grid=None, ctx: PrecisionContext = None) -> Report:
    """Sign pattern of (-1)**k delta^k Q_n over x for k >= 2, plus the
    explicit product inequality the k = 3 case corresponds to:
    R_n R_{n+2}**3 > (n+2)(n+4)/(n+3)**2 R_{n+1}**3 R_{n+3}."""
    ctx = ctx or PrecisionContext()
    if n < 1 or k < 2:
        raise UsageError(f"problem 8 needs n >= 1 and k >= 2, got n={n}, k={k}")
    xs = x_grid if x_grid is not None else _default_x_grid(ctx)
    rows = []
    violations = 0
    with ctx.work():
        const = Fraction((n + 2) * (n + 4), (n + 3) ** 2)
        for x in xs:
            qs = [q_value(n + j, x, ctx) for j in range(k + 1)]
            qmargin = finite_diff(qs, k).values[0] * (-1) ** k
            if k == 3:
                r = [r_tail(n + j, x, ctx) for j in range(4)]
                rmargin = r[0] * r[2] ** 3 - as_real(const, ctx) * r[1] ** 3 * r[3]
            else:
                rmargin = None
            if not qmargin > 0:
                violations += 1
            rows.append((ctx.finalize(x), ctx.finalize(qmargin),
                         None if rmargin is None else ctx.finalize(rmargin)))
        # leading-order prediction of the k = 3 product ratio at x -> 0
        probe = {}
        if k == 3:
            for x in (mpf("1e-3"), mpf("1e-5")):
                r = [r_tail(n + j, x, ctx) for j in range(4)]
                probe[mp.nstr(x, 3)] = ctx.finalize(r[0] * r[2] ** 3 / (r[1] ** 3 * r[3]))
            probe["predicted_limit"] = ctx.finalize(as_real(const, ctx))
    return Report(
        kind="problem8",
        params={"n": n, "k": k},
        columns=["x", "alt_diff_q_margin", "k3_product_margin"],
        rows=rows,
        notes=["sign pattern of the alternating difference of the mean-value exponents; "
               "positivity for k >= 3 is the open part"],
        diagnostics={"violations": violations, "x_to_zero_ratio_probe": probe},
    )


def problem9_limit(a, m: int, n_max: int, ctx: PrecisionContext = None) -> Report:
    """Sequence R_{n,m}(a n) / e**(a m) for n up to n_max, as stated."""
    ctx = ctx or PrecisionContext()
    if n_max < 10:
        raise UsageError(f"problem 9 needs n_max >= 10, got {n_max}")
    if m < 0:
        raise UsageError(f"problem 9 needs m >= 0, got {m}")
    rows = []
    values = []
    with ctx.work():
        a = as_real(a, ctx)
        if not a > 0:
            raise DomainError(f"problem 9 needs a > 0, got {a}")
        denom = mp.exp(a * m)
        for n in range(10, n_max + 1, max(1, n_max // 10)):
            val = r_obreshkov(n, m, a * n, ctx) / denom
            values.append(val)
            rows.append((n, ctx.finalize(val),
                         None if len(values) < 2 else ctx.finalize(val / values[-2])))
    return Report(
        kind="problem9",
        params={"a": ctx.finalize(a), "m": m, "n_max": n_max},
        columns=["n", "scaled_value", "consecutive_ratio"],
        rows=rows,
        notes=["normalisation e**(a m) is taken verbatim from the problem statement"],
        diagnostics={
            "last_value": rows[-1][1] if rows else None,
            "bounded_on_samples": bool(values) and max(abs(v) for v in values) < mpf(10) ** 40,
        },
    )


def problem11_gdiffs(k_max: int, n_range=None, x_grid=None,
                     ctx: PrecisionContext = None) -> Report:
    """Sign patterns of the order-k differences of g_n = R_{n-1}/R_n in
    both the forward (delta) and backward (nabla) conventions.

    Forward differences of order 1 are positive exactly when the reverse
    product inequality holds (delta g_n * R_n R_{n+1} equals its margin),
    and order 2 matches the cubic reduction of the monotonicity question;
    both identities are cross-checked here.
    """
    ctx = ctx or PrecisionContext()
    if k_max < 1:
        raise UsageError(f"problem 11 needs k_max >= 1, got {k_max}")
    ns = list(n_range) if n_range is not None else list(range(1, 11))
    if len(ns) < k_max + 1:
        raise UsageError(f"need at least k_max+1 orders, got {len(ns)}")
    xs = x_grid if x_grid is not None else [as_real(v, ctx) for v in ("0.5", "1", "5")]
    rows = []
    crosscheck_worst = mpf(0)
    signs = {}
    with ctx.work():
        tol = 100 * ctx.target_rel_err
        for x in xs:
            gs = [g_ratio(n, x, ctx) for n in ns]
            for k in range(1, k_max + 1):
                fwd = finite_diff(gs, k).values
                bwd = [v * (-1) ** k for v in fwd]
                signs.setdefault(k, {"forward_all_positive": True, "backward_all_positive": True})
                if any(not v > 0 for v in fwd):
                    signs[k]["forward_all_positive"] = False
                if any(not v > 0 for v in bwd):
                    signs[k]["backward_all_positive"] = False
                rows.append((ctx.finalize(x), k,
                             ctx.finalize(min(fwd)), ctx.finalize(min(bwd))))
            # order-1 tie to the reverse product inequality
            for i, n in enumerate(ns[:-1]):
                lhs = (gs[i + 1] - gs[i]) * r_tail(n, x, ctx) * r_tail(n + 1, x, ctx)
                rhs = r_tail(n, x, ctx) ** 2 - r_tail(n - 1, x, ctx) * r_tail(n + 1, x, ctx)
                dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), tol)
                crosscheck_worst = max(crosscheck_worst, dev)
            # order-2 tie to the cubic reduction of the monotonicity problem
            for i, n in enumerate(ns[:-2]):
                if n < 1:
                    continue
                m = n + 1
                d2 = gs[i] + gs[i + 2] - 2 * gs[i + 1]
                r = [r_tail(m + j, x, ctx) for j in (-2, -1, 0, 1)]
                cubic = r[0] * r[2] * r[3] + r[1] * r[2] ** 2 - 2 * r[1] ** 2 * r[3]
                lhs = d2 * r[1] * r[2] * r[3]
                dev = abs(lhs - cubic) / max(abs(lhs), abs(cubic), tol)
                crosscheck_worst = max(crosscheck_worst, dev)
    return Report(
        kind="problem11",
        params={"k_max": k_max, "orders": ns},
        columns=["x", "k", "min_forward_diff", "min_backward_diff"],
        rows=rows,
        notes=[
            "forward differences delta^k g_n are the convention under which order 1 "
            "reduces to the reverse product inequality; the backward (nabla) signs "
            "are reported alongside because the conjecture's sign convention is "
            "ambiguous in the source",
        ],
        diagnostics={"sign_pattern": signs,
                     "identity_crosscheck_worst": ctx.finalize(crosscheck_worst)},
    )


def problem12_row_monotone(n_range=None, x_count: int = 12,
                           ctx: PrecisionContext = None) -> Report:
    """Margins of [n/1](x) - [n+1/1](x) for 0 < x < n+1 (monotone decrease
    of the first Pade row in n would make them all positive)."""
    ctx = ctx or PrecisionContext()
    ns = list(n_range) if n_range is not None else list(range(1, 7))
    rows = []
    excluded = []
    min_margin = None
    with ctx.work():
        for n in ns:
            lowrow = pade_exp(n, 1)
            highrow = pade_exp(n + 1, 1)
            for i in range(1, x_count + 1):
                x = mpf(n + 1) * i / (x_count + 1)
                try:
                    margin = eval_approximant(lowrow, x, ctx) - eval_approximant(highrow, x, ctx)
                except PoleError:
                    excluded.append((n, ctx.finalize(x)))
                    continue
                rows.append((n, ctx.finalize(x), ctx.finalize(margin)))
                if min_margin is None or margin < min_margin:
                    min_margin = margin
    return Report(
        kind="problem12",
        params={"orders": ns, "x_count": x_count},
        columns=["n", "x", "margin"],
        rows=rows,
        notes=["positive margin means the row-n approximant lies above row n+1 "
               "on 0 < x < n+1"],
        diagnostics={
            "min_margin": None if min_margin is None else ctx.finalize(min_margin),
            "excluded_near_pole": excluded,
        },
    )


def problem15_range(n: int, x_grid=None, ctx: PrecisionContext = None) -> Report:
    """Observed range of f = R_{n-2}R_n/R_{n-1}**2 + R_n**2/(R_{n-1}R_{n+1})
    against the predicted enclosure ((2n+1)/(n+1), (2n+3)/(n+1))."""
    ctx = ctx or PrecisionContext()
    if n < 2:
        raise UsageError(f"problem 15 needs n >= 2, got {n}")
    xs = x_grid if x_grid is not None else _default_x_grid(ctx, "0.001", "50", 40)
    lo = Fraction(2 * n + 1, n + 1)
    hi = Fraction(2 * n + 3, n + 1)
    rows = []
    observed_min = observed_max = None
    violations = []
    with ctx.work():
        lo_r, hi_r = as_real(lo, ctx), as_real(hi, ctx)
        for x in xs:
            r = [r_tail(n + j, x, ctx) for j in (-2, -1, 0, 1)]
            f = r[0] * r[2] / r[1] ** 2 + r[2] ** 2 / (r[1] * r[3])
            rows.append((ctx.finalize(x), ctx.finalize(f)))
            if observed_min is None or f < observed_min:
                observed_min = f
            if observed_max is None or f > observed_max:
                observed_max = f
            if not lo_r <= f <= hi_r:
                violations.append((ctx.finalize(x), ctx.finalize(f)))
    return Report(
        kind="problem15",
        params={"n": n},
        columns=["x", "f"],
        rows=rows,
        notes=[f"predicted enclosure: [{lo}, {hi}]"]
        + (["containment violated at flagged points -- recorded as a finding"]
           if violations else []),
        diagnostics={
            "observed_min": ctx.finalize(observed_min),
            "observed_max": ctx.finalize(observed_max),
            "bound_low": ctx.finalize(lo_r),
            "bound_high": ctx.finalize(hi_r),
            "violations": violations,
        },
    )


def rk_error_demo(lam, h, y0, ctx: PrecisionContext = None) -> Report:
    """One classical 4-stage Runge-Kutta step on y' = lam*y compared with
    the order-4 remainder: the one-step error equals |R_4(lam*h)| * |y0|.

    y1 - y0*e**z cancels down to that remainder, so both are formed with
    the extra bits of :func:`.remainders._subtraction_boost`.  From
    |z| >= 2*(4+1) on the degree-4 partial sum is at most half of e**z
    (z > 0) or dominates e**z (z < 0), so there the step needs none."""
    ctx = ctx or PrecisionContext()
    with ctx.work():
        lam = as_real(lam, ctx)
        h = as_real(h, ctx)
        y0 = as_real(y0, ctx)
        if not h > 0:
            raise DomainError(f"step size must be positive, got {h}")
        z = lam * h
        if z >= 0:
            reference = r_tail(4, z, ctx) * abs(y0)
        else:
            reference = r_neg(4, -z, ctx) * abs(y0)
    boost = _subtraction_boost(4, abs(z)) if abs(z) < 2 * (4 + 1) else 0
    with ctx.work(boost):
        k1 = lam * y0
        k2 = lam * (y0 + h * k1 / 2)
        k3 = lam * (y0 + h * k2 / 2)
        k4 = lam * (y0 + h * k3)
        y1 = y0 + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        error = abs(y1 - y0 * mp.exp(lam * h))
        if reference == 0:
            agreement = mpf(0) if error == 0 else mpf("inf")
        else:
            agreement = abs(error - reference) / reference
    return Report(
        kind="rk",
        params={"lambda": ctx.finalize(lam), "h": ctx.finalize(h), "y0": ctx.finalize(y0)},
        columns=["one_step_error", "remainder_reference", "relative_agreement"],
        rows=[(ctx.finalize(error), ctx.finalize(reference), ctx.finalize(agreement))],
        notes=["the classical 4-stage step reproduces the degree-4 Taylor partial sum "
               "exactly on the linear test equation, so its error is the order-4 tail"],
        diagnostics={"relative_agreement": ctx.finalize(agreement)},
    )
