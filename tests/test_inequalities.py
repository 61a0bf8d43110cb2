"""Catalog checks: exact constants, margin signs on spot points and
grids, degenerate edges, and the sharpness machinery."""

import dataclasses
import logging
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_neg

from conftest import rel_err
from exptail import inequalities, numerics
from exptail.errors import DomainError, UsageError
from exptail.inequalities import (CATALOG, CHECK_IDS, CheckId, Evaluator, GridAxis, ParamGrid,
                                  alzer_constant, chebyshev_constant, chebyshev_constant_exact,
                                  constant_cross_identities, cor25_constant, cor26_constant,
                                  cor27_constant, default_sweep,
                                  evaluate_check, gen_k_constant, incgamma_constant,
                                  interp_constant, interp_constant_power, log_grid,
                                  neg_gen_k_constant, parse_grid, sharpness_probe, summarize,
                                  sweep)
from exptail.numerics import arctan_fracint, quad_integral
from exptail.precision import PrecisionContext, as_real
from exptail.remainders import r_frac

_RAW = st.builds(lambda negative, man, exp: from_man_exp(-man if negative else man, exp),
                 st.booleans(), st.integers(1, 2**300), st.integers(-400, 400))


@settings(max_examples=300, deadline=None)
@given(a=_RAW, b=_RAW, near=st.integers(-3, 3))
def test_magnitude_comparison_matches_mpf(a, b, near):
    # also against values sharing a's leading bit and exponent
    c = from_man_exp(max(1, a[1] + near), a[2])
    for u, v in ((a, b), (b, a), (a, c), (c, a), (a, a)):
        assert inequalities._above(u, v) == (abs(mp.make_mpf(u)) > abs(mp.make_mpf(v)))


_SIDES = st.one_of(st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1", "-1"]).map(mpf),
                   st.floats(allow_nan=False, allow_infinity=False).map(mpf))


@settings(max_examples=300, deadline=None)
@given(lhs=_SIDES, rhs=_SIDES, scale=st.sampled_from([None, "1", "-1", "1.0000001", "0.9999999"]))
def test_row_verdict_matches_the_mpf_rule(lhs, rhs, scale):
    # margin > err_bound is PASS, margin < -err_bound FAIL, else INDET, with
    # err_bound = 100 target_rel_err max(|lhs|, |rhs|), all at wp
    ctx = PrecisionContext(53)
    if scale is not None:
        rhs = lhs * mpf(scale)
    row = inequalities._result("ALZER", {}, mpf(1), lhs, rhs, ctx)
    with mp.workprec(53 + 32):
        margin = lhs - rhs
        err_bound = mp.make_mpf(ctx.err_scale) * max(abs(lhs), abs(rhs))
        expected = "PASS" if margin > err_bound else "FAIL" if margin < -err_bound else "INDET"
    assert row.status == expected
    if err_bound == err_bound:  # not nan
        assert row.err_bound == ctx.finalize(err_bound)


def test_exact_constants():
    assert alzer_constant(1) == Fraction(2, 3)
    assert gen_k_constant(2, 2) == Fraction(3, 10)
    assert incgamma_constant(2, 1) == Fraction(8, 9)
    assert cor26_constant(1, 2) == Fraction(24, 3 ** 1 * 6)
    assert neg_gen_k_constant(3, 1) == Fraction(3, 4)
    assert chebyshev_constant_exact(0, 1, 1) == Fraction(2, 3)


def test_product_constants_equal_their_factorial_forms():
    f = math.factorial
    for n in range(40):
        for k in range(n + 1):
            assert gen_k_constant(n, k) == Fraction(f(n + 1) ** 2, f(n + k + 1) * f(n - k + 1))
            assert neg_gen_k_constant(n, k) == Fraction(f(n) ** 2, f(n - k) * f(n + k))
        for k in range(41):
            assert cor26_constant(n, k) == \
                Fraction(f(n + k + 1), f(n + 2)) / Fraction(n + 2) ** (k - 1)
            assert chebyshev_constant_exact(n, k, 3) == \
                Fraction(f(n + k + 1) * f(n + 4), f(n + 1) * f(n + k + 4))


@pytest.mark.parametrize("name,k", [("GEN_K", 1), ("NEG_GEN_K", 1), ("COR_26", 2)])
def test_row_at_order_one_million_is_quick(ctx, name, k):
    # the exact constants cost the k factors of their products, not (n+k)!
    start = time.perf_counter()
    row = evaluate_check(name, ctx, {"n": 10**6, "k": k, "x": 1})
    assert row.status == "PASS"
    assert time.perf_counter() - start < 2


def test_constant_cross_identities_zero_error():
    assert constant_cross_identities(12) == []


def test_interp_power_requires_integer_shift():
    with pytest.raises(UsageError):
        interp_constant_power(2, 1, Fraction(1, 2))  # a*theta = 1/2 not integral
    c2 = interp_constant_power(1, 2, Fraction(1, 2))
    assert c2 * gen_k_constant(2, 1) == 1


def test_interp_constant_matches_exact_power(ctx):
    c = interp_constant(1, 2, mpf("0.5"), ctx)
    assert rel_err(c**2, interp_constant_power(1, 2, Fraction(1, 2))) < 10 * ctx.target_rel_err


def test_chebyshev_constant_float_vs_exact(ctx):
    assert rel_err(chebyshev_constant(2, 1, 3, ctx),
                   chebyshev_constant_exact(2, 1, 3)) < 10 * ctx.target_rel_err


@pytest.mark.parametrize("p", [mpf(3) + mpf(2) ** -60, mpf(2) ** 60 + mpf("0.5")])
def test_chebyshev_row_near_an_integer_order_takes_its_own_constant(ctx, p):
    # float(p) == int(p) holds at these orders, and a test on it gave the
    # row the exact constant of the integer next to p
    row = evaluate_check("CHEBYSHEV_GEN", ctx, {"p": p, "a": 1, "beta": 2, "x": 1})
    with ctx.work():
        expected = chebyshev_constant(p, 1, 2, ctx) * r_frac(p + 1, 1, ctx) * r_frac(p + 2, 1, ctx)
    assert rel_err(row.rhs, expected) < 100 * ctx.target_rel_err


def test_alzer_spot_closed_forms(ctx):
    # R_0 = e-1, R_1 = e-2, R_2 = e-5/2 at x=1
    r = evaluate_check("ALZER", ctx, {"n": 1, "x": 1})
    expected = (mp.e - 1) * (mp.e - mpf(5) / 2) - Fraction(2, 3) * (mp.e - 2) ** 2
    assert r.status == "PASS"
    assert rel_err(r.margin, expected) < mpf("1e-60")
    assert r.ratio > 1


def test_two_sided_spot(ctx):
    r = evaluate_check("TWO_SIDED_35", ctx, {"nu": 1, "x": 1})
    assert r.status == "PASS"
    # binding side at nu=1, x=1 is the lower bound: e-1 vs 2(e-2)
    assert rel_err(r.lhs, mp.e - 1) < mpf("1e-60")
    assert rel_err(r.rhs, 2 * (mp.e - 2)) < mpf("1e-60")


def test_gen_k_degenerate_k0_indeterminate(ctx):
    assert evaluate_check("GEN_K", ctx, {"n": 3, "k": 0, "x": 1}).status == "INDET"


def test_interp_theta_edges_indeterminate(ctx):
    for theta in (0, 1):
        r = evaluate_check("INTERP", ctx, {"nu": mpf("0.5"), "a": 1, "theta": theta, "x": 2})
        assert r.status == "INDET"


def test_gautschi_chain(ctx):
    for k in (0, 1, 2):
        r = evaluate_check("GAUTSCHI_K", ctx, {"n": 4, "k": k, "x": mpf("2.5")})
        assert r.status == "PASS"


def test_sandwich_spot(ctx):
    for x in (mpf("0.1"), mpf(1), mpf(10)):
        assert evaluate_check("SANDWICH_49", ctx, {"n": 3, "x": x}).status == "PASS"


def test_cor26_implies_alzer(ctx):
    # the k=2 case shifted down by one order is the basic product
    # inequality scaled by (n+1)/(n+2); margins must be proportional
    for n in (2, 5, 8):
        for x in (mpf("0.5"), mpf(4)):
            m26 = evaluate_check("COR_26", ctx, {"n": n - 1, "k": 2, "x": x})
            mal = evaluate_check("ALZER", ctx, {"n": n, "x": x})
            assert m26.status == "PASS" and mal.status == "PASS"
            scaled = m26.margin * Fraction(n + 1, n + 2)
            assert rel_err(scaled, mal.margin) < 100 * ctx.target_rel_err


def test_fracmono_all_test_functions(ctx):
    for f in ("exp", "arctan", "clamp"):
        for a in (mpf("0.5"), mpf("1.5")):
            for x in (mpf("0.4"), mpf(3)):
                r = evaluate_check("FRACMONO_34", ctx, {"a": a, "f": f, "x": x})
                assert r.status == "PASS", (f, a, x)
    with pytest.raises(UsageError):
        evaluate_check("FRACMONO_34", ctx, {"a": 1, "f": "cos", "x": 1})


_FRACINT_ORDERS = ("0.5", "1", "1.5", "2.5", "4.7", "20")
# across the arctan split at x = 2 and the clamp kink at x = 1
_FRACINT_X = ("1e-3", "0.7", "1", "1.4835", "1.999", "2", "2.0001", "30", "1e3")
_FRACINT_POINTS = [(a, x) for a in _FRACINT_ORDERS for x in _FRACINT_X]


def _fracint_by_quadrature(fname, order, x, ctx):
    # the defining integral I^order f(x), split at the clamp kink
    fn = {"arctan": mp.atan, "clamp": lambda t: min(t, mpf(1))}[fname]
    with ctx.work():
        pieces = [(0, x)] if fname == "arctan" or x <= 1 else [(0, 1), (1, x)]
        total = sum(quad_integral(lambda t: (x - t) ** (order - 1) * fn(t), lo, hi,
                                  order - 1 if hi == x else 0, ctx).value for lo, hi in pieces)
        return total / mp.gamma(order)


@pytest.mark.parametrize("fname", ["arctan", "clamp"])
@pytest.mark.parametrize("bits,points", [
    (53, _FRACINT_POINTS),
    (256, _FRACINT_POINTS),
    # few points at 1024 bits: the oracle costs seconds per point there
    (1024, [("1.5", "1.999"), ("2.5", "2"), ("20", "30")]),
])
def test_fracint_closed_forms_against_quadrature(fname, bits, points):
    # FRACMONO's arctan series and clamp closed form against the quadrature
    # oracle, which runs 32 bits wider so its own error does not count
    ctx, oracle_ctx = PrecisionContext(bits), PrecisionContext(bits + 32)
    for a, x in points:
        order, x = as_real(a, ctx), as_real(x, ctx)
        expected = _fracint_by_quadrature(fname, order, x, oracle_ctx)
        assert rel_err(Evaluator(ctx)._fracint(fname, order, x), expected) \
            <= ctx.target_rel_err, (a, x)


def test_arctan_fracint_limits_and_domain(ctx):
    # order 0 is arctan itself, on both sides of the split at x = 2
    for x in (mpf("0.5"), mpf(3)):
        assert rel_err(arctan_fracint(0, x, ctx), mp.atan(x)) <= ctx.target_rel_err
    for order, x in ((-1, 1), ("nan", 1), (1, 0), (1, "inf")):
        with pytest.raises(DomainError):
            arctan_fracint(mpf(order), mpf(x), ctx)
    # the caller's ambient precision must not leak into the split point
    x = ctx.finalize(mpf(14) / 3)
    with mp.workprec(53):
        at_53 = arctan_fracint(mpf("1.5"), x, ctx)
    assert at_53 == arctan_fracint(mpf("1.5"), x, ctx)


def test_fracmono_sweep_runs_no_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature on the catalog path")

    monkeypatch.setattr(numerics, "quad_integral", no_quadrature)
    monkeypatch.setattr(inequalities, "quad_integral", no_quadrature, raising=False)
    rows = default_sweep(["FRACMONO_34"], PrecisionContext(256))
    assert len(rows) == 175 and all(r.status == "PASS" for r in rows)


def test_neg_family_and_corrected_constants(ctx):
    # the magnitude family satisfies the Cauchy-Schwarz constant n/(n+1)
    # and stays strictly below the (n+1)/(n+2) constant of the positive
    # family: the catalog encodes the two-sided enclosure
    for n in (1, 3, 6):
        for x in (mpf("0.01"), mpf(1), mpf(20)):
            assert evaluate_check("NEG_ALZER", ctx, {"n": n, "x": x}).status == "PASS"
            assert evaluate_check("NEG_SANDWICH", ctx, {"n": n, "x": x}).status == "PASS"
    r = evaluate_check("NEG_GEN_K", ctx, {"n": 4, "k": 2, "x": 2})
    assert r.status == "PASS"


def test_kim_checks(ctx):
    base = {"nu": mpf("0.5"), "x": 1, "y": 2}
    assert evaluate_check("KIM_37", ctx, base).status == "PASS"
    assert evaluate_check("KIM_38", ctx, dict(base, p=2)).status == "PASS"
    assert evaluate_check("KIM_39", ctx, {"nu": mpf("0.5"), "x": 1}).status == "PASS"
    assert evaluate_check("KIM_40", ctx, base).status == "PASS"
    # the doubling bound is tight on the diagonal
    diag = evaluate_check("KIM_40", ctx, {"nu": mpf("0.5"), "x": 1, "y": 1})
    assert diag.status == "INDET"


def test_pade_row_direction(ctx):
    assert evaluate_check("PADE_ROW_45", ctx, {"n": 2, "x": mpf("1.5")}).status == "PASS"
    assert evaluate_check("PADE_ROW_45", ctx, {"n": 2, "x": mpf("4.5")}).status == "PASS"


@pytest.mark.parametrize("bits", [53, 256])
def test_a_false_constant_still_fails_at_four_times_the_bits(bits, monkeypatch, caplog):
    # ALZER's constant scaled by 1 + 2**-20 is false near x = 0, where the
    # ratio tends to the constant itself: the row escalates twice and fails
    cdef = CATALOG["ALZER"]

    def scaled(p, ev):
        sides = cdef.evaluate(p, ev)

        def scaled_sides(x):
            lhs, rhs = sides(x)
            return lhs, rhs * (1 + mpf(2) ** -20)
        return scaled_sides

    monkeypatch.setitem(CATALOG, "ALZER", dataclasses.replace(cdef, evaluate=scaled))
    ctx = PrecisionContext(bits)
    with caplog.at_level(logging.INFO, logger="exptail"):
        row = evaluate_check("ALZER", ctx, {"n": 2, "x": as_real("1e-8", ctx)})
    assert row.status == "FAIL" and row.margin < 0
    # the values are the 4x evaluation's: its error bound is far below this one's
    assert row.err_bound < ctx.target_rel_err ** 3 * abs(row.rhs)
    assert [r.getMessage() for r in caplog.records] == \
        [f"rows escalated from {bits} bits: 1 to {4 * bits}"]


def test_unknown_check_and_bad_params(ctx):
    with pytest.raises(UsageError):
        evaluate_check("NOSUCH", ctx, {"x": 1})
    with pytest.raises(UsageError):
        evaluate_check("ALZER", ctx, {"n": 0, "x": 1})
    with pytest.raises(UsageError):
        evaluate_check("ALZER", ctx, {"n": 1})  # x missing
    with pytest.raises(UsageError):
        evaluate_check("GEN_K", ctx, {"n": 2, "k": 5, "x": 1})


def test_checkid_object(ctx):
    r = evaluate_check(CheckId("REVERSE_43", {"n": 2, "x": 3}), ctx)
    assert r.status == "PASS"


def test_sweep_alzer_default_style_grid(ctx):
    grid = parse_grid("n=1..8;x=log(1e-3,30,25)", ctx)
    results = sweep(["ALZER"], grid, ctx)
    assert len(results) == 200
    assert summarize(results)["FAIL"] == 0
    # deterministic ordering by (id, grid index)
    assert results[0].params["n"] == 1
    assert results[-1].params["n"] == 8


def test_sweep_two_ids(ctx):
    grid = parse_grid("n=2..3;x=log(0.1,10,4)", ctx)
    results = sweep(["REVERSE_43", "SANDWICH_49"], grid, ctx)
    assert len(results) == 16
    assert summarize(results)["FAIL"] == 0
    assert [r.check for r in results[:8]] == ["REVERSE_43"] * 8


def test_sweep_skips_inadmissible_combinations(ctx):
    grid = parse_grid("n=2..3;k=1..3;x=lin(1,1,1)", ctx)
    results = sweep(["GEN_K"], grid, ctx)
    # k <= n filters (2,3): 2*3 - 1 = 5 admissible points
    assert len(results) == 5


def test_sweep_fills_unnamed_axes_from_defaults(ctx):
    # only x is pinned; the order parameter keeps its default range 1..8
    results = sweep(["ALZER"], parse_grid("x=lin(1,1,1)", ctx), ctx)
    assert [r.params["n"] for r in results] == list(range(1, 9))
    # the two-variable bounds keep their default y pairs
    results = sweep(["KIM_37"], parse_grid("nu=lin(0.5,0.5,1);x=lin(1,1,1)", ctx), ctx)
    assert len(results) == 3 and all(r.status == "PASS" for r in results)


def test_sweep_errors(ctx):
    with pytest.raises(UsageError):
        parse_grid("", ctx)
    with pytest.raises(UsageError):
        parse_grid("n=5..2", ctx)
    with pytest.raises(UsageError):
        parse_grid("x=geom(1,2,3)", ctx)
    with pytest.raises(UsageError):
        sweep(["NOSUCH"], parse_grid("x=lin(1,1,1)", ctx), ctx)
    with pytest.raises(UsageError):
        sweep(["ALZER"], parse_grid("nn=1..3;x=lin(1,1,1)", ctx), ctx)  # unknown axis
    with pytest.raises(UsageError):
        GridAxis("x", ())
    with pytest.raises(UsageError):
        ParamGrid(())


def test_log_grid_endpoints(ctx):
    values = log_grid("1e-3", "30", 25, ctx)
    assert len(values) == 25
    assert rel_err(values[0], mpf("1e-3")) < mpf("1e-70")
    assert rel_err(values[-1], 30) < mpf("1e-70")
    assert all(b > a for a, b in zip(values, values[1:]))


def test_default_sweep_subset_all_pass(ctx):
    results = default_sweep(["ALZER", "REVERSE_43", "LINEAR_44", "RATIO_32"], ctx)
    counts = summarize(results)
    assert counts["FAIL"] == 0 and counts["ERROR"] == 0 and counts["INDET"] == 0
    assert counts["total"] == 200 * 3 + 100


def test_catalog_covers_documented_ids():
    expected = {
        "ALZER", "GAUTSCHI_K", "GEN_K", "KUMMER_FORM", "INCGAMMA_FORM", "FRACINT_FORM",
        "CHEBYSHEV_GEN", "INTERP", "COR_25", "COR_26", "COR_27", "PROD_28", "REFINED_31",
        "RATIO_32", "FRACMONO_34", "TWO_SIDED_35", "STRENGTH_36", "KIM_37", "KIM_38",
        "KIM_39", "KIM_40", "NEG_ALZER", "NEG_GEN_K", "NEG_SANDWICH", "REVERSE_43",
        "LINEAR_44", "PADE_ROW_45", "SANDWICH_49", "PROB15_BOUNDS",
    }
    assert expected == set(CHECK_IDS)


def test_sharpness_alzer_to_zero(ctx):
    for n in (1, 4):
        res = sharpness_probe("ALZER", "zero", ctx, {"n": n})
        assert res.converged
        assert abs(res.limit - Fraction(n + 1, n + 2)) < mpf("1e-6")
        assert abs(res.limit - res.documented_limit) < mpf("1e-6")


def test_sharpness_reverse_to_inf(ctx):
    res = sharpness_probe("REVERSE_43", "inf", ctx, {"n": 2})
    assert abs(res.limit - 1) < mpf("1e-3")
    assert abs(res.samples[-1][1] - 1) < mpf("1e-3")


def test_sharpness_neg_alzer_to_inf(ctx):
    res = sharpness_probe("NEG_ALZER", "inf", ctx, {"n": 2})
    assert abs(res.limit - Fraction(2, 3)) < mpf("1e-6")


def test_sharpness_usage_errors(ctx):
    with pytest.raises(UsageError):
        sharpness_probe("LINEAR_44", "zero", ctx, {"n": 2})
    with pytest.raises(UsageError):
        sharpness_probe("ALZER", "sideways", ctx, {"n": 2})
    with pytest.raises(UsageError):
        sharpness_probe("NOSUCH", "zero", ctx, {})


@pytest.mark.parametrize("name,params,accessor,calls", [
    ("KUMMER_FORM", {"n": 3, "k": 1, "x": mpf(2)}, "_kum", 3),
    ("KIM_39", {"nu": mpf("0.5"), "x": mpf(2)}, "_rf", 2),
])
def test_sharp_ratio_evaluates_the_check_once(ctx, monkeypatch, name, params, accessor, calls):
    cdef = CATALOG[name]
    counted = []
    original = getattr(Evaluator, accessor)

    def counting(ev, *args):
        counted.append(args)
        return original(ev, *args)

    monkeypatch.setattr(Evaluator, accessor, counting)
    with ctx.work():
        ratio = cdef.sharp_ratio(params, Evaluator(ctx))
    assert len(counted) == calls
    with ctx.work():
        lhs, rhs = cdef.evaluate(params, Evaluator(ctx))(params["x"])
        assert ratio == lhs / rhs


@pytest.mark.parametrize("constant,params", [
    (interp_constant, ((1, 2, Fraction(1, 2)), (mpf(1), mpf(2), mpf("0.5")))),
    (cor25_constant, ((Fraction(1, 2), 1, 3), (mpf("0.5"), mpf(1), mpf(3)))),
    (cor27_constant, ((2, Fraction(37, 10), Fraction(3, 2)), (2, "3.7", mpf("1.5")))),
    (chebyshev_constant, ((Fraction(-1, 2), 1, 2), (mpf("-0.5"), 1, mpf(2)))),
])
def test_sharp_constants_cached_per_parameter_point(constant, params):
    # equal parameter values of different Python types share one entry
    ctx = PrecisionContext(200)
    ev, before = Evaluator(ctx), Evaluator.cache_info()
    first = ev._constant(constant, *params[0])
    second = ev._constant(constant, *params[1])
    after = Evaluator.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert first is second
    assert constant(*(as_real(v, ctx) for v in params[1]), ctx)._mpf_ == first._mpf_


def test_bounded_cache_overflow_keeps_values(monkeypatch):
    # REVERSE_43 with n = 1..8 reads r_tail orders 0..9 at every x, so this
    # grid needs more r_tail values than the old bounded cache held (8192);
    # the sweep's evaluator keeps each, so each is computed exactly once
    ctx = PrecisionContext(53)
    count = 8192 // 10 + 1
    grid = parse_grid(f"n=1..8;x=log(1e-3,30,{count})", ctx)
    computed = []
    original = Evaluator._rung

    def counting(ev, a, shift, x):
        if isinstance(a, int) and shift == 0:  # an r_tail value, read by _rt
            computed.append((a, x._mpf_))
        return original(ev, a, shift, x)

    monkeypatch.setattr(Evaluator, "_rung", counting)
    fresh = sweep(["REVERSE_43"], grid, ctx)
    assert len(computed) == len(set(computed)) == 10 * count
    again = sweep(["REVERSE_43"], grid, ctx)
    assert len(computed) == 2 * 10 * count

    def key(r):
        return r.x._mpf_, r.lhs._mpf_, r.rhs._mpf_, r.margin._mpf_, r.status

    assert len(fresh) == 8 * count
    assert [key(r) for r in again] == [key(r) for r in fresh]
    for row in fresh[::401]:
        alone = evaluate_check(row.check, ctx, dict(row.params, x=row.x))
        assert key(alone) == key(row), row


def test_cold_sweep_takes_each_exponential_once_per_x(monkeypatch):
    # PADE_ROW_45 reads e**x and INCGAMMA_FORM's gamma(v, x) reads e**-x at
    # every grid x, for many orders each
    ctx = PrecisionContext(256)
    grid = Evaluator(ctx).x_grid
    calls = Counter()
    exp = mp.exp

    def counted(x):
        if sys._getframe(1).f_globals["__name__"] == "exptail.inequalities":
            calls[x._mpf_] += 1
        return exp(x)

    monkeypatch.setattr(mp, "exp", counted)
    default_sweep(None, ctx)
    assert [calls[x._mpf_] for x in grid] == [1] * len(grid)
    assert [calls[mpf_neg(x._mpf_)] for x in grid] == [1] * len(grid)


def test_cold_sweep_takes_each_gamma_constant_once(monkeypatch):
    # KIM_37 and KIM_39 read Gamma(nu + 2) from the sweep's memo
    calls = []
    gamma = inequalities.gamma_fn
    monkeypatch.setattr(inequalities, "gamma_fn",
                        lambda *args: calls.append(args) or gamma(*args))
    default_sweep(None, PrecisionContext(256))
    assert len(calls) == 363


@pytest.mark.parametrize("bits", [53, 256])
def test_parameters_just_below_2_to_the_bits_are_evaluated(bits):
    # 2**bits - 1 plus a small integer is exact at bits + GUARD_BITS; one
    # more is refused
    ctx = PrecisionContext(bits)
    below, at = as_real(2**bits - 1, ctx), as_real(2**bits, ctx)
    for name, point, refused in [
            ("RATIO_32", {"a": below, "x": mpf("0.5")}, {"a": at}),
            ("KIM_37", {"nu": mpf("0.5"), "x": below, "y": mpf(2)}, {"x": at}),
            ("REVERSE_43", {"n": 2**bits - 1, "x": mpf("0.5")}, {"n": 2**bits})]:
        assert evaluate_check(name, ctx, point).status in ("PASS", "INDET")
        with pytest.raises(UsageError, match=f"2\\*\\*{bits}"):
            evaluate_check(name, ctx, {**point, **refused})


@pytest.mark.parametrize("n", [2.5, mpf("2.5"), "2.5", "two"])
def test_non_integral_order_rejected(ctx, n):
    with pytest.raises(UsageError):
        evaluate_check("ALZER", ctx, {"n": n, "x": 1})


@pytest.mark.parametrize("n", [2, mpf(2), "2", 2.0])
def test_integral_order_forms_accepted(ctx, n):
    res = evaluate_check("ALZER", ctx, {"n": n, "x": 1})
    assert res.params == {"n": 2} and type(res.params["n"]) is int
    assert res.status == "PASS"


def test_fractional_order_grid_keeps_integer_rows(ctx):
    results = sweep(["ALZER"], parse_grid("n=lin(1,3,5);x=lin(1,1,1)", ctx), ctx)
    assert [r.params for r in results] == [{"n": 1}, {"n": 2}, {"n": 3}]


def test_grid_value_no_kind_reads_is_skipped(ctx):
    # an unhashable value is refused by admission like any value its kind
    # cannot read
    grid = ParamGrid((GridAxis("n", ([1], 2)), GridAxis("x", (mpf(1),))))
    assert [r.params for r in sweep(["ALZER"], grid, ctx)] == [{"n": 2}]


def test_a_run_is_its_own_only_under_its_check_at_its_evaluator(ctx):
    # a sweep's run, passed back as params, has only its x judged; under
    # another check's name, with overrides (as sharpness_probe passes them)
    # or at another evaluator it is admitted in full, as a plain dict is
    ev = Evaluator(ctx)
    run = inequalities._Run(CATALOG["ALZER"], {"n": 2, "x": 1}, ev)
    assert ev._admit("ALZER", run)[0] is run
    for at in ({}, {"x": mpf(2), "y": mpf(2)}):
        with pytest.raises(UsageError, match="check GEN_K needs parameter 'k'"):
            ev._admit("GEN_K", run, **at)
    with pytest.raises(UsageError, match="check GEN_K needs parameter 'k'"):
        evaluate_check("GEN_K", ctx, run, ev)
    assert evaluate_check("NEG_ALZER", ctx, run, ev) == \
        evaluate_check("NEG_ALZER", ctx, {"n": 2, "x": 1})
    other, p = ev._admit("ALZER", run, n=3, x=mpf(2))
    assert other is not run and other.point == {"n": 3} and p == {"n": 3, "x": 2}
    assert Evaluator(ctx)._admit("ALZER", run)[0] is not run
    assert evaluate_check("ALZER", PrecisionContext(53), run) == \
        evaluate_check("ALZER", PrecisionContext(53), {"n": 2, "x": 1})


def test_each_default_point_validated_and_evaluated_once(monkeypatch):
    # a sweep's evaluator admits each point less x once: validate sees the
    # point without x, once per distinct (check, params less x)
    ctx = PrecisionContext(53)
    validated, evaluated = [], []
    for name, cdef in list(CATALOG.items()):
        def counting(p, _validate=cdef.validate, _name=name):
            assert "x" not in p
            validated.append((_name, tuple((k, getattr(v, "_mpf_", v)) for k, v in p.items())))
            return _validate(p)

        monkeypatch.setitem(CATALOG, name, dataclasses.replace(cdef, validate=counting))
    original = inequalities.evaluate_check

    def counted(check, *args, **kwargs):
        evaluated.append(check)
        return original(check, *args, **kwargs)

    monkeypatch.setattr(inequalities, "evaluate_check", counted)
    results = default_sweep(None, ctx)
    points = [(n, pt) for n in CHECK_IDS for pt in CATALOG[n].default_points(Evaluator(ctx))]
    assert evaluated == [r.check for r in results] == [n for n, _ in points]
    distinct = dict.fromkeys(
        (n, tuple((k, getattr(v, "_mpf_", v)) for k, v in pt.items() if k != "x"))
        for n, pt in points)
    assert validated == list(distinct)
    assert len(validated) < len(evaluated) // 2


def test_sweep_skips_inadmissible_x_but_rejects_it_where_unchecked(ctx):
    # the two-variable bounds validate x > 0, so a sweep skips x <= 0 there;
    # a check that does not validate x still rejects it as a usage error
    grid = parse_grid("nu=lin(0.5,0.5,1);x=lin(-1,1,3)", ctx)
    assert [r.x for r in sweep(["KIM_37"], grid, ctx)] == [1, 1, 1]
    with pytest.raises(UsageError):
        sweep(["ALZER"], parse_grid("x=lin(-1,1,3)", ctx), ctx)


def _result_by_operators(lhs, rhs, ctx):
    """The row bookkeeping written with mpf operators inside ``ctx.work()``."""
    with ctx.work():
        margin = lhs - rhs
        err_bound = 100 * ctx.target_rel_err * max(abs(lhs), abs(rhs))
        ratio = lhs / rhs if rhs != 0 else None
        status = "PASS" if margin > err_bound else "FAIL" if margin < -err_bound else "INDET"
    return ([ctx.finalize(v)._mpf_ for v in (lhs, rhs, margin, err_bound)],
            None if ratio is None else ctx.finalize(ratio)._mpf_, status)


_SIDES = st.one_of(
    st.sampled_from([mpf(0), mpf(1), mpf(-1), mpf("nan")]),
    st.builds(lambda m, e, width: mp.make_mpf(from_man_exp(m | 1, e - width)),
              st.integers(-(2 ** 300), 2 ** 300), st.integers(-200, 200), st.integers(1, 300)),
)


@settings(max_examples=300, deadline=None)
@given(lhs=_SIDES, rhs=_SIDES, near=st.booleans(), bits=st.sampled_from([53, 256]))
# lhs/rhs lies just above the midpoint 1 + 2**-53 of two 53-bit values:
# rounded first to 85 bits it falls on the midpoint and rounds down
@example(lhs=1 + mpf(2) ** -53 + mpf(2) ** -93, rhs=mpf(1), near=False, bits=53)
def test_row_bookkeeping_matches_operators(lhs, rhs, near, bits):
    ctx = PrecisionContext(bits)
    if near and mp.isfinite(rhs):  # sides that differ by about the error bound
        with mp.workprec(1000):
            lhs = rhs * (1 + 50 * ctx.target_rel_err * (1 if lhs > 0 else -1))
    res = inequalities._result("ALZER", {"n": 1}, mpf(2), lhs, rhs, ctx)
    sides, ratio, status = _result_by_operators(lhs, rhs, ctx)
    assert [v._mpf_ for v in (res.lhs, res.rhs, res.margin, res.err_bound)] == sides
    assert (None if res.ratio is None else res.ratio._mpf_) == ratio
    assert res.status == status and res.params == {"n": 1}
