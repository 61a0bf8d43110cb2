"""Exploration reports: internal cross-links to the inequality catalog,
the Runge-Kutta error identity, and report plumbing."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_div, round_nearest

from conftest import rel_err
from exptail.errors import DomainError, UsageError
from exptail.explorer import (problem1_monotonicity, problem5_pade_cm, problem7_limit,
                              problem8_gautschi_k, problem9_limit, problem11_gdiffs,
                              problem12_row_monotone, problem15_range, rk_error_demo)
from exptail.inequalities import evaluate_check
from exptail.pade import eval_approximant, pade_exp
from exptail.precision import PrecisionContext
from exptail.remainders import r_tail


def test_rk_identity_at_standard_points(ctx):
    for lam_h in ("-2", "-0.5", "0.1", "1", "2"):
        report = rk_error_demo(lam_h, 1, 1, ctx)
        assert report.diagnostics["relative_agreement"] < mpf("1e-10")


def test_rk_frozen_spot(ctx):
    report = rk_error_demo(1, mpf("0.1"), 1, ctx)
    error, reference, agreement = report.rows[0]
    assert rel_err(error, r_tail(4, mpf("0.1"), ctx)) < mpf("1e-12")
    assert agreement < mpf("1e-12")


def test_rk_small_step_leading_term(ctx):
    # error / h**5 -> 1/120 as h -> 0 (lambda = 1, y0 = 1)
    vals = []
    for h in (mpf("1e-3"), mpf("1e-4")):
        err = rk_error_demo(1, h, 1, ctx).rows[0][0]
        vals.append(err / h**5)
    assert abs(vals[0] - mpf(1) / 120) < mpf("1e-3")
    assert abs(vals[1] - mpf(1) / 120) < mpf("1e-4")


def test_rk_zero_lambda_exact(ctx):
    report = rk_error_demo(0, mpf("0.5"), 3, ctx)
    assert report.rows[0][0] == 0
    assert report.diagnostics["relative_agreement"] == 0


def test_rk_rejects_bad_step(ctx):
    with pytest.raises(DomainError):
        rk_error_demo(1, 0, 1, ctx)


def test_problem1(ctx):
    report = problem1_monotonicity(2, None, ctx)
    assert report.diagnostics["min_margin"] > 0
    assert report.diagnostics["margin_sign_changes"] == 0
    assert report.diagnostics["ratio_strictly_increasing_on_samples"]
    with pytest.raises(UsageError):
        problem1_monotonicity(1, None, ctx)


def test_problem1_boundary_probe(ctx):
    small = problem1_monotonicity(2, [mpf("1e-6"), mpf("1e-5")], ctx)
    # margins shrink toward zero at the left edge but stay positive
    assert 0 < small.rows[0][1] < small.rows[1][1]


def test_problem5_moebius_case(ctx):
    report = problem5_pade_cm(1, 3, None, ctx)
    assert report.diagnostics["pole"] == 2
    assert all(report.diagnostics["all_nonnegative_by_order"].values())
    zero_order = problem5_pade_cm(1, 0, None, ctx)
    assert all(row[1] > 0 for row in zero_order.rows)


def _rounded(q: Fraction, bits: int) -> mpf:
    """The rational q rounded once to nearest at ``bits``."""
    return mp.make_mpf(mpf_div(from_int(q.numerator), from_int(q.denominator), bits,
                               round_nearest))


def _exact_derivatives(appr, x, k: int) -> list[Fraction]:
    """d0..dk of f = num/den at the dyadic x in Fraction arithmetic, from
    Leibniz's rule on den f = num: den f^(i) = num^(i) - sum_{j>=1} C(i, j)
    den^(j) f^(i-j)."""
    sign, man, exp, _ = x._mpf_
    xq = (-1) ** sign * man * Fraction(2) ** exp

    def derivative(coeffs, i):
        return sum(c * math.perm(j, i) * xq ** (j - i) for j, c in enumerate(coeffs) if j >= i)

    f = []
    for i in range(k + 1):
        f.append((derivative(appr.num, i) - sum(math.comb(i, j) * derivative(appr.den, j)
                                                * f[i - j] for j in range(1, i + 1)))
                 / derivative(appr.den, 0))
    return f


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("n", [1, 2, 11])
def test_problem5_derivatives_are_the_rounded_exact_values(n, bits):
    ctx = PrecisionContext(bits)
    report = problem5_pade_cm(n, 4, None, ctx)
    assert "step" not in report.params
    assert len(report.rows) == 9
    appr = pade_exp(n, n)
    for x, *derivs in report.rows:
        # rounded once to nearest, so each within 2**-bits relative
        exact = _exact_derivatives(appr, x, 4)
        assert [d._mpf_ for d in derivs] == [_rounded(q, bits)._mpf_ for q in exact]


@pytest.mark.parametrize("bits", [53, 256])
def test_problem5_moebius_derivatives_are_exact(bits):
    # [1/1] = (2 + x)/(2 - x) = -1 + 4/(2 - x): its pole is 2 and its k-th
    # derivative 4 k!/(2 - x)**(k+1)
    ctx = PrecisionContext(bits)
    report = problem5_pade_cm(1, 4, None, ctx)
    assert report.diagnostics["pole"] == 2
    for x, *derivs in report.rows:
        _, man, exp, _ = x._mpf_
        xq = man * Fraction(2) ** exp
        expected = [(2 + xq) / (2 - xq)] + [4 * math.factorial(k) / (2 - xq) ** (k + 1)
                                            for k in range(1, 5)]
        assert [d._mpf_ for d in derivs] == [_rounded(q, bits)._mpf_ for q in expected]


def test_problem5_pole_exclusion_logged(ctx):
    report = problem5_pade_cm(1, 1, [mpf("1.0"), mpf("2.5")], ctx)
    xs = [row[0] for row in report.rows]
    assert mpf("2.5") not in xs
    assert any("excluded" in note for note in report.notes)


def test_problem7(ctx):
    report = problem7_limit(40, 1, ctx)
    assert report.rows[0][0] == 10
    assert report.diagnostics["aitken_guess"] is not None
    # consecutive-ratio diagnostic approaches 1
    assert abs(report.rows[-1][3] - 1) < mpf("0.05")
    with pytest.raises(UsageError):
        problem7_limit(5, 1, ctx)
    with pytest.raises(DomainError):
        problem7_limit(20, 0, ctx)


def test_problem8_k3(ctx):
    report = problem8_gautschi_k(2, 3, None, ctx)
    assert report.diagnostics["violations"] == 0
    probe = report.diagnostics["x_to_zero_ratio_probe"]
    assert rel_err(probe["1.0e-5"], probe["predicted_limit"]) < mpf("1e-4")


def test_problem8_k2_matches_catalog(ctx):
    xs = [mpf("0.5"), mpf(1), mpf(5)]
    report = problem8_gautschi_k(3, 2, xs, ctx)
    for (x, qmargin, _) in report.rows:
        ref = evaluate_check("GAUTSCHI_K", ctx, {"n": 3, "k": 2, "x": x})
        assert qmargin > 0
        assert rel_err(qmargin, ref.margin) < 100 * ctx.target_rel_err


def test_problem9(ctx):
    report = problem9_limit(mpf("0.5"), 0, 40, ctx)
    assert len(report.rows) >= 3
    assert report.diagnostics["bounded_on_samples"] in (True, False)
    with pytest.raises(UsageError):
        problem9_limit(mpf("0.5"), 0, 9, ctx)


def test_problem11_identities(ctx):
    report = problem11_gdiffs(2, range(1, 9), [mpf(1)], ctx)
    assert report.diagnostics["identity_crosscheck_worst"] < mpf("1e-40")
    signs = report.diagnostics["sign_pattern"]
    # order 1 ties to the reverse product inequality, order 2 to the cubic
    # reduction; both are proven positive in the forward convention
    assert signs[1]["forward_all_positive"]
    assert signs[2]["forward_all_positive"]


def test_problem12(ctx):
    report = problem12_row_monotone(range(1, 5), 9, ctx)
    assert report.diagnostics["min_margin"] > 0
    # exact rational spot check: [1/1](1) = 3 vs [2/1](1) = 11/4
    a, b = pade_exp(1, 1), pade_exp(2, 1)
    diff = eval_approximant(a, 1, ctx) - eval_approximant(b, 1, ctx)
    assert rel_err(diff, mpf("0.25")) < mpf("1e-60")


def test_problem15(ctx):
    for n in (2, 3, 5):
        report = problem15_range(n, None, ctx)
        d = report.diagnostics
        assert d["bound_low"] <= d["observed_min"] <= d["observed_max"] <= d["bound_high"]
        assert not d["violations"]
    report = problem15_range(3, None, ctx)
    d = report.diagnostics
    # the left-edge boundary value of f is 2 for every order
    edge = problem15_range(5, [mpf("1e-6")], ctx)
    assert abs(edge.rows[0][1] - 2) < mpf("1e-4")
    with pytest.raises(UsageError):
        problem15_range(1, None, ctx)


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("h", ["1e-400", "1e-20", "1e-10", "0.1"])
@pytest.mark.parametrize("lam", ["1", "-1"])
def test_rk_agreement_survives_cancellation(bits, h, lam):
    # y1 - y0*e**z cancels down to R_4(z) ~ z**5/120; at h = 1e-20 the
    # unboosted step reported an error of 0 and an agreement of 1, and
    # h = 1e-400 lies below the float range
    ctx = PrecisionContext(bits)
    report = rk_error_demo(lam, h, "1.5", ctx)
    error, reference, agreement = report.rows[0]
    assert error > 0
    assert agreement < 100 * ctx.target_rel_err
