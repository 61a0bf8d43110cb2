"""The seeded point-evaluation stream of the ``points_256`` workload and its
correctness gate.

Every evaluation is one library call at 256 bits.  Its arguments are
x = 10**U with U uniform on [-20, 4], orders n in 1..16, a real order a in
(-1, 10] (v = a + 1 and b = a + 2 where a function needs v > 0 or b > 1)
and a second order m in 0..4.  U is stratified per function, with mirrored
offsets in neighbouring strata, so the work in a batch varies less from
seed to seed while every single draw is still uniform.

The gate recomputes each value by a route that shares no code with the
package: mpmath's ``hyp1f1`` / ``gammainc`` at boosted precision for the
remainder family, exact ``Fraction`` arithmetic for the rational
quantities.  A value passes when its relative error is at most
100 * target_rel_err, the package's own agreement threshold.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp, mpf

from exptail import numerics, pade, remainders

U_RANGE = (-20.0, 4.0)
N_RANGE = (1, 16)
A_RANGE = (-1.0, 10.0)
M_RANGE = (0, 4)

# name -> (argument names, call(point, ctx)).  Functions are looked up on
# their module at call time, so tracing wrappers installed later are seen.
FUNCTIONS = {
    "r_tail": (("n", "x"), lambda p, c: remainders.r_tail(p["n"], p["x"], c)),
    "r_frac": (("a", "x"), lambda p, c: remainders.r_frac(p["a"], p["x"], c)),
    "r_neg": (("n", "x"), lambda p, c: remainders.r_neg(p["n"], p["x"], c)),
    "r_obreshkov": (("n", "m", "x"),
                    lambda p, c: remainders.r_obreshkov(p["n"], p["m"], p["x"], c)),
    "q_value": (("n", "x"), lambda p, c: remainders.q_value(p["n"], p["x"], c)),
    "g_ratio": (("n", "x"), lambda p, c: remainders.g_ratio(p["n"], p["x"], c)),
    "eps_value": (("a", "x"), lambda p, c: remainders.eps_value(p["a"], p["x"], c)),
    "b_value": (("a", "x"), lambda p, c: remainders.b_value(p["a"], p["x"], c)),
    "lower_incomplete_gamma": (
        ("v", "x"), lambda p, c: numerics.lower_incomplete_gamma(p["v"], p["x"], c)),
    "kummer_1f1_one": (("b", "x"), lambda p, c: numerics.kummer_1f1_one(p["b"], p["x"], c)),
    "eval_approximant": (
        ("n", "m", "x"),
        lambda p, c: pade.eval_approximant(pade.pade_exp(p["n"], p["m"]), p["x"], c)),
    "aitken_row": (("n", "x"), lambda p, c: pade.aitken_row(p["n"], p["x"], c)),
    "cesaro_mean": (("n", "x"), lambda p, c: pade.cesaro_mean(p["n"], p["x"], c)),
}

# One fixed evaluation per function before timing starts, so lazily built
# mpmath constants are paid for outside the timed loop, as they would be
# for a library user who evaluates many points in one process.
WARMUP_POINT = {"n": 3, "m": 1, "a": 0.5, "v": 1.5, "b": 2.5, "x": 1.5}


def make_points(seed: int, count: int) -> list[dict]:
    """``count`` evaluations drawn from ``seed``: an equal share per function
    (the remainder spread over the first ones), U stratified within each
    function, then shuffled into one stream."""
    rng = random.Random(seed)
    names = list(FUNCTIONS)
    points = []
    for i, name in enumerate(names):
        share = count // len(names) + (1 if i < count % len(names) else 0)
        for j in range(share):
            # Strata 2k and 2k+1 take mirrored offsets r and 1 - r.  Every
            # draw is still uniform, but the pair's cost, which grows like
            # x at large x and is dominated by the top strata, varies far
            # less from seed to seed than with two independent offsets.
            offset = rng.random() if j % 2 == 0 else 1 - offset
            u = U_RANGE[0] + (U_RANGE[1] - U_RANGE[0]) * (j + offset) / share
            a = A_RANGE[1] - (A_RANGE[1] - A_RANGE[0]) * rng.random()
            points.append({
                "fn": name,
                "x": 10.0 ** u,
                "n": rng.randint(*N_RANGE),
                "a": a,
                "v": a + 1,  # lower_incomplete_gamma's v and kummer_1f1_one's b,
                "b": a + 2,  # rounded once here so both routes see the same float
                "m": rng.randint(*M_RANGE),
            })
    rng.shuffle(points)
    return points


def evaluate(point: dict, ctx):
    return FUNCTIONS[point["fn"]][1](point, ctx)


def args_of(point: dict) -> dict:
    """The arguments the function actually receives, for failure listings."""
    return {k: point[k] for k in FUNCTIONS[point["fn"]][0]}


# ---------------------------------------------------------------------------
# independent reference routes


def _remainder_tail(n, x):
    """R_n(x) = x**(n+1)/(n+1)! * 1F1(1; n+2; x)."""
    return x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(1, n + 2, x)


def _remainder_frac(a, x):
    """R_a(x) = x**(a+1)/Gamma(a+2) * 1F1(1; a+2; x)."""
    return x ** (a + 1) / mp.gamma(a + 2) * mp.hyp1f1(1, a + 2, x)


def _ref_eps(a, x):
    # R_a/R_{a+1} - (a+2)/x = (a+2)/x * (F(a+2) - F(a+3)) / F(a+3); the
    # difference cancels about log2(1/x) bits, added to the precision below.
    f2, f3 = mp.hyp1f1(1, a + 2, x), mp.hyp1f1(1, a + 3, x)
    return (a + 2) / x * (f2 - f3) / f3


def _ref_q(n, x):
    # log 1F1(1; n+2; x) / x with 1F1(1; b; x) = 1 + (x/b) 1F1(1; b+1; x).
    return mp.log1p(x / (n + 2) * mp.hyp1f1(1, n + 3, x)) / x


def _ref_neg(n, x):
    return mp.exp(-x) * x ** (n + 1) / mp.factorial(n + 1) * mp.hyp1f1(n + 1, n + 2, x)


def _ref_obreshkov(n, m, x):
    sign = -1 if m % 2 else 1
    front = mp.factorial(n) * mp.factorial(m) / (mp.factorial(n + m) * mp.factorial(n + m + 1))
    return sign * front * x ** (n + m + 1) * mp.hyp1f1(m + 1, n + m + 2, x)


def _exact_partial(n: int, x: Fraction) -> Fraction:
    total, term = Fraction(0), Fraction(1)
    for k in range(n + 1):
        total += term
        term = term * x / (k + 1)
    return total


def _ref_pade(n: int, m: int, x: Fraction) -> Fraction:
    # [n/m] Pade coefficients of exp written out again, independently of
    # pade.pade_exp, and evaluated exactly.
    nmf = math.factorial(n + m)
    num = sum(Fraction(math.factorial(n) * math.factorial(n + m - j),
                       nmf * math.factorial(j) * math.factorial(n - j)) * x ** j
              for j in range(n + 1))
    den = sum(Fraction((-1) ** j * math.factorial(m) * math.factorial(n + m - j),
                       nmf * math.factorial(j) * math.factorial(m - j)) * x ** j
              for j in range(m + 1))
    return num / den


def _ref_aitken(n: int, x: Fraction) -> Fraction:
    t0, t1, t2 = (_exact_partial(k, x) for k in (n - 1, n, n + 1))
    return (t0 * t2 - t1 * t1) / (t2 + t0 - 2 * t1)


def _ref_cesaro(n: int, x: Fraction) -> Fraction:
    total, term = Fraction(0), Fraction(1)
    for j in range(n + 1):
        total += (1 - Fraction(j, n + 1)) * term
        term = term * x / (j + 1)
    return total


_EXACT = {
    "eval_approximant": lambda p, x: _ref_pade(p["n"], p["m"], x),
    "aitken_row": lambda p, x: _ref_aitken(p["n"], x),
    "cesaro_mean": lambda p, x: _ref_cesaro(p["n"], x),
}

_MPMATH = {
    "r_tail": lambda p, x: _remainder_tail(p["n"], x),
    "r_frac": lambda p, x: _remainder_frac(mpf(p["a"]), x),
    "r_neg": lambda p, x: _ref_neg(p["n"], x),
    "r_obreshkov": lambda p, x: _ref_obreshkov(p["n"], p["m"], x),
    "q_value": lambda p, x: _ref_q(p["n"], x),
    "g_ratio": lambda p, x: (p["n"] + 1) / x * mp.hyp1f1(1, p["n"] + 1, x)
    / mp.hyp1f1(1, p["n"] + 2, x),
    "eps_value": lambda p, x: _ref_eps(mpf(p["a"]), x),
    "b_value": lambda p, x: x ** (mpf(p["a"]) + 1) * mp.hyp1f1(1, mpf(p["a"]) + 2, x),
    "lower_incomplete_gamma": lambda p, x: mp.gammainc(mpf(p["v"]), 0, x),
    "kummer_1f1_one": lambda p, x: mp.hyp1f1(1, mpf(p["b"]), x),
}


def relative_error(point: dict, value, bits: int) -> mpf:
    """|value - reference| / |reference|, the reference computed by the
    independent route at bits + 64 (+ cancellation) bits."""
    name = point["fn"]
    extra = 64 + max(0, int(-math.log2(point["x"])))
    with mp.workprec(bits + extra):
        if name in _EXACT:
            exact = _EXACT[name](point, Fraction(point["x"]))
            ref = mpf(exact.numerator) / exact.denominator
        else:
            ref = _MPMATH[name](point, mpf(point["x"]))
        return abs(mpf(value) - ref) / abs(ref)


def gate(point: dict, value, bits: int, tolerance) -> tuple[bool, mpf]:
    """(passed, relative error) of one evaluation against its reference."""
    err = relative_error(point, value, bits)
    return bool(err <= tolerance), err
