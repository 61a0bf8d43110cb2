"""The order ladder: blocks of consecutive-order remainders from one series,
and the catalog's reads from them."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from exptail import inequalities, numerics, remainders
from exptail.errors import DomainError
from exptail.inequalities import (LADDER_SPAN, Evaluator, default_sweep, evaluate_check,
                                  interp_constant, parse_grid, sweep)
from exptail.precision import GUARD_BITS, PrecisionContext
from exptail.remainders import r_frac, r_frac_ladder, r_tail

from conftest import rel_err


def _clear_caches():
    """Evaluations from here on start cold: the catalog keeps its values in
    the evaluator of one sweep or row, and the module holds none to clear."""
    assert [name for name, value in vars(inequalities).items()
            if hasattr(value, "cache_clear")] == []


def _calls_to(monkeypatch, name):
    """The argument tuples of every call the catalog makes to ``name``."""
    calls = []
    original = getattr(inequalities, name)
    monkeypatch.setattr(inequalities, name,
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    return calls


@settings(max_examples=40, deadline=None)
@given(f=st.one_of(st.just(0), st.integers(0, 2**40 - 1)),
       x=st.floats(1e-6, 60), bits=st.sampled_from([53, 256, 1024]),
       block=st.integers(0, 2))
def test_block_values_match_the_direct_routes(f, x, bits, block):
    # every offset of a block, laid out as the catalog lays them out; f is
    # a multiple of 2**-40, so every order f + j is exact at 53 bits
    ctx = PrecisionContext(bits)
    f, x = mpf(f) / 2**40, mpf(x)
    lo = max(LADDER_SPAN * block - 1, 0 if f == 0 else -1)
    hi = LADDER_SPAN * block + LADDER_SPAN - 2
    values = r_frac_ladder(f, lo, hi, x, ctx)
    assert len(values) == hi - lo + 1
    for j, value in zip(range(lo, hi + 1), values):
        direct = r_tail(j, x, ctx) if f == 0 else r_frac(f + j, x, ctx)
        assert rel_err(value, direct) <= ctx.target_rel_err, (f, j, x, bits)
        assert value._mpf_[3] <= bits


@settings(max_examples=40, deadline=None)
@given(f=st.one_of(st.just(0), st.integers(0, 2**40 - 1)),
       x=st.floats(1e-6, 60), bits=st.sampled_from([53, 256, 1024]),
       block=st.integers(0, 2))
def test_fixed_point_steps_match_an_mpf_recurrence_at_twice_wp(f, x, bits, block):
    # the downward steps run on integers; an mpf recurrence at 2 wp from
    # the kernel's top value gives each value to within one unit in the
    # last of ``bits`` places
    ctx = PrecisionContext(bits)
    f, x = mpf(f) / 2**40, mpf(x)
    lo = max(LADDER_SPAN * block - 1, 0 if f == 0 else -1)
    hi = LADDER_SPAN * block + LADDER_SPAN - 2
    tops = []
    kernel = remainders._hyp1f1_pos
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(remainders, "_hyp1f1_pos",
                      lambda *args: tops.append(kernel(*args)) or tops[-1])
        values = r_frac_ladder(f, lo, hi, x, ctx)
    with mp.workprec(2 * (bits + GUARD_BITS)):
        a = f + hi
        t = x ** (a + 1) / mp.gamma(a + 2)
        rem = tops[0]
        reference = [rem]
        for _ in range(hi - lo):
            t = t * (a + 1) / x
            rem += t
            a -= 1
            reference.append(rem)
        reference.reverse()
        for j, value, ref in zip(range(lo, hi + 1), values, reference):
            ulp = mpf(2) ** (value._mpf_[2] + value._mpf_[3] - bits)
            assert abs(value - ref) <= ulp, (f, j, x, bits)


@settings(max_examples=60, deadline=None)
@given(e=st.one_of(st.integers(-3, 40).map(mpf), st.integers(-79, 79).map(lambda k: mpf(k) / 2),
                   st.floats(-0.999, 40).map(mpf)),
       x=st.floats(1e-6, 1e4).map(mpf), bits=st.sampled_from([53, 256]))
def test_top_term_power_rounds_as_mpf_pow(e, x, bits):
    # the ladder's x**(a+1), with log x from a memo, is the mpf operator's
    # value bit for bit, on its integer, half-integer and exp-log paths
    wp = bits + GUARD_BITS
    memo = {}

    def cached(key, compute, *args):
        if key not in memo:
            memo[key] = compute(*args)
        return memo[key]

    with mp.workprec(wp):
        expected = (x ** e)._mpf_
    for _ in range(2):
        assert remainders._power(x._mpf_, e._mpf_, wp, cached) == expected


@settings(max_examples=60, deadline=None)
@given(e=st.one_of(st.integers(-3, 40).map(mpf), st.integers(-79, 79).map(lambda k: mpf(k) / 2),
                   st.floats(-3, 40).map(mpf)),
       base=st.floats(1e-300, 1e300).map(mpf), bits=st.sampled_from([53, 256, 1024]))
def test_evaluator_power_is_the_mpf_operator(e, base, bits):
    # the catalog's real powers of remainders, bit for bit, on the
    # integer, half-integer and exp-log paths; log(base) comes from the
    # evaluator's memo, so a second general power of one base is one hit
    ctx = PrecisionContext(bits)
    ev = Evaluator(ctx)
    with ctx.work():
        base = +base
        first, second = e + mpf(1) / 3, e + mpf(2) / 3  # neither integer nor half-integer
        for power in (e, first):
            assert ev._pow(base, power)._mpf_ == (base ** power)._mpf_
        before = Evaluator.cache_info()
        assert ev._pow(base, second)._mpf_ == (base ** second)._mpf_
        after = Evaluator.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


@pytest.mark.parametrize("f,lo,hi,x", [
    (mpf(0), -1, 6, 1), (mpf("0.5"), -2, 6, 1), (mpf(1), 0, 6, 1),
    (mpf("-0.5"), 0, 6, 1), (mpf("0.5"), 3, 2, 1), (mpf("0.5"), 0, 6, 0),
    (mpf("0.5"), 0, 6, -1),
])
def test_ladder_domain(ctx, f, lo, hi, x):
    with pytest.raises(DomainError):
        r_frac_ladder(f, lo, hi, x, ctx)


def test_ladder_order_just_above_minus_one(ctx):
    # R_{-1+f}(x) -> e**x as f -> 0; the order f - 1 is not representable
    # at the working precision, and the ladder's domain test is exact
    f, x = mpf(2) ** -400, mpf("1.5")
    bottom = r_frac_ladder(f, -1, 6, x, ctx)[0]
    assert rel_err(bottom, mp.exp(x)) <= ctx.target_rel_err


@pytest.fixture(scope="module")
def cold_sweep_256():
    """A default 256-bit sweep from cold caches, with its kernel calls."""
    calls = []
    original = numerics._hyp1f1_pos

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return original(*args, **kwargs)

    ctx = PrecisionContext(256)
    _clear_caches()
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(numerics, "_hyp1f1_pos", counted)
        mp_.setattr(remainders, "_hyp1f1_pos", counted)
        rows = default_sweep(None, ctx)
    return ctx, rows, calls


def test_default_sweep_kernel_calls(cold_sweep_256):
    # one series per block of orders instead of one per order: 4,031 calls
    # before the ladder
    _, rows, calls = cold_sweep_256
    assert len(rows) == 10357
    assert len(calls) <= 1300


def test_row_alone_equals_its_sweep_row(cold_sweep_256):
    # a value depends on its own point only, not on the rows evaluated
    # before it; every 37th row, each from cold caches
    ctx, rows, _ = cold_sweep_256
    for row in rows[::37]:
        _clear_caches()
        alone = evaluate_check(row.check, ctx, dict(row.params, x=row.x))
        assert (alone.lhs._mpf_, alone.rhs._mpf_, alone.margin._mpf_, alone.status) == \
            (row.lhs._mpf_, row.rhs._mpf_, row.margin._mpf_, row.status), row


def test_bounded_ladder_cache_overflow_keeps_values(monkeypatch):
    # REVERSE_43 with n = 1..8 reads orders 0..9, two blocks per x, so this
    # grid needs more blocks than the old bounded ladder cache held (2048);
    # the sweep's evaluator keeps each, so none is built twice
    ctx = PrecisionContext(53)
    count = 2048 // 2 + 1
    grid = parse_grid(f"n=1..8;x=log(1e-3,30,{count})", ctx)
    blocks = _calls_to(monkeypatch, "r_frac_ladder")
    fresh = sweep(["REVERSE_43"], grid, ctx)
    built = [(lo, hi, x._mpf_) for _, lo, hi, x, _ in blocks]
    assert len(built) == len(set(built)) == 2 * count
    again = sweep(["REVERSE_43"], grid, ctx)
    assert len(blocks) == 2 * 2 * count

    def key(r):
        return r.x._mpf_, r.lhs._mpf_, r.rhs._mpf_, r.margin._mpf_, r.status

    assert len(fresh) == 8 * count
    assert [key(r) for r in again] == [key(r) for r in fresh]


def test_nothing_survives_a_sweep(monkeypatch):
    # a second sweep in the process builds every ladder block again, from
    # its own evaluator, and each sweep builds the default x grid once
    blocks, grids = _calls_to(monkeypatch, "r_frac_ladder"), _calls_to(monkeypatch, "log_grid")
    ctx = PrecisionContext(256)
    first = default_sweep(None, ctx)
    assert (len(blocks), len(grids)) == (803, 1)
    second = default_sweep(None, ctx)
    assert (len(blocks), len(grids)) == (2 * 803, 2)

    def key(r):
        return r.x._mpf_, r.lhs._mpf_, r.rhs._mpf_, r.margin._mpf_, r.status

    assert [key(r) for r in second] == [key(r) for r in first]


@pytest.mark.parametrize("accessor,direct,args", [
    ("_rt", r_tail, (7, mpf("2.5"))),
    ("_rf", r_frac, (mpf("-0.75"), mpf("0.01"))),
    ("_rf", r_frac, (mpf("13.7"), mpf(30))),
    ("_gi", numerics.lower_incomplete_gamma, (mpf("4.5"), mpf(3))),
    ("_kum", numerics.kummer_1f1_one, (mpf(11), mpf("0.3"))),
    ("_qv", remainders.q_value, (5, mpf(20))),
])
def test_derived_accessors_match_the_public_routes(ctx, monkeypatch, accessor, direct, args):
    # the catalog reads gamma(v, x), 1F1(1; b; x) and Q_n(x) from ladder
    # values through exact identities; the public functions keep their
    # direct routes
    blocks = _calls_to(monkeypatch, "r_frac_ladder")
    value = getattr(Evaluator(ctx), accessor)(*args)
    assert len(blocks) == 1
    assert rel_err(value, direct(*args, ctx)) <= ctx.target_rel_err


@pytest.mark.parametrize("accessor,order", [("_rt", -1), ("_rt", -2), ("_rf", mpf(-1))])
def test_orders_below_the_ladders_are_refused(ctx, accessor, order):
    # block 0 of the integer orders starts at 0: order -1 would read past
    # its start, at the top value R_6
    with pytest.raises(DomainError):
        getattr(Evaluator(ctx), accessor)(order, mpf(2))


def test_raw_keys_share_entries_and_hash_no_mpf(ctx, monkeypatch):
    # equal mpf values made separately hit one entry, and a lookup hashes
    # the raw tuples, never an mpf
    ev = Evaluator(ctx)
    a, x = mpf("3.7"), mpf("1.25")
    first = ev._rf(ctx.finalize(a), ctx.finalize(x))
    constant = ev._constant(interp_constant, a, 1, mpf("0.5"))

    def no_hash(self):
        raise AssertionError("an mpf was hashed")

    monkeypatch.setattr(type(a), "__hash__", no_hash)
    before = Evaluator.cache_info()
    second = ev._rf(ctx.finalize(a), ctx.finalize(x))
    assert ev._constant(interp_constant, a, 1, mpf("0.5")) is constant
    after = Evaluator.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    assert first is second
