"""A sweep holds the working precision once for all its rows: its rows are
those of single evaluations, mpmath's precision is restored however the
sweep ends, and operands wider than the working precision are still
rounded down to it (and logged) where values are taken as they are."""

import dataclasses
import logging

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_pos, round_nearest

from exptail import inequalities
from exptail.errors import UsageError
from exptail.inequalities import (CATALOG, CHECK_IDS, Evaluator, default_sweep, evaluate_check,
                                  interp_constant, parse_grid, sweep)
from exptail.precision import GUARD_BITS, PrecisionContext, format_real

FIELDS = ("x", "lhs", "rhs", "margin", "ratio", "err_bound")


def _raw(row):
    return {f: None if getattr(row, f) is None else getattr(row, f)._mpf_ for f in FIELDS}


@pytest.mark.parametrize("ambient", [53, 640])
def test_sweep_rows_match_single_evaluations(ambient):
    # every 37th row, evaluated alone at either ambient precision
    ctx = PrecisionContext(256)
    with mp.workprec(ambient):
        sample = default_sweep(None, ctx)[::37]
        assert mp.prec == ambient
    assert len(sample) == 280
    for alone_ambient in (53, 640):
        with mp.workprec(alone_ambient):
            for row in sample:
                alone = evaluate_check(row.check, ctx, dict(row.params, x=row.x))
                assert (_raw(alone), alone.status, alone.params) == \
                    (_raw(row), row.status, row.params), (row.check, alone_ambient)


def test_sweeps_restore_the_ambient_precision(monkeypatch):
    ctx = PrecisionContext(64)
    seen = []
    original = inequalities.evaluate_check

    def recording(*args, **kwargs):
        seen.append(mp.prec)
        return original(*args, **kwargs)

    monkeypatch.setattr(inequalities, "evaluate_check", recording)
    with mp.workprec(53):
        assert default_sweep(["ALZER"], ctx)
        assert mp.prec == 53
        assert sweep(["ALZER"], parse_grid("n=1..2;x=lin(1,2,2)", ctx), ctx)
        assert mp.prec == 53
        # rows are evaluated at the working precision the sweep holds
        assert set(seen) == {ctx.bits + GUARD_BITS}
        with pytest.raises(UsageError):
            default_sweep(["ALZER", "NO_SUCH_CHECK"], ctx)
        assert mp.prec == 53
        with pytest.raises(UsageError):
            sweep(["ALZER", "NO_SUCH_CHECK"], parse_grid("n=1..2", ctx), ctx)
        assert mp.prec == 53
        with pytest.raises(UsageError, match="match no parameter"):
            sweep(["ALZER"], parse_grid("n=1..2;nu=lin(0.5,1,2)", ctx), ctx)
        assert mp.prec == 53


def _wide(text, bits=1000):
    with mp.workprec(bits):
        return mpf(1) / 3 + mpf(text)


def test_wide_parameter_rounded_and_logged_in_canonical_params(caplog):
    ctx = PrecisionContext(256)
    wp = ctx.bits + GUARD_BITS
    a, x = _wide("0.5"), _wide("2")
    with caplog.at_level(logging.WARNING, logger="exptail"):
        p = inequalities._canonical_params(CATALOG["RATIO_32"], {"a": a, "x": x}, ctx)
    assert p["a"]._mpf_ == mpf_pos(a._mpf_, wp, round_nearest)
    assert p["x"]._mpf_ == mpf_pos(x._mpf_, wp, round_nearest)
    assert [r.getMessage() for r in caplog.records] == \
        [f"rounding {a._mpf_[3]}-bit operand down to {wp}-bit context",
         f"rounding {x._mpf_[3]}-bit operand down to {wp}-bit context"]
    # the row's x is rounded on to ctx.bits
    row = evaluate_check("RATIO_32", ctx, {"a": a, "x": x})
    assert row.x._mpf_ == mpf_pos(p["x"]._mpf_, ctx.bits, round_nearest)
    # a parameter of at most wp bits is taken as it is, unlogged
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="exptail"):
        q = inequalities._canonical_params(CATALOG["RATIO_32"], p, ctx)
    assert q["a"] is p["a"] and q["x"] is p["x"] and not caplog.records


def test_wide_parameter_rounded_and_logged_in_per_point_constants(caplog):
    ctx = PrecisionContext(256)
    wp = ctx.bits + GUARD_BITS
    nu = _wide("1")
    ev, before = Evaluator(ctx), Evaluator.cache_info()
    with caplog.at_level(logging.WARNING, logger="exptail"):
        wide = ev._constant(interp_constant, nu, 2, mpf("0.5"))
    assert [r.getMessage() for r in caplog.records] == \
        [f"rounding {nu._mpf_[3]}-bit operand down to {wp}-bit context"]
    # the wide value and its rounding share one memo entry
    rounded = ev._constant(interp_constant, mp.make_mpf(mpf_pos(nu._mpf_, wp, round_nearest)), 2,
                           mpf("0.5"))
    after = Evaluator.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert wide._mpf_ == rounded._mpf_


def test_format_real_rounds_a_wide_value_first():
    ctx = PrecisionContext(64)
    wide = _wide("0")
    rounded = mp.make_mpf(mpf_pos(wide._mpf_, ctx.bits + GUARD_BITS, round_nearest))
    assert format_real(wide, ctx, 40) == format_real(rounded, ctx, 40)
    with mp.workprec(1000):
        assert format_real(wide, ctx, 40) != mp.nstr(wide, 40)


def _record(row):
    return row.check, row.params, _raw(row), row.status


def _alone(name, point, ctx):
    """The row of one point evaluated on its own, None where it is skipped."""
    try:
        return _record(evaluate_check(name, ctx, point))
    except inequalities._Inadmissible:
        return None


@pytest.mark.parametrize("ids,spec,expected", [
    # x and n overridden: each run is a point less x with its four x values
    (["ALZER", "GEN_K"], "n=2..4;x=lin(0.5,3,4)",
     lambda xs: [("ALZER", {"n": n, "x": x}) for n in (2, 3, 4) for x in xs]
     + [("GEN_K", {"n": n, "k": k, "x": x}) for k in range(1, 9) for n in (2, 3, 4)
        for x in xs]),
    # only k overridden: consecutive rows belong to different runs, and the
    # k = 0 rows are equalities that escalate
    (["GEN_K"], "k=0..2",
     lambda xs: [("GEN_K", {"n": n, "x": x, "k": k}) for n in range(1, 9) for x in xs
                 for k in (0, 1, 2)]),
])
def test_sweep_equals_its_rows_one_by_one(ids, spec, expected):
    ctx = PrecisionContext(53)
    grid = parse_grid(spec, ctx)
    xs = grid.axes[-1].values if grid.axes[-1].name == "x" else Evaluator(ctx).x_grid
    alone = [_alone(name, point, ctx) for name, point in expected(xs)]
    rows = sweep(ids, grid, ctx)
    assert [_record(row) for row in rows] == [rec for rec in alone if rec is not None]
    assert None in alone  # k > n is skipped in both


def test_numerical_error_at_one_x_leaves_its_run(monkeypatch):
    ctx = PrecisionContext(53)
    grid = parse_grid("n=2..3;x=lin(0.5,3,4)", ctx)
    clean = sweep(["ALZER"], grid, ctx)
    cdef, bad = CATALOG["ALZER"], clean[5].x

    def failing(p, ev):
        sides = cdef.evaluate(p, ev)

        def failing_sides(x):
            if p["n"] == 3 and x == bad:
                raise inequalities.NumericalError("no convergence")
            return sides(x)
        return failing_sides

    monkeypatch.setitem(CATALOG, "ALZER", dataclasses.replace(cdef, evaluate=failing))
    rows = sweep(["ALZER"], grid, ctx)
    assert [row.status for row in rows] == ["PASS"] * 5 + ["ERROR"] + ["PASS"] * 2
    assert rows[5].params == {"n": 3} and rows[5].x == bad and mp.isnan(rows[5].lhs)
    assert [_record(row) for i, row in enumerate(rows) if i != 5] == \
        [_record(row) for i, row in enumerate(clean) if i != 5]


def test_point_stage_runs_once_per_run(monkeypatch):
    # every check's point stage (its evaluate) runs on the first row of each
    # run of a cold 256-bit default sweep, and its sides serve the others
    ctx = PrecisionContext(256)
    staged = []
    for name, cdef in CATALOG.items():
        def counted(p, ev, cdef=cdef):
            staged.append((cdef.name, tuple(p.items())))
            return cdef.evaluate(p, ev)
        monkeypatch.setitem(CATALOG, name, dataclasses.replace(cdef, evaluate=counted))
    rows = default_sweep(None, ctx)
    points = {(row.check, tuple(row.params.items())) for row in rows}
    assert len(rows) == 10357 and len(staged) == len(set(staged)) == len(points) == 457
    assert {name for name, _ in staged} == set(CATALOG)


def test_point_stage_runs_once_per_grid_run(monkeypatch):
    # the grid twin: an n axis crosses each default x with every n, so the
    # rows of one run are not adjacent, and each run is still staged once
    ctx = PrecisionContext(256)
    staged = []
    for name, cdef in CATALOG.items():
        def counted(p, ev, cdef=cdef):
            staged.append((cdef.name, tuple(p.items())))
            return cdef.evaluate(p, ev)
        monkeypatch.setitem(CATALOG, name, dataclasses.replace(cdef, evaluate=counted))
    rows = sweep(CHECK_IDS, parse_grid("n=1..8", ctx), ctx)
    points = {(row.check, tuple(row.params.items())) for row in rows}
    assert len(rows) == 10357 and len(staged) == len(set(staged)) == len(points) == 457
    assert set(staged) == points


@pytest.mark.parametrize("error,status", [
    (inequalities.NumericalError("no convergence"), "ERROR"),
    (inequalities.PoleError("at a pole"), None),
    (inequalities._Inadmissible("outside the region"), None),
])
def test_raising_point_stage_fails_every_row_of_its_run(monkeypatch, error, status):
    # nothing is kept of a point stage that raises: each row of its run
    # raises again, as a lone evaluate_check call does, and becomes an
    # ERROR row or is skipped
    ctx = PrecisionContext(53)
    grid = parse_grid("n=2..4;x=lin(0.5,3,4)", ctx)
    clean = sweep(["ALZER"], grid, ctx)
    cdef, staged = CATALOG["ALZER"], []

    def failing(p, ev):
        if p["n"] == 3:
            staged.append(p)
            raise error
        return cdef.evaluate(p, ev)

    monkeypatch.setitem(CATALOG, "ALZER", dataclasses.replace(cdef, evaluate=failing))
    for x in grid.axes[1].values:
        with pytest.raises(type(error)):
            evaluate_check("ALZER", ctx, {"n": 3, "x": x})
    del staged[:]
    rows = sweep(["ALZER"], grid, ctx)
    assert len(staged) == 4
    kept = [_record(row) for row in clean if row.params["n"] != 3]
    if status is None:
        assert [_record(row) for row in rows] == kept
    else:
        assert [row.status for row in rows[4:8]] == [status] * 4
        assert [row.x for row in rows[4:8]] == list(grid.axes[1].values)
        assert [_record(row) for row in rows[:4] + rows[8:]] == kept
