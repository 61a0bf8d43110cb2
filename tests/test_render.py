"""Report rendering: the fixed-layout JSON writer gives the bytes of
``json.dumps(obj, indent=2)``, each distinct value is rendered once per
report, the default 53-, 256- and 1024-bit reports keep their bytes, and a
report reaches its sink in bounded chunks."""

import csv
import hashlib
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

import exptail.cli as cli
from exptail.cli import main, render_check_report
from exptail.inequalities import CHECK_IDS, CheckResult, default_sweep, parse_grid, summarize, sweep
from exptail.precision import PrecisionContext, format_real

FIELDS = ("x", "lhs", "rhs", "margin", "ratio", "err_bound")


def reference_json(results, ctx) -> str:
    """The check report as ``json.dumps(indent=2)`` lays it out, with every
    value rendered by ``format_real`` directly."""
    def dec(v):
        return "" if v is None else format_real(v, ctx)

    def param(v):
        return v if v is None or isinstance(v, (int, str, bool)) else dec(v)

    obj = {
        "precision_bits": ctx.bits,
        "target_rel_err": dec(ctx.target_rel_err),
        "records": [{
            "check": r.check,
            "params": {k: param(v) for k, v in r.params.items()},
            "x": dec(r.x), "lhs": dec(r.lhs), "rhs": dec(r.rhs), "margin": dec(r.margin),
            "ratio": dec(r.ratio), "status": r.status, "err_bound": dec(r.err_bound),
        } for r in results],
        "summary": summarize(results),
    }
    return json.dumps(obj, indent=2) + "\n"


def distinct_values(results, ctx) -> set:
    """The ``_mpf_``s a JSON report renders; CSV leaves out target_rel_err."""
    keys = {ctx.target_rel_err._mpf_}
    for r in results:
        keys.update(v._mpf_ for v in r.params.values() if isinstance(v, mpf))
        keys.update(getattr(r, f)._mpf_ for f in FIELDS if getattr(r, f) is not None)
    return keys


@pytest.fixture(scope="module")
def sweep53():
    ctx = PrecisionContext(53)
    return ctx, default_sweep(None, ctx)


_VALUES = st.one_of(
    st.sampled_from([mpf(0), mpf(1), mpf("0.001"), mpf("-2.5"), mpf("1e-30"), mpf("nan")]),
    st.floats(min_value=-1e40, max_value=1e40, allow_nan=False).map(mpf),
)
_PARAMS = st.dictionaries(
    st.sampled_from(["n", "k", "a", "f", "nu", "p"]),
    st.one_of(st.integers(-10, 10**20), _VALUES, st.sampled_from(["clamp", "arctan"])),
    max_size=4,
)


@st.composite
def _results(draw):
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        status = draw(st.sampled_from(["PASS", "FAIL", "INDET", "ERROR"]))
        if status == "ERROR":
            nan = mpf("nan")
            values = dict(lhs=nan, rhs=nan, margin=nan, ratio=None, err_bound=nan)
        else:
            values = {f: draw(_VALUES) for f in ("lhs", "rhs", "margin", "err_bound")}
            values["ratio"] = draw(st.one_of(st.none(), _VALUES))
        rows.append(CheckResult(check=draw(st.sampled_from(["ALZER", "FRACMONO_34"])),
                                params=draw(_PARAMS), x=draw(_VALUES), status=status, **values))
    return rows


@settings(max_examples=150, deadline=None)
@given(results=_results(), bits=st.sampled_from([53, 256]))
def test_check_json_matches_indent_2(results, bits):
    ctx = PrecisionContext(bits)
    assert render_check_report(results, ctx, "json") == reference_json(results, ctx)


_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                    st.floats(allow_nan=False, allow_infinity=False))
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.one_of(st.text(), st.integers()), inner,
                                            max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_writer_matches_indent_2(obj):
    assert cli._json(obj) + "\n" == json.dumps(obj, indent=2) + "\n"


def test_empty_report_layout():
    ctx = PrecisionContext(53)
    out = render_check_report([], ctx, "json")
    assert out == reference_json([], ctx)
    assert '"records": []' in out


def test_default_report_bytes_53_bits(sweep53):
    ctx, results = sweep53
    digests = {fmt: hashlib.sha256(render_check_report(results, ctx, fmt).encode()).hexdigest()
               for fmt in ("json", "csv", "text")}
    assert digests["json"].startswith("f705d7537db1")
    assert digests["csv"].startswith("421d986b1e72")
    assert digests["text"].startswith("38387688096e")


def test_default_report_bytes_256_bits():
    ctx = PrecisionContext(256)
    results = default_sweep(None, ctx)
    digests = {fmt: hashlib.sha256(render_check_report(results, ctx, fmt).encode()).hexdigest()
               for fmt in ("json", "csv", "text")}
    assert digests["json"].startswith("b59ecc987fce")
    assert digests["csv"].startswith("1108120acac3")
    assert digests["text"].startswith("96cec7f689cd")


def test_default_report_bytes_1024_bits():
    ctx = PrecisionContext(1024)
    results = default_sweep(None, ctx)
    digest = hashlib.sha256(render_check_report(results, ctx, "json").encode()).hexdigest()
    assert digest.startswith("41b499b0f8f2")


@pytest.mark.parametrize("spec,digest", [
    ("n=1..8", "faf237960ca1"),
    ("k=0..2;x=lin(0.5,3,4)", "6744d98e33d2"),
    ("y=lin(0.5,2,3);x=lin(1,2,3)", "2898f49ecd07"),
    ("nu=lin(0.5,1.5,3);theta=lin(0,1,3)", "b5feaba1c0bb"),
])
def test_grid_report_bytes_53_bits(spec, digest):
    # the CSV of `exptail check --id all --bits 53 --grid SPEC --format csv`
    ctx = PrecisionContext(53)
    results = sweep(CHECK_IDS, parse_grid(spec, ctx), ctx)
    report = render_check_report(results, ctx, "csv")
    assert hashlib.sha256(report.encode()).hexdigest().startswith(digest)


def _count_calls(monkeypatch):
    calls = []

    def counted(x, ctx, digits=None):
        calls.append((x._mpf_, ctx.bits, digits))
        return format_real(x, ctx, digits)

    monkeypatch.setattr(cli, "format_real", counted)
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_one_format_real_call_per_distinct_value(sweep53, monkeypatch, fmt):
    ctx, results = sweep53
    calls = _count_calls(monkeypatch)
    render_check_report(results, ctx, fmt)
    distinct = distinct_values(results, ctx)
    if fmt == "csv":
        distinct.discard(ctx.target_rel_err._mpf_)
    assert len(calls) == len(distinct) < 6 * len(results)
    assert {c[0] for c in calls} == distinct


def test_renders_at_different_bits_share_no_strings(monkeypatch):
    ctx256 = PrecisionContext(256)
    results = default_sweep(["ALZER"], ctx256)
    calls = _count_calls(monkeypatch)
    render_check_report(results, PrecisionContext(53), "json")
    first = len(calls)
    out = render_check_report(results, ctx256, "json")
    second = calls[first:]
    assert {bits for _, bits, _ in second} == {256}
    assert len(second) == len(distinct_values(results, ctx256))
    monkeypatch.undo()
    assert out == reference_json(results, ctx256)


@pytest.mark.parametrize("argv", [
    ["check", "--id", "ALZER,FRACMONO_34", "--grid", "n=1..2;x=lin(1,2,2)"],
    ["check", "--id", "GEN_K", "--grid", "n=3..3;k=0..0;x=lin(1,1,1)"],
    ["explore", "--problem", "rk"],
    ["explore", "--problem", "15", "--n", "2", "--xgrid", "log(0.1,5,5)"],
    ["explore", "--problem", "11", "--kmax", "2", "--nmax", "6", "--xgrid", "lin(1,1,1)"],
])
def test_cli_json_is_indent_2_layout(capsys, argv):
    main(argv)
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def reference_csv(results, ctx) -> str:
    """The CSV check report with every params column rendered afresh."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(["check", "params", "x", "lhs", "rhs", "margin", "ratio", "status",
                     "err_bound"])
    dec = cli._renderer(ctx)
    for r in results:
        writer.writerow([r.check, json.dumps(cli._param_json(r.params, dec), sort_keys=True)]
                        + [dec(getattr(r, f)) for f in FIELDS[:5]] + [r.status, dec(r.err_bound)])
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(results=_results(), bits=st.sampled_from([53, 256]),
       listed=st.lists(st.integers(0, 3), max_size=3))
def test_csv_matches_unmemoized_params(results, bits, listed):
    # equal params of different types (1 and 1.0, True) stay apart, and an
    # unhashable params value is rendered without the memo
    ctx = PrecisionContext(bits)
    results += [CheckResult(check="ALZER", params=p, x=mpf(1), lhs=mpf(2), rhs=mpf(1),
                            margin=mpf(1), ratio=mpf(2), err_bound=mpf(0), status="PASS")
                for p in ({"n": 1}, {"n": mpf(1)}, {"n": True}, {"n": listed}, {"n": 1})]
    assert render_check_report(results, ctx, "csv") == reference_csv(results, ctx)


@pytest.mark.parametrize("check", ["A,B", 'A"B', "A\rB", "A\nB", "", " A "])
def test_csv_quotes_as_the_csv_module(check):
    # a field is quoted, its quotes doubled, exactly where csv.QUOTE_MINIMAL
    # quotes it; None and nan are written as the csv module writes them
    ctx = PrecisionContext(53)
    nan = mpf("nan")
    results = [CheckResult(check=check, params={"s": 'a,"b"\r\n', "n": 1}, x=mpf(1), lhs=nan,
                           rhs=nan, margin=nan, ratio=None, err_bound=nan, status="ERROR")]
    assert render_check_report(results, ctx, "csv") == reference_csv(results, ctx)


def test_csv_params_rendered_once_per_point(sweep53, monkeypatch):
    ctx, results = sweep53
    calls = []

    def counted(value, dec):
        if isinstance(value, dict):
            calls.append(value)
        return param_json(value, dec)

    param_json = cli._param_json
    monkeypatch.setattr(cli, "_param_json", counted)
    out = render_check_report(results, ctx, "csv")
    columns = {row[1] for row in csv.reader(io.StringIO(out))} - {"params"}
    assert len(calls) == len(columns) < len(results) / 50


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# what marks one record in each format's text
_RECORD_MARK = {"json": '"check": ', "csv": "\r\n", "text": "\n"}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_sink_gets_the_report_in_bounded_chunks(sweep53, fmt):
    ctx, results = sweep53
    sink = _Recorder()
    assert render_check_report(results, ctx, fmt, sink) is None
    assert "".join(sink.writes) == render_check_report(results, ctx, fmt)
    assert len(sink.writes) > 1
    assert max(w.count(_RECORD_MARK[fmt]) for w in sink.writes) <= 512


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_sink_gets_the_empty_report(fmt):
    ctx = PrecisionContext(53)
    sink = _Recorder()
    render_check_report([], ctx, fmt, sink)
    assert "".join(sink.writes) == render_check_report([], ctx, fmt)


def test_unknown_format_writes_nothing(sweep53):
    ctx, results = sweep53
    sink = _Recorder()
    with pytest.raises(cli.UsageError):
        render_check_report(results, ctx, "xml", sink)
    assert sink.writes == []


def test_json_report_to_a_discarding_sink_holds_no_whole_report(sweep53):
    # building the report as one string peaked at 3.3x its length
    ctx, results = sweep53
    length = len(render_check_report(results, ctx, "json"))

    class Discard:
        def write(self, text):
            return len(text)

    tracemalloc.start()
    try:
        render_check_report(results, ctx, "json", Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * length, (peak, length)
