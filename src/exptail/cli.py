"""Command-line surface: single evaluations, inequality sweeps, sharpness
probes and open-problem explorations with machine-readable output.

Exit codes: 0 success (and, for ``check``, zero failing rows), 1 at least
one FAIL row, 2 usage problems (unknown selector, malformed grid, bad
parameters), 3 numerical failure.  INDETERMINATE rows are counted but
never change the exit code.

Numbers in JSON and CSV reports are decimal strings rendered at full
context precision, so extended-precision results survive serialisation;
identical invocations produce byte-identical JSON.  A report renders each
distinct value once: its decimal strings are memoized by ``_mpf_``, and its
params text by parameter point, for the length of one render call.  JSON
reports are laid out by a fixed-layout writer that encodes each scalar with
the C routines of :mod:`json` and gives the same bytes as
``json.dumps(obj, indent=2)``.  A check report goes to its file or stdout
a chunk of records at a time, once the sweep has returned.
``python -m exptail`` runs :func:`main`.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote

from .errors import (DegeneratePointError, DomainError, NumericalError, PoleError,
                     UsageError)
from .inequalities import (CATALOG, CHECK_IDS, default_sweep, parse_grid, sharpness_probe,
                           summarize, sweep)
from .numerics import kummer_1f1_one, lower_incomplete_gamma
from .pade import aitken_row, cesaro_mean, eval_approximant, pade_exp
from .precision import Param, PrecisionContext, declared, format_real, parse_real
from .remainders import (b_value, eps_value, g_ratio, q_value, r_frac, r_neg,
                         r_obreshkov, r_tail)

ENV_PRECISION = "EXPTAIL_PREC"


@declared(Param("n", int), Param("m", int), Param("x"))
def _pade_value(n: int, m: int, x, ctx: PrecisionContext):
    """The [n/m] Pade approximant of exp at x."""
    return eval_approximant(pade_exp(n, m), x, ctx)


# quantity -> its function; each declared argument is the flag of its name,
# read as its kind declares, and the context comes last
EVAL = {"rn": r_tail, "ra": r_frac, "rneg": r_neg, "robr": r_obreshkov, "q": q_value,
        "b": b_value, "eps": eps_value, "g": g_ratio, "gammainc": lower_incomplete_gamma,
        "kummer": kummer_1f1_one, "pade": _pade_value, "aitken": aitken_row,
        "cesaro": cesaro_mean}
EVAL_QUANTITIES = tuple(EVAL)
# the flags of ``eval``: every argument some quantity declares
EVAL_FLAGS = tuple(dict.fromkeys(spec.name for fn in EVAL.values() for spec in fn.params))

OUT_OF_SCOPE_PROBLEMS = {"2", "3", "4", "6", "10", "13", "14"}


def _context(args) -> PrecisionContext:
    bits = args.bits
    if bits is None:
        env = os.environ.get(ENV_PRECISION)
        bits = int(env) if env else 256
    return PrecisionContext(bits=bits)


def _renderer(ctx, digits: int | None = None, quoted: bool = False):
    """Decimal rendering of values for one report: strings are memoized by
    ``_mpf_`` until the returned function is dropped; None renders as "".
    With ``quoted`` each string is its JSON string literal: decimal text
    holds nothing JSON escapes, so that is the text between quotes."""
    memo = {}
    if digits is None:
        digits = ctx.decimal_digits

    def dec(value) -> str:
        if value is None:
            return '""' if quoted else ""
        key = getattr(value, "_mpf_", None)
        text = memo.get(key) if key is not None else None
        if text is None:
            text = format_real(value, ctx, digits)
            if quoted:
                text = f'"{text}"'
            if key is not None:
                memo[key] = text
        return text

    return dec


def _once_per_point(render):
    """``render(params)`` memoized for one report, keyed by each
    parameter's name, type and value (``_mpf_`` for an mpf), so each
    distinct parameter point is rendered once; an unhashable value is
    rendered each time.  The rows of one sweep run share their params
    dict, so the last dict is recognised by identity, without a key."""
    memo = {}
    last = text = None

    def rendered(params) -> str:
        nonlocal last, text
        if params is last:
            return text
        try:
            key = tuple((k, type(v), getattr(v, "_mpf_", v)) for k, v in params.items())
            text = memo[key]
        except TypeError:
            return render(params)
        except KeyError:
            text = memo[key] = render(params)
        last = params
        return text

    return rendered


def _param_json(value, dec):
    if value is None or isinstance(value, (int, str, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_param_json(v, dec) for v in value]
    if isinstance(value, dict):
        return {k: _param_json(v, dec) for k, v in value.items()}
    return dec(value)


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for nested dicts, lists and JSON
    scalars, written at indentation ``pad``; scalars and keys are encoded by
    the C routines, the layout by this function."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(f"{inner}{_quote(k if isinstance(k, str) else json.dumps(k))}: "
                            f"{_json(v, inner)}" for k, v in value.items())
        return f"{{\n{items}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _json(v, inner) for v in value)
        return f"[\n{items}\n{pad}]"
    if type(value) is int:
        return int.__repr__(value)  # what json's encoder writes for an int
    return json.dumps(value)


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> int:
    ctx = _context(args)
    q = args.quantity
    if q not in EVAL:
        raise UsageError(f"unknown quantity '{q}' (known: {', '.join(EVAL_QUANTITIES)})")

    def argument(spec):
        raw = getattr(args, spec.name)
        if raw is None:
            raise UsageError(f"quantity '{q}' requires --{spec.name}")
        if spec.kind is not int:
            return parse_real(raw, ctx)
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"--{spec.name} must be an integer, got {raw!r}") from exc

    value = EVAL[q](*map(argument, EVAL[q].params), ctx)

    dec = _renderer(ctx)
    print(dec(value))
    print(f"err_estimate = {dec(abs(value) * ctx.target_rel_err)}")
    return 0


# ---------------------------------------------------------------------------
# check


# records per write to a report's sink: a write holds one chunk's text
CHUNK_RECORDS = 256


def _chunks(results):
    for start in range(0, len(results), CHUNK_RECORDS):
        yield results[start:start + CHUNK_RECORDS]


def _check_json(results, ctx, write) -> None:
    """The JSON check report: each record is written from a fixed template
    in the layout of ``json.dumps(obj, indent=2)``, with every value's
    string literal rendered once."""
    quoted = _renderer(ctx, quoted=True)
    params_text = _once_per_point(
        lambda params: _json(_param_json(params, lambda v: quoted(v)[1:-1]), "      "))
    write(f'''{{
  "precision_bits": {json.dumps(ctx.bits)},
  "target_rel_err": {quoted(ctx.target_rel_err)},
  "records": ''')
    opening = "[\n"
    for chunk in _chunks(results):
        write(opening + ",\n".join(
            f'''    {{
      "check": {_quote(r.check)},
      "params": {params_text(r.params)},
      "x": {quoted(r.x)},
      "lhs": {quoted(r.lhs)},
      "rhs": {quoted(r.rhs)},
      "margin": {quoted(r.margin)},
      "ratio": {quoted(r.ratio)},
      "status": "{r.status}",
      "err_bound": {quoted(r.err_bound)}
    }}''' for r in chunk))
        opening = ",\n"
    write("[]" if not results else "\n  ]")
    write(f''',
  "summary": {_json(summarize(results), "  ")}
}}
''')


def _csv_field(text: str) -> str:
    """``text`` as a field of a ``csv.QUOTE_MINIMAL`` row of several fields
    with the "\\r\\n" line terminator: quoted, its quotes doubled, where it
    holds a comma, a quote or a line break, and as it is otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _check_csv(results, ctx, write) -> None:
    """The CSV check report, as ``csv.writer`` with ``QUOTE_MINIMAL`` and
    "\\r\\n" writes it: each record is written from a fixed template, with
    every value's decimal rendered once and each point's params field
    once.  Decimal text and statuses hold nothing that is quoted."""
    dec = _renderer(ctx)
    params_text = _once_per_point(
        lambda params: _csv_field(json.dumps(_param_json(params, dec), sort_keys=True)))
    write("check,params,x,lhs,rhs,margin,ratio,status,err_bound\r\n")
    for chunk in _chunks(results):
        write("".join(
            f"{_csv_field(r.check)},{params_text(r.params)},{dec(r.x)},{dec(r.lhs)},"
            f"{dec(r.rhs)},{dec(r.margin)},{dec(r.ratio)},{r.status},{dec(r.err_bound)}\r\n"
            for r in chunk))


def _check_text(results, ctx, write) -> None:
    summary = summarize(results)
    dec, short = _renderer(ctx), _renderer(ctx, 8)

    def line(r) -> str:
        ps = " ".join(f"{k}={_param_json(v, dec)}" for k, v in r.params.items())
        return f"{r.status:6s} {r.check:14s} {ps} x={short(r.x)} margin={short(r.margin)}\n"

    for chunk in _chunks(results):
        write("".join(map(line, chunk)))
    write(f"summary: {summary['PASS']} pass, {summary['FAIL']} fail, "
          f"{summary['INDET']} indeterminate, {summary['ERROR']} error\n")


_CHECK_WRITERS = {"json": _check_json, "csv": _check_csv, "text": _check_text}


def render_check_report(results, ctx, fmt: str, out=None) -> str | None:
    """Write the check report of ``results`` in ``fmt`` ("json", "csv" or
    "text") to the text sink ``out``, one write per chunk of at most
    ``CHUNK_RECORDS`` records, so the report is never held whole: besides
    the results, rendering holds each distinct value's string and one
    chunk's text.  Without ``out`` the same writer fills a string, which is
    returned.  An unknown format raises before anything is written."""
    writer = _CHECK_WRITERS.get(fmt)
    if writer is None:
        raise UsageError(f"unknown format '{fmt}'")
    sink = io.StringIO() if out is None else out
    writer(results, ctx, sink.write)
    return sink.getvalue() if out is None else None


@contextmanager
def _sink(out_path: str | None):
    """The text sink of a report: the file ``out_path``, created here, or
    stdout."""
    if not out_path:
        yield sys.stdout
        return
    with open(out_path, "w", newline="") as fh:
        yield fh


@contextmanager
def _collector_held():
    """Python's cyclic garbage collector off for the block, and back in the
    state it was found in afterwards, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _cmd_check(args) -> int:
    # a sweep and its report make no reference cycles (the rows, their mpf
    # values and the evaluator's memo are freed by reference counting), so
    # the collector's passes over them are pure cost.  It comes back once
    # the rows are freed: restored while they live, its next young pass
    # would scan every one of them
    with _collector_held():
        summary = _check(args)
    if summary["ERROR"]:
        return 3
    return 1 if summary["FAIL"] else 0


def _check(args) -> dict:
    """Sweep, write the report and return its summary; the rows are
    dropped on return."""
    ctx = _context(args)
    ids = list(CHECK_IDS) if args.id == "all" else [s.strip() for s in args.id.split(",")]
    if args.grid:
        results = sweep(ids, parse_grid(args.grid, ctx), ctx)
    else:
        results = default_sweep(ids, ctx)
    # the sink is opened only once the sweep has returned, so a usage
    # error found by the sweep leaves no output
    with _sink(args.out) as out:
        render_check_report(results, ctx, args.format, out)
    return summarize(results)


# ---------------------------------------------------------------------------
# sharpness


# the flags of ``sharpness``: every parameter but x and y that a check with
# a documented limit declares
SHARPNESS_FLAGS = tuple(dict.fromkeys(
    spec.name for cdef in CATALOG.values() if cdef.sharp_limits for spec in cdef.params
    if spec.name not in ("x", "y")))


def _cmd_sharpness(args) -> int:
    ctx = _context(args)
    # each flag is read as a number once; the check's declared kind then
    # judges it, so an order that is not integral is a usage error
    params = {flag: parse_real(getattr(args, flag), ctx) for flag in SHARPNESS_FLAGS
              if getattr(args, flag) is not None}
    direction = {"zero": "zero", "inf": "inf"}.get(args.dir)
    if direction is None:
        raise UsageError(f"--dir must be 'zero' or 'inf', got {args.dir!r}")
    result = sharpness_probe(args.id, direction, ctx, params)
    spread = max(abs(t - result.limit) for t in result.extrapolants[-3:])
    print(f"{format_real(result.limit, ctx, 12)} ± {format_real(spread, ctx, 3)}")
    if result.documented_limit is not None:
        print(f"documented limit: {format_real(result.documented_limit, ctx, 12)}")
    print(f"converged: {result.converged}")
    for x, ratio in result.samples:
        print(f"  x={format_real(x, ctx, 8)}  ratio={format_real(ratio, ctx, 20)}")
    return 0


# ---------------------------------------------------------------------------
# explore


def render_report(report, ctx, fmt: str) -> str:
    dec = _renderer(ctx)
    if fmt == "json":
        return _json({
            "kind": report.kind,
            "params": _param_json(report.params, dec),
            "columns": report.columns,
            "rows": _param_json(report.rows, dec),
            "notes": report.notes,
            "diagnostics": _param_json(report.diagnostics, dec),
        }) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow(_param_json(row, dec))
        return buf.getvalue()
    if fmt == "text":
        lines = [f"report: {report.kind}", f"params: {_param_json(report.params, dec)}"]
        lines.append(" | ".join(report.columns))
        for row in report.rows:
            lines.append(" | ".join(str(v) for v in _param_json(row, dec)))
        lines.extend(f"note: {n}" for n in report.notes)
        lines.append(f"diagnostics: {json.dumps(_param_json(report.diagnostics, dec))}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format '{fmt}'")


def _explore_x_grid(args, ctx):
    if not args.xgrid:
        return None
    axis = parse_grid(f"x={args.xgrid}", ctx).axes[0]
    return axis.values


# explore problem -> its function in .explorer, and its arguments before the
# context from flag(name, default) and the --xgrid values (None: the default)
EXPLORE = {
    "1": ("problem1_monotonicity", lambda flag, xs: (flag("n", 2), xs)),
    "5": ("problem5_pade_cm", lambda flag, xs: (flag("n", 2), flag("kmax", 4), xs)),
    "7": ("problem7_limit", lambda flag, xs: (flag("nmax", 60), flag("c", "1"))),
    "8": ("problem8_gautschi_k", lambda flag, xs: (flag("n", 2), flag("k", 3), xs)),
    "9": ("problem9_limit",
          lambda flag, xs: (flag("a", "0.5"), flag("m", 0), flag("nmax", 60))),
    "11": ("problem11_gdiffs",
           lambda flag, xs: (flag("kmax", 3), range(1, flag("nmax", 10) + 1), xs)),
    "12": ("problem12_row_monotone", lambda flag, xs: (range(1, flag("nmax", 6) + 1), 12)),
    "15": ("problem15_range", lambda flag, xs: (flag("n", 3), xs)),
    "rk": ("rk_error_demo",
           lambda flag, xs: (flag("lam", "1"), flag("h", "0.1"), flag("y0", "1"))),
}


def _cmd_explore(args) -> int:
    ctx = _context(args)
    problem = args.problem
    if problem in OUT_OF_SCOPE_PROBLEMS:
        raise UsageError(f"problem {problem} not implemented (out of scope)")
    if problem not in EXPLORE:
        raise UsageError(f"unknown problem '{problem}'")
    from . import explorer  # imported here, so the other commands do not pay for loading it

    def flag(name, default):
        value = getattr(args, name)
        return default if value is None else value

    name, arguments = EXPLORE[problem]
    report = getattr(explorer, name)(*arguments(flag, _explore_x_grid(args, ctx)), ctx)
    text = render_report(report, ctx, args.format)
    with _sink(args.out) as out:
        out.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="exptail",
        description="Exponential Taylor remainders: evaluation, sharp-constant "
                    "inequality verification, and open-problem exploration.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--bits", type=int, default=None,
                       help=f"working precision in bits (default: ${ENV_PRECISION} or 256)")

    p_eval = sub.add_parser("eval", help="evaluate one quantity at one point")
    p_eval.add_argument("--quantity", required=True,
                        help=f"one of: {', '.join(EVAL_QUANTITIES)}")
    for flag in EVAL_FLAGS:
        p_eval.add_argument(f"--{flag}", default=None)
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", help="run inequality checks over a grid")
    p_check.add_argument("--id", default="all",
                         help="comma-separated check ids, or 'all'")
    p_check.add_argument("--grid", default=None,
                         help="grid spec, e.g. 'n=1..8;x=log(1e-3,30,25)'; "
                              "omitted: the built-in default grid")
    p_check.add_argument("--out", default=None, help="output path (default stdout)")
    p_check.add_argument("--format", default="json", choices=("json", "csv", "text"))
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_sharp = sub.add_parser("sharpness", help="extrapolate a check's sharp limit")
    p_sharp.add_argument("--id", required=True)
    p_sharp.add_argument("--dir", required=True, help="'zero' (x->0) or 'inf' (x->oo)")
    for flag in SHARPNESS_FLAGS:
        p_sharp.add_argument(f"--{flag}", default=None)
    add_common(p_sharp)
    p_sharp.set_defaults(func=_cmd_sharpness)

    p_exp = sub.add_parser("explore", help="run an open-problem exploration")
    p_exp.add_argument("--problem", required=True,
                       help=f"one of {', '.join(EXPLORE)}")
    p_exp.add_argument("--n", type=int, default=None)
    p_exp.add_argument("--k", type=int, default=None)
    p_exp.add_argument("--kmax", type=int, default=None)
    p_exp.add_argument("--m", type=int, default=None)
    p_exp.add_argument("--nmax", type=int, default=None)
    p_exp.add_argument("--c", default=None)
    p_exp.add_argument("--a", default=None)
    p_exp.add_argument("--lambda", dest="lam", default=None)
    p_exp.add_argument("--h", default=None)
    p_exp.add_argument("--y0", default=None)
    p_exp.add_argument("--xgrid", default=None,
                       help="x grid, e.g. 'log(1e-2,10,20)' or 'lin(0.1,5,10)'")
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--format", default="json", choices=("json", "csv", "text"))
    add_common(p_exp)
    p_exp.set_defaults(func=_cmd_explore)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, DomainError, PoleError, DegeneratePointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:  # mpmath overflows at extreme arguments
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
