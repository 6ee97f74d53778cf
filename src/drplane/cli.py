"""Command line front end.

Loads a problem JSON, runs the requested analysis, and writes the result once
through ``_write``: CSV, JSON, or an aligned text table, to stdout or --out,
which gets exactly the bytes stdout would (cycle and verify write JSON).
Trace CSV lines and trace JSON come from the exporters of
:mod:`drplane.dynamics`, which format each orbit state once and assemble
both from those per-state fragments, one encoder per format: the CSV text
is its lines joined once (:func:`~drplane.dynamics.csv_text`), the bytes
``csv.writer`` would write, and the JSON text is byte-identical to
``json.dumps`` of its own parse at ``indent=2``; a table splits the same
lines into cells, and other reports go through the same JSON encoder,
:func:`~drplane.dynamics.json_text`.  Exit codes:
0 success, 1 a verification mismatch, 2 invalid input (bad file, bad flags,
or a request whose preconditions fail).

Each child is a fresh interpreter, and on a short run its start-up costs more
than its work, so a child imports little: json and the trace path (dynamics,
geometry, lattice, problems, scalars and slotted, with enum, fractions and
functools); the cycle search, the closed form and the alternating
projections are imported by the commands that run them.  No drplane module
imports csv, whose rows the line renderer writes itself, or dataclasses: it
loads inspect, ast, dis and tokenize, and each decorated class execs its
generated methods, which together cost more CPU than a median ``run``
child's own work, so the classes are slotted (:mod:`drplane.slotted`).  Nor
does a well-formed command line load argparse, gettext and locale: a
subcommand and its exact long options, each ``--option value`` with a value
not starting with "-", are read by :func:`parse_direct`; help, errors,
abbreviations, ``--option=value`` and all else go to :func:`build_parser`.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .dynamics import (
    Outcome,
    RunResult,
    csv_text,
    iterate,
    json_text,
    run_json,
    trace_csv_header,
    trace_lines,
)
from .errors import PreconditionError, ProblemFormatError
from .geometry import FiniteSet, TiePolicy
from .lattice import _paused
from .problems import Problem, load_problem, make_problem
from .scalars import BACKENDS, F64, F64_REL_TOL, finite_float, rational_heuristic

OUTCOME_LABELS = {
    Outcome.FIXED_POINT: "FixedPointReached",
    Outcome.HORIZON: "HorizonReached",
    Outcome.DIVERGENCE: "DivergenceDetected",
}

FORMATS = ("csv", "json", "table")


def _convert_backend(p: Problem, target: str) -> Problem:
    if target == p.backend:
        return p
    if target != F64:
        raise ProblemFormatError(
            f"cannot convert a {p.backend} problem to {target!r}; "
            "only downgrades to f64 are supported"
        )
    cast = lambda v: [finite_float(c) for c in v]  # noqa: E731
    return make_problem(
        cast(p.hyperplane.normal), [cast(pt) for pt in p.points.points], cast(p.x0),
        p.tie_policy,
    )


def _load(args) -> Problem:
    p = load_problem(args.problem)
    if args.tie_policy is not None:
        B = p.points
        p = Problem(p.hyperplane, FiniteSet(B.points, B.inners, args.tie_policy), p.x0)
    if args.backend is not None:
        p = _convert_backend(p, args.backend)
    return p


def _table_text(header: list[str], lines, trailer: str | None = None) -> str:
    """header and the comma-separated lines as aligned columns.  Each line is
    kept whole and split into cells once per pass, and then replaced by its
    table row, so that the rows are never held as cells."""
    lines = list(lines)
    widths = [len(h) for h in header]
    for line in lines:
        for i, cell in enumerate(line.split(",")):
            if len(cell) > widths[i]:
                widths[i] = len(cell)
    fmt_row = lambda cells: "  ".join(  # noqa: E731
        c.ljust(widths[i]) for i, c in enumerate(cells)
    ).rstrip()
    for i, line in enumerate(lines):
        lines[i] = fmt_row(line.split(","))
    lines.insert(0, fmt_row(header))
    if trailer:
        lines.append(trailer)
    lines.append("")
    return "\n".join(lines)


def _write(args, report_text, header=None, lines=None, trailer=None) -> None:
    """Write one result to --out or stdout: --format csv or table of header
    and the comma-separated lines(), or the JSON report_text() (cycle and
    verify have no --format).  Only the format's own callable runs, and
    --out is opened last."""
    fmt = getattr(args, "fmt", "json")
    if fmt == "csv":
        text = csv_text(header, lines())
    elif fmt == "json":
        text = report_text()
    else:
        text = _table_text(header, lines(), trailer)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _trace(p: Problem, result: RunResult, method: str):
    """_write's report_text, header, lines and trailer for a trace."""
    A, B = p.hyperplane, p.points
    trailer = "outcome: " + OUTCOME_LABELS[result.outcome]
    if result.fixed_at is not None:
        trailer += f" (fixed from n={result.fixed_at})"
    return (
        lambda: run_json(result, A, B, method),
        trace_csv_header(B.m, A.dim),
        lambda: trace_lines(result, A, B),
        trailer,
    )


def cmd_run(args) -> int:
    p = _load(args)
    _write(args, *_trace(p, iterate(p.hyperplane, p.points, p.x0, args.horizon), "dr"))
    return 0


def _heuristic_rationality(dp):
    ratio = (-dp.beta1) / dp.beta2
    guess = rational_heuristic(ratio)
    # the ratio is declared rational when a positive guess sits this close;
    # a guess of 0 gives no positive relation
    if guess > 0 and abs(float(guess) - ratio) <= F64_REL_TOL * max(1.0, abs(ratio)):
        return True, (guess.denominator, guess.numerator)
    return False, None


def cmd_cycle(args) -> int:
    from .cycling import DoubletonProblem, cycle_relation, detect_cycle, rationality_predicate

    p = _load(args)
    dp = DoubletonProblem.from_problem(p)
    report = detect_cycle(dp, args.horizon).to_dict()
    if p.backend == F64:
        if args.heuristic_rationality:
            rational, relation = _heuristic_rationality(dp)
        else:
            rational, relation = "unavailable", None
    else:
        rational = rationality_predicate(dp)
        relation = cycle_relation(dp)
    report["rational"] = rational
    report["relation"] = None if relation is None else list(relation)
    _write(args, lambda: json_text(report) + "\n")
    return 0


def cmd_closed_form(args) -> int:
    from .closedform import closed_form_trace
    from .cycling import DoubletonProblem

    p = _load(args)
    try:
        result = closed_form_trace(DoubletonProblem.from_problem(p), args.horizon)
        method = "closed_form"
    except PreconditionError:
        if not args.fallback_iterate:
            raise
        result, method = iterate(p.hyperplane, p.points, p.x0, args.horizon), "dr"
    _write(args, *_trace(p, result, method))
    return 0


def cmd_verify(args) -> int:
    from .closedform import verify_closed_form
    from .cycling import DoubletonProblem

    p = _load(args)
    try:
        report = verify_closed_form(DoubletonProblem.from_problem(p), args.horizon).to_dict()
    except PreconditionError as exc:
        if not args.fallback_iterate:
            raise
        # the note says that the iteration ran, and perfbench/digests.json
        # pins the note, so the run stays although its result is unused
        iterate(p.hyperplane, p.points, p.x0, args.horizon)
        report = {
            "ok": None, "checked": 0, "horizon": args.horizon, "first_mismatch": None,
            "note": f"{exc}; ran the direct iteration instead",
        }
    _write(args, lambda: json_text(report) + "\n")
    return 1 if report["ok"] is False else 0


def cmd_map(args) -> int:
    from .altproj import ap_iterate, ap_json, ap_lines

    p = _load(args)
    A, B = p.hyperplane, p.points
    trace = ap_iterate(A, B, p.x0, args.horizon)
    header = trace_csv_header(B.m, A.dim)
    _write(args, lambda: ap_json(trace, A, B), header, lambda: ap_lines(trace, A, B))
    return 0


def cmd_beatty(args) -> int:
    from .closedform import beatty_triple

    triples = [(n, *beatty_triple(n)) for n in range(args.horizon + 1)]
    _write(
        args,
        lambda: json_text({"method": "beatty", "records": [dict(zip("nuvw", t)) for t in triples]})
        + "\n",
        list("nuvw"),
        lambda: ("%d,%d,%d,%d" % t for t in triples),
    )
    return 0


COMMANDS = {
    "run": cmd_run,
    "cycle": cmd_cycle,
    "closed-form": cmd_closed_form,
    "verify": cmd_verify,
    "map": cmd_map,
    "beatty": cmd_beatty,
}


# The options of each subcommand, the one source of both parsers: (flag,
# dest, kind, default, help) with kind int, str, a tuple of choices, or bool
# for a store_true flag; a default of _REQUIRED means the flag must be given.
_REQUIRED = object()
_PROBLEM = (
    ("--problem", "problem", str, _REQUIRED, "problem JSON path"),
    ("--tie-policy", "tie_policy", tuple(t.value for t in TiePolicy), None,
     "override the problem's projection tie policy"),
    ("--backend", "backend", tuple(BACKENDS), None,
     "override the problem backend (only downgrades to f64)"),
)
_OUT = ("--out", "out", str, None, "write output here instead of stdout")
_OUTPUT = (("--format", "fmt", FORMATS, "table", None), _OUT)
_horizon = lambda default: ("--horizon", "horizon", int, default, None)  # noqa: E731

SUBCOMMANDS = {
    "run": ("iterate and dump the trace", (*_PROBLEM, _horizon(100), *_OUTPUT)),
    "cycle": ("detect eventual periodicity (doubletons)", (
        *_PROBLEM, _horizon(10**6),
        ("--heuristic-rationality", "heuristic_rationality", bool, False,
         "on the f64 backend, guess the offset-ratio rationality by "
         "continued fractions instead of reporting it unavailable"),
        _OUT,
    )),
    "closed-form": ("evaluate the floor-form trace", (
        *_PROBLEM, _horizon(100),
        ("--fallback-iterate", "fallback_iterate", bool, False,
         "if the formula preconditions fail, emit the direct iteration "
         "instead of exiting with status 2"),
        *_OUTPUT,
    )),
    "verify": ("check the floor form against iteration", (
        *_PROBLEM, _horizon(1000),
        ("--fallback-iterate", "fallback_iterate", bool, False,
         "if the formula preconditions fail, run the iteration and "
         "report that nothing was checked instead of exiting with status 2"),
        _OUT,
    )),
    "map": ("alternating-projections baseline trace", (*_PROBLEM, _horizon(100), *_OUTPUT)),
    "beatty": ("emit the staircase integer sequences", (_horizon(20), *_OUTPUT)),
}


def build_parser():
    """The argparse parser of SUBCOMMANDS, which writes all help, usage and
    error text; argparse is imported only here (see parse_direct)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="drplane",
        description=(
            "Reflect-project dynamics for a hyperplane and a finite point set: "
            "trace runs, cycle reports, floor-form evaluation and verification, "
            "an alternating-projections baseline, and the sqrt(2) staircase "
            "sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, dest, kind, default, opt_help in options:
            if kind is bool:
                sp.add_argument(flag, dest=dest, action="store_true", help=opt_help)
            else:
                sp.add_argument(
                    flag, dest=dest, help=opt_help,
                    type=int if kind is int else None,
                    choices=kind if isinstance(kind, tuple) else None,
                    required=default is _REQUIRED,
                    default=None if default is _REQUIRED else default,
                )
    return parser


def parse_direct(argv=None) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) returns, when argv is a
    subcommand followed by its exact long options, each value as the next
    token and not starting with "-"; None for every other command line,
    which argparse then parses or rejects with its own message."""
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    options = {opt[0]: opt for opt in SUBCOMMANDS[argv[0]][1]}
    args = {"command": argv[0]}
    args.update((dest, default) for _, dest, _, default, _ in options.values())
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            _, dest, kind, _, _ = options[token]
            if kind is bool:
                args[dest] = True
                continue
            value = next(tokens)
            if value.startswith("-") or (isinstance(kind, tuple) and value not in kind):
                return None
            args[dest] = int(value) if kind is int else value
    except (KeyError, StopIteration, ValueError):  # unknown token, no value, bad int
        return None
    if any(value is _REQUIRED for value in args.values()):
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    args = parse_direct(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.horizon < 1:
        print("error: horizon must be >= 1", file=sys.stderr)
        return 2
    try:
        return _paused(COMMANDS[args.command])(args)
    except (OSError, ValueError) as exc:
        # every package error derives from ValueError; all mean bad input here
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
