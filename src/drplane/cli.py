"""Command line front end.

Loads a problem JSON, runs the requested analysis, and writes the result once
through ``_write``: CSV, JSON, or an aligned text table, to stdout or --out,
which gets exactly the bytes stdout would (cycle and verify write JSON).  CSV
is built in one buffer and written once, since a write per row to stdout costs
about 5 % more CPU on a 3000-row trace.  Exit codes: 0 success, 1 a
verification mismatch, 2 invalid input (bad file, bad flags, or a request
whose preconditions fail).  The cycle search, the closed form and the
alternating projections are imported by the commands that run them, so
each child process loads only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace

from .dynamics import (
    Outcome,
    RunResult,
    iterate,
    run_report,
    trace_csv_header,
    trace_rows,
    write_csv,
)
from .errors import PreconditionError, ProblemFormatError
from .geometry import TiePolicy
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


def _load(args: argparse.Namespace) -> Problem:
    p = load_problem(args.problem)
    if args.tie_policy is not None:
        p = replace(p, points=replace(p.points, tie_policy=args.tie_policy))
    if args.backend is not None:
        p = _convert_backend(p, args.backend)
    return p


def _table_text(header: list[str], rows, trailer: str | None = None) -> str:
    rows = [list(r) for r in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt_row = lambda cells: "  ".join(  # noqa: E731
        c.ljust(widths[i]) for i, c in enumerate(cells)
    ).rstrip()
    lines = [fmt_row(header)] + [fmt_row(r) for r in rows]
    if trailer:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _write(args: argparse.Namespace, report, header=None, rows=None, trailer=None) -> None:
    """Write one result to --out or stdout: --format csv or table of header
    and rows(), or json of report() (cycle and verify have no --format).
    Only the format's own callable runs, and --out is opened last."""
    fmt = getattr(args, "fmt", "json")
    if fmt == "csv":
        buf = io.StringIO()
        write_csv(buf, header, rows())
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(report(), indent=2) + "\n"
    else:
        text = _table_text(header, rows(), trailer)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _trace(p: Problem, result: RunResult, method: str):
    """_write's report, header, rows and trailer for a trace."""
    A, B = p.hyperplane, p.points

    def report():
        out = run_report(result, A, B)
        out["method"] = method
        return out

    trailer = "outcome: " + OUTCOME_LABELS[result.outcome]
    if result.fixed_at is not None:
        trailer += f" (fixed from n={result.fixed_at})"
    return report, trace_csv_header(B.m, A.dim), lambda: trace_rows(result, A, B), trailer


def cmd_run(args: argparse.Namespace) -> int:
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


def cmd_cycle(args: argparse.Namespace) -> int:
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
    _write(args, lambda: report)
    return 0


def cmd_closed_form(args: argparse.Namespace) -> int:
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


def cmd_verify(args: argparse.Namespace) -> int:
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
    _write(args, lambda: report)
    return 1 if report["ok"] is False else 0


def cmd_map(args: argparse.Namespace) -> int:
    from .altproj import ap_iterate, ap_report, ap_rows

    p = _load(args)
    A, B = p.hyperplane, p.points
    trace = ap_iterate(A, B, p.x0, args.horizon)
    header = trace_csv_header(B.m, A.dim)
    _write(args, lambda: ap_report(trace, A, B), header, lambda: ap_rows(trace, A, B))
    return 0


def cmd_beatty(args: argparse.Namespace) -> int:
    from .closedform import beatty_triple

    triples = [(n, *beatty_triple(n)) for n in range(args.horizon + 1)]
    _write(
        args,
        lambda: {"method": "beatty", "records": [dict(zip("nuvw", t)) for t in triples]},
        list("nuvw"),
        lambda: ([str(c) for c in t] for t in triples),
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


def build_parser() -> argparse.ArgumentParser:
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

    def add_problem_opts(sp):
        sp.add_argument("--problem", required=True, help="problem JSON path")
        sp.add_argument(
            "--tie-policy",
            choices=[t.value for t in TiePolicy],
            help="override the problem's projection tie policy",
        )
        sp.add_argument(
            "--backend",
            choices=list(BACKENDS),
            help="override the problem backend (only downgrades to f64)",
        )

    def add_output_opts(sp, default_fmt="table"):
        sp.add_argument("--format", dest="fmt", choices=FORMATS, default=default_fmt)
        sp.add_argument("--out", help="write output here instead of stdout")

    sp = sub.add_parser("run", help="iterate and dump the trace")
    add_problem_opts(sp)
    sp.add_argument("--horizon", type=int, default=100)
    add_output_opts(sp)

    sp = sub.add_parser("cycle", help="detect eventual periodicity (doubletons)")
    add_problem_opts(sp)
    sp.add_argument("--horizon", type=int, default=10**6)
    sp.add_argument(
        "--heuristic-rationality",
        action="store_true",
        help="on the f64 backend, guess the offset-ratio rationality by "
        "continued fractions instead of reporting it unavailable",
    )
    sp.add_argument("--out", help="write output here instead of stdout")

    sp = sub.add_parser("closed-form", help="evaluate the floor-form trace")
    add_problem_opts(sp)
    sp.add_argument("--horizon", type=int, default=100)
    sp.add_argument(
        "--fallback-iterate",
        action="store_true",
        help="if the formula preconditions fail, emit the direct iteration "
        "instead of exiting with status 2",
    )
    add_output_opts(sp)

    sp = sub.add_parser("verify", help="check the floor form against iteration")
    add_problem_opts(sp)
    sp.add_argument("--horizon", type=int, default=1000)
    sp.add_argument(
        "--fallback-iterate",
        action="store_true",
        help="if the formula preconditions fail, run the iteration and "
        "report that nothing was checked instead of exiting with status 2",
    )
    sp.add_argument("--out", help="write output here instead of stdout")

    sp = sub.add_parser("map", help="alternating-projections baseline trace")
    add_problem_opts(sp)
    sp.add_argument("--horizon", type=int, default=100)
    add_output_opts(sp)

    sp = sub.add_parser("beatty", help="emit the staircase integer sequences")
    sp.add_argument("--horizon", type=int, default=20)
    add_output_opts(sp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.horizon < 1:
        print("error: horizon must be >= 1", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        # every package error derives from ValueError; all mean bad input here
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
