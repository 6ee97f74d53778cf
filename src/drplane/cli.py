"""Command line front end.

Loads a problem JSON, runs the requested analysis, and writes CSV, JSON, or
an aligned text table to stdout or --out. Exit codes: 0 success, 1 a
verification mismatch, 2 invalid input (bad file, bad flags, or a request
whose preconditions fail).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from .altproj import ap_iterate, ap_report, ap_rows
from .closedform import beatty_triple, closed_form_trace, verify_closed_form
from .cycling import (
    DoubletonProblem,
    cycle_relation,
    detect_cycle,
    rationality_predicate,
)
from .dynamics import (
    Outcome,
    RunResult,
    iterate,
    run_report,
    trace_csv_header,
    trace_rows,
)
from .errors import PreconditionError, ProblemFormatError
from .geometry import FiniteSet, Hyperplane, TiePolicy
from .problems import Problem, load_problem
from .scalars import BACKENDS, F64, rational_heuristic

OUTCOME_LABELS = {
    Outcome.FIXED_POINT: "FixedPointReached",
    Outcome.HORIZON: "HorizonReached",
    Outcome.DIVERGENCE: "DivergenceDetected",
}

FORMATS = ("csv", "json", "table")

# float ratio is declared rational when rational_heuristic's fraction sits this close
HEURISTIC_REL_TOL = 1e-9


@dataclass(frozen=True)
class Config:
    command: str
    problem: str | None = None
    horizon: int = 100
    fmt: str = "table"
    out: str | None = None
    tie_policy: str | None = None
    backend: str | None = None
    heuristic_rationality: bool = False
    fallback_iterate: bool = False


def _convert_backend(p: Problem, target: str) -> Problem:
    if target == p.backend:
        return p
    if target != F64:
        raise ProblemFormatError(
            f"cannot convert a {p.backend} problem to {target!r}; "
            "only downgrades to f64 are supported"
        )
    cast = lambda v: tuple(float(c) for c in v)  # noqa: E731
    hyperplane = Hyperplane(cast(p.hyperplane.normal))
    finite = FiniteSet.ordered(
        [cast(pt) for pt in p.points.points], hyperplane, p.tie_policy
    )
    return Problem(hyperplane, finite, cast(p.x0), F64, None)


def _load(config: Config) -> Problem:
    p = load_problem(config.problem)
    if config.tie_policy is not None:
        policy = TiePolicy(config.tie_policy)
        if policy is not p.points.tie_policy:
            finite = FiniteSet(p.points.points, p.points.inners, policy)
            p = Problem(p.hyperplane, finite, p.x0, p.backend, p.surd_d)
    if config.backend is not None:
        p = _convert_backend(p, config.backend)
    return p


def _emit(text: str, config: Config) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


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


def _emit_trace(result: RunResult, p: Problem, config: Config, method: str) -> None:
    header = trace_csv_header(p.points.m, p.hyperplane.dim)
    if config.fmt == "csv":
        text = _csv_text(header, trace_rows(result, p.hyperplane, p.points))
    elif config.fmt == "json":
        report = run_report(result, p.hyperplane, p.points)
        report["method"] = method
        text = json.dumps(report, indent=2) + "\n"
    else:
        trailer = "outcome: " + OUTCOME_LABELS[result.outcome]
        if result.fixed_at is not None:
            trailer += f" (fixed from n={result.fixed_at})"
        text = _table_text(header, trace_rows(result, p.hyperplane, p.points), trailer)
    _emit(text, config)


def cmd_run(config: Config) -> int:
    p = _load(config)
    result = iterate(p.hyperplane, p.points, p.x0, config.horizon)
    _emit_trace(result, p, config, "dr")
    return 0


def _heuristic_rationality(dp: DoubletonProblem):
    ratio = (-dp.beta1) / dp.beta2
    guess = rational_heuristic(ratio)
    if abs(float(guess) - ratio) <= HEURISTIC_REL_TOL * max(1.0, abs(ratio)):
        return True, (guess.denominator, guess.numerator)
    return False, None


def cmd_cycle(config: Config) -> int:
    p = _load(config)
    dp = DoubletonProblem.from_problem(p)
    report = detect_cycle(dp, config.horizon).to_dict()
    if p.backend == F64:
        if config.heuristic_rationality:
            rational, relation = _heuristic_rationality(dp)
        else:
            rational, relation = "unavailable", None
    else:
        rational = rationality_predicate(dp)
        relation = cycle_relation(dp)
    report["rational"] = rational
    report["relation"] = None if relation is None else list(relation)
    _emit(json.dumps(report, indent=2) + "\n", config)
    return 0


def cmd_closed_form(config: Config) -> int:
    p = _load(config)
    try:
        dp = DoubletonProblem.from_problem(p)
        result = closed_form_trace(dp, config.horizon)
    except PreconditionError:
        if not config.fallback_iterate:
            raise
        result = iterate(p.hyperplane, p.points, p.x0, config.horizon)
        _emit_trace(result, p, config, "dr")
        return 0
    _emit_trace(result, p, config, "closed_form")
    return 0


def cmd_verify(config: Config) -> int:
    p = _load(config)
    try:
        dp = DoubletonProblem.from_problem(p)
        report = verify_closed_form(dp, config.horizon)
    except PreconditionError as exc:
        if not config.fallback_iterate:
            raise
        iterate(p.hyperplane, p.points, p.x0, config.horizon)
        payload = {
            "ok": None,
            "checked": 0,
            "horizon": config.horizon,
            "first_mismatch": None,
            "note": f"{exc}; ran the direct iteration instead",
        }
        _emit(json.dumps(payload, indent=2) + "\n", config)
        return 0
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", config)
    return 0 if report.ok else 1


def cmd_map(config: Config) -> int:
    p = _load(config)
    trace = ap_iterate(p.hyperplane, p.points, p.x0, config.horizon)
    header = trace_csv_header(p.points.m, p.hyperplane.dim)
    if config.fmt == "csv":
        text = _csv_text(header, ap_rows(trace, p.hyperplane, p.points))
    elif config.fmt == "json":
        text = json.dumps(ap_report(trace, p.hyperplane, p.points), indent=2) + "\n"
    else:
        text = _table_text(header, ap_rows(trace, p.hyperplane, p.points))
    _emit(text, config)
    return 0


def cmd_beatty(config: Config) -> int:
    triples = [beatty_triple(n) for n in range(config.horizon + 1)]
    header = ["n", "u", "v", "w"]
    if config.fmt == "json":
        records = [
            {"n": n, "u": u, "v": v, "w": w} for n, (u, v, w) in enumerate(triples)
        ]
        text = json.dumps({"method": "beatty", "records": records}, indent=2) + "\n"
    else:
        rows = [[str(n), str(u), str(v), str(w)] for n, (u, v, w) in enumerate(triples)]
        text = _csv_text(header, rows) if config.fmt == "csv" else _table_text(header, rows)
    _emit(text, config)
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
    config = Config(
        command=args.command,
        problem=getattr(args, "problem", None),
        horizon=args.horizon,
        fmt=getattr(args, "fmt", "table"),
        out=getattr(args, "out", None),
        tie_policy=getattr(args, "tie_policy", None),
        backend=getattr(args, "backend", None),
        heuristic_rationality=getattr(args, "heuristic_rationality", False),
        fallback_iterate=getattr(args, "fallback_iterate", False),
    )
    if config.horizon < 1:
        print("error: horizon must be >= 1", file=sys.stderr)
        return 2
    try:
        return COMMANDS[config.command](config)
    except (OSError, ValueError) as exc:
        # every package error derives from ValueError; all mean bad input here
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
