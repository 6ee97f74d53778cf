#!/usr/bin/env python3
"""Regenerate the headline experiments and write their traces as CSV.

Covers the five behaviours the package is built around: the rational
doubleton that settles into a 3-cycle, the sqrt(2) doubleton that never
repeats, selector frequencies against their exact limits, the planar
staircase orbit, the alternating-projections contrast, and the two
infeasible halfspace outcomes.

Usage:
    python3 scripts/reproduce_dynamics.py --outdir out/
"""

import argparse
from fractions import Fraction
from pathlib import Path

from drplane.altproj import ap_iterate, ap_lines
from drplane.closedform import beatty_triple, verify_closed_form
from drplane.cycling import DoubletonProblem, coefficient_limits, detect_cycle
from drplane.dynamics import csv_text, iterate, trace_csv_header, trace_lines
from drplane.geometry import FiniteSet, Hyperplane
from drplane.scalars import Surd, format_scalar


def line_problem(b1, b2):
    A = Hyperplane((Fraction(1),))
    return DoubletonProblem(A, (Fraction(b1),), (Fraction(b2),), (Fraction(0),))


def surd_line_problem():
    A = Hyperplane((Surd(1, 0, 2),))
    return DoubletonProblem(
        A, (Surd(-1, 0, 2),), (Surd(0, 1, 2),), (Surd(0, 0, 2),)
    )


def plane_problem():
    z = lambda v: Surd(v, 0, 2)  # noqa: E731
    A = Hyperplane((z(0), z(1)))
    return DoubletonProblem(A, (z(0), z(-1)), (z(1), Surd(0, 1, 2)), (z(0), z(0)))


def dump_csv(path, p, lines):
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(csv_text(trace_csv_header(2, p.hyperplane.dim), lines))


def dump_run(p, horizon, path):
    run = iterate(p.hyperplane, p.finite_set(), p.x0, horizon)
    dump_csv(path, p, trace_lines(run, p.hyperplane, p.finite_set()))
    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out", help="directory for CSV traces")
    ap.add_argument("--horizon", type=int, default=200, help="trace length")
    ap.add_argument(
        "--cycle-horizon", type=int, default=10**5, help="cycle search bound"
    )
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rational = line_problem(-1, 2)
    run = dump_run(rational, args.horizon, outdir / "rational_trace.csv")
    report = detect_cycle(rational, args.cycle_horizon)
    print(
        f"rational doubleton {{-1, 2}}: {report.status}, "
        f"preperiod={report.preperiod}, period={report.period}, "
        f"first terms {[format_scalar(r.inner) for r in run.trace[:7]]}"
    )

    surd = surd_line_problem()
    run = dump_run(surd, args.horizon, outdir / "surd_trace.csv")
    report = detect_cycle(surd, args.cycle_horizon)
    print(
        f"surd doubleton {{-1, sqrt2}}: {report.status} within "
        f"{args.cycle_horizon} steps; first terms "
        f"{[format_scalar(r.inner) for r in run.trace[:6]]}"
    )

    for name, p in (("rational", rational), ("surd", surd)):
        run = iterate(p.hyperplane, p.finite_set(), p.x0, args.horizon)
        limit1, limit2, deviation = coefficient_limits(p, run)
        print(
            f"{name} selector-1 frequency after {args.horizon} steps: "
            f"limit {format_scalar(limit1)}, deviation {format_scalar(deviation)}"
        )

    plane = plane_problem()
    ok = verify_closed_form(plane, args.horizon).ok
    run = iterate(plane.hyperplane, plane.finite_set(), plane.x0, args.horizon)
    staircase = all(
        run.trace[n].x
        == (Surd(beatty_triple(n)[0], 0, 2), Surd(-beatty_triple(n)[1], beatty_triple(n)[2], 2))
        for n in range(args.horizon + 1)
    )
    dump_csv(outdir / "plane_trace.csv", plane, trace_lines(run, plane.hyperplane, plane.finite_set()))
    print(
        f"planar sqrt2 instance: closed form verified={ok}, "
        f"integer-staircase identity={staircase}"
    )

    for name, p in (("rational", rational), ("surd", surd)):
        trace = ap_iterate(p.hyperplane, p.finite_set(), p.x0, 11)
        dump_csv(outdir / f"map_{name}.csv", p, ap_lines(trace, p.hyperplane, p.finite_set()))
        values = [format_scalar(pt[0]) for pt in trace.points]
        print(f"alternating projections ({name}): {values}")

    A = Hyperplane((Fraction(0), Fraction(1)))
    above = FiniteSet.ordered([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))], A)
    run = iterate(A, above, (Fraction(0), Fraction(0)), 5000)
    print(
        f"one-sided infeasible: outcome={run.outcome.value}, "
        f"shadow limit={tuple(format_scalar(c) for c in run.shadow_limit)}"
    )
    touching = FiniteSet.ordered([(Fraction(0), Fraction(0)), (Fraction(0), Fraction(2))], A)
    run = iterate(A, touching, (Fraction(1), Fraction(1)), 10)
    print(f"one-sided feasible: outcome={run.outcome.value}, fixed at n={run.fixed_at}")

    print(f"CSV traces written to {outdir}/")


if __name__ == "__main__":
    main()
