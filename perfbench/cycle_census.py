"""Workload ``cycle_census``: cycle search on the integer-lattice loop.

Inputs, all seeded:

* rational doubletons built from a coprime relation ``(q1, q2)`` whose sum
  follows a fixed ladder from 10^3 to 10^5, so every run sees the same
  periods (a 1-D period is q1 + q2; a planar one is a multiple).  Fourteen
  equal 5*10^3 rungs hold the 90th percentile job, and 43 equal 1-D 10^3
  rungs the median, whatever the seed; a pass holds 124 jobs, so that more
  than ten lie beyond the 90th percentile.  17 of the 83 rungs, all at
  10^3, are planar (20 % of the rational instances);
* one irrational-ratio surd doubleton, searched to a 10^6 horizon, which
  ends in ``no_cycle``;
* two dyadic f64 doubletons on the approximate path, whose float
  arithmetic is exact, so their cycles are known.

Of a pass's job CPU time (about 5 s on a 2-core x86-64 VM with CPython
3.11), the rational cycles take about 71 % (the 10^5 rung alone about a
quarter), the surd search 29 %, the f64 instances 0.3 %, and the timed
rationality_predicate and cycle_relation calls 0.1 %.

Jobs: ``detect_cycle`` per instance, and ``rationality_predicate`` and
``cycle_relation`` per planar, surd and f64 instance (the predicate on f64
is an expected refusal).  On the 1-D rational instances those two calls run
inside detect_cycle's oracle instead: as jobs of their own, 40 us calls
would be most of the jobs, and job_p50_ms would sit on them.

Why: the time goes to the cycling loop and its ``seen``/``hist`` tables while
scalars and geometry make about one step per instance, so this workload
bypasses orbit-kernel work.  Bounded-memory cycle detection shows here in
``peak_rss_mb`` (the surd search holds the largest tables), and the cost of
its replay, which only a found cycle pays, in ``steps_per_s`` and in
``job_p90_ms``, which sits on the rational cycles of period 5*10^3.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from common import FirstRun, Job, fraction_text, require, surd_wire

LADDER = (1000,) * 60 + (2000,) * 5 + (3000,) * 3 + (5000,) * 14 + (100000,)
PLANAR_RUNGS = tuple(range(0, 51, 3))
F64_SUMS = (300, 900)

SIZES = {
    "full": dict(scale=1, surd_horizon=10**6),
    "tiny": dict(scale=100, surd_horizon=10**4),
}


def _coprime_pair(rng, total: int) -> tuple[int, int]:
    """Coprime q1, q2 with q1 + q2 = total."""
    while True:
        q1 = rng.randint(max(1, total // 5), max(1, 4 * total // 5))
        if math.gcd(q1, total) == 1:
            return q1, total - q1


def _rational(rng, total: int, planar: bool) -> dict:
    """Offsets d1 = q2*s, d2 = q1*s, so q1*d1 = q2*d2.  Denominators are
    fixed (7 for s, 3 for x0) so that number sizes, and with them the cost
    per state, do not depend on the seed."""
    q1, q2 = _coprime_pair(rng, total)
    s = Fraction(rng.randint(1, 20), 7)
    off1, off2 = fraction_text(-q2 * s), fraction_text(q1 * s)
    off0 = fraction_text(Fraction(rng.randint(-30, 30), 3))
    if planar:
        lat = [rng.randint(-3, 3) for _ in range(3)]
        wire = {"normal": [0, 1], "points": [[lat[0], off1], [lat[1], off2]], "x0": [lat[2], off0]}
    else:
        wire = {"normal": [1], "points": [[off1], [off2]], "x0": [off0]}
    wire["backend"] = "rational"
    return {"wire": wire, "relation": (q1, q2), "planar": planar}


def _surd(rng) -> dict:
    while True:
        a, b, c, e = (Fraction(rng.randint(1, 6), 2) for _ in range(4))
        # (a + b r2)/(c + e r2) is rational iff (a, b) and (c, e) are parallel
        if a * e != b * c:
            break
    x0 = surd_wire(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(1, 3), 2))
    wire = {
        "normal": [surd_wire(1, 0)],
        "points": [[surd_wire(-a, -b)], [surd_wire(c, e)]],
        "x0": [x0],
        "backend": "surd",
        "surd_d": 2,
    }
    return {"wire": wire, "relation": None, "planar": False}


def _f64(rng, total: int) -> dict:
    q1, q2 = _coprime_pair(rng, total)
    s = Fraction(rng.randint(1, 8), 4)
    x0 = Fraction(rng.randint(-16, 16), 4)
    wire = {
        "normal": [1.0],
        "points": [[float(-q2 * s)], [float(q1 * s)]],
        "x0": [float(x0)],
        "backend": "f64",
    }
    return {"wire": wire, "relation": (q1, q2), "planar": False}


def generate(seed: int, size: str) -> dict:
    """A seeded ladder of rational instances, two f64 instances and one
    surd instance: one pass, which every pass repeats."""
    rng = random.Random(f"cycle_census:{seed}")
    scale = SIZES[size]["scale"]
    instances = [
        _rational(rng, max(3, total // scale), i in PLANAR_RUNGS) for i, total in enumerate(LADDER)
    ]
    instances += [_f64(rng, max(3, total // scale)) for total in F64_SUMS]
    instances.append(_surd(rng))
    wires = {f"c{i}": inst["wire"] for i, inst in enumerate(instances)}
    return {"size": size, "instances": instances, "wires": wires, "first": FirstRun()}


def groups(inputs: dict, dp) -> list[list[Job]]:
    sz = SIZES[inputs["size"]]
    return [_group(dp, f"c{i}", inst, sz, inputs["first"]) for i, inst in enumerate(inputs["instances"])]


def _replay(dp, dpp, report) -> None:
    """The reported cycle lies on the orbit of x0 and replays under plain
    geometry.dr_step: preperiod steps from x0 reach the first state (and
    one step fewer does not reach the last, so the preperiod is minimal),
    state i+1 is the step from state i, and the last state steps to the
    first."""
    A, B = dpp.hyperplane, dpp.finite_set()
    states = report.states
    require(len(states) == report.period, "cycle lists period states")
    x, before = dpp.x0, None
    for _ in range(report.preperiod):
        before = x
        x, _ = dp.geometry.dr_step(A, B, x)
    require(x == states[0], "cycle does not start at x_preperiod")
    require(before is None or before != states[-1], "preperiod is not minimal")
    for i in range(report.period):
        nxt, _ = dp.geometry.dr_step(A, B, states[i])
        require(nxt == states[(i + 1) % report.period], f"cycle does not replay at state {i}")


def _group(dp, key: str, inst: dict, sz: dict, first: FirstRun) -> list[Job]:
    wire = inst["wire"]
    problem = dp.problems.problem_from_dict(wire)
    dpp = dp.cycling.DoubletonProblem.from_problem(problem)
    relation = inst["relation"]
    backend = wire["backend"]
    horizon = sz["surd_horizon"] if backend == "surd" else 10**6

    def check_detect(report):
        fingerprint = (report.status, report.preperiod, report.period, report.approximate,
                       hash(report.states))
        return first.check(key, fingerprint, lambda: full_check(report))

    def full_check(report):
        if relation is None:
            require(report.status == "no_cycle", "irrational ratio must never cycle")
            require(report.horizon == horizon, "no_cycle horizon")
            return horizon
        require(report.status == "cycle", f"rational ratio {relation} did not cycle")
        q = relation[0] + relation[1]
        if inst["planar"]:
            require(report.period % q == 0, f"period {report.period} not a multiple of {q}")
        else:
            require(report.period == q, f"1-D period {report.period} != q1 + q2 = {q}")
        require(report.approximate == (backend == "f64"), "approximate flag")
        _replay(dp, dpp, report)
        if not timed_calls:
            check_predicate(dp.cycling.rationality_predicate(dpp))
            check_relation(dp.cycling.cycle_relation(dpp))
        return report.preperiod + report.period + 1

    def check_predicate(value):
        require(value is (relation is not None), f"rationality_predicate {value}")
        return 0

    def check_relation(value):
        require(value == relation, f"cycle_relation {value} != {relation}")
        return 0

    # the predicate and relation calls are jobs of their own on the planar,
    # surd and f64 instances; on the 1-D rational ones they run in the oracle
    timed_calls = backend != "rational" or inst["planar"]
    jobs = [Job("detect_cycle", check_detect, lambda: dp.cycling.detect_cycle(dpp, horizon))]
    if not timed_calls:
        return jobs
    if backend == "f64":
        jobs.append(
            Job(
                "rationality_predicate",
                lambda _: 0,
                lambda: dp.cycling.rationality_predicate(dpp),
                expect_exc=dp.errors.BackendError,
            )
        )
    else:
        jobs.append(Job("rationality_predicate", check_predicate, lambda: dp.cycling.rationality_predicate(dpp)))
        jobs.append(Job("cycle_relation", check_relation, lambda: dp.cycling.cycle_relation(dpp)))
    return jobs


def probe_pool(inputs: dict) -> list[dict]:
    return list(inputs["wires"].values())
