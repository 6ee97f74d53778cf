"""Workload ``orbit_exact``: exact doubleton orbits on the generic vector path.

Inputs are seeded surd and rational doubletons, 1-D and planar, chosen so
that the floor-form closed form applies, plus the canonical
``surd_aperiodic``, ``r2_beatty`` and ``rational_cycle`` problems.  Each
problem is one group of jobs: ``iterate`` with a full and a slim trace,
``check_step_gap``, ``coefficient_limits``, ``compute_betas``,
``verify_closed_form`` and a ``closed_form_point`` sweep.

Why: scalars -> geometry.dr_step -> dynamics -> closedform take nearly all
of the time here, so an orbit kernel or closed-form rework shows its gain on
this workload.
"""

from __future__ import annotations

import random
from fractions import Fraction

from common import FirstRun, Job, canonical_wire, fraction_text, load_digests, require, surd_wire, trace_digest
from reference import RefProblem, dot, from_program, ref_problem

CANONICAL = ("surd_aperiodic", "r2_beatty", "rational_cycle")

SIZES = {
    "full": dict(surd_h=80, rat_h=300, surd_verify=40, rat_verify=150, surd_sweep=24, rat_sweep=8),
    "tiny": dict(surd_h=20, rat_h=40, surd_verify=10, rat_verify=20, surd_sweep=6, rat_sweep=2),
}


def _seeded_doubleton(rng, backend: str, planar: bool, den: int) -> dict:
    """A straddling doubleton on which the closed form applies (checked
    with the reference arithmetic, never with drplane).  Denominators are
    fixed per slot and surd parts never vanish, so number sizes, and with
    them the cost per step, do not depend on the seed."""
    while True:
        if backend == "surd":
            off1 = surd_wire(-Fraction(rng.randint(1, 8), 2), -Fraction(rng.randint(1, 6), 2))
            off2 = surd_wire(Fraction(rng.randint(1, 8), 2), Fraction(rng.randint(1, 6), 2))
            off0 = surd_wire(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-2, 2), 2))
            lift = lambda n: surd_wire(n, 0)  # noqa: E731
        else:
            off1 = fraction_text(-Fraction(rng.randint(1, 40), den))
            off2 = fraction_text(Fraction(rng.randint(1, 40), den))
            off0 = fraction_text(Fraction(rng.randint(-30, 30), den))
            lift = lambda n: n  # noqa: E731
        if planar:
            lat = [lift(rng.randint(-3, 3)) for _ in range(3)]
            wire = {
                "normal": [lift(0), lift(1)],
                "points": [[lat[0], off1], [lat[1], off2]],
                "x0": [lat[2], off0],
            }
        else:
            wire = {"normal": [lift(1)], "points": [[off1], [off2]], "x0": [off0]}
        wire["backend"] = backend
        if backend == "surd":
            wire["surd_d"] = 2
        ref = ref_problem(wire)
        if ref.straddles() and ref.points[0] != ref.points[1] and ref.closed_form_applies():
            return wire


# (backend, planar, denominator of the rational data) per seeded slot
SLOTS = (
    ("surd", False, 2), ("surd", False, 2), ("surd", True, 2), ("surd", True, 2),
    ("rational", False, 3), ("rational", False, 4), ("rational", False, 5), ("rational", True, 6),
)


def generate(seed: int, size: str):
    rng = random.Random(f"orbit_exact:{seed}")
    pool = [(name, canonical_wire(name)) for name in CANONICAL]
    for i, (backend, planar, den) in enumerate(SLOTS):
        pool.append((f"{backend}{i}", _seeded_doubleton(rng, backend, planar, den)))
    return {"size": size, "seed": seed, "pool": pool, "wires": dict(pool), "first": FirstRun()}


def _check_trace(result, ref: RefProblem, horizon: int, full: bool) -> int:
    """Every transition of the trace recomputed by the reference step."""
    trace = result.trace
    require(len(trace) == horizon + 1, f"trace has {len(trace)} records, want {horizon + 1}")
    require([from_program(c) for c in trace[0].x] == ref.x0, "record 0 is not x0")
    for n in range(horizon):
        if n == 0:
            x = ref.x0
        elif full:
            x = [from_program(c) for c in trace[n].x]
        else:
            # every iterate after x0 sits on b_k + span(u) at the previous offset
            c = from_program(trace[n - 1].inner)
            b = ref.points[trace[n].selector_k - 1]
            x = [c * ui + bi for ui, bi in zip(ref.u, b)]
        nxt, k = ref.dr_step(x)
        rec = trace[n + 1]
        require(rec.selector_k == k, f"selector at n={n + 1}: {rec.selector_k} != {k}")
        require(from_program(rec.inner) == dot(nxt, ref.u), f"offset at n={n + 1}")
        if full:
            require([from_program(c) for c in rec.x] == nxt, f"iterate at n={n + 1}")
    return horizon


def groups(inputs: dict, dp) -> list[list[Job]]:
    """One pass over the pool; each problem is a group of jobs."""
    sz = SIZES[inputs["size"]]
    digests = load_digests()
    sweep_rng = random.Random(f"orbit_sweep:{inputs['seed']}")
    return [
        _group(dp, name, wire, sz, digests, sweep_rng, inputs)
        for name, wire in inputs["pool"]
    ]


def _group(dp, name, wire, sz, digests, sweep_rng, inputs) -> list[Job]:
    problem = dp.problems.problem_from_dict(wire)
    dpp = dp.cycling.DoubletonProblem.from_problem(problem)
    A, B, x0 = problem.hyperplane, problem.points, problem.x0
    ref = ref_problem(wire)
    surd = wire["backend"] == "surd"
    H = sz["surd_h"] if surd else sz["rat_h"]
    HV = sz["surd_verify"] if surd else sz["rat_verify"]
    state = {}

    def check_run(full):
        def check(result):
            key = f"orbit:{name}:{inputs['size']}:{'full' if full else 'slim'}"
            digest = trace_digest(result)
            if key in digests:
                require(digest == digests[key], f"{key} digest changed")
            state["full" if full else "slim"] = result
            return inputs["first"].check(key, digest, lambda: _check_trace(result, ref, H, full))
        return check

    beta1, beta2, beta = ref.betas()

    def check_gap(ok):
        require(ok is True, "step gap below min distance on a straddling disjoint problem")
        return 0

    def check_limits(res):
        limit1, limit2, deviation = res
        span = beta2 - beta1
        require(from_program(limit1) == beta2 / span, "selector-1 limit")
        require(from_program(limit2) == -beta1 / span, "selector-2 limit")
        trace = state["slim"].trace
        count1 = sum(1 for r in trace[1:] if r.selector_k == 1)
        dev = Fraction(count1, H) - beta2 / span
        dev = -dev if dev < 0 else dev
        require(from_program(deviation) == dev, "deviation")
        return 0

    def check_betas(b):
        require(
            [from_program(v) for v in (b.beta1, b.beta2, b.beta)] == [beta1, beta2, beta],
            "window constants",
        )
        state["betas"] = b
        return 0

    def check_verify(report):
        require(report.ok and report.checked == HV, f"verify_closed_form: {report.to_dict()}")
        return HV

    def check_point(n):
        def check(res):
            x, k = res
            rec = state["full"].trace[n]
            require(k == rec.selector_k and x == rec.x, f"closed_form_point({n}) != iterate")
            return 1
        return check

    jobs = [
        Job("iterate_full", check_run(True), lambda: dp.dynamics.iterate(A, B, x0, H)),
        Job("iterate_slim", check_run(False), lambda: dp.dynamics.iterate(A, B, x0, H, slim=True)),
        Job("check_step_gap", check_gap, lambda: dp.dynamics.check_step_gap(state["full"], A, B)),
        Job("coefficient_limits", check_limits, lambda: dp.cycling.coefficient_limits(dpp, state["slim"])),
        Job("compute_betas", check_betas, lambda: dp.closedform.compute_betas(dpp)),
        Job("verify_closed_form", check_verify, lambda: dp.closedform.verify_closed_form(dpp, HV)),
    ]
    for n in sorted(sweep_rng.sample(range(1, H + 1), sz["surd_sweep" if surd else "rat_sweep"])):
        jobs.append(
            Job(
                "closed_form_point",
                check_point(n),
                lambda n=n: dp.closedform.closed_form_point(dpp, state["betas"], n),
            )
        )
    return jobs


def probe_pool(inputs: dict) -> list[dict]:
    return [wire for _, wire in inputs["pool"]]
