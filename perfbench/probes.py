"""Per-layer numbers for the traced run.

Two sources feed the per-layer table:

* spans from the workload's own jobs (tracing.py);
* probes: timed calls into one layer on the workload's own inputs.  The
  scalar, dr_step and project_finite_set figures are always probes, on
  operands and states sampled from orbits of the workload's problems.  A
  layer that the workload's jobs never call is measured by a short probe
  job instead (for example ``iterate`` on cycle_census), so every layer has
  a figure; its work counts stay those of the jobs.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from fractions import Fraction

from common import write_problem
from reference import ref_problem
from tracing import bits_of, self_times, totals

PER_LAYER = [
    ("scalars.surd_add_us", "us"),
    ("scalars.surd_mul_us", "us"),
    ("scalars.surd_div_us", "us"),
    ("scalars.surd_cmp_us", "us"),
    ("scalars.surd_floor_us", "us"),
    ("scalars.fraction_add_us", "us"),
    ("scalars.fraction_mul_us", "us"),
    ("scalars.max_coord_bits", "count"),
    ("geometry.dr_step_us.surd", "us"),
    ("geometry.dr_step_us.rational", "us"),
    ("geometry.dr_step_us.f64", "us"),
    ("geometry.project_finite_set_us", "us"),
    ("dynamics.step_us", "us"),
    ("dynamics.loop_overhead_us", "us"),
    ("dynamics.steps", "count"),
    ("dynamics.export_row_us", "us"),
    ("cycling.state_us", "us"),
    ("cycling.states", "count"),
    ("cycling.peak_alloc_mb", "MB"),
    ("closedform.verify_point_us", "us"),
    ("closedform.point_us", "us"),
    ("closedform.points", "count"),
    ("altproj.step_us", "us"),
    ("altproj.steps", "count"),
    ("problems.load_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.run_ms", "ms"),
    ("cli.map_ms", "ms"),
    ("cli.closed-form_ms", "ms"),
    ("cli.verify_ms", "ms"),
    ("cli.cycle_ms", "ms"),
    ("cli.beatty_ms", "ms"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_ratio", "x"),
]

PEAK_HORIZON = 10**5
PROBE_STEPS = 200
ORBIT_SAMPLE = 64


def _per_op_us(fn, pairs, repeats: int = 5) -> float:
    """Median over repeats of the mean time of fn over the pairs, in us."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x, y in pairs:
            fn(x, y)
        runs.append((time.perf_counter() - t0) / len(pairs) * 1e6)
    return statistics.median(runs)


def _f64_wire(wire: dict) -> dict:
    conv = lambda v: float(Fraction(v))  # noqa: E731
    return {
        "normal": [conv(c) for c in wire["normal"]],
        "points": [[conv(c) for c in p] for p in wire["points"]],
        "x0": [conv(c) for c in wire["x0"]],
        "backend": "f64",
    }


class Pool:
    """The workload's problems, one orbit prefix each, grouped by backend."""

    def __init__(self, dp, wires: list[dict]):
        by_backend = {"surd": [], "rational": [], "f64": []}
        for wire in wires:
            by_backend[wire["backend"]].append(wire)
        if not by_backend["f64"]:
            by_backend["f64"] = [_f64_wire(w) for w in by_backend["rational"]]
        self.orbits = {}  # backend -> [(problem, [states])]
        for backend, ws in by_backend.items():
            self.orbits[backend] = []
            for wire in ws[:6]:
                p = dp.problems.problem_from_dict(wire)
                run = dp.dynamics.iterate(p.hyperplane, p.points, p.x0, ORBIT_SAMPLE)
                states = [dp.dynamics.reconstruct_x(run, p.hyperplane, p.points, n)
                          for n in range(len(run.trace))]
                self.orbits[backend].append((p, wire, states))

    def values(self, backend: str) -> list:
        return [c for _, _, states in self.orbits[backend] for x in states for c in x]

    def max_bits(self) -> int:
        return max(bits_of(c) for b in self.orbits for c in self.values(b))

    def doubletons(self, backend: str | None = None):
        return [(p, w) for b, items in self.orbits.items() for p, w, _ in items
                if p.points.m == 2 and (backend is None or b == backend)]


def scalar_probes(pool: Pool) -> dict:
    surds = pool.values("surd")
    fracs = pool.values("rational")
    spairs = list(zip(surds, surds[1:] + surds[:1]))[:400]
    fpairs = list(zip(fracs, fracs[1:] + fracs[:1]))[:400]
    nonzero = [(x, y) for x, y in spairs if y != 0]
    return {
        "scalars.surd_add_us": _per_op_us(lambda x, y: x + y, spairs),
        "scalars.surd_mul_us": _per_op_us(lambda x, y: x * y, spairs),
        "scalars.surd_div_us": _per_op_us(lambda x, y: x / y, nonzero),
        "scalars.surd_cmp_us": _per_op_us(lambda x, y: x < y, spairs),
        "scalars.surd_floor_us": _per_op_us(lambda x, y: math.floor(x), spairs),
        "scalars.fraction_add_us": _per_op_us(lambda x, y: x + y, fpairs),
        "scalars.fraction_mul_us": _per_op_us(lambda x, y: x * y, fpairs),
    }


def geometry_probes(dp, pool: Pool) -> dict:
    out = {}
    for backend in ("surd", "rational", "f64"):
        pairs = [(p, x) for p, _, states in pool.orbits[backend] for x in states]
        out[f"geometry.dr_step_us.{backend}"] = _per_op_us(
            lambda p, x: dp.geometry.dr_step(p.hyperplane, p.points, x), pairs
        )
    widest = max((item for items in pool.orbits.values() for item in items),
                 key=lambda item: item[0].points.m)
    p, _, states = widest
    out["geometry.project_finite_set_us"] = _per_op_us(
        lambda B, x: dp.geometry.project_finite_set(B, x), [(p.points, x) for x in states]
    )
    out["geometry.project_finite_set_m"] = p.points.m
    return out


def layer_probe_jobs(dp, pool: Pool, tracer, have: set) -> None:
    """Short probe calls, traced, for layers the workload's jobs skipped."""
    problems = [p for items in pool.orbits.values() for p, _, _ in items[:2]]
    if "dynamics.iterate" not in have or not have & {"dynamics.trace_rows", "dynamics.run_report"}:
        tracer.job = "probe:dynamics"
        for p in problems:
            run = dp.dynamics.iterate(p.hyperplane, p.points, p.x0, PROBE_STEPS)
            list(dp.dynamics.trace_rows(run, p.hyperplane, p.points))
            dp.dynamics.run_report(run, p.hyperplane, p.points)
    if "altproj.ap_iterate" not in have:
        tracer.job = "probe:altproj"
        for p in problems:
            dp.altproj.ap_iterate(p.hyperplane, p.points, p.x0, PROBE_STEPS)
    doubletons = [dp.cycling.DoubletonProblem.from_problem(p) for p, _ in pool.doubletons()]
    if "cycling.detect_cycle" not in have:
        tracer.job = "probe:cycling"
        for dpp in doubletons:
            if dpp.backend != "f64":
                dp.cycling.detect_cycle(dpp, 10**4)
    if "closedform.verify_closed_form" not in have or "closedform.closed_form_point" not in have:
        tracer.job = "probe:closedform"
        for (p, wire), dpp in zip(pool.doubletons(), doubletons):
            if dpp.backend == "f64" or not ref_problem(wire).closed_form_applies():
                continue
            dp.closedform.verify_closed_form(dpp, 50)
            betas = dp.closedform.compute_betas(dpp)
            for n in range(1, 21):
                dp.closedform.closed_form_point(dpp, betas, n)
    tracer.job = None


def peak_alloc_mb(dp, pool: Pool) -> float:
    """tracemalloc peak across one detect_cycle on the workload's first
    irrational-ratio surd doubleton, at a PEAK_HORIZON horizon (the full
    10^6 horizon under tracemalloc takes minutes)."""
    for p, _ in pool.doubletons("surd"):
        dpp = dp.cycling.DoubletonProblem.from_problem(p)
        if not dp.cycling.rationality_predicate(dpp):
            break
    else:
        raise SystemExit("probe pool has no irrational-ratio surd doubleton")
    tracemalloc.start()
    try:
        dp.cycling.detect_cycle(dpp, PEAK_HORIZON)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cli_probe_jobs(pool: Pool, workdir, run_job) -> None:
    """One traced child per subcommand on the workload's own problems."""
    multi = [w for _, w, _ in pool.orbits["rational"]] or [w for _, w, _ in pool.orbits["f64"]]
    path = write_problem(workdir / "probe_multi.json", multi[0])
    dbl = write_problem(workdir / "probe_dbl.json", pool.doubletons("surd")[0][1])
    for argv in (
        ["run", "--problem", path, "--horizon", "100", "--format", "csv"],
        ["map", "--problem", path, "--horizon", "100", "--format", "json"],
        ["closed-form", "--problem", dbl, "--horizon", "30", "--format", "csv"],
        ["verify", "--problem", dbl, "--horizon", "30"],
        ["cycle", "--problem", dbl, "--horizon", "10000"],
        ["beatty", "--horizon", "100", "--format", "csv"],
    ):
        run_job(argv)


def derive(spans: list[dict], cli_jobs: list[dict], probes: dict, pool_bits: int) -> dict:
    """The per-layer table from spans, CLI job records and probe figures."""
    selfs = self_times(spans)
    jobs_only = [s for s in spans if not str(s["job"]).startswith("probe")]

    def prefer(figure, own, everything):
        """``figure`` on the workload's own jobs; on the probes too when
        the jobs gave it nothing to measure."""
        return figure(own) or figure(everything)

    def rate(names, key, self_time=False, scale=1e6):
        def figure(pool):
            secs = work = 0
            for name in names:
                s_, w_ = totals(pool, name, key, self_time, selfs)
                secs, work = secs + s_, work + w_
            return secs / work * scale if work else None
        return prefer(figure, jobs_only, spans)

    def count(names, key):
        return sum(s.get(key, 0) for s in jobs_only if s["name"] in names)

    out = dict(probes)
    out["scalars.max_coord_bits"] = max([pool_bits] + [s.get("bits", 0) for s in spans])
    out["dynamics.step_us"] = rate(["dynamics.iterate"], "steps", self_time=True)
    # iterate steps by backend weight the dr_step probes
    weights = {}
    for s in spans:
        if s["name"] == "dynamics.iterate":
            weights[s["backend"]] = weights.get(s["backend"], 0) + s["steps"]
    total = sum(weights.values())
    dr = sum(out[f"geometry.dr_step_us.{b}"] * w for b, w in weights.items()) / total
    out["dynamics.loop_overhead_us"] = out["dynamics.step_us"] - dr
    out["dynamics.steps"] = count({"dynamics.iterate"}, "steps")
    out["dynamics.export_row_us"] = rate(["dynamics.trace_rows", "dynamics.run_report"], "rows",
                                         self_time=True)
    out["cycling.state_us"] = rate(["cycling.detect_cycle"], "states")
    out["cycling.states"] = count({"cycling.detect_cycle"}, "states")
    out["closedform.verify_point_us"] = rate(["closedform.verify_closed_form"], "points", self_time=True)
    out["closedform.point_us"] = rate(["closedform.closed_form_point"], "points")
    out["closedform.points"] = count({"closedform.verify_closed_form", "closedform.closed_form_point"}, "points")
    out["altproj.step_us"] = rate(["altproj.ap_iterate"], "steps", self_time=True)
    out["altproj.steps"] = count({"altproj.ap_iterate"}, "steps")

    def median_ms(values):
        return statistics.median(values) * 1e3 if values else None

    out["problems.load_ms"] = prefer(
        lambda pool: median_ms([s["end"] - s["start"] for s in pool if s["name"] == "problems.load_problem"]),
        jobs_only, spans)
    own = [j for j in cli_jobs if not j["probe"]]
    out["cli.startup_ms"] = prefer(lambda jobs: median_ms([j["startup_s"] for j in jobs]), own, cli_jobs)
    for sub in ("run", "map", "closed-form", "verify", "cycle", "beatty"):
        out[f"cli.{sub}_ms"] = prefer(
            lambda jobs: median_ms([j["wall_s"] for j in jobs if j["argv"][0] == sub]), own, cli_jobs)
    out["cli.output_bytes"] = sum(j["bytes"] for j in own)
    return out
