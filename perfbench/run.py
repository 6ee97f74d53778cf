#!/usr/bin/env python3
"""Benchmark harness for drplane.

    python3 perfbench/run.py --workload orbit_exact --seed 1 --seconds 30 --trace 0

Runs one workload (orbit_exact, cycle_census or cli_export; see those
modules for what each runs and why) from the sources under src/, as a
closed loop with one job in flight.  A job is one public call or one CLI
child.  Inputs come only from --seed.  Every result is checked by an
oracle that does not rely on drplane agreeing with itself; failed and
attempted jobs are counted.

Times are CPU times (user + system) of the benchmark process and of the CLI
children it waits for, not wall times, and they are scaled by the host's
speed at the time.  A shared virtual machine stalls a process for seconds
at a time, which doubles its wall times but leaves its CPU times alone; and
busy neighbours on the same physical cores slow the CPU itself by up to
2x, switching within tenths of a second.  A fixed pure-Python kernel that
shares no code with drplane (calibrate) runs before every job and once
after the last, and each job's CPU time is multiplied by CAL_REF_S over the
mean of the two calibrations around it.  So times read as CPU seconds on a
host where that kernel takes CAL_REF_S, about the undisturbed speed of a
2-core x86-64 VM with CPython 3.11; a change to drplane moves them, a
change in the host's speed does not.

Set-up (import, input generation including the problem JSON files, and an
explicit warm-up that runs the first job of each kind once) runs
SETUP_REPEATS times and reports the median; the warm-up's oracles are left
out.  The measured loop then repeats passes of the same jobs for --seconds,
and always at least one whole pass.  The first pass checks every result
under its full oracle; later passes must reproduce the verified results.
A job's time is its median over its runs (see end_to_end).  --trace 0 prints
the end-to-end metrics, each with its sample count.
--trace 1 runs every job twice, untraced and traced, reports the per-layer
table and the tracing overhead, and writes spans and the table to
--trace-out.  The last line of standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import cli_export
import cycle_census
import orbit_exact
import probes
from common import ROOT, SRC, Job, OracleError, child_env, load_drplane, run_cli, write_problem
from tracing import Tracer

WORKLOADS = {"orbit_exact": orbit_exact, "cycle_census": cycle_census, "cli_export": cli_export}
SETUP_REPEATS = 5
CAL_REF_S = 0.005
HASH_SEED = "0"
RUN_ENV_KEYS = ("PYTHONHASHSEED", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")
END_TO_END = [
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def stamp() -> dict:
    """What a result may only be compared under: interpreter, cores,
    platform, and the code measured (git commit when there is one, and a
    digest of the drplane sources either way)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "drplane").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def cpu_s() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate() -> float:
    """CPU seconds of a fixed mix of interpreter work like drplane's
    (integer arithmetic, tuple-keyed dict inserts, Fraction arithmetic)."""
    t0 = time.process_time()
    table, off = {}, 12345
    for n in range(7000):
        off = (off * 1103515245 + 12345) & 0xFFFFFFFF
        table[(n & 1, off)] = n
    f = Fraction(1, 3)
    for n in range(500):
        f = f * Fraction(n + 2, n + 1) - Fraction(1, n + 7)
        f = Fraction(f.numerator % 100003, f.denominator % 99991 + 1)
    return time.process_time() - t0


class Runner:
    """Runs jobs, times them, applies their oracles and keeps the tallies."""

    def __init__(self, workdir: Path, tracer: Tracer | None = None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = child_env()
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.times: list[float] = []  # CPU seconds per job
        self.cals: list[float] = []  # calibration before each job, then one after the last
        self.steps = 0
        self.cli_jobs: list[dict] = []
        self.records: list[tuple] = []  # (job key, job index, indices) of keyed jobs
        self.passes = 0
        self._next_id = 0

    def run(self, job, traced: bool = False, probe: bool = False, key=None) -> None:
        self.cals.append(calibrate())
        self.attempted += 1
        self._next_id += 1
        job_id = f"{'probe' if probe else 'j'}{self._next_id}"
        result = exc = None
        sid = None
        if traced:
            sid = self.tracer.begin(f"job:{job.kind}", job_id)
        t0 = time.perf_counter()
        c0 = cpu_s()
        try:
            if job.argv is not None:
                spans_file = str(self.workdir / f"spans_{job_id}.json") if traced else None
                result = run_cli(job.argv, self.env, spans_file)
            else:
                if traced:
                    self.tracer.job = job_id
                result = job.call()
        except Exception as e:  # a raising job is a failed (or expected) result
            exc = e
        finally:
            c1 = cpu_s()
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.job = None
                self.tracer.end(sid)
        if traced and job.argv is not None:
            self._merge_child(job, job_id, sid, t0, wall, result, probe)
        self.times.append(c1 - c0)
        try:
            if job.expect_exc is not None:
                if not isinstance(exc, job.expect_exc):
                    raise OracleError(f"expected {job.expect_exc.__name__}, got {exc!r}")
                delivered = 0
            elif exc is not None:
                raise OracleError(f"raised {exc!r}")
            else:
                delivered = job.check(result)
            self.steps += delivered
            if key is not None:
                self.records.append((key, len(self.times) - 1, delivered))
        except Exception as e:  # oracle rejection or a result the oracle cannot read
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.kind} {job.argv or ''}: {e}")

    def scaled_times(self) -> list[float]:
        """Job CPU times at the reference speed: each scaled by CAL_REF_S
        over the mean of the calibrations just before and just after it."""
        cals = self.cals + [calibrate()]
        return [dt * 2 * CAL_REF_S / (cals[t] + cals[t + 1]) for t, dt in enumerate(self.times)]

    def _merge_child(self, job, job_id, parent_sid, t_spawn, wall, proc, probe) -> None:
        path = self.workdir / f"spans_{job_id}.json"
        if not path.exists():
            return
        with open(path, encoding="utf-8") as fp:
            child = json.load(fp)
        path.unlink()
        base = len(self.tracer.spans)
        startup = None
        for s in child["spans"]:
            s["id"] += base
            s["parent"] = parent_sid if s["parent"] is None else s["parent"] + base
            s["job"] = job_id
            if s["name"].startswith("cli.") and startup is None:
                startup = s["start"] - t_spawn
            self.tracer.spans.append(s)
        self.cli_jobs.append({
            "argv": job.argv, "wall_s": wall, "startup_s": startup if startup is not None else wall,
            "bytes": len(proc.stdout) if proc is not None else 0, "probe": probe,
        })


def setup(mod, seed: int, size: str, workdir: Path):
    """Import, input generation with the JSON writes, and a warm-up that
    runs the first job of each kind once.  Returns the CPU seconds taken at
    the reference speed, less those of the warm-up's oracles."""
    cal0 = calibrate()
    c0 = cpu_s()
    dp = load_drplane()
    inputs = mod.generate(seed, size)
    inputs["paths"] = {
        name: write_problem(workdir / f"{name}.json", wire) for name, wire in inputs["wires"].items()
    }
    jobs = [job for group in mod.groups(inputs, dp) for job in group]
    prep = cpu_s() - c0
    cal1 = calibrate()
    warm = Runner(workdir)
    kinds = set()
    for job in jobs:
        if job.kind not in kinds:
            kinds.add(job.kind)
            warm.run(job)
    secs = prep * 2 * CAL_REF_S / (cal0 + cal1) + sum(warm.scaled_times())
    return secs, dp, inputs, warm


def measure(mod, dp, inputs, seconds: float, runner: Runner, tracer: Tracer | None):
    """Closed loop over passes of the same jobs on the same inputs, until
    --seconds have passed and at least one whole pass is done.  The first
    pass checks every result under its full oracle, later ones against the
    verified result.  With a tracer, each job runs untraced and traced back
    to back (order alternating by group); returns the traced runner too."""
    traced_runner = None
    if tracer is not None:
        traced_runner = Runner(runner.workdir, tracer)
    t_start = time.perf_counter()

    def done() -> bool:
        return runner.passes > 0 and time.perf_counter() - t_start >= seconds

    while not done():
        for gi, group in enumerate(mod.groups(inputs, dp)):
            for ji, job in enumerate(group):
                if done():
                    return time.perf_counter() - t_start, traced_runner
                if tracer is None:
                    runner.run(job, key=(gi, ji))
                    continue
                for traced in ((False, True) if gi % 2 else (True, False)):
                    if traced:
                        tracer.install(dp)
                        traced_runner.run(job, traced=True)
                        tracer.uninstall()
                    else:
                        runner.run(job)
        runner.passes += 1
    return time.perf_counter() - t_start, traced_runner


def peak_rss_mb(mod) -> float:
    who = resource.RUSAGE_CHILDREN if mod is cli_export else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(setups, runner: Runner, mod) -> dict:
    """Each job's time is its median over its runs, at the reference
    speed.  Calibration tracks the host's speed to within a few
    per cent; the median over passes spread across the run removes most of
    the rest."""
    scaled = runner.scaled_times()
    per_job, steps = {}, {}
    for key, index, n in runner.records:
        per_job.setdefault(key, []).append(scaled[index])
        steps[key] = n
    times = sorted(statistics.median(v) for v in per_job.values())
    runs = sorted(len(v) for v in per_job.values())
    n = f"{len(times)} jobs, median of {runs[0]}-{runs[-1]} runs each"
    return {
        "setup_s": (statistics.median(setups), "s", f"{len(setups)} set-ups"),
        "steps_per_s": (sum(steps.values()) / sum(times), "1/s", n),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms", n),
        "job_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms", n),
        "peak_rss_mb": (peak_rss_mb(mod), "MB", "1 process" if mod is not cli_export else "largest child"),
    }


def per_layer(mod, dp, inputs, runner: Runner, traced: Runner, tracer: Tracer, workdir: Path):
    pool = probes.Pool(dp, mod.probe_pool(inputs))
    tracer.install(dp)
    try:
        have = {s["name"] for s in tracer.spans if not str(s["job"]).startswith("probe")}
        probes.layer_probe_jobs(dp, pool, tracer, have)
        if not traced.cli_jobs:
            probe_runner = Runner(workdir, tracer)
            probes.cli_probe_jobs(
                pool, workdir,
                lambda argv: probe_runner.run(Job(argv[0], lambda _: 0, argv=argv), traced=True, probe=True),
            )
            traced.cli_jobs = probe_runner.cli_jobs
    finally:
        tracer.uninstall()
    figures = probes.scalar_probes(pool)
    figures.update(probes.geometry_probes(dp, pool))
    figures["cycling.peak_alloc_mb"] = probes.peak_alloc_mb(dp, pool)
    table = probes.derive(tracer.spans, traced.cli_jobs, figures, pool.max_bits())
    sps_plain = runner.steps / sum(runner.scaled_times())
    sps_traced = traced.steps / sum(traced.scaled_times())
    table["trace.overhead_ratio"] = sps_plain / sps_traced
    return table, {"steps_per_s_untraced": sps_plain, "steps_per_s_traced": sps_traced}


def pycache_dir() -> Path:
    return ROOT / ".bench_work" / f"pyc-{os.getpid()}"


def run_env() -> dict:
    """The environment the harness runs in, and its CLI children inherit.

    String hashing is salted per process, and the salt moves the cost of
    small calls (attribute and global lookups) by up to 20 % from one run to
    the next; a fixed salt makes runs of the same code comparable.  Byte
    code is cached, as for an installed package, in a directory of this run
    (removed at its end) whatever the caller's PYTHONDONTWRITEBYTECODE:
    otherwise every CLI child compiles drplane's sources afresh, a third of
    a small job's time.
    """
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPYCACHEPREFIX=str(pycache_dir()))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    ap.add_argument("--out", help="also write the full result record (stamp included) here")
    ap.add_argument("--trace-out", help="where the traced run writes spans and the per-layer table "
                    "(default .bench_out/trace_<workload>_s<seed>.json)")
    args = ap.parse_args(argv)
    mod = WORKLOADS[args.workload]
    if not (SRC / "drplane" / "__init__.py").is_file():
        print(f"error: no drplane sources under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, mod, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, mod, workdir: Path) -> int:
    st = stamp()
    print("# stamp " + json.dumps(st, sort_keys=True))
    setups = []
    warm_failures = []
    warm_attempted = warm_failed = 0
    for _ in range(SETUP_REPEATS):
        secs, dp, inputs, warm = setup(mod, args.seed, args.size, workdir)
        setups.append(secs)
        warm_failures += warm.failures
        warm_attempted += warm.attempted
        warm_failed += warm.failed
    tracer = Tracer() if args.trace else None
    runner = Runner(workdir)
    measured, traced = measure(mod, dp, inputs, args.seconds, runner, tracer)
    done = [runner] + ([traced] if traced else [])
    attempted = warm_attempted + sum(r.attempted for r in done)
    failed = warm_failed + sum(r.failed for r in done)
    failures = warm_failures + [line for r in done for line in r.failures]
    for line in failures:
        print("FAIL " + line, file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} size {args.size} "
          f"measured {measured:.2f} s wall, {len(runner.times)} jobs, {runner.passes} whole passes, "
          "one in flight")
    print(f"{'fail_ratio':<32} {failed / attempted:.6g}  ({failed}/{attempted} jobs)")
    record = {"stamp": st, "workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "attempted": attempted, "failed": failed}
    if args.trace:
        table, overhead = per_layer(mod, dp, inputs, runner, traced, tracer, workdir)
        metrics = {name: {"value": table[name], "unit": unit} for name, unit in probes.PER_LAYER}
        bad = [n for n, m in metrics.items() if m["value"] is None or not math.isfinite(m["value"])]
        if bad:
            print(f"error: per-layer metrics without a value: {bad}", file=sys.stderr)
            return 1
        for name, m in metrics.items():
            print(f"{name:<32} {m['value']:.6g} {m['unit']}")
        print(f"{'# steps_per_s untraced/traced':<32} {overhead['steps_per_s_untraced']:.6g} / "
              f"{overhead['steps_per_s_traced']:.6g} 1/s")
        out_path = Path(args.trace_out) if args.trace_out else (
            ROOT / ".bench_out" / f"trace_{args.workload}_s{args.seed}.json")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        record.update(per_layer=[{"name": n, **m} for n, m in metrics.items()],
                      project_finite_set_m=table["geometry.project_finite_set_m"],
                      overhead=overhead, cli_jobs=traced.cli_jobs, spans=tracer.spans)
        with open(out_path, "w", encoding="utf-8") as fp:
            json.dump(record, fp)
        print(f"# spans and per-layer table written to {out_path}")
        record.pop("spans")
    else:
        e2e = end_to_end(setups, runner, mod)
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
        for name, (value, unit, n) in e2e.items():
            print(f"{name:<32} {value:.6g} {unit}  (n={n})")
        record["metrics"] = {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in e2e.items()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(record, fp, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    env = run_env()
    if any(os.environ.get(k) != env.get(k) for k in RUN_ENV_KEYS):
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    try:
        code = main()
    finally:
        shutil.rmtree(pycache_dir(), ignore_errors=True)
    sys.exit(code)
