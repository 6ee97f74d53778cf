"""Workload ``cli_export``: ``python -m drplane`` children, one at a time.

Inputs are the six canonical problems, run by a fixed command list whose
outputs must match the digests recorded from the seed commit, and seeded
generic problems written to JSON (m = 3..8 points, dim 1..3, rational and
f64 backends, all three tie policies).  Each generic problem is run through
``run`` and ``map`` (csv or json); dyadic rational ones also run with
``--backend f64``, and some with ``--tie-policy``.  Two problems of each set
go to a subcommand that must refuse them with exit 2 (closed-form, verify
and cycle need a doubleton).  Each run or map job computes enough rows that
drplane's own work, not interpreter start-up and imports, is most of its
time; so a job's time follows drplane's speed, and a busy host's noise in
starting processes moves it less.

Why: this workload writes megabytes of output and exercises problem parsing,
the CLI, trace export, the alternating-projections baseline and the m-point
finite-set projector, which the doubleton workloads never touch.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from common import FirstRun, Job, canonical_wire, fraction_text, load_digests, require, sha
from reference import TIE_POLICIES, RefProblem, dot, parse_json_scalar, parse_text_scalar, ref_problem

# horizons are divided by scale
SIZES = {
    "full": dict(scale=1),
    "tiny": dict(scale=20),
}

# 16 canonical jobs and 17 per set of generic problems: 101 jobs a pass, so
# that ten lie beyond the 90th percentile
SETS = 5


def canonical_commands(size: str) -> list[tuple[list[str], int]]:
    """(argv, expected exit code); horizons shrink for the tiny size."""
    s = SIZES[size]["scale"]
    h = lambda n: str(max(2, n // s))  # noqa: E731
    P = lambda name: f"problems/{name}.json"  # noqa: E731
    return [
        (["run", "--problem", P("r2_beatty"), "--horizon", h(300), "--format", "csv"], 0),
        (["run", "--problem", P("r2_beatty"), "--horizon", h(800), "--format", "json"], 0),
        (["run", "--problem", P("surd_aperiodic"), "--horizon", h(200), "--format", "json"], 0),
        (["run", "--problem", P("halfspace_divergent"), "--horizon", h(3000), "--format", "csv"], 0),
        (["run", "--problem", P("float_wide"), "--horizon", h(500), "--format", "csv",
          "--tie-policy", "lower_inner"], 0),
        (["run", "--problem", P("rational_cycle"), "--horizon", h(300), "--format", "csv",
          "--backend", "f64"], 0),
        (["map", "--problem", P("rational_cycle"), "--horizon", h(400), "--format", "json"], 0),
        (["closed-form", "--problem", P("rational_cycle"), "--horizon", h(300), "--format", "csv"], 0),
        (["closed-form", "--problem", P("surd_aperiodic"), "--horizon", h(80), "--format", "json"], 0),
        (["closed-form", "--problem", P("halfspace_fixed"), "--horizon", h(50), "--format", "csv"], 2),
        (["verify", "--problem", P("r2_beatty"), "--horizon", h(100)], 0),
        (["verify", "--problem", P("halfspace_fixed"), "--horizon", h(50), "--fallback-iterate"], 0),
        (["cycle", "--problem", P("rational_cycle")], 0),
        (["cycle", "--problem", P("float_wide"), "--heuristic-rationality"], 0),
        (["cycle", "--problem", P("surd_aperiodic"), "--horizon", h(10000)], 0),
        (["beatty", "--horizon", h(2000), "--format", "csv"], 0),
    ]


def _dyadic(rng) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4)))


# (m, dim, backend, tilted normal) per generic slot: the structure of every
# pass is fixed, the seed picks the coordinates and tie policies
SLOTS = (
    (3, 1, "rational", False),
    (4, 2, "f64", False),
    (5, 3, "rational", True),
    (6, 1, "rational", False),
    (7, 2, "f64", False),
    (8, 3, "rational", False),
)
# rows of each slot's (run, map, run --backend f64) jobs: about 0.1 s of
# drplane's work each at the reference speed (see run.py)
HORIZONS = (
    (3000, 5000, 6000),
    (7000, 5000, None),
    (900, 1500, None),
    (1800, 3000, 5000),
    (5000, 9000, None),
    (600, 1300, 4000),
)


def _generic(rng, m: int, dim: int, backend: str, tilted: bool) -> dict:
    """A straddling, disjoint m-point problem.  Untilted problems use an
    axis normal and dyadic data, so f64 arithmetic on them is exact and the
    exact reference applies to f64 runs too."""
    axis = rng.randrange(dim)
    while True:
        normal = [Fraction(0)] * dim
        if tilted:
            sign = rng.choice((-1, 1))
            normal[axis], normal[(axis + 1) % dim] = Fraction(3, 5) * sign, Fraction(4, 5)
        else:
            normal[axis] = Fraction(rng.choice((-1, 1)))
        points = {tuple(_dyadic(rng) for _ in range(dim)) for _ in range(m)}
        x0 = [_dyadic(rng) for _ in range(dim)]
        ref = RefProblem(normal, [list(p) for p in points], x0)
        if len(points) == m and ref.straddles() and all(v != 0 for v in ref.inners):
            break
    enc = (lambda v: float(v)) if backend == "f64" else fraction_text  # noqa: E731
    return {
        "normal": [enc(c) for c in normal],
        "points": [[enc(c) for c in p] for p in sorted(points)],
        "x0": [enc(c) for c in x0],
        "backend": backend,
        "tie_policy": rng.choice(TIE_POLICIES),
        "dyadic": not tilted,
    }


def generate(seed: int, size: str) -> dict:
    """SETS seeded problems per slot: one pass, which every pass repeats."""
    rng = random.Random(f"cli_export:{seed}")
    problems = [_generic(rng, *slot) for _ in range(SETS) for slot in SLOTS]
    wires = {}
    for i, wire in enumerate(problems):
        wire["name"] = f"g{i}"
        wires[wire["name"]] = {k: v for k, v in wire.items() if k not in ("name", "dyadic")}
    return {"size": size, "seed": seed, "problems": problems, "wires": wires, "first": FirstRun()}


# -- output parsing -----------------------------------------------------------


def _rows_csv(text: str, m: int, dim: int):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    require(len(header) == 3 + m + dim, f"csv header {header}")
    rows = []
    for row in reader:
        rows.append((
            int(row[0]),
            int(row[1]) if row[1] else None,
            parse_text_scalar(row[2]),
            [int(c) for c in row[3:3 + m]],
            [parse_text_scalar(c) for c in row[3 + m:]],
        ))
    return rows


def _rows_json(text: str, method: str):
    report = json.loads(text)
    require(report["method"] == method, f"method {report['method']}")
    return [
        (r["n"], r["k"], parse_json_scalar(r["inner"]), r["counts"],
         [parse_json_scalar(c) for c in r["x"]])
        for r in report["records"]
    ]


def _check_rows(rows, ref: RefProblem, horizon: int, method: str) -> int:
    """Every transition recomputed by the reference, plus the bookkeeping
    columns (index, offset, cumulative selector counts) of every row.
    Orbits revisit states, so each distinct reference step is computed once."""
    require(len(rows) == horizon + 1, f"{len(rows)} rows, want {horizon + 1}")
    require(rows[0][4] == ref.x0 and rows[0][1] is None, "row 0 is not x0")
    steps = {}
    for n in range(horizon):
        _, _, inner, counts, x = rows[n]
        n1, k1, inner1, counts1, x1 = rows[n + 1]
        key = (n % 2 if method == "map" else 0, *x)
        if key not in steps:
            if method == "dr":
                steps[key] = (*ref.dr_step(x), dot(x, ref.u))
            elif n % 2 == 0:
                steps[key] = (ref.project_plane(x), None, dot(x, ref.u))
            else:
                steps[key] = (*ref.nearest(x), dot(x, ref.u))
        nxt, k, offset = steps[key]
        require(n1 == n + 1 and inner == offset, f"row {n} index or offset")
        require(x1 == list(nxt) and k1 == k, f"{method} step {n} -> {n + 1}")
        bump = [int(k == i + 1) for i in range(len(counts))]
        require(counts1 == [c + b for c, b in zip(counts, bump)], f"counts at row {n + 1}")
    return horizon + 1


def _delivered(argv: list[str], out: bytes) -> int:
    """Orbit indices a CLI job delivered: trace rows, checked points or
    examined states."""
    text = out.decode()
    cmd = argv[0]
    if cmd == "verify":
        return json.loads(text)["checked"]
    if cmd == "cycle":
        rep = json.loads(text)
        if rep["status"] == "cycle":
            return rep["preperiod"] + rep["period"] + 1
        return rep["horizon"]
    if "json" in argv:
        return len(json.loads(text)["records"])
    return text.count("\n") - 1


def _canonical_job(argv: list[str], rc: int, digests: dict) -> Job:
    key = "cli:" + " ".join(argv)

    def check(proc):
        require(proc.returncode == rc, f"{key}: exit {proc.returncode}, want {rc}")
        require(sha(proc.stdout) == digests[key], f"{key}: output digest changed")
        return _delivered(argv, proc.stdout) if rc == 0 else 0

    return Job(argv[0], check, argv=argv)


def _generic_jobs(wire: dict, number: int, sz: dict, path: str, first: FirstRun) -> list[Job]:
    """Jobs on the number-th generic problem (slot number % len(SLOTS))."""
    index = number % len(SLOTS)
    m, dim = len(wire["points"]), len(wire["normal"])
    base = ["--problem", path]
    jobs = []

    def checked(method, fmt, horizon, extra=(), tie=None) -> Job:
        """A run or map job whose rows the reference recomputes."""
        H = max(2, horizon // sz["scale"])
        argv = [method if method == "map" else "run", *base, "--horizon", str(H), "--format", fmt, *extra]
        ref = ref_problem(dict(wire, tie_policy=tie or wire["tie_policy"]))

        def full_check(proc):
            require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-300:]!r}")
            text = proc.stdout.decode()
            rows = _rows_csv(text, m, dim) if fmt == "csv" else _rows_json(text, method)
            return _check_rows(rows, ref, H, method)

        def check(proc):
            fingerprint = (proc.returncode, sha(proc.stdout))
            return first.check(tuple(argv), fingerprint, lambda: full_check(proc))

        return Job(argv[0], check, argv=argv)

    h_run, h_map, h_f64 = HORIZONS[index]
    tie = TIE_POLICIES[(index + 1) % 3] if index % 2 else None
    jobs.append(checked("dr", "csv", h_run, ["--tie-policy", tie] if tie else [], tie))
    jobs.append(checked("map", "json" if index % 2 else "csv", h_map))
    if wire["backend"] == "rational" and wire["dyadic"]:
        jobs.append(checked("dr", "csv", h_f64, ["--backend", "f64"]))
    if index % 3:
        return jobs
    refusal = ("closed-form", "verify", "cycle")[number // 3 % 3]

    def refused(proc):
        require(proc.returncode == 2, f"{refusal} on m={m}: exit {proc.returncode}, want 2")
        require(b"doubleton" in proc.stderr, f"{refusal} refusal names no cause")
        return 0

    jobs.append(Job(refusal, refused, argv=[refusal, *base, "--horizon", "10"]))
    return jobs


def groups(inputs: dict, dp) -> list[list[Job]]:
    """Canonical commands first, then one group per generic problem."""
    sz = SIZES[inputs["size"]]
    digests = load_digests()
    out = [[_canonical_job(argv, rc, digests) for argv, rc in canonical_commands(inputs["size"])]]
    for i, wire in enumerate(inputs["problems"]):
        out.append(_generic_jobs(wire, i, sz, inputs["paths"][wire["name"]], inputs["first"]))
    return out


def probe_pool(inputs: dict) -> list[dict]:
    """The seeded problems plus the canonical straddling doubletons, which
    the doubleton-only probes (cycling, closedform) need."""
    canonical = [canonical_wire(n) for n in ("surd_aperiodic", "r2_beatty", "rational_cycle")]
    return list(inputs["wires"].values()) + canonical
