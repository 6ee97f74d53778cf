"""Iteration driver: traces, classification, stopping rules, exports."""

import copy
import json
import logging
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from drplane import dynamics
from drplane.altproj import ap_iterate
from drplane.cycling import DoubletonProblem, detect_cycle
from drplane.dynamics import (
    Classification,
    ClassificationKind,
    Orbit,
    Outcome,
    RunResult,
    TraceRecord,
    check_step_gap,
    classify,
    csv_text,
    detect_finite_convergence,
    iterate,
    reconstruct_shadow,
    reconstruct_x,
    run_json,
    trace_csv_header,
    trace_lines,
    transition_gaps,
)
from drplane.errors import BackendError, DimensionMismatch, PreconditionError, ProblemFormatError
from drplane.geometry import (
    FiniteSet,
    Hyperplane,
    TiePolicy,
    dr_step,
    norm_sq,
    project_hyperplane,
    reflect_hyperplane,
    vec_equal,
    vsub,
)
from drplane.lattice import TABLE_BUDGET, LinePoints, Revisit
from drplane.problems import load_problem
from drplane.scalars import Surd

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def F(*nums):
    return tuple(Fraction(n) for n in nums)


def line_problem(points):
    A = Hyperplane((Fraction(1),))
    B = FiniteSet.ordered([(Fraction(p),) for p in points], A)
    return A, B


def plane_problem(points, normal=(0, 1)):
    A = Hyperplane(tuple(Fraction(c) for c in normal))
    B = FiniteSet.ordered([F(*p) for p in points], A)
    return A, B


def surd_line_problem(points):
    A = Hyperplane((Surd(1, 0, 2),))
    B = FiniteSet.ordered([(p if isinstance(p, Surd) else Surd(p, 0, 2),) for p in points], A)
    return A, B


class TestClassify:
    def test_straddling(self):
        A, B = line_problem([-1, 2])
        c = classify(A, B)
        assert c == Classification(ClassificationKind.STRADDLING, False)

    def test_halfspace_disjoint(self):
        A, B = plane_problem([(0, 1), (0, 2)])
        c = classify(A, B)
        assert c.kind == ClassificationKind.HALFSPACE_CONTAINED
        assert not c.intersects

    def test_halfspace_touching(self):
        A, B = plane_problem([(0, 0), (0, 2)])
        c = classify(A, B)
        assert c.kind == ClassificationKind.HALFSPACE_CONTAINED
        assert c.intersects

    def test_straddling_with_contact(self):
        A, B = plane_problem([(0, -1), (1, 0), (0, 2)])
        c = classify(A, B)
        assert c.kind == ClassificationKind.STRADDLING
        assert c.intersects


class TestIterate:
    def test_periodic_line_run(self):
        A, B = line_problem([-1, 2])
        result = iterate(A, B, (Fraction(0),), 6)
        xs = [rec.x[0] for rec in result.trace]
        assert xs == [0, -1, 1, 0, -1, 1, 0]
        assert result.outcome == Outcome.HORIZON
        ks = [rec.selector_k for rec in result.trace]
        assert ks == [None, 1, 2, 1, 1, 2, 1]
        assert json.loads(run_json(result, A, B))["records"][-1]["counts"] == [4, 2]

    def test_surd_line_run_first_terms(self):
        A, B = surd_line_problem([-1, Surd(0, 1, 2)])
        result = iterate(A, B, (Surd(0, 0, 2),), 7)
        xs = [rec.x[0] for rec in result.trace]
        expected = [
            Surd(0, 0, 2),
            Surd(-1, 0, 2),
            Surd(-1, 1, 2),
            Surd(-2, 1, 2),
            Surd(-2, 2, 2),
            Surd(-3, 2, 2),
            Surd(-4, 2, 2),
            Surd(-4, 3, 2),
        ]
        assert xs == expected

    def test_divergent_run_trace_prefix(self):
        A, B = plane_problem([(0, 1), (0, 2)])
        result = iterate(A, B, F(0, 0), 3)
        xs = [rec.x for rec in result.trace]
        assert xs == [F(0, 0), F(0, 1), F(0, 2), F(0, 3)]
        shadows = [reconstruct_shadow(result, A, B, n) for n in range(len(result.trace))]
        assert shadows == [F(0, 0)] * 4
        assert [project_hyperplane(A, rec.x) for rec in result.trace] == shadows

    def test_divergence_detected(self):
        A, B = plane_problem([(0, 1), (0, 2)])
        result = iterate(A, B, F(0, 0), 5000)
        assert result.outcome == Outcome.DIVERGENCE
        assert len(result.trace) <= 1002
        assert result.shadow_limit == F(0, 0)

    def test_divergence_below_the_hyperplane(self):
        # a set below the hyperplane: the offset falls by 1 every step
        A, B = plane_problem([(0, -1), (1, -2)])
        result = iterate(A, B, F(0, 0), 5000)
        assert result.outcome == Outcome.DIVERGENCE
        assert len(result.trace) == 1001 and result.trace[-1].inner == -1000
        assert result.shadow_limit == F(0, 0)

    def test_divergence_needs_disjoint_halfspace(self, monkeypatch):
        # straddling problems stay bounded and must never be declared divergent
        monkeypatch.setattr(dynamics, "DIVERGENCE_WINDOW", 3)
        A, B = line_problem([-1, 2])
        result = iterate(A, B, (Fraction(0),), 4000)
        assert result.outcome == Outcome.HORIZON

    def test_fixed_point_run(self):
        A, B = plane_problem([(0, 0), (0, 2)])
        result = iterate(A, B, F(1, 1), 10)
        assert result.outcome == Outcome.FIXED_POINT
        assert result.fixed_at == 1
        assert result.trace[-1].x == F(0, 1)
        pair = detect_finite_convergence(result, A, B)
        assert pair == (F(0, 1), F(0, 0))

    def test_fixed_point_at_start(self):
        A, B = plane_problem([(0, 0), (0, 2)])
        result = iterate(A, B, F(0, 1), 10)
        assert result.outcome == Outcome.FIXED_POINT
        assert result.fixed_at == 0
        assert len(result.trace) == 1

    def test_detect_finite_convergence_none_for_horizon(self):
        A, B = line_problem([-1, 2])
        result = iterate(A, B, (Fraction(0),), 5)
        assert detect_finite_convergence(result, A, B) is None

    def test_counts_and_inner_invariants(self):
        A, B = line_problem([-2, 3])
        result = iterate(A, B, (Fraction(1, 3),), 200)
        exported = json.loads(run_json(result, A, B))["records"]
        u = A.normal
        for n, rec in enumerate(result.trace):
            assert rec.n == n
            if n == 0:
                continue
            counts = exported[n]["counts"]
            assert sum(counts) == n
            # inner recurrence: <x_n,u> = <x_{n-1},u> + <b_k,u>
            assert rec.inner == result.trace[n - 1].inner + B.inners[rec.selector_k - 1]
            # reconstruction from counts
            total = result.trace[0].inner
            for i, c in enumerate(counts):
                total += c * B.inners[i]
            assert rec.inner == total
            # every iterate after the first sits on a line b_k + span(u)
            assert rec.x == tuple(
                result.trace[n - 1].inner * u[j] + B.points[rec.selector_k - 1][j]
                for j in range(A.dim)
            )

    def test_no_consecutive_equal_when_straddling_disjoint(self):
        A, B = line_problem([-1, 2])
        result = iterate(A, B, (Fraction(0),), 100)
        for a, b in zip(result.trace, result.trace[1:]):
            assert a.x != b.x

    def test_slim_matches_full(self):
        A, B = plane_problem([(1, -1), (0, 2), (3, 1)])
        full = iterate(A, B, F(2, 5), 50)
        slim = iterate(A, B, F(2, 5), 50, slim=True)
        assert [r.inner for r in slim.trace] == [r.inner for r in full.trace]
        assert [r.selector_k for r in slim.trace] == [r.selector_k for r in full.trace]
        for n in range(len(full.trace)):
            assert reconstruct_x(slim, A, B, n) == full.trace[n].x
            assert reconstruct_shadow(slim, A, B, n) == project_hyperplane(A, full.trace[n].x)

    def test_validation(self):
        A, B = line_problem([-1, 2])
        with pytest.raises(DimensionMismatch):
            iterate(A, B, F(0, 0), 5)
        with pytest.raises(BackendError):
            iterate(A, B, (0.0,), 5)
        with pytest.raises(ValueError):
            iterate(A, B, (Fraction(0),), -1)

    def test_nonfinite_f64_start_refused(self):
        A = Hyperplane((1.0,))
        B = FiniteSet.ordered([(-1.0,), (2.0,)], A)
        for run in (iterate, ap_iterate):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ProblemFormatError, match="^x0: .* is not a finite f64 value$"):
                    run(A, B, (bad,), 5)

    def test_float_backend_run(self):
        A = Hyperplane((1.0,))
        B = FiniteSet.ordered([(-1.0,), (2.0,)], A)
        result = iterate(A, B, (0.0,), 6)
        assert [rec.x[0] for rec in result.trace] == [0.0, -1.0, 1.0, 0.0, -1.0, 1.0, 0.0]


class TestStepGap:
    def test_holds_on_periodic_run(self):
        A, B = line_problem([-1, 2])
        result = iterate(A, B, (Fraction(0),), 60)
        assert check_step_gap(result, A, B) is True

    def test_holds_on_surd_run(self):
        A, B = surd_line_problem([-1, Surd(0, 1, 2)])
        result = iterate(A, B, (Surd(0, 0, 2),), 200)
        assert check_step_gap(result, A, B) is True

    def test_fails_on_a_short_first_gap(self):
        # every true step moves by at least min_i d_A(b_i) = 1; a trace whose
        # first iterate is moved to within 1/2 of x0 must fail the vector
        # check of step 1, as the later gaps come from selector pairs
        A, B = line_problem([-1, 2])
        result = iterate(A, B, (Fraction(0),), 60)
        assert check_step_gap(result, A, B) is True
        k1 = result.trace[1].selector_k
        result.trace[1] = TraceRecord(1, (Fraction(1, 2),), k1, Fraction(1, 2))
        assert check_step_gap(result, A, B) is False

    def test_requires_straddling_disjoint(self):
        A, B = plane_problem([(0, 1), (0, 2)])
        result = iterate(A, B, F(0, 0), 5)
        with pytest.raises(PreconditionError):
            check_step_gap(result, A, B)
        A2, B2 = plane_problem([(0, -1), (1, 0), (0, 2)])
        result2 = iterate(A2, B2, F(0, 0), 5)
        with pytest.raises(PreconditionError):
            check_step_gap(result2, A2, B2)


def random_surd_straddling(rng):
    """Two random sqrt(2) points on either side of a line or plane, and a start."""
    z = lambda v: Surd(v, 0, 2)  # noqa: E731
    dim = rng.choice((1, 2))
    A = Hyperplane(tuple(z(c) for c in (0, 1)[-dim:]))
    while True:
        pts = [
            tuple(Surd(random_fraction(rng, -4, 4, 2), random_fraction(rng, -3, 3, 2), 2)
                  for _ in range(dim))
            for _ in (1, 2)
        ]
        inners = sorted(A.inner(p) for p in pts)
        if inners[0] < 0 < inners[1]:
            break
    x0 = tuple(Surd(random_fraction(rng, -3, 3, 3), random_fraction(rng, -2, 2, 2), 2)
               for _ in range(dim))
    return A, FiniteSet.ordered(pts, A), x0


class TestTransitionGaps:
    """check_step_gap reads every gap after the first from the selector-pair
    table of transition_gaps; each entry must be the gap between the
    iterates themselves, in full and in slim traces."""

    @staticmethod
    def assert_table_is_vector_gaps(A, B, x0, max_n):
        min_d2 = min(v * v for v in B.inners)
        for slim in (False, True):
            run = iterate(A, B, x0, max_n, slim=slim)
            table = transition_gaps(run, A, B)
            xs = [reconstruct_x(run, A, B, n) for n in range(len(run.trace))]
            gaps = [norm_sq(vsub(y, x)) for x, y in zip(xs, xs[1:])]
            pairs = [(a.selector_k, b.selector_k) for a, b in zip(run.trace[1:], run.trace[2:])]
            assert [table[pair] for pair in pairs] == gaps[1:]
            assert set(table) == set(pairs)
            assert check_step_gap(run, A, B) == all(g >= min_d2 for g in gaps)

    @pytest.mark.parametrize(
        "name", ["r2_beatty", "rational_cycle", "surd_aperiodic"]
    )
    def test_canonical_doubletons(self, name):
        prob = load_problem(PROBLEMS / f"{name}.json")
        self.assert_table_is_vector_gaps(prob.hyperplane, prob.points, prob.x0, 120)

    def test_seeded_rational_doubletons(self):
        rng = random.Random(5)
        for normal in ((1,), (0, 1), (Fraction(3, 5), Fraction(4, 5))):
            for _ in range(5):
                self.assert_table_is_vector_gaps(*random_straddling(rng, normal), 80)

    def test_seeded_surd_doubletons(self):
        rng = random.Random(55)
        for _ in range(10):
            self.assert_table_is_vector_gaps(*random_surd_straddling(rng), 80)

    def test_straddling_three_point_set(self):
        A, B = plane_problem([(-3, -2), (1, 2), (-1, 3)])
        self.assert_table_is_vector_gaps(A, B, F(0, 0), 80)
        run = iterate(A, B, F(0, 0), 80)
        assert len({r.selector_k for r in run.trace[1:]}) == 3


def test_surd_run_result_copies_and_pickles():
    A, B = surd_line_problem([-1, Surd(0, 1, 2)])
    run = iterate(A, B, (Surd(Fraction(1, 3), 0, 2),), 30)
    for clone in (copy.copy(run), copy.deepcopy(run), pickle.loads(pickle.dumps(run))):
        assert clone == run
        assert json.loads(run_json(clone, A, B)) == json.loads(run_json(run, A, B))


class TestExport:
    def test_csv_shape_and_values(self):
        A, B = line_problem([-1, 2])
        result = iterate(A, B, (Fraction(0),), 6)
        text = csv_text(trace_csv_header(B.m, A.dim), trace_lines(result, A, B))
        lines = text.strip().splitlines()
        assert lines[0] == "n,k,inner,count_1,count_2,x_1"
        assert len(lines) == 8  # header + horizon + 1
        assert lines[1] == "0,,0,0,0,0"
        assert lines[2] == "1,1,-1,1,0,-1"
        assert lines[3] == "2,2,1,1,1,1"

    def test_csv_from_slim_trace(self):
        A, B = line_problem([-1, 2])
        full = iterate(A, B, (Fraction(0),), 9)
        slim = iterate(A, B, (Fraction(0),), 9, slim=True)
        header = trace_csv_header(B.m, A.dim)
        assert csv_text(header, trace_lines(full, A, B)) == csv_text(header, trace_lines(slim, A, B))

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
    def test_slim_trace_exports_as_full(self, path):
        # a slim record's iterate is rebuilt only for a state the exporter
        # has not formatted yet; rows and JSON must not show it
        p = load_problem(path)
        A, B = p.hyperplane, p.points
        full = iterate(A, B, p.x0, 1100)
        slim = iterate(A, B, p.x0, 1100, slim=True)
        assert list(trace_lines(slim, A, B)) == list(trace_lines(full, A, B))
        assert [ln.split(",") for ln in trace_lines(slim, A, B)] == [
            ln.split(",") for ln in trace_lines(full, A, B)
        ]
        assert run_json(slim, A, B) == run_json(full, A, B)
        assert json.loads(run_json(slim, A, B)) == json.loads(run_json(full, A, B))

    def test_header_matches_dimensions(self):
        assert trace_csv_header(3, 2) == [
            "n", "k", "inner", "count_1", "count_2", "count_3", "x_1", "x_2"
        ]

    def test_run_report(self):
        A, B = plane_problem([(0, 0), (0, 2)])
        result = iterate(A, B, F(1, 1), 10)
        report = json.loads(run_json(result, A, B))
        assert report["method"] == "dr"
        assert report["outcome"] == "fixed_point"
        assert report["fixed_at"] == 1
        assert report["classification"] == {
            "kind": "halfspace_contained",
            "intersects": True,
        }
        assert report["records"][1]["x"] == ["0", "1"]
        assert report["records"][1]["k"] == 1


def reference_run(A, B, x0, max_n):
    """Full-trace bookkeeping over a plain dr_step loop from x0, stopping at a
    fixed point; shares no code with iterate."""
    x = tuple(x0)
    counts = [0] * B.m
    records = [(0, x, None, A.inner(x), tuple(counts))]
    shadow = [project_hyperplane(A, x)]
    for n in range(1, max_n + 1):
        nxt, k = dr_step(A, B, x)
        if vec_equal(nxt, x, A.backend):
            return records, shadow, Outcome.FIXED_POINT
        counts[k - 1] += 1
        records.append((n, nxt, k, A.inner(nxt), tuple(counts)))
        shadow.append(project_hyperplane(A, nxt))
        x = nxt
    return records, shadow, Outcome.HORIZON


def typed(values):
    return [(type(v), v) for v in values]


def exported_counts(result, A, B):
    return [tuple(r["counts"]) for r in json.loads(run_json(result, A, B))["records"]]


def assert_matches_reference(A, B, x0, max_n):
    """Full and slim iterate traces equal the reference record by record,
    scalar types included, and so do their exported selector counts and
    derived shadows; a divergent run matches the reference prefix."""
    records, shadow, outcome = reference_run(A, B, x0, max_n)
    full = iterate(A, B, x0, max_n)
    slim = iterate(A, B, x0, max_n, slim=True)
    if full.outcome == Outcome.DIVERGENCE:
        records, shadow = records[: len(full.trace)], shadow[: len(full.trace)]
        outcome = Outcome.DIVERGENCE
    assert (full.outcome, slim.outcome) == (outcome, outcome)
    got = [(r.n, r.x, r.selector_k, r.inner) for r in full.trace]
    assert got == [rec[:4] for rec in records]
    assert exported_counts(full, A, B) == exported_counts(slim, A, B) == [
        rec[4] for rec in records
    ]
    assert typed(r.inner for r in full.trace) == typed(rec[3] for rec in records)
    assert typed(c for r in full.trace for c in r.x) == typed(
        c for rec in records for c in rec[1]
    )
    for run in (full, slim):
        assert [reconstruct_shadow(run, A, B, n) for n in range(len(run.trace))] == shadow
    assert slim.trace[0].x == records[0][1]
    got = [(r.n, r.selector_k, r.inner) for r in slim.trace]
    assert got == [(n, k, inner) for n, _, k, inner, _ in records]
    assert typed(r.inner for r in slim.trace) == typed(rec[3] for rec in records)
    assert all(r.x is None for r in slim.trace[1:])


def random_fraction(rng, lo, hi, den):
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_straddling(rng, normal):
    """Two random rational points on either side of the hyperplane, and a start."""
    A = Hyperplane(tuple(Fraction(c) for c in normal))
    dim = A.dim
    while True:
        pts = [
            tuple(random_fraction(rng, -6, 6, rng.randint(1, 7)) for _ in range(dim))
            for _ in (1, 2)
        ]
        inners = sorted(A.inner(p) for p in pts)
        if inners[0] < 0 < inners[1]:
            break
    x0 = tuple(random_fraction(rng, -4, 4, rng.randint(1, 5)) for _ in range(dim))
    return A, FiniteSet.ordered(pts, A), x0


HALF_ROOT2 = Surd(0, Fraction(1, 2), 2)
# unit normals over sqrt(2) in dimensions 1-3, with sqrt(2) parts from 2 on
SURD_NORMALS = (
    (Surd(1, 0, 2),),
    (HALF_ROOT2, HALF_ROOT2),
    (Surd(Fraction(1, 2), 0, 2), Surd(Fraction(-1, 2), 0, 2), HALF_ROOT2),
)
RATIONAL_NORMALS = ((1,), (Fraction(3, 5), Fraction(4, 5)), (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)))


def random_straddling_set(rng, normal, m, policy, coordinate):
    """m distinct points strictly on both sides of the hyperplane and off it,
    drawn by coordinate(rng), and a start."""
    A = Hyperplane(tuple(normal))
    while True:
        pts = [tuple(coordinate(rng) for _ in normal) for _ in range(m)]
        inners = sorted(A.inner(p) for p in pts)
        if inners[0] < 0 < inners[-1] and 0 not in inners and len(set(pts)) == m:
            break
    x0 = tuple(coordinate(rng) for _ in normal)
    return A, FiniteSet.ordered(pts, A, policy), x0


def rational_coordinate(rng):
    return random_fraction(rng, -5, 5, rng.randint(1, 6))


def surd_coordinate(rng):
    return Surd(random_fraction(rng, -4, 4, rng.randint(1, 4)), random_fraction(rng, -2, 2, 2), 2)


def tied_steps(A, B, x0, max_n):
    """Steps n >= 2 of the plain dr_step loop whose reflection is exactly
    equidistant from two or more points of B."""
    x, tied = tuple(x0), []
    for n in range(1, max_n + 1):
        ra = reflect_hyperplane(A, x)
        dists = [norm_sq(vsub(ra, b)) for b in B.points]
        if n >= 2 and dists.count(min(dists)) > 1:
            tied.append(n)
        x, _ = dr_step(A, B, x)
    return tied


def with_policy(B, policy):
    return FiniteSet(B.points, B.inners, policy)


class TestLatticeAgainstDrStep:
    """iterate runs straddling exact sets on the integer lattice; its traces
    must be the plain dr_step loop's."""

    def test_seeded_rational_line_and_plane(self):
        rng = random.Random(20261018)
        for normal in ((1,), (0, 1), (Fraction(3, 5), Fraction(4, 5))):
            for _ in range(6):
                A, B, x0 = random_straddling(rng, normal)
                assert_matches_reference(A, B, x0, 150)

    def test_surd_symmetric_ties_under_each_policy(self):
        # b = -/+ c*sqrt(2) puts equidistant reflections on the orbit
        for policy in TiePolicy:
            for c, x0 in ((1, 0), (Fraction(3, 2), Surd(0, Fraction(9, 2), 2))):
                b = Surd(0, c, 2)
                A = Hyperplane((Surd(1, 0, 2),))
                B = FiniteSet.ordered([(-b,), (b,)], A, policy)
                x0 = (x0 if isinstance(x0, Surd) else Surd(x0, 0, 2),)
                assert_matches_reference(A, B, x0, 60)

    def test_surd_irrational_ratio(self):
        A, B = surd_line_problem([Surd(-1, Fraction(-1, 2), 2), 3])
        assert_matches_reference(A, B, (Surd(Fraction(1, 3), 1, 2),), 60)

    def test_surd_planar_normals(self):
        # normals with sqrt(2) parts, so full records need both cross terms
        # of the lattice point evaluator; the second has both parts nonzero
        # in each coordinate: (1 - t^2, 2t)/(1 + t^2) at t = 1 + sqrt(2)/2
        half = Surd(0, Fraction(1, 2), 2)
        mixed = (
            Surd(Fraction(3, 17), Fraction(-8, 17), 2), Surd(Fraction(12, 17), Fraction(2, 17), 2)
        )
        lift = lambda *v: tuple(  # noqa: E731
            c if isinstance(c, Surd) else Surd(c, 0, 2) for c in v
        )
        for normal, pts, x0 in (
            ((half, half), [lift(-1, 0), lift(1, Surd(1, 1, 2))],
             lift(Fraction(1, 3), Surd(0, 1, 2))),
            (mixed, [lift(1, -1), lift(Surd(-2, 1, 2), 1)], lift(0, Fraction(1, 3))),
        ):
            A = Hyperplane(normal)
            assert_matches_reference(A, FiniteSet.ordered(pts, A), x0, 60)

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
    def test_canonical_doubletons(self, path):
        prob = load_problem(path)
        assert prob.points.m == 2
        assert_matches_reference(prob.hyperplane, prob.points, prob.x0, 80)

    def test_vector_path_cases(self, monkeypatch):
        # one-sided disjoint (divergent), touching (fixed point), f64; then
        # m = 3 sets on vectors (straddling but touching, one-sided) and the
        # straddling disjoint one, which runs on the lattice
        monkeypatch.setattr(dynamics, "DIVERGENCE_WINDOW", 5)
        A, B = plane_problem([(0, 1), (0, 2)])
        assert_matches_reference(A, B, F(0, 0), 40)
        assert iterate(A, B, F(0, 0), 40).outcome == Outcome.DIVERGENCE
        A, B = plane_problem([(0, 0), (0, 2)])
        assert_matches_reference(A, B, F(1, 1), 10)
        A = Hyperplane((1.0,))
        assert_matches_reference(A, FiniteSet.ordered([(-1.0,), (3.7,)], A), (0.25,), 50)
        A, B = plane_problem([(1, -1), (0, 0), (3, 1)])
        assert_matches_reference(A, B, F(2, 5), 50)
        A, B = plane_problem([(1, 1), (0, 2), (3, 1)])
        assert_matches_reference(A, B, F(2, 5), 40)
        assert iterate(A, B, F(2, 5), 40).outcome == Outcome.DIVERGENCE
        A, B = plane_problem([(1, -1), (0, 2), (3, 1)])
        assert_matches_reference(A, B, F(2, 5), 50)

    def test_short_horizons(self):
        A, B = line_problem([-1, 2])
        for max_n in (0, 1, 2):
            assert_matches_reference(A, B, (Fraction(1, 2),), max_n)
        A, B = line_problem([-1, 2, 3])
        for max_n in (0, 1, 2, 3):
            assert_matches_reference(A, B, (Fraction(1, 2),), max_n)

    @pytest.mark.parametrize("backend", ["rational", "surd"])
    def test_seeded_m_point_sets(self, backend):
        normals, coordinate = {
            "rational": (RATIONAL_NORMALS, rational_coordinate),
            "surd": (SURD_NORMALS, surd_coordinate),
        }[backend]
        rng = random.Random(f"m-point {backend}")
        for normal in normals:
            for m in range(3, 9):
                for policy in TiePolicy:
                    A, B, x0 = random_straddling_set(rng, normal, m, policy, coordinate)
                    assert_matches_reference(A, B, x0, 40)

    def test_one_vector_step(self, monkeypatch):
        # only step 1 runs on vectors: the lattice takes every later one
        calls = 0

        def counting_dr_step(*args):
            nonlocal calls
            calls += 1
            return dr_step(*args)

        monkeypatch.setattr(dynamics, "dr_step", counting_dr_step)
        for points in ([-1, 2], [-1, 2, 3]):
            A, B = line_problem(points)
            for max_n in (1, 2, 50):
                for slim in (False, True):
                    calls = 0
                    assert len(iterate(A, B, (Fraction(1, 2),), max_n, slim=slim).trace) == max_n + 1
                    assert calls == 1

    def test_m_point_shared_offset_ties(self):
        # b +/- w with w orthogonal to u share an offset, and their shadows are
        # equidistant from the shadow of c, so their scores tie after every
        # step that selects c; equal offsets leave the lower index to win
        for normal, c, w, x0 in (
            ((0, 1), F(0, -1), F(1, 0), F(0, 0)),
            ((Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)), F(-1, 0, 0), F(1, -2, 0), F(1, 2, 0)),
        ):
            A = Hyperplane(tuple(Fraction(v) for v in normal))
            b = project_hyperplane(A, c)
            b = tuple(bi + Fraction(3, 2) * ui for bi, ui in zip(b, A.normal))
            plus = tuple(p + q for p, q in zip(b, w))
            minus = tuple(p - q for p, q in zip(b, w))
            far = tuple(p + 4 * q for p, q in zip(b, A.normal))
            B = FiniteSet.ordered([c, plus, minus, far], A)
            assert B.inners[1] == B.inners[2]
            assert tied_steps(A, B, x0, 60)
            for policy in TiePolicy:
                assert_matches_reference(A, with_policy(B, policy), x0, 60)

    def test_m_point_constructed_distance_ties(self):
        # pairs b, R_A b with an orbit that returns to the hyperplane, where
        # R_A x_n is equidistant from each pair's two points
        A1 = Hyperplane((Fraction(1),))
        A3 = Hyperplane((Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)))
        b1, b2 = F(Fraction(1, 3), 1, 0), F(-4, 4, 1)
        Ah = Hyperplane(SURD_NORMALS[1])
        lift = lambda *v: tuple(c if isinstance(c, Surd) else Surd(c, 0, 2) for c in v)  # noqa: E731
        s1 = lift(1, Fraction(1, 2))
        cases = (
            (A1, [F(-1), F(1), F(Fraction(5, 2))], F(0)),
            (A3, [b1, reflect_hyperplane(A3, b1), b2, reflect_hyperplane(A3, b2),
                  F(5, 4, Fraction(-4, 3))], F(Fraction(1, 2), 1, -1)),
            (Ah, [s1, reflect_hyperplane(Ah, s1), lift(Surd(0, 1, 2), 3)], lift(1, -1)),
        )
        for A, pts, x0 in cases:
            B = FiniteSet.ordered(pts, A)
            assert tied_steps(A, B, x0, 60)
            for policy in TiePolicy:
                assert_matches_reference(A, with_policy(B, policy), x0, 60)


def test_path_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="drplane")
    A, B = line_problem([-1, 2])
    iterate(A, B, (Fraction(0),), 3)
    Af = Hyperplane((1.0,))
    iterate(Af, FiniteSet.ordered([(-1.0,), (2.0,)], Af), (0.0,), 3)
    iterate(*plane_problem([(0, 1), (0, 2)]), F(0, 0), 3)
    iterate(*plane_problem([(0, 0), (0, 2)]), F(1, 1), 3)
    iterate(*line_problem([-1, 2, 3]), (Fraction(0),), 3)
    detect_cycle(DoubletonProblem(A, (Fraction(-1),), (Fraction(2),), (Fraction(0),)), 10)
    detect_cycle(DoubletonProblem(Af, (-1.0,), (2.0,), (0.0,)), 10)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("drplane.dynamics", logging.DEBUG, "iterate: integer lattice"),
        ("drplane.dynamics", logging.DEBUG, "iterate: generic vectors (f64 backend)"),
        ("drplane.dynamics", logging.DEBUG, "iterate: generic vectors (one-sided)"),
        ("drplane.dynamics", logging.DEBUG, "iterate: generic vectors (touches the hyperplane)"),
        ("drplane.dynamics", logging.DEBUG, "iterate: integer lattice"),
        ("drplane.cycling", logging.DEBUG, "detect_cycle: integer lattice"),
        ("drplane.cycling", logging.DEBUG, "detect_cycle: quantized float offsets (f64 backend)"),
    ]


def test_logger_silent_by_default():
    handlers = logging.getLogger("drplane").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def untabled_walk(A, B, x0, max_n):
    """(n, x, k, inner) of steps 2..max_n from the orbit's lattice walk, its
    point evaluator and decode, one step after another with no state table."""
    orbit = Orbit(A, B, x0)
    lat = orbit.lattice
    _, k1, inner1 = orbit.first_step
    point = LinePoints(lat, A.normal, B.points).point
    pa, pb = lat.pair(inner1)
    out = []
    for n, (k, a, b) in zip(range(2, max_n + 1), lat.walk(k1, pa, pb)):
        out.append((n, point(k, pa, pb), k, lat.decode(a, b)))
        pa, pb = a, b
    return out


class TestLatticeStateTable:
    """iterate finds the first lattice state its walk revisits and repeats
    the records one period back from there; its records must be those of
    the untabled walk, in value and scalar type."""

    def assert_matches_walk(self, A, B, x0, max_n):
        expected = untabled_walk(A, B, x0, max_n)
        full = iterate(A, B, x0, max_n).trace[2:]
        slim = iterate(A, B, x0, max_n, slim=True).trace[2:]
        assert [(r.n, r.x, r.selector_k, r.inner) for r in full] == expected
        assert typed(c for r in full for c in (*r.x, r.inner)) == typed(
            c for _, x, _, inner in expected for c in (*x, inner)
        )
        assert [(r.n, r.selector_k, r.inner) for r in slim] == [
            (n, k, inner) for n, _, k, inner in expected
        ]
        return len({(k, inner) for _, _, k, inner in expected})

    def test_rational_m_point_sets_under_each_policy(self):
        rng = random.Random("lattice table m-point")
        revisits = 0
        for normal in RATIONAL_NORMALS:
            for m in (3, 5, 8):
                for policy in TiePolicy:
                    A, B, x0 = random_straddling_set(rng, normal, m, policy, rational_coordinate)
                    revisits += self.assert_matches_walk(A, B, x0, 300) < 299
        assert revisits > 20

    def test_m_point_ties_under_each_policy(self):
        A, B = plane_problem([(1, -1), (0, 2), (3, 1)])
        for policy in TiePolicy:
            self.assert_matches_walk(A, with_policy(B, policy), F(2, 5), 200)

    def test_rational_doubleton_past_the_table_budget(self):
        # q1*d_A(b1) = q2*d_A(b2) with q1 + q2 > 2^13: the table fills
        # before the walk comes back, and goes on sampled
        q1, q2 = 4099, 4999
        A, B = line_problem([Fraction(-q2, 3), Fraction(q1, 3)])
        distinct = self.assert_matches_walk(A, B, (Fraction(1, 5),), 2 * (q1 + q2) + 50)
        assert distinct == q1 + q2 > TABLE_BUDGET

    def test_replay_past_the_table_budget(self):
        # a cycle that closes past 2^13 states is replayed too: from the
        # sampled table's hit, just after the first repeat index R, each
        # record shares its iterate and offset with the one a period back
        q1, q2 = 4099, 4999
        period = q1 + q2
        A, B = line_problem([Fraction(-q2, 3), Fraction(q1, 3)])
        for slim in (False, True):
            trace = iterate(A, B, (Fraction(1, 5),), 2 * period + 50, slim=slim).trace
            index = {}
            for R, r in enumerate(trace[1:], 1):
                if index.setdefault((r.selector_k, r.inner), R) != R:
                    break
            assert R - index[trace[R].selector_k, trace[R].inner] == period
            shared = [
                m for m in range(period + 1, len(trace))
                if trace[m].x is trace[m - period].x and trace[m].inner is trace[m - period].inner
            ]
            assert shared and shared == list(range(shared[0], len(trace)))
            assert R <= shared[0] <= R + 1

    def test_horizons_around_the_sampled_hit(self):
        # the trace's walk records state n before Revisit finds it to be the
        # hit, so the replay starts where a record already is: at horizons
        # around n, the records are still those of plain dr_step
        q1, q2 = 4099, 4999
        A, B = line_problem([Fraction(-q2, 3), Fraction(q1, 3)])
        x0 = (Fraction(1, 5),)
        orbit = Orbit(A, B, x0)
        found = Revisit(orbit.start, 3 * (q1 + q2))
        assert found.search(orbit.lattice.walk(*orbit.start)) and found.spacing > 1
        n, x, expected = found.n, x0, [(0, x0, None, A.inner(x0))]
        for m in range(1, n + 2):
            x, k = dr_step(A, B, x)
            expected.append((m, x, k, A.inner(x)))
        for horizon in (n - 1, n, n + 1):
            want = expected[: horizon + 1]
            full = iterate(A, B, x0, horizon).trace
            assert [(r.n, r.x, r.selector_k, r.inner) for r in full] == want
            slim = iterate(A, B, x0, horizon, slim=True).trace
            assert [(r.n, r.selector_k, r.inner) for r in slim] == [
                (m, k, inner) for m, _, k, inner in want
            ]
            assert all(r.x is None for r in slim[1:])

    def test_irrational_surd_orbit(self):
        A, B = surd_line_problem([Surd(-1, Fraction(-1, 2), 2), 3])
        max_n = TABLE_BUDGET + 300
        assert self.assert_matches_walk(A, B, (Surd(Fraction(1, 3), 1, 2),), max_n) == max_n - 1


def hexes(v):
    return tuple(c.hex() for c in v)


def plain_f64_run(A, B, x0, max_n):
    """(n, x, k, inner) in float.hex of a plain dr_step loop, stopping at a
    fixed point."""
    x = tuple(x0)
    out = [(0, hexes(x), None, A.inner(x).hex())]
    for n in range(1, max_n + 1):
        nxt, k = dr_step(A, B, x)
        if vec_equal(nxt, x, A.backend):
            break
        out.append((n, hexes(nxt), k, A.inner(nxt).hex()))
        x = nxt
    return out


def signed_zero_sets(count):
    """Seeded straddling f64 sets on axis normals whose other components,
    point coordinates and start coordinates are often 0.0 or -0.0, with
    dyadic data so that the orbits cycle."""
    rng = random.Random("f64 signed zeros")
    zero = lambda: rng.choice((0.0, -0.0))  # noqa: E731
    sets = []
    while len(sets) < count:
        dim = rng.choice((2, 3))
        axis = rng.randrange(dim)
        normal = [zero() for _ in range(dim)]
        normal[axis] = rng.choice((1.0, -1.0))
        pts = set()
        for _ in range(rng.choice((2, 3, 4))):
            p = [rng.choice((zero(), rng.randint(-3, 3) / 2)) for _ in range(dim)]
            p[axis] = rng.choice((-1, 1)) * rng.randint(1, 6) / rng.choice((1, 2))
            pts.add(tuple(p))
        x0 = tuple(rng.choice((zero(), rng.randint(-4, 4) / 2)) for _ in range(dim))
        A = Hyperplane(tuple(normal))
        try:
            B = FiniteSet.ordered(sorted(pts), A, rng.choice(list(TiePolicy)))
        except ValueError:  # two points equal up to the sign of a zero
            continue
        if classify(A, B).kind == ClassificationKind.STRADDLING:
            sets.append((A, B, x0))
    return sets


def zero_sign_collisions(A, B, x0, max_n):
    """Iterates equal as floats, but not in their bits, whose dr_steps
    differ in their bits: a table keyed on such an iterate would answer the
    later one with the earlier one's step."""
    seen, x, found = {}, tuple(x0), 0
    for _ in range(max_n):
        nxt, k = dr_step(A, B, x)
        step = (hexes(x), hexes(nxt), k)
        found += sum(h != step[0] and (s, j) != step[1:] for h, s, j in seen.get(x, ()))
        seen.setdefault(x, []).append(step)
        x = nxt
    return found


def first_revisit(expected):
    """(R, period) of the first iterate x_R of a plain_f64_run that repeats
    an earlier one bit for bit, or None."""
    index = {}
    for n, x, _, _ in expected:
        back = index.setdefault(x, n)
        if back != n:
            return n, n - back
    return None


class TestF64StepTable:
    """iterate indexes f64 iterates by their bits and, from the first
    revisited one, replays the records one period back; its traces must be
    a plain dr_step loop's, bit for bit."""

    def assert_matches_plain(self, A, B, x0, max_n):
        expected = plain_f64_run(A, B, x0, max_n)
        full = iterate(A, B, x0, max_n)
        slim = iterate(A, B, x0, max_n, slim=True)
        assert [(r.n, hexes(r.x), r.selector_k, r.inner.hex()) for r in full.trace] == expected
        assert [
            (r.n, hexes(reconstruct_x(slim, A, B, n)), r.selector_k, r.inner.hex())
            for n, r in enumerate(slim.trace)
        ] == expected
        # the exported offset and coordinates are each record's own repr
        m = B.m
        texts = [[repr(float.fromhex(c)) for c in (inner, *x)] for _, x, _, inner in expected]
        for run in (full, slim):
            rows = [line.split(",") for line in trace_lines(run, A, B)]
            assert [[row[2], *row[3 + m:]] for row in rows] == texts
        return expected

    def test_orbits_through_signed_zeros(self):
        zeros, collisions = set(), 0
        for A, B, x0 in signed_zero_sets(60):
            for _, x, _, _ in self.assert_matches_plain(A, B, x0, 300):
                zeros.update(c for c in x if float.fromhex(c) == 0)
            collisions += zero_sign_collisions(A, B, x0, 300)
        # the orbits pass through both zeros, and some pass through iterates
        # that only a table ignoring the sign of zero would confuse
        assert zeros == {"0x0.0p+0", "-0x0.0p+0"}
        assert collisions > 0

    def test_replay_shares_the_records_a_period_back(self):
        for A, B, x0 in signed_zero_sets(60):
            # every seeded orbit comes back within 300 steps
            R, period = first_revisit(plain_f64_run(A, B, x0, 300))
            trace = iterate(A, B, x0, 300).trace
            for m in range(R + 1, len(trace)):
                assert trace[m].x is trace[m - period].x, m
                assert trace[m].inner is trace[m - period].inner, m

    def test_revisiting_run_steps_only_up_to_its_first_revisit(self, monkeypatch):
        calls = 0

        def counting_dr_step(*args):
            nonlocal calls
            calls += 1
            return dr_step(*args)

        monkeypatch.setattr(dynamics, "dr_step", counting_dr_step)
        for A, B, x0 in signed_zero_sets(60):
            R, _ = first_revisit(plain_f64_run(A, B, x0, 300))
            for slim in (False, True):
                calls = 0
                iterate(A, B, x0, 300, slim=slim)
                assert calls <= R

    def test_more_distinct_states_than_the_table_holds(self):
        # dyadic offsets with q1*d_A(b1) = q2*d_A(b2) and q1 + q2 > 2^13 are
        # exact in floats: the orbit cycles with period q1 + q2, so the table
        # fills before it comes back and the search goes on sampled
        q1, q2 = 4099, 4999
        A = Hyperplane((1.0,))
        B = FiniteSet.ordered([(-q2 / 4,), (q1 / 4,)], A)
        expected = self.assert_matches_plain(A, B, (0.125,), 2 * (q1 + q2) + 50)
        assert len({x for _, x, _, _ in expected[1:]}) == q1 + q2 > TABLE_BUDGET

    def test_replay_past_the_table_budget(self, monkeypatch):
        # the f64 twin of the exact orbit TestLatticeAgainstDrStep replays
        # past the table: the sampled table finds its cycle, so the run
        # steps about one period, and from the hit each record shares its
        # iterate and offset with the one a period back
        q1, q2 = 4099, 4999
        period, calls = q1 + q2, 0
        A = Hyperplane((1.0,))
        B = FiniteSet.ordered([(-q2 / 4,), (q1 / 4,)], A)
        max_n = 2 * period + 50
        expected = plain_f64_run(A, B, (0.125,), max_n)
        R, _ = first_revisit(expected)

        def counting_dr_step(*args):
            nonlocal calls
            calls += 1
            return dr_step(*args)

        monkeypatch.setattr(dynamics, "dr_step", counting_dr_step)
        for slim in (False, True):
            calls = 0
            run = iterate(A, B, (0.125,), max_n, slim=slim)
            assert calls <= 10_000
            assert [
                (r.n, hexes(reconstruct_x(run, A, B, n)), r.selector_k, r.inner.hex())
                for n, r in enumerate(run.trace)
            ] == expected
            trace = run.trace
            shared = [
                m for m in range(period + 1, len(trace))
                if trace[m].x is trace[m - period].x and trace[m].inner is trace[m - period].inner
            ]
            assert shared and shared == list(range(shared[0], len(trace)))
            # x_R, which record R + 1 is made from, is the first repeat, and
            # the sampled hit comes at most one spacing, 2, after it
            assert R < shared[0] <= R + 2


def streamed_rows_peak(run, A, B) -> int:
    """Peak traced bytes while the CSV rows of run stream past unkept."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    for line in trace_lines(run, A, B):
        line.split(",")
    return tracemalloc.get_traced_memory()[1] - base


def iterate_transient(A, B, x0, max_n) -> int:
    """Peak traced bytes of iterate beyond the result it returns."""
    tracemalloc.reset_peak()
    run = iterate(A, B, x0, max_n)
    held, peak = tracemalloc.get_traced_memory()
    return peak - held


def test_long_trace_memory_grows_with_the_trace_only():
    # iterate's step tables and the exporter's text table hold at most
    # TABLE_BUDGET states, so past them only the trace grows: what iterate
    # holds beyond its result, on the lattice and on f64 vectors, and what a
    # 10^5-step trace's CSV rows take while they stream, are what they are
    # just past the budget
    prob = load_problem(PROBLEMS / "surd_aperiodic.json")
    A, B, x0 = prob.hyperplane, prob.points, prob.x0
    floats = load_problem(PROBLEMS / "float_wide.json")
    past = TABLE_BUDGET + 1000
    run = iterate(A, B, x0, 10**5)
    short = RunResult(run.trace[: past + 1], run.outcome)
    slack = 2**20
    tracemalloc.start()
    try:
        for p in (prob, floats):
            args = p.hyperplane, p.points, p.x0
            assert iterate_transient(*args, 3 * TABLE_BUDGET) < iterate_transient(*args, past) + slack
        assert streamed_rows_peak(run, A, B) < streamed_rows_peak(short, A, B) + slack
    finally:
        tracemalloc.stop()
