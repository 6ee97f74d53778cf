"""Cycle detection and the rationality dichotomy for doubletons."""

import copy
import hashlib
import json
import logging
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from drplane.cycling import (
    CycleReport,
    DoubletonProblem,
    coefficient_limits,
    cycle_relation,
    detect_cycle,
    rationality_predicate,
)
from drplane.closedform import closed_form_trace
from drplane.dynamics import iterate, run_json
from drplane.errors import (
    BackendError,
    DimensionMismatch,
    PreconditionError,
    ProblemFormatError,
)
from drplane.geometry import FiniteSet, Hyperplane, TiePolicy, dr_step
from drplane.lattice import TABLE_BUDGET, LinePoints
from drplane.problems import load_problem, make_problem, problem_from_dict
from drplane.scalars import Surd, encode_scalar

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def line_doubleton(b1, b2, x0, tie_policy=TiePolicy.HIGHER_INNER):
    A = Hyperplane((Fraction(1),))
    return DoubletonProblem(
        A, (Fraction(b1),), (Fraction(b2),), (Fraction(x0),), tie_policy
    )


def surd_line_doubleton(b1, b2, x0, tie_policy=TiePolicy.HIGHER_INNER):
    lift = lambda v: v if isinstance(v, Surd) else Surd(v, 0, 2)
    A = Hyperplane((Surd(1, 0, 2),))
    return DoubletonProblem(A, (lift(b1),), (lift(b2),), (lift(x0),), tie_policy)


def seeded_doubletons(seed):
    """(normal, b1, b2, x0) of straddling doubletons on each backend, from
    seeded offsets o and tangent coordinates t as t*v + o*u, with v the unit
    tangent of the unit normal u; the last of each backend is symmetric
    with x0 on the hyperplane, so that its first step is a distance tie."""
    rng = random.Random(seed)
    r = lambda lo, hi: Fraction(rng.randint(lo * 8, hi * 8), 8)  # noqa: E731
    # a + b*sqrt(2) with b of a's sign, so that its sign is a's
    surd = lambda a: Surd(a, r(0, 1) * ((a > 0) - (a < 0)), 2)  # noqa: E731
    h = Surd(0, Fraction(1, 2), 2)
    lines = (
        ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)), r),
        ((h, h), (-h, h), lambda lo, hi: surd(r(lo, hi))),
        ((0.6, 0.8), (-0.8, 0.6), lambda lo, hi: float(r(lo, hi))),
    )
    cases = []
    for u, v, scalar in lines:
        point = lambda t, o: tuple(t * vi + o * ui for ui, vi in zip(u, v))  # noqa: E731
        for _ in range(3):
            b1, b2 = point(scalar(-4, 4), scalar(-4, -1)), point(scalar(-4, 4), scalar(1, 4))
            cases.append((u, b1, b2, point(scalar(-4, 4), scalar(-1, 1))))
        t, o = scalar(-4, 4), scalar(1, 4)
        cases.append((u, point(t, -o), point(t, o), point(scalar(-4, 4), 0 * o)))
    return cases


def brute_cycle(p, horizon):
    """Ground-truth oracle: hash full iterate vectors, first hit wins.

    Independent of the compressed-state machinery under test; minimality of
    both numbers is automatic because every visited state is tabled.
    """
    A, B = p.hyperplane, p.finite_set()
    seen = {p.x0: 0}
    x = p.x0
    for n in range(1, horizon + 1):
        x, _ = dr_step(A, B, x)
        first = seen.get(x)
        if first is not None:
            return first, n - first
        seen[x] = n
    return None


def hash_cycle(p, horizon):
    """Reference report (as a dict) from a table of every lattice state.

    The first hit gives the first repeat index lam + mu; keys exist only from
    n = 1, so the preperiod may be one step earlier, which the vectors
    decide.  So the keys are read to horizon + 1, and the report is 'cycle'
    when the vectors' lam + mu is at most the horizon.  Memory grows with
    the horizon; detect_cycle must agree with it.
    """
    lat = p.orbit.lattice
    _, k1, inner1 = p.orbit.first_step
    key = (k1, *lat.pair(inner1))
    seen, hist = {key: 1}, [key]
    for n, key in zip(range(2, horizon + 2), lat.walk(*key)):
        first = seen.get(key)
        if first is not None:
            break
        seen[key] = n
        hist.append(key)
    else:
        return {"status": "no_cycle", "horizon": horizon}

    def x(t):
        if t == 0:
            return p.x0
        k, a, b = hist[t - 1]
        sa, sb = lat.steps[k - 1]
        return p.orbit.line_points.point(k, a - sa, b - sb)

    lam, mu = first, n - first
    if x(lam - 1) == x(lam - 1 + mu):
        lam -= 1
    if lam + mu > horizon:
        return {"status": "no_cycle", "horizon": horizon}
    states = [[encode_scalar(c) for c in x(t)] for t in range(lam, lam + mu)]
    return {"status": "cycle", "preperiod": lam, "period": mu, "states": states}


class TestDoubletonProblem:
    def test_valid(self):
        p = line_doubleton(-1, 2, 0)
        assert p.beta1 == -1 and p.beta2 == 2

    def test_rejects_same_side(self):
        with pytest.raises(PreconditionError, match="^doubleton must straddle the hyperplane strictly"):
            line_doubleton(1, 2, 0)

    def test_rejects_reversed_points(self):
        # a straddling doubleton given above-then-below is refused as such
        A = Hyperplane((1.0,))
        for make in (
            lambda: line_doubleton(2, -1, 0),
            lambda: surd_line_doubleton(Surd(0, 1, 2), -1, 0),
            lambda: DoubletonProblem(A, (2.0,), (-1.0,), (0.0,)),
        ):
            with pytest.raises(PreconditionError, match="^b1 must lie below the hyperplane and b2 above it"):
                make()

    def test_rejects_on_hyperplane(self):
        with pytest.raises(PreconditionError):
            line_doubleton(0, 2, 0)

    def test_rejects_dim_mismatch(self):
        A = Hyperplane((Fraction(1),))
        with pytest.raises(DimensionMismatch):
            DoubletonProblem(A, (Fraction(-1), Fraction(0)), (Fraction(2),), (Fraction(0),))

    def test_from_problem_sorts_points(self):
        prob = make_problem((1,), [(2,), (-1,)], (0,))
        p = DoubletonProblem.from_problem(prob)
        assert p.b1 == (Fraction(-1),) and p.b2 == (Fraction(2),)
        # seeded doubletons on every backend and tie policy, their points
        # given in either order: both constructors build equal problems
        def closed_form(p):  # the trace, or the refusal's message
            try:
                return closed_form_trace(p, 40)
            except PreconditionError as exc:
                return str(exc)

        applies = 0
        for normal, b1, b2, x0 in seeded_doubletons(26):
            for policy in TiePolicy:
                p = DoubletonProblem(Hyperplane(normal), b1, b2, x0, policy)
                report, trace = detect_cycle(p, 200), closed_form(p)
                applies += not isinstance(trace, str)
                for points in ([b1, b2], [b2, b1]):
                    q = DoubletonProblem.from_problem(make_problem(normal, points, x0, policy))
                    assert (q.b1, q.b2) == (b1, b2)
                    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
                    assert detect_cycle(q, 200) == report and closed_form(q) == trace
        assert applies

    @pytest.mark.parametrize("name", ["rational_cycle", "r2_beatty", "surd_aperiodic", "float_wide"])
    def test_from_problem_checks_only_x0(self, name, monkeypatch):
        # the loaded problem has checked and ordered its points: the view
        # checks x0 alone, once, in its orbit, and builds no second set
        problem = load_problem(PROBLEMS / f"{name}.json")
        checked, built = [], []
        check, init = Hyperplane.check, FiniteSet.__init__

        def spy_check(A, name, v):
            checked.append(name)
            check(A, name, v)

        def spy_init(B, *args):
            built.append(args)
            init(B, *args)

        monkeypatch.setattr(Hyperplane, "check", spy_check)
        monkeypatch.setattr(FiniteSet, "__init__", spy_init)
        p = DoubletonProblem.from_problem(problem)
        assert checked == ["x0"] and built == []
        assert p.finite_set() is problem.points

    def test_finite_set_matches_ordered(self):
        for policy in TiePolicy:
            p = surd_line_doubleton(Surd(-1, -1, 2), 3, 0, policy)
            assert p.finite_set() == FiniteSet.ordered([p.b2, p.b1], p.hyperplane, policy)

    def test_surd_problem_copies_and_pickles(self):
        # surd, rational and f64 doubletons, each copied after its orbit's
        # lattice and point evaluator are derived, so that they go through
        # copy and pickle too
        A = Hyperplane((1.0,))
        # and seeded ones on every tie policy, from both constructors
        seeded = []
        for normal, b1, b2, x0 in seeded_doubletons(27):
            for policy in TiePolicy:
                seeded.append(DoubletonProblem(Hyperplane(normal), b1, b2, x0, policy))
                seeded.append(DoubletonProblem.from_problem(make_problem(normal, [b2, b1], x0, policy)))
        for p in (
            surd_line_doubleton(Surd(-1, -1, 2), Surd(Fraction(1, 2), 1, 2), Fraction(1, 3)),
            line_doubleton(-1, 2, Fraction(1, 3)),
            DoubletonProblem(A, (-1.0,), (3.7,), (0.3,)),
            *seeded,
        ):
            report = detect_cycle(p, 300)
            _, k1, inner1 = p.orbit.first_step
            pair = p.orbit.lattice.pair(inner1)
            x = p.orbit.line_points.point(k1, *pair)
            for clone in (p, copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                # every field and offset is read from the clone's own orbit
                orbit = clone.orbit
                assert clone.hyperplane is orbit.A and clone.x0 is orbit.x0
                assert clone.finite_set() is orbit.B and clone.tie_policy is orbit.B.tie_policy
                assert (clone.b1, clone.b2) == orbit.B.points and clone.backend == orbit.A.backend
                assert (clone.beta1, clone.beta2) == orbit.B.inners and clone.beta == orbit.window
                assert clone == p and hash(clone) == hash(p) and repr(clone) == repr(p)
                assert (clone.beta1, clone.beta2, clone.beta) == (p.beta1, p.beta2, p.beta)
                assert {"lattice", "line_points"} <= vars(clone.orbit).keys()
                assert clone.orbit.line_points.point(k1, *pair) == x
                assert detect_cycle(clone, 300) == report

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["b1", "b2", "x0"])
    def test_rejects_nonfinite_f64(self, name, bad):
        vectors = {"b1": (-1.0, 0.0), "b2": (2.0, 0.0), "x0": (0.0, 0.0)}
        vectors[name] = (bad, 0.0)
        with pytest.raises(ProblemFormatError, match=f"^{name}: .* is not a finite f64 value"):
            DoubletonProblem(Hyperplane((1.0, 0.0)), **vectors)

    def test_from_problem_rejects_triples(self):
        prob = make_problem((1,), [(-1,), (2,), (3,)], (0,))
        with pytest.raises(PreconditionError, match="doubleton"):
            DoubletonProblem.from_problem(prob)


class TestRationalityPredicate:
    def test_rational_ratio(self):
        assert rationality_predicate(line_doubleton(-1, 2, 0)) is True

    def test_irrational_ratio(self):
        p = surd_line_doubleton(-1, Surd(0, 1, 2), 0)
        assert rationality_predicate(p) is False

    def test_symmetric(self):
        assert rationality_predicate(line_doubleton(-3, 3, 0)) is True

    def test_surd_points_rational_ratio(self):
        p = surd_line_doubleton(Surd(0, -1, 2), Surd(0, 2, 2), 0)
        assert rationality_predicate(p) is True

    def test_float_refused(self):
        A = Hyperplane((1.0,))
        p = DoubletonProblem(A, (-1.0,), (2.0,), (0.0,))
        with pytest.raises(BackendError):
            rationality_predicate(p)


class TestCycleRelation:
    def test_basic(self):
        assert cycle_relation(line_doubleton(-1, 2, 0)) == (2, 1)

    def test_symmetric(self):
        assert cycle_relation(line_doubleton(-3, 3, 0)) == (1, 1)

    def test_irrational(self):
        p = surd_line_doubleton(-1, Surd(0, 1, 2), 0)
        assert cycle_relation(p) is None

    def test_surd_rational_ratio(self):
        p = surd_line_doubleton(Surd(0, -1, 2), Surd(0, 2, 2), 0)
        assert cycle_relation(p) == (2, 1)

    def test_relation_balances_distances(self):
        p = line_doubleton(Fraction(-3, 4), Fraction(5, 6), 0)
        q1, q2 = cycle_relation(p)
        assert q1 * (-p.beta1) == q2 * p.beta2

    def test_float_refused(self):
        A = Hyperplane((1.0,))
        p = DoubletonProblem(A, (-1.0,), (2.0,), (0.0,))
        with pytest.raises(BackendError):
            cycle_relation(p)


class TestDetectCycle:
    def test_period_three_from_origin(self):
        report = detect_cycle(line_doubleton(-1, 2, 0), 100)
        assert report.status == "cycle"
        assert (report.preperiod, report.period) == (0, 3)
        assert report.states == ((Fraction(0),), (Fraction(-1),), (Fraction(1),))
        assert not report.approximate

    def test_symmetric_tie_cycle(self):
        report = detect_cycle(line_doubleton(-1, 1, 0), 10)
        assert (report.preperiod, report.period) == (0, 2)
        assert report.states == ((Fraction(0),), (Fraction(1),))

    def test_symmetric_tie_cycle_lower_policy(self):
        report = detect_cycle(line_doubleton(-1, 1, 0, TiePolicy.LOWER_INNER), 10)
        assert (report.preperiod, report.period) == (0, 2)
        assert report.states == ((Fraction(0),), (Fraction(-1),))

    def test_long_approach_preperiod(self):
        # 99 pure descent steps before the orbit joins the 3-cycle; the
        # join is visible on vectors one step before the compressed keys
        # agree, which is exactly what the back-walk must recover
        report = detect_cycle(line_doubleton(-1, 2, 100), 1000)
        assert (report.preperiod, report.period) == (99, 3)
        assert report.states == ((Fraction(1),), (Fraction(0),), (Fraction(-1),))

    def test_plane_problem_preperiod_one(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A,
            (Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(2)),
            (Fraction(5), Fraction(0)),
        )
        report = detect_cycle(p, 100)
        assert (report.preperiod, report.period) == (1, 3)
        zero = Fraction(0)
        assert report.states == (
            (zero, Fraction(-1)),
            (zero, Fraction(1)),
            (zero, zero),
        )

    def test_threshold_tie_start(self):
        report = detect_cycle(line_doubleton(-1, 2, Fraction(1, 2)), 50)
        assert (report.preperiod, report.period) == (0, 3)
        assert report.states == (
            (Fraction(1, 2),),
            (Fraction(-1, 2),),
            (Fraction(3, 2),),
        )

    def test_surd_aperiodic(self):
        p = surd_line_doubleton(-1, Surd(0, 1, 2), 0)
        report = detect_cycle(p, 10_000)
        assert report == CycleReport("no_cycle", 10_000)

    def test_surd_rational_ratio_cycles(self):
        p = surd_line_doubleton(Surd(0, -1, 2), Surd(0, 2, 2), 0)
        report = detect_cycle(p, 1000)
        assert (report.preperiod, report.period) == (0, 3)
        assert report.states == (
            (Surd(0, 0, 2),),
            (Surd(0, -1, 2),),
            (Surd(0, 1, 2),),
        )

    def test_float_cycle_is_labeled_approximate(self):
        A = Hyperplane((1.0,))
        p = DoubletonProblem(A, (-1.0,), (2.0,), (0.0,))
        report = detect_cycle(p, 100)
        assert report.status == "cycle"
        assert (report.preperiod, report.period) == (0, 3)
        assert report.approximate
        assert report.to_dict()["approximate"] is True

    def test_horizon_validation(self):
        p = line_doubleton(-1, 2, 0)
        with pytest.raises(ValueError):
            detect_cycle(p, 0)
        assert detect_cycle(p, 1).status == "no_cycle"

    def test_no_cycle_report_shape(self):
        p = surd_line_doubleton(-1, Surd(0, 1, 2), 0)
        report = detect_cycle(p, 50)
        assert report.to_dict() == {"status": "no_cycle", "horizon": 50}

    def test_cycle_report_json(self):
        report = detect_cycle(line_doubleton(-1, 2, 0), 100)
        assert report.to_dict() == {
            "status": "cycle",
            "preperiod": 0,
            "period": 3,
            "states": [["0"], ["-1"], ["1"]],
        }


def random_rational(rng, lo, hi, max_den):
    den = rng.randint(1, max_den)
    num = rng.randint(int(lo * den), int(hi * den))
    return Fraction(num, den)


def random_line_doubleton(rng):
    b1 = random_rational(rng, -10, 0, 8)
    while b1 >= 0:
        b1 = random_rational(rng, -10, 0, 8)
    b2 = random_rational(rng, 0, 10, 8)
    while b2 <= 0:
        b2 = random_rational(rng, 0, 10, 8)
    x0 = random_rational(rng, -5, 5, 8)
    return line_doubleton(b1, b2, x0)


def random_plane_doubleton(rng):
    A = Hyperplane((Fraction(0), Fraction(1)))
    b1 = (random_rational(rng, -5, 5, 6), random_rational(rng, -8, -1, 6))
    b2 = (random_rational(rng, -5, 5, 6), random_rational(rng, 1, 8, 6))
    x0 = (random_rational(rng, -3, 3, 6), random_rational(rng, -3, 3, 6))
    return DoubletonProblem(A, b1, b2, x0)


def random_surd_plane_doubleton(rng, tie_policy=TiePolicy.HIGHER_INNER):
    # offsets are rational multiples of one irrational surd, so their ratio
    # is rational while every coordinate carries a sqrt(2) part
    A = Hyperplane((Surd(Fraction(3, 5), 0, 2), Surd(Fraction(4, 5), 0, 2)))
    s = Surd(1, Fraction(1, 2), 2)
    t1, t2 = random_rational(rng, 1, 3, 3), random_rational(rng, 1, 3, 3)
    # <(4, -3), u> = 0, so (4w, -3w) + c*u has offset exactly c
    w1, w2 = Surd(0, random_rational(rng, -2, 2, 3), 2), Surd(random_rational(rng, -2, 2, 3), 0, 2)
    b1 = (4 * w1 - Fraction(3, 5) * t1 * s, -3 * w1 - Fraction(4, 5) * t1 * s)
    b2 = (4 * w2 + Fraction(3, 5) * t2 * s, -3 * w2 + Fraction(4, 5) * t2 * s)
    x0 = (Surd(random_rational(rng, -2, 2, 3), 0, 2), Surd(0, random_rational(rng, -2, 2, 3), 2))
    return DoubletonProblem(A, b1, b2, x0, tie_policy)


class TestAgainstBruteForce:
    def test_line_instances(self):
        rng = random.Random(20260814)
        for _ in range(25):
            p = random_line_doubleton(rng)
            report = detect_cycle(p, 100_000)
            assert report.status == "cycle"  # rational data must cycle
            assert brute_cycle(p, 100_000) == (report.preperiod, report.period)

    def test_plane_instances(self):
        rng = random.Random(7)
        instances = [random_plane_doubleton(rng) for _ in range(10)]
        instances += [random_surd_plane_doubleton(rng) for _ in range(6)]
        for p in instances:
            report = detect_cycle(p, 100_000)
            assert report.status == "cycle"
            assert brute_cycle(p, 100_000) == (report.preperiod, report.period)

    def test_surd_no_false_cycles(self):
        rng = random.Random(99)
        for _ in range(6):
            b1 = Surd(Fraction(-rng.randint(1, 4)), Fraction(-1, rng.randint(1, 3)), 2)
            b2 = Surd(rng.randint(1, 4), 0, 2)
            p = surd_line_doubleton(b1, b2, rng.randint(-2, 2))
            assert rationality_predicate(p) is False
            report = detect_cycle(p, 1500)
            assert report.status == "no_cycle"
            assert brute_cycle(p, 1500) is None

    def test_surd_cycles_match(self):
        rng = random.Random(3)
        instances = []
        for _ in range(5):
            scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            b1 = Surd(-1, Fraction(-1, 2), 2)
            b2 = Surd(scale, scale / 2, 2)  # b2 = -scale * b1, rational ratio
            instances.append(surd_line_doubleton(b1, b2, rng.randint(-2, 2)))
        # symmetric points b = -/+ c*sqrt(2) put equidistant reflections on
        # the orbit (offset 0, reached after a descent from 3*c*sqrt(2)), so
        # each tie policy steers its own cycle
        for policy in TiePolicy:
            for c, x0 in ((1, 0), (Fraction(3, 2), Surd(0, Fraction(9, 2), 2))):
                b = Surd(0, c, 2)
                instances.append(surd_line_doubleton(-b, b, x0, policy))
        for p in instances:
            assert rationality_predicate(p) is True
            report = detect_cycle(p, 100_000)
            assert report.status == "cycle"
            assert brute_cycle(p, 100_000) == (report.preperiod, report.period)


def coprime_pair(rng, lo, hi):
    """Coprime positive (q1, q2) with lo <= q1 + q2 <= hi."""
    while True:
        total = rng.randint(lo, hi)
        q1 = rng.randint(1, total - 1)
        if math.gcd(q1, total) == 1:
            return q1, total - q1


def relation_doubleton(rng, q1, q2, x0_offset, planar, policy):
    """A rational doubleton with q1*d_A(b1) = q2*d_A(b2) and start offset
    x0_offset; thirds share the offsets' denominator, so threshold ties
    occur and the tie policy matters."""
    s = Fraction(rng.randint(1, 9), 3)
    if not planar:
        return line_doubleton(-q2 * s, q1 * s, x0_offset, policy)
    lead = [Fraction(rng.randint(-3, 3), 3) for _ in range(3)]
    A = Hyperplane((Fraction(0), Fraction(1)))
    return DoubletonProblem(
        A, (lead[0], -q2 * s), (lead[1], q1 * s), (lead[2], Fraction(x0_offset)), policy
    )


def dyadic_f64_doubleton(rng, q1, q2, planar, policy):
    """An f64 doubleton with offsets -q2*s and q1*s, s a power of two, and a
    quarter-integer start: every float operation of its orbit is exact."""
    s = 2.0 ** rng.randint(-3, 3)
    x0 = rng.randint(-240, 240) / 4
    if not planar:
        return DoubletonProblem(Hyperplane((1.0,)), (-q2 * s,), (q1 * s,), (x0,), policy)
    lead = [rng.randint(-12, 12) / 4 for _ in range(3)]
    A = Hyperplane((0.0, 1.0))
    return DoubletonProblem(A, (lead[0], -q2 * s), (lead[1], q1 * s), (lead[2], x0), policy)


def restarted(p, x0):
    """The doubleton p started from x0."""
    return DoubletonProblem(p.hyperplane, p.b1, p.b2, x0, p.tie_policy)


class TestHorizonContract:
    """The report is 'cycle' exactly when preperiod + period is at most the
    horizon: at R - 1, R and R + 1 around the first repeat index R that
    brute_cycle's plain dr_step walk finds, on 1-D, planar and dyadic f64
    doubletons, from seeded starts and from states on their cycles."""

    def assert_contract(self, p):
        lam, mu = brute_cycle(p, 10**5)
        R = lam + mu
        assert detect_cycle(p, R - 1).to_dict() == {"status": "no_cycle", "horizon": R - 1}
        for horizon in (R, R + 1):
            report = detect_cycle(p, horizon)
            assert (report.status, report.preperiod, report.period) == ("cycle", lam, mu)
        return report

    def test_seeded_doubletons(self):
        rng = random.Random("horizon contract")
        for policy in TiePolicy:
            for planar in (False, True):
                for _ in range(6):
                    q1, q2 = coprime_pair(rng, 3, 40)
                    x0 = Fraction(rng.randint(-60, 60), 3)
                    exact = relation_doubleton(rng, q1, q2, x0, planar, policy)
                    for p in (exact, dyadic_f64_doubleton(rng, q1, q2, planar, policy)):
                        report = self.assert_contract(p)
                        # started on its cycle, where keys lag the iterates
                        on = restarted(p, rng.choice(report.states))
                        assert self.assert_contract(on).preperiod == 0

    def test_cycles_from_x0_and_past_the_table(self):
        # {-1, 2} from 0 repeats x0 at step 3; the 4999/4099 cycle has a
        # period past 2^13 and, from 50000000/3, a preperiod past it too
        assert self.assert_contract(line_doubleton(-1, 2, 0)).period == 3
        far = line_doubleton(Fraction(-4999, 3), Fraction(4099, 3), Fraction(50000000, 3))
        report = self.assert_contract(far)
        assert (report.preperiod, report.period) == (10002, 9098)
        on = self.assert_contract(restarted(far, report.states[-1]))
        assert (on.preperiod, on.period) == (0, 9098)


class TestAgainstHashSearch:
    """detect_cycle's sampled table against the table of every state, at
    the horizons around the first repeat index R = preperiod + period."""

    def assert_matches_at_horizons(self, p):
        full = hash_cycle(p, 10**6)
        assert full["status"] == "cycle"
        R = full["preperiod"] + full["period"]
        for horizon in (R - 1, R, R + 1, 2 * R):
            assert detect_cycle(p, horizon).to_dict() == hash_cycle(p, horizon)
        return R

    def test_small_instances_each_policy(self):
        rng = random.Random(20261019)
        for policy in TiePolicy:
            for planar in (False, True):
                for _ in range(12):
                    q1, q2 = coprime_pair(rng, 3, 40)
                    x0 = Fraction(rng.randint(-60, 60), 3)
                    self.assert_matches_at_horizons(
                        relation_doubleton(rng, q1, q2, x0, planar, policy)
                    )

    def test_beyond_table_budget(self):
        # periods past the budget (q1 + q2 > 2^13) and preperiods past it (a
        # far-away start), so the search thins its table before the repeat
        rng = random.Random(20261020)
        lo = TABLE_BUDGET + 1
        instances = []
        for policy in TiePolicy:
            q1, q2 = coprime_pair(rng, lo, lo + 4000)
            instances.append(relation_doubleton(rng, q1, q2, Fraction(1, 3), False, policy))
            # from far above the orbit falls by d_A(b1) = q2*s a step, from
            # far below it climbs by d_A(b2) = q1*s
            q1, q2 = coprime_pair(rng, 3, 20)
            s, steps = Fraction(1, 3), lo + rng.randint(0, 3000)
            far = rng.choice((steps * q2 * s, -steps * q1 * s))
            instances.append(line_doubleton(-q2 * s, q1 * s, far, policy))
        q1, q2 = coprime_pair(rng, lo, lo + 2000)
        instances.append(relation_doubleton(rng, q1, q2, 0, True, TiePolicy.HIGHER_INNER))
        unit = Surd(1, Fraction(1, 2), 2)
        q1, q2 = coprime_pair(rng, lo, lo + 2000)
        instances.append(surd_line_doubleton(-q2 * unit, q1 * unit, Surd(0, 1, 2)))
        for p in instances:
            assert self.assert_matches_at_horizons(p) > TABLE_BUDGET

    def test_irrational_past_budget(self):
        p = surd_line_doubleton(Surd(-1, -1, 2), 3, Fraction(1, 2))
        horizon = 3 * TABLE_BUDGET + 5
        expected = hash_cycle(p, horizon)
        assert expected["status"] == "no_cycle"
        assert detect_cycle(p, horizon).to_dict() == expected


def test_cycle_search_memory_is_bounded():
    wire = json.loads((PROBLEMS / "surd_aperiodic.json").read_text())
    p = DoubletonProblem.from_problem(problem_from_dict(wire))
    tracemalloc.start()
    try:
        report = detect_cycle(p, 2 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == "no_cycle"
    assert peak < 8 * 2**20


def test_found_cycle_costs_its_report():
    # a period of more than three tables, so that the search samples: past
    # the report, the search may hold its table and O(spacing) more states
    q1, q2 = 10003, 20008
    assert q1 + q2 >= 3 * TABLE_BUDGET and math.gcd(q1, q2) == 1
    p = line_doubleton(-q2 * Fraction(2, 7), q1 * Fraction(2, 7), Fraction(1, 3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = detect_cycle(p, 10**6)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.period == q1 + q2
    kept, peak = kept - base, peak - base
    assert peak - kept < 0.6 * kept


def test_sampled_hit_is_logged(caplog):
    # period 9098 > 2^13, from a start 10002 steps above the cycle
    caplog.set_level(logging.DEBUG, logger="drplane")
    p = line_doubleton(Fraction(-4999, 3), Fraction(4099, 3), Fraction(50000000, 3))
    report = detect_cycle(p, 10**5)
    assert (report.preperiod, report.period) == (10002, 9098)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("drplane.cycling", logging.DEBUG, "detect_cycle: integer lattice"),
        ("drplane.cycling", logging.DEBUG, "detect_cycle: sampled table hit at spacing 4"),
    ]


def test_sampled_hit_past_the_horizon_decodes_nothing(monkeypatch):
    # the far cycle of test_sampled_hit_is_logged repeats at key index 19101,
    # and its iterates at 19100 = preperiod + period; a sampled hit past the
    # horizon is settled by walking, not by decoding
    decoded, iterates = [], LinePoints.iterates

    def spy(self, states):
        out = iterates(self, states)
        decoded.append(len(out))
        return out

    monkeypatch.setattr(LinePoints, "iterates", spy)
    p = line_doubleton(Fraction(-4999, 3), Fraction(4099, 3), Fraction(50000000, 3))
    for horizon in (19098, 19099):
        assert detect_cycle(p, horizon).to_dict() == {"status": "no_cycle", "horizon": horizon}
    assert decoded == []
    report = detect_cycle(p, 19100)
    assert (report.preperiod, report.period) == (10002, 9098)
    assert decoded[0] == 9098


def test_states_repeating_at_horizon_plus_one_decode_two_states_at_most(monkeypatch):
    # preperiod 1 and period 9098, with no one-step lag: the states first
    # repeat at 9099, so horizon 9098 takes a sampled hit that the iterates
    # of the state before the cycle (x0 here) and of its last state settle
    decoded, iterates, point = [], LinePoints.iterates, LinePoints.point

    def spy(self, states):
        out = iterates(self, states)
        decoded.append(len(out))
        return out

    def spy_point(self, k, a, b):
        decoded.append(1)
        return point(self, k, a, b)

    monkeypatch.setattr(LinePoints, "iterates", spy)
    monkeypatch.setattr(LinePoints, "point", spy_point)
    A = Hyperplane((Fraction(0), Fraction(1)))
    p = DoubletonProblem(
        A, (Fraction(1, 3), Fraction(-4999, 3)), (Fraction(-2, 3), Fraction(4099, 3)),
        (Fraction(2, 3), Fraction(1, 5)),
    )
    assert detect_cycle(p, 9098).to_dict() == {"status": "no_cycle", "horizon": 9098}
    assert sum(decoded) <= 2
    assert detect_cycle(p, 9097).to_dict() == {"status": "no_cycle", "horizon": 9097}
    reports = [detect_cycle(p, horizon) for horizon in (9099, 9100)]
    assert reports[0].states == reports[1].states
    states = reports[0].states
    assert [(r.status, r.preperiod, r.period) for r in reports] == [("cycle", 1, 9098)] * 2
    # x1 starts the cycle, x0 is not on it, and each state steps to the next
    assert states[0] == dr_step(A, p.finite_set(), p.x0)[0] and p.x0 not in states
    assert all(
        dr_step(A, p.finite_set(), x)[0] == states[(i + 1) % len(states)]
        for i, x in enumerate(states)
    )


def random_dyadic(rng, lo, hi):
    den = rng.choice((2, 4))
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_dyadic_doubleton(rng):
    """(normal, b1, b2, x0) in halves and quarters, with normal (1,) or
    (0, 1); about a third are symmetric, b2 = -b1.  Binary floats hold
    these values exactly, and the f64 orbit stays on them."""
    normal = rng.choice(((1,), (0, 1)))
    lead = tuple(random_dyadic(rng, -4, 4) for _ in normal[1:])
    b1 = lead + (-random_dyadic(rng, 1, 4),)
    if rng.random() < 1 / 3:
        b2 = tuple(-c for c in b1)
    else:
        b2 = tuple(random_dyadic(rng, -4, 4) for _ in lead) + (random_dyadic(rng, 1, 4),)
    x0 = tuple(random_dyadic(rng, -4, 4) for _ in normal)
    return normal, b1, b2, x0


class TestFloatAgainstRational:
    def test_dyadic_doubletons_match_exact_reports(self):
        # on dyadic data the f64 search must find the rational backend's
        # cycle, under every tie policy
        rng = random.Random(20261018)
        policies_differ = 0
        for _ in range(100):
            normal, b1, b2, x0 = random_dyadic_doubleton(rng)
            reports = set()
            A = Hyperplane(tuple(map(Fraction, normal)))
            Af = Hyperplane(tuple(map(float, normal)))
            points = [tuple(map(float, v)) for v in (b1, b2, x0)]
            for policy in TiePolicy:
                exact = detect_cycle(DoubletonProblem(A, b1, b2, x0, policy), 10_000)
                approx = detect_cycle(DoubletonProblem(Af, *points, policy), 10_000)
                assert exact.status == approx.status == "cycle"
                assert (approx.preperiod, approx.period) == (exact.preperiod, exact.period)
                assert approx.states == tuple(tuple(map(float, x)) for x in exact.states)
                assert approx.approximate and not exact.approximate
                reports.add((exact.preperiod, exact.period, exact.states))
            policies_differ += len(reports) > 1
        # threshold ties occur on these orbits, so the policies are exercised
        assert policies_differ >= 10


class TestCycleValidity:
    def assert_valid(self, p, report):
        A, B = p.hyperplane, p.finite_set()
        # the listed states really map to each other in order, closing up
        x = report.states[0]
        for nxt in report.states[1:]:
            x, _ = dr_step(A, B, x)
            assert x == nxt
        x, _ = dr_step(A, B, x)
        assert x == report.states[0]
        # states[0] is the iterate at n = preperiod
        run = iterate(A, B, p.x0, report.preperiod)
        assert run.trace[-1].x == report.states[0]

    def test_frozen_instances(self):
        for p in (
            line_doubleton(-1, 2, 0),
            line_doubleton(-1, 2, 100),
            line_doubleton(-1, 1, 0),
            line_doubleton(Fraction(-3, 4), Fraction(5, 6), Fraction(1, 3)),
            surd_line_doubleton(Surd(0, -1, 2), Surd(0, 2, 2), 0),
        ):
            report = detect_cycle(p, 100_000)
            assert report.status == "cycle"
            self.assert_valid(p, report)

    def test_period_offsets_cancel(self):
        # over one period the selected offsets sum to zero
        rng = random.Random(11)
        for _ in range(10):
            p = random_line_doubleton(rng)
            report = detect_cycle(p, 100_000)
            run = iterate(
                p.hyperplane, p.finite_set(), p.x0,
                report.preperiod + report.period, slim=True,
            )
            ks = [r.selector_k for r in run.trace[report.preperiod + 1 :]]
            total = sum(p.beta1 if k == 1 else p.beta2 for k in ks)
            assert total == 0


class TestCycleReplay:
    """Every state of a cycle report, replayed under plain dr_step from x0:
    nothing here reads the lattice, its point decoder or iterate."""

    def assert_replays(self, p, report):
        A, B = p.hyperplane, p.finite_set()
        states = report.states
        assert report.status == "cycle" and len(states) == report.period
        assert len(set(states)) == report.period  # distinct, so mu is minimal
        x, before = p.x0, None
        for _ in range(report.preperiod):
            before, (x, _) = x, dr_step(A, B, x)
        assert x == states[0]
        assert [type(c) for c in x] == [type(c) for c in states[0]]
        # one step fewer does not close the cycle, so lam is minimal
        assert before is None or before != states[-1]
        for i, x in enumerate(states):
            assert dr_step(A, B, x)[0] == states[(i + 1) % report.period], i

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_seeded_doubletons_each_policy(self, policy):
        rng = random.Random(f"replay {policy.name}")
        instances = [line_doubleton(-1, 2, 0, policy), line_doubleton(-1, 2, 100, policy)]
        for planar in (False, True):
            for _ in range(8):
                q1, q2 = coprime_pair(rng, 3, 60)
                x0 = Fraction(rng.randint(-90, 90), 3)
                instances.append(relation_doubleton(rng, q1, q2, x0, planar, policy))
        instances += [random_surd_plane_doubleton(rng, policy) for _ in range(4)]
        for p in instances:
            self.assert_replays(p, detect_cycle(p, 100_000))

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_dyadic_f64_doubletons_each_policy(self, policy):
        # offsets -q2*s and q1*s with s a power of two, and quarter-integer
        # starts: every float operation of these orbits is exact, so the
        # approximate report must replay bit for bit
        rng = random.Random(f"f64 replay {policy.name}")
        for planar in (False, True):
            for _ in range(34):
                q1, q2 = coprime_pair(rng, 3, 60)
                p = dyadic_f64_doubleton(rng, q1, q2, planar, policy)
                report = detect_cycle(p, 100_000)
                assert report.approximate
                self.assert_replays(p, report)

    def test_period_past_table_budget(self):
        rng = random.Random("replay past budget")
        q1, q2 = coprime_pair(rng, TABLE_BUDGET + 1, TABLE_BUDGET + 2000)
        p = relation_doubleton(rng, q1, q2, Fraction(1, 3), False, TiePolicy.HIGHER_INNER)
        report = detect_cycle(p, 10**6)
        assert report.period > TABLE_BUDGET
        self.assert_replays(p, report)


def near_match_f64_doubletons():
    """600 seeded f64 doubletons with offsets -q1*s and q2*s, s not a power
    of two, on a line and in the plane under each tie policy.  Their float
    offsets drift, so most cycles close only within the quantization step,
    and far starts give preperiods of 3 and more."""
    rng = random.Random("f64 near matches")
    for policy in TiePolicy:
        for planar in (False, True):
            for _ in range(100):
                q1, q2 = rng.randint(1, 30), rng.randint(1, 30)
                s = rng.uniform(0.01, 10)
                x0 = rng.uniform(-300, 300) * s
                if not planar:
                    yield DoubletonProblem(Hyperplane((1.0,)), (-q1 * s,), (q2 * s,), (x0,), policy)
                    continue
                lead = [rng.uniform(-3, 3) * s for _ in range(3)]
                A = Hyperplane((0.0, 1.0))
                yield DoubletonProblem(
                    A, (lead[0], -q1 * s), (lead[1], q2 * s), (lead[2], x0), policy
                )


def test_near_match_f64_reports_are_pinned():
    # the approximate reports, float bits and preperiod shift included, as
    # the f64 cycle search gave them when this digest was recorded
    reports = [detect_cycle(p, 20_000).to_dict() for p in near_match_f64_doubletons()]
    assert all(r["status"] == "cycle" and r["approximate"] for r in reports)
    assert sum(r["preperiod"] >= 3 for r in reports) >= 300
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "0aa212d6d628d12a04d7b1ec073301c0f931d568a9f8b77de68bd0e3ab5c5711"


class TestCoefficientLimits:
    def test_period_three_limits(self):
        p = line_doubleton(-1, 2, 0)
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 10_000, slim=True)
        limit1, limit2, dev = coefficient_limits(p, run)
        assert (limit1, limit2) == (Fraction(2, 3), Fraction(1, 3))
        assert dev <= Fraction(2, 10_000)

    def test_deviation_bound_along_prefix(self):
        p = line_doubleton(-1, 2, 0)
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 300)
        for rec in json.loads(run_json(run, p.hyperplane, p.finite_set()))["records"][1:]:
            n = rec["n"]
            assert abs(Fraction(rec["counts"][0], n) - Fraction(2, 3)) <= Fraction(2, n)

    def test_symmetric_limits(self):
        p = line_doubleton(-1, 1, 0)
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 100, slim=True)
        limit1, limit2, _ = coefficient_limits(p, run)
        assert (limit1, limit2) == (Fraction(1, 2), Fraction(1, 2))

    def test_surd_limits(self):
        p = surd_line_doubleton(-1, Surd(0, 1, 2), 0)
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 1000, slim=True)
        limit1, limit2, dev = coefficient_limits(p, run)
        # sqrt2/(1+sqrt2) simplifies to 2-sqrt2, its complement to sqrt2-1
        assert limit1 == Surd(2, -1, 2)
        assert limit2 == Surd(-1, 1, 2)
        assert limit1 + limit2 == 1
        assert dev <= Fraction(10, 1000)

    def test_float_limits(self):
        p = DoubletonProblem(Hyperplane((1.0,)), (-1.0,), (2.0,), (0.0,))
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 3000, slim=True)
        limit1, limit2, dev = coefficient_limits(p, run)
        assert (limit1, limit2) == (2.0 / 3.0, 1.0 / 3.0)
        assert type(dev) is float and dev <= 2 / 3000

    def test_counts_sum_to_n(self):
        p = line_doubleton(-1, 2, 0)
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 500)
        for rec in json.loads(run_json(run, p.hyperplane, p.finite_set()))["records"][1:]:
            assert sum(rec["counts"]) == rec["n"]

    def test_needs_a_step(self):
        p = line_doubleton(-1, 2, 0)
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 0)
        with pytest.raises(PreconditionError):
            coefficient_limits(p, run)
