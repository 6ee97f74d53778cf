"""Alternating-projections lane: traces, membership invariants, exports."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from drplane.altproj import ap_iterate, ap_json, ap_lines
from drplane.dynamics import csv_text, trace_csv_header
from drplane.errors import DimensionMismatch
from drplane.geometry import (
    FiniteSet,
    Hyperplane,
    TiePolicy,
    project_finite_set,
    project_hyperplane,
)
from drplane.scalars import Surd


def frac_line(points, x0=0):
    A = Hyperplane((Fraction(1),))
    B = FiniteSet.ordered([(Fraction(p),) for p in points], A)
    return A, B, (Fraction(x0),)


def surd_line(points, x0=0):
    lift = lambda v: v if isinstance(v, Surd) else Surd(v, 0, 2)
    A = Hyperplane((Surd(1, 0, 2),))
    B = FiniteSet.ordered([(lift(p),) for p in points], A)
    return A, B, (lift(x0),)


class TestTraceValues:
    def test_rational_instance(self):
        A, B, x0 = frac_line([-1, 2])
        trace = ap_iterate(A, B, x0, 5)
        assert [p[0] for p in trace.points] == [0, 0, -1, 0, -1, 0]
        assert trace.selectors == [None, None, 1, None, 1, None]

    def test_surd_instance_same_trace(self):
        # irrational second point changes nothing for this scheme
        A, B, x0 = surd_line([-1, Surd(0, 1, 2)])
        trace = ap_iterate(A, B, x0, 5)
        assert [p[0] for p in trace.points] == [Surd(0, 0, 2)] * 2 + [
            Surd(-1, 0, 2),
            Surd(0, 0, 2),
            Surd(-1, 0, 2),
            Surd(0, 0, 2),
        ]

    def test_plane_instance(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        B = FiniteSet.ordered(
            [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))], A
        )
        trace = ap_iterate(A, B, (Fraction(5), Fraction(5)), 4)
        assert trace.points == [
            (5, 5),
            (5, 0),
            (0, 1),
            (0, 0),
            (0, 1),
        ]

    def test_becomes_two_periodic_fast(self):
        for r in (Fraction(2), Fraction(7, 3)):
            A, B, x0 = frac_line([-1, r])
            pts = ap_iterate(A, B, x0, 12).points
            for i in range(3, len(pts) - 2):
                assert pts[i + 2] == pts[i]
        A, B, x0 = surd_line([-1, Surd(0, 1, 2)])
        pts = ap_iterate(A, B, x0, 12).points
        for i in range(3, len(pts) - 2):
            assert pts[i + 2] == pts[i]

    def test_length_and_validation(self):
        A, B, x0 = frac_line([-1, 2])
        assert len(ap_iterate(A, B, x0, 9)) == 10
        with pytest.raises(ValueError):
            ap_iterate(A, B, x0, 0)
        with pytest.raises(DimensionMismatch):
            ap_iterate(A, B, (Fraction(0), Fraction(0)), 3)


def plain_ap(A, B, x0, steps):
    """The projectors applied alternately by a plain loop, every entry
    projected afresh."""
    x, points, selectors = x0, [x0], [None]
    for i in range(1, steps + 1):
        if i % 2 == 1:
            x, k = project_hyperplane(A, x), None
        else:
            x, k = project_finite_set(B, x)
        points.append(x)
        selectors.append(k)
    return points, selectors


class TestAgainstPlainLoop:
    """ap_iterate projects each set point's pair once; every entry must be
    the plain loop's, float bits and scalar types included."""

    @staticmethod
    def assert_matches(A, B, x0, steps):
        points, selectors = plain_ap(A, B, x0, steps)
        trace = ap_iterate(A, B, x0, steps)
        assert trace.selectors == selectors
        assert repr(trace.points) == repr(points)
        assert [type(c) for p in trace.points for c in p] == [type(c) for p in points for c in p]

    CASES = {
        "rational_line": (frac_line, [-3, Fraction(-1, 2), 2, Fraction(7, 3)], Fraction(5, 4)),
        "surd_line": (surd_line, [-1, Surd(0, 1, 2), Surd(2, -1, 2)], Surd(Fraction(1, 3), 1, 2)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_lines(self, name):
        build, pts, x0 = self.CASES[name]
        for steps in (1, 2, 3, 4, 5, 17, 40):
            self.assert_matches(*build(pts, x0), steps)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_planes_under_each_policy(self, policy):
        # (0, +/-1) and (+/-1, 0) are equidistant from P_A x0 = (0, 0); on the
        # second plane so are (1, 1) and (-1, 1), which share an offset
        F = lambda *v: tuple(Fraction(c) for c in v)  # noqa: E731
        A = Hyperplane(F(Fraction(3, 5), Fraction(4, 5)))
        pts = [F(-1, 0), F(1, 0), F(0, 1), F(0, -1), F(Fraction(1, 3), 2)]
        for x0 in (F(0, 0), F(3, -1), F(-2, 5)):
            self.assert_matches(A, FiniteSet.ordered(pts, A, policy), x0, 31)
        A = Hyperplane(F(0, 1))
        pts = [F(1, 1), F(-1, 1), F(0, 2), F(3, -2)]
        self.assert_matches(A, FiniteSet.ordered(pts, A, policy), F(0, 9), 31)
        Af = Hyperplane((0.6, 0.8))
        fpts = [(-1.0, -0.25), (1.0, 0.5), (0.3, 0.2), (-0.5, 1.0), (0.1, -0.7)]
        for x0 in ((3.0, -2.0), (0.0, 0.0), (-0.3, 1.7)):
            self.assert_matches(Af, FiniteSet.ordered(fpts, Af, policy), x0, 31)


class TestMembership:
    @given(
        pts=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        x0=st.fractions(min_value=-9, max_value=9, max_denominator=12),
        steps=st.integers(min_value=1, max_value=9),
    )
    def test_parity_memberships(self, pts, x0, steps):
        A, B, start = frac_line(pts, x0)
        trace = ap_iterate(A, B, start, steps)
        members = set(B.points)
        for i in range(1, len(trace.points)):
            if i % 2 == 1:
                assert A.inner(trace.points[i]) == 0
                assert trace.selectors[i] is None
            else:
                assert trace.points[i] in members
                assert trace.selectors[i] == B.points.index(trace.points[i]) + 1


class TestExports:
    def test_csv_matches_dynamics_schema(self):
        A, B, x0 = frac_line([-1, 2])
        trace = ap_iterate(A, B, x0, 5)
        text = csv_text(trace_csv_header(B.m, A.dim), ap_lines(trace, A, B))
        lines = text.strip().splitlines()
        assert lines[0] == "n,k,inner,count_1,count_2,x_1"
        assert lines[1] == "0,,0,0,0,0"
        assert lines[2] == "1,,0,0,0,0"
        assert lines[3] == "2,1,-1,1,0,-1"
        assert len(lines) == 7
        assert list(ap_lines(trace, A, B)) == lines[1:]

    def test_json_report(self):
        A, B, x0 = frac_line([-1, 2])
        report = json.loads(ap_json(ap_iterate(A, B, x0, 4), A, B))
        assert report["method"] == "map"
        assert report["outcome"] == "horizon"
        assert report["classification"]["kind"] == "straddling"
        assert report["records"][2] == {
            "n": 2,
            "k": 1,
            "inner": "-1",
            "counts": [1, 0],
            "x": ["-1"],
        }
        json.dumps(report)  # round-trippable without custom encoders
