"""The integer lattice of doubleton orbit states and its point evaluator."""

import random
from fractions import Fraction

import pytest

from drplane.cycling import DoubletonProblem
from drplane.geometry import Hyperplane, line_point
from drplane.lattice import OffsetLattice
from drplane.scalars import Surd


def rational_problem(normal, b1, b2, x0):
    F = lambda v: tuple(Fraction(c) for c in v)  # noqa: E731
    return DoubletonProblem(Hyperplane(F(normal)), F(b1), F(b2), F(x0))


def surd_problem(normal, b1, b2, x0):
    lift = lambda v: tuple(c if isinstance(c, Surd) else Surd(c, 0, 2) for c in v)  # noqa: E731
    return DoubletonProblem(Hyperplane(lift(normal)), lift(b1), lift(b2), lift(x0))


HALF_ROOT2 = Surd(0, Fraction(1, 2), 2)
# (1 - t^2, 2t)/(1 + t^2) at t = 1 + sqrt(2)/2: a unit normal whose two
# coordinates both have nonzero rational and sqrt(2) parts
MIXED = (Surd(Fraction(3, 17), Fraction(-8, 17), 2), Surd(Fraction(12, 17), Fraction(2, 17), 2))

PROBLEMS = {
    "rational_line": rational_problem([1], [Fraction(-5, 3)], [Fraction(7, 4)], [Fraction(2, 9)]),
    "rational_3_4_5": rational_problem(
        [Fraction(3, 5), Fraction(4, 5)], [Fraction(-2, 3), -1], [2, Fraction(1, 7)],
        [Fraction(1, 2), 3],
    ),
    "rational_zero_coordinate": rational_problem(
        [Fraction(3, 5), 0, Fraction(4, 5)], [-1, 2, 0], [1, Fraction(5, 3), 1],
        [0, 1, Fraction(1, 4)],
    ),
    "surd_line": surd_problem(
        [1], [-1], [Surd(1, 1, 2)], [Surd(Fraction(1, 3), Fraction(-1, 5), 2)]
    ),
    "surd_zero_coordinate": surd_problem([0, 1], [0, -1], [1, Surd(0, 1, 2)], [Fraction(1, 2), 0]),
    "surd_half_root2": surd_problem(
        [HALF_ROOT2, HALF_ROOT2], [-1, 0], [1, Surd(1, 1, 2)], [Fraction(1, 3), Surd(0, 1, 2)]
    ),
    "surd_mixed_parts": surd_problem(MIXED, [1, -1], [Surd(-2, 1, 2), 1], [0, Fraction(1, 3)]),
}


def lattice_of(p):
    return OffsetLattice(p.beta1, p.beta2, p.beta, p.hyperplane.inner(p.x0), p.tie_policy)


class TestLinePoints:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_point_matches_line_point(self, name):
        p = PROBLEMS[name]
        u, points = p.hyperplane.normal, (p.b1, p.b2)
        lat = lattice_of(p)
        line = lat.line_points(u, points)
        rng = random.Random(name)
        pairs = [(0, 0), (1, 0), (0, 1), (-1, 1), lat.start, lat.beta1, lat.beta2, lat.t1]
        pairs += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(200)]
        # and the states of the orbit itself
        walk = lat.walk(1, *lat.start)
        pairs += [next(walk)[1:] for _ in range(100)]
        for a, b in pairs:
            if not lat.d:
                b = 0  # rational offsets are the b = 0 slice
            for k in (1, 2):
                want = line_point(lat.decode(a, b), u, points[k - 1])
                got = line.point(k, a, b)
                assert got == want, (name, k, a, b)
                assert [type(c) for c in got] == [type(c) for c in want]

    def test_zero_normal_coordinates_keep_the_point(self):
        for name in ("rational_zero_coordinate", "surd_zero_coordinate"):
            p = PROBLEMS[name]
            i = p.hyperplane.normal.index(0)
            line = lattice_of(p).line_points(p.hyperplane.normal, (p.b1, p.b2))
            for k, b in ((1, p.b1), (2, p.b2)):
                assert line.point(k, 12345, -678)[i] == b[i]

    def test_cases_cover_mixed_surd_coordinates(self):
        # both parts nonzero in every coordinate, so both cross terms count
        u = PROBLEMS["surd_mixed_parts"].hyperplane.normal
        assert all(c.p != 0 and c.q != 0 for c in u)
