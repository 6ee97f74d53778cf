"""The integer lattice of doubleton orbit states and its point evaluator."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from drplane import lattice
from drplane.cycling import DoubletonProblem
from drplane.dynamics import Orbit
from drplane.geometry import FiniteSet, Hyperplane, TiePolicy, line_point
from drplane.lattice import FloatLinePoints, LinePoints, OffsetLattice, Revisit
from drplane.scalars import F64, Surd, surd_sign


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
    "rational_two_zero_coordinates": rational_problem(
        [0, 1, 0], [Fraction(1, 2), -2, 3], [-1, Fraction(5, 3), Fraction(2, 7)], [4, 0, -1],
    ),
    "surd_line": surd_problem(
        [1], [-1], [Surd(1, 1, 2)], [Surd(Fraction(1, 3), Fraction(-1, 5), 2)]
    ),
    "surd_zero_coordinate": surd_problem([0, 1], [0, -1], [1, Surd(0, 1, 2)], [Fraction(1, 2), 0]),
    "surd_half_root2": surd_problem(
        [HALF_ROOT2, HALF_ROOT2], [-1, 0], [1, Surd(1, 1, 2)], [Fraction(1, 3), Surd(0, 1, 2)]
    ),
    "surd_mixed_parts": surd_problem(MIXED, [1, -1], [Surd(-2, 1, 2), 1], [0, Fraction(1, 3)]),
    "f64_line": DoubletonProblem(Hyperplane((1.0,)), (-1.3,), (2.7,), (0.4,)),
    # a zero normal coordinate against -0.0 in both points: a*0.0 + -0.0 is
    # -0.0 for a < 0 only, so keeping b_k[i] there would be wrong in its sign
    "f64_zero_coordinate": DoubletonProblem(
        Hyperplane((0.6, 0.0, 0.8)), (-1.0, -0.0, -0.3), (0.5, -0.0, 1.9), (0.1, 2.0, -0.2)
    ),
}


def signed(x):
    """The coordinates of x, floats by their bits, so that -0.0 is not 0.0."""
    return [c.hex() if isinstance(c, float) else c for c in x]


def line_points_of(p, lat):
    kind = FloatLinePoints if p.backend == F64 else LinePoints
    return kind(lat, p.hyperplane.normal, (p.b1, p.b2))


def lattice_of(p):
    return OffsetLattice(p.beta1, p.beta2, p.beta, p.hyperplane.inner(p.x0), p.tie_policy)


class TestLinePoints:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_point_matches_line_point(self, name):
        p = PROBLEMS[name]
        u, points = p.hyperplane.normal, (p.b1, p.b2)
        lat = lattice_of(p)
        line = line_points_of(p, lat)
        assert type(line) is type(p.orbit.line_points)
        rng = random.Random(name)
        pairs = [(0, 0), (1, 0), (0, 1), (-1, 1), lat.start, *lat.steps, lat.t1]
        if p.backend == F64:
            # float pairs are (offset, 0)
            pairs += [(-0.0, 0), (-5e-324, 0), (5e-324, 0)]
            pairs += [(rng.uniform(-10**3, 10**3), 0) for _ in range(200)]
        else:
            pairs += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(200)]
        # and the states of the orbit itself
        walk = lat.walk(1, *lat.start)
        pairs += [next(walk)[1:] for _ in range(100)]
        for a, b in pairs:
            if not lat.d:
                b = 0  # rational offsets are the b = 0 slice
            offset = a if p.backend == F64 else lat.decode(a, b)
            for k in (1, 2):
                want = line_point(offset, u, points[k - 1])
                got = line.point(k, a, b)
                assert got == want, (name, k, a, b)
                assert [type(c) for c in got] == [type(c) for c in want]
                assert signed(got) == signed(want), (name, k, a, b)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_iterates_are_points_at_the_offset_before(self, name):
        p = PROBLEMS[name]
        lat = lattice_of(p)
        line = line_points_of(p, lat)
        rng = random.Random(name)
        keys = list(islice(lat.walk(1, *lat.start), 100))
        if p.backend == F64:
            big = lambda: rng.uniform(-10**3, 10**3)  # noqa: E731
            # states at offset beta_k, whose offset before is 0.0
            keys += [(k, lat.steps[k - 1][0], 0) for k in (1, 2)]
        else:
            big = lambda: rng.randint(-10**6, 10**6)  # noqa: E731
        keys += [(rng.choice((1, 2)), big(), big() if lat.d else 0) for _ in range(100)]
        want = [line.point(k, a - lat.steps[k - 1][0], b - lat.steps[k - 1][1]) for k, a, b in keys]
        for start, stop in ((0, len(keys)), (1, 2), (7, 150), (200, 200)):
            got = line.iterates(keys[start:stop])
            assert type(got) is tuple and list(got) == want[start:stop]
            # a stream of keys, read once by every coordinate
            assert line.iterates(iter(keys[start:stop])) == got
            for x, y in zip(got, want[start:stop]):
                assert [type(c) for c in x] == [type(c) for c in y]
                assert signed(x) == signed(y)

    def test_zero_normal_coordinates_keep_the_point(self):
        for name in ("rational_zero_coordinate", "surd_zero_coordinate"):
            p = PROBLEMS[name]
            i = p.hyperplane.normal.index(0)
            line = LinePoints(lattice_of(p), p.hyperplane.normal, (p.b1, p.b2))
            for k, b in ((1, p.b1), (2, p.b2)):
                assert line.point(k, 12345, -678)[i] == b[i]

    def test_cases_cover_mixed_surd_coordinates(self):
        # both parts nonzero in every coordinate, so both cross terms count
        u = PROBLEMS["surd_mixed_parts"].hyperplane.normal
        assert all(c.p != 0 and c.q != 0 for c in u)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_walk_sign_is_surd_sign(d):
    # thresholds t1 = (1, 0) and t2 = (-1, 0) over scale 1: from state
    # (k, t_k + (da, db)) the walk's next selector is 1 exactly when
    # da + db*sqrt(d) > 0, or == 0 with the tie at b1
    grid = sorted({0, 1, -1, 2, -2, 3, -3, 7, -7, 10, -10, 99, -99, 1393, -1393, 985, -985})
    pairs = [(da, db) for da in grid for db in grid]
    # mixed signs whose squares differ by one or less: powers p + q*sqrt(d)
    # of the fundamental unit, p^2 - d*q^2 = 1, and p - 1 beside p
    u, v = {2: (3, 2), 3: (2, 1), 5: (9, 4), 7: (8, 3)}[d]
    p, q = 1, 0
    for _ in range(12):
        p, q = p * u + d * q * v, p * v + q * u
        pairs += [(p, -q), (-p, q), (p - 1, -q), (1 - p, q)]
    signs = {((da > 0) - (da < 0), (db > 0) - (db < 0)) for da, db in pairs}
    assert len(signs) == 9  # both axes, both mixed-sign quadrants
    for policy in TiePolicy:
        lat = OffsetLattice(Surd(-1, 0, d), Surd(1, 0, d), Surd(0, 0, d), Surd(0, 0, d), policy)
        assert (lat.d, lat.scale, lat.t1, lat.t2) == (d, 1, (1, 0), (-1, 0))
        tie = 2 if policy is TiePolicy.HIGHER_INNER else 1
        for k, (ta, tb) in ((1, lat.t1), (2, lat.t2)):
            for da, db in pairs:
                sign = surd_sign(da, db, d)
                want = 1 if sign > 0 else 2 if sign < 0 else tie
                assert next(lat.walk(k, ta + da, tb + db))[0] == want, (k, da, db)


def test_float_walk_sign():
    # float pairs (v, 0) read the sign of the float difference, -0.0 a tie;
    # beta = beta1 puts both thresholds at 0.0
    for policy in TiePolicy:
        lat = OffsetLattice(-1.0, 1.0, -1.0, 0.0, policy)
        assert lat.t1 == lat.t2 == (0.0, 0)
        tie = 2 if policy is TiePolicy.HIGHER_INNER else 1
        for k in (1, 2):
            for a, want in ((0.5, 1), (-0.5, 2), (5e-324, 1), (-5e-324, 2), (0.0, tie), (-0.0, tie)):
                assert next(lat.walk(k, a, 0))[0] == want


def random_rational_orbit(rng, m, reach=90):
    """The orbit of a seeded straddling set of m rational points, off a line
    or plane hyperplane, with small denominators so that it cycles soon; the
    start's coordinates lie within reach of 0."""
    normal = rng.choice(((1,), (0, 1)))
    A = Hyperplane(tuple(map(Fraction, normal)))
    while True:
        pts = {tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 3)) for _ in normal)
               for _ in range(m)}
        inners = sorted(A.inner(p) for p in pts)
        if len(pts) == m and inners[0] < 0 < inners[-1] and 0 not in inners:
            break
    B = FiniteSet.ordered(sorted(pts), A, rng.choice(list(TiePolicy)))
    x0 = tuple(Fraction(rng.randint(-reach, reach), rng.randint(1, 5)) for _ in normal)
    return Orbit(A, B, x0)


def states_to_first_repeat(orbit):
    """(walk, states, lam, R): the walk from state 1, the first repeat index
    R, the index lam < R of the state that R repeats, and the states
    [None, state 1, ...] by index, far enough past R for every search below."""
    _, k1, inner1 = orbit.first_step
    walk = orbit.lattice.walk
    states, index = [None, (k1, *orbit.lattice.pair(inner1))], {}
    while states[-1] not in index:
        index[states[-1]] = len(states) - 1
        states.append(next(walk(*states[-1])))
    R = len(states) - 1
    states += islice(walk(*states[-1]), 5 * R + 64)
    return walk, states, index[states[R]], R


def drawn(walk, keys):
    """walk, appending to keys each state that any of its walks yields."""
    def recording(*state):
        for key in walk(*state):
            keys.append(key)
            yield key
    return recording


def test_revisit_against_a_table_of_every_state(monkeypatch):
    # a small budget, so that the table thins and the sampled cycle() runs
    monkeypatch.setattr(lattice, "TABLE_BUDGET", 16)
    rng = random.Random("revisit finder")
    dense = sampled = missed = 0
    for m in [2] * 150 + [3] * 150:
        walk, states, lam, R = states_to_first_repeat(random_rational_orbit(rng, m))
        for horizon in {1, max(1, R // 2), R - 1, R, R + 1, 3 * R}:
            keys = []
            found = Revisit(states[1], drawn(walk, keys), horizon)
            hit = found.search()
            # the search drew states 2, 3, ... from one walk, the hit included
            last = len(keys) + 1
            assert keys == states[2 : last + 1]
            if not hit:
                assert found.back is None
                assert R > horizon
                assert horizon <= last < horizon + found.spacing
                missed += 1
                continue
            n, back = found.n, found.back
            assert n == last and back < n and states[back] == states[n]
            if found.spacing == 1:
                assert (back, n) == (lam, R)
                dense += 1
            else:
                assert R <= n < R + found.spacing
                sampled += 1
            assert n < horizon + found.spacing
            # the minimal preperiod and period, from any hit
            assert found.cycle(tuple) == (lam, states[lam - 1], tuple(states[lam:R]))
    assert min(dense, sampled, missed) > 50


def test_revisit_stops_where_a_recording_walk_ends(monkeypatch):
    # a walk that ends at the horizon, as the trace's does, ends the search
    # there in either phase, with no hit
    monkeypatch.setattr(lattice, "TABLE_BUDGET", 16)
    rng = random.Random("revisit walk ends")
    sampled = set()
    for m in [2] * 20 + [3] * 20:
        walk, states, lam, R = states_to_first_repeat(random_rational_orbit(rng, m))
        for horizon in {2, 16, 17, R - 1}:
            if not 2 <= horizon < R:
                continue
            keys = []
            ends = lambda *state: islice(drawn(walk, keys)(*state), horizon - 1)  # noqa: E731
            found = Revisit(states[1], ends, horizon)
            assert not found.search() and found.back is None
            assert keys == states[2 : horizon + 1]
            sampled.add(found.spacing > 1)
    assert sampled == {False, True}


def test_sampled_cycle_in_every_branch(monkeypatch):
    # far starts put lam several spacings past the first thinning, near
    # ones within the first spacing, where the table no longer holds state
    # 1; a cycle shorter than the spacing wraps more than once between the
    # twin of state back - spacing and the hit, a longer one less
    monkeypatch.setattr(lattice, "TABLE_BUDGET", 16)
    rng = random.Random("sampled cycle branches")
    names = ("far", "from state 1", "short", "long")
    cases = {(m, name): 0 for m in (2, 3) for name in names}
    for m in [2] * 150 + [3] * 150:
        reach = rng.choice((30, 3000))
        walk, states, lam, R = states_to_first_repeat(random_rational_orbit(rng, m, reach))
        keys = []
        found = Revisit(states[1], drawn(walk, keys), 3 * R)
        assert found.search()
        # the search looked at every state up to the hit, and no further
        assert keys == states[2 : found.n + 1]
        if found.spacing == 1:
            continue
        mu, spacing = R - lam, found.spacing
        # the hit is the least table state on the cycle, one period on
        assert found.back == -(-lam // spacing) * spacing and found.n - found.back == mu
        keys.clear()
        assert found.cycle(tuple) == (lam, states[lam - 1], tuple(states[lam:R]))
        # once round the cycle, and at most spacing steps for each of the
        # two walks that meet at lam
        assert len(keys) <= mu + 2 * spacing + 1
        cases[m, "far"] += lam > 16 + 3 * spacing
        cases[m, "from state 1"] += found.back == spacing
        cases[m, "short" if mu < spacing else "long"] += 1
    assert min(cases.values()) >= 10
