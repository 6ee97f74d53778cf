"""Scalar backends: exact floors, comparisons, field arithmetic, codecs.

The surd floor is checked against an independent oracle that brackets
sqrt(d) between rationals of increasing precision, so the implementation's
integer-square-root path never validates itself.  Likewise every Surd
operation is checked against a + b*sqrt(d) held as a pair of Fractions with
the textbook formulas, written here and sharing no code with the integer
kernel.
"""

import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drplane.cycling import DoubletonProblem, detect_cycle
from drplane.dynamics import iterate
from drplane.errors import BackendError, ProblemFormatError
from drplane.geometry import Hyperplane
from drplane.scalars import (
    F64,
    RATIONAL,
    SURD,
    Surd,
    as_fraction,
    backend_of,
    decode_scalar,
    encode_scalar,
    format_scalar,
    fraction_from_ints,
    is_rational,
    is_square_free,
    parse_rational,
    rational_heuristic,
    surd_from_ints,
)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=40)
radicand_st = st.sampled_from([2, 3, 5, 6, 10])


@st.composite
def surds(draw, allow_zero_b=True):
    a = draw(fractions_st)
    b = draw(fractions_st)
    d = draw(radicand_st)
    if not allow_zero_b and b == 0:
        b = Fraction(1, 3)
    return Surd(a, b, d)


def sqrt_bounds(d, bits):
    # lo <= sqrt(d) < lo + 2**-bits
    scale = 1 << bits
    lo = Fraction(math.isqrt(d * scale * scale), scale)
    return lo, lo + Fraction(1, scale)


def floor_oracle(a, b, d):
    """Floor of a + b*sqrt(d) via rational bracketing, independent of Surd."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return math.floor(a)
    bits = 64
    while True:
        lo, hi = sqrt_bounds(d, bits)
        if b > 0:
            s_lo, s_hi = a + b * lo, a + b * hi
        else:
            s_lo, s_hi = a + b * hi, a + b * lo
        f_lo, f_hi = math.floor(s_lo), math.floor(s_hi)
        if f_lo == f_hi:
            return f_lo
        bits *= 2


class TestFloor:
    def test_rational_half_integers(self):
        assert math.floor(Fraction(7, 2)) == 3
        assert math.floor(Fraction(-7, 2)) == -4
        assert math.floor(Fraction(6, 3)) == 2

    def test_surd_examples(self):
        assert math.floor(Surd(0, 2, 2)) == 2       # 2*sqrt(2) = 2.828...
        assert math.floor(Surd(0, -1, 2)) == -2     # -sqrt(2) = -1.414...
        assert math.floor(Surd(3, 0, 2)) == 3
        assert math.floor(Surd(Fraction(1, 2), 1, 2)) == 1
        assert math.floor(Surd(-3, 2, 2)) == -1     # -3 + 2.828...

    def test_float_floor(self):
        assert math.floor(2.75) == 2
        assert math.floor(-0.5) == -1

    @given(fractions_st)
    def test_rational_bracketing(self, q):
        f = math.floor(q)
        assert f <= q < f + 1

    @given(surds())
    def test_surd_bracketing(self, s):
        f = math.floor(s)
        assert isinstance(f, int)
        assert f <= s
        assert s < f + 1

    @given(surds())
    def test_surd_floor_matches_oracle(self, s):
        assert math.floor(s) == floor_oracle(s.a, s.b, s.d)

    @settings(max_examples=30)
    @given(st.integers(min_value=-10**12, max_value=10**12), radicand_st)
    def test_surd_floor_large_b(self, b, d):
        s = Surd(0, b, d)
        assert math.floor(s) == floor_oracle(0, b, d)


def sign_oracle(a, b, d):
    """Sign of a + b*sqrt(d) via rational bracketing, independent of Surd."""
    if b == 0:
        return (a > 0) - (a < 0)
    bits = 16
    while True:
        lo, hi = sqrt_bounds(d, bits)
        ends = sorted((a + b * lo, a + b * hi))
        if ends[0] > 0:
            return 1
        if ends[1] < 0:
            return -1
        bits *= 2


def pair_add(x, y, d):
    return x[0] + y[0], x[1] + y[1]


def pair_sub(x, y, d):
    return x[0] - y[0], x[1] - y[1]


def pair_mul(x, y, d):
    return x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0]


def pair_div(x, y, d):
    # multiply by the conjugate y[0] - y[1]*sqrt(d) over the norm
    norm = y[0] * y[0] - y[1] * y[1] * d
    return (x[0] * y[0] - x[1] * y[1] * d) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


PAIR_OPS = [
    (operator.add, pair_add),
    (operator.sub, pair_sub),
    (operator.mul, pair_mul),
    (operator.truediv, pair_div),
]


def assert_is_pair(s, pair, d):
    """s is a Surd in normal form with the value pair[0] + pair[1]*sqrt(d)."""
    assert isinstance(s, Surd)
    assert all(type(c) is int for c in (s.p, s.q, s.n))
    assert s.n > 0 and math.gcd(s.p, s.q, s.n) == 1
    assert (Fraction(s.p, s.n), Fraction(s.q, s.n)) == pair
    assert (s.a, s.b, s.d) == (*pair, d)
    if pair[1] == 0:
        assert hash(s) == hash(pair[0])


class TestAgainstFractionPairs:
    """The integer kernel against the textbook field formulas on pairs."""

    @settings(max_examples=300)
    @given(fractions_st, fractions_st, fractions_st, fractions_st, radicand_st,
           st.sampled_from(["surd", "fraction", "int"]))
    def test_every_operation(self, a1, b1, a2, b2, d, kind):
        x_pair = (a1, b1)
        x = Surd(a1, b1, d)
        assert_is_pair(x, x_pair, d)
        if kind == "surd":
            y_pair, y = (a2, b2), Surd(a2, b2, d)
        elif kind == "fraction":
            y_pair, y = (a2, Fraction(0)), a2
        else:
            y_pair, y = (Fraction(math.floor(a2)), Fraction(0)), math.floor(a2)
        for op, pair_op in PAIR_OPS:
            for lhs, rhs, lp, rp in ((x, y, x_pair, y_pair), (y, x, y_pair, x_pair)):
                if rp == (0, 0) and op is operator.truediv:
                    with pytest.raises(ZeroDivisionError):
                        op(lhs, rhs)
                    continue
                want = pair_op(lp, rp, d)
                got = op(lhs, rhs)
                assert_is_pair(got, want, d)
                assert bool(got) == any(want)
        assert bool(x) == any(x_pair)
        assert bool(-x) == bool(abs(x)) == any(x_pair)
        assert_is_pair(-x, (-a1, -b1), d)
        assert_is_pair(abs(x), (-a1, -b1) if sign_oracle(a1, b1, d) < 0 else x_pair, d)

        diff = sign_oracle(a1 - y_pair[0], b1 - y_pair[1], d)
        assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
        assert (y < x, y > x) == (diff > 0, diff < 0)
        assert (x == y, x != y, y == x) == (diff == 0, diff != 0, diff == 0)
        assert x.sign() == sign_oracle(a1, b1, d)
        assert math.floor(x) == floor_oracle(a1, b1, d)
        if diff == 0:
            assert hash(x) == hash(y)

    @given(fractions_st, fractions_st, radicand_st)
    def test_copies_and_pickles(self, a, b, d):
        s = Surd(a, b, d)
        for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert_is_pair(clone, (a, b), d)
            assert clone == s and hash(clone) == hash(s)

    def test_immutable(self):
        s = Surd(1, 1, 2)
        for name in ("p", "q", "n", "d", "a"):
            with pytest.raises(AttributeError):
                setattr(s, name, 3)
        assert s == Surd(1, 1, 2)

    def test_integers_cannot_be_deleted_and_no_instance_has_a_dict(self):
        # p, q, n and d read private slots, which every constructor fills
        s = Surd(1, Fraction(1, 2), 2)
        for name in ("p", "q", "n", "d"):
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert (s.p, s.q, s.n, s.d) == (2, 1, 2, 2)
        planar = DoubletonProblem(
            Hyperplane((Surd(0, 0, 2), Surd(1, 0, 2))),
            (Surd(1, 0, 2), Surd(0, -1, 2)), (Surd(2, 0, 2), Surd(0, 2, 2)),
            (Surd(0, 0, 2), Surd(1, 0, 2)),
        )
        built = [
            s, surd_from_ints(2, 4, -6, 2), s + 1, 1 - s, s * s, s / 3, 3 / s, -s,
            copy.copy(s), pickle.loads(pickle.dumps(s)),
            *iterate(planar.hyperplane, planar.finite_set(), planar.x0, 20).trace[-1].x,
            *detect_cycle(planar, 100).states[-1],
        ]
        for x in built:
            assert type(x) is Surd and not hasattr(x, "__dict__")
            with pytest.raises(AttributeError):
                x.extra = 1


class TestComparisons:
    @given(surds(), surds())
    def test_agrees_with_float_when_separated(self, x, y):
        if x.d != y.d:
            return
        if abs(float(x) - float(y)) > 1e-9:
            assert (x < y) == (float(x) < float(y))
            assert (x > y) == (float(x) > float(y))

    @given(surds())
    def test_sign_cases(self, s):
        sgn = s.sign()
        approx = float(s)
        if abs(approx) > 1e-9:
            assert sgn == (1 if approx > 0 else -1)
        assert (s > 0) == (sgn > 0)
        assert (s < 0) == (sgn < 0)

    def test_exact_near_ties(self):
        # 99/70 is a convergent of sqrt(2); differences are tiny but the sign
        # must still be exact.
        assert Surd(Fraction(99, 70), -1, 2) > 0
        assert Surd(Fraction(-99, 70), 1, 2) < 0
        assert Surd(Fraction(1393, 985), -1, 2) < 0

    def test_comparison_with_rationals(self):
        s = Surd(0, 1, 2)
        assert s > 1
        assert s < Fraction(3, 2)
        assert Surd(Fraction(3, 2), 0, 2) == Fraction(3, 2)

    def test_float_comparison_rejected(self):
        with pytest.raises(BackendError):
            Surd(0, 1, 2) < 1.5  # noqa: B015

    def test_equality_with_float_is_not_an_error(self):
        assert (Surd(1, 0, 2) == 1.0) is False


class TestFieldArithmetic:
    @given(surds(), surds(), surds())
    def test_ring_axioms(self, x, y, z):
        if not (x.d == y.d == z.d):
            return
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(surds())
    def test_division_inverts(self, x):
        if x.sign() == 0:
            return
        assert (x / x) == 1
        assert (1 / x) * x == 1

    @given(fractions_st, fractions_st, fractions_st)
    def test_fraction_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    def test_int_and_fraction_lift(self):
        s = Surd(1, 1, 2)
        assert 2 * s == Surd(2, 2, 2)
        assert s + Fraction(1, 2) == Surd(Fraction(3, 2), 1, 2)
        assert 1 - s == Surd(0, -1, 2)
        assert (s * s) == Surd(3, 2, 2)

    def test_division_examples(self):
        root2 = Surd(0, 1, 2)
        assert 1 / root2 == Surd(0, Fraction(1, 2), 2)
        assert Surd(1, 1, 2) / Surd(1, 1, 2) == 1
        # 1/(1+sqrt(2)) = sqrt(2) - 1
        assert 1 / Surd(1, 1, 2) == Surd(-1, 1, 2)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            Surd(1, 0, 2) / Surd(0, 0, 2)


class TestBackendRules:
    def test_float_operands_rejected(self):
        s = Surd(0, 1, 2)
        for op in (lambda: s + 0.5, lambda: 0.5 + s, lambda: s * 0.5,
                   lambda: s - 0.5, lambda: s / 0.5):
            with pytest.raises(BackendError):
                op()

    def test_mixed_radicands_rejected(self):
        with pytest.raises(BackendError):
            Surd(0, 1, 2) + Surd(0, 1, 3)

    def test_rational_valued_surds_align_across_radicands(self):
        assert Surd(2, 0, 2) + Surd(3, 0, 3) == 5
        assert Surd(2, 0, 2) == Surd(2, 0, 3)

    def test_radicand_validation(self):
        for bad in (1, 0, -2, 4, 8, 9, 12, 18):
            with pytest.raises(BackendError):
                Surd(1, 1, bad)
        for good in (2, 3, 5, 6, 7, 10, 11, 13, 15):
            Surd(1, 1, good)

    def test_square_free(self):
        assert [d for d in range(1, 20) if is_square_free(d)] == [
            1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19
        ]

    def test_backend_of(self):
        assert backend_of(1.5) == F64
        assert backend_of(Fraction(1, 2)) == RATIONAL
        assert backend_of(3) == RATIONAL
        assert backend_of(Surd(0, 1, 2)) == SURD


class TestRationality:
    def test_exact_backends(self):
        assert is_rational(Fraction(22, 7)) is True
        assert is_rational(5) is True
        assert is_rational(Surd(3, 0, 2)) is True
        assert is_rational(Surd(0, 1, 2)) is False
        assert is_rational(Surd(Fraction(1, 2), Fraction(-2, 3), 5)) is False

    def test_float_refuses(self):
        with pytest.raises(BackendError):
            is_rational(1.4142135623730951)

    def test_heuristic(self):
        assert rational_heuristic(1 / 3) == Fraction(1, 3)
        assert rational_heuristic(0.5) == Fraction(1, 2)
        approx = rational_heuristic(math.sqrt(2))
        assert approx.denominator <= 10**6
        with pytest.raises(ValueError):
            rational_heuristic(float("inf"))

    def test_as_fraction(self):
        assert as_fraction(Surd(Fraction(3, 2), 0, 2)) == Fraction(3, 2)
        with pytest.raises(BackendError):
            as_fraction(Surd(0, 1, 2))
        with pytest.raises(BackendError):
            as_fraction(0.5)


class TestHashing:
    def test_rational_valued_surd_hashes_like_fraction(self):
        assert hash(Surd(Fraction(3, 2), 0, 2)) == hash(Fraction(3, 2))
        assert hash(Surd(4, 0, 5)) == hash(4)

    def test_usable_as_dict_key(self):
        seen = {Surd(1, 1, 2): "x"}
        assert seen[Surd(1, 1, 2)] == "x"
        assert Surd(1, 2, 2) not in seen


class TestFractionFromInts:
    def test_matches_fraction_constructor(self):
        rng = random.Random(20261018)
        cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4), (10**40, 6 * 10**25)]
        cases += [(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(500)]
        cases += [(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(100)]
        for p, n in cases:
            got, want = fraction_from_ints(p, n), Fraction(p, n)
            assert type(got) is Fraction
            assert got == want
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert hash(got) == hash(want)
            assert repr(got) == repr(want)
            clone = pickle.loads(pickle.dumps(got))
            assert type(clone) is Fraction and clone == want


class TestCodecs:
    def test_format(self):
        assert format_scalar(Fraction(3, 2)) == "3/2"
        assert format_scalar(Fraction(4, 2)) == "2"
        assert format_scalar(Surd(-4, 3, 2)) == "-4+3*sqrt(2)"
        assert format_scalar(Surd(0, -1, 2)) == "-sqrt(2)"
        assert format_scalar(Surd(Fraction(1, 2), Fraction(-2, 3), 5)) == "1/2-2/3*sqrt(5)"
        assert format_scalar(Surd(2, 0, 2)) == "2"
        assert format_scalar(0.25) == "0.25"

    @given(st.one_of(
        st.integers(), st.fractions(), st.floats(),
        st.builds(Surd, st.fractions(), st.fractions(), radicand_st),
    ))
    def test_format_needs_no_csv_quoting(self, s):
        # the CSV exporters join cells unquoted, which is csv.writer's text
        # only while no cell holds a delimiter, a quote or a line end
        assert not set(format_scalar(s)) & set(',"\r\n')

    def test_parse_rational(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(4) == Fraction(4)
        with pytest.raises(ProblemFormatError):
            parse_rational("3/0")
        with pytest.raises(ProblemFormatError):
            parse_rational("abc")

    @given(fractions_st)
    def test_rational_round_trip(self, q):
        assert decode_scalar(encode_scalar(q), RATIONAL) == q

    @given(surds())
    def test_surd_round_trip(self, s):
        assert decode_scalar(encode_scalar(s), SURD, s.d) == s

    def test_decode_float_backend(self):
        assert decode_scalar(2.5, F64) == 2.5
        assert decode_scalar(3, F64) == 3.0
        with pytest.raises(ProblemFormatError):
            decode_scalar("3/2", F64)

    def test_decode_exact_rejects_lossy_floats(self):
        with pytest.raises(ProblemFormatError):
            decode_scalar(0.1, RATIONAL)
        assert decode_scalar(2.0, RATIONAL) == Fraction(2)

    def test_decode_surd_forms(self):
        assert decode_scalar({"a": "1/2", "b": "-2"}, SURD, 2) == Surd(Fraction(1, 2), -2, 2)
        assert decode_scalar({"b": "1"}, SURD, 2) == Surd(0, 1, 2)
        assert decode_scalar(-1, SURD, 2) == Surd(-1, 0, 2)
        with pytest.raises(ProblemFormatError):
            decode_scalar({"a": "1", "c": "2"}, SURD, 2)
        with pytest.raises(ProblemFormatError):
            decode_scalar({"a": "1"}, SURD, None)
        with pytest.raises(ProblemFormatError):
            decode_scalar({"a": "1"}, SURD, 4)
