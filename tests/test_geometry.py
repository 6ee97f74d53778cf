"""Projectors, reflector, finite-set nearest point, and the DR step.

The nearest-point selection is checked against a brute-force oracle written
directly in the tests (scan all points, collect the exact minimizers, apply
the tie policy by hand).
"""

import copy
import inspect
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drplane.errors import BackendError, DimensionMismatch, ProblemFormatError
from drplane.geometry import (
    FiniteSet,
    Hyperplane,
    TiePolicy,
    dot,
    dr_step,
    norm_sq,
    project_finite_set,
    project_hyperplane,
    reflect_hyperplane,
    vadd,
    vscale,
    vsub,
    vector_backend,
)
from drplane.scalars import Surd


def line_problem(points, tie=TiePolicy.HIGHER_INNER):
    """A = {0} in R^1 with u = (1,); B = the given scalars as 1-D points."""
    A = Hyperplane((Fraction(1),))
    B = FiniteSet.ordered([(Fraction(p) if not isinstance(p, Surd) else p,) for p in points], A, tie)
    return A, B


def brute_force_nearest(B, x):
    dists = [norm_sq(vsub(x, b)) for b in B.points]
    dmin = min(dists)
    winners = [i for i, dv in enumerate(dists) if dv == dmin]
    if B.tie_policy == TiePolicy.LOWEST_INDEX:
        return winners[0]
    keyed = [(B.inners[i], i) for i in winners]
    if B.tie_policy == TiePolicy.HIGHER_INNER:
        target = max(k[0] for k in keyed)
    else:
        target = min(k[0] for k in keyed)
    return min(i for v, i in keyed if v == target)


class TestHyperplane:
    def test_float_normal_is_normalized(self):
        A = Hyperplane((3.0, 4.0))
        assert A.normal == (0.6, 0.8)
        assert abs(norm_sq(A.normal) - 1.0) <= 1e-12

    def test_exact_normal_must_be_unit(self):
        Hyperplane((Fraction(0), Fraction(1)))
        Hyperplane((Fraction(3, 5), Fraction(4, 5)))
        Hyperplane((Surd(0, 0, 2), Surd(1, 0, 2)))
        # sqrt(2)/2 * (1, 1) is unit with surd coordinates
        h = Fraction(1, 2)
        Hyperplane((Surd(0, h, 2), Surd(0, h, 2)))
        with pytest.raises(ValueError):
            Hyperplane((Fraction(0), Fraction(2)))
        with pytest.raises(ValueError):
            Hyperplane((Fraction(1), Fraction(1)))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane((0.0, 0.0))
        with pytest.raises(ValueError):
            Hyperplane((Fraction(0),))

    def test_mixed_backend_normal_rejected(self):
        with pytest.raises(BackendError):
            Hyperplane((Fraction(0), 1.0))

    @pytest.mark.parametrize("normal", [(float("inf"), 1.0), (float("nan"),), (1.0, -float("inf"))])
    def test_nonfinite_float_normal_rejected(self, normal):
        with pytest.raises(ValueError, match="must be finite"):
            Hyperplane(normal)

    def test_projection_reflection_distance(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        x = (Fraction(5), Fraction(3))
        assert project_hyperplane(A, x) == (Fraction(5), Fraction(0))
        assert reflect_hyperplane(A, x) == (Fraction(5), Fraction(-3))
        assert abs(A.inner(x)) == 3

    def test_distance_is_abs_inner(self):
        A = Hyperplane((Fraction(3, 5), Fraction(4, 5)))
        x = (Fraction(-1), Fraction(2))
        assert abs(A.inner(x)) == Fraction(1)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=4),
           st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=4))
    def test_float_projector_properties(self, normal, x):
        if len(normal) != len(x):
            return
        if sum(c * c for c in normal) < 1e-6:
            return
        A = Hyperplane(tuple(normal))
        p = project_hyperplane(A, tuple(x))
        p2 = project_hyperplane(A, p)
        assert max(abs(a - b) for a, b in zip(p, p2)) <= 1e-9
        r = reflect_hyperplane(A, reflect_hyperplane(A, tuple(x)))
        assert max(abs(a - b) for a, b in zip(r, x)) <= 1e-9

    @pytest.mark.parametrize("normal, backend", [
        ((Fraction(3, 5), Fraction(4, 5)), "rational"),
        ((Surd(0, 1, 2) / 2, Surd(0, 1, 2) / 2), "surd"),
        ((0.6, 0.8), "f64"),
    ])
    def test_backend_is_derived_once_and_stays_out_of_identity(self, normal, backend):
        A = Hyperplane(normal)
        assert A.backend == vector_backend(A.normal) == backend
        assert list(inspect.signature(Hyperplane).parameters) == ["normal"]
        assert repr(A) == f"Hyperplane(normal={A.normal!r})"
        assert A == Hyperplane(normal) and hash(A) == hash((A.normal,))
        for again in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert again == A and hash(again) == hash(A)
            assert again.backend == backend and repr(again) == repr(A)
        for name in ("normal", "backend"):
            with pytest.raises(AttributeError):
                setattr(A, name, normal)
        assert A.backend == backend

    def test_check_names_the_vector(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        with pytest.raises(DimensionMismatch, match="^v dimension 1 != hyperplane dimension 2$"):
            A.check("v", (Fraction(1),))
        with pytest.raises(BackendError, match="^v does not match the hyperplane backend$"):
            A.check("v", (1.0, 2.0))
        Af = Hyperplane((0.0, 1.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ProblemFormatError, match="^v: .* is not a finite f64 value$"):
                Af.check("v", (1.0, bad))
        A.check("v", (Fraction(1), Fraction(2)))
        Af.check("v", (1.0, 2.0))

    def test_f64_offset_that_overflows_is_refused(self):
        # the first two products of <v,u> sum past the f64 range before the
        # third brings the total back to about 0.98e308
        A = Hyperplane((1.0, 1.0, 1.0))
        shown = r"^point: its offset <point,u> = inf is not finite$"
        with pytest.raises(ProblemFormatError, match=shown):
            A.check("point", (1.7e308, 1.7e308, -1.7e308))
        A.check("point", (1.7e308, -1.7e308, 1.7e308))

    def test_normal_over_two_radicands_rejected(self):
        # 2/9 + 7/9 = 1: a unit normal whose sqrt parts lie over sqrt(2) and
        # sqrt(7), which no inner product with it could combine
        third = Fraction(1, 3)
        refusal = r"^normal has a sqrt\(7\) part; the normal is over sqrt\(2\)$"
        with pytest.raises(BackendError, match=refusal):
            Hyperplane((Surd(0, third, 2), Surd(0, third, 7)))
        # rational coordinates may carry any radicand
        half = Fraction(1, 2)
        A = Hyperplane((Surd(0, half, 2), Surd(0, half, 2), Surd(0, 0, 5)))
        A.check("v", (Surd(1, 0, 3), Surd(0, 1, 2), Surd(0, 0, 2)))


exact_coord = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestExactProjectorProperties:
    @given(st.lists(exact_coord, min_size=1, max_size=3))
    def test_idempotent_and_involutive(self, coords):
        dim = len(coords)
        normal = tuple(Fraction(1) if i == dim - 1 else Fraction(0) for i in range(dim))
        A = Hyperplane(normal)
        x = tuple(coords)
        p = project_hyperplane(A, x)
        assert project_hyperplane(A, p) == p
        assert A.inner(p) == 0
        assert reflect_hyperplane(A, reflect_hyperplane(A, x)) == x


class TestFiniteSet:
    def test_sorted_by_inner(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        B = FiniteSet.ordered(
            [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(-1)), (Fraction(5), Fraction(0))],
            A,
        )
        assert B.inners == (Fraction(-1), Fraction(0), Fraction(2))
        assert B.points[0] == (Fraction(1), Fraction(-1))
        assert B.m == 3 and B.dim == 2

    def test_duplicates_rejected(self):
        A = Hyperplane((Fraction(1),))
        with pytest.raises(ValueError):
            FiniteSet.ordered([(Fraction(1),), (Fraction(1),)], A)
        Af = Hyperplane((1.0,))
        with pytest.raises(ValueError):
            FiniteSet.ordered([(1.0,), (1.0 + 1e-13,)], Af)

    def test_dimension_and_backend_checks(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        with pytest.raises(DimensionMismatch):
            FiniteSet.ordered([(Fraction(1),)], A)
        with pytest.raises(BackendError):
            FiniteSet.ordered([(1.0, 2.0)], A)

    def test_nonfinite_f64_point_rejected(self):
        A = Hyperplane((1.0,))
        with pytest.raises(ProblemFormatError, match="^point: nan is not a finite f64 value$"):
            FiniteSet.ordered([(-1.0,), (math.nan,)], A)

    def test_empty_rejected(self):
        A = Hyperplane((Fraction(1),))
        with pytest.raises(ValueError):
            FiniteSet.ordered([], A)

    @pytest.mark.parametrize("normal, points", [
        ((Fraction(0), Fraction(1)), [(Fraction(1), Fraction(-1)), (Fraction(0), Fraction(2))]),
        ((Surd(1, 0, 2),), [(Surd(0, -1, 2),), (Surd(1, 1, 2),)]),
        ((0.0, 1.0), [(1.0, -1.5), (0.25, 2.0)]),
    ])
    def test_identity_is_its_three_fields(self, normal, points):
        A = Hyperplane(normal)
        B = FiniteSet.ordered(points, A, TiePolicy.LOWER_INNER)
        assert list(inspect.signature(FiniteSet).parameters) == ["points", "inners", "tie_policy"]
        assert repr(B) == (
            f"FiniteSet(points={B.points!r}, inners={B.inners!r}, tie_policy={B.tie_policy!r})"
        )
        assert B == FiniteSet(B.points, B.inners, "lower_inner")
        assert hash(B) == hash((B.points, B.inners, TiePolicy.LOWER_INNER))
        assert B != FiniteSet(B.points, B.inners) and B != (B.points, B.inners, B.tie_policy)
        for again in (copy.copy(B), copy.deepcopy(B), pickle.loads(pickle.dumps(B))):
            assert again == B and hash(again) == hash(B) and repr(again) == repr(B)
            assert again.tie_policy is TiePolicy.LOWER_INNER
        for name in ("points", "inners", "tie_policy"):
            with pytest.raises(AttributeError):
                setattr(B, name, getattr(B, name))
            with pytest.raises(AttributeError):
                delattr(B, name)


class TestNearestPoint:
    def test_two_point_line_examples(self):
        A, B = line_problem([-1, 2])
        assert project_finite_set(B, (Fraction(0),)) == ((Fraction(-1),), 1)
        # exact tie at 1/2: higher-inner policy picks 2
        assert project_finite_set(B, (Fraction(1, 2),)) == ((Fraction(2),), 2)
        assert project_finite_set(B, (Fraction(3, 2),)) == ((Fraction(2),), 2)

    def test_tie_policies(self):
        x = (Fraction(1, 2),)
        for tie, expect in [
            (TiePolicy.HIGHER_INNER, 2),
            (TiePolicy.LOWER_INNER, 1),
            (TiePolicy.LOWEST_INDEX, 1),
        ]:
            A, B = line_problem([-1, 2], tie)
            assert project_finite_set(B, x)[1] == expect

    def test_index_is_one_based_in_sorted_order(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        B = FiniteSet.ordered([(Fraction(0), Fraction(5)), (Fraction(0), Fraction(-5))], A)
        point, k = project_finite_set(B, (Fraction(0), Fraction(-1)))
        assert k == 1 and point == (Fraction(0), Fraction(-5))

    def test_matches_brute_force_random(self):
        rng = random.Random(401)
        for _ in range(300):
            dim = rng.choice([1, 2, 3])
            normal = [Fraction(0)] * dim
            axis = rng.randrange(dim)
            normal[axis] = Fraction(rng.choice([-1, 1]))
            A = Hyperplane(tuple(normal))
            tie = rng.choice(list(TiePolicy))
            pts = set()
            while len(pts) < rng.randint(1, 5):
                pts.add(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)))
            B = FiniteSet.ordered(sorted(pts), A, tie)
            x = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(dim))
            point, k = project_finite_set(B, x)
            want = brute_force_nearest(B, x)
            assert k == want + 1
            assert point == B.points[want]


class TestDrStep:
    def test_line_doubleton_steps(self):
        A, B = line_problem([-1, 2])
        assert dr_step(A, B, (Fraction(0),)) == ((Fraction(-1),), 1)
        assert dr_step(A, B, (Fraction(-1),)) == ((Fraction(1),), 2)
        assert dr_step(A, B, (Fraction(1),)) == ((Fraction(0),), 1)

    def test_surd_doubleton_step(self):
        A = Hyperplane((Surd(1, 0, 2),))
        B = FiniteSet.ordered([(Surd(-1, 0, 2),), (Surd(0, 1, 2),)], A)
        nxt, k = dr_step(A, B, (Surd(-1, 0, 2),))
        assert k == 2
        assert nxt == (Surd(-1, 1, 2),)

    def test_decomposition_and_line_confinement(self):
        rng = random.Random(402)
        A = Hyperplane((Fraction(3, 5), Fraction(4, 5)))
        pts = [(Fraction(-2), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(4), Fraction(-1))]
        B = FiniteSet.ordered(pts, A)
        for _ in range(100):
            x = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2))
            nxt, k = dr_step(A, B, x)
            pa = project_hyperplane(A, x)
            # the step decomposes as next = x - P_A x + b_k
            assert vadd(vsub(nxt, x), pa) == B.points[k - 1]
            # next - b_k is a multiple of u: its component orthogonal to u vanishes
            v = vsub(nxt, B.points[k - 1])
            assert vsub(v, vscale(dot(v, A.normal), A.normal)) == (Fraction(0),) * 2

    def test_dimension_mismatch(self):
        A, B = line_problem([-1, 2])
        with pytest.raises(DimensionMismatch):
            dr_step(A, B, (Fraction(0), Fraction(0)))


class TestVectorOps:
    def test_basic(self):
        assert vadd((1, 2), (3, 4)) == (4, 6)
        assert vsub((1, 2), (3, 4)) == (-2, -2)
        assert vscale(2, (1, 2)) == (2, 4)
        assert dot((1, 2), (3, 4)) == 11
        assert norm_sq((3, 4)) == 25

    def test_backend_detection(self):
        assert vector_backend((Fraction(1), Fraction(2))) == "rational"
        with pytest.raises(BackendError):
            vector_backend((Fraction(1), 2.0))
        with pytest.raises(BackendError):
            vector_backend(())

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot((1, 2), (1,))
