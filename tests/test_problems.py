"""Problem JSON wire format: round-trips, validation, inference."""

import copy
import inspect
import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from drplane.errors import BackendError, DimensionMismatch, ProblemFormatError
from drplane.geometry import FiniteSet, Hyperplane, TiePolicy
from drplane.problems import (
    Problem,
    load_problem,
    make_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from drplane.scalars import Surd

FIXTURES = Path(__file__).resolve().parent.parent / "problems"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "rational_cycle.json",
            "surd_aperiodic.json",
            "halfspace_divergent.json",
            "halfspace_fixed.json",
            "r2_beatty.json",
        ],
    )
    def test_exact_fixture_round_trips(self, name):
        p = load_problem(FIXTURES / name)
        again = problem_from_dict(problem_to_dict(p))
        assert again == p  # problems compare by value

    def test_save_then_load(self, tmp_path):
        p = make_problem((0, 1), [(0, -1), (1, Surd(0, 1, 2))], (Fraction(1, 3), 0))
        path = tmp_path / "out.json"
        save_problem(p, path)
        assert load_problem(path) == p

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_encoding_is_a_fixed_point(self, name):
        # the backend and surd_d are derived from the normal, so they survive
        d = problem_to_dict(load_problem(FIXTURES / name))
        assert problem_to_dict(problem_from_dict(d)) == d
        assert d.get("surd_d") == json.loads((FIXTURES / name).read_text()).get("surd_d")

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_canonical_problems_pass_the_radicand_check(self, name):
        # all six load under Hyperplane.check and come back equal, in value
        # and in wire form
        p = load_problem(FIXTURES / name)
        again = problem_from_dict(problem_to_dict(p))
        assert again == p and problem_to_dict(again) == problem_to_dict(p)

    def test_fixture_files_are_canonical(self):
        # encoded dict values survive a dump/parse cycle untouched
        for name in ("rational_cycle.json", "r2_beatty.json"):
            p = load_problem(FIXTURES / name)
            encoded = problem_to_dict(p)
            assert json.loads(json.dumps(encoded)) == encoded


class TestValidation:
    def test_unknown_key(self):
        with pytest.raises(ProblemFormatError, match="unknown problem keys"):
            problem_from_dict(
                {"normal": [1], "points": [[1]], "x0": [0],
                 "backend": "rational", "extra": 1}
            )

    def test_missing_key(self):
        with pytest.raises(ProblemFormatError, match="missing"):
            problem_from_dict({"normal": [1], "points": [[1]], "backend": "rational"})

    def test_unknown_backend(self):
        with pytest.raises(ProblemFormatError, match="unknown backend"):
            problem_from_dict(
                {"normal": [1], "points": [[1]], "x0": [0], "backend": "decimal"}
            )

    def test_surd_d_required(self):
        with pytest.raises(ProblemFormatError, match="surd_d"):
            problem_from_dict(
                {"normal": [1], "points": [[1]], "x0": [0], "backend": "surd"}
            )

    def test_surd_d_rejected_elsewhere(self):
        with pytest.raises(ProblemFormatError, match="surd_d"):
            problem_from_dict(
                {"normal": [1], "points": [[1]], "x0": [0],
                 "backend": "rational", "surd_d": 2}
            )

    def test_noninteger_float_rejected_on_exact_backend(self):
        with pytest.raises(ProblemFormatError, match="exact backends"):
            problem_from_dict(
                {"normal": [1], "points": [[0.5]], "x0": [0], "backend": "rational"}
            )

    def test_bad_tie_policy(self):
        with pytest.raises(ProblemFormatError, match="tie_policy"):
            problem_from_dict(
                {"normal": [1], "points": [[1]], "x0": [0],
                 "backend": "rational", "tie_policy": "coin_flip"}
            )

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ProblemFormatError, match="bad normal"):
            problem_from_dict(
                {"normal": [2], "points": [[1]], "x0": [0], "backend": "rational"}
            )

    def test_duplicate_points_rejected(self):
        with pytest.raises(ProblemFormatError, match="bad points"):
            problem_from_dict(
                {"normal": [1], "points": [[1], [1]], "x0": [0],
                 "backend": "rational"}
            )


class TestProblem:
    """Problem(hyperplane, points, x0) checks x0 and each point itself."""

    A = Hyperplane((Fraction(1),))
    B = FiniteSet.ordered([(Fraction(-1),), (Fraction(2),)], A)

    def test_fields_and_derived_values(self):
        p = Problem(self.A, self.B, (Fraction(0),))
        assert list(inspect.signature(Problem).parameters) == ["hyperplane", "points", "x0"]
        assert (p.backend, p.surd_d, p.tie_policy) == ("rational", None, TiePolicy.HIGHER_INNER)
        A = Hyperplane((Surd(1, 0, 3),))
        B = FiniteSet.ordered([(Surd(-1, 0, 3),), (Surd(0, 1, 3),)], A)
        p = Problem(A, B, (Surd(0, 0, 3),))
        assert (p.backend, p.surd_d) == ("surd", 3)

    def test_identity_is_its_three_fields(self):
        p = Problem(self.A, self.B, (Fraction(0),))
        assert repr(p) == f"Problem(hyperplane={self.A!r}, points={self.B!r}, x0={p.x0!r})"
        assert p == Problem(Hyperplane((Fraction(1),)), self.B, (Fraction(0),))
        assert hash(p) == hash((self.A, self.B, (Fraction(0),)))
        assert p != Problem(self.A, self.B, (Fraction(1),))
        assert p != (self.A, self.B, (Fraction(0),))
        for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert again == p and hash(again) == hash(p) and repr(again) == repr(p)
        for name in ("hyperplane", "points", "x0"):
            with pytest.raises(AttributeError):
                setattr(p, name, getattr(p, name))
        for path in sorted(FIXTURES.glob("*.json")):
            p = load_problem(path)
            for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert again == p and hash(again) == hash(p)
                assert problem_to_dict(again) == problem_to_dict(p)

    def test_x0_of_wrong_dimension(self):
        with pytest.raises(DimensionMismatch, match="^x0 dimension 2 != hyperplane dimension 1$"):
            Problem(self.A, self.B, (Fraction(0), Fraction(0)))

    def test_x0_of_wrong_backend(self):
        with pytest.raises(BackendError, match="^x0 does not match the hyperplane backend$"):
            Problem(self.A, self.B, (0.0,))

    def test_hand_built_point_of_wrong_backend(self):
        B = FiniteSet(((Fraction(-1),), (2.0,)), (Fraction(-1), 2.0))
        with pytest.raises(BackendError, match="^point does not match the hyperplane backend$"):
            Problem(self.A, B, (Fraction(0),))

    def test_nan_x0_on_f64(self):
        A = Hyperplane((1.0,))
        B = FiniteSet.ordered([(-1.0,), (2.0,)], A)
        with pytest.raises(ProblemFormatError, match="^x0: nan is not a finite f64 value$"):
            Problem(A, B, (math.nan,))

    def test_sqrt_part_over_another_radicand(self):
        A = Hyperplane((Surd(1, 0, 2),))
        B = FiniteSet.ordered([(Surd(-1, 0, 2),), (Surd(2, 0, 2),)], A)
        refusal = r" has a sqrt\(3\) part; the normal is over sqrt\(2\)$"
        with pytest.raises(BackendError, match="^x0" + refusal):
            Problem(A, B, (Surd(0, 1, 3),))
        with pytest.raises(BackendError, match="^point" + refusal):
            FiniteSet.ordered([(Surd(-1, 0, 2),), (Surd(0, 1, 3),)], A)
        B3 = FiniteSet(((Surd(-1, 0, 2),), (Surd(0, 1, 3),)), (Surd(-1, 0, 2), Surd(0, 1, 3)))
        with pytest.raises(BackendError, match="^point" + refusal):
            Problem(A, B3, (Surd(0, 0, 2),))
        # a rational value is the same number over any radicand, so it passes
        # and its wire form keeps its value
        p = Problem(A, B, (Surd(Fraction(1, 2), 0, 3),))
        assert problem_from_dict(problem_to_dict(p)) == p


class TestMakeProblem:
    def test_backend_inference(self):
        assert make_problem((1,), [(-1,), (2,)], (0,)).backend == "rational"
        assert make_problem((1.0,), [(-1,), (2.5,)], (0,)).backend == "f64"
        assert make_problem((1,), [(-1,), (Surd(0, 1, 2),)], (0,)).backend == "surd"

    def test_points_sorted_by_offset(self):
        p = make_problem((1,), [(2,), (-1,)], (0,))
        assert p.points.inners == (Fraction(-1), Fraction(2))

    def test_tie_policy_carried(self):
        p = make_problem((1,), [(-1,), (1,)], (0,), tie_policy=TiePolicy.LOWER_INNER)
        assert p.tie_policy is TiePolicy.LOWER_INNER

    def test_float_exact_mix_rejected(self):
        with pytest.raises(BackendError):
            make_problem((1.0,), [(Fraction(1, 3),), (2.0,)], (0.0,))

    def test_mixed_radicands_rejected(self):
        with pytest.raises(BackendError):
            make_problem((1,), [(Surd(0, 1, 2),), (Surd(0, 1, 3),)], (0,))

    @pytest.mark.parametrize("normal, points, x0, shown", [
        ((1.0,), [(-1.0,), (float("inf"),)], (0.0,), "inf"),
        ((1.0,), [(-1.0,), (2.0,)], (float("nan"),), "nan"),
        ((float("nan"),), [(-1.0,), (2.0,)], (0.0,), "nan"),
        # an int out of the f64 range on a float problem
        ((1.0,), [(-(10**400),), (2.0,)], (0.0,), "-1000"),
    ])
    def test_nonfinite_float_coordinates_rejected(self, normal, points, x0, shown):
        with pytest.raises(ProblemFormatError, match=f"^{shown}.* is not a finite f64 value"):
            make_problem(normal, points, x0)
