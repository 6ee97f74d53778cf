"""The f64 tolerance policy at its boundaries.

Each check listed at ``scalars.F64_ABS_TOL``/``F64_REL_TOL`` whose boundary
an input can reach gets a value just inside and one just outside, through
the public function that applies it (the two private comparison helpers are
called directly).  These pin the strictness of every check: the operator,
the scaling and the value.
"""

import json
import math

import pytest

from drplane.cli import main
from drplane.closedform import _points_agree, corollary_point
from drplane.cycling import DoubletonProblem, _vectors_match
from drplane.dynamics import (
    Outcome,
    RunResult,
    TraceRecord,
    check_step_gap,
    classify,
)
from drplane.geometry import FiniteSet, Hyperplane, vec_equal
from drplane.scalars import F64

LINE = Hyperplane((1.0,))


def above(x):
    return math.nextafter(x, math.inf)


def below(x):
    return math.nextafter(x, -math.inf)


def test_vec_equal_absolute_per_coordinate():
    assert vec_equal((0.0, 5.0), (1e-12, 5.0), F64)
    assert not vec_equal((0.0, 5.0), (above(1e-12), 5.0), F64)


def test_hyperplane_normalisation_drift():
    # squares of normals this small are subnormal, so the normalised <u,u>
    # misses 1 by 0.99987e-12 (kept) and by 1.00009e-12 (rejected)
    Hyperplane((float.fromhex("0x1.f9555e24f681fp-520"),))
    with pytest.raises(ValueError, match="could not normalize"):
        Hyperplane((float.fromhex("0x1.2e78afada5c4fp-519"),))


@pytest.mark.parametrize("b1, b2", [(below(-1e-12), 1.0), (-1.0, above(1e-12))])
def test_doubleton_straddle_margin_inside(b1, b2):
    DoubletonProblem(LINE, (b1,), (b2,), (0.0,))


@pytest.mark.parametrize("b1, b2", [(-1e-12, 1.0), (-1.0, 1e-12)])
def test_doubleton_straddle_margin_outside(b1, b2):
    with pytest.raises(ValueError, match="straddle"):
        DoubletonProblem(LINE, (b1,), (b2,), (0.0,))


def test_classify_touching_point():
    assert classify(LINE, FiniteSet.ordered([(-1.0,), (1e-12,)], LINE)).intersects
    assert not classify(LINE, FiniteSet.ordered([(-1.0,), (above(1e-12),)], LINE)).intersects


def test_step_gap_margin():
    B = FiniteSet.ordered([(-1.0,), (2.0,)], LINE)  # min_i d_A(b_i) = 1

    def one_step(gap):
        trace = [TraceRecord(0, (0.0,), None, 0.0), TraceRecord(1, (gap,), 1, gap)]
        return RunResult(trace, Outcome.HORIZON)

    bound = 1.0 - 1e-12
    assert check_step_gap(one_step(bound), LINE, B)
    assert not check_step_gap(one_step(below(bound)), LINE, B)


def test_corollary_start_offset_slack():
    def corollary(x0):
        return corollary_point(DoubletonProblem(LINE, (-1.0,), (2.0,), (x0,)), 1)

    corollary(1e-9)
    with pytest.raises(ValueError, match="x0 on the hyperplane"):
        corollary(above(1e-9))


def test_vectors_match_scaled_by_the_vector():
    # tol = 1e-9 * max(1, 2.0): the larger coordinate scales the whole vector
    x = (0.0, 2.0)
    assert _vectors_match(x, (2 * 1e-9, 2.0), True)
    assert not _vectors_match(x, (above(2 * 1e-9), 2.0), True)


def test_points_agree_scaled_per_coordinate():
    # coordinate 0 is scaled by max(1, 0, 1e-9) = 1, not by the 2.0 beside it
    x = (0.0, 2.0)
    assert _points_agree(x, (1e-9, 2.0), F64)
    assert not _points_agree(x, (above(1e-9), 2.0), F64)


@pytest.mark.parametrize("b1, relation", [
    # the guess is 1/3 on both; the first is the last float within 1e-9 of
    # it, the second the next float up
    (-0.3333333343333333, [3, 1]),
    (-0.33333333433333334, None),
    # the guess is 0, exactly 1e-9 away, but no positive relation
    (-1e-9, None),
    (-above(1e-9), None),
])
def test_heuristic_rationality_margin(capsys, tmp_path, b1, relation):
    path = tmp_path / "near_third.json"
    path.write_text(json.dumps(
        {"normal": [1.0], "points": [[b1], [1.0]], "x0": [0.0], "backend": "f64"}
    ))
    code = main(["cycle", "--problem", str(path), "--horizon", "10",
                 "--heuristic-rationality"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["rational"] is (relation is not None)
    assert report["relation"] == relation
