"""Floor-formula evaluators: window constants, successor rule, closed forms."""

import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from drplane import closedform
from drplane.closedform import (
    Betas,
    FloorForm,
    RegionLabel,
    _FloatFloorForm,
    _plan,
    _point,
    beatty_triple,
    closed_form_inner,
    closed_form_inner_alt,
    closed_form_point,
    closed_form_trace,
    compute_betas,
    corollary_point,
    region_of,
    selector_counts,
    successor_rule,
    verify_closed_form,
)
from drplane.cycling import DoubletonProblem, detect_cycle
from drplane.dynamics import iterate, run_report
from drplane.errors import PreconditionError
from drplane.geometry import FiniteSet, Hyperplane, TiePolicy, dr_step, norm_sq, vsub
from drplane.lattice import LinePoints, OffsetLattice, SetLattice
from drplane.problems import load_problem
from drplane.scalars import Surd, floor

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def line_doubleton(b1, b2, x0=0, tie_policy=TiePolicy.HIGHER_INNER):
    A = Hyperplane((Fraction(1),))
    return DoubletonProblem(
        A, (Fraction(b1),), (Fraction(b2),), (Fraction(x0),), tie_policy
    )


def surd_line_doubleton(b1, b2, x0=0):
    lift = lambda v: v if isinstance(v, Surd) else Surd(v, 0, 2)
    A = Hyperplane((Surd(1, 0, 2),))
    return DoubletonProblem(A, (lift(b1),), (lift(b2),), (lift(x0),))


def plane_sqrt2_doubleton(alpha=0):
    """The planar instance: points (0,-1) and (1,sqrt2), start (alpha,0)."""
    z = lambda v: Surd(v, 0, 2)
    A = Hyperplane((z(0), z(1)))
    return DoubletonProblem(
        A, (z(0), z(-1)), (z(1), Surd(0, 1, 2)), (z(alpha), z(0))
    )


EX_RATIONAL = line_doubleton(-1, 2)
EX_SURD = surd_line_doubleton(-1, Surd(0, 1, 2))


def run_inners(p, n):
    result = iterate(p.hyperplane, p.finite_set(), p.x0, n, slim=True)
    return result


class TestComputeBetas:
    def test_rational_instance(self):
        b = compute_betas(EX_RATIONAL)
        assert (b.beta1, b.beta2, b.beta) == (-1, 2, Fraction(-3, 2))
        assert b.span == 3

    def test_symmetric(self):
        b = compute_betas(line_doubleton(Fraction(-5, 2), Fraction(5, 2)))
        assert b.beta == Fraction(-5, 2)

    def test_surd_instance(self):
        b = compute_betas(EX_SURD)
        assert b.beta == Surd(Fraction(-1, 2), Fraction(-1, 2), 2)

    def test_plane_instance_two_expressions(self):
        b = compute_betas(plane_sqrt2_doubleton())
        assert b.beta == Surd(0, -1, 2)
        # -1 - r^2/(2*(r+1)) at r = sqrt2, evaluated in the field
        r = Surd(0, 1, 2)
        assert b.beta == -1 - (r * r) / (2 * (r + 1))

    @given(
        b1=st.fractions(min_value=-10, max_value=Fraction(-1, 10), max_denominator=20),
        b2=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=20),
        off=st.fractions(min_value=-5, max_value=5, max_denominator=10),
    )
    def test_invariants_hold(self, b1, b2, off):
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(A, (off, b1), (Fraction(0), b2), (Fraction(0), Fraction(0)))
        b = compute_betas(p)
        assert b.beta < 0
        assert -2 * b.beta >= b.span


class TestRegionOf:
    BETAS = Betas(Fraction(-1), Fraction(2), Fraction(-3, 2))

    def test_frozen_labels(self):
        b = self.BETAS
        assert region_of(b, Fraction(-1), 1) is RegionLabel.S1
        assert region_of(b, Fraction(1), 2) is RegionLabel.S2
        assert region_of(b, Fraction(-3, 2), 1) is RegionLabel.OUTSIDE
        assert region_of(b, Fraction(1, 2), 1) is RegionLabel.S1
        assert region_of(b, Fraction(1, 2), 2) is RegionLabel.OUTSIDE
        assert region_of(b, Fraction(3, 2), 2) is RegionLabel.S2
        assert region_of(b, Fraction(2), 2) is RegionLabel.OUTSIDE

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            region_of(self.BETAS, Fraction(0), 3)


class TestSuccessorRule:
    BETAS = Betas(Fraction(-1), Fraction(2), Fraction(-3, 2))

    def test_frozen_steps(self):
        b = self.BETAS
        assert successor_rule(b, Fraction(-1), 1) == (2, 1)
        assert successor_rule(b, Fraction(1), 2) == (1, 0)
        assert successor_rule(b, Fraction(0), 1) == (1, -1)

    def test_boundary_hands_off_to_selector_two(self):
        assert successor_rule(self.BETAS, Fraction(-1, 2), 1) == (2, Fraction(3, 2))

    def test_outside_refused(self):
        with pytest.raises(PreconditionError, match="absorption region"):
            successor_rule(self.BETAS, Fraction(10), 1)

    def test_upper_branch_needs_nonnegative_shift(self):
        # wide lateral separation pushes the window constant below -beta2
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(10), Fraction(1, 5)),
            (Fraction(0), Fraction(0)),
        )
        b = compute_betas(p)
        assert b.beta + b.beta2 < 0
        inside_s2 = b.beta + b.beta2 + Fraction(1, 10)
        assert region_of(b, inside_s2, 2) is RegionLabel.S2
        with pytest.raises(PreconditionError, match="beta \\+ beta2"):
            successor_rule(b, inside_s2, 2)

    @given(
        b1=st.fractions(min_value=-8, max_value=Fraction(-1, 4), max_denominator=12),
        b2=st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=12),
        t=st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
        sel=st.sampled_from([1, 2]),
    )
    @settings(max_examples=150)
    def test_agrees_with_direct_step(self, b1, b2, t, sel):
        # any in-window state is realized by a point on the matching line;
        # the scalar rule must reproduce the vector step exactly
        p = line_doubleton(b1, max(b2, -b1))  # b2 >= -b1 keeps the window usable
        b = compute_betas(p)
        assert b.beta + b.beta2 >= 0
        if sel == 1:
            inner = b.beta + t * b.beta2
        else:
            inner = b.beta + b.beta2 + t * (-b.beta1)
        assert region_of(b, inner, sel) is not RegionLabel.OUTSIDE
        k_next, inner_next = successor_rule(b, inner, sel)
        bk = p.b1 if sel == 1 else p.b2
        x = ((inner - (b.beta1 if sel == 1 else b.beta2)) + bk[0],)
        x_next, k_step = dr_step(p.hyperplane, p.finite_set(), x)
        assert k_step == k_next
        assert x_next[0] == inner_next - (b.beta1 if k_next == 1 else b.beta2) + (
            p.b1 if k_next == 1 else p.b2
        )[0]
        # absorption: the window is forward invariant
        assert region_of(b, inner_next, k_next) is not RegionLabel.OUTSIDE


class TestClosedFormInner:
    def test_rational_frozen_value(self):
        b = compute_betas(EX_RATIONAL)
        assert closed_form_inner(b, Fraction(0), 4) == -1

    def test_surd_frozen_value(self):
        # third orbit point of the sqrt2 instance
        b = compute_betas(EX_SURD)
        assert closed_form_inner(b, Surd(0, 0, 2), 2) == Surd(-1, 1, 2)

    def test_matches_iteration_rational(self):
        b = compute_betas(EX_RATIONAL)
        run = run_inners(EX_RATIONAL, 30)
        for n in range(1, 31):
            assert closed_form_inner(b, Fraction(0), n) == run.trace[n].inner

    def test_matches_iteration_surd(self):
        b = compute_betas(EX_SURD)
        run = run_inners(EX_SURD, 30)
        for n in range(1, 31):
            assert closed_form_inner(b, Surd(0, 0, 2), n) == run.trace[n].inner

    def test_specialized_one_dim_formula(self):
        # with points -1 and r and start 0 the offset collapses to
        # -n + floor(n/(r+1) + 1/2) * (r+1)
        for r in (Fraction(2), Fraction(5, 2), Fraction(7)):
            p = line_doubleton(-1, r)
            b = compute_betas(p)
            for n in range(1, 60):
                short = -n + floor(Fraction(n, r + 1) + Fraction(1, 2)) * (r + 1)
                assert closed_form_inner(b, Fraction(0), n) == short

    def test_two_published_forms_agree(self):
        rng = random.Random(5)
        for _ in range(20):
            b2 = Fraction(rng.randint(2, 30), rng.randint(1, 6))
            b1 = -Fraction(rng.randint(1, int(2 * b2)), 2)
            if b2 < -b1:
                continue
            p = line_doubleton(b1, b2)
            b = compute_betas(p)
            for n in range(1, 40):
                assert closed_form_inner(b, Fraction(0), n) == closed_form_inner_alt(
                    b, Fraction(0), n
                )

    def test_telescoping_steps(self):
        b = compute_betas(EX_SURD)
        prev = closed_form_inner(b, Surd(0, 0, 2), 1)
        for n in range(2, 120):
            cur = closed_form_inner(b, Surd(0, 0, 2), n)
            assert cur - prev in (b.beta1, b.beta2)
            prev = cur

    def test_counts_match_iteration(self):
        b = compute_betas(EX_RATIONAL)
        A, B = EX_RATIONAL.hyperplane, EX_RATIONAL.finite_set()
        run = iterate(A, B, EX_RATIONAL.x0, 200)
        records = run_report(run, A, B)["records"]
        for n in range(1, 201):
            c1, c2 = selector_counts(b, Fraction(0), n)
            assert c1 + c2 == n
            assert [c1, c2] == records[n]["counts"]

    def test_not_applicable_window_shift(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(3), Fraction(1, 2)),
            (Fraction(0), Fraction(0)),
        )
        b = compute_betas(p)
        assert b.beta + b.beta2 < 0
        with pytest.raises(PreconditionError, match="use iterate"):
            closed_form_inner(b, Fraction(0), 1)

    def test_not_applicable_start_outside(self):
        b = compute_betas(EX_RATIONAL)
        with pytest.raises(PreconditionError, match="use iterate"):
            closed_form_inner(b, Fraction(10), 1)

    def test_index_validation(self):
        b = compute_betas(EX_RATIONAL)
        with pytest.raises(ValueError):
            closed_form_inner(b, Fraction(0), 0)


class TestClosedFormPoint:
    def test_rational_frozen(self):
        b = compute_betas(EX_RATIONAL)
        assert closed_form_point(EX_RATIONAL, b, 2) == ((Fraction(1),), 2)

    def test_surd_frozen(self):
        b = compute_betas(EX_SURD)
        assert closed_form_point(EX_SURD, b, 3) == ((Surd(-2, 1, 2),), 1)

    def test_plane_frozen(self):
        p = plane_sqrt2_doubleton()
        b = compute_betas(p)
        assert closed_form_point(p, b, 1) == ((Surd(0, 0, 2), Surd(-1, 0, 2)), 1)

    def test_matches_iteration_everywhere(self):
        for p in (EX_RATIONAL, EX_SURD, plane_sqrt2_doubleton()):
            b = compute_betas(p)
            run = iterate(p.hyperplane, p.finite_set(), p.x0, 100)
            for n in range(1, 101):
                x, k = closed_form_point(p, b, n)
                assert x == run.trace[n].x
                assert k == run.trace[n].selector_k

    def test_selector_always_valid(self):
        b = compute_betas(EX_SURD)
        for n in range(1, 400):
            _, k = closed_form_point(EX_SURD, b, n)
            assert k in (1, 2)

    def test_entry_check_fires(self):
        # start offset inside the window, but the first step exits it
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2)),
            (Fraction(6), Fraction(1)),
        )
        b = compute_betas(p)
        assert b.beta + b.beta2 >= 0
        with pytest.raises(PreconditionError, match="misses the window"):
            closed_form_point(p, b, 1)


class TestCorollary:
    def test_rational_frozen(self):
        assert corollary_point(line_doubleton(-1, 2), 1) == ((Fraction(-1),), 1)

    def test_plane_frozen(self):
        p = plane_sqrt2_doubleton()
        assert corollary_point(p, 2) == ((Surd(1, 0, 2), Surd(-1, 1, 2)), 2)

    def test_matches_iteration(self):
        instances = [
            line_doubleton(-1, Fraction(3, 2)),
            line_doubleton(-1, Fraction(5, 2)),
            line_doubleton(-1, 7),
            surd_line_doubleton(-1, Surd(0, 1, 2)),
            surd_line_doubleton(-1, Surd(1, 1, 2)),
            plane_sqrt2_doubleton(),
        ]
        for p in instances:
            run = iterate(p.hyperplane, p.finite_set(), p.x0, 120)
            for n in range(1, 121):
                x, k = corollary_point(p, n)
                assert x == run.trace[n].x
                assert k == run.trace[n].selector_k

    def test_hypotheses_imply_the_general_closed_form(self):
        # the corollary's hypotheses, checked here by hand, on seeded 1-D and
        # planar rational doubletons that start on the hyperplane: each one
        # that meets them has an applicable plan, and the corollary's points
        # are the iterates
        rng = random.Random(20261019)
        line = Hyperplane((Fraction(1),))
        plane = Hyperplane((Fraction(3, 5), Fraction(4, 5)))
        along = lambda s, off: (s * Fraction(4, 5) + off * Fraction(3, 5),  # noqa: E731
                                s * Fraction(-3, 5) + off * Fraction(4, 5))
        met = 0
        for i in range(1500):
            b1 = -Fraction(rng.randint(1, 30), rng.randint(1, 9))
            b2 = Fraction(rng.randint(1, 30), rng.randint(1, 9))
            if i % 2 == 0:
                p = DoubletonProblem(line, (b1,), (b2,), (Fraction(0),))
            else:
                s1, s2, s0 = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
                p = DoubletonProblem(plane, along(s1, b1), along(s2, b2), along(s0, 0))
            closer_to_b1 = norm_sq(vsub(p.x0, p.b1)) < norm_sq(vsub(p.x0, p.b2))
            if not (p.beta1 > p.beta >= -p.beta2 and closer_to_b1):
                continue
            met += 1
            plan = _plan(p, compute_betas(p))
            run = iterate(p.hyperplane, p.finite_set(), p.x0, 100)
            for n in (1, 2, 5, 17, 100):
                expected = (run.trace[n].x, run.trace[n].selector_k)
                assert corollary_point(p, n) == _point(plan, p.orbit.point, n) == expected
        assert met == 624

    def test_degenerate_ratio_refused(self):
        with pytest.raises(PreconditionError, match="beta1 > beta"):
            corollary_point(line_doubleton(-1, 1), 1)

    def test_window_shift_hypothesis_named(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(3), Fraction(1, 2)),
            (Fraction(0), Fraction(0)),
        )
        with pytest.raises(PreconditionError, match="beta >= -beta2"):
            corollary_point(p, 1)

    def test_start_off_hyperplane_named(self):
        with pytest.raises(PreconditionError, match="x0 on the hyperplane"):
            corollary_point(line_doubleton(-1, 2, x0=1), 1)

    def test_proximity_hypothesis_named(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2)),
            (Fraction(3), Fraction(0)),
        )
        with pytest.raises(PreconditionError, match="b1-b2"):
            corollary_point(p, 1)


    def test_verdict_is_derived_once(self, monkeypatch):
        # only the first of five calls checks the hypotheses, whether they
        # hold (exact and f64) or the last of them fails
        calls = []
        for name in ("dot", "norm_sq"):
            real = getattr(closedform, name)
            monkeypatch.setattr(
                closedform, name, lambda *a, real=real: calls.append(1) or real(*a)
            )
        A = Hyperplane((Fraction(0), Fraction(1)))
        far_from_b1 = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2)),
            (Fraction(3), Fraction(0)),
        )
        f64 = DoubletonProblem(Hyperplane((1.0,)), (-1.0,), (2.0,), (0.0,))
        for p in (line_doubleton(-1, 2), plane_sqrt2_doubleton(), f64, far_from_b1):
            outcomes = []
            for i in range(5):
                try:
                    outcomes.append(corollary_point(p, 7))
                except PreconditionError as exc:
                    outcomes.append(str(exc))
                if i == 0:
                    assert calls
                    made = len(calls)
            assert len(calls) == made and all(o == outcomes[0] for o in outcomes)
            calls.clear()
        assert "b1-b2" in outcomes[0]


class TestBeatty:
    def test_frozen_triples(self):
        assert beatty_triple(0) == (0, 0, 0)
        assert beatty_triple(1) == (0, 1, 0)
        assert beatty_triple(2) == (1, 1, 1)
        assert beatty_triple(3) == (0, 2, 1)
        assert beatty_triple(4) == (1, 2, 2)

    def test_equivalent_floor_definitions(self):
        for n in range(300):
            u_n, v_n, w_n = beatty_triple(n)
            base = floor(Surd(-(n + 1), n + 1, 2))  # floor((n+1)(sqrt2-1))
            assert w_n == base
            assert v_n == n - base
            assert u_n == base - floor(Surd(-n, n, 2))

    def test_matches_surd_formula(self):
        # the formula beatty_triple had before it floored on integers
        for n in range(5001):
            f_next = floor(Surd(0, n + 1, 2))
            u_n = f_next - floor(Surd(0, n, 2)) - 1
            v_n = floor(Surd(2 * (n + 1), -(n + 1), 2))
            assert beatty_triple(n) == (u_n, v_n, f_next - n - 1)

    def test_identity_with_plane_orbit(self):
        p = plane_sqrt2_doubleton()
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 200)
        for n in range(201):
            u_n, v_n, w_n = beatty_triple(n)
            assert run.trace[n].x == (Surd(u_n, 0, 2), Surd(-v_n, w_n, 2))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            beatty_triple(-1)


class TestVerify:
    def test_rational_pass(self):
        report = verify_closed_form(EX_RATIONAL, 1000)
        assert report.ok and report.checked == 1000
        assert report.to_dict()["first_mismatch"] is None

    def test_surd_pass(self):
        report = verify_closed_form(EX_SURD, 1000)
        assert report.ok

    def test_float_pass(self):
        A = Hyperplane((1.0,))
        p = DoubletonProblem(A, (-1.0,), (3.7,), (0.0,))
        report = verify_closed_form(p, 2000)
        assert report.ok

    def test_nondefault_tie_policy_mismatch_reported(self):
        # the formulas encode the default tie handling; a boundary orbit
        # under the other policy must surface as an honest mismatch
        p = line_doubleton(-1, 2, x0=Fraction(1, 2), tie_policy=TiePolicy.LOWER_INNER)
        report = verify_closed_form(p, 10)
        assert not report.ok
        assert report.first_mismatch["n"] == 2
        assert report.first_mismatch["iterated"] != report.first_mismatch["closed_form"]

    def test_not_applicable(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(3), Fraction(1, 2)),
            (Fraction(0), Fraction(0)),
        )
        with pytest.raises(PreconditionError, match="use iterate"):
            verify_closed_form(p, 10)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            verify_closed_form(EX_RATIONAL, 0)


def seeded_doubletons(count):
    """Random straddling doubletons: rational lines and planes, surd lines."""
    rng = random.Random(20261018)
    out = []
    for i in range(count):
        b1 = -Fraction(rng.randint(1, 30), rng.randint(1, 9))
        b2 = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        if i % 3 == 0:
            out.append(line_doubleton(b1, b2, x0))
        elif i % 3 == 1:
            A = Hyperplane((Fraction(0), Fraction(1)))
            lateral = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            out.append(DoubletonProblem(
                A, (lateral[0], b1), (lateral[1], b2), (lateral[2], x0)
            ))
        else:
            b2 = Surd(rng.randint(0, 3), Fraction(rng.randint(1, 9), rng.randint(1, 4)), 2)
            out.append(surd_line_doubleton(b1, b2, x0))
    return out


def test_closed_form_final_counts_match_iteration():
    canonical = []
    for path in sorted(PROBLEMS.glob("*.json")):
        try:
            canonical.append(DoubletonProblem.from_problem(load_problem(path)))
        except PreconditionError:
            pass  # one-sided problems are not doubleton instances
    applicable = 0
    for p in canonical + seeded_doubletons(120):
        for horizon in (0, 1, 150):
            try:
                formula = closed_form_trace(p, horizon)
            except PreconditionError:
                break
            run = iterate(p.hyperplane, p.finite_set(), p.x0, horizon)
            assert formula.final_counts == run.final_counts
            assert sum(formula.final_counts) == horizon
        else:
            applicable += 1
    assert applicable >= 30


def quotient_count2(b, inner0, n):
    """count2 as the published floor of one exact quotient."""
    return floor((-inner0 + b.beta - (n + 1) * b.beta1 + b.beta2) / b.span)


class TestIntegerFloorForm:
    def instances(self):
        rng = random.Random(41)
        surd = lambda a, b: Surd(Fraction(a), Fraction(b), 2)  # noqa: E731
        out = [
            # span 1 + sqrt(2): conjugate norm 1 - 2 < 0
            (Betas(surd(-1, 0), surd(0, 1), compute_betas(EX_SURD).beta), surd(0, 0)),
            (compute_betas(plane_sqrt2_doubleton()), surd(0, 0)),
        ]
        for _ in range(4):
            beta1 = surd(-Fraction(rng.randint(1, 9), 2), -Fraction(rng.randint(0, 5), 3))
            beta2 = surd(Fraction(rng.randint(1, 9), 4), Fraction(rng.randint(-3, 5), 3))
            beta = surd(-Fraction(rng.randint(1, 9), 5), Fraction(rng.randint(-3, 3), 2))
            inner0 = surd(Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-4, 4), 3))
            out.append((Betas(beta1, beta2, beta), inner0))
        for _ in range(3):
            beta1 = -Fraction(rng.randint(1, 20), rng.randint(1, 6))
            beta2 = Fraction(rng.randint(1, 20), rng.randint(1, 6))
            beta = -Fraction(rng.randint(1, 20), rng.randint(1, 6))
            out.append((Betas(beta1, beta2, beta), Fraction(rng.randint(-9, 9), 4)))
        return out

    def test_count2_matches_surd_quotient_floor(self):
        instances = self.instances()
        norms = [b.span.a ** 2 - 2 * b.span.b ** 2 for b, _ in instances[:6]]
        assert min(norms) < 0 < max(norms)
        for b, inner0 in instances:
            form = FloorForm(OffsetLattice(b.beta1, b.beta2, b.beta, inner0))
            count2, offset = form.count2, form.offset
            for n in range(0, 2001):
                c = count2(n)
                assert c == quotient_count2(b, inner0, n), (b, inner0, n)
                if n % 97 == 0:
                    value = offset(n, c)
                    assert value == inner0 + n * b.beta1 + c * b.span
                    assert type(value) is type(b.span)

    def test_float_backend_keeps_quotient(self):
        A = Hyperplane((1.0,))
        b = compute_betas(DoubletonProblem(A, (-1.0,), (3.7,), (0.0,)))
        form = _FloatFloorForm(b, 0.25)
        count2, offset = form.count2, form.offset
        for n in range(200):
            assert count2(n) == quotient_count2(b, 0.25, n)
            assert offset(n, 3) == 0.25 + n * b.beta1 + 3 * b.span


class TestRefusalOrder:
    """closed_form_point and closed_form_trace refuse with the same messages,
    the first failed hypothesis winning."""

    SHIFT = "closed form not applicable; use iterate (beta + beta2 < 0)"
    START = "closed form not applicable; use iterate (start offset outside the window)"
    ENTRY = "closed form not applicable; use iterate (first iterate misses the window)"

    def refusals(self, p):
        messages = []
        for call in (
            lambda: closed_form_point(p, compute_betas(p), 1),
            lambda: closed_form_trace(p, 5),
        ):
            with pytest.raises(PreconditionError) as info:
                call()
            messages.append(str(info.value))
        return messages

    def test_window_shift_first(self):
        # also starts outside the window
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(3), Fraction(1, 2)),
            (Fraction(0), Fraction(100)),
        )
        assert self.refusals(p) == [self.SHIFT, self.SHIFT]

    def test_start_offset_before_entry(self):
        # the first iterate (offset 9) misses the window too
        p = line_doubleton(-1, 2, x0=10)
        x1, _ = dr_step(p.hyperplane, p.finite_set(), p.x0)
        assert x1 == (Fraction(9),)
        assert self.refusals(p) == [self.START, self.START]

    def test_entry_last(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        p = DoubletonProblem(
            A, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2)),
            (Fraction(6), Fraction(1)),
        )
        assert self.refusals(p) == [self.ENTRY, self.ENTRY]

    def test_surd_window_shift(self):
        z = lambda v: Surd(v, 0, 2)  # noqa: E731
        A = Hyperplane((z(0), z(1)))
        p = DoubletonProblem(A, (z(0), z(-1)), (z(3), Surd(0, Fraction(1, 2), 2)), (z(0), z(0)))
        assert self.refusals(p) == [self.SHIFT, self.SHIFT]

    def test_repeated_calls_keep_messages_and_order(self):
        A = Hyperplane((Fraction(0), Fraction(1)))
        cases = [
            (DoubletonProblem(
                A, (Fraction(0), Fraction(-1)), (Fraction(3), Fraction(1, 2)),
                (Fraction(0), Fraction(100)),
            ), self.SHIFT),
            (line_doubleton(-1, 2, x0=10), self.START),
            (DoubletonProblem(
                A, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2)),
                (Fraction(6), Fraction(1)),
            ), self.ENTRY),
        ]
        for p, message in cases:
            for _ in range(3):
                assert self.refusals(p) == [message, message]
            # the trace first, on a fresh equal instance
            q = copy.deepcopy(p)
            with pytest.raises(PreconditionError) as info:
                closed_form_trace(q, 5)
            assert str(info.value) == message
            assert self.refusals(q) == [message, message]


def _applicable_and_refused():
    A = Hyperplane((Fraction(0), Fraction(1)))
    refused = DoubletonProblem(
        A, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2)), (Fraction(6), Fraction(1))
    )
    return [EX_RATIONAL, EX_SURD, plane_sqrt2_doubleton(), line_doubleton(-1, 2, x0=10), refused]


def _outcome(call):
    try:
        return call()
    except PreconditionError as exc:
        return str(exc)


class TestDerivedState:
    """The first step, the orbit lattice, the point evaluator, the Betas and
    the closed-form plan are derived once per DoubletonProblem, and none of
    it shows from outside."""

    def use(self, p):
        return (
            _outcome(lambda: [closed_form_point(p, compute_betas(p), n) for n in (1, 2, 7)]),
            _outcome(lambda: closed_form_trace(p, 12).trace),
            detect_cycle(p, 40),
        )

    def fresh(self, p):
        return DoubletonProblem(p.hyperplane, p.b1, p.b2, p.x0, p.tie_policy)

    def test_equality_hash_and_repr_unchanged(self):
        for p in _applicable_and_refused():
            before = (hash(p), repr(p))
            self.use(p)
            q = self.fresh(p)
            assert p == q and q == p
            assert (hash(p), repr(p)) == before == (hash(q), repr(q))
            assert repr(p) == (
                f"DoubletonProblem(hyperplane={p.hyperplane!r}, b1={p.b1!r}, "
                f"b2={p.b2!r}, x0={p.x0!r}, tie_policy={p.tie_policy!r})"
            )

    def test_copies_and_pickles_after_use(self):
        A = Hyperplane((1.0,))
        f64 = DoubletonProblem(A, (-1.0,), (3.7,), (0.0,))
        for p in _applicable_and_refused() + [f64]:
            outcomes = self.use(p)
            for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert clone == p and hash(clone) == hash(p) and repr(clone) == repr(p)
                assert self.use(clone) == outcomes
                assert self.use(self.fresh(p)) == outcomes

    def test_compute_betas_is_the_instance_betas(self):
        for p in _applicable_and_refused():
            assert compute_betas(p) is compute_betas(p)
            assert compute_betas(p) == compute_betas(self.fresh(p))

    def test_hand_built_betas_give_the_same_points_and_refusals(self):
        for p in _applicable_and_refused():
            b = compute_betas(p)
            hand = Betas(b.beta1, b.beta2, b.beta)
            assert hand == b and hand is not b
            for n in (1, 2, 3, 10, 41):
                assert _outcome(lambda: closed_form_point(p, hand, n)) == _outcome(
                    lambda: closed_form_point(p, b, n)
                )

    def count_builds(self, monkeypatch):
        built = {OffsetLattice: 0, SetLattice: 0, LinePoints: 0}
        for cls in built:
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        return built

    def test_one_lattice_and_one_point_evaluator_per_problem(self, monkeypatch):
        # starts on the hyperplane with rational distance ratios, so the
        # cycle search decodes a cycle and the corollary applies
        exact = [line_doubleton(-1, 2), surd_line_doubleton(Surd(0, -1, 2), Surd(0, 2, 2))]
        for p in exact:
            built = self.count_builds(monkeypatch)
            assert detect_cycle(p, 100).status == "cycle"
            closed_form_trace(p, 20)
            for n in (1, 2, 7):
                closed_form_point(p, compute_betas(p), n)
                corollary_point(p, n)
            assert built == {OffsetLattice: 1, SetLattice: 0, LinePoints: 1}
            assert p.finite_set() is p.finite_set()
        f64 = DoubletonProblem(Hyperplane((1.0,)), (-1.0,), (2.0,), (0.0,))
        built = self.count_builds(monkeypatch)
        assert detect_cycle(f64, 100).status == "cycle"
        closed_form_trace(f64, 20)
        assert built[OffsetLattice] <= 1 and built[SetLattice] == built[LinePoints] == 0

    def test_one_lattice_and_one_point_evaluator_per_iterate(self, monkeypatch):
        A = Hyperplane((Fraction(1),))
        doubleton = line_doubleton(-1, 2, Fraction(1, 3))
        triple = FiniteSet.ordered([(Fraction(-1),), (Fraction(2),), (Fraction(5, 2),)], A)
        for B, lattice in ((doubleton.finite_set(), OffsetLattice), (triple, SetLattice)):
            for slim, points in ((False, 1), (True, 0)):
                built = self.count_builds(monkeypatch)
                iterate(A, B, (Fraction(1, 3),), 50, slim=slim)
                assert built == {OffsetLattice: 0, SetLattice: 0, lattice: 1, LinePoints: points}
        Af = Hyperplane((1.0,))
        vector_runs = [
            (Af, FiniteSet.ordered([(-1.0,), (2.0,)], Af), (0.5,)),  # f64
            (A, FiniteSet.ordered([(Fraction(1),), (Fraction(2),)], A), (Fraction(0),)),
            (A, FiniteSet.ordered([(Fraction(0),), (Fraction(2),)], A), (Fraction(1),)),
        ]
        for plane, B, x0 in vector_runs:
            built = self.count_builds(monkeypatch)
            iterate(plane, B, x0, 50)
            assert built == {OffsetLattice: 0, SetLattice: 0, LinePoints: 0}

    def test_verify_builds_one_orbit_per_side(self, monkeypatch):
        # the closed form reads p's orbit and iterate derives its own, so the
        # two sides of the oracle share no lattice or point evaluator
        for p in (line_doubleton(-1, 2), surd_line_doubleton(-1, Surd(0, 1, 2))):
            built = self.count_builds(monkeypatch)
            assert verify_closed_form(p, 30).ok
            assert built == {OffsetLattice: 2, SetLattice: 0, LinePoints: 2}

    def test_other_betas_are_not_served_the_instance_plan(self):
        # Betas of another value are refused although p's own plan (already
        # built) applies
        p = line_doubleton(-1, 2)
        assert closed_form_point(p, compute_betas(p), 3) == ((Fraction(0),), 1)
        shifted = Betas(Fraction(-1), Fraction(2), Fraction(-3))
        with pytest.raises(PreconditionError, match="not the offset constants"):
            closed_form_point(p, shifted, 3)
        assert closed_form_point(p, compute_betas(p), 3) == ((Fraction(0),), 1)
