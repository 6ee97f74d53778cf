"""Acceptance gate: ten end-to-end checks at their pinned tolerances.

Each test_criterion_* test is one criterion; the terminal summary
(conftest) prints one PASS/FAIL line per criterion. Randomized suites are
seeded, so every run checks the same instances. The period and balance
property tests after criterion 5 read its seeded orbits.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from drplane.altproj import ap_iterate
from drplane.closedform import (
    RegionLabel,
    beatty_triple,
    closed_form_point,
    compute_betas,
    region_of,
    verify_closed_form,
)
from drplane.cycling import (
    DoubletonProblem,
    cycle_relation,
    detect_cycle,
    rationality_predicate,
)
from drplane.dynamics import (
    Outcome,
    check_step_gap,
    detect_finite_convergence,
    iterate,
    run_json,
)
from drplane.geometry import (
    FiniteSet,
    Hyperplane,
    TiePolicy,
    norm_sq,
    project_finite_set,
    project_hyperplane,
    reflect_hyperplane,
    vadd,
    vscale,
    vsub,
)
from drplane.geometry import dr_step
from drplane.scalars import Surd, format_scalar

SQRT2 = Surd(0, 1, 2)
HORIZON_CYCLING = 10**5
HORIZON_FORMULA = 10**4


def _line(b1, b2, x0=0):
    A = Hyperplane((Fraction(1),))
    return DoubletonProblem(A, (Fraction(b1),), (Fraction(b2),), (Fraction(x0),))


def _surd_line(b1, b2, x0=0):
    lift = lambda v: v if isinstance(v, Surd) else Surd(v, 0, 2)  # noqa: E731
    A = Hyperplane((Surd(1, 0, 2),))
    return DoubletonProblem(A, (lift(b1),), (lift(b2),), (lift(x0),))


def _float_line(b1, b2, x0=0.0):
    A = Hyperplane((1.0,))
    return DoubletonProblem(A, (float(b1),), (float(b2),), (float(x0),))


def _plane_sqrt2(alpha=0):
    z = lambda v: Surd(v, 0, 2)  # noqa: E731
    A = Hyperplane((z(0), z(1)))
    return DoubletonProblem(A, (z(0), z(-1)), (z(1), SQRT2), (z(alpha), z(0)))


def _formula_instances():
    return [
        _line(-1, Fraction(3, 2)),
        _line(-1, 2),
        _line(-1, Fraction(5, 2)),
        _line(-1, 7),
        _surd_line(-1, SQRT2),
        _surd_line(-1, Surd(1, 1, 2)),
    ]


def _random_rational_doubletons(count):
    rng = random.Random(20260814)
    out = []
    while len(out) < count:
        b1 = -Fraction(rng.randint(1, 40), rng.randint(1, 20))
        b2 = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        x0 = Fraction(rng.randint(-30, 30), rng.randint(1, 20))
        if rng.random() < 0.2:
            # planar, with lateral separation between the two points
            A = Hyperplane((Fraction(0), Fraction(1)))
            p = DoubletonProblem(
                A,
                (Fraction(rng.randint(-3, 3)), b1),
                (Fraction(rng.randint(-3, 3)), b2),
                (Fraction(rng.randint(-3, 3)), x0),
            )
        else:
            p = _line(b1, b2, x0)
        out.append(p)
    return out


def _random_irrational_ratio_doubletons(count):
    rng = random.Random(97)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(0, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(0, 5), rng.randint(1, 4))
        c = Fraction(rng.randint(0, 5), rng.randint(1, 4))
        e = Fraction(rng.randint(0, 5), rng.randint(1, 4))
        if a + b == 0 or c + e == 0:
            continue
        # (a+b*sqrt2)/(c+e*sqrt2) is rational iff (a,b) and (c,e) are
        # parallel over Q; keep only the irrational-ratio instances
        if a * e == b * c:
            continue
        x0 = Surd(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-2, 2), 2), 2)
        out.append(_surd_line(Surd(-a, -b, 2), Surd(c, e, 2), x0))
    return out


# filled by criterion 5, reused by criterion 7 so the same runs are checked
_CRIT5_RATIONAL: list = []
_CRIT5_SURD: list = []


def test_criterion_01_rational_example_cycles():
    t0 = time.perf_counter()
    p = _line(-1, 2)
    run = iterate(p.hyperplane, p.finite_set(), p.x0, 12)
    assert [rec.x[0] for rec in run.trace] == ([0, -1, 1] * 5)[:13]
    report = detect_cycle(p, HORIZON_CYCLING)
    assert report.status == "cycle"
    assert (report.preperiod, report.period) == (0, 3)
    assert rationality_predicate(p) is True
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_surd_example_aperiodic():
    t0 = time.perf_counter()
    p = _surd_line(-1, SQRT2)
    run = iterate(p.hyperplane, p.finite_set(), p.x0, 7)
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
    assert [rec.x[0] for rec in run.trace] == expected
    assert detect_cycle(p, 10**4).status == "no_cycle"
    assert rationality_predicate(p) is False
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_closed_form_oracle_equivalence():
    t0 = time.perf_counter()
    for p in _formula_instances():
        report = verify_closed_form(p, HORIZON_FORMULA)
        assert report.ok and report.checked == HORIZON_FORMULA
        # spot-check the public point evaluator against a fresh direct run
        betas = compute_betas(p)
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 300)
        for n in range(1, 301):
            x, k = closed_form_point(p, betas, n)
            assert x == run.trace[n].x and k == run.trace[n].selector_k
    # the same instances on the float backend, at <= 1e-9 relative
    for b2 in (1.5, 2.0, 2.5, 7.0, 2.0**0.5):
        assert verify_closed_form(_float_line(-1.0, b2), HORIZON_FORMULA).ok
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_planar_surd_beatty_form():
    p = _plane_sqrt2(0)
    assert verify_closed_form(p, HORIZON_FORMULA).ok
    run = iterate(p.hyperplane, p.finite_set(), p.x0, HORIZON_FORMULA)
    for n in range(HORIZON_FORMULA + 1):
        u_n, v_n, w_n = beatty_triple(n)
        assert run.trace[n].x == (Surd(u_n, 0, 2), Surd(-v_n, w_n, 2))


def test_criterion_05_cycling_characterization_suite():
    for p in _random_rational_doubletons(200):
        report = detect_cycle(p, HORIZON_CYCLING)
        assert report.status == "cycle"
        assert rationality_predicate(p) is True
        _CRIT5_RATIONAL.append((p, report))
    for p in _random_irrational_ratio_doubletons(50):
        report = detect_cycle(p, HORIZON_CYCLING)
        assert report.status == "no_cycle"
        assert report.horizon == HORIZON_CYCLING
        assert rationality_predicate(p) is False
        _CRIT5_SURD.append(p)


def _crit5_rational():
    return _CRIT5_RATIONAL or [
        (p, detect_cycle(p, HORIZON_CYCLING)) for p in _random_rational_doubletons(200)
    ]


def _balanced(word) -> bool:
    """Any two factors of word of equal length differ by at most one in
    their count of 2s (Lothaire, Algebraic Combinatorics on Words, ch. 2)."""
    prefix = [0]
    for k in word:
        prefix.append(prefix[-1] + (k == 2))
    n = len(word)
    for length in range(1, n):
        counts = [prefix[i + length] - prefix[i] for i in range(n - length + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def _periodic_balanced(period) -> bool:
    """_balanced for the infinite word period*period*..., in one pass.

    With N 2s among the L letters of the period and P(i) the 2s among its
    first i, a factor from i to j holds ((j - i)*N + D(j) - D(i))/L 2s, where
    D(i) = L*P(i) - i*N repeats with period L.  The length-l counts average
    l*N/L, so the word is balanced exactly when each lies in
    {floor(l*N/L), ceil(l*N/L)}, that is when max D - min D < L.
    """
    size, twos = len(period), period.count(2)
    d, count = [], 0
    for i, k in enumerate(period):
        d.append(size * count - i * twos)
        count += k == 2
    return max(d) - min(d) < size


def _cycle_word(p, report):
    """The selectors k_{mu+1} .. k_{mu+lambda} of one period after the preperiod."""
    steps = report.preperiod + report.period
    run = iterate(p.hyperplane, p.finite_set(), p.x0, steps, slim=True)
    return [r.selector_k for r in run.trace[report.preperiod + 1:]]


def test_periodic_balance_matches_its_definition():
    for size in range(1, 11):
        for period in itertools.product((1, 2), repeat=size):
            # every factor of period^infinity up to length L lies in period*2
            assert _periodic_balanced(period) == _balanced(period * 2), period


def test_rational_period_and_balance():
    """On criterion 5's seeded rational doubletons, every 1-D instance and
    every planar one with beta + beta2 >= 0 has minimal period q1 + q2, the
    sum of cycle_relation's coprime pair, and a balanced selector word after
    its preperiod.  On every instance the period is a multiple of q1 + q2:
    over one period the offset returns, so c1*beta1 + c2*beta2 = 0 for the
    selector counts c1, c2."""
    checked = 0
    for p, report in _crit5_rational():
        q1, q2 = cycle_relation(p)
        assert report.period % (q1 + q2) == 0
        if p.hyperplane.dim == 1 or p.beta + p.beta2 >= 0:
            assert report.period == q1 + q2
            assert _periodic_balanced(_cycle_word(p, report))
            checked += 1
    assert checked == 176  # 165 on the line, 11 planar


def _run_length_period(p, horizon):
    """The minimal period of p's orbit from a walk over its runs of one
    selector, or None when no run start repeats within horizon steps.

    Independent of the lattice and the cycle search: after a step with
    selector k to offset c, R_A x is P_A b_k - c*u, so b1 wins when
    2*c*(beta1 - beta2) < |P_A b_k - b2|^2 - |P_A b_k - b1|^2, that is when
    c passes the threshold t_k (ties going to b2 under higher_inner only).
    A run of 1s lowers c by -beta1 a step while c > t_1, a run of 2s raises
    it by beta2 while c < t_2, so each run takes one floor division.  The
    starts (k, c) of the runs are hashed, and the first repeat is one
    period apart in steps."""
    A, B = p.hyperplane, p.finite_set()
    (b1, b2), (beta1, beta2) = B.points, B.inners
    thresholds = []
    for b, beta in zip(B.points, B.inners):
        shadow = vsub(b, vscale(beta, A.normal))
        gap = norm_sq(vsub(shadow, b2)) - norm_sq(vsub(shadow, b1))
        thresholds.append(gap / (2 * (beta1 - beta2)))
    ties_to_2 = p.tie_policy is TiePolicy.HIGHER_INNER
    x1, k = dr_step(A, B, p.x0)
    c, n, starts = A.inner(x1), 1, {}
    while n <= horizon:
        back = starts.setdefault((k, c), n)
        if back != n:
            return n - back
        # d > 0 continues the run; at d == 0 the tie policy decides
        if k == 1:
            d, step, ties_continue = c - thresholds[0], -beta1, not ties_to_2
        else:
            d, step, ties_continue = thresholds[1] - c, beta2, ties_to_2
        if ties_continue:
            run = max(0, d // step + 1)
        else:
            run = max(0, -(-d // step))
        c += run * (beta1 if k == 1 else beta2)
        k = 3 - k
        c += beta1 if k == 1 else beta2
        n += run + 1
    return None


def test_run_length_walk_periods():
    """An independent period oracle: the run-length walk finds detect_cycle's
    period on every rational doubleton of criterion 5."""
    for p, report in _crit5_rational():
        assert _run_length_period(p, HORIZON_CYCLING) == report.period


def test_planar_shifted_window_exceptions_observed():
    """Observed on criterion 5's seeded data, not a claim of the paper: of
    the 24 planar instances with beta + beta2 < 0, five have a period that
    is a larger multiple of q1 + q2 and eight, those five among them, have
    an unbalanced selector word."""
    multiples, unbalanced, shifted = [], [], 0
    for p, report in _crit5_rational():
        if p.hyperplane.dim == 1 or p.beta + p.beta2 >= 0:
            continue
        shifted += 1
        q1, q2 = cycle_relation(p)
        if report.period != q1 + q2:
            multiples.append(report.period // (q1 + q2))
        if not _periodic_balanced(_cycle_word(p, report)):
            unbalanced.append(report.period // (q1 + q2))
    assert shifted == 24
    assert sorted(multiples) == [2, 2, 4, 6, 7]
    assert len(unbalanced) == 8
    assert sorted(m for m in unbalanced if m > 1) == sorted(multiples)


def _planar_irrational_doubletons(count):
    """Seeded planar sqrt(2) doubletons with lateral separation, irrational
    distance ratio and beta + beta2 >= 0."""
    rng = random.Random(2027)
    z = lambda v: Surd(v, 0, 2)  # noqa: E731
    A = Hyperplane((z(0), z(1)))
    out = []
    while len(out) < count:
        b1 = (z(rng.randint(-3, 3)), z(-Fraction(rng.randint(1, 8), rng.randint(1, 4))))
        b2 = (
            z(rng.randint(-3, 3)),
            Surd(Fraction(rng.randint(0, 4), rng.randint(1, 3)),
                 Fraction(rng.randint(1, 4), rng.randint(1, 3)), 2),
        )
        x0 = (z(rng.randint(-3, 3)),
              Surd(Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-2, 2), 2), 2))
        p = DoubletonProblem(A, b1, b2, x0)
        if b1[0] != b2[0] and p.beta + p.beta2 >= 0:
            out.append(p)
    return out


def test_irrational_selector_words_balanced():
    """Criterion 5's irrational doubletons (all 1-D), the planar sqrt(2)
    instance of problems/r2_beatty.json and seeded planar irrational ones
    with beta + beta2 >= 0: 300 selectors from the first state in the
    absorbing window on form a balanced word."""
    pool = _CRIT5_SURD or _random_irrational_ratio_doubletons(50)
    for p in pool + [_plane_sqrt2(0)] + _planar_irrational_doubletons(8):
        assert cycle_relation(p) is None
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 400, slim=True)
        betas = compute_betas(p)
        entry = next(
            r.n for r in run.trace[1:]
            if region_of(betas, r.inner, r.selector_k) is not RegionLabel.OUTSIDE
        )
        word = [r.selector_k for r in run.trace[entry:entry + 300]]
        assert len(word) == 300 and _balanced(word)


def test_criterion_06_selector_frequency_limits():
    n_max = HORIZON_FORMULA
    p = _line(-1, 2)
    run = iterate(p.hyperplane, p.finite_set(), p.x0, n_max)
    records = json.loads(run_json(run, p.hyperplane, p.finite_set()))["records"]
    for n in range(1, n_max + 1):
        c1 = records[n]["counts"][0]
        assert abs(Fraction(c1, n) - Fraction(2, 3)) <= Fraction(2, n)
    p2 = _surd_line(-1, SQRT2)
    run2 = iterate(p2.hyperplane, p2.finite_set(), p2.x0, n_max)
    c1 = json.loads(run_json(run2, p2.hyperplane, p2.finite_set()))["records"][n_max]["counts"][0]
    # limit sqrt2/(1+sqrt2) = 2 - sqrt2; the bound 10/n, all exactly
    deviation = abs(Surd(Fraction(c1, n_max) - 2, 1, 2))
    assert deviation <= Surd(Fraction(10, n_max), 0, 2)


def _transitions_bounded(p):
    """Exact step-gap bound for every step after the first.

    From step 1 on the difference x_{n+1} - x_n is determined by the selector
    pair alone, so it is one of exactly four vectors; bounding those four
    bounds every later step of a run of any length.
    """
    u = p.hyperplane.normal
    beta1, beta2 = p.beta1, p.beta2
    min_d2 = min(beta1 * beta1, beta2 * beta2)
    diffs = [
        vscale(beta1, u),
        vscale(beta2, u),
        vadd(vscale(beta1, u), vsub(p.b1, p.b2)),
        vadd(vscale(beta2, u), vsub(p.b2, p.b1)),
    ]
    return all(norm_sq(d) >= min_d2 for d in diffs)


def _dr_step_gaps_bounded(p, steps):
    """Step-gap bound on every gap of a plain dr_step loop from x0.

    check_step_gap and _transitions_bounded both read gaps from selector
    pairs; this takes each gap on the iterates themselves, so the criterion
    does not rest on that reduction alone.
    """
    A, B = p.hyperplane, p.finite_set()
    min_d2 = min(p.beta1 * p.beta1, p.beta2 * p.beta2)
    x = p.x0
    for _ in range(steps):
        nxt, _k = dr_step(A, B, x)
        if norm_sq(vsub(nxt, x)) < min_d2:
            return False
        x = nxt
    return True


def test_criterion_07_step_gap_invariant():
    named = _formula_instances() + [_line(-1, 2), _surd_line(-1, SQRT2), _plane_sqrt2(0)]
    for p in named:
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 2000, slim=True)
        assert check_step_gap(run, p.hyperplane, p.finite_set())
        assert _transitions_bounded(p)
        assert _dr_step_gaps_bounded(p, 2000)
    for p, report in _crit5_rational():
        # the orbit repeats states from preperiod+period on, so this prefix
        # contains every consecutive pair the infinite run ever produces
        steps = report.preperiod + report.period + 1
        run = iterate(p.hyperplane, p.finite_set(), p.x0, steps, slim=True)
        assert check_step_gap(run, p.hyperplane, p.finite_set())
        assert _dr_step_gaps_bounded(p, steps)
    surd_pool = _CRIT5_SURD or _random_irrational_ratio_doubletons(50)
    for p in surd_pool:
        run = iterate(p.hyperplane, p.finite_set(), p.x0, 1000, slim=True)
        assert check_step_gap(run, p.hyperplane, p.finite_set())
        assert _transitions_bounded(p)
        assert _dr_step_gaps_bounded(p, 1000)


def test_criterion_08_halfspace_dichotomy():
    A = Hyperplane((Fraction(0), Fraction(1)))
    B = FiniteSet.ordered([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))], A)
    run = iterate(A, B, (Fraction(0), Fraction(0)), 5000)
    assert run.outcome is Outcome.DIVERGENCE
    assert run.shadow_limit == (0, 0)
    assert all(project_hyperplane(A, rec.x) == (0, 0) for rec in run.trace)
    assert min(norm_sq(vsub(b, run.shadow_limit)) for b in B.points) == 1

    B2 = FiniteSet.ordered([(Fraction(0), Fraction(0)), (Fraction(0), Fraction(2))], A)
    run2 = iterate(A, B2, (Fraction(1), Fraction(1)), 10)
    assert run2.outcome is Outcome.FIXED_POINT
    assert run2.fixed_at is not None and run2.fixed_at <= 2
    _, shadow = detect_finite_convergence(run2, A, B2)
    assert shadow in B2.points and A.inner(shadow) == 0


def test_criterion_09_alternating_projections_contrast():
    steps = 11
    expected = [["0"], ["0"]] + [["-1"] if i % 2 == 0 else ["0"] for i in range(2, steps + 1)]
    for p in (_line(-1, 2), _surd_line(-1, SQRT2)):
        trace = ap_iterate(p.hyperplane, p.finite_set(), p.x0, steps)
        assert [[format_scalar(c) for c in pt] for pt in trace.points] == expected


def _random_unit_normal(rng, dim, lift):
    if dim == 1:
        return (lift(rng.choice((-1, 1))),)
    axis = rng.randrange(dim)
    vec = [lift(0)] * dim
    if rng.random() < 0.3 and dim >= 2:
        other = (axis + 1) % dim
        sign = rng.choice((-1, 1))
        vec[axis] = lift(Fraction(3, 5) * sign)
        vec[other] = lift(Fraction(4, 5))
    else:
        vec[axis] = lift(rng.choice((-1, 1)))
    return tuple(vec)


def test_criterion_10_operator_property_suite():
    rng = random.Random(1012)
    target = 10**4
    for trial in range(target):
        use_surd = trial % 5 == 0
        dim = rng.choice((1, 2, 3))
        if use_surd:
            lift = lambda v: Surd(v, 0, 2)  # noqa: E731
            rand = lambda: Surd(  # noqa: E731
                Fraction(rng.randint(-12, 12), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                2,
            )
        else:
            lift = Fraction  # noqa: E731
            rand = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 8))  # noqa: E731
        A = Hyperplane(_random_unit_normal(rng, dim, lift))
        x = tuple(rand() for _ in range(dim))

        proj = project_hyperplane(A, x)
        assert project_hyperplane(A, proj) == proj
        refl = reflect_hyperplane(A, x)
        assert reflect_hyperplane(A, refl) == x

        pts = set()
        while len(pts) < rng.choice((2, 3, 4)):
            pts.add(tuple(rand() for _ in range(dim)))
        B = FiniteSet.ordered(sorted(pts), A)
        nearest, k = project_finite_set(B, x)
        assert project_finite_set(B, nearest)[0] == nearest

        nxt, sel = dr_step(A, B, x)
        chosen, sel2 = project_finite_set(B, refl)
        assert sel == sel2
        assert nxt == vadd(vsub(x, proj), chosen)
        # the next iterate sits on the normal line through the chosen point
        assert vsub(nxt, B.points[sel - 1]) == vscale(A.inner(x), A.normal)
