"""Cycle analysis for two-point targets.

For a doubleton B = {b1, b2} straddling the hyperplane, the iteration either
settles into an exact cycle or never repeats; which one happens is decided by
whether the distance ratio d_A(b1)/d_A(b2) is rational.  This module exposes
that predicate, an empirical cycle detector with exact state hashing, and the
long-run frequencies of the two selectors.

After the first step the whole state is the pair (selector k, offset c),
and the iterate is x_n = (c - beta_k)*u + b_k.  A DoubletonProblem is a
checked view of the :class:`~drplane.dynamics.Orbit` of x0, which holds the
doubleton's data and derives on first use, on every backend, the first
step, the window constant, the :class:`~drplane.lattice.OffsetLattice`
started at <x0,u> and its point evaluator ``line_points``.  The cycle
search takes the orbit and builds nothing of its own.

The detector walks the lattice from the orbit's state 1, ``Orbit.start``;
the exact backends find its first revisited state (k, a, b) with
:class:`~drplane.lattice.Revisit`, whose module states its table policy,
running its table loop directly on the lattice's walk.  The float
backend's pairs are (offset, 0), which it hashes quantized into cells, a
table that grows with the horizon, and it labels its reports approximate.
States exist from n = 1 only, so an iterate x_n that repeats an earlier
one may show only at state n + 1: both searches read states to horizon + 1,
and the report is 'cycle' exactly when the iterates' first repeat index,
preperiod + period, is at most the horizon.  Only the states of a found
cycle are decoded, in one batch by the orbit's ``line_points.iterates``: on
the exact backends as ``Revisit`` walks round the cycle, once a walk of at
most spacing + period steps has shown that a sampled hit past the horizon
closes within it, and on f64 as a second walk from state 1 passes them.
States that may first repeat at horizon + 1 are walked round undecoded, a
cycle only if the iterates of the states before and at its end agree.  A
found cycle costs its report plus O(TABLE_BUDGET + spacing).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from operator import attrgetter

from .dynamics import ClassificationKind, Orbit, RunResult, log_path
from .errors import BackendError, PreconditionError
from .geometry import FiniteSet, Hyperplane, TiePolicy, Vector
from .lattice import Revisit, _paused
from .problems import Problem
from .scalars import F64, F64_REL_TOL, as_fraction, encode_scalar, format_scalar, is_rational
from .slotted import Value


class DoubletonProblem(Value):
    """Two-point feasibility instance with b1 below the hyperplane, b2 above:
    a checked view of the :class:`~drplane.dynamics.Orbit` of x0.

    The orbit holds the one copy of the doubleton's data, and every field,
    offset and the window constant ``beta`` are read from it.  The
    constructor checks b1 and b2 with ``hyperplane.check``; ``from_problem``
    takes a loaded problem's checked, ordered points as they are.  On both
    paths the orbit checks x0.  Copies and pickles keep the orbit, its
    lattice and ``line_points`` included."""

    _fields = ("hyperplane", "b1", "b2", "x0", "tie_policy")
    # the orbit, and the closed form's Betas, plan and corollary verdict,
    # derived on first use in drplane.closedform and kept
    __slots__ = ("orbit", "_betas", "_closed_form", "_corollary")

    hyperplane = property(attrgetter("orbit.A"))
    x0 = property(attrgetter("orbit.x0"))
    tie_policy = property(attrgetter("orbit.B.tie_policy"))
    backend = property(attrgetter("orbit.A.backend"))
    beta = property(attrgetter("orbit.window"))
    b1 = property(lambda self: self.orbit.B.points[0])
    b2 = property(lambda self: self.orbit.B.points[1])
    beta1 = property(lambda self: self.orbit.B.inners[0])
    beta2 = property(lambda self: self.orbit.B.inners[1])

    def __init__(self, hyperplane: Hyperplane, b1: Vector, b2: Vector, x0: Vector,
                 tie_policy: TiePolicy = TiePolicy.HIGHER_INNER):
        A = hyperplane
        A.check("b1", b1)
        A.check("b2", b2)
        b1, b2 = tuple(b1), tuple(b2)
        self._view(Orbit(A, FiniteSet((b1, b2), (A.inner(b1), A.inner(b2)), tie_policy), x0))

    def _view(self, orbit: Orbit) -> None:
        # b1 below and b2 above, neither on the hyperplane; so the two
        # points are also ordered and distinct
        cls = orbit.classification
        if cls.kind != ClassificationKind.STRADDLING or cls.intersects:
            beta1, beta2 = orbit.B.inners
            offsets = f"offsets {format_scalar(beta1)}, {format_scalar(beta2)}"
            if not cls.intersects and beta2 < 0 < beta1:
                raise PreconditionError(
                    f"b1 must lie below the hyperplane and b2 above it: {offsets}"
                )
            raise PreconditionError(f"doubleton must straddle the hyperplane strictly: {offsets}")
        orbit.window  # refuses a non-finite f64 window constant here
        self._set(orbit=orbit, _betas=None, _closed_form=None, _corollary=None)

    def finite_set(self) -> FiniteSet:
        return self.orbit.B

    @classmethod
    def from_problem(cls, problem: Problem) -> "DoubletonProblem":
        """The view of the problem's orbit on its checked, ordered points."""
        if problem.points.m != 2:
            raise PreconditionError(
                f"cycling analysis requires a doubleton (got {problem.points.m} points)"
            )
        p = object.__new__(cls)
        p._view(Orbit(problem.hyperplane, problem.points, problem.x0))
        return p


class CycleReport(Value):
    """Outcome of a bounded cycle search.

    status 'cycle': x_{preperiod} onward repeats with the given minimal
    period; states lists one full cycle starting at x_{preperiod}.
    status 'no_cycle': no exact state recurrence within the horizon.
    """

    __slots__ = _fields = ("status", "horizon", "preperiod", "period", "states", "approximate")

    def __init__(
        self,
        status: str,
        horizon: int,
        preperiod: int | None = None,
        period: int | None = None,
        states: tuple[Vector, ...] | None = None,
        approximate: bool = False,
    ):
        self._set(
            status=status, horizon=horizon, preperiod=preperiod, period=period,
            states=states, approximate=approximate,
        )

    def to_dict(self) -> dict:
        if self.status != "cycle":
            return {"status": "no_cycle", "horizon": self.horizon}
        out = {
            "status": "cycle",
            "preperiod": self.preperiod,
            "period": self.period,
            "states": [[encode_scalar(c) for c in x] for x in self.states],
        }
        if self.approximate:
            out["approximate"] = True
        return out


def rationality_predicate(p: DoubletonProblem) -> bool:
    """Exact test: is d_A(b1)/d_A(b2) a rational number?

    True predicts eventual cycling from any start; false predicts that no
    state ever recurs.  Exact backends only.
    """
    if p.backend == F64:
        raise BackendError(
            "every ratio of floats is rational; whether the real data they "
            "approximate have a rational distance ratio cannot be decided from "
            "them: use an exact backend or the CLI heuristic flag"
        )
    return is_rational((-p.beta1) / p.beta2)


def cycle_relation(p: DoubletonProblem) -> tuple[int, int] | None:
    """Minimal coprime positive (q1, q2) with q1*d_A(b1) = q2*d_A(b2).

    None when the distance ratio is irrational.  The relation constrains
    selector counts over one period; it is arithmetic only, not a period.
    """
    if p.backend == F64:
        raise BackendError("cycle relation needs an exact backend")
    ratio = (-p.beta1) / p.beta2
    if not is_rational(ratio):
        return None
    frac = as_fraction(ratio)
    return frac.denominator, frac.numerator


@_paused
def detect_cycle(p: DoubletonProblem, horizon: int) -> CycleReport:
    """Search for a state recurrence within the first `horizon` iterates.

    The report is 'cycle' exactly when the first repeat index, preperiod +
    period, is at most `horizon`.  Exact backends hash exact states, so a
    hit certifies a genuine cycle and the returned preperiod/period are
    minimal; their table is :class:`~drplane.lattice.Revisit`'s, of memory
    O(TABLE_BUDGET) at any horizon, and a found cycle costs its report plus
    O(TABLE_BUDGET + spacing).  The float backend quantizes
    offsets at relative tolerance F64_REL_TOL into a table of cells that
    grows with the horizon, and labels the report approximate.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if p.backend == F64:
        log_path(__name__, "detect_cycle: quantized float offsets (f64 backend)")
        return _detect_float(p.orbit, horizon)
    log_path(__name__, "detect_cycle: integer lattice")
    return _detect_exact(p.orbit, horizon)


def _detect_exact(orbit, horizon):
    # states to horizon + 1, the first that can show x_horizon repeating
    start, walk = orbit.start, orbit.lattice.walk
    found = Revisit(start, horizon + 1)
    # a sampled hit may come after the first repeat, past the horizon
    if not (found.search(walk(*start)) and found.within_horizon(walk)):
        return CycleReport("no_cycle", horizon)
    if found.spacing > 1:
        log_path(__name__, "detect_cycle: sampled table hit at spacing %d", found.spacing)
    edge = found.n > horizon  # states that may first repeat at horizon + 1 stay undecoded
    lam, before, states = found.cycle(walk, list if edge else orbit.line_points.iterates)
    if edge:
        # then they are a cycle only if the iterates repeat one step earlier
        if lam + len(states) > horizon and _iterate(orbit, before) != _iterate(orbit, states[-1]):
            return CycleReport("no_cycle", horizon)
        states = orbit.line_points.iterates(states)
    return _finalize_cycle(orbit, horizon, lam, before, states)


def _detect_float(orbit, horizon):
    """Quantized offset table, the search's only one: an approximate match
    probes the neighbouring cells, so it is not sampled.  It reads states to
    horizon + 1, as the exact search does.  A hit is decoded by walking
    again from state 1."""
    lat, start, inner1 = orbit.lattice, orbit.start, orbit.first_step[2]
    qstep = F64_REL_TOL * max(1.0, *map(abs, (inner1, *orbit.B.inners, lat.t1[0], lat.t2[0])))
    seen = {(start[0], round(inner1 / qstep)): (1, inner1)}
    for n, (k, off, _) in zip(range(2, horizon + 2), lat.walk(*start)):
        cell = round(off / qstep)
        first = None
        for probe in (cell - 1, cell, cell + 1):
            entry = seen.get((k, probe))
            if entry is not None and abs(entry[1] - off) <= qstep:
                first = entry[0]
                break
        if first is not None:
            # states 1, 2, ...: state first - 1, then states first .. n-1
            again = chain((start,), lat.walk(*start))
            before = next(islice(again, first - 2, None)) if first > 1 else None
            states = orbit.line_points.iterates(islice(again, n - first))
            return _finalize_cycle(orbit, horizon, first, before, states)
        seen.setdefault((k, cell), (n, off))
    return CycleReport("no_cycle", horizon)


def _vectors_match(x, y, approximate: bool) -> bool:
    if not approximate:
        return x == y
    tol = F64_REL_TOL * max(1.0, *(abs(c) for c in x))
    return all(abs(a - b) <= tol for a, b in zip(x, y))


def _iterate(orbit, state):
    """The iterate of state (k, a, b), as ``line_points.iterates`` gives it; x0 for None."""
    if state is None:
        return orbit.x0
    (k, a, b), (sa, sb) = state, orbit.lattice.steps[state[0] - 1]
    return orbit.line_points.point(k, a - sa, b - sb)


def _finalize_cycle(orbit, horizon, lam, before, states):
    """The orbit's report for first repeated key state lam, from the state
    ``before`` it (None for x0) and the iterates ``states`` of states lam ..
    lam+mu-1; approximate on f64.  Keys exist only from n=1, so the true
    preperiod may be exactly one step earlier.  Check it on vectors.  The
    searches read keys to horizon + 1, so the report is 'cycle' only when
    the iterates' first repeat index lam + mu is at most the horizon."""
    mu, approximate = len(states), orbit.A.backend == F64
    head = _iterate(orbit, before)
    if _vectors_match(head, states[-1], approximate):
        lam, states = lam - 1, (head, *islice(states, mu - 1))
    if lam + mu > horizon:
        return CycleReport("no_cycle", horizon)
    return CycleReport("cycle", horizon, lam, mu, states, approximate)


def coefficient_limits(p: DoubletonProblem, trace: RunResult):
    """Long-run selector frequencies and the deviation observed at the end.

    Returns (limit1, limit2, deviation): the selector-1 and selector-2
    frequencies converge to beta2/(beta2-beta1) and -beta1/(beta2-beta1),
    and deviation is |count_1/n - limit1| at the final record of trace.
    """
    records = trace.trace
    if len(records) < 2:
        raise PreconditionError("coefficient limits need at least one step")
    beta1, beta2 = p.beta1, p.beta2
    span = beta2 - beta1
    limit1 = beta2 / span
    limit2 = (-beta1) / span
    n = records[-1].n
    count1 = sum(1 for r in records[1:] if r.selector_k == 1)
    if p.backend == F64:
        observed = count1 / n
    else:
        observed = Fraction(count1, n)
    return limit1, limit2, abs(observed - limit1)
