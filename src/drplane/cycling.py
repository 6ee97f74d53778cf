"""Cycle analysis for two-point targets.

For a doubleton B = {b1, b2} straddling the hyperplane, the iteration either
settles into an exact cycle or never repeats; which one happens is decided by
whether the distance ratio d_A(b1)/d_A(b2) is rational.  This module exposes
that predicate, an empirical cycle detector with exact state hashing, and the
long-run frequencies of the two selectors.

After the first step the whole state is the pair (selector k, offset c),
and the iterate is x_n = (c - beta_k)*u + b_k.  A DoubletonProblem holds
the :class:`~drplane.dynamics.Orbit` of x0, which derives on first use, on
every backend, the first step, the window constant, the
:class:`~drplane.lattice.OffsetLattice` started at <x0,u> and the point
evaluator ``point(k, a, b)`` on the lattice's integer pairs.  The cycle
search and the closed form read these and build none of their own.

The detector walks the lattice from the pair of the first iterate's offset.
The exact backends hash the states (k, a, b) exactly in a table of at most
TABLE_BUDGET (2^13) keys: every state until it fills, then only the states
whose index is a multiple of a spacing that doubles each time it fills
again.  A hit past that point is a state of the cycle; one walk round the
cycle from it gives the minimal period and its keys, and one walk from the
start gives the preperiod.  Memory is O(TABLE_BUDGET + period), whatever the
horizon, and the search stops at index horizon + spacing.  The float
backend's pairs are (offset, 0), which it hashes quantized into cells with
one entry per state, and it labels its reports approximate.  Only the states
of a found cycle are decoded, each by ``point`` from the pair of the offset
before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .dynamics import ClassificationKind, Orbit, RunResult, log_path
from .errors import BackendError, PreconditionError
from .geometry import FiniteSet, Hyperplane, TiePolicy, Vector
from .problems import Problem
from .scalars import (
    F64,
    F64_REL_TOL,
    Scalar,
    as_fraction,
    encode_scalar,
    format_scalar,
    is_rational,
)

# The exact cycle search keeps at most this many states in its key table,
# about 2 MB on long surd orbits; past it the table is sampled.
TABLE_BUDGET = 2**13


@dataclass(frozen=True)
class DoubletonProblem:
    """Two-point feasibility instance with b1 below the hyperplane, b2 above.

    b1 and b2 are checked by ``hyperplane.check``, and x0 by its orbit."""

    hyperplane: Hyperplane
    b1: Vector
    b2: Vector
    x0: Vector
    tie_policy: TiePolicy = TiePolicy.HIGHER_INNER
    # signed offsets <b1,u>, <b2,u>, the window constant and the orbit of x0,
    # derived once from the fields above
    beta1: Scalar = field(init=False, repr=False, compare=False)
    beta2: Scalar = field(init=False, repr=False, compare=False)
    beta: Scalar = field(init=False, repr=False, compare=False)
    orbit: Orbit = field(init=False, repr=False, compare=False)
    # the closed form's Betas, plan and corollary verdict, derived on first
    # use in drplane.closedform and kept
    _betas: object = field(default=None, init=False, repr=False, compare=False)
    _closed_form: object = field(default=None, init=False, repr=False, compare=False)
    _corollary: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = self.hyperplane
        A.check("b1", self.b1)
        A.check("b2", self.b2)
        object.__setattr__(self, "tie_policy", TiePolicy(self.tie_policy))
        b1_off, b2_off = A.inner(self.b1), A.inner(self.b2)
        B = FiniteSet((tuple(self.b1), tuple(self.b2)), (b1_off, b2_off), self.tie_policy)
        orbit = Orbit(A, B, self.x0)
        # b1 below and b2 above, neither on the hyperplane; so the two
        # points are also ordered and distinct
        cls = orbit.classification
        if cls.kind != ClassificationKind.STRADDLING or cls.intersects:
            raise PreconditionError(
                "doubleton must straddle the hyperplane strictly: "
                f"offsets {format_scalar(b1_off)}, {format_scalar(b2_off)}"
            )
        object.__setattr__(self, "beta1", b1_off)
        object.__setattr__(self, "beta2", b2_off)
        object.__setattr__(self, "beta", orbit.window)
        object.__setattr__(self, "orbit", orbit)

    @property
    def backend(self) -> str:
        return self.hyperplane.backend

    def finite_set(self) -> FiniteSet:
        return self.orbit.B

    @classmethod
    def from_problem(cls, problem: Problem) -> "DoubletonProblem":
        if problem.points.m != 2:
            raise PreconditionError(
                f"cycling analysis requires a doubleton (got {problem.points.m} points)"
            )
        b1, b2 = problem.points.points  # already sorted by offset
        return cls(problem.hyperplane, b1, b2, problem.x0, problem.tie_policy)


@dataclass(frozen=True)
class CycleReport:
    """Outcome of a bounded cycle search.

    status 'cycle': x_{preperiod} onward repeats with the given minimal
    period; states lists one full cycle starting at x_{preperiod}.
    status 'no_cycle': no exact state recurrence within the horizon.
    """

    status: str
    horizon: int
    preperiod: int | None = None
    period: int | None = None
    states: tuple[Vector, ...] | None = None
    approximate: bool = False

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
            "rationality is undecidable on floats; use an exact backend "
            "or the CLI heuristic flag"
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


def detect_cycle(p: DoubletonProblem, horizon: int) -> CycleReport:
    """Search for a state recurrence within the first `horizon` iterates.

    The report is 'cycle' exactly when the first repeat index, preperiod +
    period, is at most `horizon`.  Exact backends hash exact states, so a
    hit certifies a genuine cycle and the returned preperiod/period are
    minimal; their table holds at most TABLE_BUDGET (2^13) states, so memory
    is O(TABLE_BUDGET + period) at any horizon, and a search that finds
    nothing walks to index horizon + spacing, the spacing being the table's
    sampling step (1 until the table first fills).  The float backend
    quantizes offsets at relative tolerance F64_REL_TOL, keeps one entry per
    state and labels the report approximate.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon == 1:
        return CycleReport("no_cycle", horizon)
    if p.backend == F64:
        log_path(__name__, "detect_cycle: quantized float offsets (f64 backend)")
        return _detect_float(p, horizon)
    log_path(__name__, "detect_cycle: integer lattice")
    return _detect_exact(p, horizon)


def _detect_exact(p, horizon):
    """Key table over the lattice states n = 1, 2, ..., dense then sampled.

    The table keeps every state until it holds TABLE_BUDGET of them; each
    time it fills, the spacing doubles and only the indices it divides stay,
    so the table holds the multiples of the spacing below n.  While the
    spacing is 1 the first hit is the first repeat index R = lam + mu.  Later
    a hit at n only shows some state of the cycle; it comes before R plus
    the spacing at the hit (doublings are TABLE_BUDGET/2 stored states
    apart), so the search stops at horizon + spacing, and one walk round the
    cycle and one from the start give mu and lam exactly.
    """
    _, k1, inner1 = p.orbit.first_step
    lat = p.orbit.lattice
    start = (k1, *lat.pair(inner1))
    seen = {start: 1}
    spacing, stop = 1, horizon + 1
    for n, key in zip(count(2), lat.walk(*start)):
        if n == stop:
            return CycleReport("no_cycle", horizon)
        first = seen.get(key)
        if first is not None:
            break
        if n % spacing == 0:
            seen[key] = n
            if len(seen) == TABLE_BUDGET:
                spacing *= 2
                stop = horizon + spacing
                seen = {k: i for k, i in seen.items() if i % spacing == 0}
    if spacing == 1:
        # the dense table lists states 1 .. n-1 in index order
        return _finalize_cycle(p, horizon, first, [None, *seen][first - 1 :])
    cycle = [key]
    for nxt in lat.walk(*key):
        if nxt == key:
            break
        cycle.append(nxt)
    on_cycle = set(cycle)
    before, key, lam = None, start, 1
    walk = lat.walk(*start)
    while key not in on_cycle:
        before, key = key, next(walk)
        lam += 1
    if lam + len(cycle) > horizon:
        # the first repeat lies past the horizon
        return CycleReport("no_cycle", horizon)
    i = cycle.index(key)
    return _finalize_cycle(p, horizon, lam, [before, *cycle[i:], *cycle[:i]])


def _detect_float(p, horizon):
    """Quantized offset table with one entry per state: an approximate match
    probes the neighbouring cells, so this table is not sampled."""
    _, k1, inner1 = p.orbit.first_step
    lat = p.orbit.lattice
    qstep = F64_REL_TOL * max(
        1.0, abs(inner1), abs(p.beta1), abs(p.beta2), abs(lat.t1[0]), abs(lat.t2[0])
    )
    key = (k1, *lat.pair(inner1))
    seen = {(k1, round(inner1 / qstep)): (1, inner1)}
    hist = [None, key]
    for n, key in zip(range(2, horizon + 1), lat.walk(*key)):
        k, off, _ = key
        cell = round(off / qstep)
        first = None
        for probe in (cell - 1, cell, cell + 1):
            entry = seen.get((k, probe))
            if entry is not None and abs(entry[1] - off) <= qstep:
                first = entry[0]
                break
        if first is not None:
            return _finalize_cycle(p, horizon, first, hist[first - 1 :], approximate=True)
        seen.setdefault((k, cell), (n, off))
        hist.append(key)
    return CycleReport("no_cycle", horizon)


def _vectors_match(x, y, approximate: bool) -> bool:
    if not approximate:
        return x == y
    tol = F64_REL_TOL * max(1.0, *(abs(c) for c in x))
    return all(abs(a - b) <= tol for a, b in zip(x, y))


def _finalize_cycle(p, horizon, lam, keys, approximate=False):
    """The report for first repeated key state lam, from keys = the states
    lam-1 .. lam+mu-1 (None for x0).  Keys exist only from n=1, so the true
    preperiod may be exactly one step earlier.  Check it on vectors."""
    shifts, point = (p.orbit.lattice.beta1, p.orbit.lattice.beta2), p.orbit.point

    def x(key):
        # x_t sits on b_k's line at the previous offset: the offset of state
        # t minus beta_k
        if key is None:
            return p.x0
        k, a, b = key
        sa, sb = shifts[k - 1]
        return point(k, a - sa, b - sb)

    xs = [x(key) for key in keys]
    mu = len(xs) - 1
    if _vectors_match(xs[0], xs[-1], approximate):
        return CycleReport("cycle", horizon, lam - 1, mu, tuple(xs[:-1]), approximate)
    return CycleReport("cycle", horizon, lam, mu, tuple(xs[1:]), approximate)


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
