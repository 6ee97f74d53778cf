"""Cycle analysis for two-point targets.

For a doubleton B = {b1, b2} straddling the hyperplane, the iteration either
settles into an exact cycle or never repeats; which one happens is decided by
whether the distance ratio d_A(b1)/d_A(b2) is rational.  This module exposes
that predicate, an empirical cycle detector with exact state hashing, and the
long-run frequencies of the two selectors.

The detector exploits the fact that after the first step the whole state is
captured by the pair (selector, signed offset): the iterate itself is
recoverable as x_n = (offset - beta_k) * u + b_k.  Offsets evolve by adding
beta_1 or beta_2, and the next selector depends only on the current pair via
fixed thresholds, so the search loop runs on small integers instead of
vectors.  Both exact backends run on the integer lattice of
:mod:`drplane.lattice`, which the iteration driver and the closed form share:
an offset is the triple (a, b, scale) meaning (a + b*sqrt(d))/scale,
rationals being the b = 0 slice, and states are hashed as (k, a, b); the
states of a found cycle are built from those integers by the lattice's
point evaluator.  The float backend walks the same selector rule on a float
lattice (offsets (v, 0) over scale 1), hashes the offsets quantized into
cells, and labels its reports approximate.  The first step and the window
constant are derived once per DoubletonProblem.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BackendError, PreconditionError
from .geometry import (
    FiniteSet,
    Hyperplane,
    TiePolicy,
    Vector,
    dr_step,
    line_point,
    vector_backend,
)
from .lattice import OffsetLattice, window_constant
from .problems import Problem
from .scalars import (
    F64,
    F64_ABS_TOL,
    F64_REL_TOL,
    Scalar,
    as_fraction,
    encode_scalar,
    format_scalar,
    is_rational,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DoubletonProblem:
    """Two-point feasibility instance with b1 below the hyperplane, b2 above."""

    hyperplane: Hyperplane
    b1: Vector
    b2: Vector
    x0: Vector
    tie_policy: TiePolicy = TiePolicy.HIGHER_INNER
    # signed offsets <b1,u>, <b2,u> and the window constant, computed once
    # from the fields above
    beta1: Scalar = field(init=False, repr=False, compare=False)
    beta2: Scalar = field(init=False, repr=False, compare=False)
    beta: Scalar = field(init=False, repr=False, compare=False)
    # derived on first use and kept: first_step() here, and the closed form's
    # Betas and plan in drplane.closedform
    _first_step: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _betas: object = field(default=None, init=False, repr=False, compare=False)
    _closed_form: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = self.hyperplane
        for name, v in (("b1", self.b1), ("b2", self.b2), ("x0", self.x0)):
            if len(v) != A.dim:
                raise PreconditionError(
                    f"{name} dimension {len(v)} != hyperplane dimension {A.dim}"
                )
            if vector_backend(v) != A.backend:
                raise BackendError(f"{name} does not match the hyperplane backend")
        object.__setattr__(self, "tie_policy", TiePolicy(self.tie_policy))
        b1_off, b2_off = A.inner(self.b1), A.inner(self.b2)
        object.__setattr__(self, "beta1", b1_off)
        object.__setattr__(self, "beta2", b2_off)
        if A.backend == F64:
            ok = b1_off < -F64_ABS_TOL and b2_off > F64_ABS_TOL
        else:
            ok = b1_off < 0 < b2_off
        if not ok:
            raise PreconditionError(
                "doubleton must straddle the hyperplane strictly: "
                f"offsets {format_scalar(b1_off)}, {format_scalar(b2_off)}"
            )
        object.__setattr__(self, "beta", window_constant(self.b1, self.b2, b1_off, b2_off))

    @property
    def backend(self) -> str:
        return self.hyperplane.backend

    def first_step(self) -> tuple:
        """(x1, k1, inner1): the first DR iterate, its selector and its
        offset, taken on vectors once per instance."""
        if self._first_step is None:
            x1, k1 = dr_step(self.hyperplane, self.finite_set(), self.x0)
            object.__setattr__(self, "_first_step", (x1, k1, self.hyperplane.inner(x1)))
        return self._first_step

    def finite_set(self) -> FiniteSet:
        # __post_init__ has checked dimensions, backends and the strict
        # straddle, which also orders and separates the two points
        return FiniteSet(
            (tuple(self.b1), tuple(self.b2)), (self.beta1, self.beta2), self.tie_policy
        )

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

    Exact backends hash exact states, so a hit certifies a genuine cycle and
    the returned preperiod/period are minimal.  The float backend quantizes
    offsets at relative tolerance F64_REL_TOL and labels the report
    approximate.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon == 1:
        return CycleReport("no_cycle", horizon)
    if p.backend == F64:
        logger.debug("detect_cycle: quantized float offsets (f64 backend)")
        return _detect_float(p, horizon)
    logger.debug("detect_cycle: integer lattice")
    return _detect_exact(p, horizon)


def _detect_exact(p, horizon):
    _, k1, inner1 = p.first_step()
    lat = OffsetLattice(p.beta1, p.beta2, p.beta, inner1, p.tie_policy)
    line = lat.line_points(p.hyperplane.normal, (p.b1, p.b2))
    shifts = (lat.beta1, lat.beta2)

    def decode(key):
        # invert the line confinement: x sits on b_k + span(u) at the
        # previous offset, the state's offset minus beta_k
        k, a, b = key
        sa, sb = shifts[k - 1]
        return line.point(k, a - sa, b - sb)

    key = (k1, *lat.start)
    seen = {key: 1}
    hist = [key]
    for n, key in zip(range(2, horizon + 1), lat.walk(*key)):
        first = seen.get(key)
        if first is not None:
            return _finalize_cycle(p, horizon, hist, first, n - first, decode)
        seen[key] = n
        hist.append(key)
    return CycleReport("no_cycle", horizon)


def _detect_float(p, horizon):
    _, k1, inner1 = p.first_step()
    lat = OffsetLattice(p.beta1, p.beta2, p.beta, inner1, p.tie_policy)
    qstep = F64_REL_TOL * max(
        1.0, abs(inner1), abs(p.beta1), abs(p.beta2), abs(lat.t1[0]), abs(lat.t2[0])
    )

    def decode(key):
        k, off = key
        return _state_vector(p, k, off)

    seen = {(k1, round(inner1 / qstep)): (1, inner1)}
    hist = [(k1, inner1)]
    for n, (k, off, _) in zip(range(2, horizon + 1), lat.walk(k1, inner1, 0)):
        cell = round(off / qstep)
        first = None
        for probe in (cell - 1, cell, cell + 1):
            entry = seen.get((k, probe))
            if entry is not None and abs(entry[1] - off) <= qstep:
                first = entry[0]
                break
        if first is not None:
            return _finalize_cycle(
                p, horizon, hist, first, n - first, decode, approximate=True
            )
        seen.setdefault((k, cell), (n, off))
        hist.append((k, off))
    return CycleReport("no_cycle", horizon)


def _state_vector(p: DoubletonProblem, k: int, offset) -> Vector:
    # invert the line confinement: x sits on b_k + span(u) at height offset
    if k == 1:
        return line_point(offset - p.beta1, p.hyperplane.normal, p.b1)
    return line_point(offset - p.beta2, p.hyperplane.normal, p.b2)


def _vectors_match(x, y, approximate: bool) -> bool:
    if not approximate:
        return x == y
    tol = F64_REL_TOL * max(1.0, *(abs(c) for c in x))
    return all(abs(a - b) <= tol for a, b in zip(x, y))


def _finalize_cycle(p, horizon, hist, lam, mu, decode, approximate=False):
    """Key table first hit gives (lam, mu); keys exist only from n=1, so the
    true preperiod may be exactly one step earlier.  Check it on vectors."""
    n0 = lam
    j = lam - 1
    xj = p.x0 if j == 0 else decode(hist[j - 1])
    if _vectors_match(xj, decode(hist[j + mu - 1]), approximate):
        n0 = j
    states = tuple(
        p.x0 if t == 0 else decode(hist[t - 1]) for t in range(n0, n0 + mu)
    )
    return CycleReport("cycle", horizon, n0, mu, states, approximate)


def coefficient_limits(p: DoubletonProblem, trace):
    """Long-run selector frequencies and the deviation observed at the end.

    Returns (limit1, limit2, deviation): the selector-1 and selector-2
    frequencies converge to beta2/(beta2-beta1) and -beta1/(beta2-beta1),
    and deviation is |count_1/n - limit1| at the final trace index.
    """
    records = getattr(trace, "trace", trace)
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
