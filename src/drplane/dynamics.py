"""Iteration driver, trajectory traces, and qualitative classification.

The driving dichotomy: if the point set lies in one closed halfspace of the
hyperplane, the iteration either reaches a fixed point after finitely many
steps (feasible case) or marches off to infinity while its hyperplane shadow
stabilizes (infeasible case).  If the point set straddles the hyperplane the
iterates stay bounded, and in the infeasible case they can never settle:
consecutive iterates always stay at least ``min_i d_A(b_i)`` apart.

A trace record is ``(n, x, selector, inner)``; ``slim=True`` drops ``x`` for
n >= 1, since every iterate after the first sits on one of the lines
``b_k + span(u)`` and is rebuilt from the previous offset.  Everything else
the paper reads off an orbit is derived from those records: the cumulative
selector counts are export columns, tallied once by the exporters at the
end of this module, and the hyperplane shadow ``P_A x_n = x_n - inner*u``
comes from ``reconstruct_shadow``.

iterate builds one :class:`Orbit` of x0, of which a
:class:`~drplane.cycling.DoubletonProblem` is a checked view for the cycle
search and the closed form, and takes one of two paths, one per kind of orbit.  An
exact-backend set that strictly straddles the hyperplane and does not touch
it (so it cannot reach a fixed point or diverge) takes its first step from
``Orbit.first_step`` and then advances its (selector, offset) state on the
orbit's integer lattice of :mod:`drplane.lattice`, from ``Orbit.start``: a
doubleton on its thresholds, a set of m >= 3 points on its per-selector
distance scores.  Full-trace iterates are built from the lattice integers.
Every other orbit (f64, one-sided or touching sets) runs the vector loop,
the only one that looks for a fixed point or divergence, the latter after
DIVERGENCE_WINDOW monotone offsets.  A ``drplane`` debug log record names
the path taken and, for the vector loop, why; records are emitted only when
``logging`` is loaded, since a program that configures logging has imported
it.

Work and formatting are per distinct state.  Straddling orbits are bounded,
so on rational data and in floats eventually periodic: from the first state
of the walk revisited, an integer state (k, a, b) or an f64 iterate bit for
bit, also on cycles that close past 2^13 states, iterate repeats the records
one period back.  The exporters format each state's offset and iterate once,
assembling CSV lines and JSON records from those fragments, the JSON with
the bytes that ``json.dumps(..., indent=2)`` writes of its parse.  Each
format has this one encoder: ``run_report`` and ``trace_rows`` parse its
text.  :mod:`drplane.lattice` states the policy of these tables at
:data:`~drplane.lattice.TABLE_BUDGET`.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from functools import cached_property, partial

from .errors import DimensionMismatch, PreconditionError
from .geometry import (
    FiniteSet,
    Hyperplane,
    Vector,
    dr_step,
    line_point,
    norm_sq,
    project_hyperplane,
    vec_equal,
    vscale,
    vsub,
)
from .lattice import TABLE_BUDGET, FloatLinePoints, LinePoints, OffsetLattice, Revisit
from .lattice import SetLattice, _int_parts, _paused, window_constant
from .scalars import F64, F64_ABS_TOL, Scalar, encode_scalar, format_scalar
from .slotted import Record, Value


def log_path(logger: str, message: str, *args) -> None:
    """One debug record naming the path a driver took, when ``logging`` is
    loaded; otherwise nothing is imported and nothing is built."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(message, *args)


# Consecutive strictly-monotone inner products required before an
# (already known infeasible, one-sided) run is declared divergent.
DIVERGENCE_WINDOW = 1000


class ClassificationKind(str, enum.Enum):
    HALFSPACE_CONTAINED = "halfspace_contained"
    STRADDLING = "straddling"


class Classification(Value):
    """One-sided or straddling; ``intersects``: some point lies on the
    hyperplane."""

    __slots__ = _fields = ("kind", "intersects")

    def __init__(self, kind: ClassificationKind, intersects: bool):
        self._set(kind=kind, intersects=intersects)


class Outcome(str, enum.Enum):
    FIXED_POINT = "fixed_point"
    HORIZON = "horizon"
    DIVERGENCE = "divergence"


class TraceRecord(Record):
    __slots__ = _fields = ("n", "x", "selector_k", "inner")

    def __init__(
        self,
        n: int,
        x: Vector | None,          # None in slim traces for n >= 1
        selector_k: int | None,    # 1-based selected point; None at n = 0
        inner: Scalar,             # <x_n, u>
    ):
        self.n = n
        self.x = x
        self.selector_k = selector_k
        self.inner = inner


class RunResult(Record):
    """A trace plus how it ended: the index of a fixed point, or on
    divergence the stabilized shadow.

    Selector counts are not stored: the exporters tally them as columns.
    Shadows P_A x_n derive from x_n and inner (see reconstruct_shadow).
    """

    __slots__ = _fields = ("trace", "outcome", "fixed_at", "shadow_limit")

    def __init__(self, trace: list[TraceRecord], outcome: Outcome, fixed_at: int | None = None,
                 shadow_limit: Vector | None = None):
        self.trace, self.outcome = trace, outcome
        self.fixed_at, self.shadow_limit = fixed_at, shadow_limit


def classify(A: Hyperplane, B: FiniteSet) -> Classification:
    """One-sided vs straddling, and whether B touches the hyperplane."""
    inners = B.inners
    if A.backend == F64:
        zero = lambda v: abs(v) <= F64_ABS_TOL  # noqa: E731
    else:
        zero = lambda v: v == 0  # noqa: E731
    intersects = any(zero(v) for v in inners)
    straddling = inners[0] < 0 < inners[-1]
    kind = ClassificationKind.STRADDLING if straddling else ClassificationKind.HALFSPACE_CONTAINED
    return Classification(kind, intersects)


def _check_start(A: Hyperplane, B: FiniteSet, x0: Vector) -> None:
    A.check("x0", x0)
    if B.dim != A.dim:
        raise DimensionMismatch("finite set dimension does not match hyperplane")


class Orbit:
    """The DR orbit of x0 for an already valid A and B: what iterate, the
    cycle search and the closed form derive from (A, B, x0), once.  It
    checks only x0, with ``A.check``, and the dimension of B.

    ``inner0`` is <x0,u>; ``refusal`` names why the orbit cannot run on the
    integer lattice, or is None.  On first use: ``first_step`` is
    (x1, k1, <x1,u>) on vectors, ``window`` a doubleton's window constant,
    ``lattice`` the :mod:`drplane.lattice` walk started at <x0,u> (float
    pairs on f64), ``start`` its state 1, (k1, *lattice.pair(<x1,u>)), where
    every walk of the orbit begins, and ``line_points`` its point evaluator, a
    :class:`~drplane.lattice.LinePoints` or on f64 a ``FloatLinePoints``:
    ``point(k, a, b)`` is the iterate on b_k's line at the offset of lattice
    pair (a, b).
    """

    def __init__(self, A: Hyperplane, B: FiniteSet, x0: Vector):
        _check_start(A, B, x0)
        self.A, self.B, self.x0 = A, B, tuple(x0)
        self.inner0 = A.inner(self.x0)
        self.classification = cls = classify(A, B)
        if A.backend == F64:
            self.refusal = "f64 backend"
        elif cls.intersects:
            self.refusal = "touches the hyperplane"
        elif cls.kind != ClassificationKind.STRADDLING:
            self.refusal = "one-sided"
        else:
            self.refusal = None

    @cached_property
    def first_step(self) -> tuple:
        x1, k1 = dr_step(self.A, self.B, self.x0)
        return x1, k1, self.A.inner(x1)

    @cached_property
    def start(self) -> tuple:
        _, k1, inner1 = self.first_step
        return (k1, *self.lattice.pair(inner1))

    @cached_property
    def window(self) -> Scalar:
        (b1, b2), (beta1, beta2) = self.B.points, self.B.inners
        beta = window_constant(b1, b2, beta1, beta2)
        if self.A.backend == F64 and not math.isfinite(beta):
            raise PreconditionError(f"f64 doubleton window constant is non-finite ({beta!r})")
        return beta

    @cached_property
    def lattice(self):
        B = self.B
        if B.m == 2:
            beta1, beta2 = B.inners
            return OffsetLattice(beta1, beta2, self.window, self.inner0, B.tie_policy)
        return SetLattice(self.A.normal, B, self.inner0)

    @cached_property
    def line_points(self):
        # apart from the lattice, so that a walk that decodes no point never builds it
        kind = FloatLinePoints if self.A.backend == F64 else LinePoints
        return kind(self.lattice, self.A.normal, self.B.points)


@_paused
def iterate(A: Hyperplane, B: FiniteSet, x0: Vector, max_n: int, *, slim: bool = False) -> RunResult:
    """Run up to max_n DR steps from x0.  An orbit on the integer lattice
    takes its first step from ``Orbit.first_step`` and runs to the horizon;
    any other runs on vectors and stops early on a fixed point or on detected
    divergence (one-sided disjoint sets only).  Either walk records each
    state as :class:`~drplane.lattice.Revisit` draws it; record n depends on
    state n only, so from a hit, state n being state back, every record
    repeats the one n - back before, iterate and offset shared."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    orbit = Orbit(A, B, x0)
    result = RunResult([TraceRecord(0, orbit.x0, None, orbit.inner0)], Outcome.HORIZON)
    trace = result.trace
    if orbit.refusal is not None:
        log_path(__name__, "iterate: generic vectors (%s)", orbit.refusal)
        # state n + 1 is x_n, which record n + 1 is made from
        start = _bits_key(orbit.x0) if A.backend == F64 else None
        states, horizon = _vector_steps(orbit, result, max_n, slim), max_n + 1
    else:
        log_path(__name__, "iterate: integer lattice")
        if max_n:
            x1, k1, inner1 = orbit.first_step
            trace.append(TraceRecord(1, None if slim else x1, k1, inner1))
        if max_n < 2:
            return result
        # state n is record n's
        start, states, horizon = orbit.start, _lattice_steps(orbit, trace, max_n, slim), max_n
    found = Revisit(start, horizon)
    if found.search(states):
        del trace[found.n :]
        _replay(trace, found.n, found.n - found.back, max_n)
    return result


def _vector_steps(orbit: Orbit, result: RunResult, max_n: int, slim: bool):
    """Append steps 1..max_n of an orbit the lattice refuses, each a
    ``dr_step`` of the last iterate, and yield the bits of each new iterate
    (:func:`_bits_key`) of an f64 orbit that cannot diverge.  A fixed point,
    or a one-sided disjoint set's DIVERGENCE_WINDOW strictly monotone
    offsets in a row, ends the walk and the run."""
    A, B, x, prev_inner = orbit.A, orbit.B, orbit.x0, orbit.inner0
    backend, cls, window, trace = A.backend, orbit.classification, DIVERGENCE_WINDOW, result.trace
    may_diverge = cls.kind == ClassificationKind.HALFSPACE_CONTAINED and not cls.intersects
    # other orbits are exact, or checked for divergence at every step
    keyed = backend == F64 and not may_diverge
    mono_sign = mono_run = 0
    for n in range(1, max_n + 1):
        nxt, k = dr_step(A, B, x)
        if vec_equal(nxt, x, backend):
            result.outcome, result.fixed_at = Outcome.FIXED_POINT, n - 1
            return
        inner = A.inner(nxt)
        trace.append(TraceRecord(n, None if slim else nxt, k, inner))
        x = nxt
        if keyed:
            yield _bits_key(x)
        elif may_diverge:
            sign = 1 if inner > prev_inner else -1 if inner < prev_inner else 0
            mono_run = mono_run + 1 if sign and sign == mono_sign else abs(sign)
            mono_sign, prev_inner = sign, inner
            if mono_run >= window:
                result.outcome = Outcome.DIVERGENCE
                result.shadow_limit = vsub(x, vscale(inner, A.normal))
                return


def _bits_key(v: tuple) -> tuple:
    """A key that two tuples of floats share only when they are equal bit
    for bit.  Equal floats differ in their bits only as 0.0 and -0.0, so a
    tuple that holds a zero also carries the signs of its entries."""
    return v if 0.0 not in v else (v, tuple(math.copysign(1.0, c) for c in v))


def _lattice_steps(orbit: Orbit, trace, max_n: int, slim: bool):
    """Append steps 2..max_n of a straddling exact set, advanced on the
    orbit's integer lattice from its state 1, ``Orbit.start``, and yield
    each state (k, a, b) after its record.

    A doubleton walks its thresholds (:class:`OffsetLattice`), a set of
    m >= 3 points its per-selector scores (:class:`SetLattice`).  A full
    record's iterate is built from the integers of the previous offset by
    the orbit's ``line_points``.
    """
    lat = orbit.lattice
    decode = lat.decode
    point = None if slim else orbit.line_points.point
    k, pa, pb = orbit.start
    for n, key in zip(range(2, max_n + 1), lat.walk(k, pa, pb)):
        k, a, b = key
        trace.append(TraceRecord(n, None if slim else point(k, pa, pb), k, decode(a, b)))
        pa, pb = a, b
        yield key


def _replay(trace, start: int, period: int, max_n: int) -> None:
    """Append records start..max_n, each repeating the one period back."""
    for m in range(start, max_n + 1):
        rec = trace[m - period]
        trace.append(TraceRecord(m, rec.x, rec.selector_k, rec.inner))


def reconstruct_x(result: RunResult, A: Hyperplane, B: FiniteSet, n: int) -> Vector:
    """Iterate n of a (possibly slim) trace; exact for exact backends."""
    rec = result.trace[n]
    if rec.x is not None:
        return rec.x
    prev = result.trace[n - 1]
    return line_point(prev.inner, A.normal, B.points[rec.selector_k - 1])


def reconstruct_shadow(result: RunResult, A: Hyperplane, B: FiniteSet, n: int) -> Vector:
    x = reconstruct_x(result, A, B, n)
    return vsub(x, vscale(result.trace[n].inner, A.normal))


def detect_finite_convergence(result: RunResult, A: Hyperplane, B: FiniteSet):
    """(fixed point, feasible shadow) when the run converged finitely, else None.

    The shadow of a fixed point must belong to both sets; if it does not,
    an internal invariant is broken and we fail loudly rather than return
    nonsense.
    """
    if result.outcome != Outcome.FIXED_POINT:
        return None
    x = reconstruct_x(result, A, B, len(result.trace) - 1)
    feasible = project_hyperplane(A, x)
    backend = A.backend
    if not any(vec_equal(feasible, b, backend) for b in B.points):
        raise RuntimeError(
            "fixed point reached but its hyperplane shadow is not in the finite "
            "set; this contradicts the finite-convergence characterization"
        )
    return x, feasible


def check_step_gap(result: RunResult, A: Hyperplane, B: FiniteSet) -> bool:
    """Every consecutive gap ||x_{n+1} - x_n|| >= min_i d_A(b_i)?

    Only meaningful (and only claimed) for straddling, disjoint problems;
    anything else raises PreconditionError.  On the exact backends the first
    gap is taken on vectors and every later one from the selector-pair table
    of :func:`transition_gaps`; f64 compares every gap on vectors.
    """
    cls = classify(A, B)
    if cls.kind != ClassificationKind.STRADDLING or cls.intersects:
        raise PreconditionError(
            "step-gap bound only asserted for the straddling, disjoint case"
        )
    min_dist_sq = min(v * v for v in B.inners)
    steps = len(result.trace) - 1
    if A.backend == F64:
        bound = math.sqrt(min_dist_sq) - F64_ABS_TOL
        prev = reconstruct_x(result, A, B, 0)
        for n in range(1, steps + 1):
            cur = reconstruct_x(result, A, B, n)
            if math.sqrt(norm_sq(vsub(cur, prev))) < bound:
                return False
            prev = cur
        return True
    if steps >= 1:
        first = vsub(reconstruct_x(result, A, B, 1), reconstruct_x(result, A, B, 0))
        if norm_sq(first) < min_dist_sq:
            return False
    return all(gap >= min_dist_sq for gap in transition_gaps(result, A, B).values())


def transition_gaps(result: RunResult, A: Hyperplane, B: FiniteSet) -> dict:
    """Squared step gaps of steps n >= 2, keyed by selector pair.

    x_n = <x_{n-1},u>*u + b_{k_n} and <x_{n-1},u> = <x_{n-2},u> + beta_{k_{n-1}}
    when <u,u> = 1, so x_n - x_{n-1} = beta_j*u + b_k - b_j for the pair
    (j, k) = (k_{n-1}, k_n): one norm per distinct pair of the trace, m^2 at
    most.  Exact backends only; in floats the identity is approximate.
    """
    trace, u = result.trace, A.normal
    pairs = {(trace[n - 1].selector_k, trace[n].selector_k) for n in range(2, len(trace))}
    points, inners = B.points, B.inners
    return {
        (j, k): norm_sq(line_point(inners[j - 1], u, vsub(points[k - 1], points[j - 1])))
        for j, k in pairs
    }


# -- export -----------------------------------------------------------------
#
# Both DR traces and alternating-projection traces export through here, as
# (n, k, inner, x, key) records with k None where no point was selected.
# ``key`` names the record's orbit state where orbits revisit states: records
# with equal keys have equal inner and x (in their bits, on f64).  CSV lines
# and JSON records are assembled the same way, from per-key fragments that
# format a key's inner and x once, with only n, k and the counts formatted
# per record.  A record keyed None is formatted on its own.


def trace_csv_header(m: int, dim: int) -> list[str]:
    return (
        ["n", "k", "inner"]
        + [f"count_{i}" for i in range(1, m + 1)]
        + [f"x_{i}" for i in range(1, dim + 1)]
    )


def _tallied(records, m: int, fragment, sep: str):
    """(n, k, counts, fragment(inner, x)) for each record.

    counts is the text of the cumulative selector counts up to the record,
    joined by sep.  The fragment is made once per key, and for every record
    keyed None; a record's iterate is built only for its fragment.  The
    memo stops growing at TABLE_BUDGET keys.
    """
    counts, count_texts = [0] * m, ["0"] * m  # one count moves per record
    made, grow = {}, True
    for n, k, inner, x, key in records:
        if k is not None:
            counts[k - 1] += 1
            count_texts[k - 1] = str(counts[k - 1])
        frag = made.get(key)
        if frag is None:
            frag = fragment(inner, x() if callable(x) else x)
            if grow and key is not None:
                made[key] = frag
                grow = len(made) < TABLE_BUDGET
        yield n, k, sep.join(count_texts), frag


def _line_texts(inner, x):
    """A CSV line's text after its k and before, then after, its counts."""
    return format_scalar(inner) + ",", "," + ",".join([format_scalar(c) for c in x])


def export_lines(records, m: int):
    """Each record's CSV line, without its line end, in the trace_csv_header
    layout.  The cells are joined unquoted: no scalar text holds a comma, a
    quote, CR or LF, so :func:`csv_text` writes the bytes of ``csv.writer``."""
    for n, k, counts, (head, tail) in _tallied(records, m, _line_texts, ","):
        yield f"{n},{'' if k is None else k},{head}{counts}{tail}"


def csv_text(header: list[str], lines) -> str:
    """The CSV text of a header and its lines, CRLF-terminated as
    ``csv.writer`` ends each row."""
    return "\r\n".join([",".join(header), *lines, ""])


# one JSON value's text, as json.dumps writes it at any indent
_json_leaf = json.JSONEncoder().encode


def json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` as it reads nested at this indent, for
    the lists, tuples and str-keyed dicts a report holds; every other value
    is a leaf.  The one JSON encoder of the exporters and the CLI."""
    if isinstance(value, (list, tuple, dict)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            items = [inner + _json_leaf(k) + ": " + json_text(v, inner) for k, v in value.items()]
            return "{\n" + ",\n".join(items) + "\n" + indent + "}"
        return "[\n" + ",\n".join([inner + json_text(v, inner) for v in value]) + "\n" + indent + "]"
    return _json_leaf(value)


def _json_texts(inner, x):
    """A JSON record's text after its "k" and before, then after, its counts:
    a record's keys are n, k, inner, counts and x, in that order."""
    return (
        ',\n      "inner": ' + json_text(encode_scalar(inner), "      ") + ',\n      "counts": [\n        ',
        '\n      ],\n      "x": ' + json_text([encode_scalar(c) for c in x], "      ") + "\n    }",
    )


def export_json(method: str, outcome: Outcome, A: Hyperplane, B: FiniteSet, records, extra=None) -> str:
    """The JSON report of a run: its method, outcome, classification and
    records, then the items of extra, as ``json.dumps(report, indent=2) +
    "\\n"`` writes them.

    Each record is assembled from its key's fragments (:func:`_json_texts`)
    and its own n, k and counts, and the text is joined once.
    """
    cls = classify(A, B)
    classification = {"kind": cls.kind.value, "intersects": cls.intersects}
    out = ['{\n  "method": ', _json_leaf(method), ',\n  "outcome": ', _json_leaf(outcome.value),
           ',\n  "classification": ', json_text(classification, "  "), ',\n  "records": ']
    sep = "[\n"
    for n, k, counts, (head, tail) in _tallied(records, B.m, _json_texts, ",\n        "):
        out += (sep, '    {\n      "n": ', str(n), ',\n      "k": ',
                "null" if k is None else str(k), head, counts, tail)
        sep = ",\n"
    out.append("[]" if sep == "[\n" else "\n  ]")
    for name, value in (extra or {}).items():
        out += (",\n  ", _json_leaf(name), ": ", json_text(value, "  "))
    out.append("\n}\n")
    return "".join(out)


def _records(result: RunResult, A: Hyperplane, B: FiniteSet):
    """Each record as (n, k, inner, x, key); a slim record's x is a callable
    that rebuilds it, so an exporter builds it only for a new key.

    From record 1 on, x_n = <x_{n-1},u>*u + b_k, so the state (k, <x_{n-1},u>)
    fixes x_n and with it <x_n,u>.  That state is the key: on the exact
    backends as the offset's integers (p, q, n), which hash much faster than
    the scalar, and on f64 with <x_n,u> too (a closed-form offset is not
    summed step by step), both bit for bit, since 0.0 == -0.0 though their
    texts differ.
    """
    f64 = A.backend == F64
    trace, prev = result.trace, None
    for n, rec in enumerate(trace):
        k, inner, x = rec.selector_k, rec.inner, rec.x
        if x is None:
            x = partial(reconstruct_x, result, A, B, n)
        if k is None:
            key = None
        elif f64:
            key = _bits_key((k, prev, inner))
        else:
            key = (k, *_int_parts(prev))
        yield rec.n, k, inner, x, key
        prev = inner


def _run_extra(result: RunResult) -> dict:
    extra = {}
    if result.fixed_at is not None:
        extra["fixed_at"] = result.fixed_at
    if result.shadow_limit is not None:
        extra["shadow_limit"] = [encode_scalar(c) for c in result.shadow_limit]
    return extra


def trace_lines(result: RunResult, A: Hyperplane, B: FiniteSet):
    """CSV lines; slim traces export the same lines as full ones."""
    return export_lines(_records(result, A, B), B.m)


def run_json(result: RunResult, A: Hyperplane, B: FiniteSet, method: str = "dr") -> str:
    """The JSON report of a RunResult, rendered by :func:`export_json`."""
    return export_json(method, result.outcome, A, B, _records(result, A, B), _run_extra(result))


# trace_rows and run_report, and altproj's ap_rows and ap_report, parse the
# rendered text.  Outside the tests only perfbench's tracer (tracing.WRAPPED,
# probes.layer_probe_jobs) calls them; they can go when it stops timing them.


def trace_rows(result: RunResult, A: Hyperplane, B: FiniteSet):
    """The cells of each of trace_lines."""
    return (line.split(",") for line in trace_lines(result, A, B))


def run_report(result: RunResult, A: Hyperplane, B: FiniteSet) -> dict:
    """The report of run_json, parsed."""
    return json.loads(run_json(result, A, B))
