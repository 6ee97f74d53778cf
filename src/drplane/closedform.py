"""Floor-function formulas for the two-point iteration.

Once the orbit enters the absorbing window (one interval of offsets per
selector), every later iterate is given in closed form: the count of
selector-2 choices among the first n steps is a single floor expression, and
the offset, the selector, and the full point all follow from it.  This module
evaluates those formulas, the simplified variant available when the start
lies on the hyperplane, and the square-root-of-two integer sequences that the
planar instance generates; verify_closed_form cross-checks everything against
the step-by-step driver.

The trace and point evaluators take count_2(n) = floor(X + n*Y) with X and Y
fixed once, and offsets as pairs on the problem's orbit lattice, on every
backend through :class:`FloorForm`.  On the exact backends the pairs are
integers and that floor is an integer square-root floor; f64 pairs are
(offset, 0), and f64 keeps the float quotient for the floor.
Each point is the orbit's ``line_points.point`` at the pair of the
previous offset.  iterate reaches the same offsets by stepping, on an orbit
of its own, so verify_closed_form still compares two derivations.

Everything that depends only on the problem is derived once and kept: the
:class:`~drplane.dynamics.Orbit` of a :class:`~drplane.cycling.DoubletonProblem`
keeps its start offset, first iterate, lattice and ``line_points``, shared
with the cycle search, and the problem keeps the :class:`Betas` that
:func:`compute_betas` returns, and the plan of closed_form_point and
closed_form_trace, which is either the refusal message of the first failed
hypothesis or the floor form, and likewise the verdict of corollary_point.
closed_form_point refuses a Betas that differs in value from the problem's
own.
"""

from __future__ import annotations

import enum

from .cycling import DoubletonProblem
from .dynamics import Outcome, RunResult, TraceRecord, iterate
from .errors import PreconditionError
from .geometry import dot, norm_sq, vsub
from .lattice import OffsetLattice
from .scalars import F64, F64_REL_TOL, Scalar, encode_scalar, floor, format_scalar, surd_floor
from .slotted import Value

NOT_APPLICABLE = "closed form not applicable; use iterate"


class Betas(Value):
    """Offset constants of a doubleton instance.

    beta1/beta2 are the signed offsets of the two points; beta is the
    negative constant where the absorbing window starts.  The window
    geometry forces beta < 0 and -2*beta >= beta2 - beta1.
    """

    __slots__ = _fields = ("beta1", "beta2", "beta")

    def __init__(self, beta1: Scalar, beta2: Scalar, beta: Scalar):
        self._set(beta1=beta1, beta2=beta2, beta=beta)

    @property
    def span(self):
        return self.beta2 - self.beta1


class RegionLabel(enum.Enum):
    S1 = "S1"
    S2 = "S2"
    OUTSIDE = "outside"


def compute_betas(p: DoubletonProblem) -> Betas:
    """Derive (beta1, beta2, beta) and assert their sign invariants.

    Derived once per instance: later calls return the same Betas."""
    if p._betas is not None:
        return p._betas
    beta1, beta2, beta = p.beta1, p.beta2, p.beta
    slack = F64_REL_TOL if p.backend == F64 else 0
    if not beta < slack:
        raise PreconditionError(f"window constant must be negative, got {beta!r}")
    if (-2) * beta + slack < beta2 - beta1:
        raise PreconditionError(
            "offset span exceeds -2x the window constant; doubleton data corrupt"
        )
    betas = Betas(beta1, beta2, beta)
    object.__setattr__(p, "_betas", betas)
    return betas


def region_of(betas: Betas, inner, k: int) -> RegionLabel:
    """Classify a post-step state (offset, selector) against the absorbing
    window: S1 covers selector 1 with offset in ]beta, beta+beta2], S2 covers
    selector 2 with offset in ]beta+beta2, beta-beta1+beta2]."""
    if k not in (1, 2):
        raise ValueError(f"selector must be 1 or 2, got {k}")
    lo = betas.beta
    mid = betas.beta + betas.beta2
    hi = mid - betas.beta1
    if k == 1 and lo < inner <= mid:
        return RegionLabel.S1
    if k == 2 and mid < inner <= hi:
        return RegionLabel.S2
    return RegionLabel.OUTSIDE


def successor_rule(betas: Betas, inner, k: int) -> tuple[int, object]:
    """One step of the in-window recursion: (selector, offset) -> next pair.

    Matches the iteration under the default tie policy; the boundary state
    offset == beta - beta1 with selector 1 hands off to selector 2.  The S2
    branch is only proved when beta + beta2 >= 0, so it is refused otherwise.
    """
    region = region_of(betas, inner, k)
    if region is RegionLabel.OUTSIDE:
        raise PreconditionError("absorption region not entered")
    if region is RegionLabel.S1:
        if inner > betas.beta - betas.beta1:
            return 1, inner + betas.beta1
        return 2, inner + betas.beta2
    if not betas.beta + betas.beta2 >= 0:
        raise PreconditionError(
            "successor rule in the upper window requires beta + beta2 >= 0"
        )
    return 1, inner + betas.beta1


def _refusal(betas: Betas, inner0) -> str | None:
    """The first failed applicability hypothesis on the offsets, or None."""
    if not betas.beta + betas.beta2 >= 0:
        return f"{NOT_APPLICABLE} (beta + beta2 < 0)"
    # observable shadow of the entry hypothesis: the start offset must sit
    # in the union window shifted back by one step
    if not betas.beta < inner0 <= betas.beta - betas.beta1 + betas.beta2:
        return f"{NOT_APPLICABLE} (start offset outside the window)"
    return None


def _require_applicable(betas: Betas, inner0) -> None:
    refusal = _refusal(betas, inner0)
    if refusal is not None:
        raise PreconditionError(refusal)


def _count2(betas: Betas, inner0, n: int) -> int:
    # selector-2 choices among steps 1..n
    return floor((-inner0 + betas.beta - (n + 1) * betas.beta1 + betas.beta2) / betas.span)


def _count1(betas: Betas, inner0, n: int) -> int:
    # independent floor for the selector-1 count; equals n - _count2
    return -floor((-inner0 + betas.beta - betas.beta1 - (n - 1) * betas.beta2) / betas.span)


def selector_counts(betas: Betas, inner0, n: int) -> tuple[int, int]:
    """How often each selector fires among steps 1..n, from two independent
    floor expressions (their sum reproducing n is a nontrivial identity)."""
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    return _count1(betas, inner0, n), _count2(betas, inner0, n)


def closed_form_inner(betas: Betas, inner0, n: int):
    """Offset of the n-th iterate, n >= 1, without iterating."""
    if n < 1:
        raise ValueError(f"closed form is stated for n >= 1, got {n}")
    _require_applicable(betas, inner0)
    return inner0 + n * betas.beta1 + _count2(betas, inner0, n) * betas.span


def closed_form_inner_alt(betas: Betas, inner0, n: int):
    """Same offset via the second published expression; kept separate so the
    equality of the two forms stays an executable fact."""
    if n < 1:
        raise ValueError(f"closed form is stated for n >= 1, got {n}")
    _require_applicable(betas, inner0)
    return (
        inner0
        + _count1(betas, inner0, n) * betas.beta1
        + _count2(betas, inner0, n) * betas.beta2
    )


class FloorForm:
    """The closed form's evaluators on an orbit lattice, from its start
    offset inner0.

    count2(n) is the number of selector-2 choices among steps 1..n,
    floor(X + n*Y) with X = (-inner0 + beta - beta1 + beta2)/span and
    Y = -beta1/span fixed once; the offset after n steps of which c chose b2
    is inner0 + n*beta1 + c*span.  X and Y are integer surds over one
    positive denominator, dividing by span through its conjugate (whose norm
    may be negative), and each floor is an integer square root.  Offsets are
    the integer pairs coefficients(n, c) on ``lattice``, and offset(n, c)
    decodes them.
    """

    __slots__ = ("lattice", "start", "xa", "xb", "ya", "yb", "denom")

    def __init__(self, lattice: OffsetLattice):
        self.lattice = lat = lattice
        d = lat.d
        self.start = (i_a, i_b) = lat.start
        ((b1a, b1b), (b2a, b2b)), (wa, wb) = lat.steps, lat.beta
        sa, sb = b2a - b1a, b2b - b1b
        norm = sa * sa - sb * sb * d
        sign = 1 if norm > 0 else -1

        def over_span(p, q):
            # (p + q*sqrt(d))/(sa + sb*sqrt(d)) = (p + q*sqrt(d))*(sa - sb*sqrt(d))/norm
            return sign * (p * sa - q * sb * d), sign * (q * sa - p * sb)

        self.xa, self.xb = over_span(wa - i_a + sa, wb - i_b + sb)
        self.ya, self.yb = over_span(-b1a, -b1b)
        self.denom = abs(norm)

    def count2(self, n: int) -> int:
        return surd_floor(self.xa + n * self.ya, self.xb + n * self.yb, self.denom, self.lattice.d)

    def coefficients(self, n: int, c: int) -> tuple[int, int]:
        lat = self.lattice
        (i_a, i_b), ((b1a, b1b), (b2a, b2b)) = self.start, lat.steps
        return i_a + n * b1a + c * (b2a - b1a), i_b + n * b1b + c * (b2b - b1b)

    def decode(self, a: int, b: int):
        return self.lattice.decode(a, b)

    def offset(self, n: int, c: int):
        return self.decode(*self.coefficients(n, c))


class _FloatFloorForm(FloorForm):
    """FloorForm on an f64 orbit lattice, whose pairs are float offsets
    (v, 0) over scale 1: count2 is the float quotient of :func:`_count2` on
    the offsets of the pairs, and a pair decodes to its offset.  The integer
    constants of X and Y stay unset."""

    __slots__ = ("betas",)

    def __init__(self, lattice: OffsetLattice):
        self.lattice, self.start = lattice, lattice.start
        (beta1, _), (beta2, _) = lattice.steps
        self.betas = Betas(beta1, beta2, lattice.beta[0])

    def count2(self, n: int) -> int:
        return _count2(self.betas, self.start[0], n)

    @staticmethod
    def decode(a, b):
        return a


def _point(form, point, n: int):
    # row n is the offset of row n-1 on the line of its selector
    before = form.count2(n - 1)
    k = form.count2(n) - before + 1
    prev = form.start if n == 1 else form.coefficients(n - 1, before)
    return point(k, *prev), k


def _plan(p: DoubletonProblem, betas: Betas):
    """The floor form of p's orbit, or PreconditionError naming the first
    failed hypothesis (window shift, start offset, entry of the first
    iterate).  Built once and kept on p, refusal included.  betas must be
    p's own Betas or equal to it in value."""
    if betas is not p._betas and betas != compute_betas(p):
        raise PreconditionError("betas are not the offset constants of this problem")
    plan = p._closed_form
    if plan is None:
        betas, form, orbit = compute_betas(p), None, p.orbit
        refusal = _refusal(betas, orbit.inner0)
        if refusal is None:
            _, k1, inner1 = orbit.first_step
            if region_of(betas, inner1, k1) is RegionLabel.OUTSIDE:
                refusal = f"{NOT_APPLICABLE} (first iterate misses the window)"
            else:
                # the orbit's lattice starts at inner0
                form = (_FloatFloorForm if p.backend == F64 else FloorForm)(orbit.lattice)
        plan = (refusal, form)
        object.__setattr__(p, "_closed_form", plan)
    refusal, form = plan
    if refusal is not None:
        raise PreconditionError(refusal)
    return form


def closed_form_point(p: DoubletonProblem, betas: Betas, n: int):
    """The n-th iterate (point and selector), n >= 1, without iterating.

    Requires beta + beta2 >= 0 and that the first iterate lands in the
    absorbing window; refuses otherwise rather than extrapolate.
    """
    if n < 1:
        raise ValueError(f"closed form is stated for n >= 1, got {n}")
    return _point(_plan(p, betas), p.orbit.line_points.point, n)


def corollary_point(p: DoubletonProblem, n: int):
    """Simplified closed form for starts on the hyperplane.

    Needs beta1 > beta >= -beta2, x0 on the hyperplane, and x0 strictly
    closer to b1 than to b2; each failed hypothesis is named.  The start
    offset drops out of all formulas.  The verdict is derived once and kept
    on p.
    """
    if n < 1:
        raise ValueError(f"closed form is stated for n >= 1, got {n}")
    form = p._corollary
    if form is None:
        try:
            form = _corollary_form(p)
        except PreconditionError as exc:
            form = str(exc)
        object.__setattr__(p, "_corollary", form)
    if isinstance(form, str):
        raise PreconditionError(form)
    return _point(form, p.orbit.line_points.point, n)


def _corollary_form(p: DoubletonProblem):
    """The corollary's floor form on p, or PreconditionError naming its first
    failed hypothesis."""
    betas = compute_betas(p)
    if not betas.beta1 > betas.beta:
        raise PreconditionError(
            f"hypothesis beta1 > beta fails: {format_scalar(betas.beta1)} <= "
            f"{format_scalar(betas.beta)}"
        )
    if not betas.beta >= -betas.beta2:
        raise PreconditionError(
            f"hypothesis beta >= -beta2 fails: {format_scalar(betas.beta)} < "
            f"{format_scalar(-betas.beta2)}"
        )
    inner0 = p.orbit.inner0
    if inner0 != 0 and not (p.backend == F64 and abs(inner0) <= F64_REL_TOL):
        raise PreconditionError(
            f"hypothesis x0 on the hyperplane fails: offset {format_scalar(inner0)}"
        )
    margin = 2 * dot(p.x0, vsub(p.b1, p.b2)) - (norm_sq(p.b1) - norm_sq(p.b2))
    if not margin > 0:
        raise PreconditionError(
            "hypothesis 2<x0, b1-b2> > |b1|^2 - |b2|^2 fails: "
            f"margin {format_scalar(margin)}"
        )
    # the hypotheses imply the general closed form's, so the exact backends
    # take p's plan; f64 drops the start offset's slack
    if p.backend == F64:
        return _FloatFloorForm(OffsetLattice(betas.beta1, betas.beta2, betas.beta, 0))
    return _plan(p, betas)


def beatty_triple(n: int) -> tuple[int, int, int]:
    """Integer triple driving the planar sqrt(2) instance.

    u_n flags whether the selector advanced, v_n and w_n are the integer and
    sqrt(2) parts of the offset: x_n = (u_n, -v_n + w_n*sqrt(2)).
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    f_next = surd_floor(0, n + 1, 1, 2)  # floor((n+1)*sqrt(2))
    u_n = f_next - surd_floor(0, n, 1, 2) - 1
    v_n = surd_floor(2 * (n + 1), -(n + 1), 1, 2)  # floor((n+1)*(2-sqrt(2)))
    w_n = f_next - n - 1
    return u_n, v_n, w_n


class VerifyReport(Value):
    """Outcome of the formula-vs-iteration cross-check."""

    __slots__ = _fields = ("ok", "checked", "horizon", "first_mismatch")

    def __init__(self, ok: bool, checked: int, horizon: int, first_mismatch: dict | None = None):
        self._set(ok=ok, checked=checked, horizon=horizon, first_mismatch=first_mismatch)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _points_agree(x, y, backend: str) -> bool:
    if backend != F64:
        return x == y
    for a, b in zip(x, y):
        if abs(a - b) > F64_REL_TOL * max(1.0, abs(a), abs(b)):
            return False
    return True


def closed_form_trace(p: DoubletonProblem, horizon: int) -> RunResult:
    """Iterates 0..horizon from the closed form, shaped like iterate()'s result.

    Refuses the way closed_form_point does, with p's plan.  Row n's offset
    is row n+1's line coefficient, so each row costs one floor.
    """
    form, point = _plan(p, compute_betas(p)), p.orbit.line_points.point
    trace = [TraceRecord(0, p.orbit.x0, None, p.orbit.inner0)]
    prev = form.start
    before = form.count2(0)
    for n in range(1, horizon + 1):
        now = form.count2(n)
        k = now - before + 1
        coefs = form.coefficients(n, now)
        trace.append(TraceRecord(n, point(k, *prev), k, form.decode(*coefs)))
        prev, before = coefs, now
    return RunResult(trace, Outcome.HORIZON)


def verify_closed_form(p: DoubletonProblem, horizon: int) -> VerifyReport:
    """Compare the closed form against direct iteration for n = 1..horizon.

    Exact backends demand exact equality of points and selectors; the float
    backend allows F64_REL_TOL relative error on coordinates.  Reports the first
    mismatch with both values.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    formula = closed_form_trace(p, horizon).trace
    run = iterate(p.hyperplane, p.finite_set(), p.x0, horizon)
    backend = p.backend
    for n in range(1, horizon + 1):
        rec, cf = run.trace[n], formula[n]
        if cf.selector_k != rec.selector_k or not _points_agree(cf.x, rec.x, backend):
            return VerifyReport(
                ok=False,
                checked=n,
                horizon=horizon,
                first_mismatch={
                    "n": n,
                    "iterated": [encode_scalar(c) for c in rec.x],
                    "closed_form": [encode_scalar(c) for c in cf.x],
                    "iterated_selector": rec.selector_k,
                    "closed_form_selector": cf.selector_k,
                },
            )
    return VerifyReport(ok=True, checked=horizon, horizon=horizon)
