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
fixed once per call.  On the exact backends that floor is an integer
square-root floor and the offsets are integer combinations on the orbit's
lattice (see :func:`floor_form`); f64 keeps the float quotient.  The step
driver reaches the same offsets by stepping, so verify_closed_form still
compares two derivations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cycling import DoubletonProblem
from .dynamics import Outcome, RunResult, TraceRecord, iterate
from .errors import PreconditionError
from .geometry import dot, dr_step, line_point, norm_sq, vsub
from .lattice import OffsetLattice, window_constant
from .scalars import F64, Scalar, Surd, encode_scalar, floor, format_scalar, surd_floor

F64_INVARIANT_SLACK = 1e-9
NOT_APPLICABLE = "closed form not applicable; use iterate"


@dataclass(frozen=True)
class Betas:
    """Offset constants of a doubleton instance.

    beta1/beta2 are the signed offsets of the two points; beta is the
    negative constant where the absorbing window starts.  The window
    geometry forces beta < 0 and -2*beta >= beta2 - beta1.
    """

    beta1: Scalar
    beta2: Scalar
    beta: Scalar

    @property
    def span(self):
        return self.beta2 - self.beta1


class RegionLabel(enum.Enum):
    S1 = "S1"
    S2 = "S2"
    OUTSIDE = "outside"


def compute_betas(p: DoubletonProblem) -> Betas:
    """Derive (beta1, beta2, beta) and assert their sign invariants."""
    beta1, beta2 = p.beta1, p.beta2
    beta = window_constant(p.b1, p.b2, beta1, beta2)
    slack = F64_INVARIANT_SLACK if p.backend == F64 else 0
    if not beta < slack:
        raise PreconditionError(f"window constant must be negative, got {beta!r}")
    if (-2) * beta + slack < beta2 - beta1:
        raise PreconditionError(
            "offset span exceeds -2x the window constant; doubleton data corrupt"
        )
    return Betas(beta1, beta2, beta)


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


def _require_applicable(betas: Betas, inner0) -> None:
    if not betas.beta + betas.beta2 >= 0:
        raise PreconditionError(f"{NOT_APPLICABLE} (beta + beta2 < 0)")
    # observable shadow of the entry hypothesis: the start offset must sit
    # in the union window shifted back by one step
    if not betas.beta < inner0 <= betas.beta - betas.beta1 + betas.beta2:
        raise PreconditionError(f"{NOT_APPLICABLE} (start offset outside the window)")


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


def floor_form(betas: Betas, inner0):
    """The closed form's two evaluators for one start offset.

    Returns (count2, offset): count2(n) is the number of selector-2 choices
    among steps 1..n, floor(X + n*Y) with X = (-inner0 + beta - beta1 +
    beta2)/span and Y = -beta1/span fixed once; offset(n, c) is the offset
    after n steps of which c chose b2, inner0 + n*beta1 + c*span.  The exact
    backends hold X and Y as integer surds over one positive denominator,
    dividing by span through its conjugate (whose norm may be negative), and
    take each floor by an integer square root; offsets come from the same
    integers.  The f64 backend keeps the float quotient.
    """
    if isinstance(betas.span, float):
        return (
            lambda n: _count2(betas, inner0, n),
            lambda n, c: inner0 + n * betas.beta1 + c * betas.span,
        )
    lat = OffsetLattice(betas.beta1, betas.beta2, betas.beta, inner0)
    d = lat.d
    (i_a, i_b), (b1a, b1b), (b2a, b2b), (wa, wb) = lat.start, lat.beta1, lat.beta2, lat.beta
    sa, sb = b2a - b1a, b2b - b1b
    norm = sa * sa - sb * sb * d
    sign = 1 if norm > 0 else -1

    def over_span(p, q):
        # (p + q*sqrt(d))/(sa + sb*sqrt(d)) = (p + q*sqrt(d))*(sa - sb*sqrt(d))/norm
        return sign * (p * sa - q * sb * d), sign * (q * sa - p * sb)

    xa, xb = over_span(wa - i_a + sa, wb - i_b + sb)
    ya, yb = over_span(-b1a, -b1b)
    denom = abs(norm)

    def count2(n: int) -> int:
        return surd_floor(xa + n * ya, xb + n * yb, denom, d)

    def offset(n: int, c: int):
        return lat.decode(i_a + n * b1a + c * sa, i_b + n * b1b + c * sb)

    return count2, offset


def _entry_state(p: DoubletonProblem, betas: Betas):
    """First iterate and its selector, with the entry hypothesis enforced."""
    x1, k1 = dr_step(p.hyperplane, p.finite_set(), p.x0)
    if region_of(betas, p.hyperplane.inner(x1), k1) is RegionLabel.OUTSIDE:
        raise PreconditionError(f"{NOT_APPLICABLE} (first iterate misses the window)")
    return x1, k1


def _point_unchecked(p: DoubletonProblem, betas: Betas, inner0, n: int):
    count2, offset = floor_form(betas, inner0)
    before = count2(n - 1)
    k = count2(n) - before + 1
    prev = inner0 if n == 1 else offset(n - 1, before)
    return line_point(prev, p.hyperplane.normal, p.b1 if k == 1 else p.b2), k


def closed_form_point(p: DoubletonProblem, betas: Betas, n: int):
    """The n-th iterate (point and selector), n >= 1, without iterating.

    Requires beta + beta2 >= 0 and that the first iterate lands in the
    absorbing window; refuses otherwise rather than extrapolate.
    """
    if n < 1:
        raise ValueError(f"closed form is stated for n >= 1, got {n}")
    inner0 = p.hyperplane.inner(p.x0)
    _require_applicable(betas, inner0)
    _entry_state(p, betas)
    return _point_unchecked(p, betas, inner0, n)


def corollary_point(p: DoubletonProblem, n: int):
    """Simplified closed form for starts on the hyperplane.

    Needs beta1 > beta >= -beta2, x0 on the hyperplane, and x0 strictly
    closer to b1 than to b2; each failed hypothesis is named.  The start
    offset drops out of all formulas.
    """
    if n < 1:
        raise ValueError(f"closed form is stated for n >= 1, got {n}")
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
    inner0 = p.hyperplane.inner(p.x0)
    if inner0 != 0 and not (p.backend == F64 and abs(inner0) <= F64_INVARIANT_SLACK):
        raise PreconditionError(
            f"hypothesis x0 on the hyperplane fails: offset {format_scalar(inner0)}"
        )
    margin = 2 * dot(p.x0, vsub(p.b1, p.b2)) - (norm_sq(p.b1) - norm_sq(p.b2))
    if not margin > 0:
        raise PreconditionError(
            "hypothesis 2<x0, b1-b2> > |b1|^2 - |b2|^2 fails: "
            f"margin {format_scalar(margin)}"
        )
    return _point_unchecked(p, betas, 0, n)


def beatty_triple(n: int) -> tuple[int, int, int]:
    """Integer triple driving the planar sqrt(2) instance.

    u_n flags whether the selector advanced, v_n and w_n are the integer and
    sqrt(2) parts of the offset: x_n = (u_n, -v_n + w_n*sqrt(2)).
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    f_next = floor(Surd(0, n + 1, 2))  # floor((n+1)*sqrt(2))
    u_n = f_next - floor(Surd(0, n, 2)) - 1
    v_n = floor(Surd(2 * (n + 1), -(n + 1), 2))  # floor((n+1)*(2-sqrt(2)))
    w_n = f_next - n - 1
    return u_n, v_n, w_n


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the formula-vs-iteration cross-check."""

    ok: bool
    checked: int
    horizon: int
    first_mismatch: dict | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "horizon": self.horizon,
            "first_mismatch": self.first_mismatch,
        }


def _points_agree(x, y, backend: str) -> bool:
    if backend != F64:
        return x == y
    for a, b in zip(x, y):
        if abs(a - b) > F64_INVARIANT_SLACK * max(1.0, abs(a), abs(b)):
            return False
    return True


def closed_form_trace(p: DoubletonProblem, horizon: int) -> RunResult:
    """Iterates 0..horizon from the closed form, shaped like iterate()'s result.

    Checks the hypotheses once, in closed_form_point's order, and refuses
    the same way.  Row n's offset is row n+1's line coefficient, so each row
    costs one floor.
    """
    betas = compute_betas(p)
    inner0 = p.hyperplane.inner(p.x0)
    _require_applicable(betas, inner0)
    _entry_state(p, betas)
    count2, offset = floor_form(betas, inner0)
    u = p.hyperplane.normal
    trace = [TraceRecord(0, p.x0, None, inner0)]
    before = count2(0)
    for n in range(1, horizon + 1):
        now = count2(n)
        k = now - before + 1
        x = line_point(trace[-1].inner, u, p.b1 if k == 1 else p.b2)
        trace.append(TraceRecord(n, x, k, offset(n, now)))
        before = now
    return RunResult(trace, Outcome.HORIZON, final_counts=(horizon - before, before))


def verify_closed_form(p: DoubletonProblem, horizon: int) -> VerifyReport:
    """Compare the closed form against direct iteration for n = 1..horizon.

    Exact backends demand exact equality of points and selectors; the float
    backend allows 1e-9 relative error on coordinates.  Reports the first
    mismatch with both values.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    formula = closed_form_trace(p, horizon).trace
    run = iterate(p.hyperplane, p.finite_set(), p.x0, horizon)
    for n in range(1, horizon + 1):
        rec, cf = run.trace[n], formula[n]
        if cf.selector_k != rec.selector_k or not _points_agree(cf.x, rec.x, p.backend):
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
