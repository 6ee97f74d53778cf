"""Alternating projections baseline.

Same two sets as the reflected iteration, but the plain composition: project
onto the hyperplane, then onto the nearest point of the finite set, keeping
every intermediate point. Useful as a contrast run, since this scheme settles
into a short back-and-forth regardless of the offset arithmetic that governs
the reflected dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import Outcome, _check_start, export_report, export_rows
from .geometry import (
    FiniteSet,
    Hyperplane,
    Vector,
    project_finite_set,
    project_hyperplane,
)


@dataclass
class ApTrace:
    """Interleaved projection outputs: x0, onto-plane, onto-set, onto-plane, ...

    selectors[i] is the 1-based index of the chosen set point when entry i
    came from the finite-set projector, else None.
    """

    points: list[Vector]
    selectors: list[int | None]

    def __len__(self) -> int:
        return len(self.points)


def ap_iterate(A: Hyperplane, B: FiniteSet, x0: Vector, steps: int) -> ApTrace:
    """Apply the projectors alternately for `steps` applications.

    Entry 0 is x0. Odd entries are hyperplane projections (offset exactly
    zero on exact backends); even entries from 2 on are members of B, ties
    resolved by B's tie policy.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_start(A, B, x0)
    points = [x0]
    selectors: list[int | None] = [None]
    x = x0
    for i in range(1, steps + 1):
        if i % 2 == 1:
            x = project_hyperplane(A, x)
            selectors.append(None)
        else:
            x, k = project_finite_set(B, x)
            selectors.append(k)
        points.append(x)
    return ApTrace(points, selectors)


def _records(trace: ApTrace, A: Hyperplane):
    for n, (x, k) in enumerate(zip(trace.points, trace.selectors)):
        yield n, k, A.inner(x), x


def ap_rows(trace: ApTrace, A: Hyperplane, B: FiniteSet):
    """Rows in the layout of the reflected-iteration export."""
    return export_rows(_records(trace, A), B.m)


def ap_report(trace: ApTrace, A: Hyperplane, B: FiniteSet) -> dict:
    return export_report("map", Outcome.HORIZON, A, B, _records(trace, A))
