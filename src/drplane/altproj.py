"""Alternating projections baseline.

Same two sets as the reflected iteration, but the plain composition: project
onto the hyperplane, then onto the nearest point of the finite set, keeping
every intermediate point. Useful as a contrast run, since this scheme settles
into a short back-and-forth regardless of the offset arithmetic that governs
the reflected dynamics.

Every backend and every set takes one path: the projectors run on vectors,
and from the first set point on, each point's two projections are computed
on its first visit and reused (see :func:`ap_iterate`).  The entries from 2
on are therefore fixed by (selector, selector before), a handful of states,
which the exporters format once each (see :func:`_records`) with the
encoders of :mod:`drplane.dynamics`; ``ap_report`` and ``ap_rows`` parse
their text.
"""

from __future__ import annotations

import json

from .dynamics import Outcome, _check_start, export_json, export_lines
from .geometry import (
    FiniteSet,
    Hyperplane,
    Vector,
    project_finite_set,
    project_hyperplane,
)
from .slotted import Record


class ApTrace(Record):
    """Interleaved projection outputs: x0, onto-plane, onto-set, onto-plane, ...

    selectors[i] is the 1-based index of the chosen set point when entry i
    came from the finite-set projector, else None.
    """

    __slots__ = _fields = ("points", "selectors")

    def __init__(self, points: list[Vector], selectors: list[int | None]):
        self.points, self.selectors = points, selectors

    def __len__(self) -> int:
        return len(self.points)


def ap_iterate(A: Hyperplane, B: FiniteSet, x0: Vector, steps: int) -> ApTrace:
    """Apply the projectors alternately for `steps` applications.

    Entry 0 is x0. Odd entries are hyperplane projections (offset exactly
    zero on exact backends); even entries from 2 on are members of B, ties
    resolved by B's tie policy.

    From entry 2 on the iterate is a point b_k of B, so the next two
    entries depend only on k: each k's pair is projected once, on the first
    visit, by the same projector calls, and reused after that.  Entries
    are therefore the ones a plain projector loop gives, on every backend.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_start(A, B, x0)
    plane = project_hyperplane(A, x0)
    points: list[Vector] = [x0, plane]
    selectors: list[int | None] = [None, None]
    after: dict[int, tuple] = {}  # k -> (P_A b_k, (point nearest it, its index))
    nearest = project_finite_set(B, plane)
    while len(points) <= steps:
        x, k = nearest
        points.append(x)
        selectors.append(k)
        if len(points) > steps:
            break
        if k not in after:
            plane = project_hyperplane(A, x)
            after[k] = plane, project_finite_set(B, plane)
        plane, nearest = after[k]
        points.append(plane)
        selectors.append(None)
    return ApTrace(points, selectors)


def _records(trace: ApTrace, A: Hyperplane, B: FiniteSet):
    """Each entry as an export record (n, k, inner, x, key).

    From entry 2 on, an entry is fixed by its selector k and the selector
    before it: a set point b_k is (k, None), and its offset is
    B.inners[k-1]; a plane entry P_A b_j is (None, j), its offset taken on
    j's first visit.  That pair is the entry's key.
    """
    inners, plane, before = B.inners, {}, None
    for n, (x, k) in enumerate(zip(trace.points, trace.selectors)):
        if k is not None:
            inner = inners[k - 1]
        elif before is None:  # x0 and P_A x0
            inner = A.inner(x)
        elif before in plane:
            inner = plane[before]
        else:
            inner = plane[before] = A.inner(x)
        yield n, k, inner, x, (k, before) if n >= 2 else None
        before = k


def ap_lines(trace: ApTrace, A: Hyperplane, B: FiniteSet):
    """CSV lines in the layout of the reflected-iteration export."""
    return export_lines(_records(trace, A, B), B.m)


def ap_json(trace: ApTrace, A: Hyperplane, B: FiniteSet) -> str:
    """The JSON report of the trace, rendered by :func:`~drplane.dynamics.export_json`."""
    return export_json("map", Outcome.HORIZON, A, B, _records(trace, A, B))


def ap_rows(trace: ApTrace, A: Hyperplane, B: FiniteSet):
    """The cells of each of ap_lines."""
    return (line.split(",") for line in ap_lines(trace, A, B))


def ap_report(trace: ApTrace, A: Hyperplane, B: FiniteSet) -> dict:
    """The report of ap_json, parsed."""
    return json.loads(ap_json(trace, A, B))
