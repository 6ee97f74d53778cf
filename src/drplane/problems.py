"""Problem container and its JSON wire format.

A problem is a hyperplane (unit normal ``u``), a finite point set and a
starting point.  Its backend and, on the surd backend, its radicand are read
from the normal.  Both entry points for outside input check against the
hyperplane (:meth:`~drplane.geometry.Hyperplane.check`): ``FiniteSet.ordered``
each point, then ``Problem`` x0 and each point again.  On disk:

.. code-block:: json

    {"normal": [0, 1],
     "points": [[0, -1], [1, {"a": "0", "b": "1"}]],
     "x0": [0, 0],
     "backend": "surd",
     "surd_d": 2,
     "tie_policy": "higher_inner"}

Scalars are JSON numbers on the f64 backend, ints or "p/q" strings on the
rational backend, and ``{"a": "p/q", "b": "p/q"}`` objects (meaning
``a + b*sqrt(surd_d)``) on the surd backend.  Round-tripping through
``problem_to_dict``/``problem_from_dict`` preserves exact values.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction

from .errors import BackendError, ProblemFormatError
from .geometry import DEFAULT_TIE_POLICY, FiniteSet, Hyperplane, TiePolicy, Vector
from .scalars import BACKENDS, SURD, Surd, decode_scalar, encode_scalar, finite_float
from .slotted import Value


class Problem(Value):
    __slots__ = _fields = ("hyperplane", "points", "x0")

    def __init__(self, hyperplane: Hyperplane, points: FiniteSet, x0: Vector):
        hyperplane.check("x0", x0)
        for pt in points.points:
            hyperplane.check("point", pt)
        self._set(hyperplane=hyperplane, points=points, x0=x0)

    @property
    def backend(self) -> str:
        return self.hyperplane.backend

    @property
    def surd_d(self) -> int | None:
        c = self.hyperplane.normal[0]
        return c.d if isinstance(c, Surd) else None

    @property
    def tie_policy(self) -> TiePolicy:
        return self.points.tie_policy


def _decode_vector(raw, name: str, backend: str, surd_d) -> Vector:
    if not isinstance(raw, list) or not raw:
        raise ProblemFormatError(f"{name} must be a non-empty array")
    return tuple(decode_scalar(c, backend, surd_d) for c in raw)


def problem_from_dict(data: dict) -> Problem:
    if not isinstance(data, dict):
        raise ProblemFormatError("problem must be a JSON object")
    known = {"normal", "points", "x0", "backend", "surd_d", "tie_policy"}
    extra = set(data) - known
    if extra:
        raise ProblemFormatError(f"unknown problem keys: {sorted(extra)}")
    for key in ("normal", "points", "x0", "backend"):
        if key not in data:
            raise ProblemFormatError(f"problem is missing {key!r}")
    backend = data["backend"]
    if backend not in BACKENDS:
        raise ProblemFormatError(f"unknown backend {backend!r}")
    surd_d = data.get("surd_d")
    if backend == SURD:
        if not isinstance(surd_d, int) or isinstance(surd_d, bool):
            raise ProblemFormatError("surd backend requires an integer surd_d")
    elif surd_d is not None:
        raise ProblemFormatError("surd_d only applies to the surd backend")

    tie_raw = data.get("tie_policy", DEFAULT_TIE_POLICY.value)
    try:
        tie_policy = TiePolicy(tie_raw)
    except ValueError:
        raise ProblemFormatError(f"unknown tie_policy {tie_raw!r}") from None

    try:
        normal = _decode_vector(data["normal"], "normal", backend, surd_d)
        hyperplane = Hyperplane(normal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFormatError(f"bad normal: {exc}") from None

    raw_points = data["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ProblemFormatError("points must be a non-empty array of points")
    try:
        pts = [_decode_vector(p, "point", backend, surd_d) for p in raw_points]
        finite = FiniteSet.ordered(pts, hyperplane, tie_policy)
    except ProblemFormatError:
        raise
    except ValueError as exc:
        raise ProblemFormatError(f"bad points: {exc}") from None

    x0 = _decode_vector(data["x0"], "x0", backend, surd_d)
    return Problem(hyperplane, finite, x0)


def problem_to_dict(p: Problem) -> dict:
    data = {
        "normal": [encode_scalar(c) for c in p.hyperplane.normal],
        "points": [[encode_scalar(c) for c in pt] for pt in p.points.points],
        "x0": [encode_scalar(c) for c in p.x0],
        "backend": p.backend,
        "tie_policy": p.points.tie_policy.value,
    }
    if p.surd_d is not None:
        data["surd_d"] = p.surd_d
    return data


def load_problem(path) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON: {exc}") from None
    return problem_from_dict(data)


def save_problem(p: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(problem_to_dict(p), fp, indent=2)
        fp.write("\n")


def make_problem(
    normal: Sequence,
    points: Sequence[Sequence],
    x0: Sequence,
    tie_policy: TiePolicy = DEFAULT_TIE_POLICY,
) -> Problem:
    """Build a Problem from already-typed scalars, inferring the backend.

    Ints and Fractions are lifted into the surd backend when any coordinate
    anywhere is a Surd; a float anywhere forces the f64 backend and rejects
    exact scalars rather than silently rounding them.
    """
    vectors = [tuple(normal), *[tuple(p) for p in points], tuple(x0)]
    surd_d = None
    saw_float = False
    for v in vectors:
        for c in v:
            if isinstance(c, Surd):
                if surd_d is not None and c.d != surd_d:
                    raise BackendError("problem mixes surds over different radicands")
                surd_d = c.d
            elif isinstance(c, float):
                saw_float = True
    if surd_d is not None and saw_float:
        raise BackendError("problem mixes float and surd scalars")
    if surd_d is not None:
        vectors = [
            tuple(c if isinstance(c, Surd) else Surd(c, 0, surd_d) for c in v)
            for v in vectors
        ]
    elif saw_float:
        for v in vectors:
            for c in v:
                if isinstance(c, bool) or not isinstance(c, (float, int)):
                    raise BackendError(
                        "float problems accept only float or int coordinates"
                    )
        vectors = [tuple(finite_float(c) for c in v) for v in vectors]
    else:
        vectors = [tuple(Fraction(c) for c in v) for v in vectors]
    normal_v, *pts, x0_v = vectors
    hyperplane = Hyperplane(normal_v)
    return Problem(hyperplane, FiniteSet.ordered(pts, hyperplane, tie_policy), x0_v)
