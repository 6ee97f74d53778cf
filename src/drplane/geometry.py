"""Vectors, hyperplanes through the origin, finite point sets, and the
Douglas-Rachford step built from their projectors.

Vectors are plain tuples of scalars (see :mod:`drplane.scalars`), all from one
backend.  For a hyperplane ``A = {x : <x,u> = 0}`` with unit normal ``u``:

* projection:  ``P_A x = x - <x,u> u``
* reflection:  ``R_A x = x - 2 <x,u> u``
* distance:    ``d_A(x) = |<x,u>|``

The projector onto a finite set picks the nearest point by exact comparison
of squared distances; distance ties are broken by a deterministic, explicit
policy so that runs are reproducible.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from operator import add, mul, sub

from .errors import BackendError, DimensionMismatch, ProblemFormatError
from .scalars import F64, F64_ABS_TOL, SURD, Scalar, backend_of, finite_float
from .slotted import Value

Vector = tuple  # tuple of scalars, one backend per problem


def vector_backend(v: Sequence[Scalar]) -> str:
    """Common backend of all coordinates; BackendError if mixed or empty."""
    if len(v) == 0:
        raise BackendError("empty vector has no backend")
    tag = backend_of(v[0])
    for c in v[1:]:
        if backend_of(c) != tag:
            raise BackendError(f"vector mixes backends: {v!r}")
    return tag


def _check_dims(x, y) -> None:
    if len(x) != len(y):
        raise DimensionMismatch(f"dimension mismatch: {len(x)} vs {len(y)}")


def dot(x: Vector, y: Vector) -> Scalar:
    _check_dims(x, y)
    total = x[0] * y[0]
    for i in range(1, len(x)):
        total = total + x[i] * y[i]
    return total


def vadd(x: Vector, y: Vector) -> Vector:
    _check_dims(x, y)
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    _check_dims(x, y)
    return tuple(a - b for a, b in zip(x, y))


def vscale(c: Scalar, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def line_point(c: Scalar, u: Vector, b: Vector) -> Vector:
    """c*u + b: the point at coefficient c on the line b + span(u).

    Every DR iterate after the first lies on such a line, with b the selected
    point and c the previous iterate's offset, so this rebuilds iterates from
    (selector, offset) states.
    """
    return tuple(c * u[i] + b[i] for i in range(len(u)))


def norm_sq(x: Vector) -> Scalar:
    return dot(x, x)


def vec_equal(x: Vector, y: Vector, backend: str) -> bool:
    """Coordinate-wise equality; on f64, within F64_ABS_TOL per axis."""
    _check_dims(x, y)
    if backend == F64:
        return all(abs(a - b) <= F64_ABS_TOL for a, b in zip(x, y))
    return x == y


class TiePolicy(str, enum.Enum):
    """How the finite-set projector resolves exact distance ties."""

    HIGHER_INNER = "higher_inner"
    LOWER_INNER = "lower_inner"
    LOWEST_INDEX = "lowest_index"


DEFAULT_TIE_POLICY = TiePolicy.HIGHER_INNER


class Hyperplane(Value):
    """Hyperplane through the origin, stored with a unit normal.

    Float normals are normalized on construction; exact backends must supply
    a normal with <u,u> = 1 exactly (signed standard basis vectors and
    rational unit vectors like (3/5, 4/5) qualify), otherwise the promise of
    exact projections cannot be kept.  ``backend`` is derived from the
    normal once, here.
    """

    __slots__ = ("normal", "backend")
    _fields = ("normal",)

    def __init__(self, normal: Vector):
        normal = tuple(normal)
        if not normal:
            raise ValueError("hyperplane normal must be non-empty")
        backend = vector_backend(normal)
        ns = norm_sq(normal)
        if backend == F64:
            if not all(map(math.isfinite, normal)):
                raise ValueError(f"hyperplane normal must be finite, got {normal!r}")
            length = math.sqrt(ns)
            if length == 0.0:
                raise ValueError("hyperplane normal must be nonzero")
            normal = tuple(c / length for c in normal)
            if abs(norm_sq(normal) - 1.0) > F64_ABS_TOL:
                raise ValueError("could not normalize float normal to unit length")
        else:
            if ns == 0:
                raise ValueError("hyperplane normal must be nonzero")
            if ns != 1:
                raise ValueError(
                    "exact backends require an exactly unit normal, "
                    f"got <u,u> = {ns}"
                )
        self._set(normal=normal, backend=backend)
        if backend == SURD:
            self.check("normal", normal)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def check(self, name: str, v: Vector) -> None:
        """The one check of a vector against this hyperplane: its dimension
        (DimensionMismatch), its backend (BackendError), on f64 finite
        coordinates and a finite offset <v,u> (ProblemFormatError) and on
        surds no sqrt part over a radicand other than the normal's
        (BackendError); each message names the vector."""
        if len(v) != self.dim:
            raise DimensionMismatch(
                f"{name} dimension {len(v)} != hyperplane dimension {self.dim}"
            )
        if vector_backend(v) != self.backend:
            raise BackendError(f"{name} does not match the hyperplane backend")
        if self.backend == F64:
            try:
                for c in v:
                    finite_float(c)
            except ProblemFormatError as exc:
                raise ProblemFormatError(f"{name}: {exc}") from None
            if not math.isfinite(offset := self.inner(v)):
                raise ProblemFormatError(f"{name}: its offset <{name},u> = {offset!r} is not finite")
        elif self.backend == SURD:
            d = self.normal[0].d
            for c in v:
                if c.q and c.d != d:
                    raise BackendError(f"{name} has a sqrt({c.d}) part; the normal is over sqrt({d})")

    def inner(self, x: Vector) -> Scalar:
        """<x, u>; the signed offset of x from the hyperplane."""
        return dot(x, self.normal)


class FiniteSet(Value):
    """Finite point set, stored sorted by signed offset along a unit normal.

    ``inners[i]`` caches <points[i], u> for the hyperplane the set was built
    against; the whole analysis reads geometry through those offsets.
    """

    __slots__ = _fields = ("points", "inners", "tie_policy")

    def __init__(
        self,
        points: tuple[Vector, ...],
        inners: tuple,
        tie_policy: TiePolicy = DEFAULT_TIE_POLICY,
    ):
        if not points:
            raise ValueError("finite set needs at least one point")
        if len(points) != len(inners):
            raise ValueError("points/inners length mismatch")
        self._set(points=points, inners=inners, tie_policy=TiePolicy(tie_policy))

    @classmethod
    def ordered(
        cls,
        points: Sequence[Sequence[Scalar]],
        hyperplane: Hyperplane,
        tie_policy: TiePolicy = DEFAULT_TIE_POLICY,
    ) -> "FiniteSet":
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("finite set needs at least one point")
        for p in pts:
            hyperplane.check("point", p)
        inners = [hyperplane.inner(p) for p in pts]
        order = sorted(range(len(pts)), key=lambda i: inners[i])
        pts = [pts[i] for i in order]
        inners = [inners[i] for i in order]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if vec_equal(pts[i], pts[j], hyperplane.backend):
                    raise ValueError(f"finite set points must be pairwise distinct: {pts[i]}")
        return cls(tuple(pts), tuple(inners), TiePolicy(tie_policy))

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


def project_hyperplane(A: Hyperplane, x: Vector) -> Vector:
    c = A.inner(x)
    return vsub(x, vscale(c, A.normal))


def reflect_hyperplane(A: Hyperplane, x: Vector) -> Vector:
    c = A.inner(x)
    return vsub(x, vscale(2 * c, A.normal))


def _pick_winner(winners: list[int], inners, policy: TiePolicy) -> int:
    if policy == TiePolicy.LOWEST_INDEX or len(winners) == 1:
        return winners[0]
    best = winners[0]
    for i in winners[1:]:
        if policy == TiePolicy.HIGHER_INNER:
            if inners[i] > inners[best]:  # equal offsets keep the lower index
                best = i
        else:
            if inners[i] < inners[best]:
                best = i
    return best


def project_finite_set(B: FiniteSet, x: Vector) -> tuple[Vector, int]:
    """Nearest point of B and its 1-based index in the sorted order.

    Squared distances are compared (exactly, on exact backends); ties go to
    the policy, with equal-offset ties falling back to the lowest index.
    Each distance is ``norm_sq(vsub(x, b))``, its float operations in the
    same order, without a dimension check per point.  A non-finite f64
    minimum raises BackendError: no nearest point can be told among infinities.
    """
    points = B.points
    _check_dims(x, points[0])
    dists = []
    for b in points:
        diffs = map(sub, x, b)
        v = next(diffs)
        total = v * v
        for v in diffs:
            total = total + v * v
        dists.append(total)
    dmin = min(dists)  # the first minimum, as a scan with < keeps it
    if type(dmin) is float and not math.isfinite(dmin):
        raise BackendError(f"f64 squared distance to the set is non-finite ({dmin!r})")
    winners = [i for i, dv in enumerate(dists) if dv == dmin]
    best = _pick_winner(winners, B.inners, B.tie_policy)
    return points[best], best + 1


def dr_step(A: Hyperplane, B: FiniteSet, x: Vector) -> tuple[Vector, int]:
    """One Douglas-Rachford step: (next iterate, 1-based selected point index).

    next = x - P_A x + P_B(R_A x); with cu = <x,u> u this is cu + P_B(R_A x),
    so the new iterate visibly sits on the line b_k + span(u), and the
    selected point satisfies b_k = next - x + P_A x.  The float operations
    are those of ``dot``, ``vscale``, ``vsub`` and ``vadd``, in their order.
    """
    u = A.normal
    _check_dims(x, u)
    products = map(mul, x, u)
    c = next(products)
    for v in products:
        c = c + v
    cu = tuple([c * a for a in u])
    ra = tuple(map(sub, map(sub, x, cu), cu))  # R_A x = P_A x - cu
    pb, k = project_finite_set(B, ra)
    return tuple(map(add, cu, pb)), k
