"""Independent exact arithmetic and reference steps for the oracles.

The oracles never ask drplane to agree with itself.  They recompute single
steps with the textbook formulas below, over :class:`fractions.Fraction` and
over :class:`QD`, a minimal ``a + b*sqrt(d)`` type that shares no code with
``drplane.scalars``.  Only the standard library is imported here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

TIE_POLICIES = ("higher_inner", "lower_inner", "lowest_index")


class QD:
    """``a + b*sqrt(d)`` with Fraction ``a``, ``b`` and a square-free ``d``."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _lift(self, o):
        return o if isinstance(o, QD) else QD(o, 0, self.d)

    def __add__(self, o):
        o = self._lift(o)
        return QD(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return QD(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return QD(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        norm = o.a * o.a - o.b * o.b * self.d
        return self * QD(o.a / norm, -o.b / norm, self.d)

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __neg__(self):
        return QD(-self.a, -self.b, self.d)

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa
        if sa == 0:
            return sb
        # opposite signs: |a| against |b|*sqrt(d); never equal for square-free d
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def __lt__(self, o):
        return (self - o).sign() < 0

    def __gt__(self, o):
        return (self - o).sign() > 0

    def __le__(self, o):
        return (self - o).sign() <= 0

    def __eq__(self, o):
        if isinstance(o, float):
            return NotImplemented
        o = self._lift(o)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))


def dot(x, y):
    total = x[0] * y[0]
    for i in range(1, len(x)):
        total = total + x[i] * y[i]
    return total


def sqdist(x, y):
    return dot([a - b for a, b in zip(x, y)], [a - b for a, b in zip(x, y)])


class RefProblem:
    """A problem held in reference scalars, points sorted by offset.

    The sort is stable, so points with equal offsets keep their input order;
    selector indices are 1-based positions in this order.
    """

    def __init__(self, normal, points, x0, tie_policy="higher_inner"):
        if tie_policy not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {tie_policy!r}")
        self.u = list(normal)
        inners = [dot(p, self.u) for p in points]
        order = sorted(range(len(points)), key=lambda i: inners[i])
        self.points = [list(points[i]) for i in order]
        self.inners = [inners[i] for i in order]
        self.x0 = list(x0)
        self.tie_policy = tie_policy

    def nearest(self, y):
        """(point, 1-based index) nearest to y under the tie policy."""
        dists = [sqdist(y, b) for b in self.points]
        best = 0
        for i in range(1, len(dists)):
            if dists[i] < dists[best]:
                best = i
            elif dists[i] == dists[best]:
                if self.tie_policy == "higher_inner" and self.inners[i] > self.inners[best]:
                    best = i
                elif self.tie_policy == "lower_inner" and self.inners[i] < self.inners[best]:
                    best = i
        return self.points[best], best + 1

    def dr_step(self, x):
        """x - P_A x + P_B(R_A x) and the selected index."""
        c = dot(x, self.u)
        reflected = [xi - 2 * c * ui for xi, ui in zip(x, self.u)]
        b, k = self.nearest(reflected)
        return [c * ui + bi for ui, bi in zip(self.u, b)], k

    def project_plane(self, x):
        c = dot(x, self.u)
        return [xi - c * ui for xi, ui in zip(x, self.u)]

    def straddles(self) -> bool:
        return self.inners[0] < 0 < self.inners[-1]

    # -- doubleton constants (b1 below the plane, b2 above) -----------------

    def betas(self):
        b1, b2 = self.points
        beta1, beta2 = self.inners
        beta = sqdist(b1, b2) / (2 * (beta1 - beta2))
        return beta1, beta2, beta

    def closed_form_applies(self) -> bool:
        """The floor-form hypotheses, checked from their definitions: the
        window constant satisfies beta + beta2 >= 0, the start offset lies in
        ]beta, beta - beta1 + beta2], and the first iterate enters the window
        of its selector."""
        beta1, beta2, beta = self.betas()
        inner0 = dot(self.x0, self.u)
        if beta + beta2 < 0 or not (beta < inner0 and inner0 <= beta - beta1 + beta2):
            return False
        x1, k1 = self.dr_step(self.x0)
        c1 = dot(x1, self.u)
        if k1 == 1:
            return beta < c1 and c1 <= beta + beta2
        return beta + beta2 < c1 and c1 <= beta + beta2 - beta1


def from_program(value):
    """Reference scalar equal to a drplane scalar (Fraction, Surd or float)."""
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return QD(value.a, value.b, value.d)


def decode_wire(raw, backend: str, d=None):
    """Reference scalar from the problem JSON wire format."""
    if backend == "f64":
        return Fraction(float(raw))
    if backend == "rational":
        return Fraction(raw)
    if isinstance(raw, dict):
        return QD(Fraction(raw.get("a", 0)), Fraction(raw.get("b", 0)), d)
    return QD(Fraction(raw), 0, d)


def ref_problem(wire: dict) -> RefProblem:
    backend, d = wire["backend"], wire.get("surd_d")
    dec = lambda v: [decode_wire(c, backend, d) for c in v]  # noqa: E731
    return RefProblem(
        dec(wire["normal"]),
        [dec(p) for p in wire["points"]],
        dec(wire["x0"]),
        wire.get("tie_policy", "higher_inner"),
    )


@lru_cache(maxsize=1 << 16)
def parse_text_scalar(text: str) -> Fraction:
    """Exact value of drplane's text form of a rational or f64 scalar
    ('3/2', '-4', '0.25', '1e-05')."""
    if "." in text or "e" in text:
        return Fraction(float(text))
    return Fraction(text)


@lru_cache(maxsize=1 << 16)
def parse_json_scalar(raw) -> Fraction:
    """Exact value of drplane's JSON form of a rational or f64 scalar."""
    return Fraction(raw) if isinstance(raw, str) else Fraction(float(raw))
