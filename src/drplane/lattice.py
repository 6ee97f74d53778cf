"""Integer lattice of doubleton orbit states.

After its first step, the orbit of a doubleton B = {b1, b2} that straddles
the hyperplane is the pair (selector k, offset c): the iterate is
``x_n = c_{n-1}*u + b_k``, the offset moves by ``c_n = c_{n-1} + beta_k``, and
the next selector is 1 when ``c_n > t_k``, 2 when ``c_n < t_k``, the tie
policy deciding at equality.  The thresholds are ``t1 = beta - beta1`` and
``t2 = -beta - beta2``, with ``beta`` the window constant.

On the exact backends every offset of one orbit is ``(a + b*sqrt(d))/scale``
for a single integer ``scale``, rationals being the ``b = 0`` slice, so the
orbit advances on integer triples ``(k, a, b)`` and compares by
:func:`~drplane.scalars.surd_sign`.  :class:`OffsetLattice` holds that
set-up, and :meth:`OffsetLattice.pair` gives the pair of any offset of the
orbit.  It reads the integers ``(p, q, n)`` a Surd holds
(``(p + q*sqrt(d))/n``) and decodes pairs through
:func:`~drplane.scalars.surd_from_ints`, so no Fraction is built either way
on surd orbits; rational pairs decode through
:func:`~drplane.scalars.fraction_from_ints`.  On f64 the pairs are float offsets ``(v, 0)`` over
``scale = 1``, where the sign test reads the float difference ``a - t``; a
float lattice is only walked, never decoded.

Points are built from the same integers: :meth:`OffsetLattice.line_points`
fixes per-coordinate integer constants for one normal and point pair, after
which an iterate ``x = ((a + b*sqrt(d))/scale)*u + b_k`` costs one
:func:`~drplane.scalars.fraction_from_ints` or one
:func:`~drplane.scalars.surd_from_ints` per coordinate.

Each :class:`~drplane.cycling.DoubletonProblem` builds its orbit's lattice
and point evaluator once, for the cycle search and the closed form; the
iteration driver, which takes a hyperplane and a point set, builds its own.
:func:`~drplane.geometry.line_point` stays the formula for offsets that are
already decoded.
"""

from __future__ import annotations

import math

from .geometry import DEFAULT_TIE_POLICY, TiePolicy, Vector, norm_sq, vsub
from .scalars import Scalar, Surd, fraction_from_ints, surd_from_ints, surd_sign


def _int_parts(v) -> tuple[int, int, int]:
    """(p, q, n) with v == (p + q*sqrt(d))/n; q == 0 for ints and Fractions,
    and a float is (v, 0, 1)."""
    if isinstance(v, Surd):
        return v.p, v.q, v.n
    if isinstance(v, float):
        return v, 0, 1
    return v.numerator, 0, v.denominator


def window_constant(b1: Vector, b2: Vector, beta1: Scalar, beta2: Scalar) -> Scalar:
    """beta = |b1 - b2|^2 / (2*(beta1 - beta2)), where the absorbing window starts."""
    return norm_sq(vsub(b1, b2)) / (2 * (beta1 - beta2))


class OffsetLattice:
    """Exact offsets ``(a + b*sqrt(d))/scale`` of one doubleton orbit.

    Built from the two point offsets, the window constant and one start
    offset (ints, Fractions or Surds over one radicand).  ``beta1``,
    ``beta2``, ``beta``, ``start``, ``t1`` and ``t2`` are their integer pairs
    ``(a, b)`` over the common ``scale``; ``d`` is 0 on rationals.  Float
    values give float pairs ``(v, 0)`` over ``scale = 1``, for :meth:`walk`
    only.
    """

    __slots__ = ("scale", "d", "beta1", "beta2", "beta", "start", "t1", "t2", "tie")

    def __init__(self, beta1, beta2, beta, start, tie_policy=DEFAULT_TIE_POLICY):
        values = (beta1, beta2, beta, start)
        self.d = next((v.d for v in values if isinstance(v, Surd)), 0)
        self.scale = math.lcm(*(_int_parts(v)[2] for v in values))
        self.beta1, self.beta2, self.beta, self.start = map(self.pair, values)
        (b1a, b1b), (b2a, b2b), (wa, wb) = self.beta1, self.beta2, self.beta
        # t1 = beta - beta1 and t2 = -beta - beta2 are linear, so they apply
        # to each integer part
        self.t1, self.t2 = (wa - b1a, wb - b1b), (-wa - b2a, -wb - b2b)
        # equidistant reflections resolve to the higher offset (b2) only
        # under the default policy; both alternatives pick b1
        self.tie = 2 if tie_policy is TiePolicy.HIGHER_INNER else 1

    def pair(self, v) -> tuple[int, int]:
        """The integer pair (a, b) of an offset v of this orbit: any sum of
        the start offset and multiples of beta1 and beta2, whose denominator
        divides ``scale``."""
        p, q, n = _int_parts(v)
        m = self.scale // n
        return p * m, q * m

    def decode(self, a: int, b: int):
        """The offset (a + b*sqrt(d))/scale as a Fraction, or a Surd when d != 0."""
        if self.d:
            return surd_from_ints(a, b, self.scale, self.d)
        return fraction_from_ints(a, self.scale)

    def line_points(self, u: Vector, points: tuple[Vector, ...]) -> "LinePoints":
        """The point evaluator of this lattice for normal u and points (b1, b2)."""
        return LinePoints(self, u, points)

    def walk(self, k: int, a: int, b: int):
        """The states (k, a, b) after state (k, a, b), one per step, without end."""
        (b1a, b1b), (b2a, b2b) = self.beta1, self.beta2
        (t1a, t1b), (t2a, t2b) = self.t1, self.t2
        tie, d = self.tie, self.d
        while True:
            if k == 1:
                da, db = a - t1a, b - t1b
            else:
                da, db = a - t2a, b - t2b
            # with no sqrt(d) part, da carries the sign
            sign = surd_sign(da, db, d) if db else da
            if sign > 0 or (sign == 0 and tie == 1):
                k = 1
                a += b1a
                b += b1b
            else:
                k = 2
                a += b2a
                b += b2b
            yield k, a, b


class LinePoints:
    """Iterates ``x = ((a + b*sqrt(d))/scale)*u + b_k`` from lattice integers.

    Coordinate i of ``c*u + b_k`` with ``u_i = (up + uq*sqrt(d))/un`` and
    ``b_k[i] = (bp + bq*sqrt(d))/bn`` is ``(P + Q*sqrt(d))/D`` over
    ``D = lcm(scale*un, bn)``, where ``P = m*(a*up + b*uq*d) + bp*(D//bn)``,
    ``Q = m*(a*uq + b*up) + bq*(D//bn)`` and ``m = D//(scale*un)``.  The
    integer constants are fixed once per (k, i); a coordinate with
    ``u_i == 0`` holds its value ``b_k[i]``.  Equal in value and scalar type
    to :func:`~drplane.geometry.line_point` of the decoded offset.
    """

    __slots__ = ("d", "rows")

    def __init__(self, lat: OffsetLattice, u: Vector, points: tuple[Vector, ...]):
        self.d = d = lat.d
        zero = lat.decode(0, 0)
        self.rows = tuple(
            tuple(_coordinate(lat.scale, d, zero, ui, bi) for ui, bi in zip(u, b))
            for b in points
        )

    def point(self, k: int, a: int, b: int) -> Vector:
        """The point on the line of b_k at offset (a + b*sqrt(d))/scale."""
        d = self.d
        x = []
        for c in self.rows[k - 1]:
            if type(c) is not tuple:
                x.append(c)
            elif d:
                ua, ub, ud, pa, pb, den = c
                x.append(surd_from_ints(ua * a + ud * b + pa, ub * a + ua * b + pb, den, d))
            else:
                x.append(fraction_from_ints(c[0] * a + c[3], c[5]))
        return tuple(x)


def _coordinate(scale: int, d: int, zero, ui, bi):
    """LinePoints' constants (m*up, m*uq, m*uq*d, bp*f, bq*f, D) for one
    coordinate, or its value b_i, in the lattice's scalar type, when u_i == 0."""
    if ui == 0:
        return zero + bi
    up, uq, un = _int_parts(ui)
    bp, bq, bn = _int_parts(bi)
    den = math.lcm(scale * un, bn)
    m, f = den // (scale * un), den // bn
    return m * up, m * uq, m * uq * d, bp * f, bq * f, den
