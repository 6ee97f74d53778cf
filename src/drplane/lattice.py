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
set-up; the iteration driver, the cycle search and the closed form all run on
it, and only decode the offsets they report.  It reads the integers
``(p, q, n)`` a Surd holds (``(p + q*sqrt(d))/n``) and decodes pairs through
:func:`~drplane.scalars.surd_from_ints`, so no Fraction is built either way
on surd orbits.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .geometry import DEFAULT_TIE_POLICY, TiePolicy, Vector, norm_sq, vsub
from .scalars import Scalar, Surd, surd_from_ints, surd_sign


def window_constant(b1: Vector, b2: Vector, beta1: Scalar, beta2: Scalar) -> Scalar:
    """beta = |b1 - b2|^2 / (2*(beta1 - beta2)), where the absorbing window starts."""
    return norm_sq(vsub(b1, b2)) / (2 * (beta1 - beta2))


def thresholds(beta1: Scalar, beta2: Scalar, beta: Scalar) -> tuple[Scalar, Scalar]:
    """Selector thresholds (t1, t2): from state (k, offset) the next selector
    is 1 when offset > t_k and 2 when offset < t_k."""
    return beta - beta1, -beta - beta2


def tie_selector(policy: TiePolicy) -> int:
    """Selector taken at offset == t_k: equidistant reflections resolve to the
    higher offset (b2) only under the default policy; both alternatives
    pick b1."""
    return 2 if policy is TiePolicy.HIGHER_INNER else 1


class OffsetLattice:
    """Exact offsets ``(a + b*sqrt(d))/scale`` of one doubleton orbit.

    Built from the two point offsets, the window constant and one start
    offset (ints, Fractions or Surds over one radicand).  ``beta1``,
    ``beta2``, ``beta``, ``start``, ``t1`` and ``t2`` are their integer pairs
    ``(a, b)`` over the common ``scale``; ``d`` is 0 on rationals.
    """

    __slots__ = ("scale", "d", "beta1", "beta2", "beta", "start", "t1", "t2", "tie")

    def __init__(self, beta1, beta2, beta, start, tie_policy=DEFAULT_TIE_POLICY):
        values = (beta1, beta2, beta, start)
        parts = [
            (v.p, v.q, v.n) if isinstance(v, Surd) else (v.numerator, 0, v.denominator)
            for v in values
        ]
        self.d = next((v.d for v in values if isinstance(v, Surd)), 0)
        self.scale = scale = math.lcm(*(n for _, _, n in parts))
        self.beta1, self.beta2, self.beta, self.start = [
            (p * (scale // n), q * (scale // n)) for p, q, n in parts
        ]
        (b1a, b1b), (b2a, b2b), (wa, wb) = self.beta1, self.beta2, self.beta
        # the thresholds are linear, so they apply to each integer part
        (t1a, t2a), (t1b, t2b) = thresholds(b1a, b2a, wa), thresholds(b1b, b2b, wb)
        self.t1, self.t2 = (t1a, t1b), (t2a, t2b)
        self.tie = tie_selector(tie_policy)

    def decode(self, a: int, b: int):
        """The offset (a + b*sqrt(d))/scale as a Fraction, or a Surd when d != 0."""
        if self.d:
            return surd_from_ints(a, b, self.scale, self.d)
        return Fraction(a, self.scale)

    def walk(self, k: int, a: int, b: int):
        """The states (k, a, b) after state (k, a, b), one per step, without end."""
        (b1a, b1b), (b2a, b2b) = self.beta1, self.beta2
        (t1a, t1b), (t2a, t2b) = self.t1, self.t2
        tie, d = self.tie, self.d
        while True:
            if k == 1:
                sign = surd_sign(a - t1a, b - t1b, d)
            else:
                sign = surd_sign(a - t2a, b - t2b, d)
            if sign > 0:
                k = 1
            elif sign < 0:
                k = 2
            else:
                k = tie
            if k == 1:
                a += b1a
                b += b1b
            else:
                a += b2a
                b += b2b
            yield k, a, b
