"""Scalar arithmetic over three interchangeable backends.

* ``f64`` -- plain Python floats, for fast exploration.
* ``rational`` -- :class:`fractions.Fraction`, exact.
* ``surd`` -- numbers ``a + b*sqrt(d)`` with rational ``a``, ``b`` and a fixed
  square-free radicand ``d >= 2``, exact.

Periodicity questions are meaningless in floating point (every float is
rational), so whenever an answer depends on whether a quotient is rational the
exact backends are authoritative and the float backend refuses.

A problem uses exactly one backend; arithmetic never mixes them.  Integers and
Fractions embed into the surd field, so ``2 * Surd(...)`` is fine, but any
float operand raises :class:`BackendError`.

Comparisons and floors on surds are decided by integer sign analysis
(comparing ``a**2`` against ``b**2 * d`` with the correct sign cases, and
bracketing with exact integer square roots) -- never by rounding through
floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import BackendError, ProblemFormatError

F64 = "f64"
RATIONAL = "rational"
SURD = "surd"
BACKENDS = (F64, RATIONAL, SURD)

# Denominator cap for the continued-fraction rationality heuristic on floats.
HEURISTIC_MAX_DENOMINATOR = 10**6

_checked_radicands: set[int] = set()


def is_square_free(d: int) -> bool:
    if d < 1:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


def _check_radicand(d) -> int:
    if not isinstance(d, int) or isinstance(d, bool):
        raise BackendError(f"surd radicand must be an int, got {d!r}")
    if d in _checked_radicands:
        return d
    # d == 1 would make sqrt(d) rational and break the "b == 0 iff rational"
    # contract, so it is rejected along with non-square-free values.
    if d < 2 or not is_square_free(d):
        raise BackendError(f"surd radicand must be square-free and >= 2, got {d}")
    _checked_radicands.add(d)
    return d


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise BackendError(f"expected an int or Fraction, got {type(value).__name__}")


def surd_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d), via comparison of squared terms.

    ``a`` and ``b`` are ints or Fractions and ``d`` a valid radicand; ``d``
    is never read when ``b == 0``.
    """
    if b == 0:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if a == 0:
        return -1 if b < 0 else 1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Mixed signs: |a| vs |b|*sqrt(d) decided by a^2 vs b^2*d.
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:  # would force sqrt(d) rational; unreachable for valid d
        return 0
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def surd_floor(p1: int, p2: int, q: int, d: int) -> int:
    """Exact floor of (p1 + p2*sqrt(d))/q for integers with q > 0.

    floor((p1 + s)/q) == floor((p1 + floor(s))/q) for integer p1 and q > 0,
    and floor(p2*sqrt(d)) comes from an exact integer square root.  ``d`` is
    a valid radicand, never read when ``p2 == 0``.
    """
    if p2 == 0:
        return p1 // q
    # p2^2*d is never a perfect square (d square-free, p2 != 0), so the
    # negative branch always rounds down by one.
    root = math.isqrt(p2 * p2 * d)
    return (p1 + (root if p2 > 0 else -root - 1)) // q


class Surd:
    """``a + b*sqrt(d)`` with rational ``a``, ``b``; exact field arithmetic."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "d", _check_radicand(d))

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    # -- coercion ---------------------------------------------------------

    def _lift(self, other) -> "Surd | None":
        if isinstance(other, Surd):
            return other
        if isinstance(other, float):
            raise BackendError("cannot mix float with the exact surd backend")
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Surd(other, 0, self.d)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        s, o = _aligned(self, other)
        return Surd(s.a + o.a, s.b + o.b, s.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        s, o = _aligned(self, other)
        return Surd(s.a - o.a, s.b - o.b, s.d)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        o, s = _aligned(other, self)
        return Surd(o.a - s.a, o.b - s.b, s.d)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        s, o = _aligned(self, other)
        return Surd(
            s.a * o.a + s.b * o.b * s.d,
            s.a * o.b + s.b * o.a,
            s.d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "Surd":
        denom = self.a * self.a - self.b * self.b * self.d
        if denom == 0:
            # Only possible when a == b == 0: sqrt(d) is irrational.
            raise ZeroDivisionError("division by zero surd")
        return Surd(self.a / denom, -self.b / denom, self.d)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        s, o = _aligned(self, other)
        return s * o._inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        o, s = _aligned(other, self)
        return o * s._inverse()

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- exact comparisons --------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d); see :func:`surd_sign`."""
        return surd_sign(self.a, self.b, self.d)

    def _diff_sign(self, other) -> int:
        lifted = self._lift(other)
        if lifted is None:
            raise BackendError(f"cannot compare Surd with {type(other).__name__}")
        return (self - lifted).sign()

    def __eq__(self, other):
        if isinstance(other, float) or isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction, Surd)):
            s, o = _aligned(self, self._lift(other))
            return s.a == o.a and s.b == o.b
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    def __hash__(self):
        # Rational-valued surds must hash like their Fraction value so that
        # mathematically equal scalars collide in tables.
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- conversions ------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __floor__(self) -> int:
        """Exact floor by integer bracketing; floats are never consulted."""
        a, b = self.a, self.b
        q = math.lcm(a.denominator, b.denominator)
        return surd_floor(
            a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q, self.d
        )

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise BackendError(f"{self} is irrational; no Fraction value")
        return self.a

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        return format_scalar(self)


def _aligned(x: Surd, y: Surd) -> tuple[Surd, Surd]:
    """Bring two surds onto a common radicand; only rational-valued ones move."""
    if x.d == y.d:
        return x, y
    if y.b == 0:
        return x, Surd(y.a, 0, x.d)
    if x.b == 0:
        return Surd(x.a, 0, y.d), y
    raise BackendError(f"cannot combine surds over sqrt({x.d}) and sqrt({y.d})")


Scalar = Union[float, int, Fraction, Surd]


def backend_of(s: Scalar) -> str:
    """Backend tag of a single scalar value."""
    if isinstance(s, Surd):
        return SURD
    if isinstance(s, float):
        return F64
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return RATIONAL
    raise BackendError(f"not a scalar: {s!r}")


def floor(s: Scalar) -> int:
    """floor(s) as a plain int; exact on the exact backends."""
    return math.floor(s)


def is_rational(s: Scalar) -> bool:
    """Whether s is a rational number.

    Decidable only on the exact backends; the float backend raises
    BackendError (every float is trivially rational, which is never the
    question being asked).
    """
    if isinstance(s, Surd):
        return s.is_rational()
    if isinstance(s, float):
        raise BackendError(
            "rationality is undecidable on the float backend; "
            "use an exact backend or an explicit heuristic"
        )
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return True
    raise BackendError(f"not a scalar: {s!r}")


def rational_heuristic(x: float, max_denominator: int = HEURISTIC_MAX_DENOMINATOR) -> Fraction:
    """Best rational approximation with bounded denominator (heuristic only).

    Continued-fraction based via Fraction.limit_denominator.  This can only
    ever *suggest* rationality; it is not a proof and is labeled as heuristic
    wherever surfaced.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot approximate non-finite float {x!r}")
    return Fraction(x).limit_denominator(max_denominator)


def as_fraction(s: Scalar) -> Fraction:
    """Exact Fraction value of a rational scalar; errors on floats/irrationals."""
    if isinstance(s, Surd):
        return s.as_fraction()
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return Fraction(s)
    raise BackendError(f"no exact Fraction value for {s!r}")


def scalar_from_int(n: int, backend: str, surd_d: int | None = None) -> Scalar:
    if backend == F64:
        return float(n)
    if backend == RATIONAL:
        return Fraction(n)
    if backend == SURD:
        return Surd(n, 0, surd_d)
    raise BackendError(f"unknown backend {backend!r}")


def format_scalar(s: Scalar) -> str:
    """Compact text form: '3/2', '-4+3*sqrt(2)', '0.25'."""
    if isinstance(s, Surd):
        if s.b == 0:
            return _format_fraction(s.a)
        coeff = ""
        if s.b == -1:
            coeff = "-"
        elif s.b != 1:
            coeff = _format_fraction(s.b) + "*"
        root = f"{coeff}sqrt({s.d})"
        if s.a == 0:
            return root
        if root.startswith("-"):
            return _format_fraction(s.a) + root
        return _format_fraction(s.a) + "+" + root
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return _format_fraction(Fraction(s))
    if isinstance(s, float):
        return repr(s)
    raise BackendError(f"not a scalar: {s!r}")


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text) -> Fraction:
    """Parse 'p/q' or 'p' (also accepts ints)."""
    if isinstance(text, bool):
        raise ProblemFormatError(f"not a rational literal: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"bad rational literal {text!r}: {exc}") from None
    raise ProblemFormatError(f"not a rational literal: {text!r}")


def encode_scalar(s: Scalar):
    """JSON-ready form: float -> number, rational -> 'p/q', surd -> {'a','b'}."""
    if isinstance(s, Surd):
        return {"a": _format_fraction(s.a), "b": _format_fraction(s.b)}
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return _format_fraction(Fraction(s))
    if isinstance(s, float):
        return s
    raise BackendError(f"not a scalar: {s!r}")


def decode_scalar(value, backend: str, surd_d: int | None = None) -> Scalar:
    """Inverse of encode_scalar for a declared backend.

    Exact backends accept ints and 'p/q' strings but reject non-integral JSON
    numbers: silently turning 0.1 into a binary fraction would defeat the
    point of exactness.
    """
    if backend == F64:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProblemFormatError(f"f64 backend expects numbers, got {value!r}")
        return float(value)
    if backend == RATIONAL:
        return _decode_exact_rational(value)
    if backend == SURD:
        if surd_d is None:
            raise ProblemFormatError("surd backend requires surd_d")
        if isinstance(value, dict):
            extra = set(value) - {"a", "b"}
            if extra:
                raise ProblemFormatError(f"unknown surd keys {sorted(extra)}")
            a = _decode_exact_rational(value.get("a", 0))
            b = _decode_exact_rational(value.get("b", 0))
            try:
                return Surd(a, b, surd_d)
            except BackendError as exc:
                raise ProblemFormatError(str(exc)) from None
        try:
            return Surd(_decode_exact_rational(value), 0, surd_d)
        except BackendError as exc:
            raise ProblemFormatError(str(exc)) from None
    raise ProblemFormatError(f"unknown backend {backend!r}")


def _decode_exact_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ProblemFormatError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise ProblemFormatError(
            f"exact backends need integers or 'p/q' strings, got float {value!r}"
        )
    if isinstance(value, str):
        return parse_rational(value)
    raise ProblemFormatError(f"not a rational value: {value!r}")
