"""Scalar arithmetic over three interchangeable backends.

* ``f64`` -- plain Python floats, for fast exploration.
* ``rational`` -- :class:`fractions.Fraction`, exact.
* ``surd`` -- numbers ``a + b*sqrt(d)`` with rational ``a``, ``b`` and a fixed
  square-free radicand ``d >= 2``, exact.  A :class:`Surd` holds integers
  ``(p + q*sqrt(d))/n`` in one normal form, ``n > 0`` and
  ``gcd(p, q, n) == 1``; every operation is integer products and one gcd,
  and ``a = p/n``, ``b = q/n`` are derived Fractions.  ``p``, ``q``, ``n``
  and ``d`` are read-only properties over private slots (see :class:`Surd`).

Periodicity questions are meaningless in floating point (every float is
rational), so whenever an answer depends on whether a quotient is rational the
exact backends are authoritative and the float backend refuses.  Float
checks elsewhere in the package share two tolerances, :data:`F64_ABS_TOL`
and :data:`F64_REL_TOL`; the comment at their definition lists each check.

A problem uses exactly one backend; arithmetic never mixes them.  Integers and
Fractions embed into the surd field, so ``2 * Surd(...)`` is fine, but any
float operand raises :class:`BackendError`.

Comparisons and floors on surds are decided by integer sign analysis
(comparing ``p**2`` against ``q**2 * d`` with the correct sign cases, and
bracketing with exact integer square roots) -- never by rounding through
floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

from .errors import BackendError, ProblemFormatError

F64 = "f64"
RATIONAL = "rational"
SURD = "surd"
BACKENDS = (F64, RATIONAL, SURD)

# Denominator cap for the continued-fraction rationality heuristic on floats.
HEURISTIC_MAX_DENOMINATOR = 10**6

# The f64 tolerance policy: every float check in the package uses one of
# these two values, each comparison in the form given here.
#   F64_ABS_TOL, absolute:
#     geometry.vec_equal        |x_i - y_i| <= tol on every coordinate
#     geometry.Hyperplane       rejects a normal with |<u,u> - 1| > tol after
#                               normalising
#     dynamics.classify         a point with |offset| <= tol touches A, so a
#                               DoubletonProblem needs beta1 < -tol < tol < beta2
#     dynamics.check_step_gap   fails on a gap < min_i d_A(b_i) - tol
#   F64_REL_TOL, relative:
#     cycling.detect_cycle      offset cells of width tol * max(1, |c|) over
#                               the start offset, beta1, beta2, t1 and t2
#     cycling._vectors_match    |x_i - y_i| <= tol * max(1, |x_j| over j)
#     closedform._points_agree  |x_i - y_i| <= tol * max(1, |x_i|, |y_i|),
#                               scaled per coordinate
#     cli --heuristic-rationality  |guess - ratio| <= tol * max(1, |ratio|)
#     closedform.compute_betas and corollary_point use tol unscaled, as the
#       slack of the window invariants and of the start's offset
F64_ABS_TOL = 1e-12
F64_REL_TOL = 1e-9

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
    """``(p + q*sqrt(d))/n`` with integers ``p``, ``q``, ``n`` and a valid
    radicand ``d``; exact field arithmetic.

    The integers are held in one normal form, ``n > 0`` and
    ``gcd(p, q, n) == 1``, so equal values have equal fields and the value is
    rational exactly when ``q == 0``.  ``Surd(a, b, d)`` takes the rational
    parts of ``a + b*sqrt(d)`` (ints or Fractions); ``a`` and ``b`` are
    derived Fraction properties.  Each operation is a few integer products
    and one gcd (:func:`surd_from_ints`).

    The private slots ``_p``, ``_q``, ``_n``, ``_d`` are filled by plain
    stores, the cheapest way to build the Surd each operation returns, and
    read by the package's hot paths; ``p``, ``q``, ``n``, ``d`` read them as
    ``Fraction.numerator`` reads ``_numerator``, and cannot be set or deleted.
    """

    __slots__ = ("_p", "_q", "_n", "_d")
    p, q, n, d = (property(attrgetter(name)) for name in __slots__)

    def __init__(self, a, b, d):
        a, b, d = _as_fraction(a), _as_fraction(b), _check_radicand(d)
        a_den, b_den = a.denominator, b.denominator
        # over the lcm of two reduced fractions' denominators, gcd(p, q, n) == 1
        n = a_den // math.gcd(a_den, b_den) * b_den
        self._p, self._q = a.numerator * (n // a_den), b.numerator * (n // b_den)
        self._n, self._d = n, d

    def __reduce__(self):
        return surd_from_ints, (self._p, self._q, self._n, self._d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._n)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._n)

    # -- coercion ---------------------------------------------------------

    def _operand(self, other):
        """(p, q, n, d) of other over the common radicand; None for a
        non-scalar."""
        if isinstance(other, Surd):
            d = self._d
            if other._d != d:
                d = _common_radicand(self, other)
            return other._p, other._q, other._n, d
        if isinstance(other, float):
            raise BackendError("cannot mix float with the exact surd backend")
        if isinstance(other, int):
            if isinstance(other, bool):
                return None
            return other, 0, 1, self._d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self._d
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        m = self._n
        return surd_from_ints(self._p * n + p * m, self._q * n + q * m, m * n, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        m = self._n
        return surd_from_ints(self._p * n - p * m, self._q * n - q * m, m * n, d)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        m = self._n
        return surd_from_ints(p * m - self._p * n, q * m - self._q * n, m * n, d)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        sp, sq = self._p, self._q
        return surd_from_ints(sp * p + sq * q * d, sp * q + sq * p, self._n * n, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(self._p, self._q, self._n, *o)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        return _quotient(p, q, n, self._p, self._q, self._n, d)

    def __neg__(self):
        return surd_from_ints(-self._p, -self._q, self._n, self._d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        # sqrt(d) is irrational, so the value is zero only when p == q == 0
        return self._p != 0 or self._q != 0

    # -- exact comparisons --------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value; see :func:`surd_sign`."""
        return surd_sign(self._p, self._q, self._d)

    def _diff_sign(self, other) -> int:
        o = self._operand(other)
        if o is None:
            raise BackendError(f"cannot compare Surd with {type(other).__name__}")
        p, q, n, d = o
        m = self._n
        # both denominators are positive, so the cross-multiplied difference
        # has the sign of self - other
        return surd_sign(self._p * n - p * m, self._q * n - q * m, d)

    def __eq__(self, other):
        if isinstance(other, Surd):
            if other._d != self._d:
                _common_radicand(self, other)
            return self._p == other._p and self._q == other._q and self._n == other._n
        if isinstance(other, (bool, float)):
            return NotImplemented
        if isinstance(other, int):
            return self._q == 0 and self._n == 1 and self._p == other
        if isinstance(other, Fraction):
            return self._q == 0 and self._p == other.numerator and self._n == other.denominator
        return NotImplemented

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
        if self._q == 0:
            return hash(Fraction(self._p, self._n))
        return hash((self._p, self._q, self._n, self._d))

    # -- conversions ------------------------------------------------------

    def __float__(self):
        n = self._n
        return self._p / n + self._q / n * math.sqrt(self._d)

    def __floor__(self) -> int:
        """Exact floor by integer bracketing; floats are never consulted."""
        return surd_floor(self._p, self._q, self._n, self._d)

    def is_rational(self) -> bool:
        return self._q == 0

    def as_fraction(self) -> Fraction:
        if self._q != 0:
            raise BackendError(f"{self} is irrational; no Fraction value")
        return Fraction(self._p, self._n)

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, d={self._d})"

    def __str__(self):
        return format_scalar(self)


_new_object = object.__new__


def surd_from_ints(p: int, q: int, n: int, d: int) -> Surd:
    """The Surd (p + q*sqrt(d))/n, brought to normal form by one gcd.

    ``n`` must be nonzero and ``d`` a valid radicand; neither is checked
    beyond a zero ``n``.  This is the constructor every operation ends in.
    """
    g = math.gcd(p, q, n)
    if n <= 0:
        if n == 0:
            raise ZeroDivisionError("surd with zero denominator")
        g = -g
    if g != 1:
        p //= g
        q //= g
        n //= g
    s = _new_object(Surd)
    s._p, s._q, s._n, s._d = p, q, n, d
    return s


def fraction_from_ints(p: int, n: int) -> Fraction:
    """The Fraction p/n for ints p and n > 0, in lowest terms by one gcd.

    Equal in value, type, hash, repr and pickle to ``Fraction(p, n)``,
    without its argument dispatch; ``n > 0`` is not checked.  It stores
    Fraction's two private slots, as :func:`surd_from_ints` stores Surd's.
    """
    g = math.gcd(p, n)
    if g != 1:
        p //= g
        n //= g
    f = _new_object(Fraction)
    f._numerator, f._denominator = p, n
    return f


def _quotient(p1: int, q1: int, n1: int, p2: int, q2: int, n2: int, d: int) -> Surd:
    """((p1 + q1*sqrt(d))/n1) / ((p2 + q2*sqrt(d))/n2), through the
    conjugate p2 - q2*sqrt(d) and its norm p2^2 - q2^2*d."""
    norm = p2 * p2 - q2 * q2 * d
    if norm == 0:
        # Only possible when p2 == q2 == 0: sqrt(d) is irrational.
        raise ZeroDivisionError("division by zero surd")
    return surd_from_ints(
        n2 * (p1 * p2 - q1 * q2 * d), n2 * (q1 * p2 - p1 * q2), n1 * norm, d
    )


def _common_radicand(x: Surd, y: Surd) -> int:
    """Radicand two surds combine over; only rational-valued ones move."""
    if x._d == y._d or y._q == 0:
        return x._d
    if x._q == 0:
        return y._d
    raise BackendError(f"cannot combine surds over sqrt({x._d}) and sqrt({y._d})")


Scalar = float | int | Fraction | Surd


def backend_of(s: Scalar) -> str:
    """Backend tag of a single scalar value."""
    if isinstance(s, Surd):
        return SURD
    if isinstance(s, float):
        return F64
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return RATIONAL
    raise BackendError(f"not a scalar: {s!r}")


def is_rational(s: Scalar) -> bool:
    """Whether s is a rational number.

    Decidable only on the exact backends; a float raises BackendError: every
    float is rational, and the question is whether the real number it
    approximates is, which the float cannot tell.
    """
    if isinstance(s, Surd):
        return s.is_rational()
    if isinstance(s, float):
        raise BackendError(
            "every float is rational; whether the real number it approximates "
            "is rational cannot be decided from it: use an exact backend or an "
            "explicit heuristic"
        )
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return True
    raise BackendError(f"not a scalar: {s!r}")


def rational_heuristic(x: float) -> Fraction:
    """Best rational approximation with bounded denominator (heuristic only).

    Continued-fraction based via Fraction.limit_denominator.  This can only
    ever *suggest* rationality; it is not a proof and is labeled as heuristic
    wherever surfaced.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot approximate non-finite float {x!r}")
    return Fraction(x).limit_denominator(HEURISTIC_MAX_DENOMINATOR)


def as_fraction(s: Scalar) -> Fraction:
    """Exact Fraction value of a rational scalar; errors on floats/irrationals."""
    if isinstance(s, Surd):
        return s.as_fraction()
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return Fraction(s)
    raise BackendError(f"no exact Fraction value for {s!r}")


def format_scalar(s: Scalar) -> str:
    """Compact text form: '3/2', '-4+3*sqrt(2)', '0.25'."""
    if type(s) is float:  # f64 export formats one per cell
        return repr(s)
    if isinstance(s, Surd):
        p, q, n = s._p, s._q, s._n
        if q == 0:
            return _ratio_text(p, n)
        if q == n:
            coeff = ""
        elif q == -n:
            coeff = "-"
        else:
            coeff = _ratio_text(q, n) + "*"
        root = f"{coeff}sqrt({s._d})"
        if p == 0:
            return root
        return _ratio_text(p, n) + ("" if q < 0 else "+") + root
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return _ratio_text(s.numerator, s.denominator)
    if isinstance(s, float):  # a float subclass
        return repr(s)
    raise BackendError(f"not a scalar: {s!r}")


def _ratio_text(num: int, den: int) -> str:
    """'num/den' in lowest terms, or the integer when den divides num; den > 0."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return str(num)
    return f"{num}/{den}"


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
        return {"a": _ratio_text(s._p, s._n), "b": _ratio_text(s._q, s._n)}
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return _ratio_text(s.numerator, s.denominator)
    if isinstance(s, float):
        return s
    raise BackendError(f"not a scalar: {s!r}")


def decode_scalar(value, backend: str, surd_d: int | None = None) -> Scalar:
    """Inverse of encode_scalar for a declared backend.

    Exact backends accept ints and 'p/q' strings but reject non-integral JSON
    numbers: silently turning 0.1 into a binary fraction would defeat the
    point of exactness.  f64 accepts finite numbers only.
    """
    if backend == F64:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProblemFormatError(f"f64 backend expects numbers, got {value!r}")
        return finite_float(value)
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


def finite_float(value: Scalar) -> float:
    """float(value), or ProblemFormatError naming value when that is not a
    finite float (NaN, an infinity, or out of the f64 range)."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ProblemFormatError(f"{format_scalar(value)} is not a finite f64 value")
    return x


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
