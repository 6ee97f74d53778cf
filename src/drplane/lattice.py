"""Integer lattices of exact orbit states.

After its first step, every iterate of a set B that straddles the
hyperplane is ``x_n = c_{n-1}*u + b_k``: the orbit is the pair (selector k,
offset c), and the offset moves by ``c_n = c_{n-1} + beta_k``.  On the exact
backends every offset of one orbit is ``(a + b*sqrt(d))/scale`` for a single
integer ``scale``, rationals being the ``b = 0`` slice, so the orbit
advances on integer triples ``(k, a, b)`` and compares by the integer rule
of :func:`~drplane.scalars.surd_sign`.  Two walks pick the next selector:

* :class:`OffsetLattice`, for a doubleton B = {b1, b2}: the next selector is
  1 when ``c_n > t_k``, 2 when ``c_n < t_k``, the tie policy deciding at
  equality.  The thresholds are ``t1 = beta - beta1`` and
  ``t2 = -beta - beta2``, with ``beta`` the window constant.  Its walk
  applies surd_sign's rule inline, with no call per step.  The cycle
  search and the closed form walk it too, and on f64 its pairs are float
  offsets ``(v, 0)`` over ``scale = 1``, where the sign test reads the float
  difference ``a - t``; :class:`FloatLinePoints`, not ``decode``, reads them.
* :class:`SetLattice`, for m >= 3 points: the next selector minimises the
  score ``Q_kj + 2*c_n*beta_j`` over j, from a table of
  ``Q_kj = |P_A b_k - b_j|^2``, and the tie policy resolves equal scores as
  :func:`~drplane.geometry.project_finite_set` resolves equal distances.
  Only the iteration driver walks it, on exact backends.

The m = 2 threshold test is the special case of the score rule, kept apart
because the cycle search's hot loop runs on it.

Both read the integers ``(p, q, n)`` a Surd holds (``(p + q*sqrt(d))/n``)
through ``pair`` and decode pairs through
:func:`~drplane.scalars.surd_from_ints`, so no Fraction is built either way
on surd orbits; rational pairs decode through
:func:`~drplane.scalars.fraction_from_ints`.

Points are built from the same integers: :class:`LinePoints` fixes
per-coordinate integer constants for one normal and point set, after which
an iterate ``x = ((a + b*sqrt(d))/scale)*u + b_k`` costs one
:func:`~drplane.scalars.fraction_from_ints` or one
:func:`~drplane.scalars.surd_from_ints` per coordinate.  The cycle search
decodes its states in one batch instead: ``LinePoints.iterates`` folds step
k's pair into those constants once per selector, so that the iterate of a
state (k, a, b), at the offset before it, is one affine map of its own
integers per coordinate, and builds each Fraction or Surd inline.

A :class:`~drplane.dynamics.Orbit` builds its lattice and point evaluator
(:class:`LinePoints`, or :class:`FloatLinePoints` on f64) once, for whichever
of the iteration driver, the cycle search and the closed form reads them.
:func:`~drplane.geometry.line_point` stays the formula for offsets that are
already decoded.

:class:`Revisit` finds the first revisited state of a walk, for the
iteration driver's replay and the exact cycle search, in one table loop that
yields nothing: ``iterate`` hands it the states of a walk that records each
one as it is drawn, lattice states or the bits of f64 iterates, and the
cycle search the states of a bare walk, which it walks again after a hit.
Its table keeps every state until it holds :data:`TABLE_BUDGET` (2^13), one
``setdefault`` per state, then only the states whose index is a multiple of
a spacing that doubles each time it fills again, each the next one due.  A
hit while the spacing is 1 is the first repeat, and the table lists the
cycle.  A later hit is one period after the least table state on the cycle,
which lies within one spacing after the first state on it.  One walk round
the cycle, streamed into the caller's decoder, keeps the twin of the table
state one spacing before the hit's, whole periods on from it, through one
generator spliced into the lap at the twin's place, and two walks of at most
one spacing each, from that table state and from its twin, meet at the first
state on the cycle.  A hit past the horizon is first tested, by one walk
from that table state, for a cycle that closes within it.  The search holds
O(TABLE_BUDGET) states at any horizon, and a found cycle costs its report
plus O(TABLE_BUDGET + spacing).  Every other per-state table is a memo, of
the closed form's rows and agreed points or of the exporters' texts, and
stops growing at TABLE_BUDGET, serving the states it holds: a cycle longer
than the table still comes back to them.

Exact results are built in bulk: a decoded cycle of up to 10^5 states, a
trace of 10^6 records.  Fractions, Surds, tuples and records refer to no
object that refers back to them, yet CPython's cyclic collector would
traverse them again and again as they are built: a young pass every 700
allocations, an older one every ten of those, a full one as the survivors
grow.  :func:`_paused` turns it off for one call of each bulk entry point,
``cycling.detect_cycle``, ``dynamics.iterate``,
``closedform.closed_form_trace`` and ``verify_closed_form``, and the CLI's
subcommand call with its export, and restores it when the call returns or
raises.  A caller that turned the collector off keeps it off, and a paused
call inside another one pauses nothing.  If the collector was on, the young
pass the call's allocations are due runs before it returns, so the call
pays for it.  The pause is process-wide while a call runs, but it stops
only the search for reference cycles: every object these calls drop is
freed by reference counting at once, as ever.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from functools import wraps
from itertools import chain, islice, tee
from operator import itemgetter

from .geometry import (
    DEFAULT_TIE_POLICY,
    FiniteSet,
    TiePolicy,
    Vector,
    _pick_winner,
    line_point,
    norm_sq,
    vsub,
)
from .scalars import Scalar, Surd, _new_object, fraction_from_ints, surd_from_ints, surd_sign

TABLE_BUDGET = 2**13  # states in any per-orbit table: about 2 MB of surd keys


def _paused(build):
    """``build`` run with the cyclic collector paused, as the module
    docstring states; a call made while it is already off leaves it off."""

    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
            # the young pass the build's allocations are due, paid by the build
            if gc.get_count()[0] > gc.get_threshold()[0]:
                gc.collect(0)

    return paused


def _int_parts(v) -> tuple[int, int, int]:
    """(p, q, n) with v == (p + q*sqrt(d))/n; q == 0 for ints and Fractions,
    and a float is (v, 0, 1)."""
    if isinstance(v, Surd):
        return v._p, v._q, v._n
    if isinstance(v, float):
        return v, 0, 1
    return v.numerator, 0, v.denominator


def window_constant(b1: Vector, b2: Vector, beta1: Scalar, beta2: Scalar) -> Scalar:
    """beta = |b1 - b2|^2 / (2*(beta1 - beta2)), where the absorbing window starts."""
    return norm_sq(vsub(b1, b2)) / (2 * (beta1 - beta2))


class _LineLattice:
    """Offsets ``(a + b*sqrt(d))/scale`` over one integer ``scale`` and
    radicand ``d`` (0 on rationals), the pairs ``steps`` of the point offsets
    beta_k, and the points ``offset*u + b_k``."""

    __slots__ = ("scale", "d", "steps")

    def __init__(self, values):
        self.d = next((v.d for v in values if isinstance(v, Surd)), 0)
        self.scale = math.lcm(*(_int_parts(v)[2] for v in values))

    def pair(self, v) -> tuple[int, int]:
        """The integer pair (a, b) of an offset v of this orbit: any sum of
        the start offset and multiples of the point offsets, whose
        denominator divides ``scale``."""
        p, q, n = _int_parts(v)
        m = self.scale // n
        return p * m, q * m

    def decode(self, a: int, b: int):
        """The offset (a + b*sqrt(d))/scale as a Fraction, or a Surd when d != 0."""
        if self.d:
            return surd_from_ints(a, b, self.scale, self.d)
        return fraction_from_ints(a, self.scale)


class OffsetLattice(_LineLattice):
    """Exact offsets ``(a + b*sqrt(d))/scale`` of one doubleton orbit.

    Built from the two point offsets, the window constant and one start
    offset (ints, Fractions or Surds over one radicand).  ``steps`` (the
    pairs of beta1 and beta2), ``beta``, ``start``, ``t1`` and ``t2`` are
    their integer pairs ``(a, b)`` over the common ``scale``; ``d`` is 0 on
    rationals.  Float values give float pairs ``(v, 0)`` over ``scale = 1``,
    for :meth:`walk` and the f64 floor form.
    """

    __slots__ = ("beta", "start", "t1", "t2", "tie")

    def __init__(self, beta1, beta2, beta, start, tie_policy=DEFAULT_TIE_POLICY):
        super().__init__((beta1, beta2, beta, start))
        self.steps, self.beta = (self.pair(beta1), self.pair(beta2)), self.pair(beta)
        self.start = self.pair(start)
        ((b1a, b1b), (b2a, b2b)), (wa, wb) = self.steps, self.beta
        # t1 = beta - beta1 and t2 = -beta - beta2 are linear, so they apply
        # to each integer part
        self.t1, self.t2 = (wa - b1a, wb - b1b), (-wa - b2a, -wb - b2b)
        # equidistant reflections resolve to the higher offset (b2) only
        # under the default policy; both alternatives pick b1
        self.tie = 2 if tie_policy is TiePolicy.HIGHER_INNER else 1

    def walk(self, k: int, a: int, b: int):
        """The states (k, a, b) after state (k, a, b), one per step, without end."""
        (b1a, b1b), (b2a, b2b) = self.steps
        (t1a, t1b), (t2a, t2b) = self.t1, self.t2
        tie1, d = self.tie == 1, self.d
        while True:
            if k == 1:
                da, db = a - t1a, b - t1b
            else:
                da, db = a - t2a, b - t2b
            # up: da + db*sqrt(d) > 0, or == 0 with the tie at b1.  This is
            # scalars.surd_sign's integer rule inlined, and surd_sign is its
            # reference: a mixed-sign pair compares da^2 with db^2*d, never
            # equal for a radicand, so only db == 0 can tie; with no sqrt(d)
            # part, da carries the sign, on float pairs too
            if not db:
                up = da > 0 or (da == 0 and tie1)
            elif db > 0:
                up = da >= 0 or da * da < db * db * d
            else:
                up = da > 0 and da * da > db * db * d
            if up:
                k = 1
                a += b1a
                b += b1b
            else:
                k = 2
                a += b2a
                b += b2b
            yield k, a, b


class SetLattice(_LineLattice):
    """Exact orbit states ``(k, a, b)`` of a straddling set of m points.

    After its first step every iterate is ``x = c*u + b_k``, with offset
    ``t = <x,u>``, so with ``<u,u> = 1`` the squared distance from
    ``R_A x = P_A b_k - t*u`` to ``b_j`` is ``Q_kj + 2*t*beta_j + t^2``, where
    ``Q_kj = |P_A b_k - b_j|^2``.  The nearest point minimises the score
    ``Q_kj + 2*t*beta_j``: the same minimisers, so the same winner set, as
    the squared distances :func:`~drplane.geometry.project_finite_set`
    compares, and :func:`~drplane.geometry._pick_winner` resolves a tie the
    same way.  The orbit's offsets, ``start`` among them, are integer pairs
    over ``scale`` as on :class:`OffsetLattice`; scores are integer pairs
    ``(sa, sb)``, meaning ``(sa + sb*sqrt(d))/denom`` for one denominator,
    compared by :func:`~drplane.scalars.surd_sign`.  Exact backends only.
    """

    __slots__ = ("scores", "slopes", "inners", "tie_policy")

    def __init__(self, u: Vector, B: FiniteSet, start):
        inners = B.inners
        super().__init__((*inners, start))
        self.steps = tuple(map(self.pair, inners))
        self.inners, self.tie_policy = inners, B.tie_policy
        shadows = [line_point(-beta, u, b) for b, beta in zip(B.points, inners)]
        q = [[_int_parts(norm_sq(vsub(s, b))) for b in B.points] for s in shadows]
        scale2 = self.scale * self.scale
        denom = math.lcm(scale2, *(n for row in q for _, _, n in row))
        self.scores = tuple(
            tuple((p * (denom // n), r * (denom // n)) for p, r, n in row) for row in q
        )
        # 2*t*beta_j*denom is the product of the pairs of t and beta_j times
        # f = 2*denom/scale^2; slopes hold beta_j's pair (ja, jb) as
        # (f*ja, f*d*jb, f*jb)
        f, d = 2 * denom // scale2, self.d
        self.slopes = tuple((f * ja, f * d * jb, f * jb) for ja, jb in self.steps)

    def walk(self, k: int, a: int, b: int):
        """The states (k, a, b) after state (k, a, b), one per step, without end."""
        d, steps, scores, slopes = self.d, self.steps, self.scores, self.slopes
        inners, policy = self.inners, self.tie_policy
        while True:
            # score_j*denom = (qa + a*ja + b*jd) + (qb + a*jb + b*ja)*sqrt(d),
            # (qa, qb) being Q_kj's pair and (ja, jd, jb) beta_j's slopes
            winners, la, lb = [], 0, 0
            for j, ((qa, qb), (ja, jd, jb)) in enumerate(zip(scores[k - 1], slopes)):
                sa, sb = qa + a * ja + b * jd, qb + a * jb + b * ja
                if winners:
                    da, db = sa - la, sb - lb
                    # with no sqrt(d) part, da carries the sign
                    sign = surd_sign(da, db, d) if db else da
                    if sign > 0:
                        continue
                    if sign == 0:
                        winners.append(j)
                        continue
                la, lb, winners = sa, sb, [j]
            j = winners[0] if len(winners) == 1 else _pick_winner(winners, inners, policy)
            k = j + 1
            da, db = steps[j]
            a += da
            b += db
            yield k, a, b


class Revisit:
    """The first revisited state of a walk from state 1, ``start``, by the
    table of the module docstring.  :meth:`search` draws states 2, 3, ...
    from the states handed to it and stops at the first hit, state ``n``
    being state ``back``, or else (``back`` None) before index
    ``horizon + spacing``, having drawn every state up to ``horizon``.  A
    caller that keeps the states hands in a walk that records each one as it
    is drawn, the hit state n included; states that end stop the search.  After
    a hit, :meth:`within_horizon` and :meth:`cycle` walk again from table
    states, ``walk(*state)`` being the states after ``state``."""

    __slots__ = ("start", "horizon", "back", "n", "spacing", "_seen", "_hit")

    def __init__(self, start: tuple, horizon: int):
        self.start, self.horizon = start, horizon
        self.back = self.n = None

    def search(self, states) -> bool:
        """Run the table loop once over states 2, 3, ...; whether it found a hit."""
        walk, horizon = iter(states), self.horizon
        seen = self._seen = {self.start: 1}
        self.spacing = n = 1
        # dense phase: every state is stored, so with no hit the table
        # fills at state TABLE_BUDGET
        for n, key in zip(range(2, min(horizon, TABLE_BUDGET) + 1), walk):
            back = seen.setdefault(key, n)
            if back != n:
                self.back, self.n, self._hit = back, n, key
                return True
        while len(seen) == TABLE_BUDGET:
            # doublings are TABLE_BUDGET/2 stored states apart, so a hit
            # comes before the first repeat index plus the spacing
            spacing = self.spacing = 2 * self.spacing
            seen = self._seen = {k: i for k, i in seen.items() if i % spacing == 0}
            # the table held the multiples of the old spacing up to n, so n
            # is a multiple of the new one
            due = n + spacing
            for n, key in zip(range(n + 1, horizon + spacing), walk):
                back = seen.get(key)
                if back is not None:
                    self.back, self.n, self._hit = back, n, key
                    return True
                if n == due:
                    seen[key] = n
                    if len(seen) == TABLE_BUDGET:
                        break
                    due += spacing
        return False

    def cycle(self, walk, decode) -> tuple[int, tuple | None, tuple]:
        """(lam, before, states) after a hit: the index lam of the first
        state on the cycle, the state lam-1 before it (None for state 0),
        and ``decode`` of the states lam .. lam+mu-1 over the minimal period
        mu.  ``decode`` maps a list or a stream of states, read once, to a
        tuple of the same length."""
        if self.spacing == 1:
            # the dense table lists states 1 .. n-1 in index order
            keys, lam = [*self._seen], self.back
            return lam, keys[lam - 2] if lam > 1 else None, decode(keys[lam - 1 :])
        # each entry of the table has been in it since its own index, so
        # the least entry on the cycle, j, is hit by state j + mu, and any
        # other hit comes later: back is j, mu is n - back, and as the table
        # holds every multiple of the spacing up to back, lam lies in
        # (back - spacing, back].  One walk round the cycle from the hit,
        # streamed into decode, passes the twin of state back - spacing, a
        # whole number of periods on from it, at lap index at.  A one-shot
        # generator spliced in there keeps it, so the lap pays one generator
        # resume in all rather than one per state.
        back, spacing, hit = self.back, self.spacing, self._hit
        mu = self.n - back
        at, twin = -spacing % mu, None
        lap = chain((hit,), islice(walk(*hit), mu - 1))

        def catch():
            nonlocal twin
            twin = next(lap)
            yield twin

        states = decode(chain(islice(lap, at), catch(), lap))
        i, base = self._base()
        ahead = walk(*base)
        if back == spacing:
            # thinning dropped state 1 from the table: walk from it, and from
            # the twin one step on
            lam, before, state = 1, None, base
        else:
            lam, before, state = i + 1, base, next(ahead)
        twins = walk(*twin)
        other = next(twins)
        while state != other:
            before, state, other, lam = state, next(ahead), next(twins), lam + 1
        i = (lam - back) % mu
        return lam, before, states[i:] + states[:i]

    def _base(self) -> tuple:
        """(i, state i) for the table state i = back - spacing, or (1, state
        1) when that is state 0, which has no key."""
        i = self.back - self.spacing
        return (i, next(k for k, j in self._seen.items() if j == i)) if i else (1, self.start)

    def within_horizon(self, walk) -> bool:
        """After a hit, whether the walk's first repeat index lam + mu, of
        its states rather than of the iterates they decode to, is at most
        the horizon, decided without :meth:`cycle`.  A hit past the horizon
        has lam > back - spacing, and state j = horizon - mu is on the cycle
        exactly when it is state horizon: at most spacing + mu steps from the
        table state at back - spacing."""
        mu, horizon = self.n - self.back, self.horizon
        if self.n <= horizon:
            return True
        (i, base), j = self._base(), horizon - mu
        if j < i:
            return False
        states = chain((base,), walk(*base))
        return next(islice(states, j - i, None)) == next(islice(states, mu - 1, None))


class LinePoints:
    """Iterates ``x = ((a + b*sqrt(d))/scale)*u + b_k`` from lattice integers.

    Coordinate i of ``c*u + b_k`` with ``u_i = (up + uq*sqrt(d))/un`` and
    ``b_k[i] = (bp + bq*sqrt(d))/bn`` is ``(P + Q*sqrt(d))/D`` over
    ``D = lcm(scale*un, bn)``, where ``P = m*(a*up + b*uq*d) + bp*(D//bn)``,
    ``Q = m*(a*uq + b*up) + bq*(D//bn)`` and ``m = D//(scale*un)``.  The
    integer constants ``rows`` are fixed once per (k, i); a coordinate with
    ``u_i == 0`` holds its value ``b_k[i]``.  :meth:`point` is equal in value
    and scalar type to :func:`~drplane.geometry.line_point` of the decoded
    offset.  :meth:`iterates` decodes many states at once: it folds step
    k's pair into the constants of ``rows[k-1]`` once, so that the iterate
    of each state ``(k, a, b)``, at the offset before it, is one affine map
    of its own ``(a, b)`` per coordinate.
    """

    __slots__ = ("d", "rows", "steps")

    def __init__(self, lat: _LineLattice, u: Vector, points: tuple[Vector, ...]):
        self.d = d = lat.d
        self.steps = lat.steps
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

    def iterates(self, keys) -> tuple[Vector, ...]:
        """The iterates of the states ``keys``: state (k, a, b) is the point
        on b_k's line at the offset before it, that of (a, b) minus step
        k's pair, equal to ``point(k, a - sa, b - sb)``.  One pass over the
        keys: a generator per coordinate builds its Fractions or Surds
        inline, and zip joins them into vectors.  Each coordinate reads a
        list itself, and any other iterable through its own ``tee``, which
        zip drains in lockstep, so a stream is read once."""
        d, columns, out = self.d, tuple(zip(*self.rows)), []
        if isinstance(keys, list) or len(columns) == 1:
            streams = (keys,) * len(columns)
        else:
            streams = tee(keys, len(columns))
        for column, keyed in zip(columns, streams):
            # index 0 is a placeholder, so that selector k reads entry k
            if type(column[0]) is not tuple:
                out.append(map((None, *column).__getitem__, map(itemgetter(0), keyed)))
                continue
            folded = [None]
            for (ua, ub, ud, pa, pb, den), (sa, sb) in zip(column, self.steps):
                folded.append((ua, ub, ud, pa - ua * sa - ud * sb, pb - ub * sa - ua * sb, den))
            out.append(_surds(folded, d, keyed) if d else _fractions(folded, keyed))
        return tuple(zip(*out))


class FloatLinePoints:
    """:class:`LinePoints` of a float lattice, whose pairs are ``(v, 0)``:
    :func:`~drplane.geometry.line_point` of each offset, as the vector loop
    computes it, so a zero u_i and a -0.0 b_i[i] give +0.0."""

    __slots__ = ("u", "points", "steps")

    def __init__(self, lat: _LineLattice, u: Vector, points: tuple[Vector, ...]):
        self.u, self.points, self.steps = u, points, lat.steps

    def point(self, k: int, a: float, b: int) -> Vector:
        """The point on the line of b_k at offset a."""
        return line_point(a, self.u, self.points[k - 1])

    def iterates(self, keys) -> tuple[Vector, ...]:
        """The iterate of each state (k, a, 0), at the offset a - beta_k before it."""
        u, points, steps = self.u, self.points, self.steps
        return tuple(line_point(a - steps[k - 1][0], u, points[k - 1]) for k, a, _ in keys)


def _fractions(folded, keys):
    """The Fraction ``(ua*a + pa)/den`` of each state (k, a, b) over the
    folded constants of selector k, built as fraction_from_ints does."""
    gcd, new = math.gcd, _new_object
    for k, a, _ in keys:
        ua, _, _, pa, _, den = folded[k]
        p = ua * a + pa
        g = gcd(p, den)
        if g != 1:
            p, den = p // g, den // g
        f = new(Fraction)
        f._numerator, f._denominator = p, den
        yield f


def _surds(folded, d, keys):
    """The Surd ``(P + Q*sqrt(d))/den`` of each state (k, a, b) over the
    folded constants of selector k, built as surd_from_ints does for a
    positive denominator."""
    gcd, new = math.gcd, _new_object
    for k, a, b in keys:
        ua, ub, ud, pa, pb, den = folded[k]
        p, q = ua * a + ud * b + pa, ub * a + ua * b + pb
        g = gcd(p, q, den)
        if g != 1:
            p, q, den = p // g, q // g, den // g
        s = new(Surd)
        s._p, s._q, s._n, s._d = p, q, den, d
        yield s


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
