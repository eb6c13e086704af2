"""Short Weierstrass curves y^2 = x^3 + Ax + B over GF(p^r), p > 3.

Everything here is desk-scale by design: point counting sweeps every x in
rows x = y + c, c in GF(p), with integer arithmetic mod p per point and a
byte table of quadratic characters (count_points; q <= 2^20); orders over
extension fields come from the trace recurrence; torsion bases come from
seeded random sampling, whose Sylow generators are certified as they are
drawn (so the randomness only affects how long the search takes).  The
field E[m] needs is known before any sampling: by Lenstra's theorem
E(GF(q^s)) = O/(pi^s - 1) for O = End_k(E), so the least s with pi^s - 1
in m*O is integer arithmetic, exact on every field (see torsion_degree).
A request past the R_MAX tower is refused before any point is drawn over
an extension.

The group law is one routine on raw residues (the field's `raw_ops`: ints
mod p for r = 1, residue tuples for r > 1), and a point stores its raw
residue pair, so `point_add`, `scalar_mul` and the walks over the multiples
of a point (point_progression, point_log, two_dim_dlog) pass it on as it
is; a coordinate becomes a field element only when `x` or `y` is read.
`point_order` runs one ell-chain per prime power of a known multiple.

Curves compare by value (field, A, B).  The point-count cache is write-once
per instance.  Curves built from a counted curve inherit its count instead
of sweeping: base changes (trace recurrence), Velu targets and Frobenius
images over the same field (equal #E(k)), quadratic twists (2q + 2 - #E(k)),
the other member of a generic-j twist-scan pair, and the scan member
isomorphic to a counted curve.  Only curves made from bare coefficients are
swept.

Four decisions have their one owner here.  Two models with one
j-invariant are isomorphic over k when a ratio of their coefficients is a
2nd, 4th or 6th power (_iso_ratio), the one rule the twist scan,
curve_class and isomorphism_scale read; check_isogenous is Tate's
criterion (same field, same trace); check_kernel_generator, beside
check_torsion_order, admits a kernel generator of exact order n; and
check_coprime_to_p refuses an order, degree or multiplier that p divides.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, prod

from .errors import (
    BoundExceeded,
    CurveMismatch,
    NoSuchTwist,
    NotImaginaryQuadratic,
    NotIsogenous,
    PPartUnsupported,
    SingularCurve,
    TraceMismatch,
    WrongOrder,
)
from .finite_field import R_MAX, Field, FieldElement, field_create
from .finite_field import sqrt as field_sqrt
from .intmath import factorize, is_prime, multiplicative_order, split_discriminant, valuation
from .polyring import Poly, roots, subfield_embedding

EXHAUSTIVE_COUNT_MAX = 2**20
M_MAX = 64
DLOG_MAX = 2**16  # the longest walk of point_log, the largest plane of two_dim_dlog


class Point:
    """A point on a specific curve, stored as its raw residue pair (x, y)
    in the field's `raw_ops` format; `raw` is None exactly for the
    identity.  `x` and `y` are the coordinates as field elements (None for
    the identity), made on each access."""

    __slots__ = ("curve", "raw")

    def __init__(self, curve: "Curve", raw):
        self.curve = curve
        self.raw = raw

    @property
    def x(self):
        return None if self.raw is None else self.curve.field.wrap(self.raw[0])

    @property
    def y(self):
        return None if self.raw is None else self.curve.field.wrap(self.raw[1])

    def __repr__(self):
        if self.raw is None:
            return "Point(inf)"
        return f"Point({self.x!r}, {self.y!r})"

    def __bool__(self):
        return self.raw is not None

    def __eq__(self, other):
        return isinstance(other, Point) and self.curve == other.curve and self.raw == other.raw

    def __hash__(self):
        return hash(self.raw)

    def __neg__(self):
        if self.raw is None:
            return self
        x, y = self.raw
        zero, _, sub, _, _ = self.curve.field.raw_ops
        return Point(self.curve, (x, sub(zero, y)))

    def __add__(self, other):
        return point_add(self, other)

    def __sub__(self, other):
        return point_add(self, -other)

    def __rmul__(self, m: int):
        return scalar_mul(m, self)

    def __mul__(self, m: int):
        return scalar_mul(m, self)


class Curve:
    """y^2 = x^3 + Ax + B.  A and B may be given as ints (lifted mod p)."""

    __slots__ = ("field", "A", "B", "_order", "_trace")

    def __init__(self, field: Field, A, B):
        if field.p <= 3:
            raise ValueError("short Weierstrass form needs characteristic > 3")
        if isinstance(A, int):
            A = field.from_int(A)
        if isinstance(B, int):
            B = field.from_int(B)
        if A.field is not field or B.field is not field:
            raise CurveMismatch("coefficients must lie in the stated field")
        if not (4 * A * A * A + 27 * B * B):
            raise SingularCurve(f"4A^3 + 27B^2 = 0 for A={A!r}, B={B!r}")
        self.field = field
        self.A = A
        self.B = B
        self._order = None
        self._trace = None

    def __repr__(self):
        return f"Curve({self.field!r}, A={self.A!r}, B={self.B!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and self.field is other.field
            and self.A == other.A
            and self.B == other.B
        )

    def __hash__(self):
        return hash((self.field, self.A, self.B))

    # -- points ------------------------------------------------------------

    def infinity(self) -> Point:
        return Point(self, None)

    def rhs(self, x: FieldElement) -> FieldElement:
        return (x * x + self.A) * x + self.B

    def is_on(self, x, y) -> bool:
        return y * y == self.rhs(x)

    def point(self, x, y) -> Point:
        if isinstance(x, int):
            x = self.field.from_int(x)
        if isinstance(y, int):
            y = self.field.from_int(y)
        if not self.is_on(x, y):
            raise ValueError(f"({x!r}, {y!r}) is not on {self!r}")
        return self._at(x, y)

    def _at(self, x: FieldElement, y: FieldElement) -> Point:
        """The point with coordinates x and y, unchecked."""
        unwrap = self.field.unwrap
        return Point(self, (unwrap(x), unwrap(y)))

    def random_point(self, rng: random.Random) -> Point:
        F = self.field
        while True:
            x = F.from_coeffs([rng.randrange(F.p) for _ in range(F.r)])
            fx = self.rhs(x)
            if not fx:
                return self._at(x, F.zero)
            pair = field_sqrt(fx)
            if pair is not None:
                return self._at(x, pair[rng.randrange(2)])

    # -- cached invariants ---------------------------------------------------

    def _set_count(self, order: int):
        q = self.field.order
        t = q + 1 - order
        if t * t > 4 * q:
            raise AssertionError(f"Hasse violated: t={t}, q={q}")
        if self._order is not None and self._order != order:
            raise AssertionError("conflicting point counts for the same curve")
        self._order = order
        self._trace = t

    @property
    def order(self) -> int:
        if self._order is None:
            count_points(self)
        return self._order

    @property
    def trace(self) -> int:
        if self._trace is None:
            count_points(self)
        return self._trace


class CurveClass:
    """A k-isomorphism class: (j, trace, twist_index) with a chosen
    representative.  twist_index is the position, in the deterministic twist
    scan for this j-invariant, of the first parameter landing in the class."""

    __slots__ = ("j", "trace", "representative", "twist_index")

    def __init__(self, j, trace, representative, twist_index):
        self.j = j
        self.trace = trace
        self.representative = representative
        self.twist_index = twist_index

    def key(self):
        return (self.j.lift(), self.trace, self.twist_index)

    def __eq__(self, other):
        return (
            isinstance(other, CurveClass)
            and self.j == other.j
            and self.trace == other.trace
            and self.twist_index == other.twist_index
        )

    def __hash__(self):
        return hash((self.j, self.trace, self.twist_index))

    def __repr__(self):
        return (
            f"CurveClass(j={self.j!r}, t={self.trace}, twist={self.twist_index})"
        )


# ---------------------------------------------------------------------------
# group law


def _add_raw(ops, a, P, Q):
    """P + Q on y^2 = x^3 + ax + b, the group law on raw residues.

    `ops` is the field's `raw_ops`, a the raw coefficient A, and a point is
    an (x, y) pair of raw residues, None for O.  Points with equal x are
    equal or opposite, so y1 + y2 is 2y1 for a doubling and 0 for P + (-P).
    """
    if P is None:
        return Q
    if Q is None:
        return P
    zero, add, sub, mul, inv = ops
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        den = add(y1, y2)
        if den == zero:
            return None
        xx = mul(x1, x1)
        slope = mul(add(add(xx, xx), add(xx, a)), inv(den))  # tangent
    else:
        slope = mul(sub(y2, y1), inv(sub(x2, x1)))
    x3 = sub(sub(mul(slope, slope), x1), x2)
    return x3, sub(mul(slope, sub(x1, x3)), y1)


def _raw_law(E: Curve):
    """(ops, a): the field's raw_ops and E's raw coefficient A, which
    _add_raw and _mul_raw take."""
    F = E.field
    return F.raw_ops, F.unwrap(E.A)


def _mul_raw(ops, a, m: int, R):
    """m*R for m >= 0 by double-and-add on raw residues, from the low bit of
    m up."""
    acc = None
    while m:
        if m & 1:
            acc = _add_raw(ops, a, acc, R)
        m >>= 1
        if m:
            R = _add_raw(ops, a, R, R)
    return acc


def point_add(P: Point, Q: Point) -> Point:
    E = P.curve
    if E is not Q.curve and E != Q.curve:
        raise CurveMismatch("points on different curves")
    return Point(E, _add_raw(*_raw_law(E), P.raw, Q.raw))


def scalar_mul(m: int, P: Point) -> Point:
    """m*P by double-and-add on raw residues, from the low bit of m up."""
    if m < 0:
        m, P = -m, -P
    E = P.curve
    return Point(E, _mul_raw(*_raw_law(E), m, P.raw))


def point_progression(start: Point, step: Point, count: int) -> list[Point]:
    """start, start + step, ..., start + (count - 1)*step, walked on raw
    residues (both points on one curve)."""
    E = start.curve
    ops, a = _raw_law(E)
    R, d = start.raw, step.raw
    out = [start]
    for _ in range(count - 1):
        R = _add_raw(ops, a, R, d)
        out.append(Point(E, R))
    return out


def point_order(P: Point, multiple: int | None = None) -> int:
    """The exact order of P; `multiple` may supply a known annihilator
    (ValueError if it is not a positive int or does not kill P).  One
    ell-chain per prime power ell^e || n: (n/ell^e)*P has order ell^k, and
    ord(P) is the product of those ell^k."""
    if multiple is not None and (type(multiple) is not int or multiple < 1):
        raise ValueError(f"multiple must be a positive integer, got {multiple!r}")
    n = multiple if multiple is not None else P.curve.order
    if scalar_mul(n, P):
        raise ValueError(f"{n} does not annihilate the point")
    return prod(
        ell ** _ell_power_order(scalar_mul(n // ell**e, P), ell, e)[0]
        for ell, e in factorize(n)
    )


# ---------------------------------------------------------------------------
# counting


def count_points(E: Curve) -> tuple[int, int]:
    """(order, trace) by a sweep of GF(q), q <= 2^20; caches on the curve.
    Only curves made from bare coefficients are swept (see the module doc).

    Rows x = y + c, c over GF(p) and y over the q/p residues with y_0 = 0:
    coordinate k of f(y + c), f = x^3 + Ax + B, is f(y)_k + c (3y^2 + A)_k
    + c^2 (3y)_k, plus c^3 at k = 0, so a row costs two raw products and a
    point integer arithmetic mod p.  f(x), read as base-p digits, indexes a
    byte table of 1 + chi (0 non-square, 1 zero, 2 nonzero square) built by
    the same rows on (y + c)^2 = y^2 + 2c y + c^2, c <= (p - 1)/2 (x or -x
    has such a c): #E = 1 + sum table[f(x)].  Over GF(p), one row: y = 0."""
    if E._order is not None:
        return (E._order, E._trace)
    F = E.field
    p, q, r = F.p, F.order, F.r
    if q > EXHAUSTIVE_COUNT_MAX:
        raise BoundExceeded(f"point counting sweeps only fields with q <= 2^20 (got q={q})",
                            cap="EXHAUSTIVE_COUNT_MAX", limit=EXHAUSTIVE_COUNT_MAX, requested=q)
    mul, cs, half, rows = F.raw_ops[3], range(p), range((p + 1) // 2), range(q // p)
    table = bytearray(q)
    for c in half:  # the row y = 0
        table[c * c % p] = 2
    for t in rows[1:]:  # y_k is digit k - 1 of t in base p
        y = (0, *[t // p**k % p for k in range(r - 1)])
        y2 = mul(y, y)
        idx = [(c * c + y2[0]) % p for c in half]
        for k in range(1, r):
            v, s, w = 2 * y[k], y2[k], p**k
            idx = [i + (v * c + s) % p * w for i, c in zip(idx, half)]
        for i in idx:
            table[i] = 2
    table[0] = 1
    A, B = E.A.coeffs, E.B.coeffs
    y, g, f, n = (0,) * r, A, B, 1  # at y = 0, 3y^2 + A = A and f(y) = B
    for t in rows:
        if t:  # g and f up to multiples of p
            y = (0, *[t // p**k % p for k in range(r - 1)])
            y2 = mul(y, y)
            g = [3 * s + a for s, a in zip(y2, A)]
            f = [u + b for u, b in zip(mul(tuple([(s + a) % p for s, a in zip(y2, A)]), y), B)]
        g0, f0 = g[0], f[0]
        if r == 1:  # no coordinates above 0, so no partial indices to add
            n += sum([table[((c * c + g0) * c + f0) % p] for c in cs])
            break
        hi = [0] * p  # the coordinates above 0 of f(y + c), at their weights
        for k in range(1, r):
            v, gk, fk, w = 3 * y[k], g[k], f[k], p**k
            hi = [i + ((v * c + gk) * c + fk) % p * w for i, c in zip(hi, cs)]
        n += sum([table[i + ((c * c + g0) * c + f0) % p] for i, c in zip(hi, cs)])
    E._set_count(n)
    return (n, E._trace)


def trace_over_extension(t: int, q: int, s: int) -> int:
    """Trace of Frobenius^s from the base trace t over GF(q)."""
    t_prev, t_cur = 2, t
    for _ in range(s - 1):
        t_prev, t_cur = t_cur, t * t_cur - q * t_prev
    return t_cur if s >= 1 else 2


def curve_order_over_extension(E: Curve, s: int) -> int:
    q = E.field.order
    return q**s + 1 - trace_over_extension(E.trace, q, s)


def base_change(E: Curve, s: int) -> Curve:
    """E over GF(q^s), with its order filled in via the trace recurrence.

    s = 1 gives E itself, count and all; a proper extension is cached by
    curve value in _base_change.
    """
    return E if s == 1 else _base_change(E, s)


@lru_cache(maxsize=None)
def _base_change(E: Curve, s: int) -> Curve:
    K = field_create(E.field.p, E.field.r * s)
    emb = subfield_embedding(E.field, K)
    EK = Curve(K, emb.map(E.A), emb.map(E.B))
    EK._set_count(curve_order_over_extension(E, s))
    return EK


def base_change_degree(E: Curve, C: Curve) -> int:
    """The s with C = base_change(E, s); CurveMismatch if there is none."""
    if C.field.p != E.field.p or C.field.r % E.field.r:
        raise CurveMismatch("point lives over an incompatible field")
    s = C.field.r // E.field.r
    if C != base_change(E, s):
        raise CurveMismatch("point is not on a base change of the curve")
    return s


def embed_point(P: Point, EK: Curve) -> Point:
    """P as a point of EK, a base change of P's curve (else CurveMismatch)."""
    base_change_degree(P.curve, EK)
    if P.curve.field is EK.field:
        return P
    if not P:
        return EK.infinity()
    emb = subfield_embedding(P.curve.field, EK.field)
    return EK._at(emb.map(P.x), emb.map(P.y))


def frobenius_endo(P: Point, k: int) -> Point:
    """(x, y) -> (x^{p^k}, y^{p^k}) on the same curve.

    This is an endomorphism when the curve's coefficients lie in GF(p^k);
    for a base change of E over GF(p^r0), k = r0 gives the Frobenius of
    E's own field.
    """
    if not P:
        return P
    F = P.curve.field
    return P.curve._at(F.frobenius(P.x, k), F.frobenius(P.y, k))


def is_supersingular(E: Curve) -> bool:
    return E.trace % E.field.p == 0


# ---------------------------------------------------------------------------
# j-invariants, twists, classes


def j_invariant(E: Curve) -> FieldElement:
    A3 = 4 * E.A * E.A * E.A
    disc = A3 + 27 * E.B * E.B
    return 1728 * A3 / disc


def share_count(src: Curve, dst: Curve):
    """Give dst the count of src, if any.  dst must be isogenous to src over
    the same field: such curves have equal #E(k) (Tate 1966)."""
    if src._order is not None:
        dst._set_count(src._order)


def _share_twist_count(src: Curve, dst: Curve):
    """dst is the quadratic twist of src: #dst(k) = 2q + 2 - #src(k)."""
    if src._order is not None:
        dst._set_count(2 * src.field.order + 2 - src._order)


def quadratic_twist(E: Curve) -> Curve:
    """The twist by the least non-residue; it carries E's count when E has one."""
    d = E.field.least_nonresidue()
    T = Curve(E.field, E.A * d * d, E.B * d * d * d)
    _share_twist_count(E, T)
    return T


def _iso_ratio(E1: Curve, E2: Curve, j: FieldElement) -> tuple[FieldElement, int]:
    """(c, k) with E2 = (u^4 A1, u^6 B1) exactly when u^k = c, for two
    models over one field with j-invariant j: k = 6 at j = 0 (A = 0), k = 4
    at j = 1728 (B = 0), else k = 2 (u^4 = A2/A1 and u^6 = B2/B1 follow
    from c = B2 A1/(B1 A2), since A^3/B^2 is fixed by j)."""
    if not j:
        return E2.B / E1.B, 6
    if j == E1.field.from_int(1728):
        return E2.A / E1.A, 4
    return E2.B * E1.A / (E1.B * E2.A), 2


def _isomorphic(E1: Curve, E2: Curve, j: FieldElement) -> bool:
    """Are two models with j-invariant j isomorphic over their field, i.e.
    is the c of _iso_ratio a k-th power?"""
    c, k = _iso_ratio(E1, E2, j)
    if k == 2:
        return c.is_square()
    q = c.field.order
    return c ** ((q - 1) // gcd(k, q - 1)) == c.field.one


@lru_cache(maxsize=None)
def _twist_scan(field: Field, j: FieldElement) -> tuple[tuple[int, Curve], ...]:
    """All k-isomorphism classes with the given j-invariant, in scan order.

    Returns ((twist_index, representative), ...).  The scan is: for generic j
    the curve (3j(1728-j), 2j(1728-j)^2) then its quadratic twist by the least
    non-residue; for j = 0 the curves y^2 = x^3 + B and for j = 1728 the
    curves y^2 = x^3 + Ax, parameters ascending in lex order.
    """
    F = field
    if j and j != F.from_int(1728):
        c = j * (F.from_int(1728) - j)
        base = Curve(F, 3 * c, 2 * c * (F.from_int(1728) - j))
        assert j_invariant(base) == j
        return ((0, base), (1, quadratic_twist(base)))
    count = gcd(4 if j else 6, F.order - 1)
    classes: list[tuple[int, Curve]] = []
    for pos, el in enumerate(F.elements()):
        if not el:
            continue
        E = Curve(F, el, F.zero) if j else Curve(F, F.zero, el)
        if any(_isomorphic(C, E, j) for _, C in classes):
            continue
        classes.append((pos - 1, E))  # pos-1: zero was scanned first
        if len(classes) == count:
            break
    return tuple(classes)


def _scan_trace(scan, k: int) -> int:
    """The trace of member k of a twist scan.  A generic-j scan (A and B
    nonzero) is a curve and its quadratic twist, so a count on one member
    gives the other's without a sweep."""
    E = scan[k][1]
    if E._order is None and len(scan) == 2 and E.A and E.B:
        _share_twist_count(scan[1 - k][1], E)
    return E.trace


def twist_classes(field: Field, j) -> list[CurveClass]:
    """Every k-isomorphism class with this j-invariant (counts its traces)."""
    if isinstance(j, int):
        j = field.from_int(j)
    scan = _twist_scan(field, j)
    return [
        CurveClass(j, _scan_trace(scan, k), E, idx)
        for k, (idx, E) in enumerate(scan)
    ]


@lru_cache(maxsize=None)
def _j_line(field: Field) -> dict[int, tuple[tuple, ...]]:
    """The one j-line sweep of a field: each trace of a class over it, mapped
    to the j-invariants (coefficient tuples, ascending) carrying a class of
    that trace.  It holds no classes, so it stays right when _twist_scan is
    cleared: a class's trace depends only on (field, j)."""
    by_trace: dict[int, list[tuple]] = {}
    for j in field.elements():
        for t in {c.trace for c in twist_classes(field, j)}:
            by_trace.setdefault(t, []).append(j.coeffs)
    return {t: tuple(js) for t, js in by_trace.items()}


def classes_with_trace(field: Field, t: int) -> list[CurveClass]:
    """Every k-isomorphism class with trace t, sorted by key.  The first
    call on a field sweeps its j-line (_j_line); later calls visit only the
    j-invariants that carry trace t.  ValueError unless t is an int (a bool
    or float is refused)."""
    if type(t) is not int:
        raise ValueError(f"trace must be an int, got {t!r}")
    classes = [
        c
        for j in _j_line(field).get(t, ())
        for c in twist_classes(field, FieldElement(field, j))
        if c.trace == t
    ]
    classes.sort(key=CurveClass.key)
    return classes


def curve_from_j(field: Field, j, trace: int) -> Curve:
    """The deterministic representative with this j-invariant and trace."""
    if isinstance(j, int):
        j = field.from_int(j)
    scan = _twist_scan(field, j)
    for k, (_, E) in enumerate(scan):
        if _scan_trace(scan, k) == trace:
            return E
    raise NoSuchTwist(f"no curve over {field!r} with j={j!r} and trace {trace}")


def isomorphism_scale(E1: Curve, E2: Curve) -> FieldElement:
    """The lex-least u with (x, y) -> (u^2 x, u^3 y) mapping E1 onto E2,
    i.e. A2 = u^4 A1 and B2 = u^6 B1: the first root of x^k - c for the
    (c, k) of _iso_ratio.  ValueError if none exists."""
    F = E1.field
    if E1.field is not E2.field:
        raise CurveMismatch("isomorphism search needs a common field")
    j = j_invariant(E1)
    if j != j_invariant(E2):
        raise ValueError("different j-invariants: not isomorphic")
    c, k = _iso_ratio(E1, E2, j)
    for u, _ in roots(Poly(F, [-c, *[F.zero] * (k - 1), F.one])):
        return u
    raise ValueError("not isomorphic over the base field")


def curve_class(E: Curve) -> CurveClass:
    """Canonical class identity of E: matches E against the twist scan."""
    j = j_invariant(E)
    scan = _twist_scan(E.field, j)
    for k, (idx, C) in enumerate(scan):
        if _isomorphic(C, E, j):
            share_count(E, C)
            return CurveClass(j, _scan_trace(scan, k), C, idx)
    raise AssertionError("twist scan must contain every class")


def discriminant_frobenius_order(q: int, t: int) -> tuple[int, int]:
    """t^2 - 4q = f0^2 * D0 with D0 fundamental; returns (D0, f0)."""
    disc = t * t - 4 * q
    if disc >= 0:
        raise NotImaginaryQuadratic(f"t^2 >= 4q for t={t}, q={q}")
    return split_discriminant(disc)


def frobenius_is_integer(q: int, t: int) -> bool:
    """Whether t^2 = 4q, the one test of the quaternionic case: then
    pi = t/2 is an integer, every endomorphism is defined over GF(q), and
    End_k(E) is a maximal quaternion order (Waterhouse 1969)."""
    return t * t == 4 * q


# ---------------------------------------------------------------------------
# Sylow bases, discrete logs, torsion


def curve_seed(E: Curve, *extra: int) -> int:
    """A sampling seed from the coefficient integers of E (and `extra`)."""
    seed = E.field.p * 1000003 + E.field.r
    for v in (*E.A.coeffs, *E.B.coeffs, *extra):
        seed = (seed * 1000003 + v + 7) % (2**61 - 1)
    return seed


def _ell_power_order(P: Point, ell: int, cap: int) -> tuple[int, Point]:
    """(k, ell^(k-1)*P) with ord(P) = ell^k, given that the order is an
    ell-power: the chain P, ell*P, ... on raw residues, and its last nonzero
    point (O for k = 0)."""
    E = P.curve
    ops, a = _raw_law(E)
    R, bottom, k = P.raw, None, 0
    while R is not None:
        bottom, R = R, _mul_raw(ops, a, ell, R)
        k += 1
        if k > cap:
            raise AssertionError("point order is not the expected ell-power")
    return k, Point(E, bottom)


def _bottom_independent(U1: Point, U2: Point, ell: int) -> bool:
    """True if U2 lies outside <U1>, for U1 of order ell: then the order-ell
    layers they span intersect trivially."""
    return point_log(U2, U1, ell) is None


@lru_cache(maxsize=None, typed=True)
def sylow_basis(E: Curve, ell: int) -> tuple[Point, Point, int, int]:
    """Generators (S1, S2) of the ell-Sylow subgroup of E(k), of orders
    ell^a >= ell^b; ValueError unless ell is a prime int.  Cached, and
    seeded by curve_seed, so a cold recompute returns the same pair.

    S1 is the draw of largest order (the earliest on a tie); each other draw
    T, or the S1 a larger draw displaces, is reduced into a complement of
    <S1>.  With b = v - a <= a, ell^b*G is cyclic for the Sylow group
    G = Z/ell^A x Z/ell^B (a <= A gives b >= B), so ell^b*T, of order at
    most ell^(a-b), lies in the one subgroup of that order, generated by
    ell^b*S1: it is z*ell^b*S1 with z < ell^(a-b), and S2 = T - z*S1 is
    killed by ell^b.
    If ell^(b-1)*S2 is outside <S1>, the two cyclic groups meet trivially
    and span all ell^v points.  No reduction is tried when b > a or
    ell^(a-b) > DLOG_MAX.
    """
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"ell must be a prime int, got {ell!r}")
    N = E.order
    v = valuation(N, ell)
    inf = E.infinity()
    if v == 0:
        return (inf, inf, 0, 0)
    cof = N // ell**v
    rng = random.Random(curve_seed(E, ell))
    S1, a, U1 = inf, 0, inf
    for _ in range(600):
        T = scalar_mul(cof, E.random_point(rng))
        k, U = _ell_power_order(T, ell, v)
        if k == v:
            return (T, inf, v, 0)
        if k > a:
            S1, a, U1, T = T, k, U, S1  # reduce the displaced S1 instead
        b = v - a
        if not T or b > a or ell ** (a - b) > DLOG_MAX:
            continue
        z = point_log(scalar_mul(ell**b, T), scalar_mul(ell**b, S1), ell ** (a - b))
        S2 = point_add(T, scalar_mul(-z, S1))
        if _bottom_independent(U1, scalar_mul(ell ** (b - 1), S2), ell):
            return (S1, S2, a, b)
    raise AssertionError("sylow sampling failed to span; group smaller than N?")


def point_log(R: Point, T: Point, n: int) -> int | None:
    """The least c in [0, n) with c*T = R, or None: a walk over the
    multiples of T on raw residues that stops at the first match.
    BoundExceeded past DLOG_MAX, as in two_dim_dlog; CurveMismatch unless R
    and T lie on one curve."""
    if n > DLOG_MAX:
        raise BoundExceeded(
            "discrete-log plane too large for table search",
            cap="DLOG_MAX", limit=DLOG_MAX, requested=n,
        )
    E = T.curve
    if R.curve is not E and R.curve != E:
        raise CurveMismatch("points on different curves")
    ops, a = _raw_law(E)
    target, step = R.raw, T.raw
    W = None
    for c in range(n):
        if W == target:
            return c
        W = _add_raw(ops, a, W, step)
    return None


def two_dim_dlog(
    R: Point, S1: Point, S2: Point, ord1: int, ord2: int
) -> tuple[int, int] | None:
    """(i, j) with R = i*S1 + j*S2, or None if R is outside the span.

    Brute baby-step table over <S1>, keyed by raw (x, y) residues; fine for
    the small planes used here.  CurveMismatch unless all three points lie
    on one curve.
    """
    if ord1 * ord2 > DLOG_MAX:
        raise BoundExceeded(
            "discrete-log plane too large for table search",
            cap="DLOG_MAX", limit=DLOG_MAX, requested=ord1 * ord2,
        )
    E = R.curve
    if not E == S1.curve == S2.curve:
        raise CurveMismatch("points on different curves")
    ops, a = _raw_law(E)
    step1, step2 = S1.raw, S2.raw
    table = {}
    T = None
    for i in range(ord1):
        table.setdefault(T, i)
        T = _add_raw(ops, a, T, step1)
    W = R.raw
    for j in range(ord2):
        if W in table:
            return (table[W], (-j) % ord2)
        W = _add_raw(ops, a, W, step2)
    return None


def _sylow_projectors(N: int, n: int) -> list[tuple[int, int, int]]:
    """For each prime ell | gcd-ish of n and N: (ell, M, c) where M is the
    full Sylow size ell^v(N) and c*P projects P onto that Sylow factor."""
    out = []
    for ell, _ in factorize(n):
        v = valuation(N, ell)
        if v == 0:
            continue
        M = ell**v
        rest = N // M
        c = rest * pow(rest, -1, M)  # c = 0 mod rest, 1 mod M
        out.append((ell, M, c))
    return out


def divide_point(P: Point, n: int) -> Point:
    """Some Q with n*Q = P, possibly over an extension field (smallest
    extension degree that works, scanning upward).  BoundExceeded if none
    exists within the R_MAX tower, ValueError unless n is a positive int.
    The torsion gate does not apply: a solution over GF(q^s) does not need
    E[n] in E(GF(q^s))."""
    if type(n) is not int or n < 1:
        raise ValueError(f"divisor must be a positive int, got {n!r}")
    E = P.curve
    if n == 1:
        return P
    r0 = E.field.r
    for s in range(1, R_MAX // r0 + 1):
        EK = base_change(E, s)
        Q = _divide_in_field(embed_point(P, EK), n)
        if Q is not None:
            return Q
    # requested=None: the scan stops at the cap, so the degree that has a
    # solution (if any) is not known
    raise BoundExceeded(
        f"no solution of {n}*Q = P within the extension cap",
        cap="R_MAX", limit=R_MAX, requested=None,
    )


def _divide_in_field(P: Point, n: int) -> Point | None:
    E = P.curve
    N = E.order
    parts = _sylow_projectors(N, n)
    sylows = prod(M for _, M, _ in parts)
    rest = N // sylows
    # component of P away from the primes of n: n is invertible there (O
    # when rest = 1, as pow(0, -1, 1) == 0)
    c_rest = sylows * pow(sylows, -1, rest)  # 1 mod rest, 0 mod each Sylow
    Q = scalar_mul(c_rest * pow(n % rest, -1, rest), P)
    for ell, M, c in parts:
        Pl = scalar_mul(c, P)
        v = valuation(M, ell)
        S1, S2, a, b = sylow_basis(E, ell)
        dl = two_dim_dlog(Pl, S1, S2, ell**a, ell**b)
        if dl is None:
            raise AssertionError("projection must land inside the Sylow group")
        i, j = dl
        w = valuation(n, ell)
        sol = []
        for coord, e in ((i, a), (j, b)):
            if coord % ell**min(w, e):
                return None  # not divisible in this field
            unit = pow(n // ell**w, -1, ell**e) if e else 0
            sol.append(coord // ell**min(w, e) * unit % ell**e if e else 0)
        Q = point_add(Q, point_add(scalar_mul(sol[0], S1), scalar_mul(sol[1], S2)))
    if scalar_mul(n, Q) == P:
        return Q
    return None


def check_coprime_to_p(m: int, p: int) -> None:
    """The one owner of the p-part refusal: PPartUnsupported (also a
    ValueError) when the characteristic p divides the order, degree or
    multiplier m, whose p-part is no etale subgroup."""
    if m % p == 0:
        raise PPartUnsupported(f"order {m} must be coprime to the characteristic")


def check_torsion_order(E: Curve, m: int) -> None:
    """The one gate for a torsion or kernel order m on E: ValueError unless
    m is an int >= 1 (a bool is refused), check_coprime_to_p, then
    BoundExceeded past M_MAX, so invalid input is refused before a valid
    one that is too large."""
    if type(m) is not int or m < 1:
        raise ValueError(f"order must be a positive int, got {m!r}")
    check_coprime_to_p(m, E.field.p)
    if m > M_MAX:
        raise BoundExceeded(
            f"torsion and kernel orders are capped at {M_MAX}",
            cap="M_MAX", limit=M_MAX, requested=m,
        )


def check_kernel_generator(E: Curve, P, n: int) -> None:
    """The one gate for a kernel generator P of order n on E: n passes
    check_torsion_order; for n = 1, P is None or O; otherwise P is a finite
    point on a base change of E (CurveMismatch otherwise) of exact order n,
    i.e. n*P = O and (n/ell)*P != O for each prime ell | n (WrongOrder
    otherwise)."""
    check_torsion_order(E, n)
    if n == 1:
        if P is not None and not (isinstance(P, Point) and not P):
            raise WrongOrder("order 1 demands a trivial generator")
        return
    if not isinstance(P, Point) or not P:
        raise WrongOrder("kernel generator must be a finite point")
    base_change_degree(E, P.curve)
    if scalar_mul(n, P):
        raise WrongOrder(f"generator is not annihilated by {n}")
    for ell, _ in factorize(n):
        if not scalar_mul(n // ell, P):
            raise WrongOrder(f"generator order strictly divides {n}")


def check_isogenous(E2: Curve, E1: Curve) -> None:
    """The one owner of Tate's criterion (1966): curves over one field are
    k-isogenous exactly when their traces agree.  NotIsogenous for curves
    over different fields, then TraceMismatch for different traces."""
    if (E2.field.p, E2.field.r) != (E1.field.p, E1.field.r):
        raise NotIsogenous("curves live over different fields")
    if E2.trace != E1.trace:
        raise TraceMismatch(
            f"traces {E2.trace} and {E1.trace} differ; the curves are not k-isogenous"
        )


@lru_cache(maxsize=None, typed=True)
def torsion_basis(E: Curve, m: int) -> tuple[Point, Point, Field]:
    """A basis (P, Q) of E[m] over the smallest extension containing it.

    The extension degree is torsion_degree(E, m), found by integer
    arithmetic on the Frobenius, so points are sampled only over that one
    field, and a request beyond the R_MAX tower is refused before any point
    work over an extension.  P and Q need no certificate of their own: with
    ell^e || m and u = m/ell^e, (m/ell)*P = u*ell^(a-1)*S1 and (m/ell)*Q =
    u*ell^(b-1)*S2 are unit multiples of the bottoms sylow_basis proved
    independent, and m kills both.  Bases are cached per (curve, m): every
    caller treats the choice as arbitrary, and recomputing them dominated
    profile runs.
    """
    s = torsion_degree(E, m)
    EK = base_change(E, s)
    P = Q = EK.infinity()
    for ell, e in factorize(m):
        S1, S2, a, b = sylow_basis(EK, ell)
        if b < e:  # Lenstra's theorem rules this out; a raise survives python -O
            raise AssertionError(f"E[{m}] is not rational over GF(q^{s})")
        P = point_add(P, scalar_mul(ell ** (a - e), S1))
        Q = point_add(Q, scalar_mul(ell ** (b - e), S2))
    return (P, Q, EK.field)


def torsion_degree(E: Curve, m: int) -> int:
    """The least s with E[m] in E(GF(q^s)), q = #k, on every field k.
    Integer arithmetic only, apart from one Sylow exponent of E(k) per
    prime of gcd(m, f0) and, rarely, one conductor_level.  m passes
    check_torsion_order; BoundExceeded also when GF(q^s) is beyond the
    R_MAX tower, so the refusal comes before any field is built.

    If End_k(E) = O is quadratic, E(GF(q^s)) = O/(pi^s - 1) (Lenstra 1996,
    "Complex multiplication structure of elliptic curves"), so E[m] is
    rational over GF(q^s) exactly when pi^s - 1 lies in m*O.  Write
    pi^s = x_s + y_s*w0 with w0 = (D0 + sqrt(D0))/2; for O of conductor F
    the test is m | x_s - 1 and m*F | y_s.  As f0 | y_s always, only the
    ell-part of F with ell | gcd(m, f0) matters; call its exponent the
    level, between 0 and h = v_ell(f0).  The same theorem at s = 1 gives
    the second ell-Sylow exponent of E(k) as b = min(v_ell(x_1 - 1),
    h - level) (Miret et al. 2008), so the level is h - b when
    b < v_ell(x_1 - 1) and at most h - b otherwise.  conductor_level
    settles it only when the two ends give different least s.

    Beyond GF(p) that happens only for ordinary curves, whose volcanoes
    conductor_level searches as over GF(p).  A supersingular curve there
    with pi not in Z has a prime ell != p in f0 only when r is odd, t = 0
    and p = 3 (mod 4): then ell = 2, h = 1 and x_1 = p^((r+1)/2) is odd, so
    an undecided level has b >= v_2(x_1 - 1) >= h and both ends are level
    0.  When pi is an integer (frobenius_is_integer), E(GF(q^s)) =
    (Z/(pi^s - 1))^2 and m | pi^s - 1 is exact.
    """
    check_torsion_order(E, m)
    if m == 1:
        return 1
    q, t, r0 = E.field.order, E.trace, E.field.r
    cap = R_MAX // r0
    if frobenius_is_integer(q, t):
        s = multiplicative_order(t // 2, m)
    else:
        D0, f0 = discriminant_frobenius_order(q, t)
        x1 = (t - f0 * D0) // 2  # pi = x1 + f0*w0, w0^2 = D0*w0 - n0
        n0 = (D0 * D0 - D0) // 4

        def least(c: int, stop: int = cap) -> int | None:
            """The least s <= stop with pi^s - 1 in m*(Z + c*w0*Z), or None;
            the powers are kept mod m*f0, which fixes both conditions."""
            x, y, M = 1, 0, m * f0
            for s in range(1, stop + 1):
                x, y = (x * x1 - y * f0 * n0) % M, (x * f0 + y * (x1 + f0 * D0)) % M
                if (x - 1) % m == 0 and y % (m * c) == 0:
                    return s
            return None

        c_lo = c_hi = 1  # the conductor's ell-parts at the two ends of the bracket
        undecided = []
        for ell, _ in factorize(m):
            if f0 % ell:
                continue
            h = valuation(f0, ell)
            b = sylow_basis(E, ell)[3]
            if x1 == 1 or b < valuation(x1 - 1, ell):
                c_lo *= ell ** (h - b)
            else:
                undecided.append(ell)
            c_hi *= ell ** (h - b)
        s = least(c_lo)
        if s is not None and s != least(c_hi):
            from .endo_ring import conductor_level  # endo_ring imports this module

            s = least(c_lo * prod(ell ** conductor_level(E, ell) for ell in undecided), m * m)
        if s is None:
            s = least(c_lo, m * m)  # the unit group of O/mO has < m^2 elements
    if s > cap:
        raise BoundExceeded(
            f"E[{m}] needs an extension beyond the degree cap {R_MAX}",
            cap="R_MAX", limit=R_MAX, requested=s * r0,
        )
    return s
