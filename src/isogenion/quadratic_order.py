"""Imaginary quadratic orders and their two-generator ideals.

An order is determined by a fundamental discriminant D0 < 0 and a conductor
f >= 1; writing K = Q(sqrt(D0)) and

    gamma = sqrt(D0)/2         if D0 = 0 mod 4,
    gamma = (1 + sqrt(D0))/2   if D0 = 1 mod 4,

the order is O = Z + Z*f*gamma, of discriminant f**2 * D0.  Every finite-index
O-ideal has a unique Hermite-normalized presentation

    I = Z*(a*t) + Z*t*(b + f*gamma),     t, a >= 1,  0 <= b < a,

of norm [O : I] = t**2 * a; all equality and set semantics go through this
normal form.  Arithmetic never leaves the integers: elements x + y*f*gamma are
(x, y) pairs, with trace and norm of f*gamma precomputed on the order.

Besides ideal arithmetic (products via 2x2 Hermite reduction, conjugation,
invertibility through the multiplier ring) the module enumerates ideals of a
given norm, counts invertible/non-invertible ideals of prime-power norm by
the closed piecewise formulas, and lists class groups through reduced
binary quadratic forms.
"""

from math import gcd

from .errors import (
    BoundExceeded,
    NotAnIdeal,
    NotImaginaryQuadratic,
    NotMaximalAtPrime,
    OrderMismatch,
)
from .intmath import (
    hnf2,
    is_prime,
    kronecker,
    prime_factors,
    split_discriminant,
    valuation,
)

DISC_MAX = 10**6


class QuadOrder:
    """Z + Z*f*gamma inside the imaginary quadratic field of discriminant D0."""

    __slots__ = ("D0", "f", "Tw", "Nw")

    def __init__(self, D0: int, f: int = 1):
        if type(D0) is not int or type(f) is not int:
            raise TypeError("discriminant and conductor must be integers")
        if D0 >= 0:
            raise NotImaginaryQuadratic(f"D0 = {D0} is not negative")
        if f < 1:
            raise ValueError("conductor must be a positive integer")
        if D0 % 4 > 1 or split_discriminant(D0)[1] != 1:
            raise ValueError(f"{D0} is not a fundamental discriminant")
        self.D0 = D0
        self.f = f
        if D0 % 4 == 0:
            # f*gamma = f*sqrt(D0)/2
            self.Tw = 0
            self.Nw = f * f * (-D0) // 4
        else:
            # f*gamma = f*(1 + sqrt(D0))/2
            self.Tw = f
            self.Nw = f * f * (1 - D0) // 4

    @property
    def disc(self) -> int:
        return self.f * self.f * self.D0

    def element_norm(self, x: int, y: int) -> int:
        """Norm of x + y*f*gamma."""
        return x * x + self.Tw * x * y + self.Nw * y * y

    def __eq__(self, other):
        if not isinstance(other, QuadOrder):
            return NotImplemented
        return self.D0 == other.D0 and self.f == other.f

    def __hash__(self):
        return hash(("QuadOrder", self.D0, self.f))

    def __repr__(self):
        return f"QuadOrder(D0={self.D0}, f={self.f})"


def quad_order(D0: int, f: int = 1) -> QuadOrder:
    return QuadOrder(D0, f)


class QuadIdeal:
    """Z*(a*t) + Z*t*(b + f*gamma), validated and normalized on creation."""

    __slots__ = ("order", "t", "a", "b")

    def __init__(self, order: QuadOrder, t: int, a: int, b: int):
        if not isinstance(order, QuadOrder):
            raise TypeError("expected a QuadOrder")
        for v in (t, a, b):
            if type(v) is not int:
                raise TypeError("ideal coordinates must be integers")
        if t < 1 or a < 1:
            raise ValueError("t and a must be positive")
        b %= a
        # closure under multiplication by f*gamma comes down to one division
        if order.element_norm(b, 1) % a:
            raise NotAnIdeal(
                f"Z*{a} + Z*({b}+fg) is not an ideal of {order!r}: "
                f"norm {order.element_norm(b, 1)} not divisible by {a}"
            )
        self.order = order
        self.t = t
        self.a = a
        self.b = b

    @property
    def norm(self) -> int:
        return self.t * self.t * self.a

    def __eq__(self, other):
        if not isinstance(other, QuadIdeal):
            return NotImplemented
        return (
            self.order == other.order
            and self.t == other.t
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.order, self.t, self.a, self.b))

    def __repr__(self):
        return f"QuadIdeal({self.order!r}, t={self.t}, a={self.a}, b={self.b})"


def unit_ideal(order: QuadOrder) -> QuadIdeal:
    return QuadIdeal(order, 1, 1, 0)


def ideal_conjugate(I: QuadIdeal) -> QuadIdeal:
    # conjugation sends b + f*gamma to (b + Tw) - f*gamma; as a lattice the
    # conjugate ideal is spanned by a*t and t*(-b - Tw + f*gamma)
    return QuadIdeal(I.order, I.t, I.a, (-I.b - I.order.Tw) % I.a)


def is_invertible(I: QuadIdeal) -> bool:
    """True iff the multiplier ring {z in K : z*I <= I} is exactly the order.

    The multiplier ring can only grow at primes dividing the conductor, and
    f*gamma/ell multiplies I into itself iff ell | a, ell | b and
    ell*a | N(b + f*gamma); those are exact integer checks.
    """
    O = I.order
    a, b = I.a, I.b
    for ell in prime_factors(O.f):
        if a % ell or b % ell or (b + O.Tw) % ell:
            continue
        if O.element_norm(b, 1) % (ell * a) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# products


def ideal_multiply(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """Product ideal, renormalized to (t, a, b) form.

    The product lattice is spanned by the four pairwise generator products;
    norms multiply whenever one factor is invertible (and can genuinely drop
    otherwise, e.g. the square of a non-invertible prime).
    """
    if I.order != J.order:
        raise OrderMismatch(f"{I.order!r} vs {J.order!r}")
    O = I.order
    t1, a1, b1 = I.t, I.a, I.b
    t2, a2, b2 = J.t, J.a, J.b
    s = t1 * t2
    rows = [
        (a1 * a2 * s, 0),
        (a1 * s * b2, a1 * s),
        (a2 * s * b1, a2 * s),
        (s * (b1 * b2 - O.Nw), s * (b1 + b2 + O.Tw)),
    ]
    d1, x1, t = hnf2(rows)
    if d1 % t or x1 % t:
        raise AssertionError("product of ideals is not an ideal")
    return QuadIdeal(O, t, d1 // t, x1 // t)


def primes_above(order: QuadOrder, ell: int) -> list[QuadIdeal]:
    """The invertible primes of norm ell: two, one, or none as the
    discriminant is a nonzero square, zero, or a non-square mod ell."""
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if order.f % ell == 0:
        raise NotMaximalAtPrime(
            f"order of conductor {order.f} is not maximal at {ell}"
        )
    out = [
        QuadIdeal(order, 1, ell, b)
        for b in range(ell)
        if order.element_norm(b, 1) % ell == 0
    ]
    chi = kronecker(order.disc, ell)
    assert len(out) == (1 + chi if chi >= 0 else 0), (order, ell)
    return out


# ---------------------------------------------------------------------------
# class groups and reduction


class IdealClassGroup:
    __slots__ = ("order", "representatives", "h")

    def __init__(self, order, representatives, h):
        self.order = order
        self.representatives = representatives
        self.h = h

    def __repr__(self):
        return f"IdealClassGroup(disc={self.order.disc}, h={self.h})"


def class_group(order: QuadOrder) -> IdealClassGroup:
    """Reduced representatives of the invertible ideal classes.

    Enumerates reduced primitive forms (a, B, C) of the order's discriminant
    (-a < B <= a <= C, B >= 0 when a = C, gcd 1) and converts each to the
    ideal Z*a + Z*((B - Tw)/2 mod a + f*gamma).
    """
    disc = order.disc
    if -disc > DISC_MAX:
        raise BoundExceeded(
            f"|disc| cap for class groups is {DISC_MAX}",
            cap="DISC_MAX", limit=DISC_MAX, requested=-disc,
        )
    reps = []
    a = 1
    while 3 * a * a <= -disc:
        start = -(a - 1)
        if (start - disc) % 2:
            start += 1
        for B in range(start, a + 1, 2):
            num = B * B - disc
            if num % (4 * a):
                continue
            C = num // (4 * a)
            if C < a or (C == a and B < 0):
                continue
            if gcd(gcd(a, abs(B)), C) != 1:
                continue
            reps.append(_form_to_ideal(order, a, B))
        a += 1
    return IdealClassGroup(order, tuple(reps), len(reps))


def _form_to_ideal(order: QuadOrder, a: int, B: int) -> QuadIdeal:
    return QuadIdeal(order, 1, a, ((B - order.Tw) // 2) % a)


def _ideal_form(I: QuadIdeal) -> tuple[int, int, int]:
    """The binary quadratic form of the primitive part (t is dropped)."""
    O = I.order
    a, b = I.a, I.b
    return a, 2 * b + O.Tw, O.element_norm(b, 1) // a


def _reduce_form(a: int, B: int, C: int, disc: int) -> tuple[int, int, int]:
    while True:
        if C < a:
            a, B, C = C, -B, a
            continue
        if B > a or B <= -a:
            k = (a - B) // (2 * a)
            B += 2 * a * k
            C = (B * B - disc) // (4 * a)
            continue
        break
    if a == C and B < 0:
        B = -B
    return a, B, C


def class_order(I: QuadIdeal) -> int:
    """Multiplicative order of the ideal class in the class group."""
    if not is_invertible(I):
        raise ValueError("class order needs an invertible ideal")
    O = I.order
    step = _form_to_ideal(O, *_reduce_form(*_ideal_form(I), O.disc)[:2])
    J = step
    k = 1
    while J.a != 1:
        J = _form_to_ideal(O, *_reduce_form(*_ideal_form(ideal_multiply(J, step)), O.disc)[:2])
        k += 1
        if k > -O.disc:
            raise AssertionError("class order exceeded the discriminant bound")
    return k


# ---------------------------------------------------------------------------
# counting ideals of prime-power norm


def ideal_count_invertible(f: int, ell: int, n: int, D0: int) -> int:
    """Number of invertible ideals of norm ell**n in the conductor-f order.

    Piecewise in v = v_ell(f) and the symbol (D0/ell); n = 0 counts the unit
    ideal.  The v = 0 column is the classical maximal-at-ell count (n+1 split,
    parity-of-n inert, 1 ramified); for v >= 1 the counts saturate at n = 2v.
    """
    if f < 1 or n < 0:
        raise ValueError("need f >= 1 and n >= 0")
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    v = valuation(f, ell)
    chi = kronecker(D0, ell)
    if n == 0:
        return 1
    if v == 0:
        if chi == 1:
            return n + 1
        if chi == 0:
            return 1
        return 1 if n % 2 == 0 else 0
    if n < 2 * v:
        return ell ** (n // 2) if n % 2 == 0 else 0
    if chi == -1:
        return ell ** (v - 1) * (ell + 1) if n % 2 == 0 else 0
    if chi == 0:
        return ell**v
    return (n - 2 * v + 1) * ell ** (v - 1) * (ell - 1)


def ideal_count_noninvertible(f: int, ell: int, n: int, D0: int) -> int:
    """Number of non-invertible ideals of norm ell**n: the convolution
    sum_{1 <= k <= min(n, v)} of invertible counts one conductor layer down."""
    v = valuation(f, ell)
    return sum(
        ideal_count_invertible(f // ell**k, ell, n - k, D0)
        for k in range(1, min(n, v) + 1)
    )


def enumerate_ideals(order: QuadOrder, norm: int) -> list[QuadIdeal]:
    """Every ideal of exactly the given norm, by direct lattice search.

    For each t with t**2 | norm and a = norm/t**2, the valid b are the roots
    of b**2 + Tw*b + Nw mod a, scanned with an incremental update so the whole
    sweep is linear in a.
    """
    if type(norm) is not int or norm < 1:
        raise ValueError("norm must be a positive integer")
    if norm > DISC_MAX:
        raise BoundExceeded(
            f"norm cap for enumeration is {DISC_MAX}",
            cap="DISC_MAX", limit=DISC_MAX, requested=norm,
        )
    Tw, Nw = order.Tw, order.Nw
    out = []
    t = 1
    while t * t <= norm:
        if norm % (t * t) == 0:
            a = norm // (t * t)
            v = Nw % a
            for b in range(a):
                if v == 0:
                    out.append(QuadIdeal(order, t, a, b))
                v = (v + 2 * b + 1 + Tw) % a
        t += 1
    return out


def _basis_string(I: QuadIdeal) -> str:
    """Human-readable lattice basis, writing w for the maximal order's gamma
    (so the second generator t*(b + f*gamma) prints as t*b + t*f*w)."""
    lead = f"{I.a * I.t}Z"
    x, y = I.t * I.b, I.t * I.order.f
    second = f"{y}wZ" if x == 0 else f"({x}+{y}w)Z"
    return f"{lead} + {second}"


def ideal_table(order: QuadOrder, ell: int, n_max: int) -> list[dict]:
    """Rows {norm, invertible, noninvertible, iG, niG} for norms ell..ell**n_max.

    Basis strings use w for gamma; counts come from the closed formulas while
    the ideal lists come from enumeration, so consumers can cross-check.
    """
    rows = []
    for n in range(1, n_max + 1):
        ideals = enumerate_ideals(order, ell**n)
        inv = [I for I in ideals if is_invertible(I)]
        non = [I for I in ideals if not is_invertible(I)]
        rows.append(
            {
                "norm": ell**n,
                "invertible": [_basis_string(I) for I in inv],
                "noninvertible": [_basis_string(I) for I in non],
                "iG": ideal_count_invertible(order.f, ell, n, order.D0),
                "niG": ideal_count_noninvertible(order.f, ell, n, order.D0),
            }
        )
    return rows
