"""Arithmetic in GF(p) and GF(p^r).

Fields are canonical: `field_create(p, r)` always picks the lexicographically
least monic irreducible modulus (coefficient tuples (c0, ..., c_{r-1})
ascending, constant term first), so two runs — or two machines — agree on
every element's coordinate vector.  Each candidate modulus f is tested by
Berlekamp's criterion inside GF(p)[x]/(f), with the same `Field` arithmetic
that then serves the field.  Elements are immutable and hashable.

Elements store their r residues as a tuple.  Each field also supplies its
arithmetic on raw residues (`Field.raw_ops`): a plain int for r = 1, the
coefficient tuple for r > 1, so a loop such as the elliptic-curve group law
makes no element until it returns.  The `FieldElement` operations wrap the
same functions.  Products take one of three forms by degree: plain ints
mod p for r = 1; a closed form on residue pairs for r = 2, six int
products; and for r >= 3 a kernel on residues packed into one int of
fixed-width slots (Kronecker substitution), so a product costs one big-int
operation and O(r) Python steps.  Frobenius maps use the packed form for
every r > 1.  The slot width is derived from p and r, never set.  Inverses
and square tests go through the norm to GF(p): a0*b0 + m0*a1^2, b the
conjugate, at r = 2, and one Itoh–Tsujii routine above it.

Caps: p <= 2**16 and r <= 24.  These keep exhaustive point/torsion work in
seconds; nothing here is meant for cryptographic sizes.
"""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache
from operator import mul

from .errors import BoundExceeded, DivisionByZero, FieldMismatch, NotPrime
from .intmath import is_prime, row_reduce

__all__ = [
    "Field",
    "FieldElement",
    "field_create",
    "sqrt",
    "element_to_json",
    "P_MAX",
    "R_MAX",
]

P_MAX = 2**16
R_MAX = 24


# ---------------------------------------------------------------------------


def _is_irreducible(f, p):
    """Berlekamp's test for a monic f over GF(p), in R = GF(p)[x]/(f).

    x^(p^r) = x in R makes f squarefree with every factor of degree dividing
    r, and then the fixed space of Frobenius on R has one dimension per
    factor, so f is irreducible exactly when Frob - I has rank r - 1.
    """
    r = len(f) - 1
    if r <= 1:
        return r == 1
    ring = Field(p, r, tuple(f))
    x = y = ring.generator_x()
    for _ in range(r):
        y = ring.frobenius(y)
    if y != x:
        return False
    rows = [[(c - (i == j)) % p for j, c in enumerate(ring._reduce(row))]
            for i, row in enumerate(ring._frob_table(1))]
    return len(row_reduce(rows, p)[1]) == r - 1


def _least_irreducible(p, r):
    """Lexicographically least monic irreducible of degree r over GF(p)."""
    if r == 1:
        return (0, 1)  # the convention: plain Z/p, modulus "x"
    # constant term 0 means reducible, so start each block at c0 >= 1
    for c0 in range(1, p):
        for tail in itertools.product(range(p), repeat=r - 1):
            f = [c0, *tail, 1]
            if _is_irreducible(f, p):
                return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # impossible


def _quadratic_mul(p, m0, m1):
    """The product of residue pairs modulo x^2 + m1*x + m0, any m0 and m1:
    with c = a1*b1, x^2 = -m1*x - m0 folds c*x^2 into both residues."""

    def mul(a, b):
        a0, a1 = a
        b0, b1 = b
        c = a1 * b1
        return ((a0 * b0 - m0 * c) % p, (a0 * b1 + a1 * b0 - m1 * c) % p)

    return mul


# ---------------------------------------------------------------------------


class FieldElement:
    """An element of GF(p^r), stored as r residues (constant term first)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- basic protocol ----------------------------------------------------

    def __repr__(self):
        if self.field.r == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}@GF({self.field.p}^{self.field.r})"

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.coeffs))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __lt__(self, other):
        """Lexicographic order on coefficient vectors (the canonical tie-break)."""
        self._check(other)
        return self.coeffs < other.coeffs

    def __le__(self, other):
        self._check(other)
        return self.coeffs <= other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def _check(self, other):
        if self.field is not other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple([(a + b) % p for a, b in zip(self.coeffs, o.coeffs)])
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple([-a % p for a in self.coeffs]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple([(a - b) % p for a, b in zip(self.coeffs, o.coeffs)])
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return self.field._mul(self, other)
        if isinstance(other, int):
            p = self.field.p
            return FieldElement(self.field, tuple([c * other % p for c in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        return self.field._inv(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.field.from_int(other) / self

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- conveniences --------------------------------------------------------

    def lift(self) -> tuple:
        """The coefficient vector as plain integers."""
        return self.coeffs

    def lift_int(self) -> int:
        """The element as an integer; requires it to lie in the prime subfield."""
        if any(self.coeffs[1:]):
            raise ValueError("element is not in the prime subfield")
        return self.coeffs[0]

    def is_square(self) -> bool:
        """Euler's criterion on the norm: (q - 1)/2 = (p - 1)/2 * (q - 1)/(p - 1),
        so a^((q-1)/2) = N(a)^((p-1)/2)."""
        F = self.field
        p = F.p
        if not self or p == 2:
            return True
        norm = self.coeffs[0] if F.r == 1 else F._norm(self.coeffs)[1]
        return pow(norm, (p - 1) // 2, p) == 1


class Field:
    """GF(p^r) with a fixed monic irreducible modulus (degree r).

    `raw_ops` is (zero, add, sub, mul, inv) on raw residues: ints mod p for
    r = 1, residue tuples for r > 1 (`unwrap` and `wrap` convert).  `inv`
    needs a nonzero argument.

    The product is `raw_ops[3]`: ints mod p for r = 1, the closed form of
    `_quadratic_mul` for r = 2, and `_mul_packed` for r >= 3.  The packed
    kernel (and `frobenius` for every r > 1) packs each residue tuple
    little-endian into one int, one w-bit slot per residue, w the least of
    16, 32 and 64 above (2r - 1)(p - 1)^2.  That bounds every slot of a
    product folded by `_red_table` and of a Frobenius image, so no slot
    carries into the next.

    The product and `frobenius` are valid in GF(p)[x]/(f) for any monic f
    of degree r; such a candidate ring never leaves `_is_irreducible`.
    Inverses and `is_square` go through `_norm` and need f irreducible:
    only then is the conjugate at r = 2 the Frobenius image, so `frobenius`
    keeps its table there.
    """

    __slots__ = (
        "p",
        "r",
        "modulus",
        "order",
        "zero",
        "one",
        "raw_ops",
        "_packer",
        "_high",
        "_low_mask",
        "_red_table",
        "_frob_tables",
        "_nonresidue",
        "_sylow2_gen",
    )

    def __init__(self, p, r, modulus):
        self.p = p
        self.r = r
        self.modulus = modulus
        self.order = p**r
        self.zero = FieldElement(self, (0,) * r)
        one = [0] * r
        one[0] = 1
        self.one = FieldElement(self, tuple(one))
        w = next(w for w in (16, 32, 64) if (2 * r - 1) * (p - 1) ** 2 < 1 << w)
        fmt = {16: "H", 32: "I", 64: "Q"}[w]
        self._low_mask = (1 << r * w) - 1  # the r low slots of a product
        self._packer = struct.Struct(f"<{r}{fmt}")
        self._high = struct.Struct(f"<{r - 1}{fmt}")  # its r - 1 high slots
        # x^(r+i) mod modulus for i = 0..r-2, packed, to fold the high slots
        # of a product
        self._red_table = []
        cur = [(-c) % p for c in modulus[:-1]]  # x^r mod m
        for _ in range(max(0, r - 1)):
            self._red_table.append(self._pack(cur))
            cur = [0] + cur
            lead = cur.pop()  # coefficient of x^r
            if lead:
                cur = [(c - lead * m) % p for c, m in zip(cur, modulus[:-1])]
        self._frob_tables = {}
        self._nonresidue = None
        self._sylow2_gen = None  # z^m, q - 1 = 2^s m, z the least non-residue
        if r == 1:
            self.raw_ops = (
                0,
                lambda a, b: (a + b) % p,
                lambda a, b: (a - b) % p,
                lambda a, b: a * b % p,
                lambda a: pow(a, -1, p),
            )
        else:
            self.raw_ops = (
                self.zero.coeffs,
                lambda a, b: tuple([(u + v) % p for u, v in zip(a, b)]),
                lambda a, b: tuple([(u - v) % p for u, v in zip(a, b)]),
                self._mul_packed if r > 2 else _quadratic_mul(p, modulus[0], modulus[1]),
                self._inv_packed,
            )

    def __repr__(self):
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"

    def __hash__(self):
        return hash((self.p, self.r))

    def __eq__(self, other):
        return self is other

    # -- construction ----------------------------------------------------

    def from_int(self, n: int) -> FieldElement:
        coeffs = [0] * self.r
        coeffs[0] = n % self.p
        return FieldElement(self, tuple(coeffs))

    def from_coeffs(self, seq) -> FieldElement:
        seq = list(seq)
        if len(seq) > self.r:
            raise ValueError(f"too many coefficients for degree-{self.r} field")
        seq += [0] * (self.r - len(seq))
        return FieldElement(self, tuple(c % self.p for c in seq))

    def elements(self):
        """All field elements in ascending lexicographic order."""
        for tup in itertools.product(range(self.p), repeat=self.r):
            yield FieldElement(self, tup)

    def generator_x(self) -> FieldElement:
        """The residue of x (a root of the modulus), for r > 1."""
        return self.from_coeffs([0, 1])

    def unwrap(self, a: FieldElement):
        """The raw residue of an element of this field."""
        return a.coeffs[0] if self.r == 1 else a.coeffs

    def wrap(self, v) -> FieldElement:
        """The element with raw residue v."""
        return FieldElement(self, (v,) if self.r == 1 else v)

    # -- core arithmetic ---------------------------------------------------

    def _pack(self, coeffs) -> int:
        return int.from_bytes(self._packer.pack(*coeffs), "little")

    def _reduce(self, n: int) -> tuple:
        """The residues in the r slots packed in n, each reduced mod p."""
        p = self.p
        slots = self._packer.unpack(n.to_bytes(self._packer.size, "little"))
        return tuple([c % p for c in slots])

    def _mul_packed(self, a: tuple, b: tuple) -> tuple:
        """The product of two residue tuples (r > 1): `raw_ops[3]` for
        r >= 3, and the oracle the tests hold the r = 2 closed form to."""
        p = self.p
        # `_pack` and `_reduce` inlined: in small fields their method calls
        # would be a sizeable share of the product
        packer, high, low_mask = self._packer, self._high, self._low_mask
        n = int.from_bytes(packer.pack(*a), "little") * int.from_bytes(
            packer.pack(*b), "little")
        out = n & low_mask
        n >>= low_mask.bit_length()
        for c, row in zip(high.unpack(n.to_bytes(high.size, "little")), self._red_table):
            out += c % p * row
        slots = packer.unpack(out.to_bytes(packer.size, "little"))
        return tuple([c % p for c in slots])

    def _norm(self, a: tuple):
        """(a^(p + ... + p^(r-1)), N(a)) for a residue tuple a (r > 1): the
        norm N(a) = a^(1 + p + ... + p^(r-1)) is an int in [0, p).

        At r = 2, modulus x^2 + m1*x + m0, a^p is the conjugate
        b = (a0 - m1*a1, -a1) (the roots of the modulus sum to -m1), and
        N(a) = a*b = a0*b0 + m0*a1^2.  Otherwise Itoh–Tsujii:
        t_k = a^(1 + p + ... + p^(k-1)) satisfies t_2k = t_k * t_k^(p^k) and
        t_(k+1) = a * t_k^p, so t_(r-1) follows the bits of r - 1 in
        O(log r) products and Frobenius maps.
        """
        if self.r == 2:
            p, (m0, m1, _) = self.p, self.modulus
            a0, a1 = a
            b0 = (a0 - m1 * a1) % p
            return (b0, -a1 % p), (a0 * b0 + m0 * a1 * a1) % p
        mul, frob = self._mul_packed, self._frobenius_packed
        t, k = a, 1
        for bit in bin(self.r - 1)[3:]:
            t = mul(t, frob(t, k))
            k *= 2
            if bit == "1":
                t = mul(a, frob(t, 1))
                k += 1
        b = frob(t, 1)
        return b, mul(a, b)[0]

    def _inv_packed(self, a: tuple) -> tuple:
        """The inverse of a nonzero residue tuple (r > 1): a^-1 = b / N(a)."""
        p = self.p
        b, norm = self._norm(a)
        c = pow(norm, -1, p)
        return tuple([v * c % p for v in b])

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if self.r == 1:
            return FieldElement(self, (a.coeffs[0] * b.coeffs[0] % self.p,))
        return FieldElement(self, self.raw_ops[3](a.coeffs, b.coeffs))

    def _inv(self, a: FieldElement) -> FieldElement:
        if not a:
            raise DivisionByZero(f"inverse of 0 in {self}")
        return self.wrap(self.raw_ops[4](self.unwrap(a)))

    # -- Frobenius ---------------------------------------------------------

    def _frob_table(self, k: int):
        k %= self.r
        tbl = self._frob_tables.get(k)
        if tbl is None:
            # row i is y^i for y = x^(p^k), which is x^p moved by table 1
            # k - 1 times (y = x when k = 0)
            x = self.generator_x()
            y = x**self.p if k else x
            for _ in range(k - 1):
                y = self.frobenius(y)
            pw = [self.one]
            for _ in range(self.r - 1):
                pw.append(pw[-1] * y)
            tbl = self._frob_tables[k] = [self._pack(a.coeffs) for a in pw]
        return tbl

    def _frobenius_packed(self, a: tuple, k: int) -> tuple:
        """a ** (p**k) for a residue tuple a and 0 < k < r."""
        return self._reduce(sum(map(mul, a, self._frob_table(k))))

    def frobenius(self, a: FieldElement, k: int = 1) -> FieldElement:
        """a ** (p**k); k may be any integer (taken mod r)."""
        if self.r == 1:
            return a
        k %= self.r
        if k == 0:
            return a
        return FieldElement(self, self._frobenius_packed(a.coeffs, k))

    def least_nonresidue(self) -> FieldElement:
        """Lexicographically least quadratic non-residue (p odd).

        The lex order starts with the block c*x^(r-1), c < p.  Its norms
        are c^r * N(x)^(r-1) with N(x) = (-1)^r * m0, so the block is
        decided by Euler's criterion mod p alone (it is all squares when r
        is even and m0 a square mod p); the scan goes on from element p.
        """
        if self._nonresidue is None:
            p, r = self.p, self.r
            if p == 2:
                raise ValueError("every element is a square in characteristic 2")
            nx = pow((-1) ** r * self.modulus[0], r - 1, p)
            c = next((c for c in range(1, p)
                      if pow(c**r * nx, (p - 1) // 2, p) != 1), None)
            if c is not None:
                self._nonresidue = FieldElement(self, (0,) * (r - 1) + (c,))
            else:
                rest = itertools.islice(self.elements(), p, None)
                self._nonresidue = next(el for el in rest if not el.is_square())
        return self._nonresidue


@lru_cache(maxsize=None)
def _field_singleton(p: int, r: int) -> Field:
    return Field(p, r, _least_irreducible(p, r))


def field_create(p: int, r: int = 1) -> Field:
    """The canonical GF(p^r).  Cached, so field objects are singletons."""
    if type(p) is not int or type(r) is not int or r < 1:
        raise ValueError("p and r must be positive integers")
    for cap, limit, requested in (("P_MAX", P_MAX, p), ("R_MAX", R_MAX, r)):
        if requested > limit:
            raise BoundExceeded(
                f"caps are p <= {P_MAX}, r <= {R_MAX}",
                cap=cap, limit=limit, requested=requested,
            )
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _field_singleton(p, r)


def sqrt(a: FieldElement):
    """Both square roots of `a`, or None if `a` is a non-square.

    Roots come back lexicographically-least first; sqrt(0) = (0, 0).
    """
    field = a.field
    q = field.order
    if not a:
        return (field.zero, field.zero)
    if field.p == 2:
        s = a ** (q // 2)
        return (s, s)
    if not a.is_square():
        return None
    s = _tonelli_shanks(a)
    t = -s
    return (s, t) if s < t else (t, s)


def _tonelli_shanks(a: FieldElement) -> FieldElement:
    field = a.field
    q = field.order
    m, s = q - 1, 0
    while m % 2 == 0:
        m //= 2
        s += 1
    if field._sylow2_gen is None:
        field._sylow2_gen = field.least_nonresidue() ** m
    c = field._sylow2_gen
    h = a ** ((m - 1) // 2)
    x = h * a  # a^((m + 1)/2)
    t = x * h  # a^m
    while t != field.one:
        # find least i with t^(2^i) = 1
        i, t2 = 0, t
        while t2 != field.one:
            t2 = t2 * t2
            i += 1
        b = c ** (2 ** (s - i - 1))
        x = x * b
        c = b * b
        t = t * c
        s = i
    return x


def element_to_json(a: FieldElement):
    """JSON value of an element: an int in the prime subfield, else the
    coefficient list."""
    try:
        return a.lift_int()
    except ValueError:
        return list(a.lift())
