"""Dense univariate polynomials over a finite field, and their roots.

`roots` takes gcd(x^q - x, f), the product of f's distinct linear factors,
and splits it by equal-degree splitting (Cantor & Zassenhaus 1981) for
degree 1, seeded from the polynomial's own coefficients; the roots come
back sorted, so they do not depend on the splitting.

Subfield embeddings GF(p^a) -> GF(p^b) for a | b also live here, because they
are defined by a root of the small field's modulus in the big one.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch
from .finite_field import Field, FieldElement, field_create
from .intmath import prime_factors, row_reduce


class Poly:
    """Immutable polynomial; coeffs are FieldElements, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_ints(field: Field, ints) -> "Poly":
        return Poly(field, [field.from_int(c) for c in ints])

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly.from_ints(field, [0, 1])

    @staticmethod
    def const(field: Field, c) -> "Poly":
        if isinstance(c, int):
            c = field.from_int(c)
        return Poly(field, [c])

    @staticmethod
    def from_roots(field: Field, roots) -> "Poly":
        out = Poly.from_ints(field, [1])
        for r in roots:
            out = out * Poly(field, [-r, field.one])
        return out

    # -- protocol ------------------------------------------------------------

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c!r}*x^{i}" if i else f"{c!r}")
        return "Poly(" + " + ".join(terms) + ")"

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other):
        if self.field is not other.field:
            raise FieldMismatch("polynomials over different fields")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.const(self.field, other)
        self._check(other)
        return Poly(
            self.field,
            [
                a + b
                for a, b in itertools.zip_longest(
                    self.coeffs, other.coeffs, fillvalue=self.field.zero
                )
            ],
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.const(self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.const(self.field, other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        f, g = self.coeffs, other.coeffs
        out = [self.field.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        inv_lead = other.leading().inverse()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(self.field, []), self
        quot = [self.field.zero] * (dq + 1)
        for shift in range(dq, -1, -1):
            c = rem[shift + other.degree()] * inv_lead
            if c:
                quot[shift] = c
                for i, oc in enumerate(other.coeffs):
                    rem[shift + i] = rem[shift + i] - c * oc
        return Poly(self.field, quot), Poly(self.field, rem[: other.degree()])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.from_ints(self.field, [1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly(
            self.field,
            [self.coeffs[i] * i for i in range(1, len(self.coeffs))],
        )

    def eval(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, new_field=None) -> "Poly":
        return Poly(new_field or self.field, [fn(c) for c in self.coeffs])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    if e < 0:
        raise ValueError("negative exponent")
    result = Poly.from_ints(base.field, [1]) % mod
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# roots


def _poly_seed(f: Poly) -> int:
    seed = f.field.p * 1000003 + f.field.r
    for c in f.coeffs:
        for v in c.coeffs:
            seed = (seed * 1000003 + v + 1) % (2**61 - 1)
    return seed


def _split_linear(f: Poly, rng: random.Random) -> list[FieldElement]:
    """The roots of f, a monic squarefree product of linear factors.

    Equal-degree splitting for degree 1: gcd((x + c)^((q - 1)/2) - 1, f)
    keeps the roots a with a + c a nonzero square, so a random c splits f
    unless every root lands on one side.
    """
    if f.degree() <= 0:
        return []
    if f.degree() == 1:
        return [-f[0]]
    field = f.field
    while True:
        c = field.from_coeffs([rng.randrange(field.p) for _ in range(field.r)])
        b = pow_mod(Poly(field, [c, field.one]), (field.order - 1) // 2, f) - 1
        g = poly_gcd(b, f)
        if 0 < g.degree() < f.degree():
            return _split_linear(g, rng) + _split_linear(f // g, rng)


def roots(f: Poly) -> list[tuple[FieldElement, int]]:
    """Roots of f in its own field, (root, multiplicity), sorted lex.

    gcd(x^q - x, f) is the product of the distinct x - a over the roots a;
    it is split into linear factors with a generator seeded from its own
    coefficients, and each root is then counted by synthetic division.  Odd
    characteristic only: the splitting raises (q - 1)/2 powers.
    """
    if f.field.p == 2:
        raise ValueError("root finding needs odd characteristic")
    if f.is_zero():
        raise ValueError("zero polynomial")
    x = Poly.x(f.field)
    lin = poly_gcd(pow_mod(x, f.field.order, f) - x, f)
    found = _split_linear(lin, random.Random(_poly_seed(lin)))
    out = [(root, multiplicity(f, root)) for root in found]
    out.sort(key=lambda t: t[0].coeffs)
    return out


def multiplicity(f: Poly, root: FieldElement) -> int:
    """How many times (x - root) divides f; 0 when root is not a root.

    Each division is synthetic (Horner's scheme), deg f multiplications,
    so no factoring is needed to test a known candidate root.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    cs = f.coeffs
    mult = 0
    while len(cs) > 1:
        quot = [cs[-1]]
        for c in reversed(cs[:-1]):
            quot.append(quot[-1] * root + c)
        if quot[-1]:
            break
        mult += 1
        cs = quot[-2::-1]
    return mult


# ---------------------------------------------------------------------------
# subfield embeddings


class SubfieldEmbedding:
    """GF(p^a) -> GF(p^b) for a | b, determined by the image `root` of the
    generator of GF(p^a); subfield_embedding says which root that is."""

    __slots__ = ("src", "dst", "root", "_powers", "_transform")

    def __init__(self, src: Field, dst: Field, root: FieldElement):
        self.src = src
        self.dst = dst
        self.root = root
        pw = [dst.one]
        for _ in range(src.r - 1):
            pw.append(pw[-1] * root)
        self._powers = pw
        # row-reduce the (dst.r x src.r) matrix of basis images for unmapping
        self._transform = row_reduce(
            [[w.coeffs[i] for w in pw] for i in range(dst.r)], dst.p
        )[0]

    def map(self, el: FieldElement) -> FieldElement:
        if el.field is self.dst:
            return el
        if el.field is not self.src:
            raise FieldMismatch("element not in the source field")
        acc = self.dst.zero
        for c, pw in zip(el.coeffs, self._powers):
            if c:
                acc = acc + pw * c
        return acc

    def unmap(self, el: FieldElement) -> FieldElement:
        """Inverse of map; raises ValueError if el is not in the image.

        The embedding is injective, so every column of the basis-image
        matrix is a pivot and its reduced form is the identity over zero
        rows: el lies in the image exactly when the transformed rows past
        src.r vanish, and the first src.r rows are then its preimage."""
        if el.field is self.src:
            return el
        if el.field is not self.dst:
            raise FieldMismatch("element not in the destination field")
        p, r = self.src.p, self.src.r
        transformed = [
            sum(t * v for t, v in zip(row, el.coeffs)) % p for row in self._transform
        ]
        if any(transformed[r:]):
            raise ValueError("element does not lie in the subfield")
        return self.src.from_coeffs(transformed[:r])

    def map_poly(self, f: Poly) -> Poly:
        return f.map_coeffs(self.map, self.dst)

    def unmap_poly(self, f: Poly) -> Poly:
        return f.map_coeffs(self.unmap, self.src)


@lru_cache(maxsize=None)
def subfield_embedding(src: Field, dst: Field) -> SubfieldEmbedding:
    """GF(p^a) -> GF(p^b) for a | b, sending the generator of src to the
    first root, in `roots` order, of src's modulus in dst that agrees with
    every maximal proper subfield S of src: it maps subfield_embedding(S,
    src).root to subfield_embedding(S, dst).root.  So embeddings compose,
    (b -> c) o (a -> b) = (a -> c), as in a lattice of compatibly embedded
    fields (Bosma, Cannon & Steel 1997); for prime a the root is lex-least.
    """
    if src is dst:
        raise ValueError("trivial embedding; use the element directly")
    if src.p != dst.p or dst.r % src.r:
        raise FieldMismatch(f"no embedding {src} -> {dst}")
    if src.r == 1:
        return SubfieldEmbedding(src, dst, dst.one)
    subs = [
        field_create(src.p, src.r // ell) for ell in prime_factors(src.r) if ell < src.r
    ]
    for rt, _ in roots(Poly.from_ints(dst, src.modulus)):
        if all(
            Poly.from_ints(dst, subfield_embedding(S, src).root.coeffs).eval(rt)
            == subfield_embedding(S, dst).root
            for S in subs
        ):
            return SubfieldEmbedding(src, dst, rt)
    raise AssertionError("some root of the modulus agrees with every subfield")


def embed_element(el: FieldElement, dst: Field) -> FieldElement:
    """Convenience: embed el into dst (no-op if already there)."""
    if el.field is dst:
        return el
    return subfield_embedding(el.field, dst).map(el)
