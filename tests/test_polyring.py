"""Polynomial ring: division, roots, subfield embeddings.

Roots are checked against an exhaustive scan of the field, their
multiplicities against division by (x - a)^m, and the splitting at its
deepest on x^q - x, whose roots are the whole field.
"""

import itertools
import random

import pytest

from isogenion.errors import FieldMismatch
from isogenion.finite_field import field_create
from isogenion.polyring import (
    Poly,
    embed_element,
    multiplicity,
    poly_gcd,
    pow_mod,
    roots,
    subfield_embedding,
)


def _random_poly(F, deg, rng):
    cs = [F.from_coeffs([rng.randrange(F.p) for _ in range(F.r)]) for _ in range(deg)]
    return Poly(F, cs + [F.one])


# ---------------------------------------------------------------------------
# ring basics


def test_divmod_invariant_random():
    rng = random.Random(1)
    for p, r in [(41, 1), (7, 2)]:
        F = field_create(p, r)
        for _ in range(80):
            f = _random_poly(F, rng.randrange(1, 9), rng)
            g = _random_poly(F, rng.randrange(1, 6), rng)
            q, rem = divmod(f, g)
            assert q * g + rem == f
            assert rem.degree() < g.degree()


def test_eval_and_derivative():
    F = field_create(41)
    f = Poly.from_ints(F, [3, 0, 1, 2])  # 3 + x^2 + 2x^3
    assert f.eval(F.from_int(2)) == F.from_int((3 + 4 + 16) % 41)
    assert f.derivative() == Poly.from_ints(F, [0, 2, 6])
    assert Poly.from_ints(F, [5]).derivative().is_zero()


def test_from_roots_and_eval():
    F = field_create(53, 2)
    rng = random.Random(2)
    rts = [F.from_coeffs([rng.randrange(53), rng.randrange(53)]) for _ in range(4)]
    f = Poly.from_roots(F, rts)
    assert f.degree() == 4
    for r in rts:
        assert not f.eval(r)


def test_pow_mod_matches_naive():
    F = field_create(11)
    rng = random.Random(3)
    for _ in range(30):
        f = _random_poly(F, rng.randrange(1, 5), rng)
        m = _random_poly(F, rng.randrange(2, 5), rng)
        e = rng.randrange(0, 40)
        assert pow_mod(f, e, m) == (f**e) % m


def test_negative_exponents_are_refused():
    F = field_create(7)
    f = Poly.from_ints(F, [1, 1])
    with pytest.raises(ValueError, match="negative exponent"):
        f**-1
    with pytest.raises(ValueError, match="negative exponent"):
        pow_mod(f, -2, Poly.from_ints(F, [3, 0, 1]))


def test_gcd_properties():
    F = field_create(41)
    rng = random.Random(4)
    for _ in range(40):
        a = _random_poly(F, rng.randrange(1, 6), rng)
        b = _random_poly(F, rng.randrange(1, 6), rng)
        c = _random_poly(F, rng.randrange(1, 4), rng)
        g = poly_gcd(a * c, b * c)
        assert (a * c % g).is_zero() and (b * c % g).is_zero()
        assert (g % c.monic()).is_zero()  # c divides the gcd


def test_mixed_field_rejected():
    f = Poly.from_ints(field_create(5), [1, 1])
    g = Poly.from_ints(field_create(7), [1, 1])
    with pytest.raises(FieldMismatch):
        f * g


# ---------------------------------------------------------------------------
# roots


def test_roots_match_exhaustive_scan():
    rng = random.Random(10)
    for p, r in [(41, 1), (7, 2)]:
        F = field_create(p, r)
        for _ in range(25):
            f = _random_poly(F, rng.randrange(1, 6), rng)
            got = roots(f)
            brute = [a for a in F.elements() if not f.eval(a)]
            assert [a for a, _ in got] == brute  # both lex sorted
            for a, m in got:
                # multiplicity: (x - a)^m divides, (x - a)^(m+1) does not
                lin = Poly(F, [-a, F.one])
                assert (f % lin**m).is_zero()
                assert not (f % lin ** (m + 1)).is_zero()


@pytest.mark.parametrize("p, r", [(41, 1), (7, 2), (3, 3)])
def test_roots_of_the_whole_field(p, r):
    # x^q - x splits into all q linear factors: the deepest splitting
    F = field_create(p, r)
    f = Poly.x(F) ** F.order - Poly.x(F)
    assert roots(f) == [(a, 1) for a in F.elements()]


def test_roots_of_rootless():
    F = field_create(7)
    assert roots(Poly.from_ints(F, [1, 0, 1])) == []
    assert roots(Poly.from_ints(F, [3])) == []


@pytest.mark.parametrize("p, r", [(11, 2), (41, 1)])
def test_multiplicity_matches_roots(p, r):
    """multiplicity divides by (x - a) alone; roots splits gcd(x^q - x, f)
    first and counts only its roots. They agree on
    every element (0 off the roots), with repeated roots and a cofactor
    that may add roots of its own."""
    F = field_create(p, r)
    elements = list(F.elements())
    rng = random.Random(p * r)
    for _ in range(12):
        chosen = rng.sample(elements, 3)
        mults = [rng.randint(1, 4) for _ in chosen]
        f = Poly.from_roots(F, [a for a, k in zip(chosen, mults) for _ in range(k)])
        f = f * _random_poly(F, rng.randrange(0, 4), rng)
        found = dict(roots(f))
        assert all(found[a] >= k for a, k in zip(chosen, mults))
        for a in elements:
            assert multiplicity(f, a) == found.get(a, 0)


@pytest.mark.parametrize("p, r", [(11, 2), (41, 1)])
def test_multiplicity_of_a_pure_power(p, r):
    # k = p puts (x - a)^k in GF(q)[x^p], whose derivative is zero; roots
    # sees the one root of gcd(x^q - x, f) and counts it by division
    F = field_create(p, r)
    a = F.from_coeffs([3] + [1] * (r - 1))
    for k in (1, 2, 5, p, p + 2):
        f = Poly.from_roots(F, [a] * k)
        assert roots(f) == [(a, k)]
        assert multiplicity(f, a) == k
        assert multiplicity(f, a + F.one) == 0


def test_multiplicity_edge_cases():
    F = field_create(41)
    assert multiplicity(Poly.from_ints(F, [3]), F.zero) == 0
    with pytest.raises(ValueError):
        multiplicity(Poly(F, []), F.one)


def test_characteristic_two_is_refused():
    # the splitting raises (q - 1)/2 powers, so p = 2 is refused up front
    # instead of looping inside, with roots or without
    F = field_create(2)
    for f in (
        Poly.from_ints(F, [0, 1, 1]),  # x^2 + x = x (x + 1)
        Poly.from_ints(F, [1, 1, 1]),  # x^2 + x + 1, rootless
    ):
        with pytest.raises(ValueError, match="odd characteristic"):
            roots(f)
    with pytest.raises(ValueError, match="odd characteristic"):
        subfield_embedding(field_create(2, 2), field_create(2, 4))


# ---------------------------------------------------------------------------
# subfield embeddings


def test_embedding_prime_into_extension():
    F = field_create(53)
    G = field_create(53, 2)
    emb = subfield_embedding(F, G)
    for n in (0, 1, 5, 52):
        assert emb.map(F.from_int(n)) == G.from_int(n)
        assert emb.unmap(G.from_int(n)) == F.from_int(n)
    with pytest.raises(ValueError):
        emb.unmap(G.generator_x())


def test_embedding_is_ring_hom():
    rng = random.Random(11)
    F = field_create(7, 2)
    G = field_create(7, 4)
    emb = subfield_embedding(F, G)
    # the image of x must be a root of F's modulus inside G
    assert not Poly.from_ints(G, F.modulus).eval(emb.root)
    for _ in range(40):
        a = F.from_coeffs([rng.randrange(7), rng.randrange(7)])
        b = F.from_coeffs([rng.randrange(7), rng.randrange(7)])
        assert emb.map(a + b) == emb.map(a) + emb.map(b)
        assert emb.map(a * b) == emb.map(a) * emb.map(b)
        assert emb.unmap(emb.map(a)) == a
    assert emb.map(F.one) == G.one


def test_embedding_root_is_lex_least():
    F = field_create(7, 2)
    G = field_create(7, 4)
    emb = subfield_embedding(F, G)
    modulus = Poly.from_ints(G, F.modulus)
    brute_roots = sorted(a for a in G.elements() if not modulus.eval(a))
    assert len(brute_roots) == 2  # deg-2 modulus splits in the deg-4 extension
    assert emb.root == brute_roots[0]


@pytest.mark.parametrize("p", [5, 7])
def test_embeddings_compose(p):
    # (b -> c) o (a -> b) = (a -> c): the generator of GF(p^a) lands on the
    # same element of GF(p^c) by either route
    towers = [
        (a, b, c)
        for a, b, c in itertools.product(range(1, 13), repeat=3)
        if a < b < c and b % a == 0 and c % b == 0
    ]
    assert len(towers) == 16
    for a, b, c in towers:
        A, B, C = (field_create(p, d) for d in (a, b, c))
        via_b = subfield_embedding(B, C).map(subfield_embedding(A, B).root)
        assert via_b == subfield_embedding(A, C).root, (a, b, c)


def test_embedding_rejects_bad_pairs():
    with pytest.raises(FieldMismatch):
        subfield_embedding(field_create(7, 2), field_create(7, 3))
    with pytest.raises(FieldMismatch):
        subfield_embedding(field_create(5), field_create(7, 2))


def test_embed_element_convenience():
    F = field_create(5)
    G = field_create(5, 3)
    a = F.from_int(3)
    assert embed_element(a, G) == G.from_int(3)
    assert embed_element(a, F) is a


def test_embedding_cached():
    assert subfield_embedding(field_create(7, 2), field_create(7, 4)) is (
        subfield_embedding(field_create(7, 2), field_create(7, 4))
    )
