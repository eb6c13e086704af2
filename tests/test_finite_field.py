"""GF(p^r) construction and arithmetic.

Oracles used here, deliberately written from scratch so they share no code
with the implementation:

* modulus choice -- brute enumeration of monic polynomials in lex order,
  testing irreducibility by trying every factorization into smaller monics;
* multiplication -- schoolbook convolution followed by long division;
* sqrt -- exhaustive squaring tables;
* the packed kernel -- the residue-by-residue product, extended-Euclid
  inverse, Frobenius table and Euler criterion it replaced, kept in
  `oracles`.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogenion.errors import BoundExceeded, DivisionByZero, FieldMismatch, NotPrime
from isogenion.finite_field import (
    Field,
    _is_irreducible,
    field_create,
    sqrt,
)
from oracles import (
    deadline,
    euclid_inverse,
    euler_is_square,
    scan_least_nonresidue,
    schoolbook_mul,
    table_frobenius,
)

# ---------------------------------------------------------------------------
# oracles


def _poly_mul_mod_p(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_divmod_mod_p(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    quot = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and any(f):
        shift = len(f) - 1 - dg
        c = f[-1] * inv % p
        if c:
            quot[shift] = c
            for i in range(dg + 1):
                f[shift + i] = (f[shift + i] - c * g[i]) % p
        while f and f[-1] == 0:
            f.pop()
        if not f:
            break
    while f and f[-1] == 0:
        f.pop()
    return quot, f


def _brute_irreducible(f, p):
    """Irreducibility by trying every monic divisor of smaller degree."""
    deg = len(f) - 1
    for d in range(1, deg):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            _, rem = _poly_divmod_mod_p(f, g, p)
            if not rem:
                return False
    return True


def _brute_least_modulus(p, r):
    for tup in itertools.product(range(p), repeat=r):
        f = list(tup) + [1]
        if _brute_irreducible(f, p):
            return tuple(f)
    raise AssertionError


# ---------------------------------------------------------------------------
# field construction


def test_prime_field_modulus_is_x():
    F = field_create(41)
    assert F.modulus == (0, 1)
    assert F.order == 41 and F.p == 41 and F.r == 1


@pytest.mark.parametrize("p,r", [(53, 2), (7, 3), (3, 3), (2, 4), (5, 2)])
def test_modulus_is_lex_least_irreducible(p, r):
    assert field_create(p, r).modulus == _brute_least_modulus(p, r)


@pytest.mark.parametrize(
    "p,degrees", [(2, range(2, 7)), (3, range(2, 5)), (5, (2, 3)), (7, (2, 3))]
)
def test_irreducibility_test_matches_trial_division(p, degrees):
    # every monic f, squares such as (x + 1)^4 and multiples of x included
    for d in degrees:
        for tail in itertools.product(range(p), repeat=d):
            f = [*tail, 1]
            assert _is_irreducible(f, p) == _brute_irreducible(f, p), f


def test_field_create_is_cached_singleton():
    assert field_create(41, 1) is field_create(41, 1)
    assert field_create(53, 2) is field_create(53, 2)


def test_field_create_validation():
    with pytest.raises(NotPrime):
        field_create(42)
    with pytest.raises(BoundExceeded):
        field_create(2**16 + 1)  # 65537 is prime but over the cap
    with pytest.raises(BoundExceeded):
        field_create(2, 25)
    with pytest.raises(ValueError):
        field_create(5, 0)
    with pytest.raises(ValueError):
        field_create(5.0, 1)


def test_elements_lex_order_and_count():
    F = field_create(3, 2)
    els = list(F.elements())
    assert len(els) == 9
    assert els == sorted(els)
    assert len(set(els)) == 9


# ---------------------------------------------------------------------------
# arithmetic


def test_x_times_x_matches_long_division_oracle():
    F = field_create(53, 2)
    x = F.generator_x()
    prod = x * x
    _, rem = _poly_divmod_mod_p(_poly_mul_mod_p([0, 1], [0, 1], 53), F.modulus, 53)
    rem += [0] * (2 - len(rem))
    assert prod.coeffs == tuple(rem)


def test_mul_matches_oracle_random():
    rng = random.Random(3)
    for p, r in [(5, 3), (53, 2), (2, 4), (7, 4)]:
        F = field_create(p, r)
        for _ in range(60):
            a = F.from_coeffs([rng.randrange(p) for _ in range(r)])
            b = F.from_coeffs([rng.randrange(p) for _ in range(r)])
            raw = _poly_mul_mod_p(list(a.coeffs), list(b.coeffs), p)
            _, rem = _poly_divmod_mod_p(raw, F.modulus, p)
            rem += [0] * (r - len(rem))
            assert (a * b).coeffs == tuple(rem)


def test_division_and_zero():
    F = field_create(53, 2)
    a = F.from_coeffs([7, 11])
    assert a / a == F.one
    assert a * a.inverse() == F.one
    with pytest.raises(DivisionByZero):
        a / F.zero
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


def test_arith_rejects_mixed_fields():
    a = field_create(5).from_int(2)
    b = field_create(7).from_int(2)
    with pytest.raises(FieldMismatch):
        a + b


def test_field_axioms_bulk_random():
    # high-volume plain-random sweep (cheap sanity net for the axioms)
    for p, r in [(41, 1), (7, 2)]:
        F = field_create(p, r)
        rng = random.Random(p * 100 + r)
        draw = lambda: F.from_coeffs([rng.randrange(p) for _ in range(r)])
        for _ in range(10_000):
            a, b, c = draw(), draw(), draw()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * a.inverse() == F.one


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 53**2 - 1), st.integers(0, 53**2 - 1))
def test_field_ops_commute_gf2809(na, nb):
    F = field_create(53, 2)
    a = F.from_coeffs([na % 53, na // 53])
    b = F.from_coeffs([nb % 53, nb // 53])
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)


def test_pow_and_fermat():
    for p, r in [(41, 1), (53, 2), (3, 4)]:
        F = field_create(p, r)
        q = F.order
        rng = random.Random(q)
        for _ in range(40):
            a = F.from_coeffs([rng.randrange(p) for _ in range(r)])
            assert a**q == a
            if a:
                assert a ** (q - 1) == F.one
                assert a**-1 == a.inverse()


def test_int_coercion_in_operators():
    F = field_create(41)
    a = F.from_int(5)
    assert a + 1 == F.from_int(6)
    assert 2 * a == F.from_int(10)
    assert 1 / a == a.inverse()
    assert a - 41 == a


# ---------------------------------------------------------------------------
# square roots


def test_sqrt_frozen_values_gf41():
    F = field_create(41)
    # oracle first: exhaustive search
    roots_of_2 = sorted(x for x in range(41) if x * x % 41 == 2)
    assert roots_of_2 == [17, 24]
    got = sqrt(F.from_int(2))
    assert got == (F.from_int(17), F.from_int(24))
    assert sqrt(F.zero) == (F.zero, F.zero)


def test_sqrt_nonresidue_gf7():
    F = field_create(7)
    assert all(x * x % 7 != 3 for x in range(7))  # oracle
    assert sqrt(F.from_int(3)) is None


@pytest.mark.parametrize("p,r", [(41, 1), (7, 2), (3, 4), (11, 2), (31, 2)])
def test_sqrt_exhaustive_fields(p, r):
    """Every element: sqrt agrees with the full squaring table of a field
    small enough to tabulate."""
    F = field_create(p, r)
    squares = {}
    for el in F.elements():
        squares.setdefault(el * el, []).append(el)
    count = 0
    for el in F.elements():
        got = sqrt(el)
        if el in squares:
            count += 1
            lo, hi = sorted(squares[el])[0], sorted(squares[el])[-1]
            assert got == (lo, hi)
            assert got[0] * got[0] == el
        else:
            assert got is None
    assert count == (F.order + 1) // 2  # 0 plus half the units


@pytest.mark.parametrize("p,r", [(1031, 1), (53, 2), (41, 3)])
def test_sqrt_tonelli_shanks_fields(p, r):
    """Fields too big to tabulate: 120 random samples, each checked against
    Euler's criterion and by squaring the roots."""
    F = field_create(p, r)
    assert F.order > 2**10
    rng = random.Random(F.order)
    seen_square = seen_nonsquare = 0
    for _ in range(120):
        a = F.from_coeffs([rng.randrange(p) for _ in range(r)])
        got = sqrt(a)
        if a and a ** ((F.order - 1) // 2) != F.one:
            assert got is None
            seen_nonsquare += 1
        else:
            s, t = got
            assert s * s == a and t * t == a
            assert s <= t and {s, t} == {s, -s}
            seen_square += 1
    assert seen_square and seen_nonsquare


def test_sqrt_characteristic_two():
    F = field_create(2, 4)
    for el in F.elements():
        s, t = sqrt(el)
        assert s == t and s * s == el  # squaring is a bijection in char 2


def test_star_import_matches_all():
    """Every name in __all__ exists, so `import *` works."""
    import isogenion.finite_field as ff

    assert all(hasattr(ff, name) for name in ff.__all__)
    namespace = {}
    exec("from isogenion.finite_field import *", namespace)
    assert set(ff.__all__) <= set(namespace)


def test_is_square_matches_sqrt():
    F = field_create(53, 2)
    rng = random.Random(9)
    for _ in range(100):
        a = F.from_coeffs([rng.randrange(53), rng.randrange(53)])
        assert a.is_square() == (sqrt(a) is not None)


# ---------------------------------------------------------------------------
# frobenius


def test_frobenius_identity_on_prime_field():
    F = field_create(41)
    assert all(F.frobenius(a) == a for a in F.elements())


def test_frobenius_gf53sq():
    F = field_create(53, 2)
    x = F.generator_x()
    # oracle: manual square-and-multiply for x^53
    acc = F.one
    for bit in bin(53)[2:]:
        acc = acc * acc
        if bit == "1":
            acc = acc * x
    assert F.frobenius(x) == acc
    rng = random.Random(17)
    for _ in range(50):
        a = F.from_coeffs([rng.randrange(53), rng.randrange(53)])
        b = F.from_coeffs([rng.randrange(53), rng.randrange(53)])
        assert F.frobenius(F.frobenius(a)) == a
        assert F.frobenius(a * b) == F.frobenius(a) * F.frobenius(b)
        assert F.frobenius(a + b) == F.frobenius(a) + F.frobenius(b)
        assert F.frobenius(a) == a**53


@pytest.mark.parametrize(
    "p,r,ks,samples",
    [(5, 4, range(5), 30), (41, 24, (2, 13, 23), 3)],
    ids=["p5-r4", "p41-r24"],
)
def test_frobenius_power_table(p, r, ks, samples):
    F = field_create(p, r)
    rng = random.Random(23)
    for _ in range(samples):
        a = F.from_coeffs([rng.randrange(p) for _ in range(r)])
        for k in ks:
            assert F.frobenius(a, k) == a ** (p**k)
    assert F.frobenius(F.generator_x(), r) == F.generator_x()


# ---------------------------------------------------------------------------
# misc element protocol


def test_lift_round_trip():
    F = field_create(7, 3)
    a = F.from_coeffs([3, 0, 5])
    assert a.lift() == (3, 0, 5)
    assert F.from_coeffs(a.lift()) == a
    c = F.from_int(6)
    assert c.lift_int() == 6
    with pytest.raises(ValueError):
        F.generator_x().lift_int()


def test_lex_ordering():
    F = field_create(5, 2)
    a = F.from_coeffs([1, 2])
    b = F.from_coeffs([2, 1])
    assert (a < b) == ((1, 2) < (2, 1))
    assert sorted([b, a]) == [a, b]


# ---------------------------------------------------------------------------
# the packed kernel against the schoolbook oracles

# (p, r, slot bits): every slot width, and both sides of each switch, which
# falls where (2r - 1)(p - 1)^2 reaches 2^16 or 2^32
# (slot widths bound only the packed product at r >= 3 and `frobenius`);
# the r = 2 rows run the closed-form product and norm from p = 3 to near 2^16
KERNEL_FIELDS = [
    (2, 8, 16),
    (3, 2, 16),
    (3, 5, 16),
    (5, 2, 16),
    (11, 2, 16),
    (41, 20, 16),
    (41, 21, 32),
    (37831, 2, 32),
    (37847, 2, 64),
    (65521, 2, 64),
    (65521, 24, 64),
]


def _kernel_operands(F, count, seed):
    """Seeded random operands, then the all-(p - 1) vector, which sets every
    carry bound, and its neighbours with one residue dropped to 0."""
    p, r = F.p, F.r
    rng = random.Random(seed)
    out = [F.from_coeffs([rng.randrange(p) for _ in range(r)]) for _ in range(count)]
    worst = [p - 1] * r
    out.append(F.from_coeffs(worst))
    out += [F.from_coeffs(worst[:i] + [0] + worst[i + 1:]) for i in (0, r - 1)]
    return out


@pytest.mark.parametrize("p,r,bits", KERNEL_FIELDS, ids=lambda v: str(v))
def test_slot_width_is_least_above_fold_bound(p, r, bits):
    F = field_create(p, r)
    assert F._packer.size == r * bits // 8
    assert (2 * r - 1) * (p - 1) ** 2 < 2**bits
    assert bits == 16 or (2 * r - 1) * (p - 1) ** 2 >= 2 ** (bits // 2)


@pytest.mark.parametrize("p,r,bits", KERNEL_FIELDS, ids=lambda v: str(v))
def test_packed_product_matches_schoolbook(p, r, bits):
    F = field_create(p, r)
    ops = _kernel_operands(F, 12, seed=p * 100 + r)
    for a in ops:
        for b in ops:
            assert (a * b).coeffs == schoolbook_mul(F, a.coeffs, b.coeffs)
    rng = random.Random(r)
    for a in ops:
        for c in (0, 1, 2, 3, p - 1, -1, -p - 2, rng.getrandbits(80)):
            scaled = schoolbook_mul(F, F.from_int(c).coeffs, a.coeffs)
            assert (c * a).coeffs == (a * c).coeffs == scaled


@pytest.mark.parametrize("p,r,bits", KERNEL_FIELDS, ids=lambda v: str(v))
def test_norm_inverse_matches_extended_euclid(p, r, bits):
    F = field_create(p, r)
    for a in _kernel_operands(F, 12, seed=p + r):
        if not a:
            continue
        inv = a.inverse()
        assert inv.coeffs == euclid_inverse(F, a.coeffs)
        assert a * inv == F.one


@pytest.mark.parametrize("p,r,bits", KERNEL_FIELDS, ids=lambda v: str(v))
def test_packed_frobenius_matches_table_for_every_k(p, r, bits):
    F = field_create(p, r)
    for a in _kernel_operands(F, 3, seed=7 * p + r):
        for k in range(-1, r + 1):
            assert F.frobenius(a, k).coeffs == table_frobenius(F, a.coeffs, k % r)


@pytest.mark.parametrize("p,r,bits", KERNEL_FIELDS, ids=lambda v: str(v))
def test_norm_square_test_matches_euler(p, r, bits):
    F = field_create(p, r)
    ops = _kernel_operands(F, 10, seed=3 * p + r)
    ops += [a * a for a in ops[:4]] + [F.zero, F.one]
    seen = set()
    for a in ops:
        got = a.is_square()
        assert got == euler_is_square(F, a.coeffs)
        seen.add(got)
    assert seen == {True} if p == 2 else seen == {True, False}


# r = 1 fields beside the packed ones: their raw residues are plain ints
RAW_FIELDS = [(41, 1, 64), (65521, 1, 64)] + KERNEL_FIELDS


@pytest.mark.parametrize("p,r,bits", RAW_FIELDS, ids=lambda v: str(v))
def test_raw_ops_match_the_oracles(p, r, bits):
    F = field_create(p, r)
    zero, add, sub, mul, inv = F.raw_ops
    assert F.wrap(zero) == F.zero
    ops = _kernel_operands(F, 10, seed=5 * p + r)
    for a in ops:
        ra = F.unwrap(a)
        assert F.wrap(ra) == a
        for b in ops:
            rb = F.unwrap(b)
            assert F.wrap(mul(ra, rb)).coeffs == schoolbook_mul(F, a.coeffs, b.coeffs)
            assert F.wrap(add(ra, rb)) == a + b
            assert F.wrap(sub(ra, rb)) == a - b
        if a:
            assert F.wrap(inv(ra)).coeffs == euclid_inverse(F, a.coeffs)


# ---------------------------------------------------------------------------
# the closed forms at r = 2 against the packed kernel


@pytest.mark.parametrize(
    "p,f",
    [(3, None), (5, None), (11, None), (37831, None), (37847, None), (65521, None),
     (2, (0, 0, 1)), (3, (0, 0, 1)), (5, (2, 2, 1)), (7, (2, 4, 1)), (65521, (2, 65518, 1))],
    ids=lambda v: "lex-least" if v is None else str(v),
)
def test_quadratic_product_matches_packed_kernel(p, f):
    """The r = 2 product against `_mul_packed` and the schoolbook product, in
    the canonical field and in reducible rings (x^2 and (x - 1)(x - 2)):
    `_is_irreducible` multiplies in GF(p)[x]/(f) for any monic f."""
    ring = Field(p, 2, f or field_create(p, 2).modulus)
    mul = ring.raw_ops[3]
    ops = [a.coeffs for a in _kernel_operands(ring, 8, seed=11 * p)]
    for a in ops:
        for b in ops:
            assert mul(a, b) == ring._mul_packed(a, b) == schoolbook_mul(ring, a, b)
            assert ring.wrap(a) * ring.wrap(b) == ring.wrap(mul(a, b))


# ---------------------------------------------------------------------------
# the least non-residue against the plain lex scan


@pytest.mark.parametrize(
    "p,r",
    [(3, 1), (65521, 1), (3, 2), (11, 2), (65521, 2), (5, 3), (3, 5), (7, 4),
     (41, 6), (65521, 24)],
)
def test_least_nonresidue_matches_the_scan(p, r):
    # a fresh field, so neither side reads the other's cached answer
    modulus = field_create(p, r).modulus
    with deadline(2):  # the plain scan takes over 10 s on GF(65521^24)
        got = Field(p, r, modulus).least_nonresidue()
    assert got.coeffs == scan_least_nonresidue(Field(p, r, modulus)).coeffs
