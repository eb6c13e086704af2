"""Tests for imaginary quadratic orders and two-generator ideal arithmetic.

Oracles: lattice membership by exact 2x2 linear algebra (for the multiplier
ring), an independent reduced-form enumeration (for class numbers), mpmath at
60 digits (for the norm-bound floor), and the basis-matrix determinant (for
norms).  The binding example is the conductor-4 order of Q(sqrt(-2)), whose
ideal table of 2-power norms is pinned row by row.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from isogenion.errors import (
    BoundExceeded,
    NotAnIdeal,
    NotImaginaryQuadratic,
    NotMaximalAtPrime,
    OrderMismatch,
)
from isogenion.intmath import (
    floor_two_over_pi_sqrt,
    kronecker,
    prime_factors,
    split_discriminant,
)
from isogenion.quadratic_order import (
    DISC_MAX,
    QuadIdeal,
    class_group,
    class_order,
    enumerate_ideals,
    ideal_conjugate,
    ideal_count_invertible,
    ideal_count_noninvertible,
    ideal_multiply,
    ideal_table,
    is_invertible,
    primes_above,
    quad_order,
    unit_ideal,
)

Z42 = quad_order(-8, 4)  # Z[4*sqrt(-2)], discriminant -128
D212 = quad_order(-212, 1)


def basis(I):
    """Row basis ((a*t, 0), (t*b, t)) of I over (1, f*gamma)."""
    return (I.a * I.t, 0), (I.t * I.b, I.t)


def in_lattice(I, x, y):
    """(x, y) in the row lattice ((at, 0), (tb, t)) by exact arithmetic."""
    (m, _), (c, t) = basis(I)
    if y % t:
        return False
    return (x - (y // t) * c) % m == 0


def multiplier_ring_is_order(I):
    """Brute multiplier-ring test: does f*gamma/ell stabilize I for some
    prime ell | f?  Checked through exact membership of the scaled products.
    """
    O = I.order
    rows = list(basis(I))
    for ell in prime_factors(O.f):
        stable = True
        for x, y in rows:
            # (f*gamma/ell) * (x + y*f*gamma), cleared of the 1/ell
            px = Fraction(-y * O.Nw, ell)
            py = Fraction(x + y * O.Tw, ell)
            if px.denominator != 1 or py.denominator != 1:
                stable = False
                break
            if not in_lattice(I, int(px), int(py)):
                stable = False
                break
        if stable:
            return False
    return True


class TestOrders:
    def test_generator_trace_and_norm(self):
        assert (Z42.Tw, Z42.Nw) == (0, 32)
        assert Z42.disc == -128
        O7 = quad_order(-7, 1)
        assert (O7.Tw, O7.Nw) == (1, 2)  # (1+sqrt(-7))/2 has norm 2
        assert quad_order(-11, 3).disc == -99

    def test_rejects_positive_and_non_fundamental(self):
        with pytest.raises(NotImaginaryQuadratic):
            quad_order(5, 1)
        with pytest.raises(ValueError):
            quad_order(-12, 1)  # -12 = 2**2 * -3 is not fundamental
        with pytest.raises(ValueError):
            quad_order(-9, 1)
        with pytest.raises(ValueError):
            quad_order(-8, 0)

    def test_order_from_disc(self):
        assert quad_order(*split_discriminant(-128)) == Z42
        assert quad_order(*split_discriminant(-212)) == quad_order(-212, 1)
        assert quad_order(*split_discriminant(-12)) == quad_order(-3, 2)
        assert quad_order(*split_discriminant(-36)) == quad_order(-4, 3)
        with pytest.raises(ValueError):
            split_discriminant(-5)  # 3 mod 4 is not a discriminant
        with pytest.raises(ValueError):
            split_discriminant(128)

    def test_element_norm_is_multiplicative(self):
        rng = random.Random(1)
        for _ in range(50):
            x1, y1, x2, y2 = (rng.randrange(-9, 10) for _ in range(4))
            # (x1 + y1 w)(x2 + y2 w) with w = f*gamma, w**2 = -Nw + Tw*w
            x3 = x1 * x2 - y1 * y2 * Z42.Nw
            y3 = x1 * y2 + x2 * y1 + y1 * y2 * Z42.Tw
            assert Z42.element_norm(x3, y3) == Z42.element_norm(
                x1, y1
            ) * Z42.element_norm(x2, y2)


class TestIdealBasics:
    def test_unit_ideal(self):
        U = unit_ideal(Z42)
        assert U.norm == 1
        assert is_invertible(U)
        assert ideal_multiply(U, U) == U

    def test_create_normalizes_b(self):
        assert QuadIdeal(Z42, 1, 4, 6) == QuadIdeal(Z42, 1, 4, 2)
        assert QuadIdeal(Z42, 1, 4, -2) == QuadIdeal(Z42, 1, 4, 2)

    def test_create_rejects_non_ideals(self):
        # N(1 + 4*sqrt(-2)) = 33 is odd, so Z*2 + Z*(1+4sqrt(-2)) is no ideal
        with pytest.raises(NotAnIdeal):
            QuadIdeal(Z42, 1, 2, 1)
        with pytest.raises(ValueError):
            QuadIdeal(Z42, 0, 2, 0)
        with pytest.raises(ValueError):
            QuadIdeal(Z42, 1, -2, 0)

    def test_norm_is_the_basis_determinant(self):
        for norm in (2, 4, 8, 16, 32, 36):
            for I in enumerate_ideals(Z42, norm):
                (m, z), (c, t) = basis(I)
                assert z == 0
                assert I.norm == abs(m * t - 0 * c) == norm

    def test_conjugation_is_an_involution(self):
        for norm in (2, 4, 8, 16, 32):
            for I in enumerate_ideals(Z42, norm):
                J = ideal_conjugate(I)
                assert J.norm == I.norm
                assert ideal_conjugate(J) == I


class TestExampleTable:
    """The 2-power ideal table of Z[4*sqrt(-2)], row by row."""

    def test_norm_2(self):
        ids = enumerate_ideals(Z42, 2)
        assert [(I.t, I.a, I.b) for I in ids] == [(1, 2, 0)]
        assert not is_invertible(ids[0])

    def test_norm_4(self):
        ids = enumerate_ideals(Z42, 4)
        inv = {(I.t, I.a, I.b) for I in ids if is_invertible(I)}
        non = {(I.t, I.a, I.b) for I in ids if not is_invertible(I)}
        assert inv == {(1, 4, 2), (2, 1, 0)}  # 4Z+(2+4sqrt(-2))Z and 2O
        assert non == {(1, 4, 0)}

    def test_norm_8(self):
        ids = enumerate_ideals(Z42, 8)
        assert not any(is_invertible(I) for I in ids)
        assert {(I.t, I.a, I.b) for I in ids} == {(1, 8, 0), (1, 8, 4), (2, 2, 0)}

    def test_norm_16(self):
        ids = enumerate_ideals(Z42, 16)
        inv = {(I.t, I.a, I.b) for I in ids if is_invertible(I)}
        non = {(I.t, I.a, I.b) for I in ids if not is_invertible(I)}
        assert inv == {(1, 16, 4), (1, 16, 12), (2, 4, 2), (4, 1, 0)}
        assert non == {(1, 16, 0), (1, 16, 8), (2, 4, 0)}

    def test_norm_32(self):
        ids = enumerate_ideals(Z42, 32)
        inv = {(I.t, I.a, I.b) for I in ids if is_invertible(I)}
        non = {(I.t, I.a, I.b) for I in ids if not is_invertible(I)}
        assert inv == {(1, 32, 0), (1, 32, 8), (1, 32, 16), (1, 32, 24)}
        assert non == {(2, 8, 0), (2, 8, 4), (4, 2, 0)}

    def test_counting_columns(self):
        assert [ideal_count_invertible(4, 2, n, -8) for n in range(1, 6)] == [
            0,
            2,
            0,
            4,
            4,
        ]
        assert [ideal_count_noninvertible(4, 2, n, -8) for n in range(1, 6)] == [
            1,
            1,
            3,
            3,
            3,
        ]

    def test_table_emitter_matches_and_serializes(self):
        rows = ideal_table(Z42, 2, 5)
        assert [r["norm"] for r in rows] == [2, 4, 8, 16, 32]
        for r in rows:
            assert len(r["invertible"]) == r["iG"]
            assert len(r["noninvertible"]) == r["niG"]
        assert rows[0]["noninvertible"] == ["2Z + 4wZ"]
        assert set(rows[1]["invertible"]) == {"4Z + (2+4w)Z", "2Z + 8wZ"}
        json.dumps(rows)  # layout must be JSON-clean


class TestInvertibility:
    def test_against_the_multiplier_ring_oracle(self):
        for norm in range(1, 65):
            for I in enumerate_ideals(Z42, norm):
                assert is_invertible(I) == multiplier_ring_is_order(I)
        O99 = quad_order(-11, 3)
        for norm in range(1, 40):
            for I in enumerate_ideals(O99, norm):
                assert is_invertible(I) == multiplier_ring_is_order(I)

    def test_maximal_orders_have_only_invertible_ideals(self):
        for norm in range(1, 40):
            for I in enumerate_ideals(D212, norm):
                assert is_invertible(I)


class TestMultiplication:
    def test_unit_is_neutral(self):
        U = unit_ideal(Z42)
        for norm in (2, 4, 8, 32):
            for I in enumerate_ideals(Z42, norm):
                assert ideal_multiply(I, U) == I
                assert ideal_multiply(U, I) == I

    def test_split_primes_multiply_to_ell(self):
        P1, P2 = primes_above(D212, 3)
        assert ideal_multiply(P1, P2) == QuadIdeal(D212, 3, 1, 0)
        assert ideal_conjugate(P1) == P2

    def test_conjugate_product_is_the_norm_when_invertible(self):
        for norm in (2, 3, 4, 6, 9):
            for I in enumerate_ideals(D212, norm):
                J = ideal_multiply(I, ideal_conjugate(I))
                assert J.a == 1 and J.b == 0 and J.t == norm

    def test_norm_multiplies_with_an_invertible_factor(self):
        rng = random.Random(7)
        pool_inv = [
            I
            for n in (2, 3, 4, 6, 9, 12)
            for I in enumerate_ideals(D212, n)
        ]
        for _ in range(60):
            I, J = rng.choice(pool_inv), rng.choice(pool_inv)
            assert ideal_multiply(I, J).norm == I.norm * J.norm

    def test_norm_can_drop_without_invertibility(self):
        P = QuadIdeal(Z42, 1, 2, 0)  # the non-invertible prime above 2
        sq = ideal_multiply(P, P)
        assert (sq.t, sq.a, sq.b) == (2, 2, 0)
        assert sq.norm == 8 != P.norm ** 2

    def test_commutative_and_associative(self):
        pool = [I for n in (2, 4, 8) for I in enumerate_ideals(Z42, n)]
        rng = random.Random(3)
        for _ in range(40):
            I, J, K = (rng.choice(pool) for _ in range(3))
            assert ideal_multiply(I, J) == ideal_multiply(J, I)
            left = ideal_multiply(ideal_multiply(I, J), K)
            right = ideal_multiply(I, ideal_multiply(J, K))
            assert left == right

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            ideal_multiply(unit_ideal(Z42), unit_ideal(quad_order(-8, 2)))


class TestPrimesAbove:
    def test_disc_212_trichotomy(self):
        assert len(primes_above(D212, 3)) == 2  # -212 is a square mod 3
        assert len(primes_above(D212, 2)) == 1  # even discriminant: ramified
        assert primes_above(D212, 7) == []

    def test_counts_follow_the_kronecker_symbol(self):
        for order in (D212, quad_order(-7, 1), quad_order(-8, 1), Z42):
            for ell in (2, 3, 5, 7, 11, 13):
                if order.f % ell == 0:
                    continue
                chi = kronecker(order.disc, ell)
                got = primes_above(order, ell)
                assert len(got) == (1 + chi if chi >= 0 else 0)
                for P in got:
                    assert P.norm == ell
                    assert is_invertible(P)

    def test_not_maximal_at_dividing_prime(self):
        with pytest.raises(NotMaximalAtPrime):
            primes_above(Z42, 2)
        with pytest.raises(ValueError):
            primes_above(D212, 6)


def form_count_oracle(disc):
    """Class number by a b-first sweep over reduced primitive forms."""
    h = 0
    b = disc % 2
    while b * b <= -disc // 3:
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if gcd(gcd(a, b), c) == 1:
                    h += 1
                    if 0 < b < a < c:
                        h += 1  # the (a, -b, c) partner
            a += 1
        b += 2
    return h


class TestClassGroups:
    def test_disc_212_has_six_classes(self):
        cg = class_group(D212)
        assert cg.h == 6
        assert len(set(cg.representatives)) == 6
        for I in cg.representatives:
            assert is_invertible(I)

    def test_small_anchors(self):
        assert class_group(quad_order(-4, 1)).h == 1
        assert class_group(quad_order(-3, 1)).h == 1
        assert class_group(quad_order(-23, 1)).h == 3
        assert class_group(Z42).h == 4

    @pytest.mark.parametrize(
        "disc", [-4, -3, -23, -128, -212, -56, -84, -99, -400, -1000, -2048]
    )
    def test_against_the_form_counting_oracle(self, disc):
        assert class_group(quad_order(*split_discriminant(disc))).h == form_count_oracle(disc)

    def test_every_class_has_a_small_representative(self):
        for disc in (-4, -23, -128, -212, -400, -996):
            order = quad_order(*split_discriminant(disc))
            bound = floor_two_over_pi_sqrt(-order.disc)
            for I in class_group(order).representatives:
                assert I.norm <= bound

    def test_cap(self):
        with pytest.raises(BoundExceeded):
            class_group(quad_order(-8, 360))  # |disc| = 1036800

    def test_class_orders_in_disc_212(self):
        # h = 6 forces the cyclic group, so element orders are 1,2,3,3,6,6
        cg = class_group(D212)
        assert sorted(class_order(I) for I in cg.representatives) == [1, 2, 3, 3, 6, 6]
        assert sum(1 for I in cg.representatives if class_order(I) == 1) == 1

    def test_class_order_of_split_primes(self):
        P1, P2 = primes_above(D212, 3)
        assert class_order(P1) == class_order(P2)
        assert class_order(P1) != 1

    def test_class_arithmetic_needs_invertible_ideals(self):
        P = QuadIdeal(Z42, 1, 2, 0)
        with pytest.raises(ValueError):
            class_order(P)


class TestMinkowskiBound:
    def test_anchors(self):
        assert floor_two_over_pi_sqrt(-D212.disc) == 9
        assert floor_two_over_pi_sqrt(-quad_order(-4, 1).disc) == 1
        assert floor_two_over_pi_sqrt(-Z42.disc) == 7

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        rng = random.Random(11)
        xs = [4, 8, 128, 212, 999999, 10**6]
        xs += [rng.randrange(3, 10**6) for _ in range(60)]
        for x in xs:
            expected = int(mp.floor(2 * mp.sqrt(x) / mp.pi))
            assert floor_two_over_pi_sqrt(x) == expected


class TestCountingFormulas:
    def test_n_zero_conventions(self):
        assert ideal_count_invertible(4, 2, 0, -8) == 1
        assert ideal_count_noninvertible(4, 2, 0, -8) == 0

    def test_maximal_at_ell_column(self):
        # split: n+1; inert: parity; ramified: 1
        assert ideal_count_invertible(1, 3, 4, -11) == 5  # (-11/3) = 1
        assert ideal_count_invertible(1, 3, 3, -7) == 0  # (-7/3) = -1
        assert ideal_count_invertible(1, 3, 4, -7) == 1
        assert ideal_count_invertible(1, 2, 5, -8) == 1  # ramified at 2

    def test_formula_matches_enumeration_exhaustively(self):
        for D0 in (-3, -4, -7, -8, -11):
            for f in range(1, 65):
                order = quad_order(D0, f)
                for ell in (2, 3, 5):
                    for n in range(0, 7):
                        ids = enumerate_ideals(order, ell**n)
                        inv = sum(1 for I in ids if is_invertible(I))
                        assert inv == ideal_count_invertible(f, ell, n, D0), (
                            D0,
                            f,
                            ell,
                            n,
                        )
                        assert len(ids) - inv == ideal_count_noninvertible(
                            f, ell, n, D0
                        ), (D0, f, ell, n)


class TestEnumeration:
    def test_norm_one(self):
        assert enumerate_ideals(Z42, 1) == [unit_ideal(Z42)]

    def test_cap_and_validation(self):
        with pytest.raises(BoundExceeded):
            enumerate_ideals(Z42, DISC_MAX + 1)
        with pytest.raises(ValueError):
            enumerate_ideals(Z42, 0)

    @given(
        t=st.integers(min_value=1, max_value=4),
        ab=st.sampled_from(
            [
                (a, b)
                for a in range(1, 61)
                for b in range(a)
                if Z42.element_norm(b, 1) % a == 0
            ]
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_valid_triple_is_enumerated(self, t, ab):
        a, b = ab
        I = QuadIdeal(Z42, t, a, b)
        assert I in enumerate_ideals(Z42, t * t * a)
