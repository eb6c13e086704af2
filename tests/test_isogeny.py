"""Tests for Velu quotients, duals, composition, and modular polynomials.

The main oracle is the translate-and-sum form of a separable quotient map,

    phi(P) = ( x(P) + sum_T [x(P+T) - x(T)],  y(P) + sum_T [y(P+T) - y(T)] )

over the nonzero kernel points T, which is computed here with nothing but
point addition and so certifies the closed-form curve/map formulas
independently.  Counting oracles for stable subgroups come from division
polynomials (degree <= 4, stated explicitly) and from brute enumeration of
P^1(Z/m) inside a certified torsion basis.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import isogenion

from isogenion.errors import (
    BoundExceeded,
    ClassMismatch,
    CurveMismatch,
    FieldMismatch,
    NotRational,
    UnsupportedLevel,
    WrongOrder,
)
from isogenion.finite_field import field_create, sqrt as field_sqrt
from isogenion.polyring import Poly, roots, subfield_embedding
from isogenion.elliptic_curve import (
    Curve,
    base_change,
    count_points,
    curve_class,
    curve_from_j,
    divide_point,
    embed_point,
    frobenius_endo,
    j_invariant,
    point_add,
    point_log,
    point_order,
    scalar_mul,
    sylow_basis,
    torsion_basis,
    torsion_degree,
    twist_classes,
    two_dim_dlog,
)
from isogenion.isogeny import (
    Isogeny,
    ModularPolynomial,
    compose,
    cyclic_isogenies,
    dual,
    evaluate,
    frobenius_isogeny,
    modular_polynomial,
    multiplication_isogeny,
    stable_cyclic_subgroups,
    velu,
)
from isogenion.minimal_degree import rB
from oracles import prime_by_prime_order

F41 = field_create(41, 1)


@pytest.fixture(scope="module")
def e29():
    return curve_from_j(F41, F41.from_int(29), 6)


def pointwise_image(gen, order, P):
    """Translate-and-sum oracle for the quotient by <gen>, or None at the
    kernel."""
    EK = P.curve
    T = embed_point(gen, EK)
    X, Y = P.x, P.y
    W = T
    for _ in range(order - 1):
        if P.x == W.x:
            return None
        S = point_add(P, W)
        X = X + S.x - W.x
        Y = Y + S.y - W.y
        W = point_add(W, T)
    return X, Y


def kernel_poly_of_point(E, T, m):
    """prod (x - x(iT)) over i = 1..m-1, coefficients unmapped to E's field."""
    K = T.curve.field
    xs = []
    W = T
    for _ in range(m - 1):
        xs.append(W.x)
        W = point_add(W, T)
    FK = Poly.from_roots(K, xs)
    if K is E.field:
        return FK
    return subfield_embedding(E.field, K).unmap_poly(FK)


# ---------------------------------------------------------------------------
# modular polynomials


class TestModularPolynomial:
    def test_level_two_matches_the_classical_table(self):
        # X^3 + Y^3 - X^2Y^2 + 1488(X^2Y + XY^2) - 162000(X^2 + Y^2)
        #   + 40773375XY + 8748000000(X + Y) - 157464000000000
        phi = modular_polynomial(2)
        expected = {
            (3, 0): 1,
            (0, 3): 1,
            (2, 2): -1,
            (2, 1): 1488,
            (1, 2): 1488,
            (2, 0): -162000,
            (0, 2): -162000,
            (1, 1): 40773375,
            (1, 0): 8748000000,
            (0, 1): 8748000000,
            (0, 0): -157464000000000,
        }
        assert phi.coeffs == expected

    def test_level_three_spot_coefficients(self):
        phi = modular_polynomial(3)
        assert phi.coeffs[(4, 0)] == 1
        assert phi.coeffs[(3, 3)] == -1
        assert phi.coeffs[(3, 2)] == 2232
        assert phi.coeffs[(3, 1)] == -1069956
        assert phi.coeffs[(3, 0)] == 36864000
        assert phi.coeffs[(2, 2)] == 2587918086
        assert phi.coeffs[(2, 1)] == 8900222976000
        assert phi.coeffs[(2, 0)] == 452984832000000
        assert phi.coeffs[(1, 1)] == -770845966336000000
        assert phi.coeffs[(1, 0)] == 1855425871872000000000

    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_symmetric_with_degree_ell_plus_one(self, ell):
        phi = modular_polynomial(ell)
        assert max(i for i, _ in phi.coeffs) == ell + 1
        assert max(j for _, j in phi.coeffs) == ell + 1
        assert phi.coeffs[(ell + 1, 0)] == 1
        for (i, j), c in phi.coeffs.items():
            assert phi.coeffs[(j, i)] == c

    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_kronecker_congruence(self, ell):
        # Phi_ell(X, Y) = (X^ell - Y)(X - Y^ell) mod ell
        phi = modular_polynomial(ell)
        kron = {(ell + 1, 0): 1, (ell, ell): -1, (1, 1): -1, (0, ell + 1): 1}
        keys = set(phi.coeffs) | set(kron)
        for key in keys:
            assert (phi.coeffs.get(key, 0) - kron.get(key, 0)) % ell == 0

    @pytest.mark.parametrize("level", [1, 4, 6, 11, 13])
    def test_unsupported_levels(self, level):
        with pytest.raises(UnsupportedLevel):
            modular_polynomial(level)

    def test_adjacency_on_the_41_examples(self):
        j29 = F41.from_int(29)
        phi2, phi3 = modular_polynomial(2), modular_polynomial(3)
        assert not phi2.univariate(j29).eval(F41.from_int(5))
        assert not phi3.univariate(j29).eval(F41.from_int(22))
        # j=25 sits on the other branch: not 2-adjacent to 29
        assert phi2.univariate(j29).eval(F41.from_int(25))
        assert phi3.univariate(j29).eval(F41.from_int(5))

    def test_mixed_fields_are_rejected(self):
        with pytest.raises(FieldMismatch):
            modular_polynomial(2).univariate(F41.from_int(3)).eval(
                field_create(43, 1).from_int(3)
            )

    @pytest.mark.parametrize("p,r", [(41, 1), (7, 2)])
    def test_univariate_agrees_with_evaluate(self, p, r):
        F = field_create(p, r)
        rng = random.Random(20 * p + r)
        phi = modular_polynomial(3)
        for _ in range(25):
            a = F.from_coeffs([rng.randrange(p) for _ in range(r)])
            b = F.from_coeffs([rng.randrange(p) for _ in range(r)])
            direct = F.zero
            for (i, j), c in phi.coeffs.items():
                direct = direct + a**i * b**j * c
            assert phi.univariate(a).eval(b) == direct


# ---------------------------------------------------------------------------
# Velu construction


class TestVelu:
    def test_order_one_is_the_identity(self, e29):
        phi = velu(e29, None, 1)
        assert phi.degree == 1 and phi.insep_exp == 0
        assert phi.source_curve == e29 and phi.target_curve == e29
        assert phi.kernel_gen is None
        assert phi.kernel_polynomial() == Poly.from_ints(F41, [1])
        rng = random.Random(0)
        P = e29.random_point(rng)
        assert evaluate(phi, P) == P
        xn, xd, yn, yd = phi.rational_maps
        assert (xn, xd, yn, yd) == (
            Poly.x(F41),
            Poly.from_ints(F41, [1]),
            Poly.from_ints(F41, [1]),
            Poly.from_ints(F41, [1]),
        )

    def test_two_isogeny_up_to_the_surface(self, e29):
        targets = {
            j_invariant(velu(e29, g, 2).target_curve).lift_int()
            for g in stable_cyclic_subgroups(e29, 2)
        }
        assert 5 in targets

    def test_three_isogeny_lands_on_22(self, e29):
        gens = stable_cyclic_subgroups(e29, 3)
        assert len(gens) == 2
        for g in gens:
            phi = velu(e29, g, 3)
            assert j_invariant(phi.target_curve) == F41.from_int(22)
            assert phi.target_curve.trace == e29.trace

    @pytest.mark.parametrize("order", [2, 3, 4, 9])
    def test_against_the_translate_and_sum_oracle(self, e29, order):
        gens = stable_cyclic_subgroups(e29, *_pp(order))
        assert gens, f"expected stable subgroups of order {order}"
        for gen in gens:
            phi = velu(e29, gen, order)
            assert phi.degree == order
            assert phi.target_curve.trace == e29.trace
            s_min = gen.curve.field.r
            for s in (s_min, 2 * s_min):
                EK = base_change(e29, s)
                rng = random.Random(order * 100 + s)
                checked = 0
                while checked < 25:
                    P = EK.random_point(rng)
                    expected = pointwise_image(gen, order, P)
                    got = evaluate(phi, P)
                    if expected is None:
                        assert not got
                        continue
                    assert got and (got.x, got.y) == expected
                    checked += 1

    def test_generator_over_larger_extension_gives_the_same_map(self, e29):
        gen = stable_cyclic_subgroups(e29, 2)[0]
        lifted = embed_point(gen, base_change(e29, 3))
        phi = velu(e29, gen, 2)
        psi = velu(e29, lifted, 2)
        assert phi == psi
        assert phi.target_curve == psi.target_curve

    def test_wrong_order_is_rejected(self, e29):
        g2 = stable_cyclic_subgroups(e29, 2)[0]
        with pytest.raises(WrongOrder):
            velu(e29, g2, 4)
        with pytest.raises(WrongOrder):
            velu(e29, g2, 3)
        with pytest.raises(WrongOrder):
            velu(e29, e29.infinity(), 2)

    def test_characteristic_divides_order_is_rejected(self, e29):
        g2 = stable_cyclic_subgroups(e29, 2)[0]
        with pytest.raises(ValueError):
            velu(e29, g2, 41)

    def test_kernel_order_cap(self, e29):
        with pytest.raises(BoundExceeded):
            velu(e29, stable_cyclic_subgroups(e29, 2)[0], 128)

    def test_unstable_kernel_raises_not_rational(self, e29):
        # x^2 - 6x + 41 has no roots mod 5, so no 5-kernel is stable
        P, _, _ = torsion_basis(e29, 5)
        with pytest.raises(NotRational):
            velu(e29, P, 5)
        assert stable_cyclic_subgroups(e29, 5) == []

    def test_kernel_maps_to_infinity_and_homomorphism(self, e29):
        gen = next(
            g
            for g in stable_cyclic_subgroups(e29, 2)
            if j_invariant(velu(e29, g, 2).target_curve) == F41.from_int(5)
        )
        phi = velu(e29, gen, 2)
        pts = [e29.infinity()]
        for xi in range(41):
            x = F41.from_int(xi)
            fx = e29.rhs(x)
            if fx.is_square():
                lo, hi = field_sqrt(fx)
                pts.append(e29.point(x, lo))
                if hi != lo:
                    pts.append(e29.point(x, hi))
        assert len(pts) == e29.order
        images = {P: evaluate(phi, P) for P in pts}
        assert sum(1 for v in images.values() if not v) == 2  # kernel size
        assert not evaluate(phi, gen)
        target = phi.target_curve
        for P in pts:
            assert not images[P] or images[P].curve == target
        rng = random.Random(9)
        for _ in range(300):
            P, Q = rng.choice(pts), rng.choice(pts)
            assert evaluate(phi, point_add(P, Q)) == point_add(images[P], images[Q])

    def test_write_once(self, e29):
        phi = velu(e29, stable_cyclic_subgroups(e29, 2)[0], 2)
        with pytest.raises(AttributeError):
            phi.degree = 7


def _pp(order):
    """(ell, e) for a prime power."""
    for ell in (2, 3, 5, 7):
        if order % ell == 0:
            e = 0
            while order % ell == 0:
                order //= ell
                e += 1
            assert order == 1
            return ell, e
    raise AssertionError


# ---------------------------------------------------------------------------
# evaluation


class TestEvaluate:
    def test_rejects_points_on_other_curves(self, e29):
        phi = velu(e29, stable_cyclic_subgroups(e29, 2)[0], 2)
        twist = curve_from_j(F41, F41.from_int(29), -6)
        rng = random.Random(1)
        with pytest.raises(CurveMismatch):
            evaluate(phi, twist.random_point(rng))
        other = Curve(field_create(43, 1), 1, 3)
        with pytest.raises(CurveMismatch):
            evaluate(phi, other.random_point(rng))

    def test_accepts_value_equal_curve_objects(self, e29):
        phi = velu(e29, stable_cyclic_subgroups(e29, 2)[0], 2)
        clone = Curve(F41, e29.A, e29.B)
        P = clone.random_point(random.Random(2))
        assert evaluate(phi, P)

    def test_infinity_maps_to_infinity(self, e29):
        phi = velu(e29, stable_cyclic_subgroups(e29, 2)[0], 2)
        assert not evaluate(phi, e29.infinity())
        EK = base_change(e29, 4)
        out = evaluate(phi, EK.infinity())
        assert not out and out.curve.field is EK.field

    def test_callable_sugar(self, e29):
        phi = velu(e29, stable_cyclic_subgroups(e29, 2)[0], 2)
        P = e29.random_point(random.Random(3))
        assert phi(P) == evaluate(phi, P)


# ---------------------------------------------------------------------------
# composition


class TestCompose:
    def test_chain_three_then_two_has_degree_six(self, e29):
        phi3 = cyclic_isogenies(e29, 3)[0]
        assert j_invariant(phi3.target_curve) == F41.from_int(22)
        psi2 = next(
            f
            for f in cyclic_isogenies(phi3.target_curve, 2)
            if j_invariant(f.target_curve) == F41.from_int(25)
        )
        chain = compose(psi2, phi3)
        assert chain.degree == 6 and chain.insep_exp == 0
        assert j_invariant(chain.source_curve) == F41.from_int(29)
        assert j_invariant(chain.target_curve) == F41.from_int(25)
        assert chain.target_curve.trace == e29.trace
        # evaluation factors through the two steps
        rng = random.Random(4)
        for _ in range(40):
            P = e29.random_point(rng)
            assert evaluate(chain, P) == evaluate(psi2, evaluate(phi3, P))
        # cyclic kernel of order 6
        assert chain.kernel_polynomial().degree() == 5
        gen = chain.kernel_gen
        assert point_order(gen, 6) == 6

    def test_class_mismatch(self, e29):
        phi = next(
            f
            for f in cyclic_isogenies(e29, 2)
            if curve_class(f.target_curve) != curve_class(e29)
        )
        with pytest.raises(ClassMismatch):
            compose(phi, phi)

    def test_models_are_glued_by_an_isomorphism(self, e29):
        phi3 = cyclic_isogenies(e29, 3)[0]
        mid = phi3.target_curve
        # a different Weierstrass model of the same class
        u = F41.from_int(3)
        other = Curve(F41, u**4 * mid.A, u**6 * mid.B)
        assert other != mid and curve_class(other) == curve_class(mid)
        psi = cyclic_isogenies(other, 2)[0]
        chain = compose(psi, phi3)
        assert chain.degree == 6
        rng = random.Random(5)
        for _ in range(25):
            P = e29.random_point(rng)
            img = chain(P)
            assert not img or img.curve == psi.target_curve

    def test_separable_degree_cap(self, e29):
        phi9 = cyclic_isogenies(e29, 9)[0]
        follow = cyclic_isogenies(phi9.target_curve, 9)
        assert follow
        with pytest.raises(BoundExceeded):
            compose(follow[0], phi9)

    def test_degree_multiplies(self, e29):
        phi2 = cyclic_isogenies(e29, 2)[0]
        psi = cyclic_isogenies(phi2.target_curve, 3)[0]
        assert compose(psi, phi2).degree == 6


# ---------------------------------------------------------------------------
# duals


class TestDual:
    def test_dual_of_two_isogeny_is_multiplication_by_two(self, e29):
        gen = next(
            g
            for g in stable_cyclic_subgroups(e29, 2)
            if j_invariant(velu(e29, g, 2).target_curve) == F41.from_int(5)
        )
        phi = velu(e29, gen, 2)
        phihat = dual(phi)
        assert phihat.degree == 2
        assert phihat.source_curve == phi.target_curve
        assert phihat.target_curve == e29
        # check over every rational point of the source
        rng = random.Random(6)
        for _ in range(200):
            P = e29.random_point(rng)
            assert evaluate(phihat, evaluate(phi, P)) == scalar_mul(2, P)
        assert not evaluate(phihat, phi.target_curve.infinity())

    def test_dual_of_identity_is_identity(self, e29):
        ident = velu(e29, None, 1)
        d = dual(ident)
        assert d == ident
        assert d.degree == 1 and not d._steps

    def test_biduality_recovers_the_kernel(self, e29):
        for order in (2, 3):
            for g in stable_cyclic_subgroups(e29, order):
                phi = velu(e29, g, order)
                again = dual(dual(phi))
                assert again == phi
                assert again.kernel_polynomial() == phi.kernel_polynomial()

    def test_dual_of_composite_on_coprime_torsion(self, e29):
        phi3 = cyclic_isogenies(e29, 3)[0]
        psi2 = cyclic_isogenies(phi3.target_curve, 2)[0]
        chain = compose(psi2, phi3)
        chainhat = dual(chain)
        P, Q, _ = torsion_basis(e29, 5)  # coprime to 6 * 41
        for T in (P, Q, point_add(P, Q)):
            assert evaluate(chainhat, evaluate(chain, T)) == scalar_mul(6, T)

    def test_dual_swaps_source_and_target_classes(self, e29):
        phi = velu(e29, stable_cyclic_subgroups(e29, 2)[0], 2)
        phihat = dual(phi)
        assert curve_class(phihat.source_curve) == phi.target
        assert phihat.target == curve_class(phi.source_curve)

    def test_verschiebung(self, e29):
        pi = frobenius_isogeny(e29, 1)
        V = dual(pi)
        assert V.degree == 41
        assert V.insep_exp == 0  # ordinary curve: the dual of Frobenius is separable
        rng = random.Random(7)
        for _ in range(30):
            P = e29.random_point(rng)
            assert evaluate(V, evaluate(pi, P)) == scalar_mul(41, P)
            assert evaluate(pi, evaluate(V, P)) == scalar_mul(41, P)
        assert dual(V) == pi

    @pytest.mark.parametrize("p, r, A, B, supersingular", [
        (11, 1, 1, 0, True),
        (7, 2, 1, 0, True),
        (13, 1, 0, 1, False),
    ])
    @pytest.mark.parametrize("e", [1, 2])
    def test_verschiebung_is_inseparable_on_supersingular_curves(
        self, p, r, A, B, supersingular, e
    ):
        """The dual of the p^e-power Frobenius has degree p^e and
        inseparable exponent e on y^2 = x^3 + x over GF(11) and GF(7^2)
        (supersingular), 0 on y^2 = x^3 + 1 over GF(13) (ordinary)."""
        E = Curve(field_create(p, r), A, B)
        pi = frobenius_isogeny(E, e)
        V = dual(pi)
        assert V.degree == p**e
        assert V.insep_exp == (e if supersingular else 0)
        assert V.source_curve == pi.target_curve and V.target_curve == E
        rng = random.Random(p * r + e)
        for s in (1, 2):
            for _ in range(5):
                P = base_change(E, s).random_point(rng)
                assert evaluate(V, evaluate(pi, P)) == scalar_mul(p**e, P)
                Q = base_change(pi.target_curve, s).random_point(rng)
                assert evaluate(pi, evaluate(V, Q)) == scalar_mul(p**e, Q)
        assert dual(V) == pi

    @pytest.mark.parametrize("p, r", [(37, 1), (7, 2), (7, 1)])
    @pytest.mark.parametrize("j", [0, 1728])
    def test_dual_closes_to_multiplication_with_extra_automorphisms(self, p, r, j):
        """Where E has more automorphisms than +-1 the closing isomorphism
        of the dual is still the scaling by 1/n that Velu's normalisation
        fixes: dual(phi) o phi = [n] on every twist of j = 0 and 1728.
        Over GF(7), each 2-isogeny from y^2 = x^3 + 3x onto y^2 = x^3 + 5x
        meets two 2-kernels on the target whose Velu targets are both
        (2^4*3, 0) and on which pi acts by the same eigenvalue 1 mod 2: a
        dual must tell them apart by phi(E[2]), not by its landing curve."""
        F = field_create(p, r)
        rng = random.Random(p * r + j)
        checked = 0
        for cls in twist_classes(F, F.from_int(j)):
            E = cls.representative
            for n in (2, 3, 4):
                for phi in cyclic_isogenies(E, n):
                    phihat = dual(phi)
                    assert phihat.source_curve == phi.target_curve
                    assert phihat.target_curve == E
                    for s in (1, 2):
                        EK = base_change(E, s)
                        for _ in range(3):
                            P = EK.random_point(rng)
                            assert evaluate(phihat, evaluate(phi, P)) == scalar_mul(n, P)
                    checked += 1
        assert checked

    def test_kernel_polynomial_is_that_of_the_image_of_the_torsion(self, e29):
        """dual(phi) has kernel phi(E[ell]): its kernel polynomial matches
        the one built from a torsion basis of the source."""
        for ell in (2, 3):
            P, Q, K = torsion_basis(e29, ell)
            for g in stable_cyclic_subgroups(e29, ell):
                phi = velu(e29, g, ell)
                image = {
                    evaluate(phi, point_add(scalar_mul(i, P), scalar_mul(j, Q)))
                    for i in range(ell)
                    for j in range(ell)
                }
                xs = [T.x for T in image if T]
                assert len(xs) == ell - 1
                FK = Poly.from_roots(K, xs)
                want = FK if K is F41 else subfield_embedding(F41, K).unmap_poly(FK)
                assert dual(phi).kernel_polynomial() == want

    def test_sampling_does_not_depend_on_the_hash_seed(self):
        """dual draws no random points at all, so two interpreters with
        different string-hash salts build the same duals."""
        script = textwrap.dedent("""
            from isogenion.elliptic_curve import Curve, curve_from_j
            from isogenion.finite_field import field_create
            from isogenion.isogeny import dual, stable_cyclic_subgroups, velu
            E = curve_from_j(field_create(41), 29, 6)
            phis = [velu(E, K, 2) for K in stable_cyclic_subgroups(E, 2)]
            draws = []
            sample = Curve.random_point

            def counted(C, rng):
                draws.append(C)
                return sample(C, rng)

            Curve.random_point = counted
            print([dual(phi).kernel_polynomial().coeffs for phi in phis], len(draws))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(isogenion.__file__)))
        outputs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert outputs.pop().split()[-1] == "0"


# ---------------------------------------------------------------------------
# Frobenius isogenies


class TestFrobeniusIsogeny:
    def test_zero_exponent_is_identity(self, e29):
        assert frobenius_isogeny(e29, 0) == velu(e29, None, 1)

    def test_bookkeeping_and_coefficients(self, e29):
        pi = frobenius_isogeny(e29, 1)
        assert pi.degree == 41 and pi.insep_exp == 1
        assert pi.kernel_gen is None
        # over the prime field Frobenius is an endomorphism
        assert pi.target_curve == e29

    def test_is_an_endomorphism_satisfying_the_characteristic_equation(self, e29):
        pi = frobenius_isogeny(e29, 1)
        pi2 = compose(pi, pi)
        for s in (1, 2, 3):
            EK = base_change(e29, s)
            rng = random.Random(s)
            for _ in range(15):
                P = EK.random_point(rng)
                acc = point_add(
                    point_add(evaluate(pi2, P), scalar_mul(-6, evaluate(pi, P))),
                    scalar_mul(41, P),
                )
                assert not acc

    def test_extension_coefficients_are_conjugated(self):
        F = field_create(7, 2)
        a = F.generator_x()
        E = Curve(F, a, F.one)
        pi = frobenius_isogeny(E, 1)
        assert pi.target_curve.A == F.frobenius(a, 1)
        rng = random.Random(11)
        P = E.random_point(rng)
        img = evaluate(pi, P)
        assert img.x == F.frobenius(P.x, 1) and img.y == F.frobenius(P.y, 1)

    def test_rational_maps_of_frobenius(self, e29):
        xn, xd, yn, yd = frobenius_isogeny(e29, 1).rational_maps
        assert xn == Poly(F41, [F41.zero] * 41 + [F41.one])
        assert xd == Poly.from_ints(F41, [1])

    def test_rejects_negative_exponents(self, e29):
        with pytest.raises(ValueError):
            frobenius_isogeny(e29, -1)


# ---------------------------------------------------------------------------
# multiplication maps


class TestMultiplicationIsogeny:
    def test_bookkeeping_and_points(self, e29):
        for m in (2, 3, 5):
            mul = multiplication_isogeny(e29, m)
            assert mul.degree == m * m and mul.insep_exp == 0
            assert mul.source_curve == mul.target_curve == e29
            rng = random.Random(m)
            for s in (1, 2):
                EK = base_change(e29, s)
                for _ in range(5):
                    P = EK.random_point(rng)
                    assert evaluate(mul, P) == scalar_mul(m, P)
        assert multiplication_isogeny(e29, 1) == velu(e29, None, 1)

    def test_kernel_is_the_two_torsion_and_dual_is_itself(self, e29):
        two = multiplication_isogeny(e29, 2)
        F = e29.field
        assert two.kernel_polynomial() == Poly(F, [e29.B, e29.A, F.zero, F.one])
        assert dual(two) == two

    @pytest.mark.parametrize("j", [29, 13, 5])
    def test_kernel_scan_stays_inside_the_exponent(self, j):
        """The kernel of [8] is E[8], exponent 8: the scan needs E[8] only
        (over GF(41^4) or GF(41^8) on this volcano), not E[64], which lies
        beyond the extension-degree cap for j = 29 and 13."""
        E = curve_from_j(F41, F41.from_int(j), 6)
        pts = multiplication_isogeny(E, 8).kernel_gen
        assert isinstance(pts, list) and len(set(pts)) == 63
        assert all(T and not scalar_mul(8, T) for T in pts)

    def test_kernel_scan_re_raises_when_every_torsion_group_is_refused(self):
        """On the floor curve j = 13, E[32] lies past the R_MAX tower and
        every E[d] with d > 64 past M_MAX.  The scan for the kernel of [32]
        skips each refused E[d] (d = 32, 64, ..., 1024) and, since none
        held the kernel, re-raises the last refusal, not the first."""
        E = curve_from_j(F41, F41.from_int(13), 6)
        with pytest.raises(BoundExceeded) as first:
            torsion_degree(E, 32)
        assert (first.value.cap, first.value.requested) == ("R_MAX", 32)
        with pytest.raises(BoundExceeded) as last:
            multiplication_isogeny(E, 32).kernel_gen
        assert (last.value.cap, last.value.limit, last.value.requested) == ("M_MAX", 64, 1024)

    @pytest.mark.parametrize("m", [0, -2, 2.0, 41, 82])
    def test_rejects_bad_multipliers(self, e29, m):
        with pytest.raises(ValueError):
            multiplication_isogeny(e29, m)


# ---------------------------------------------------------------------------
# stable subgroup enumeration


def _division_poly_root_count(E, ell):
    """Rational-root count of the degree-(ell^2-1)/2 kernel locus, written
    from the textbook division polynomials for y^2 = x^3 + Ax + B."""
    F = E.field
    A, B = E.A, E.B
    if ell == 2:
        f = Poly(F, [B, A, F.zero, F.one])
    elif ell == 3:
        f = Poly(
            F,
            [-(A * A), 12 * B, 6 * A, F.zero, F.from_int(3)],
        )
    else:
        raise AssertionError
    return sum(1 for _ in roots(f))


class TestStableSubgroups:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_counts_match_division_polynomial_roots(self, ell):
        for jj in range(41):
            for cls in twist_classes(F41, F41.from_int(jj)):
                if cls.trace not in (6, -6):
                    continue
                E = cls.representative
                got = len(stable_cyclic_subgroups(E, ell))
                assert got == _division_poly_root_count(E, ell)

    @pytest.mark.parametrize("m,ell,e", [(4, 2, 2), (9, 3, 2)])
    def test_prime_power_subgroups_match_brute_enumeration(self, e29, m, ell, e):
        P, Q, _ = torsion_basis(e29, m)
        reps = [(1, y) for y in range(m)] + [(x, 1) for x in range(0, m, ell)]
        brute = []
        for a, b in reps:
            T = point_add(scalar_mul(a, P), scalar_mul(b, Q))
            assert point_order(T, m) == m
            R = frobenius_endo(T, 1)
            W, stable = T, False
            for _ in range(m - 1):
                if W == R:
                    stable = True
                    break
                W = point_add(W, T)
            if stable:
                brute.append(kernel_poly_of_point(e29, T, m))
        mine = [
            kernel_poly_of_point(e29, g, m)
            for g in stable_cyclic_subgroups(e29, ell, e)
        ]
        assert sorted(f.coeffs for f in mine) == sorted(f.coeffs for f in brute)

    def test_refusals_name_their_caps(self, e29):
        """An order past M_MAX, and 59-kernels whose Frobenius eigenvalues
        (roots of x^2 - 6x + 41 mod 59) have order 29 > 24; then the three
        sweep caps: a point count past 2^20, a field past P_MAX or R_MAX,
        and a class sweep past CLASS_SWEEP_MAX; then the discrete-log walks
        past DLOG_MAX, and dividing by 3 over GF(5^13): the tower under
        R_MAX is GF(5^13) alone, and there its 3-Sylow generator is no
        3*Q."""
        big = Curve(field_create(1031, 2), 1, 3)
        S = sylow_basis(e29, 3)[0]
        tall = base_change(Curve(field_create(5), 1, 1), 13)
        for call, named in [
            (lambda: stable_cyclic_subgroups(e29, 2, 7), ("M_MAX", 64, 128)),
            (lambda: stable_cyclic_subgroups(e29, 59, 1), ("R_MAX", 24, 29)),
            (lambda: count_points(big), ("EXHAUSTIVE_COUNT_MAX", 2**20, 1031**2)),
            (lambda: field_create(65537), ("P_MAX", 2**16, 65537)),
            (lambda: field_create(41, 25), ("R_MAX", 24, 25)),
            (lambda: rB(field_create(1031), 1), ("CLASS_SWEEP_MAX", 1000, 1031)),
            (lambda: point_log(S, S, 2**16 + 1), ("DLOG_MAX", 2**16, 2**16 + 1)),
            (lambda: two_dim_dlog(S, S, S, 2**9, 2**8), ("DLOG_MAX", 2**16, 2**17)),
            (lambda: divide_point(sylow_basis(tall, 3)[0], 3), ("R_MAX", 24, None)),
        ]:
            with pytest.raises(BoundExceeded) as refusal:
                call()
            err = refusal.value
            assert (err.cap, err.limit, err.requested) == named

    @pytest.mark.parametrize("ell", [4, 6, 1, 2.0])
    def test_an_ell_that_is_not_a_prime_int_is_refused(self, monkeypatch, e29, ell):
        """E = (15, 10) over GF(41) has 2-Sylow Z/2 x Z/2: ell = 4 used to
        fail with "0 is not a unit mod 4".  The refusal comes before any
        point is drawn, also for 2.0 once e29's int 2 is cached."""
        stable_cyclic_subgroups(e29, 2)

        def no_point_work(*args):
            raise AssertionError("point work before ell was checked")

        monkeypatch.setattr(Curve, "random_point", no_point_work)
        for E in (Curve(F41, 15, 10), e29):
            with pytest.raises(ValueError, match="prime int"):
                stable_cyclic_subgroups(E, ell)

    @pytest.mark.parametrize("e", [0, -1, 1.5, 2.0])
    def test_an_exponent_that_is_not_a_positive_int_is_refused(
        self, monkeypatch, e29, e
    ):
        """e = 0, -1 and 1.5 used to fail with a TypeError inside the scan."""

        def no_point_work(*args):
            raise AssertionError("point work before e was checked")

        monkeypatch.setattr(isogenion.elliptic_curve, "scalar_mul", no_point_work)
        monkeypatch.setattr(isogenion.isogeny, "scalar_mul", no_point_work)
        with pytest.raises(ValueError, match="positive int"):
            stable_cyclic_subgroups(e29, 2, e)

    def test_generators_live_over_minimal_extensions(self, e29):
        for ell, e in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            for g in stable_cyclic_subgroups(e29, ell, e):
                s = g.curve.field.r
                assert frobenius_endo(g, s) == g  # rational over its own field
                for s2 in range(1, s):
                    if s % s2 == 0:
                        assert frobenius_endo(g, s2) != g

    def test_roots_that_are_not_eigenvalues_are_dropped(self):
        # E[16] of the floor curve j = 13 is rational over GF(41^16), so the
        # Frobenius fixes E[4] there and every stable order-4 subgroup has
        # eigenvalue 1; the other root 3 of (x - 1)^2 mod 4 has order 2 and
        # would ask for an extension past the cap
        EK = base_change(curve_from_j(F41, F41.from_int(13), 6), 16)
        gens = stable_cyclic_subgroups(EK, 2, 2)
        assert len(gens) == 6
        assert all(g.curve.field is EK.field and point_order(g, 4) == 4 for g in gens)

    def test_eigenvalue_satisfies_the_characteristic_polynomial(self, e29):
        q, t = 41, 6
        for ell, e in [(2, 1), (3, 2)]:
            m = ell**e
            for g in stable_cyclic_subgroups(e29, ell, e):
                R = frobenius_endo(g, 1)
                W, c = g, None
                for i in range(1, m):
                    if W == R:
                        c = i
                        break
                    W = point_add(W, g)
                assert c is not None
                assert (c * c - t * c + q) % m == 0


class TestCyclicIsogenies:
    def test_degree_six_count_is_product_of_prime_counts(self, e29):
        all6 = cyclic_isogenies(e29, 6)
        assert len(all6) == len(stable_cyclic_subgroups(e29, 2)) * len(
            stable_cyclic_subgroups(e29, 3)
        )
        polys = set()
        for f in all6:
            assert f.degree == 6
            assert f.target_curve.trace == e29.trace
            polys.add(f.kernel_polynomial().coeffs)
        assert len(polys) == len(all6)

    def test_chains_carry_their_kernel_generator(self, e29):
        # reading the kernel needs no basis of E[12]
        torsion_basis.cache_clear()
        phi = cyclic_isogenies(e29, 12)[0]
        gen = phi.kernel_gen
        assert point_order(gen, 12) == 12
        assert not evaluate(phi, gen)
        assert phi.kernel_polynomial() == kernel_poly_of_point(e29, gen, 12)
        assert torsion_basis.cache_info().currsize == 0

    def test_generator_parts_are_embedded_over_the_base_field(self):
        # over GF(7^2) the 3- and 5-parts of these kernels live over GF(7^4)
        # and GF(7^8); an embedding chosen without regard to GF(7^2) lands
        # the 3-part on a conjugate curve
        F = field_create(7, 2)
        E = curve_from_j(F, F.zero, -11)
        chains = cyclic_isogenies(E, 15)
        assert {st.degree for phi in chains for st in phi._steps} == {3, 5}
        for phi in chains:
            K = phi.kernel_gen
            assert K.curve.field.r == 8 and K.curve.is_on(K.x, K.y)
            assert point_order(K, 15) == 15 and not evaluate(phi, K)

    def test_kernel_polynomial_from_the_generator_equals_the_scan(self):
        # the oracle scans E[n] for the kernel of a composition of the same
        # Velu steps, which stores no generator
        seen = 0
        for j in (5, 29, 13):
            E = curve_from_j(F41, F41.from_int(j), 6)
            for n in (6, 10, 12, 24):
                for phi in cyclic_isogenies(E, n):
                    parts = [
                        Isogeny((st,), st.src, None)
                        for st in phi._steps
                    ]
                    whole = parts[0]
                    for part in parts[1:]:
                        whole = compose(part, whole)
                    pts, _, _ = whole._kernel_points()
                    K = pts[0].curve.field
                    FK = Poly.from_roots(K, [T.x for T in pts])
                    scan = subfield_embedding(F41, K).unmap_poly(FK)
                    assert phi.kernel_polynomial() == scan
                    seen += 1
        assert seen == 54

    def test_rare_sylow_complement_is_completed(self):
        # t = -6 over GF(11^2); over GF(11^4) the 2-Sylow subgroup is
        # Z/2 x Z/256: a draw of order 2 that certifies a pair is rare, and
        # sylow_basis completes the basis by reducing a draw into a
        # complement of the largest one
        F = field_create(11, 2)
        E = Curve(F, F.from_coeffs([6, 10]), F.from_coeffs([6, 8]))
        assert sylow_basis(base_change(E, 2), 2)[2:] == (8, 1)
        four = cyclic_isogenies(E, 4)
        assert four and all(point_order(phi.kernel_gen, 4) == 4 for phi in four)
        phi = cyclic_isogenies(E, 2)[0]
        psi = dual(phi)
        rng = random.Random(8)
        for _ in range(20):
            P = E.random_point(rng)
            assert evaluate(psi, evaluate(phi, P)) == scalar_mul(2, P)

    def test_trivial_and_validation(self, e29):
        only = cyclic_isogenies(e29, 1)
        assert len(only) == 1 and only[0].degree == 1
        with pytest.raises(ValueError):
            cyclic_isogenies(e29, 82)
        with pytest.raises(BoundExceeded) as refusal:
            cyclic_isogenies(e29, 128)
        assert (refusal.value.cap, refusal.value.limit, refusal.value.requested) == (
            "M_MAX", 64, 128,
        )


# ---------------------------------------------------------------------------
# rational maps


def scanned_kernels(E, multipliers):
    """Isogenies from E that store no kernel generator: [m] for each
    multiplier, the duals of the cyclic isogenies of degree 2, 3 and 4, and
    every composite of two cyclic isogenies of those degrees."""
    out = [multiplication_isogeny(E, m) for m in multipliers]
    for n in (2, 3, 4):
        out += [dual(phi) for phi in cyclic_isogenies(E, n)]
        for phi in cyclic_isogenies(E, n):
            for n2 in (2, 3, 4):
                out += [compose(psi, phi) for psi in cyclic_isogenies(phi.target_curve, n2)]
    return out


class TestKernelScan:
    @pytest.mark.parametrize(
        "E, multipliers, count",
        [
            (curve_from_j(F41, 29, 6), (2, 3, 4, 5, 6), 65),
            (curve_from_j(field_create(23), 14, -6), (2, 3, 4, 5, 6), 17),
            # E[5] of this curve lies beyond the extension cap
            (curve_from_j(field_create(7, 2), field_create(7, 2).from_coeffs([4, 2]), -6),
             (2, 3, 4, 6), 26),
        ],
        ids=["GF(41)", "GF(23)", "GF(7^2)"],
    )
    def test_orders_exponent_and_generator_match_the_oracle(self, E, multipliers, count):
        """The scan reads each kernel point's order off its coordinates in
        E[d], and the first E[d] it finds is E[b], b the kernel's exponent;
        kernel_gen is the first point of order n, the list when none is."""
        kernels = scanned_kernels(E, multipliers)
        assert len(kernels) == count
        shapes = set()
        for phi in kernels:
            n = phi.separable_degree
            pts, orders, b = phi._kernel_points()
            want = [prime_by_prime_order(T, n) for T in pts]
            assert len(pts) == n - 1 and orders == want
            assert b == max(want) == phi.kernel_exponent
            assert n % b == 0 and b % (n // b) == 0, "kernel is Z/a x Z/b, a | b"
            assert phi.kernel_gen == (pts[want.index(n)] if n in want else pts)
            shapes.add(n // b)
        assert {1, 2} <= shapes

    def test_exponent_of_trivial_and_stored_kernels(self, e29):
        assert multiplication_isogeny(e29, 1).kernel_exponent == 1
        phi = cyclic_isogenies(e29, 12)[0]
        assert phi.kernel_exponent == 12


class TestRationalMaps:
    @pytest.mark.parametrize("order", [2, 3])
    def test_maps_agree_with_evaluation_everywhere(self, e29, order):
        for g in stable_cyclic_subgroups(e29, order):
            phi = velu(e29, g, order)
            xn, xd, yn, yd = phi.rational_maps
            assert xn.degree() == order and xd.degree() == order - 1
            for xi in range(41):
                x = F41.from_int(xi)
                fx = e29.rhs(x)
                if not fx.is_square():
                    continue
                y = field_sqrt(fx)[0]
                P = e29.point(x, y)
                img = evaluate(phi, P)
                if not xd.eval(x):
                    assert not img
                    continue
                assert img.x == xn.eval(x) / xd.eval(x)
                assert img.y == y * yn.eval(x) / yd.eval(x)

    def test_composite_maps_reduce(self, e29):
        phi3 = cyclic_isogenies(e29, 3)[0]
        psi2 = cyclic_isogenies(phi3.target_curve, 2)[0]
        chain = compose(psi2, phi3)
        xn, xd, yn, yd = chain.rational_maps
        assert xn.degree() == 6 and xd.degree() == 5
        rng = random.Random(12)
        for _ in range(30):
            P = e29.random_point(rng)
            img = chain(P)
            if not xd.eval(P.x):
                assert not img
                continue
            assert img.x == xn.eval(P.x) / xd.eval(P.x)
            assert img.y == P.y * yn.eval(P.x) / yd.eval(P.x)

    @pytest.mark.parametrize(
        "make, n",
        [
            (lambda: curve_from_j(F41, F41.from_int(29), 6), 3),
            (lambda: Curve(field_create(7, 2), 3, 3), 2),
        ],
        ids=["GF(41)", "GF(7^2)"],
    )
    def test_maps_of_chains_with_a_scaling_step(self, make, n):
        """dual(phi) is a Velu quotient followed by the 1/n scaling, and
        compose glues two models of the middle class with a scaling; the
        maps of both chains evaluate like the chains over an extension."""
        E = make()
        F = E.field
        phi = cyclic_isogenies(E, n)[0]
        mid = phi.target_curve
        u = F.from_coeffs([3] + [1] * (F.r - 1))
        psi = cyclic_isogenies(Curve(F, u**4 * mid.A, u**6 * mid.B), 2)[0]
        K = field_create(F.p, 2 * F.r)
        rng = random.Random(23)
        for chain in (dual(phi), compose(psi, phi)):
            assert any(st.degree == 1 for st in chain._steps)
            xn, xd, yn, yd = (subfield_embedding(F, K).map_poly(f) for f in chain.rational_maps)
            EK = base_change(chain.source_curve, 2)
            for _ in range(30):
                P = EK.random_point(rng)
                img = chain(P)
                if not xd.eval(P.x):
                    assert not img
                    continue
                assert img.x == xn.eval(P.x) / xd.eval(P.x)
                assert img.y == P.y * yn.eval(P.x) / yd.eval(P.x)

    def test_verschiebung_has_no_polynomial_maps(self, e29):
        V = dual(frobenius_isogeny(e29, 1))
        with pytest.raises(ValueError):
            V.rational_maps


# ---------------------------------------------------------------------------
# Velu vs modular polynomials, and equality semantics


class TestConsistency:
    # (p, r, trace, ell) -> (classes seen, classes with equality)
    VELU_CENSUS = {
        (11, 2, None, 2): (248, 242),
        (11, 2, None, 3): (248, 242),
        (41, 1, None, 2): (84, 74),
        (41, 1, None, 3): (84, 76),
        (31, 1, 4, 2): (6, 6),
        (31, 1, 4, 3): (6, 6),
    }

    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize(
        "p, r, trace",
        [(11, 2, None), (41, 1, None), (31, 1, 4)],
        ids=["GF121", "GF41", "GF31-t4"],
    )
    def test_velu_targets_equal_modular_roots_with_multiplicity(
        self, p, r, trace, ell
    ):
        """Phi_ell(j, Y) is the oracle for the Velu edges of every class
        (of one trace, when given): the target j-invariants of
        cyclic_isogenies, counted with multiplicity, lie among its roots,
        and equal them on every ordinary class away from j = 0 and 1728.
        There extra automorphisms merge kernels, and a supersingular class
        can reach a rational j through a kernel that is not rational."""
        F = field_create(p, r)
        phi_ell = modular_polynomial(ell)
        special = (F.zero, F.from_int(1728))
        seen = equal = 0
        for j in F.elements():
            roots_of_phi = Counter(dict(roots(phi_ell.univariate(j))))
            for cls in twist_classes(F, j):
                if trace is not None and cls.trace != trace:
                    continue
                seen += 1
                targets = Counter(
                    edge.target.j
                    for edge in cyclic_isogenies(cls.representative, ell)
                )
                assert not targets - roots_of_phi, (j, cls.trace)
                equal += targets == roots_of_phi
                if cls.trace % p and j not in special:
                    assert targets == roots_of_phi, (j, cls.trace)
        assert (seen, equal) == self.VELU_CENSUS[p, r, trace, ell]

    def test_random_velu_pairs_are_modular_adjacent(self):
        rng = random.Random(99)
        primes = [p for p in range(5, 200) if all(p % d for d in range(2, p))]
        found = 0
        while found < 100:
            p = rng.choice(primes)
            F = field_create(p, 1)
            A = F.from_int(rng.randrange(p))
            B = F.from_int(rng.randrange(p))
            if not (4 * A * A * A + 27 * B * B):
                continue
            E = Curve(F, A, B)
            cubic = Poly(F, [B, A, F.zero, F.one])
            rational = roots(cubic)
            if not rational:
                continue
            x0 = rational[0][0]
            T = E.point(x0, F.zero)
            phi = velu(E, T, 2)
            assert not modular_polynomial(2).univariate(j_invariant(E)).eval(j_invariant(phi.target_curve))
            found += 1

    def test_equality_is_by_source_class_kernel_and_insep(self, e29):
        g2 = stable_cyclic_subgroups(e29, 2)
        a = velu(e29, g2[0], 2)
        assert a == velu(e29, g2[0], 2)
        assert a != velu(e29, g2[1], 2)
        assert a != cyclic_isogenies(e29, 3)[0]
        assert a != frobenius_isogeny(e29, 1)

    def test_equality_across_isomorphic_models(self, e29):
        u = F41.from_int(2)
        other = Curve(F41, u**4 * e29.A, u**6 * e29.B)
        g = stable_cyclic_subgroups(e29, 2)[0]
        g_other = other.point(u * u * g.x, u**3 * g.y)
        phi = velu(e29, g, 2)
        psi = velu(other, g_other, 2)
        assert phi == psi
        assert psi == phi

    def test_equality_across_models_needs_no_class(self, e29, monkeypatch):
        """On the model E' of E scaled by u = 8, each rational 2-isogeny
        equals its own composite with the identity on E' and no other's; a
        quadratic twist of E shares j but is not k-isomorphic.  Equality
        decides the change of model by isomorphism_scale alone, so it
        builds no class."""
        u = F41.from_int(8)
        other = Curve(F41, u**4 * e29.A, u**6 * e29.B)
        twist = curve_from_j(F41, F41.from_int(29), -6)
        phis = cyclic_isogenies(e29, 2)
        twisted = cyclic_isogenies(twist, 2)
        assert len(phis) == 3

        def no_class(E):
            raise AssertionError("isogeny equality built a curve class")

        monkeypatch.setattr(isogenion.isogeny, "curve_class", no_class)
        moved = [compose(phi, velu(other, None, 1)) for phi in phis]
        for i, phi in enumerate(phis):
            for k, psi in enumerate(moved):
                assert (phi == psi) == (i == k)
                assert (psi == phi) == (i == k)
            assert all(phi != chi for chi in twisted)

    def test_isogenies_from_different_classes_differ(self, e29):
        e25 = curve_from_j(F41, F41.from_int(25), 6)
        assert cyclic_isogenies(e29, 2)[0] != cyclic_isogenies(e25, 2)[0]

    def test_isogenies_from_distinct_models_at_j_1728_differ(self):
        """y^2 = x^3 + x and y^2 = x^3 + 16x are isomorphic over GF(41), and
        x is the kernel polynomial of the quotient by (0, 0) on both, even
        after rescaling; the extra automorphisms keep them apart."""
        E, other = Curve(F41, 1, 0), Curve(F41, 16, 0)
        assert curve_class(E) == curve_class(other)
        phi = velu(E, E.point(0, 0), 2)
        psi = velu(other, other.point(0, 0), 2)
        assert phi.kernel_polynomial() == psi.kernel_polynomial()
        assert phi != psi


# ---------------------------------------------------------------------------
# Velu maps are built on demand, and equal those built eagerly

# (p, r, A, B, n): cyclic_isogenies(Curve(GF(p^r), A, B), n) for every
# isogeny listed, over GF(41), GF(11^2) and GF(7^2)
LAZY_MAP_GRID = [
    (41, 1, [15], [10], 2),
    (41, 1, [15], [10], 3),
    (41, 1, [15], [10], 4),
    (41, 1, [15], [10], 6),
    (11, 2, [0, 1], [1, 1], 2),
    (11, 2, [0, 1], [1, 1], 3),
    (11, 2, [0, 1], [1, 1], 6),
    (11, 2, [3, 2], [1, 0], 2),
    (7, 2, [0, 1], [1, 1], 5),
    (7, 2, [1, 1], [3, 0], 5),
]

# sha256 of (rational maps, images) from eager maps: N and Yn built inside
# velu for every step
LAZY_MAP_DIGESTS = {
    "(41, 1, [15], [10], 2)": [
        "5a3ba13fdfd04ebbab55b2a0027ad6194f62156116851d1eaffeca6d94bef9ea",
        "5a9e137a0336302ef10445a7dc0ea3de6cfa219066d8c0f95ad884e1d18d8321",
    ],
    "(41, 1, [15], [10], 3)": [
        "2b2c1430ba40fcf9b92071b6ab0c64b710326a4f419830ecdf8454b733d3ef73",
        "f3300ff2c04e2e6385bfdcfcb96d32c75d8f9dd2e86056a07b1cb81e21260a58",
    ],
    "(41, 1, [15], [10], 4)": [
        "0861e97025fc37acd0907fb86b4b92bb6aad005ce8cb45f3dfba3d9ac43c2237",
        "c28c7951a67520d32fcb7bbbac58f33c5792cbc3bce8b4e6b9475ee5257be739",
    ],
    "(41, 1, [15], [10], 6)": [
        "d6c703a56704cbc5d42bea1662961fb9805c73d3b56ab2c5883493ee9ee8bca6",
        "cfc6e0519e58d8902e3c450632a0dc2e46f07cccb6fa0f36b272f5f90a41035a",
    ],
    "(11, 2, [0, 1], [1, 1], 2)": [
        "1c33ab1a99f5e300bdd7c3212b3417f09bb713e98aad10eb7d09d11bbe177c78",
        "6e4ff020334f9f3f93038e886e95161b2a497941489db2fe5b9afe175f3784d3",
    ],
    "(11, 2, [0, 1], [1, 1], 3)": [
        "a2d292ed19f2e95dcff7ab63d42e6af810f72c67ad6f955860cc308e1c334a81",
        "e00d30819c7926ed968ff45da284eba46d3648a9f4da8af48c83eabead8efb75",
    ],
    "(11, 2, [0, 1], [1, 1], 6)": [
        "5c1cbc85fd9dc971fc70184ba63a693cd3b4507249fc2c374cc520605c07f423",
        "7a4f46a95b1e75377888fd366487ec4117daa09e25c2c5aee0fc40afd237d7b5",
    ],
    "(11, 2, [3, 2], [1, 0], 2)": [
        "93cb1ff406a038e1d899c5d08d9252b77133a8ef421b3a728f9a28295dd14b4a",
        "4d57235b0b81781fca91a517f73f0b3881796d26728d91556d9a5034ff448a62",
    ],
    "(7, 2, [0, 1], [1, 1], 5)": [
        "9fef4d3cd40ab016acecb7f35270110db20164b7f50cd0f44972ab243d363b1c",
        "073eccffd45c7b44f15d36f7779b097fc0ea7dae4a01a4d7ffd3055ed49b43e4",
    ],
    "(7, 2, [1, 1], [3, 0], 5)": [
        "dfb938a13c2393fc65a79a72947d25bae2787486a7b7e57481d46c026335fdf0",
        "13cc41d7acbe5ec48cb6bbc514a1ae38ebf0e0f677ac3d7d017c736ae4ecc628",
    ],
}


def _maps_and_images(p, r, A, B, n):
    """Every isogeny's rational maps, and its images of three points over
    the base field, two over the quadratic extension and its kernel
    generator, as JSON-ready lists."""
    F = field_create(p, r)
    E = Curve(F, F.from_coeffs(A), F.from_coeffs(B))
    EK = base_change(E, 2)
    maps, images = [], []
    for k, phi in enumerate(cyclic_isogenies(E, n)):
        maps.append([[c.coeffs for c in f.coeffs] for f in phi.rational_maps])
        rng = random.Random(100 * n + k)
        pts = [E.random_point(rng) for _ in range(3)]
        pts += [EK.random_point(rng) for _ in range(2)] + [phi.kernel_gen]
        for P in pts:
            Q = phi(P)
            images.append([Q.x.coeffs, Q.y.coeffs] if Q else None)
    return maps, images


def _sha(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


class TestLazyVeluMaps:
    @pytest.mark.parametrize("case", LAZY_MAP_GRID, ids=str)
    def test_maps_and_images_equal_the_eager_ones(self, case):
        maps, images = _maps_and_images(*case)
        assert maps, "every grid case has an isogeny"
        assert [_sha(maps), _sha(images)] == LAZY_MAP_DIGESTS[str(case)]

    def test_build_graph_builds_no_maps(self, monkeypatch):
        from isogenion import isogeny
        from isogenion.isogeny_graph import build_graph

        steps = []
        init = isogeny._VeluStep.__init__

        def record(step, *args):
            init(step, *args)
            steps.append(step)

        monkeypatch.setattr(isogeny._VeluStep, "__init__", record)
        cyclic_isogenies.cache_clear()
        build_graph(field_create(11, 2), -6, 2)
        assert steps and all(st._maps is None for st in steps)
