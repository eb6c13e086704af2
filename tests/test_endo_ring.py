"""Endomorphism-ring probing, checked against independent witnesses.

Two cross-examinations drive this file.  The conductor search (breadth
first, for the nearest degree-one vertex of the volcano) is compared with a
scalar criterion built here from raw discrete logs: (pi - c)/ell^a is an
endomorphism exactly when the Frobenius acts as a scalar on E[ell^a], so
the largest scalar modulus fixes a curve's level without any isogeny; and
with the second ell-Sylow exponent of E(k), which fixes or bounds it from
the group structure alone.  The annihilator index is recounted by brute
evaluation of order elements through point division, a path that never
touches a torsion matrix.
"""

import random

import pytest

import isogenion.elliptic_curve
import isogenion.endo_ring
import isogenion.isogeny
from isogenion.elliptic_curve import (
    Curve,
    base_change,
    curve_from_j,
    discriminant_frobenius_order,
    divide_point,
    embed_point,
    frobenius_endo,
    is_supersingular,
    j_invariant,
    point_add,
    point_order,
    quadratic_twist,
    scalar_mul,
    sylow_basis,
    torsion_basis,
    twist_classes,
    two_dim_dlog,
)
from isogenion.endo_ring import (
    EndoDescriptor,
    annihilator_index,
    compute_endo_conductor,
    conductor_level,
    frobenius_matrix,
)
from isogenion.errors import (
    BoundExceeded,
    CurveMismatch,
    NotImaginaryQuadratic,
    OrdinaryOnly,
    SingularCurve,
    WrongOrder,
)
from isogenion.finite_field import field_create
from isogenion.intmath import factorize, valuation
from isogenion.isogeny import stable_cyclic_subgroups, velu
from isogenion.quadratic_order import class_group, quad_order
from oracles import deadline, evaluate_order_element, order_generator_element

F41 = field_create(41)
F31 = field_create(31)

# levels of the seven trace-6 vertices over GF(41) in their 2-structure
VOLCANO_LEVELS = {5: 0, 29: 1, 22: 1, 13: 2, 33: 2, 25: 2, 35: 2}


def curve41(j, t=6):
    return curve_from_j(F41, j, t)


@pytest.fixture(scope="module")
def e5():
    return curve41(5)


@pytest.fixture(scope="module")
def e29():
    return curve41(29)


@pytest.fixture(scope="module")
def e49():
    """Supersingular with every endomorphism rational: trace -14 = -2*7."""
    return base_change(Curve(field_create(7), 1, 0), 2)


def dlog_matrix(E, m):
    """The Frobenius matrix on E[m] rebuilt from scratch with discrete logs,
    bypassing frobenius_matrix entirely."""
    P, Q, _ = torsion_basis(E, m)
    a, c = two_dim_dlog(frobenius_endo(P, E.field.r), P, Q, m, m)
    b, d = two_dim_dlog(frobenius_endo(Q, E.field.r), P, Q, m, m)
    return ((a, b), (c, d)), P, Q


def scalar_level_oracle(E, ell, depth):
    """v_ell(conductor of End(E)) via the scalar criterion, no isogenies."""
    amax = 0
    for a in range(1, depth + 1):
        m = ell**a
        (p0, p1), (p2, p3) = dlog_matrix(E, m)[0]
        if p1 % m or p2 % m or (p0 - p3) % m:
            break
        amax = a
    return depth - amax


def lifted_annihilator_index(E, K, m):
    """Index of the annihilator of <K> counted the slow way: every residue
    x + y*f*gamma is evaluated on K by dividing through the denominator."""
    u, v, w = order_generator_element(E)
    hits = 0
    for x in range(m):
        for y in range(m):
            if not evaluate_order_element(E, (x * w + y * u, y * v, w), K):
                hits += 1
    assert (m * m) % hits == 0
    return m * m // hits


def kernel_toward(E, ell, j_target):
    """A stable order-ell kernel point whose quotient lands on j_target."""
    for K in stable_cyclic_subgroups(E, ell):
        if j_invariant(velu(E, K, ell).target_curve).lift_int() == j_target:
            return K
    raise AssertionError(f"no degree-{ell} edge toward j={j_target}")


# ---------------------------------------------------------------------------


class TestConductor:
    def test_surface_vertex(self, e5):
        d = compute_endo_conductor(e5)
        assert (d.D0, d.f0, d.f) == (-8, 4, 1)
        assert d.levels == {2: 0}

    def test_mid_vertex(self, e29):
        d = compute_endo_conductor(e29)
        assert d.f == 2 and d.levels == {2: 1}

    def test_floor_vertex(self):
        d = compute_endo_conductor(curve41(25))
        assert d.f == 4 == d.f0, "floor curves have End(E) = Z[pi]"
        assert d.levels == {2: 2}

    @pytest.mark.parametrize("j", sorted(VOLCANO_LEVELS))
    @pytest.mark.parametrize("t", [6, -6])
    def test_level_matches_scalar_criterion(self, j, t):
        E = curve41(j, t)
        d = compute_endo_conductor(E)
        assert d.levels[2] == scalar_level_oracle(E, 2, 2)
        assert d.levels[2] == VOLCANO_LEVELS[j]

    def test_twist_invariance(self):
        for j in VOLCANO_LEVELS:
            assert (
                compute_endo_conductor(curve41(j, 6)).f
                == compute_endo_conductor(curve41(j, -6)).f
            )

    def test_vertex_counts_are_ring_class_numbers(self):
        """Each order O between Z[pi] and the maximal order owns h(O)
        vertices of the trace class."""
        hist = {}
        for j in VOLCANO_LEVELS:
            f = compute_endo_conductor(curve41(j)).f
            hist[f] = hist.get(f, 0) + 1
        assert hist == {f: class_group(quad_order(-8, f)).h for f in (1, 2, 4)}

    def test_two_prime_conductors_gf31(self):
        """Trace 4 over GF(31): t^2 - 4q = -108 = 6^2 * (-3), so the
        conductor mixes levels at 2 and at 3."""
        hist = {}
        for j in range(31):
            for cls in twist_classes(F31, j):
                if cls.trace != 4:
                    continue
                E = cls.representative
                d = compute_endo_conductor(E)
                assert (d.D0, d.f0) == (-3, 6)
                assert d.f == 2 ** d.levels[2] * 3 ** d.levels[3]
                assert d.levels[2] == scalar_level_oracle(E, 2, 1)
                assert d.levels[3] == scalar_level_oracle(E, 3, 1)
                hist[d.f] = hist.get(d.f, 0) + 1
        assert hist == {
            f: class_group(quad_order(-3, f)).h for f in (1, 2, 3, 6)
        }
        assert hist == {1: 1, 2: 1, 3: 1, 6: 3}

    @pytest.mark.parametrize("p, r", [(11, 2), (41, 1)])
    def test_level_matches_sylow_exponent(self, p, r):
        """E(k) = O/(pi - 1) (Lenstra 1996).  With pi - 1 = A + f0*omega0 and
        h = v_ell(f0), the second ell-Sylow exponent b of E(k) is
        min(v_ell(A), h - level) (Miret et al. 2008): it fixes the level
        when b < v_ell(A) and bounds it otherwise, from the group alone."""
        F = field_create(p, r)
        decided = 0
        for j in F.elements():
            for cls in twist_classes(F, j):
                E = cls.representative
                if is_supersingular(E):
                    continue
                D0, f0 = discriminant_frobenius_order(F.order, cls.trace)
                A = (cls.trace - f0 * D0) // 2 - 1
                for ell, h in factorize(f0):
                    if ell > 7:
                        continue
                    b = sylow_basis(E, ell)[3]
                    level = conductor_level(E, ell)
                    if A == 0 or b < valuation(A, ell):
                        assert level == h - b
                        decided += 1
                    else:
                        assert level <= h - b
        assert decided > 0

    def test_level_needs_no_torsion_basis(self, monkeypatch):
        """The search takes its isogenies from rational kernels alone, so no
        basis of E[ell] is ever built."""

        def refuse(*args):
            raise AssertionError("torsion_basis called")

        monkeypatch.setattr(isogenion.isogeny, "torsion_basis", refuse)
        monkeypatch.setattr(isogenion.elliptic_curve, "torsion_basis", refuse)
        for j, level in VOLCANO_LEVELS.items():
            assert conductor_level(curve41(j), 2) == level

    @pytest.mark.parametrize("ell", [1, 0, 2.0, 4, 8, 41])
    def test_level_refuses_what_is_no_prime_but_p(self, ell):
        """1 used to hang in the depth's valuation, 0 divided by zero, 2.0
        failed deep inside, and 4, 8 and p = 41 returned levels."""
        with deadline(10), pytest.raises(ValueError):
            conductor_level(curve41(13), ell)

    @pytest.mark.parametrize("j", [13, 5])
    def test_level_on_a_rescaled_model(self, j):
        """A model (u^4 A, u^6 B) other than the class representative gets
        the representative's level, on the floor (j = 13) and the surface
        (j = 5)."""
        E = curve41(j)
        u = F41.from_int(3)
        model = Curve(F41, u**4 * E.A, u**6 * E.B)
        assert model != E
        assert conductor_level(model, 2) == conductor_level(E, 2) == VOLCANO_LEVELS[j]

    def test_floor_has_single_rational_isogeny(self):
        assert len(stable_cyclic_subgroups(curve41(35), 2)) == 1

    def test_non_floor_has_full_degree(self, e5, e29):
        assert len(stable_cyclic_subgroups(e5, 2)) == 3
        assert len(stable_cyclic_subgroups(e29, 2)) == 3

    @pytest.mark.parametrize("p", [7, 11, 19, 23])
    def test_supersingular_prime_field(self, p):
        """Trace 0 over GF(p), p = 3 mod 4: -4p = 2^2 * (-p), and the search
        splits the classes between Z[(1 + sqrt(-p))/2] and Z[sqrt(-p)]."""
        F = field_create(p)
        seen = set()
        for j in range(p):
            for cls in twist_classes(F, j):
                if cls.trace != 0:
                    continue
                E = cls.representative
                d = compute_endo_conductor(E)
                assert (d.D0, d.f0) == (-p, 2)
                assert d.levels[2] == scalar_level_oracle(E, 2, 1)
                assert d.f == 2 ** d.levels[2]
                seen.add(d.f)
        assert seen == {1, 2}

    @pytest.mark.parametrize("a, level", [(-1, 0), (1, 1)])
    def test_supersingular_level_beyond_prime_field(self, a, level):
        """y^2 = x^3 + a*x over GF(7^3) has trace 0 and t^2 - 4q =
        14^2 * (-7); its 2-level is read by the search alone, and 3 does not
        divide f0 = 14."""
        E = base_change(Curve(field_create(7), a, 0), 3)
        assert E.trace == 0
        assert conductor_level(E, 2) == level
        assert conductor_level(E, 2) == scalar_level_oracle(E, 2, 1)
        assert conductor_level(E, 3) == 0

    def test_supersingular_rejected(self, e49):
        with pytest.raises(OrdinaryOnly):
            compute_endo_conductor(e49)
        with pytest.raises(NotImaginaryQuadratic):
            conductor_level(e49, 2)

    def test_descriptor_plumbing(self, e29):
        d = compute_endo_conductor(e29)
        assert isinstance(d, EndoDescriptor)
        assert d.order().disc == -32
        assert d.order() == quad_order(-8, 2)
        assert d.curve_class.trace == 6
        assert "f=2" in repr(d)


class TestFrobeniusMatrix:
    def test_identity_on_full_rational_two_torsion(self, e29):
        # E29(GF(41)) = Z/2 x Z/18 contains all of E[2]
        assert frobenius_matrix(e29, 2).matrix == ((1, 0), (0, 1))

    @pytest.mark.parametrize("j", [5, 29, 25])
    def test_characteristic_polynomial_mod_8(self, j):
        M = frobenius_matrix(curve41(j), 8)
        (a, b), (c, d) = M.matrix
        sq = (
            (a * a + b * c, a * b + b * d),
            (c * a + d * c, c * b + d * d),
        )
        for i, row in enumerate(sq):
            for k, v in enumerate(row):
                lin = 6 * M.matrix[i][k] - (41 if i == k else 0)
                assert (v - lin) % 8 == 0

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_det_and_trace(self, e29, m):
        M = frobenius_matrix(e29, m)
        assert M.det == 41 % m
        assert M.tr == 6 % m

    def test_matches_fresh_dlog_build(self, e5):
        assert frobenius_matrix(e5, 4).matrix == dlog_matrix(e5, 4)[0]

    def test_action_agrees_with_frobenius(self, e29):
        M = frobenius_matrix(e29, 9)
        P, Q = M.basis
        (a, b), (c, d) = M.matrix
        rng = random.Random(17)
        for _ in range(12):
            x, y = rng.randrange(9), rng.randrange(9)
            T = point_add(scalar_mul(x, P), scalar_mul(y, Q))
            xx, yy = (a * x + b * y) % 9, (c * x + d * y) % 9
            assert frobenius_endo(T, 1) == point_add(
                scalar_mul(xx, P), scalar_mul(yy, Q)
            )

    def test_modulus_one_convention(self, e5):
        M = frobenius_matrix(e5, 1)
        assert M.matrix == ((0, 0), (0, 0))
        assert (M.det, M.tr) == (0, 0)

    @pytest.mark.parametrize("m", [3, 4])
    def test_supersingular_scalar(self, e49, m):
        s = -7 % m
        assert frobenius_matrix(e49, m).matrix == ((s, 0), (0, s))

    def test_bounds(self, e5):
        with pytest.raises(BoundExceeded) as refusal:
            frobenius_matrix(e5, 65)
        assert (refusal.value.cap, refusal.value.limit, refusal.value.requested) == (
            "M_MAX", 64, 65,
        )
        with pytest.raises(ValueError):
            frobenius_matrix(e5, 41)
        with pytest.raises(ValueError):
            frobenius_matrix(e5, 0)

    def test_gate_refuses_before_sampling_an_extension(self, monkeypatch):
        """E[32] on the floor (level 2) and E[64] on level 1 lie beyond
        GF(41^24): the gate refuses without sampling an extension, and
        frobenius_matrix inherits the refusal.  The floor's level comes from
        the base field's Sylow exponent; on level 1 that exponent leaves the
        level at 0 or 1, which give different least degrees, so one volcano
        search over GF(41) settles it."""
        sylow = isogenion.elliptic_curve.sylow_basis
        level = isogenion.endo_ring.conductor_level
        searched = []

        def base_field_only(C, ell):
            if C.field is not F41:
                raise AssertionError(f"sampled points over {C.field!r}")
            return sylow(C, ell)

        def recorded(C, ell):
            searched.append(j_invariant(C))
            return level(C, ell)

        monkeypatch.setattr(isogenion.elliptic_curve, "sylow_basis", base_field_only)
        monkeypatch.setattr(isogenion.isogeny, "sylow_basis", base_field_only)
        monkeypatch.setattr(isogenion.endo_ring, "conductor_level", recorded)
        calls = [
            (torsion_basis, 13, 32),
            (torsion_basis, 29, 64),
            (frobenius_matrix, 13, 32),
        ]
        for fn, j, m in calls:
            with deadline(10), pytest.raises(BoundExceeded) as refusal:
                fn(curve41(j), m)
            assert (refusal.value.cap, refusal.value.limit) == ("R_MAX", 24)
            assert refusal.value.requested > 24
        assert searched == [F41.from_int(29)]


class TestOrderElements:
    def test_identity_element(self, e29):
        rng = random.Random(3)
        P = e29.random_point(rng)
        assert evaluate_order_element(e29, (1, 0, 1), P) == P
        inf = e29.infinity()
        assert not evaluate_order_element(e29, (1, 0, 1), inf)

    def test_frobenius_element(self, e29):
        P = e29.random_point(random.Random(4))
        assert evaluate_order_element(e29, (0, 1, 1), P) == frobenius_endo(P, 1)

    def test_trace_identity(self, e29):
        """pi + pi-bar = t: applying (t - pi) then adding pi(P) gives t*P."""
        P = e29.random_point(random.Random(5))
        conj = evaluate_order_element(e29, (6, -1, 1), P)
        assert point_add(conj, frobenius_endo(P, 1)) == scalar_mul(6, P)

    def test_halved_frobenius_on_surface(self, e5):
        """(pi - 3)/2 exists on the surface curve; its images on E[2] are
        pinned by the dlog-built matrix of pi on E[4]."""
        M, P4, Q4 = dlog_matrix(e5, 4)
        E4 = P4.curve
        P2, Q2, _ = torsion_basis(e5, 2)
        for T in (P2, Q2, point_add(P2, Q2)):
            x, y = two_dim_dlog(embed_point(T, E4), P4, Q4, 4, 4)
            assert x % 2 == 0 and y % 2 == 0, "E[2] must be 2*E[4]"
            hx, hy = x // 2, y // 2
            ex = ((M[0][0] - 3) * hx + M[0][1] * hy) % 4
            ey = (M[1][0] * hx + (M[1][1] - 3) * hy) % 4
            want = point_add(scalar_mul(ex, P4), scalar_mul(ey, Q4))
            got = evaluate_order_element(e5, (-3, 1, 2), T)
            assert (embed_point(got, E4) if got else E4.infinity()) == want

    def test_quartered_frobenius_on_three_torsion(self, e5):
        """gamma = (pi - 3)/4 acts on E[3] as (M - 3I) * 4^{-1} mod 3."""
        M, P3, Q3 = dlog_matrix(e5, 3)
        inv4 = pow(4, -1, 3)
        rng = random.Random(9)
        for _ in range(6):
            x, y = rng.randrange(3), rng.randrange(3)
            if x == y == 0:
                continue
            T = point_add(scalar_mul(x, P3), scalar_mul(y, Q3))
            ex = ((M[0][0] - 3) * x + M[0][1] * y) * inv4 % 3
            ey = (M[1][0] * x + ((M[1][1] - 3) * y)) * inv4 % 3
            want = point_add(scalar_mul(ex, P3), scalar_mul(ey, Q3))
            got = evaluate_order_element(e5, (-3, 1, 4), T)
            assert (got if got.curve == T.curve else embed_point(got, T.curve)) == want

    def test_lift_independence(self, e29):
        """Two explicit lifts P' with 2P' = P produce the same image."""
        P = scalar_mul(2, torsion_basis(e29, 18)[1])  # order 9, rational part
        assert point_order(P) == 9
        lift1 = divide_point(P, 2)
        T2 = torsion_basis(e29, 2)[0]
        lift2 = point_add(lift1, embed_point(T2, lift1.curve))
        assert scalar_mul(2, lift2) == embed_point(P, lift1.curve)
        imgs = []
        for L in (lift1, lift2):
            imgs.append(point_add(scalar_mul(-3, L), frobenius_endo(L, 1)))
        assert imgs[0] == imgs[1]
        # and the module agrees with both
        out = evaluate_order_element(e29, (-3, 1, 2), P)
        assert embed_point(out, lift1.curve) == imgs[0]

    def test_image_stays_on_points_field(self, e5):
        P = e5.random_point(random.Random(11))
        assert evaluate_order_element(e5, (-3, 1, 2), P).curve == e5

    @pytest.mark.parametrize(
        "j,elem",
        [
            (25, (-3, 1, 2)),  # floor: End = Z[pi], nothing halves
            (29, (-3, 1, 4)),  # gamma itself needs the maximal order
            (5, (1, 0, 2)),  # 1/2 is never an endomorphism
            (5, (0, 1, 3)),  # pi/3: 3 does not divide f0
        ],
    )
    def test_rejects_elements_outside_the_ring(self, j, elem):
        E = curve41(j)
        P = E.random_point(random.Random(8))
        with pytest.raises(ValueError, match="does not lie in the conductor"):
            evaluate_order_element(E, elem, P)

    def test_accepts_gamma_on_surface(self, e5):
        T = torsion_basis(e5, 3)[0]
        out = evaluate_order_element(e5, (-3, 1, 4), T)
        assert point_order(out) in (1, 3)

    def test_argument_validation(self, e5):
        P = e5.random_point(random.Random(2))
        with pytest.raises(ValueError):
            evaluate_order_element(e5, (1, 0, 0), P)
        with pytest.raises(ValueError):
            evaluate_order_element(e5, (1, 0, -2), P)
        with pytest.raises(ValueError):
            evaluate_order_element(e5, (41, 0, 41), P)
        with pytest.raises(TypeError):
            evaluate_order_element(e5, (1.0, 0, 1), P)

    def test_point_order_must_avoid_characteristic(self):
        F5 = field_create(5)
        E = None
        for a in range(5):
            for b in range(5):
                try:
                    C = Curve(F5, a, b)
                except SingularCurve:
                    continue
                if C.order == 5:
                    E = C
                    break
            if E:
                break
        assert E is not None, "GF(5) carries a trace-1 curve"
        P = E.random_point(random.Random(1))
        with pytest.raises(ValueError):
            evaluate_order_element(E, (1, 0, 1), P)

    def test_supersingular_rejected(self, e49):
        with pytest.raises(OrdinaryOnly):
            evaluate_order_element(e49, (1, 0, 1), e49.random_point(random.Random(0)))

    def test_curve_mismatch(self, e5):
        W = quadratic_twist(e5)
        with pytest.raises(CurveMismatch):
            evaluate_order_element(e5, (1, 0, 1), W.random_point(random.Random(6)))


class TestOrderGeneratorElement:
    def test_frozen_gf41_family(self):
        assert order_generator_element(curve41(5)) == (-3, 1, 4)
        assert order_generator_element(curve41(29)) == (-3, 1, 2)
        assert order_generator_element(curve41(25)) == (-3, 1, 1)

    def test_j_zero_gf31(self):
        E = next(
            c.representative
            for c in twist_classes(F31, 0)
            if c.trace == 4
        )
        assert order_generator_element(E) == (1, 1, 6)

    @pytest.mark.parametrize("j", sorted(VOLCANO_LEVELS))
    def test_trace_and_norm_match_the_abstract_order(self, j):
        E = curve41(j)
        u, v, w = order_generator_element(E)
        d = compute_endo_conductor(E)
        ring = quad_order(d.D0, d.f)
        assert 2 * u + v * 6 == w * ring.Tw  # the trace of f*gamma
        assert u * u + u * v * 6 + v * v * 41 == w * w * ring.element_norm(0, 1)


class TestAnnihilatorIndex:
    def test_descending_kernel_counted_by_lifting(self, e5):
        K = kernel_toward(e5, 2, 29)
        assert lifted_annihilator_index(e5, K, 2) == 4
        assert annihilator_index(e5, K, 2) == 4

    def test_ascending_kernel_counted_by_lifting(self, e29):
        K = kernel_toward(e29, 2, 5)
        assert lifted_annihilator_index(e29, K, 2) == 2
        assert annihilator_index(e29, K, 2) == 2

    def test_horizontal_kernel_has_norm_degree(self, e5):
        K = kernel_toward(e5, 2, 5)
        assert annihilator_index(e5, K, 2) == 2 == lifted_annihilator_index(e5, K, 2)

    def test_three_isogenies_are_horizontal(self, e29):
        kernels = stable_cyclic_subgroups(e29, 3)
        assert kernels
        for K in kernels:
            assert annihilator_index(e29, K, 3) == 3
        assert lifted_annihilator_index(e29, kernels[0], 3) == 3

    @pytest.mark.parametrize("j", sorted(VOLCANO_LEVELS))
    @pytest.mark.parametrize("e", [1, 2])
    def test_index_formula_sweep(self, j, e):
        """[End : I(ker)] = ell^rho(e') * deg with e' the level change."""
        E = curve41(j)
        lsrc = compute_endo_conductor(E).levels[2]
        m = 2**e
        for K in stable_cyclic_subgroups(E, 2, e):
            ltgt = compute_endo_conductor(velu(E, K, m).target_curve).levels[2]
            shift = max(ltgt - lsrc, 0)
            assert annihilator_index(E, K, m) == 2**shift * m

    def test_generator_choice_is_irrelevant(self, e5):
        K = stable_cyclic_subgroups(e5, 2, 2)[0]
        assert annihilator_index(e5, K, 4) == annihilator_index(
            e5, scalar_mul(3, K), 4
        )

    @pytest.mark.parametrize("p,m", [(7, 2), (7, 3), (11, 3)], ids=["2", "3", "11-3"])
    def test_supersingular_index_is_degree_squared(self, e49, p, m):
        """t^2 = 4q: over GF(7^2) t = -14; over GF(11^2) t = 22, where the
        Frobenius is 11 and E[3] is rational only over GF(11^4)."""
        E = e49 if p == 7 else curve_from_j(field_create(11, 2), 0, 22)
        P, Q, _ = torsion_basis(E, m)
        assert annihilator_index(E, P, m) == m * m
        assert annihilator_index(E, point_add(P, Q), m) == m * m

    @pytest.mark.parametrize(
        "p,r,j,t,m",
        [(7, 2, 6, 0, 2), (11, 2, 0, 11, 3), (11, 2, 0, -11, 3), (5, 3, 0, 0, 2), (5, 3, 0, 0, 3)],
    )
    def test_supersingular_with_frobenius_outside_z_is_refused(self, p, r, j, t, m):
        """t^2 != 4q beyond GF(p): End_k(E) is commutative and its index over
        Z[pi] divides f0, so a stable kernel's index is not m^2 (over GF(7^2)
        a stable 2-kernel has index 2, not 4).  annihilator_index refuses as
        compute_endo_conductor does."""
        E = curve_from_j(field_create(p, r), j, t)
        with pytest.raises(OrdinaryOnly):
            compute_endo_conductor(E)
        gens = stable_cyclic_subgroups(E, m)
        assert gens
        for gen in gens:
            with pytest.raises(OrdinaryOnly):
                annihilator_index(E, gen, m)

    def test_trivial_subgroup(self, e5):
        assert annihilator_index(e5, e5.infinity(), 1) == 1
        assert annihilator_index(e5, None, 1) == 1

    def test_validation(self, e5):
        T = torsion_basis(e5, 2)[0]
        with pytest.raises(BoundExceeded):
            annihilator_index(e5, T, 128)
        with pytest.raises(WrongOrder):
            annihilator_index(e5, T, 4)
        with pytest.raises(ValueError):
            annihilator_index(e5, T, 41)
        with pytest.raises(WrongOrder):
            annihilator_index(e5, e5.infinity(), 2)
        W = quadratic_twist(e5)
        with pytest.raises(CurveMismatch):
            annihilator_index(e5, W.random_point(random.Random(1)), 2)
