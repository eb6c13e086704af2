"""Hom-module indices cross-examined by other meters.

The index formula under test never enumerates endomorphisms: it reads
conductor valuations off the two endomorphism rings and multiplies by the
degree.  Two meters are independent of it: a lifted-division lattice
built from the oracles' order_generator_element (evaluate_order_element
applies (u + v*pi)/w through point division, a completely separate code
path), and, over a prime field with trace zero, where f*gamma is the
Frobenius itself, direct point arithmetic with frobenius_endo.  The
comparisons with endo_ring.annihilator_index are not: it reads the same
annihilator_lattice that hom_index checks its formula against, and
pair_report's oracle_index is the index of that very lattice, read off
hom_index's basis (one lattice per sample, which a counter checks).  The
quaternionic index (t^2 = 4q) is checked only against the literal n^2,
since hom_index and annihilator_index both return n^2 once
elliptic_curve.frobenius_is_integer holds, so comparing them is not
independent either.
Kernel points, their orders and the backtrack factor come from the
isogeny's own E[b] scan, which tests/test_isogeny.py checks against
oracles.prime_by_prime_order.
"""

import json
from math import lcm, prod

import pytest

from isogenion import endo_ring, hom_index_kernel
from isogenion.elliptic_curve import (
    base_change,
    curve_class,
    curve_from_j,
    embed_point,
    frobenius_endo,
    point_add,
    point_order,
    scalar_mul,
    torsion_basis,
    twist_classes,
)
from isogenion.endo_ring import annihilator_index, frobenius_matrix
from isogenion.errors import (
    BoundExceeded,
    CurveMismatch,
    NotIsogenous,
    OrderMismatch,
    OrdinaryOnly,
    PPartUnsupported,
    SupersingularUnsupported,
    TraceMismatch,
)
from isogenion.finite_field import field_create
from isogenion.hom_index_kernel import (
    annihilator_ideal,
    conductor_ratio,
    corresponds_to_kernel_ideal,
    hom_index,
    hom_lattice_basis,
    kernel_of_ideal,
    p_part_ideal,
    pair_report,
    rho,
    stable_cyclic_kernels,
)
from isogenion.isogeny import (
    compose,
    cyclic_isogenies,
    dual,
    evaluate,
    multiplication_isogeny,
    velu,
)
from isogenion.quadratic_order import (
    QuadIdeal,
    ideal_conjugate,
    ideal_multiply,
    is_invertible,
    primes_above,
    quad_order,
    unit_ideal,
)
from oracles import (
    cyclic_lines,
    deadline,
    evaluate_order_element,
    order_generator_element,
)

F41 = field_create(41)
F53 = field_create(53)

# 2-adic levels of the seven trace-6 vertices over GF(41)
LEVELS = {5: 0, 29: 1, 22: 1, 13: 2, 33: 2, 25: 2, 35: 2}

SWEEP_DEGREES = (2, 3, 4, 6, 8, 9, 12)


@pytest.fixture(scope="module")
def volcano():
    return {j: curve_from_j(F41, j, 6) for j in LEVELS}


@pytest.fixture(scope="module")
def e0_53():
    """Trace-zero curve over GF(53); End_k is the maximal order of disc -212."""
    return curve_from_j(F53, 0, 0)


def isogeny_onto(E, n, target_j):
    """First degree-n isogeny from E whose target class has j = target_j."""
    for K in stable_cyclic_kernels(E, n):
        phi = velu(E, K, n)
        if curve_class(phi.target_curve).j.lift_int() == target_j:
            return phi
    raise AssertionError(f"no degree-{n} kernel from this curve hits j={target_j}")


def lifted_members(E, K, n):
    """All (x, y) mod n with (x + y*f*gamma)(K) = 0, via lifted division."""
    image = evaluate_order_element(E, order_generator_element(E), K)
    return {
        (x, y)
        for x in range(n)
        for y in range(n)
        if not point_add(scalar_mul(x, K), scalar_mul(y, image))
    }


def line_scan_kernels(E, n):
    """Stable cyclic kernels the long way: scan every cyclic line of (Z/n)^2
    on a basis of all of E[n] for the lines the Frobenius matrix fixes."""
    fm = frobenius_matrix(E, n)
    P, Q = fm.basis
    (a, b), (c, d) = fm.matrix
    # the image (s', u') lies on the line through (s, u) iff s*u' - u*s' = 0 mod n
    return [
        point_add(scalar_mul(s, P), scalar_mul(u, Q))
        for s, u in cyclic_lines(n)
        if (s * (c * s + d * u) - u * (a * s + b * u)) % n == 0
    ]


def basis_span(desc, n):
    """The subgroup of (Z/n)^2 generated by a descriptor's basis rows."""
    first, (mult, b, corr) = desc.basis
    return {
        ((i * first + j * mult * b * corr) % n, (j * mult) % n)
        for i in range(n)
        for j in range(n)
    }


class TestExponentClip:
    @pytest.mark.parametrize("e, out", [(3, 3), (1, 1), (0, 0), (-1, 0), (-7, 0)])
    def test_values(self, e, out):
        assert rho(e) == out

    @pytest.mark.parametrize("bad", ["2", 2.0, None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            rho(bad)


class TestConductorRatio:
    def test_matches_volcano_levels(self, volcano):
        """Signed 2-valuations reproduce the level differences everywhere."""
        for a in LEVELS:
            for b in LEVELS:
                want = {} if LEVELS[a] == LEVELS[b] else {2: LEVELS[b] - LEVELS[a]}
                assert conductor_ratio(volcano[a], volcano[b]) == want

    def test_antisymmetry(self, volcano):
        for a in LEVELS:
            for b in LEVELS:
                fwd = conductor_ratio(volcano[a], volcano[b])
                rev = conductor_ratio(volcano[b], volcano[a])
                assert fwd == {ell: -e for ell, e in rev.items()}

    def test_prime_field_supersingular_is_flat(self, e0_53):
        # every trace-0 class over GF(53) has the full maximal order
        other = curve_from_j(F53, 46, 0)
        assert conductor_ratio(e0_53, other) == {}
        assert conductor_ratio(other, e0_53) == {}

    def test_different_traces_are_not_isogenous(self, volcano):
        twisted = curve_from_j(F41, 5, -6)
        with pytest.raises(NotIsogenous):
            conductor_ratio(volcano[5], twisted)

    def test_different_fields_are_not_isogenous(self, volcano, e0_53):
        with pytest.raises(NotIsogenous):
            conductor_ratio(volcano[5], e0_53)


class TestKernelIdealCorrespondence:
    def test_direction_on_volcano(self, volcano):
        """Kernels are cut out by ideals exactly when no step descends."""
        for a in LEVELS:
            for b in LEVELS:
                expected = LEVELS[b] <= LEVELS[a]
                assert corresponds_to_kernel_ideal(volcano[a], volcano[b]) == expected

    def test_trace_mismatch(self, volcano):
        """conductor_ratio owns the refusal, so both refuse alike."""
        twisted = curve_from_j(F41, 5, -6)
        for refuse in (conductor_ratio, corresponds_to_kernel_ideal):
            with pytest.raises(TraceMismatch, match="traces 6 and -6 differ; the curves"):
                refuse(volcano[5], twisted)


class TestIndexAnchors:
    """Hand-sized isogenies whose descriptors are pinned field by field."""

    def test_descending_degree_two(self, volcano):
        phi = isogeny_onto(volcano[5], 2, 29)
        d = hom_index(volcano[5], volcano[29], phi)
        assert d.index == 4
        assert d.conductor_ratio == {2: 1}
        assert d.beta_degree == 2
        assert d.backtrack_factor == 1
        # Hom = 2*End(E29): no residue of x + y*f*gamma kills the kernel
        assert d.basis == (2, (2, 0, 1))

    def test_ascending_degree_two(self, volcano):
        phi = isogeny_onto(volcano[29], 2, 5)
        d = hom_index(volcano[29], volcano[5], phi)
        assert d.index == 2
        assert d.conductor_ratio == {2: -1}
        assert d.basis == (2, (1, 0, 2))

    def test_horizontal_loop(self, volcano):
        """The norm-2 endomorphism of the crater curve.

        Its kernel is E[f*gamma], so the annihilator is the ramified prime
        above 2 — invertible, and the round trip through kernel_of_ideal
        returns exactly the kernel again.
        """
        phi = isogeny_onto(volcano[5], 2, 5)
        d = hom_index(volcano[5], volcano[5], phi)
        assert d.index == 2
        assert d.conductor_ratio == {}
        assert d.basis == (2, (1, 0, 1))

        O5 = quad_order(-8, 1)
        K = phi.kernel_gen
        I = annihilator_ideal(volcano[5], [K])
        assert I == QuadIdeal(O5, 1, 2, 0)
        assert is_invertible(I)
        H = kernel_of_ideal(volcano[5], I)
        assert len(H) == 2  # identity plus the kernel generator

    def test_two_step_ascent(self, volcano):
        phi = isogeny_onto(volcano[13], 4, 5)
        d = hom_index(volcano[13], volcano[5], phi)
        assert d.index == 4
        assert d.conductor_ratio == {2: -2}
        assert d.basis == (4, (1, 0, 4))

    def test_degree_six_conjugate_witnesses(self, volcano):
        """Two distinct 6-kernels hit j=25; their ideals are conjugates."""
        found = []
        for K in stable_cyclic_kernels(volcano[29], 6):
            phi = velu(volcano[29], K, 6)
            if curve_class(phi.target_curve).j.lift_int() != 25:
                continue
            d = hom_index(volcano[29], volcano[25], phi)
            assert d.index == 12
            assert d.index == annihilator_index(volcano[29], K, 6)
            found.append(d.basis)
        firsts = {first for first, _ in found}
        bs = sorted(rest[1] for _, rest in found)
        assert firsts == {6}
        assert bs == [1, 2]

    def test_identity(self, volcano):
        d = hom_index(volcano[5], volcano[5], velu(volcano[5], None, 1))
        assert d.index == 1
        assert d.basis == (1, (1, 0, 1))
        assert d.backtrack_factor == 1

    def test_multiplication_by_seven_reads_orders_off_the_degree(self):
        """On GF(23), j = 14, t = -6, E[7] lies over GF(23^21); the kernel
        points' orders come from the separable degree 49, without
        factoring #E(GF(23^21))."""
        E = curve_from_j(field_create(23), 14, -6)
        with deadline(2):
            d = hom_index(E, E, multiplication_isogeny(E, 7))
        assert (d.index, d.backtrack_factor, d.basis) == (49, 7, (7, (7, 0, 1)))

    def test_multiplication_by_two(self, volcano):
        """dual(phi) o phi = [2] has the non-cyclic kernel E[2].

        The module is then 2*Hom(E, E) = 2*End(E): the backtrack factor 2
        is split off and the primitive part is the identity's module.
        """
        phi = isogeny_onto(volcano[5], 2, 29)
        two = compose(dual(phi), phi)
        d = hom_index(volcano[5], volcano[5], two)
        assert d.beta_degree == 4
        assert d.backtrack_factor == 2
        assert d.index == 4
        assert d.basis == (2, (2, 0, 1))

    def test_source_curve_must_match(self, volcano):
        phi = isogeny_onto(volcano[5], 2, 29)
        with pytest.raises(CurveMismatch):
            hom_index(volcano[29], volcano[29], phi)

    def test_target_class_must_match(self, volcano):
        phi = isogeny_onto(volcano[5], 2, 29)
        with pytest.raises(CurveMismatch):
            hom_index(volcano[5], volcano[25], phi)

    def test_trace_mismatch_beats_everything(self, volcano):
        ident = velu(volcano[5], None, 1)
        with pytest.raises(TraceMismatch):
            hom_index(volcano[5], curve_from_j(F41, 5, -6), ident)

    def test_rejects_non_isogeny(self, volcano):
        with pytest.raises(TypeError):
            hom_index(volcano[5], volcano[5], "phi")


class TestLatticeShapes:
    def test_identity_is_the_whole_ring(self, volcano):
        hb = hom_lattice_basis(volcano[5], volcano[5], velu(volcano[5], None, 1))
        assert (hb.degree, hb.outer, hb.b, hb.correction) == (1, 1, 0, 1)
        assert hb.backtrack_stripped == 1
        assert hb.conductor_ratio == {}

    def test_ascending_presentation(self, volcano):
        """Up one level, Hom is Z*dual + Z*(f*gamma)*dual / degree."""
        phi = isogeny_onto(volcano[29], 2, 5)
        hb = hom_lattice_basis(volcano[29], volcano[5], phi)
        assert (hb.degree, hb.outer, hb.b, hb.correction) == (2, 1, 0, 2)
        assert hb.conductor_ratio == {2: -1}

    def test_backtracking_is_stripped(self, volcano):
        phi = isogeny_onto(volcano[5], 2, 29)
        hb = hom_lattice_basis(volcano[5], volcano[5], compose(dual(phi), phi))
        assert hb.backtrack_stripped == 2
        assert (hb.degree, hb.outer, hb.b, hb.correction) == (1, 1, 0, 1)

    def test_no_presentation_for_quaternions(self):
        F121 = field_create(11, 2)
        classes = {c.key(): c for j in range(11) for c in twist_classes(F121, j) if c.trace == -22}
        E = next(iter(classes.values())).representative
        K = next(iter(stable_cyclic_kernels(E, 2)))
        phi = velu(E, K, 2)
        with pytest.raises(ValueError):
            hom_lattice_basis(E, phi.target_curve, phi)


class TestLiftedLatticeOracle:
    """Recount each pinned module through evaluate_order_element.

    Membership of (x, y) is decided by applying x + y*(f*gamma) with point
    division and lifting, never with torsion matrices; the resulting set
    must be exactly the span of the descriptor's two basis rows, and its
    size must recount the index as n^2 / |members|.
    """

    @pytest.mark.parametrize(
        "src, dst, n",
        [(5, 29, 2), (29, 5, 2), (5, 5, 2), (13, 5, 4), (29, 25, 6)],
    )
    def test_members_match_basis_span(self, volcano, src, dst, n):
        phi = isogeny_onto(volcano[src], n, dst)
        d = hom_index(volcano[src], volcano[dst], phi)
        members = lifted_members(volcano[src], phi.kernel_gen, n)
        assert members == basis_span(d, n)
        assert d.index == n * n // len(members)


class TestPrimeFieldSupersingular:
    """Trace zero over GF(53), where f*gamma is the Frobenius itself.

    End_k(E) = Z[pi] is quadratic here, and the independent meter is
    direct: apply x + y*pi with frobenius_endo and point arithmetic.
    """

    def test_matching_edge(self, e0_53):
        O53 = quad_order(-212, 1)
        P2 = QuadIdeal(O53, 1, 2, 1)
        H = kernel_of_ideal(e0_53, P2)
        pts = [T for T in H if T]
        assert len(H) == 2 and len(pts) == 1
        phi = velu(e0_53, pts[0], 2)
        assert curve_class(phi.target_curve).j.lift_int() == 46
        assert annihilator_ideal(e0_53, H) == P2

        other = curve_from_j(F53, 46, 0)
        d = hom_index(e0_53, other, phi)
        assert d.index == 2
        assert d.conductor_ratio == {}
        assert d.basis == (2, (1, 1, 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_index_against_frobenius_arithmetic(self, e0_53, n):
        for K in stable_cyclic_kernels(e0_53, n):
            # targets may land on either trace-0 twist of their j-invariant,
            # so the velu model itself names the class
            phi = velu(e0_53, K, n)
            d = hom_index(e0_53, phi.target_curve, phi)
            piK = frobenius_endo(K, 1)
            members = {
                (x, y)
                for x in range(n)
                for y in range(n)
                if not point_add(scalar_mul(x, K), scalar_mul(y, piK))
            }
            assert d.index == n * n // len(members)
            assert members == basis_span(d, n)

    def test_principal_two_cuts_full_two_torsion(self, e0_53):
        O53 = quad_order(-212, 1)
        H = kernel_of_ideal(e0_53, QuadIdeal(O53, 2, 1, 0))
        assert sorted(point_order(T) for T in H if T) == [2, 2, 2]


class TestQuaternionicIndex:
    """Full endomorphism rings: the index collapses to (deg)^2."""

    @pytest.mark.parametrize("p, classes", [(11, 2), (13, 1)])
    def test_square_law(self, p, classes):
        F = field_create(p, 2)
        reps = {}
        for j in range(p):
            for c in twist_classes(F, j):
                if c.trace == -2 * p:
                    reps[c.key()] = c.representative
        assert len(reps) == classes
        for E in reps.values():
            for n in (2, 3):
                for K in stable_cyclic_kernels(E, n):
                    phi = velu(E, K, n)
                    d = hom_index(E, phi.target_curve, phi)
                    assert d.index == n * n
                    assert d.index == annihilator_index(E, K, n)
                    assert d.basis is None
                    assert d.conductor_ratio == {}

    def test_mixed_supersingular_is_rejected(self):
        # trace p over GF(p^2): pi is no integer, and End_k is not computed
        F121 = field_create(11, 2)
        E = next(
            c.representative
            for j in range(11)
            for c in twist_classes(F121, j)
            if c.trace == 11
        )
        with pytest.raises(OrdinaryOnly):
            hom_index(E, E, velu(E, None, 1))


class TestSweepAgainstAnnihilator:
    def test_every_reachable_pair(self, volcano):
        """Degrees up to 12 from all seven vertices: formula == brute count.

        141 kernels reach 45 of the 49 ordered class pairs (floor-to-same-
        floor needs degree 36).  Along the way the round trip through
        I(ker) -> H(I) must return the kernel exactly on ideal-theoretic
        pairs and strictly enlarge it on all others.
        """
        key_to_j = {curve_class(volcano[j]).key(): j for j in LEVELS}
        covered = {}
        witness, matched = set(), set()
        checked = 0
        for j, E in volcano.items():
            for n in SWEEP_DEGREES:
                for K in stable_cyclic_kernels(E, n):
                    phi = velu(E, K, n)
                    tj = key_to_j[curve_class(phi.target_curve).key()]
                    d = hom_index(E, volcano[tj], phi)
                    assert d.index == annihilator_index(E, K, n), (j, tj, n)
                    divisor = prod(
                        ell ** abs(e) for ell, e in d.conductor_ratio.items()
                    )
                    assert n % divisor == 0
                    checked += 1
                    covered.setdefault((j, tj), set()).add(n)

                    I = annihilator_ideal(E, [K])
                    H = kernel_of_ideal(E, I)
                    rdeg = lcm(
                        K.curve.field.r,
                        max((T.curve.field.r for T in H if T), default=1),
                    )
                    EK = base_change(E, rdeg)
                    kset = {
                        ((S := embed_point(scalar_mul(a, K), EK)).x, S.y)
                        for a in range(1, n)
                    }
                    hset = {((S := embed_point(T, EK)).x, S.y) for T in H if T}
                    if hset == kset:
                        matched.add((j, tj))
                    else:
                        assert kset < hset, "kernel must sit inside H(I(ker))"
                        witness.add((j, tj))

        assert checked == 141
        assert len(covered) == 45
        missing = {(a, b) for a in LEVELS for b in LEVELS if (a, b) not in covered}
        assert missing == {(13, 13), (25, 25), (33, 33), (35, 35)}
        for pair in covered:
            if corresponds_to_kernel_ideal(volcano[pair[0]], volcano[pair[1]]):
                assert pair in matched and pair not in witness
            else:
                assert pair in witness and pair not in matched


class TestDualSymmetry:
    @pytest.mark.parametrize("src, dst, n", [(5, 29, 2), (29, 25, 6), (13, 5, 4)])
    def test_ratio_negates_and_index_follows(self, volcano, src, dst, n):
        phi = isogeny_onto(volcano[src], n, dst)
        d = hom_index(volcano[src], volcano[dst], phi)
        back = hom_index(phi.target_curve, volcano[src], dual(phi))
        assert back.conductor_ratio == {
            ell: -e for ell, e in d.conductor_ratio.items()
        }
        assert back.beta_degree == n
        assert back.index == n * prod(
            ell ** rho(-e) for ell, e in d.conductor_ratio.items()
        )


class TestKernelOfIdeal:
    def test_split_norm_three_primes(self, volcano):
        """Both primes above 3 in disc -8 are principal: two loops at j=5."""
        O5 = quad_order(-8, 1)
        for b in (1, 2):
            I = QuadIdeal(O5, 1, 3, b)
            H = kernel_of_ideal(volcano[5], I)
            pts = [T for T in H if T]
            assert len(pts) == 2
            gen = pts[0]
            phi = velu(volcano[5], gen, 3)
            assert curve_class(phi.target_curve).j.lift_int() == 5
            assert annihilator_ideal(volcano[5], H) == I
        assert ideal_conjugate(QuadIdeal(O5, 1, 3, 1)) == QuadIdeal(O5, 1, 3, 2)

    def test_non_invertible_ideal_is_still_a_kernel_ideal(self, volcano):
        """On the floor, the non-invertible norm-4 ideal cuts out Z/4.

        Non-invertibility does not exclude an ideal from the kernel
        correspondence: the round trip I -> H(I) -> I closes.
        """
        O13 = quad_order(-8, 4)
        I = QuadIdeal(O13, 1, 4, 0)
        assert not is_invertible(I)
        H = kernel_of_ideal(volcano[13], I)
        assert sorted(point_order(T) for T in H if T) == [2, 4, 4]
        assert annihilator_ideal(volcano[13], H) == I

    def test_invertible_norm_four_neighbour(self, volcano):
        O13 = quad_order(-8, 4)
        I = QuadIdeal(O13, 1, 4, 2)
        assert is_invertible(I)
        H = kernel_of_ideal(volcano[13], I)
        assert sorted(point_order(T) for T in H if T) == [2, 4, 4]
        assert annihilator_ideal(volcano[13], H) == I

    def test_principal_two_on_the_floor(self, volcano):
        O13 = quad_order(-8, 4)
        H = kernel_of_ideal(volcano[13], QuadIdeal(O13, 2, 1, 0))
        assert sorted(point_order(T) for T in H if T) == [2, 2, 2]

    def test_rejects_foreign_order(self, volcano):
        with pytest.raises(OrderMismatch):
            kernel_of_ideal(volcano[5], unit_ideal(quad_order(-8, 2)))

    def test_rejects_p_part(self, volcano):
        with pytest.raises(PPartUnsupported):
            kernel_of_ideal(volcano[5], p_part_ideal(volcano[5], 1, 1))

    def test_norm_cap(self, e0_53):
        with pytest.raises(BoundExceeded):
            kernel_of_ideal(e0_53, QuadIdeal(quad_order(-212, 1), 65, 1, 0))

    def test_rejects_non_ideal(self, volcano):
        with pytest.raises(TypeError):
            kernel_of_ideal(volcano[5], (1, 2, 0))


class TestAnnihilatorIdeal:
    def test_empty_input_gives_unit(self, volcano):
        assert annihilator_ideal(volcano[5], []) == unit_ideal(quad_order(-8, 1))
        inf = volcano[5].infinity()
        assert annihilator_ideal(volcano[5], [inf]) == unit_ideal(quad_order(-8, 1))

    def test_full_two_torsion(self, volcano):
        P, Q, _ = torsion_basis(volcano[5], 2)
        I = annihilator_ideal(volcano[5], [P, Q, point_add(P, Q)])
        assert I == QuadIdeal(quad_order(-8, 1), 2, 1, 0)

    def test_orders_are_read_without_factoring_the_group_order(self):
        """The ramified prime above 7 of the maximal order of discriminant
        -56 (GF(23), j = 14, t = -6) cuts out a subgroup over an extension;
        every accepted order divides lcm(1, ..., M_MAX), so #E(K) is not
        factored."""
        E = curve_from_j(field_create(23), 14, -6)
        P7 = primes_above(quad_order(-56), 7)[0]
        with deadline(2):
            I = annihilator_ideal(E, kernel_of_ideal(E, P7))
        assert I == P7

    def test_saturates_unstable_subgroups(self, volcano):
        """A lone 5-torsion point spans no stable line, so I is all of (5).

        Annihilators are ideals for any input (the order is commutative);
        the result describes the End-saturation of what was given.
        """
        P, _, _ = torsion_basis(volcano[5], 5)
        I = annihilator_ideal(volcano[5], [P])
        assert I == QuadIdeal(quad_order(-8, 1), 5, 1, 0)
        assert len(kernel_of_ideal(volcano[5], I)) == 25


class TestPiAdicFactor:
    def test_splits_the_prime(self, volcano):
        O5 = quad_order(-8, 1)
        P1 = p_part_ideal(volcano[5], 1, 1)
        P2 = p_part_ideal(volcano[5], 0, 1)
        assert P1.norm == 41 and P2.norm == 41
        assert P1 != P2
        assert P2 == ideal_conjugate(P1)
        assert ideal_multiply(P1, P2) == QuadIdeal(O5, 41, 1, 0)

    def test_contains_frobenius(self, volcano):
        """pi itself lies in the chosen factor and not in its conjugate."""
        u, v, w = order_generator_element(volcano[5])
        assert v == 1  # pi = w*f*gamma - u, so coordinates are (-u, w)
        P1 = p_part_ideal(volcano[5], 1, 1)
        P2 = p_part_ideal(volcano[5], 0, 1)
        assert (-u - w * P1.b) % 41 == 0
        assert (-u - w * P2.b) % 41 != 0

    def test_exponent_arithmetic(self, volcano):
        O5 = quad_order(-8, 1)
        P1 = p_part_ideal(volcano[5], 1, 1)
        assert p_part_ideal(volcano[5], 0, 0) == unit_ideal(O5)
        assert p_part_ideal(volcano[5], 1, 2) == QuadIdeal(O5, 41, 1, 0)
        assert p_part_ideal(volcano[5], 2, 2) == ideal_multiply(P1, P1)

    def test_on_the_floor(self, volcano):
        P1 = p_part_ideal(volcano[13], 1, 1)
        assert P1.norm == 41
        assert (P1.order.D0, P1.order.f) == (-8, 4)

    def test_rejects_supersingular(self, e0_53):
        with pytest.raises(SupersingularUnsupported):
            p_part_ideal(e0_53, 1, 1)

    @pytest.mark.parametrize("e1, e", [(2, 1), (-1, 1)])
    def test_exponent_order(self, volcano, e1, e):
        with pytest.raises(ValueError):
            p_part_ideal(volcano[5], e1, e)

    def test_rejects_non_integers(self, volcano):
        with pytest.raises(TypeError):
            p_part_ideal(volcano[5], 1.0, 2)

    def test_norm_cap(self, volcano):
        with pytest.raises(BoundExceeded):
            p_part_ideal(volcano[5], 2, 4)  # 41^4 > 10^6


class TestStableCyclicKernels:
    # target j multisets, one entry per stable cyclic subgroup
    TARGETS = {
        (5, 2): [5, 22, 29],
        (5, 3): [5, 5],
        (5, 4): [13, 22, 25, 29, 33, 35],
        (5, 6): [5, 5, 22, 22, 29, 29],
        (29, 2): [5, 13, 33],
        (29, 3): [22, 22],
        (29, 4): [5, 22],
        (29, 6): [5, 5, 25, 25, 35, 35],
        (13, 2): [29],
        (13, 3): [25, 35],
        (13, 4): [5, 33],
        (13, 6): [22, 22],
    }

    @pytest.mark.parametrize("j, n", sorted(TARGETS))
    def test_counts_and_targets(self, volcano, j, n):
        kernels = list(stable_cyclic_kernels(volcano[j], n))
        for K in kernels:
            assert point_order(K) == n
        got = sorted(
            curve_class(velu(volcano[j], K, n).target_curve).j.lift_int()
            for K in kernels
        )
        assert got == self.TARGETS[(j, n)]

    def test_rejects_order_one(self, volcano):
        with pytest.raises(ValueError):
            list(stable_cyclic_kernels(volcano[5], 1))

    def test_rejects_characteristic(self, volcano):
        with pytest.raises(ValueError):
            list(stable_cyclic_kernels(volcano[5], 41))

    def test_order_cap(self, volcano):
        with pytest.raises(BoundExceeded):
            list(stable_cyclic_kernels(volcano[5], 65))

    def test_order_32_on_the_floor(self, volcano):
        # E[32] on a floor curve lies past the field cap, but each of its
        # four stable cyclic subgroups is pointwise rational over GF(41^8)
        E = volcano[13]
        kernels = stable_cyclic_kernels(E, 32)
        assert len(kernels) == 4
        assert all(point_order(K) == 32 for K in kernels)
        polys = {velu(E, K, 32).kernel_polynomial() for K in kernels}
        assert len(polys) == 4

    def test_extension_cap_on_the_floor(self, volcano):
        # the roots of x^2 - 6x + 41 mod 59 have multiplicative order 29, so
        # the kernels would need GF(41^29)
        with pytest.raises(BoundExceeded):
            stable_cyclic_kernels(volcano[13], 59)

    @pytest.mark.parametrize("j, n", [(5, 6), (29, 12), (13, 12)])
    def test_same_order_as_cyclic_isogenies(self, volcano, j, n):
        # K of exact order n in the kernel of a degree-n isogeny generates it.
        # The kernels are read off these isogenies, so this only pins that
        # reading; line_scan_kernels is the independent check.
        kernels = stable_cyclic_kernels(volcano[j], n)
        isogenies = cyclic_isogenies(volcano[j], n)
        assert len(kernels) == len(isogenies)
        for K, phi in zip(kernels, isogenies):
            assert not evaluate(phi, K)

    @pytest.mark.parametrize(
        "p, r, j, t, n",
        [(41, 1, 13, 6, 12), (7, 2, 0, -2, 6)],
        ids=["gf41-j13-n12", "gf49-j0-n6"],
    )
    def test_composite_chain_has_the_index_of_one_velu_step(self, p, r, j, t, n):
        # a chain of two prime-power steps, read through its stored generator,
        # against a single Velu quotient by the same kernel; over GF(7^2) the
        # generator lives on the base change of E to GF(7^4)
        E = curve_from_j(field_create(p, r), j, t)
        for phi in cyclic_isogenies(E, n):
            assert len(phi._steps) == 2
            one = velu(E, phi.kernel_gen, n)
            assert one.target_curve == phi.target_curve
            chain = hom_index(E, phi.target_curve, phi)
            step = hom_index(E, one.target_curve, one)
            assert (chain.index, chain.basis, chain.conductor_ratio) == (
                step.index,
                step.basis,
                step.conductor_ratio,
            )

    @pytest.mark.parametrize(
        "j, n", [(j, n) for j in (5, 29, 13) for n in (8, 9, 12)] + [(29, 16)]
    )
    def test_same_subgroups_as_the_line_scan(self, volcano, j, n):
        E = volcano[j]
        got = [velu(E, K, n).kernel_polynomial() for K in stable_cyclic_kernels(E, n)]
        want = {velu(E, K, n).kernel_polynomial() for K in line_scan_kernels(E, n)}
        assert len(set(got)) == len(got)
        assert set(got) == want


class TestPairReport:
    EXPECTED_29_25 = (
        '{"conductor_ratio": {"2": 1}, "corresponds": false, '
        '"formula_index": [12, 16], "oracle_index": [12, 16], '
        '"sample_degrees": [6, 8], "source_j": 29, "target_j": 25}'
    )

    def test_descending_pair(self, volcano):
        assert pair_report(volcano[29], volcano[25]) == self.EXPECTED_29_25

    def test_loop_pair(self, volcano):
        report = pair_report(volcano[5], volcano[5], degrees=(2, 3))
        doc = json.loads(report)
        assert doc == {
            "conductor_ratio": {},
            "corresponds": True,
            "formula_index": [2, 3],
            "oracle_index": [2, 3],
            "sample_degrees": [2, 3],
            "source_j": 5,
            "target_j": 5,
        }

    @pytest.mark.parametrize("js", [(0, 46), (46, 0)])
    def test_supersingular_prime_field_pair(self, js):
        # End_k(E) is quadratic for trace 0 over GF(p), so the oracle counts
        # residues of that order, not of the full matrix ring
        E1, E2 = (curve_from_j(F53, j, 0) for j in js)
        doc = json.loads(pair_report(E1, E2, degrees=(2, 3, 4)))
        assert doc["oracle_index"] == doc["formula_index"] == [2]

    def test_one_annihilator_lattice_per_sample(self, volcano, monkeypatch):
        """oracle_index is read off the lattice hom_index builds and checks:
        over the 49 ordered volcano pairs, 55 samples build 55 lattices."""
        built = []

        def counted(E, pts, n, real=endo_ring.annihilator_lattice):
            built.append(n)
            return real(E, pts, n)

        for module in (endo_ring, hom_index_kernel):
            monkeypatch.setattr(module, "annihilator_lattice", counted)
        samples = 0
        for E2 in volcano.values():
            for E1 in volcano.values():
                doc = json.loads(pair_report(E2, E1, degrees=(2, 3, 4, 6)))
                assert doc["oracle_index"] == doc["formula_index"]
                samples += len(doc["sample_degrees"])
        assert samples == len(built) == 55

    def test_deterministic(self, volcano):
        once = pair_report(volcano[29], volcano[25])
        again = pair_report(volcano[29], volcano[25])
        assert once == again
