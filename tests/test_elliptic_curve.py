"""Curves, the group law, counting, twists, torsion.

The brute oracles here never touch the fast paths they are checking: point
counts are re-done with double loops over (x, y), group structure is read off
the full table of point orders, and extension orders are re-counted from
scratch over the extension field before being compared with the trace
recurrence.
"""

import random
from functools import lru_cache
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogenion import elliptic_curve
from isogenion.errors import (
    BoundExceeded,
    CurveMismatch,
    NoSuchTwist,
    NotImaginaryQuadratic,
    SingularCurve,
)
from isogenion.elliptic_curve import (
    Curve,
    CurveClass,
    Point,
    base_change,
    count_points,
    curve_class,
    curve_from_j,
    curve_order_over_extension,
    discriminant_frobenius_order,
    divide_point,
    embed_point,
    frobenius_endo,
    is_supersingular,
    isomorphism_scale,
    j_invariant,
    point_add,
    point_order,
    point_progression,
    quadratic_twist,
    scalar_mul,
    sylow_basis,
    torsion_basis,
    torsion_degree,
    trace_over_extension,
    twist_classes,
    two_dim_dlog,
)
from isogenion.finite_field import FieldElement, field_create
from isogenion.finite_field import sqrt as field_sqrt
from isogenion.intmath import factorize, multiplicative_order, valuation
from isogenion.polyring import Poly, roots, subfield_embedding
from oracles import (
    deadline,
    element_point_add,
    element_scalar_mul,
    paired_sylow_basis,
    prime_by_prime_order,
    scanned_torsion_basis,
    swept_count,
)


def _built_or_raised(build, width=1):
    """The params build() makes, or, should it raise (a grid that counts
    curves or draws points at collection), one param of `width` values that
    holds the error: its test re-raises it with _reraise, so the module
    still collects and every other test runs."""
    try:
        return build()
    except Exception as err:
        return [pytest.param(*[err] * width, id="grid-build-error")]


def _reraise(value):
    if isinstance(value, Exception):
        raise value


def _all_points(E):
    """Brute enumeration by the defining equation (oracle helper)."""
    pts = [E.infinity()]
    F = E.field
    for x in F.elements():
        for y in F.elements():
            if y * y == E.rhs(x):
                pts.append(E.point(x, y))
    return pts


# ---------------------------------------------------------------------------
# construction


def test_singular_curve_rejected():
    F = field_create(5)
    with pytest.raises(SingularCurve):
        Curve(F, 0, 0)
    with pytest.raises(SingularCurve):
        Curve(F, F.from_int(-3), F.from_int(2))  # x^3 - 3x + 2 = (x-1)^2(x+2)


def test_small_characteristic_rejected():
    with pytest.raises(ValueError):
        Curve(field_create(3, 2), 1, 1)


def test_mixed_field_coefficients_rejected():
    with pytest.raises(CurveMismatch):
        Curve(field_create(5), field_create(7).from_int(1), 1)


def test_point_validation():
    E = Curve(field_create(5), 1, 0)
    P = E.point(0, 0)
    assert P and P.x == E.field.zero
    with pytest.raises(ValueError):
        E.point(1, 1)  # 1 != 1 + 1 + 0


# ---------------------------------------------------------------------------
# group law


def test_two_torsion_table_gf5():
    # y^2 = x^3 + x over GF(5): exactly the four points below (oracle sweep)
    E = Curve(field_create(5), 1, 0)
    pts = _all_points(E)
    assert len(pts) == 4
    P, Q = E.point(0, 0), E.point(2, 0)
    R = point_add(P, Q)
    # elimination: the sum is a group element; it cannot be inf (Q != -P),
    # nor P or Q (that would force the other summand to be inf)
    assert R in pts and R not in (E.infinity(), P, Q)
    assert R == E.point(3, 0)


def test_identity_and_inverses():
    E = Curve(field_create(41), 15, 10)
    rng = random.Random(1)
    for _ in range(20):
        P = E.random_point(rng)
        assert point_add(P, E.infinity()) == P
        assert point_add(E.infinity(), P) == P
        assert not point_add(P, -P)
    for x, _ in roots(Poly.from_ints(E.field, [10, 15, 0, 1])):
        T = E.point(x, 0)
        assert not point_add(T, T)


def test_group_law_associative_commutative():
    cases = [
        Curve(field_create(41), 15, 10),
        Curve(field_create(7, 2), 1, 3),
    ]
    for E in cases:
        rng = random.Random(E.field.order)
        for _ in range(1000):
            P, Q, R = (E.random_point(rng) for _ in range(3))
            assert point_add(P, Q) == point_add(Q, P)
            assert point_add(point_add(P, Q), R) == point_add(P, point_add(Q, R))


def test_scalar_mul_basics():
    E = Curve(field_create(41), 15, 10)
    N = E.order
    rng = random.Random(2)
    for _ in range(15):
        P = E.random_point(rng)
        assert not scalar_mul(0, P)
        assert not scalar_mul(N, P)
        assert scalar_mul(-7, P) == -scalar_mul(7, P)
        assert scalar_mul(5, P) == P + P + P + P + P
    assert not scalar_mul(3, E.infinity())


def test_point_order_matches_brute():
    E = Curve(field_create(13), 2, 3)
    for P in _all_points(E):
        o = point_order(P)
        # brute: smallest k >= 1 with k*P = inf
        T, k = P, 1
        while T:
            T = point_add(T, P)
            k += 1
        assert o == k


def test_point_order_refuses_a_multiple_that_does_not_kill():
    E = curve_from_j(field_create(41), 29, 6)
    P, _, _ = torsion_basis(E, 3)
    assert point_order(P, 3) == point_order(P, 6) == 3
    with pytest.raises(ValueError):
        point_order(P, 5)


def test_cross_curve_addition_rejected():
    E1 = Curve(field_create(5), 1, 0)
    E2 = Curve(field_create(5), 1, 1)
    with pytest.raises(CurveMismatch):
        point_add(E1.point(0, 0), E2.point(0, 1))


def _points_of_every_origin(p, s):
    """Points of E = base_change(y^2 = x^3 + 3x + 5 over GF(p), s) from each
    constructor: Curve.point, random_point, scalar_mul (O among them),
    point_progression, embed_point and frobenius_endo."""
    E0 = Curve(field_create(p), 3, 5)
    E = base_change(E0, s)
    F = E.field
    rng = random.Random(p * s)
    x = next(x for x in F.elements() if x and field_sqrt(E.rhs(x)))
    P = E.point(x, field_sqrt(E.rhs(x))[1])
    Q = E.random_point(rng)
    return E, [
        P, Q, E.infinity(),
        scalar_mul(7, Q), scalar_mul(-3, P), scalar_mul(E.order, Q), scalar_mul(0, P),
        *point_progression(P, Q, 4),
        embed_point(E0.random_point(rng), E),
        frobenius_endo(Q, 1), frobenius_endo(P, s + 1),
    ]


@pytest.mark.parametrize("p, s", [(41, 1), (11, 2), (41, 8)])
def test_points_keep_their_element_semantics(p, s):
    """A point stores its raw residue pair; x and y are elements of its
    field (None for O), it equals and hashes like the point rebuilt from
    them by Curve.point, and its negative is the one done with elements."""
    assert Point.__slots__ == ("curve", "raw")
    E, points = _points_of_every_origin(p, s)
    for P in points + [-P for P in points]:
        assert P.curve == E
        if not P:
            assert P.raw is P.x is P.y is None
            assert P == E.infinity() and hash(P) == hash(E.infinity())
            assert -P == P
            continue
        for c in (P.x, P.y):
            assert isinstance(c, FieldElement) and c.field is E.field
        R = E.point(P.x, P.y)
        assert P == R and hash(P) == hash(R)
        assert -P == E.point(P.x, -P.y)
        assert (-P).x == P.x and (-P).y == -P.y
    with pytest.raises(AttributeError):
        points[0].x = E.field.zero


# ---------------------------------------------------------------------------
# counting


def test_count_gf5_sweep_example():
    E = Curve(field_create(5), 1, 0)
    # oracle: direct double loop
    n = 1 + sum(
        1
        for x in range(5)
        for y in range(5)
        if (y * y - (x**3 + x)) % 5 == 0
    )
    assert n == 4
    assert count_points(E) == (4, 2)


def test_count_matches_brute_random():
    rng = random.Random(3)
    for F in (field_create(41), field_create(7, 2), field_create(13)):
        for _ in range(8):
            while True:
                A = F.from_coeffs([rng.randrange(F.p) for _ in range(F.r)])
                B = F.from_coeffs([rng.randrange(F.p) for _ in range(F.r)])
                if 4 * A * A * A + 27 * B * B:
                    break
            E = Curve(F, A, B)
            assert count_points(E)[0] == len(_all_points(E))


def test_twist_orders_sum():
    F = field_create(41)
    rng = random.Random(4)
    for _ in range(10):
        while True:
            A, B = F.from_int(rng.randrange(41)), F.from_int(rng.randrange(41))
            try:
                E = Curve(F, A, B)
                break
            except SingularCurve:
                continue
        assert E.order + quadratic_twist(E).order == 2 * 41 + 2
        t = E.trace
        assert t * t <= 4 * 41


def test_count_respects_cap(monkeypatch):
    # no sweep over q > 2^20; GF(1031^2) is past the cap, and the refusal
    # comes before the character table is allocated
    E = Curve(field_create(1031, 2), 1, 3)

    def no_table(*args):
        raise AssertionError("allocated a table before refusing")

    monkeypatch.setattr(elliptic_curve, "bytearray", no_table, raising=False)
    with pytest.raises(BoundExceeded) as refusal:
        count_points(E)
    err = refusal.value
    assert (err.cap, err.limit, err.requested) == ("EXHAUSTIVE_COUNT_MAX", 2**20, 1031**2)
    assert E._order is None


def fresh(E):
    """A curve with E's coefficients and no count yet."""
    C = Curve(E.field, E.A, E.B)
    assert C._order is None
    return C


@pytest.mark.parametrize("p, r", [(5, 2), (7, 2), (11, 2)])
def test_row_kernel_equals_the_sweep_on_the_whole_j_line(p, r):
    """Every twist class of every j, the j = 0 and j = 1728 families
    (up to six and four classes) included."""
    F = field_create(p, r)
    assert len(twist_classes(F, 0)) == 6 and len(twist_classes(F, 1728)) == 4
    for j in F.elements():
        for cls in twist_classes(F, j):
            E = fresh(cls.representative)
            assert count_points(E)[0] == swept_count(E), (j, cls)
            assert E.trace == cls.trace


@pytest.mark.parametrize(
    "p, r, curves",
    [(7, 3, 6), (5, 4, 6), (13, 3, 3), (41, 2, 4), (41, 1, 20), (10007, 1, 4), (65521, 1, 2)],
)
def test_row_kernel_equals_the_sweep_on_seeded_curves(p, r, curves):
    F = field_create(p, r)
    rng = random.Random(p * 100 + r)
    done = 0
    while done < curves:
        A = F.from_coeffs([rng.randrange(p) for _ in range(r)])
        B = F.from_coeffs([rng.randrange(p) for _ in range(r)])
        if not 4 * A * A * A + 27 * B * B:
            continue
        E = Curve(F, A, B)
        assert count_points(E)[0] == swept_count(E), (A, B)
        done += 1


@pytest.mark.parametrize(
    "p, d, s", [(7, 1, 2), (7, 1, 3), (5, 1, 4), (5, 2, 2), (11, 1, 2), (13, 1, 3)]
)
def test_row_kernel_on_curves_from_a_subfield(p, d, s):
    """Coefficients in GF(p^d) inside GF(p^(ds)): the count equals the
    sweep's and the trace recurrence's."""
    k = field_create(p, d)
    rng = random.Random(p * 1000 + d * 10 + s)
    for _ in range(3):
        while True:
            A = k.from_coeffs([rng.randrange(p) for _ in range(d)])
            B = k.from_coeffs([rng.randrange(p) for _ in range(d)])
            if 4 * A * A * A + 27 * B * B:
                break
        E0 = Curve(k, A, B)
        E = fresh(base_change(E0, s))
        n = count_points(E)[0]
        assert n == swept_count(E) == curve_order_over_extension(E0, s)


def test_paper_scale_orders():
    assert curve_from_j(field_create(41), 29, 6).order == 36
    assert curve_from_j(field_create(53), 0, 0).order == 54


# ---------------------------------------------------------------------------
# extensions


@pytest.mark.parametrize("p,A,B,smax", [(7, 1, 3, 5), (5, 2, 1, 6), (41, 15, 10, 3)])
def test_trace_recurrence_vs_direct_count(p, A, B, smax):
    E = Curve(field_create(p), A, B)
    for s in range(2, smax + 1):
        K = field_create(p, s)
        emb = subfield_embedding(E.field, K)
        fresh = Curve(K, emb.map(E.A), emb.map(E.B))  # no cached count
        assert count_points(fresh)[0] == curve_order_over_extension(E, s)


def test_base_change_caches_and_embeds():
    E = Curve(field_create(41), 15, 10)
    EK = base_change(E, 2)
    assert EK.field.order == 41**2
    assert EK.order == curve_order_over_extension(E, 2)
    P = E.random_point(random.Random(5))
    PK = embed_point(P, EK)
    assert EK.is_on(PK.x, PK.y)
    assert embed_point(scalar_mul(3, P), EK) == scalar_mul(3, PK)


def test_base_change_by_one_keeps_the_count():
    """s = 1 is the curve itself, so a count set after an equal uncounted
    curve went through base_change is not lost."""
    F = field_create(41)
    first = Curve(F, 3, 5)
    assert base_change(first, 1) is first
    E2 = Curve(F, 3, 5)
    count_points(E2)
    assert E2._order == 44 and first._order is None
    assert base_change(E2, 1) is E2
    assert base_change(E2, 1)._order == 44
    # proper extensions stay cached by curve value
    assert base_change(E2, 2) is base_change(first, 2)


@pytest.mark.parametrize("s1, s2", [(2, 2), (3, 2), (2, 3)])
def test_base_change_is_transitive(s1, s2):
    # the field embeddings compose, so a base change of a base change is
    # the base change by the product of the degrees
    F = field_create(7, 2)
    E = Curve(F, F.from_coeffs([1, 2]), F.from_coeffs([3, 1]))
    assert base_change(base_change(E, s1), s2) == base_change(E, s1 * s2)


def test_embed_point_refuses_a_curve_that_is_no_base_change():
    F = field_create(7, 2)
    E = Curve(F, F.from_coeffs([1, 2]), F.from_coeffs([3, 1]))
    P = E.random_point(random.Random(1))
    K = field_create(7, 4)
    with pytest.raises(CurveMismatch):
        embed_point(P, Curve(K, K.one, K.one))
    with pytest.raises(CurveMismatch):
        embed_point(P, Curve(field_create(7, 3), 1, 1))
    Q = embed_point(P, base_change(E, 2))
    assert Q.curve.is_on(Q.x, Q.y)


def test_frobenius_characteristic_equation():
    E = Curve(field_create(41), 15, 10)
    t = E.trace
    for s in (2, 3):
        EK = base_change(E, s)
        rng = random.Random(6 + s)
        for _ in range(10):
            R = EK.random_point(rng)
            piR = frobenius_endo(R, 1)
            pi2R = frobenius_endo(piR, 1)
            assert EK.is_on(piR.x, piR.y)
            assert not point_add(
                point_add(pi2R, scalar_mul(-t, piR)), scalar_mul(41, R)
            )
        # Frobenius fixes exactly the base-field points
        P = E.random_point(rng)
        PK = embed_point(P, EK)
        assert frobenius_endo(PK, 1) == PK


def test_supersingular_flag():
    assert is_supersingular(curve_from_j(field_create(53), 0, 0))
    assert not is_supersingular(curve_from_j(field_create(41), 29, 6))


# ---------------------------------------------------------------------------
# j-invariants and twists


def test_j_invariant_trivial_cases():
    F = field_create(41)
    assert j_invariant(Curve(F, 1, 0)) == F.from_int(1728)  # = 6 mod 41
    assert j_invariant(Curve(F, 0, 1)) == F.zero


def test_j_invariant_cm_reduction():
    # oracle first: reduce the integer j = 2^4 3^3 5^3 = 54000 mod 41
    assert 54000 % 41 == 3
    F = field_create(41)
    E = Curve(F, F.from_int(-15), F.from_int(22))
    assert j_invariant(E) == F.from_int(3)


def test_curve_from_j_traces_gf41():
    F = field_create(41)
    E = curve_from_j(F, 29, 6)
    assert j_invariant(E) == F.from_int(29) and E.trace == 6
    Et = curve_from_j(F, 29, -6)
    assert Et.order == 48
    with pytest.raises(NoSuchTwist):
        curve_from_j(F, 29, 5)


def test_curve_from_j_round_trip_sweep_gf41():
    F = field_create(41)
    for jv in range(41):
        for cls in twist_classes(F, jv):
            E = curve_from_j(F, jv, cls.trace)
            assert j_invariant(E) == F.from_int(jv)
            assert E.trace == cls.trace


def test_twist_classes_j0_supersingular():
    # p = 53 = 2 mod 3: j=0 is supersingular; exactly two classes, both t=0
    classes = twist_classes(field_create(53), 0)
    assert len(classes) == 2
    assert [c.trace for c in classes] == [0, 0]
    assert classes[0].twist_index != classes[1].twist_index
    assert classes[0] != classes[1]


def test_twist_classes_j1728():
    # 41 = 1 mod 4: four quartic twist classes with traces summing to 0
    classes = twist_classes(field_create(41), 1728)
    assert len(classes) == 4
    assert sum(c.trace for c in classes) == 0
    assert len({c.twist_index for c in classes}) == 4


def test_curve_class_canonicalization():
    F = field_create(41)
    E = curve_from_j(F, 29, 6)
    rng = random.Random(7)
    for _ in range(10):
        # (u^4 A, u^6 B) is k-isomorphic to E for every u in k*
        u = F.from_int(rng.randrange(1, 41))
        iso = Curve(F, u**4 * E.A, u**6 * E.B)
        assert curve_class(iso) == curve_class(E)
        # (d^2 A, d^3 B) is the twist: same class iff d is a square
        d = F.from_int(rng.randrange(1, 41))
        tw = Curve(F, d * d * E.A, d * d * d * E.B)
        if d.is_square():
            assert curve_class(tw) == curve_class(E)
        else:
            assert curve_class(tw) != curve_class(E)
            assert curve_class(tw).trace == -6
    assert curve_class(E).representative.trace == 6
    assert curve_class(E).twist_index == 0
    assert curve_class(quadratic_twist(E)).twist_index == 1


def test_isomorphism_scale():
    F = field_create(41)
    E = curve_from_j(F, 29, 6)
    u0 = F.from_int(8)
    iso = Curve(F, u0**4 * E.A, u0**6 * E.B)
    u = isomorphism_scale(E, iso)
    assert iso.A == u**4 * E.A and iso.B == u**6 * E.B
    with pytest.raises(ValueError):
        isomorphism_scale(E, quadratic_twist(E))
    # j = 0 and j = 1728 paths
    for jv, other in ((0, 1), (1728, 2)):
        E1 = curve_from_j(field_create(13), jv, twist_classes(field_create(13), jv)[0].trace)
        u1 = field_create(13).from_int(other)
        E2 = Curve(E1.field, u1**4 * E1.A, u1**6 * E1.B)
        w = isomorphism_scale(E1, E2)
        assert E2.A == w**4 * E1.A and E2.B == w**6 * E1.B


@pytest.mark.parametrize(
    "p, r, j", [(13, 1, 0), (13, 1, 1728), (13, 1, 5), (7, 2, 0), (7, 2, 1728), (7, 2, 3)]
)
def test_isomorphism_scale_agrees_with_curve_class(p, r, j):
    """The one ratio-and-power rule serves both: isomorphism_scale finds a u
    exactly when curve_class puts the two models in one class, and its u
    maps one onto the other.  The models are every twist-scan class of j
    and two scaled copies (u^4 A, u^6 B) of each."""
    F = field_create(p, r)
    reps = [c.representative for c in twist_classes(F, j)]
    scales = [F.from_int(2), F.from_coeffs([1] * r)]
    models = reps + [Curve(F, u**4 * E.A, u**6 * E.B) for E in reps for u in scales]
    agreed = 0
    for E1 in models:
        for E2 in models:
            same = curve_class(E1) == curve_class(E2)
            try:
                u = isomorphism_scale(E1, E2)
            except ValueError:
                assert not same, (E1, E2)
                continue
            assert same and E2.A == u**4 * E1.A and E2.B == u**6 * E1.B, (E1, E2)
            agreed += 1
    assert len(reps) < agreed < len(models) ** 2


def test_discriminant_frobenius_order():
    assert discriminant_frobenius_order(41, 6) == (-8, 4)
    assert discriminant_frobenius_order(53, 0) == (-212, 1)
    assert discriminant_frobenius_order(53, -4) == (-4, 7)
    with pytest.raises(NotImaginaryQuadratic):
        discriminant_frobenius_order(41, 13)  # 169 > 164
    with pytest.raises(NotImaginaryQuadratic):
        discriminant_frobenius_order(49, 14)  # supersingular edge t^2 = 4q


# ---------------------------------------------------------------------------
# structure: sylow bases, discrete logs, division


def test_group_structure_matches_brute():
    rng = random.Random(8)
    for F in (field_create(13), field_create(17), field_create(5, 2)):
        for _ in range(6):
            while True:
                A = F.from_coeffs([rng.randrange(F.p) for _ in range(F.r)])
                B = F.from_coeffs([rng.randrange(F.p) for _ in range(F.r)])
                if 4 * A * A * A + 27 * B * B:
                    break
            E = Curve(F, A, B)
            pts = _all_points(E)
            exponent = 1
            for P in pts:
                o = point_order(P, len(pts))
                exponent = exponent * o // gcd(exponent, o)
            n2 = exponent
            n1 = len(pts) // n2
            # E(k) = Z/n1 x Z/n2 with n1 = prod ell^b and n2 = prod ell^a
            exps = [(ell, sylow_basis(E, ell)[2:]) for ell, _ in factorize(E.order)]
            assert prod(ell**b for ell, (_, b) in exps) == n1
            assert prod(ell**a for ell, (a, _) in exps) == n2
            assert n2 % n1 == 0


def test_sylow_basis_spans():
    E = Curve(field_create(41), 15, 10)  # order 36
    for ell in (2, 3):
        S1, S2, a, b = sylow_basis(E, ell)
        assert point_order(S1) == ell**a
        if b:
            assert point_order(S2) == ell**b
        combos = {
            point_add(scalar_mul(i, S1), scalar_mul(j, S2))
            for i in range(ell**a)
            for j in range(ell**b)
        }
        assert len(combos) == ell ** (a + b)
        assert a + b == valuation(E.order, ell)


def _spans_the_sylow_group(E, ell, basis):
    """a >= b, a + b = v_ell(#E), S1 of order ell^a and S2 of order ell^b,
    and (for b > 0) ell^(b-1)*S2 outside the ell multiples of
    ell^(a-1)*S1: then <S1> and <S2> meet trivially and span ell^v points."""
    S1, S2, a, b = basis
    if not (a >= b and a + b == valuation(E.order, ell)):
        return False
    for S, e in ((S1, a), (S2, b)):
        if scalar_mul(ell**e, S) or (e and not scalar_mul(ell ** (e - 1), S)):
            return False
    if b == 0:
        return True
    U1, U2 = scalar_mul(ell ** (a - 1), S1), scalar_mul(ell ** (b - 1), S2)
    W = E.infinity()
    for _ in range(ell):
        if W == U2:
            return False
        W = point_add(W, U1)
    return True


def _count_draws(monkeypatch):
    """A one-element list that counts Curve.random_point calls from now on."""
    draws = [0]
    draw = Curve.random_point

    def counted(self, rng):
        draws[0] += 1
        return draw(self, rng)

    monkeypatch.setattr(Curve, "random_point", counted)
    return draws


@pytest.mark.parametrize(
    "p, r, degrees, ells",
    [
        pytest.param(13, 1, (1, 2, 3, 4), (2, 3, 5), id="GF(13^s), s<=4"),
        pytest.param(41, 1, (1, 2), (2, 3, 5), id="GF(41^s), s<=2"),
        pytest.param(5, 2, (1, 2), (2, 3), id="GF(5^2s), s<=2"),
        pytest.param(7, 2, (1, 2), (2, 3, 5), id="GF(7^2s), s<=2"),
    ],
)
def test_sylow_bases_from_the_largest_draw(monkeypatch, p, r, degrees, ells):
    """Every (class, degree, ell) of a census grid: the basis is certified,
    equals the pair-sampling oracle's wherever that certified within two
    nonzero draws (its pair test is the reduction with z = 0), and the
    grid draws fewer points in all."""
    draws = _count_draws(monkeypatch)
    F = field_create(p, r)
    new_draws = old_draws = compared = 0
    for j in F.elements():
        for c in twist_classes(F, j):
            for s in degrees:
                E = base_change(c.representative, s)
                for ell in ells:
                    before = draws[0]
                    basis = sylow_basis.__wrapped__(E, ell)
                    new_draws += draws[0] - before
                    assert _spans_the_sylow_group(E, ell, basis), (E, ell)
                    oracle, n, nonzero = paired_sylow_basis(E, ell)
                    old_draws += n
                    if nonzero <= 2:
                        assert basis == oracle, (E, ell)
                        compared += 1
    assert compared and new_draws < old_draws


@pytest.mark.parametrize("case", ["Z/2 x Z/256", "torsion-fp Z/64 x Z/4"])
def test_sylow_basis_draws_few_points(monkeypatch, case):
    """The pair sampler needed all 600 draws on the first curve, and 67 on
    the second; reduction into a complement needs at most 10 on each."""
    if case == "Z/2 x Z/256":
        F = field_create(11, 2)
        E, shape = base_change(Curve(F, F.from_coeffs([6, 10]), F.from_coeffs([6, 8])), 2), (8, 1)
    else:
        F = field_create(41)
        E, shape = base_change(curve_from_j(F, F.from_int(13), 6), 4), (6, 2)
    draws = _count_draws(monkeypatch)
    basis = sylow_basis.__wrapped__(E, 2)
    assert basis[2:] == shape and _spans_the_sylow_group(E, 2, basis)
    assert 0 < draws[0] <= 10


@pytest.mark.parametrize("ell", [4, 6, 1, 0, -2, 2.0, "2", True], ids=repr)
def test_sylow_basis_refuses_an_ell_that_is_not_a_prime_int(monkeypatch, ell):
    """Z/2 x Z/2 at E: ell = 4 used to return (S1, O, 1, 0), claiming a
    point of order 4 that has order 2.  The refusal comes before any point
    work, also for 2.0 after the int 2 is cached."""
    E = Curve(field_create(41), 15, 10)  # order 36
    sylow_basis(E, 2)

    def no_point_work(*args):
        raise AssertionError("point work before ell was checked")

    monkeypatch.setattr(Curve, "random_point", no_point_work)
    with pytest.raises(ValueError, match="prime int"):
        sylow_basis(E, ell)


def test_two_dim_dlog_round_trip():
    E = Curve(field_create(41), 15, 10)
    S1, S2, a, b = sylow_basis(E, 2)
    rng = random.Random(9)
    for _ in range(25):
        i, j = rng.randrange(2**a), rng.randrange(2**b)
        R = point_add(scalar_mul(i, S1), scalar_mul(j, S2))
        got = two_dim_dlog(R, S1, S2, 2**a, 2**b)
        assert got is not None
        gi, gj = got
        assert point_add(scalar_mul(gi, S1), scalar_mul(gj, S2)) == R


def test_divide_point_same_field_and_extension():
    E = Curve(field_create(41), 15, 10)
    rng = random.Random(10)
    for n in (2, 3, 5, 6):
        P = E.random_point(rng)
        Q = divide_point(P, n)
        assert scalar_mul(n, Q) == embed_point(P, Q.curve)
    # a forced extension: halving a 2-torsion generator twice leaves GF(41)
    S1, _, a, _ = sylow_basis(E, 2)
    assert a == 1  # order 36, full rational 2-torsion: Sylow is Z/2 x Z/2
    Q = divide_point(S1, 4)
    assert Q.curve.field.r > 1
    assert scalar_mul(4, Q) == embed_point(S1, Q.curve)


# ---------------------------------------------------------------------------
# torsion bases


def test_torsion_basis_trivial_and_errors():
    E = Curve(field_create(41), 15, 10)
    P, Q, ext = torsion_basis(E, 1)
    assert not P and not Q and ext is E.field
    with pytest.raises(ValueError):
        torsion_basis(E, 41)
    with pytest.raises(BoundExceeded) as refusal:
        torsion_basis(E, 65)
    assert (refusal.value.cap, refusal.value.limit, refusal.value.requested) == (
        "M_MAX", 64, 65,
    )


def test_torsion_basis_2_rational_for_split_cubic():
    F = field_create(41)
    E = curve_from_j(F, 5, 6)
    # oracle: the 2-division cubic must split over GF(41)
    cubic = Poly(F, [E.B, E.A, F.zero, F.one])
    assert len(roots(cubic)) == 3
    P, Q, ext = torsion_basis(E, 2)
    assert ext is F
    assert not scalar_mul(2, P) and not scalar_mul(2, Q)
    assert P != Q and P and Q


def test_torsion_basis_2_needs_extension_for_nonsplit_cubic():
    F = field_create(41)
    E = curve_from_j(F, 25, 6)
    cubic = Poly(F, [E.B, E.A, F.zero, F.one])
    assert len(roots(cubic)) == 1  # only one rational 2-torsion point
    P, Q, ext = torsion_basis(E, 2)
    assert ext.r == 2
    assert not scalar_mul(2, P) and not scalar_mul(2, Q)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_torsion_basis_properties(m):
    E = curve_from_j(field_create(41), 5, 6)
    P, Q, ext = torsion_basis(E, m)
    # annihilation and exact order at each prime
    assert not scalar_mul(m, P) and not scalar_mul(m, Q)
    for ell, _ in factorize(m):
        assert scalar_mul(m // ell, P)
    # the m^2 combinations are pairwise distinct
    combos = {
        point_add(scalar_mul(i, P), scalar_mul(j, Q))
        for i in range(m)
        for j in range(m)
    }
    assert len(combos) == m * m
    # necessary condition for full m-torsion: m | q_ext - 1 (Weil pairing)
    assert (ext.order - 1) % m == 0
    # minimality of the extension: no smaller tower step contains E[m]
    for s in range(1, ext.r // E.field.r):
        assert curve_order_over_extension(E, s) % (m * m) != 0 or not _full_torsion(
            base_change(E, s), m
        )


def _spans_m_squared_points(P, Q, m):
    """Oracle: the m^2 combinations i*P + j*Q are pairwise distinct."""
    combos = set()
    iP = P.curve.infinity()
    for _ in range(m):
        T = iP
        for _ in range(m):
            combos.add(T)
            T = point_add(T, Q)
        iP = point_add(iP, P)
    return len(combos) == m * m


def _certified(P, Q, m):
    """The certificate sylow_basis leaves on a torsion basis: for each prime
    ell | m the bottoms (m/ell)*P and (m/ell)*Q are independent of order
    ell (m kills every pair made here)."""
    for ell, _ in factorize(m):
        U1, U2 = scalar_mul(m // ell, P), scalar_mul(m // ell, Q)
        if not U1 or not elliptic_curve._bottom_independent(U1, U2, ell):
            return False
    return True


# the GF(41), t = 6 2-volcano (vertex j -> level) and the deep bases of the
# torsion benchmark
VOLCANO_BASES = [
    (j, m) for j in (5, 29, 22, 13, 33, 25, 35) for m in (2, 3, 4, 6)
] + [(5, 17), (29, 16), (13, 8)]


@pytest.mark.parametrize("j, m", VOLCANO_BASES)
def test_basis_certificate_agrees_with_the_span_oracle(j, m):
    """The per-prime bottom certificate accepts exactly the pairs whose m^2
    combinations are distinct: every volcano basis, and (for m <= 8) none
    of the degenerate pairs made from it."""
    P, Q, _ = torsion_basis(curve_from_j(field_create(41), j, 6), m)
    assert _spans_m_squared_points(P, Q, m) and _certified(P, Q, m)
    if m > 8:
        return
    pairs = [(P, P), (P, point_add(P, Q)), (point_add(P, Q), Q)]
    pairs += [(P, scalar_mul(ell, Q)) for ell, _ in factorize(m)]
    pairs += [(scalar_mul(ell, P), Q) for ell, _ in factorize(m)]
    for A, B in pairs:
        assert _certified(A, B, m) == _spans_m_squared_points(A, B, m)


# ---------------------------------------------------------------------------
# the Lenstra gate against the extension scan it replaced

GATE_MS = (2, 3, 4, 6, 8, 12, 16)


def _gate_grid():
    """Every ordinary class over GF(13), and the GF(41), t = 6 volcano."""
    F13, F41 = field_create(13), field_create(41)
    curves = [
        pytest.param(
            c.representative, id=f"13-{c.j.coeffs[0]}-{c.trace}-{c.twist_index}"
        )
        for j in F13.elements()
        for c in twist_classes(F13, j)
        if not is_supersingular(c.representative)
    ]
    curves += [
        pytest.param(curve_from_j(F41, j, 6), id=f"41-{j}")
        for j in (5, 29, 22, 13, 33, 25, 35)
    ]
    return curves


def _basis_or_refusal(fn, E, m):
    try:
        return fn(E, m)
    except BoundExceeded:
        return "refused"


@pytest.mark.parametrize("E", _built_or_raised(_gate_grid))
def test_gate_bases_equal_the_scan(E):
    """Sampling only at the degree the gate names gives the scan's (P, Q,
    field) bit for bit: both draw from sylow_basis(EK, ell), seeded by EK."""
    _reraise(E)
    for m in GATE_MS:
        assert _basis_or_refusal(torsion_basis, E, m) == _basis_or_refusal(
            scanned_torsion_basis, E, m
        )


def _curve_with(F, j, t):
    return next(c.representative for c in twist_classes(F, j) if c.trace == t)


def test_gate_with_an_integer_frobenius():
    """Supersingular over GF(7^2) with t = -14: pi = -7, E(GF(49^s)) is
    (Z/(pi^s - 1))^2, and E[m] needs exactly the order of -7 mod m.  E[17]
    needs s = 16, GF(7^32), past the cap."""
    F = field_create(7, 2)
    E = _curve_with(F, F.from_int(6), -14)
    for m in GATE_MS:
        s = multiplicative_order(-7, m)
        assert torsion_degree(E, m) == s
        basis = torsion_basis(E, m)
        assert basis == scanned_torsion_basis(E, m) and basis[2].r == 2 * s
    with pytest.raises(BoundExceeded) as refusal:
        torsion_basis(E, 17)
    assert (refusal.value.cap, refusal.value.limit, refusal.value.requested) == (
        "R_MAX", 24, 32,
    )


@pytest.mark.parametrize(
    "p, j, t, ms",
    [(11, (0, 1), 14, (2, 3, 4, 6, 8)), (7, (0, 0), 2, (2, 3, 4, 6, 8))],
)
def test_gate_degree_beyond_the_prime_field(p, j, t, ms):
    """An ordinary curve over GF(p^2): the gate names the one degree at
    which the scan finds E[m], and the basis sampled there is the scan's."""
    F = field_create(p, 2)
    E = _curve_with(F, F.from_coeffs(j), t)
    for m in ms:
        basis = torsion_basis(E, m)
        assert basis == scanned_torsion_basis(E, m)
        assert torsion_degree(E, m) == basis[2].r // 2


def _extension_gate_grid():
    """Every class over GF(5^2), and the supersingular classes over GF(7^3)
    (j = 1728, t = 0, where f0 = 2*7 puts ell = 2 in the gate)."""
    F25, F343 = field_create(5, 2), field_create(7, 3)
    curves = [(F25, c) for j in F25.elements() for c in twist_classes(F25, j)]
    curves += [
        (F343, c)
        for c in twist_classes(F343, F343.from_int(1728))
        if is_supersingular(c.representative)
    ]
    return [
        pytest.param(
            c.representative,
            id=f"{F.order}-{'.'.join(map(str, c.j.coeffs))}-{c.trace}-{c.twist_index}",
        )
        for F, c in curves
    ]


@pytest.mark.parametrize("E", _built_or_raised(_extension_gate_grid))
def test_gate_degree_equals_the_scan_beyond_the_prime_field(E):
    """torsion_degree is the degree at which the scan first finds E[m], or
    both refuse.  The GF(5^2) grid holds ordinary classes whose level the
    Sylow exponent leaves open (ell = 3 at t = 1 and -8, ell = 2 at t = 6),
    which conductor_level settles."""
    _reraise(E)
    for m in (2, 3, 4, 6, 8):
        want = _basis_or_refusal(scanned_torsion_basis, E, m)
        if want == "refused":
            with pytest.raises(BoundExceeded):
                torsion_degree(E, m)
            continue
        assert torsion_degree(E, m) == want[2].r // E.field.r
        assert torsion_basis(E, m) == want


def test_gate_refuses_beyond_the_prime_field_before_sampling(monkeypatch):
    """E[16] on y^2 = x^3 + (3 + 2x)x + 4 over GF(5^2) (j = x, t = -2)
    needs GF(5^32): the gate refuses from integer arithmetic and Sylow
    exponents over GF(5^2), without drawing a point over an extension."""
    F = field_create(5, 2)
    E = Curve(F, F.from_coeffs([3, 2]), F.from_coeffs([4, 0]))
    assert (j_invariant(E), E.trace) == (F.from_coeffs([0, 1]), -2)
    sylow = elliptic_curve.sylow_basis

    def base_field_only(C, ell):
        if C.field is not F:
            raise AssertionError(f"sampled points over {C.field!r}")
        return sylow(C, ell)

    monkeypatch.setattr(elliptic_curve, "sylow_basis", base_field_only)
    with deadline(10), pytest.raises(BoundExceeded) as refusal:
        torsion_basis(E, 16)
    assert (refusal.value.cap, refusal.value.limit, refusal.value.requested) == (
        "R_MAX", 24, 32,
    )


def _full_torsion(EK, m):
    for ell, e in factorize(m):
        _, _, _, b = sylow_basis(EK, ell)
        if b < e:
            return False
    return True


# ---------------------------------------------------------------------------
# the raw-residue group law against the FieldElement oracle


@lru_cache(maxsize=None)
def _group_law_cases():
    """A GF(41) curve over GF(41^r), r in {1, 2, 3, 4, 6, 8}, and curves whose
    coefficients generate GF(41^2) and GF(7^3), over extensions of those.
    Built on first use, not at import, since it counts curves."""
    E41 = curve_from_j(field_create(41), 5, 6)
    F2, F3 = field_create(41, 2), field_create(7, 3)
    E2 = Curve(F2, F2.from_coeffs([3, 1]), F2.from_coeffs([5, 2]))
    E3 = Curve(F3, F3.from_coeffs([1, 2, 3]), F3.from_coeffs([4, 0, 1]))
    cases = [base_change(E41, r) for r in (1, 2, 3, 4, 6, 8)]
    cases += [base_change(E2, s) for s in (1, 2, 3, 4)] + [E3]
    assert len(cases) == GROUP_LAW_CASE_COUNT
    return cases


GROUP_LAW_CASE_COUNT = 11


def _two_torsion(E):
    F = E.field
    return [E.point(x, 0) for x, _ in roots(Poly(F, [E.B, E.A, F.zero, F.one]))]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, GROUP_LAW_CASE_COUNT - 1),
    st.sampled_from(("0", "1", "-1", "2", "-2", "N", "N+1", "N-1", "random")),
    st.integers(-(2**64), 2**64),
    st.integers(0, 2**32),
)
def test_raw_group_law_matches_the_element_oracle(case, kind, big, seed):
    E = _group_law_cases()[case]
    N = E.order
    m = {"N": N, "N+1": N + 1, "N-1": N - 1, "random": big}.get(kind)
    m = int(kind) if m is None else m
    rng = random.Random(seed)
    P, Q = E.random_point(rng), E.random_point(rng)
    assert scalar_mul(m, P) == element_scalar_mul(m, P)
    assert point_add(P, Q) == element_point_add(P, Q)
    assert point_add(P, P) == element_point_add(P, P)


@pytest.mark.parametrize("case", range(GROUP_LAW_CASE_COUNT))
def test_raw_group_law_edge_cases(case):
    E = _group_law_cases()[case]
    O = E.infinity()
    rng = random.Random(case)
    P = E.random_point(rng)
    assert not point_add(P, -P) and not element_point_add(P, -P)
    assert point_add(O, P) == point_add(P, O) == P
    assert not scalar_mul(E.order, P) and not scalar_mul(-E.order, P)
    assert not scalar_mul(5, O)
    twos = _two_torsion(E)
    assert twos, "every case has a rational point with y = 0"
    for T in twos:
        assert not point_add(T, T) and not element_point_add(T, T)
        for m in (2, 3, -3, 2**64 + 1):
            assert scalar_mul(m, T) == element_scalar_mul(m, T)
        assert point_add(T, P) == element_point_add(T, P)


# ---------------------------------------------------------------------------
# point orders by halving against the prime-at-a-time search


def _order_grid():
    """Points over GF(41^s), s <= 8, and GF(10007): O, a random point, and
    points of small order made by multiplying it by cofactors."""
    E41 = curve_from_j(field_create(41), 5, 6)
    curves = [base_change(E41, s) for s in range(1, 9)]
    curves.append(Curve(field_create(10007), 1, 1))
    grid = []
    for E in curves:
        N = E.order
        rng = random.Random(N)
        P = E.random_point(rng)
        pts = [E.infinity(), P]
        pts += [element_scalar_mul(N // ell**e, P) for ell, e in factorize(N)[:2]]
        pts.append(element_scalar_mul(N // (6 if N % 6 == 0 else 15), P))
        grid += [pytest.param(E, T, id=f"{E.field!r}-{k}") for k, T in enumerate(pts)]
    return grid


@pytest.mark.parametrize("E,T", _built_or_raised(_order_grid, width=2))
def test_point_order_by_halving_matches_the_old_loop(E, T):
    """point_order, with and without a multiple, agrees with the oracle
    that divides the group order by one prime at a time."""
    _reraise(E)
    o = prime_by_prime_order(T, E.order)
    assert point_order(T) == o
    assert point_order(T, o) == o
    assert point_order(T, 35 * o) == o


@pytest.mark.parametrize("bad", [0, -39, 78.0, "6"])
def test_point_order_refuses_a_bad_multiple_before_point_work(monkeypatch, bad):
    E = curve_from_j(field_create(41), 29, 6)
    P, _, _ = torsion_basis(E, 3)

    def no_point_work(*args):
        raise AssertionError("point work before the multiple was checked")

    monkeypatch.setattr(elliptic_curve, "scalar_mul", no_point_work)
    with pytest.raises(ValueError, match="positive integer"):
        point_order(P, bad)


@pytest.mark.parametrize("bad", [0, -2, 2.0, "2"])
def test_divide_point_refuses_a_bad_divisor_before_point_work(monkeypatch, bad):
    """divide_point(P, 2.0) used to fail with a TypeError from pow."""
    E = curve_from_j(field_create(41), 29, 6)
    P, _, _ = torsion_basis(E, 3)

    def no_point_work(*args):
        raise AssertionError("point work before the divisor was checked")

    monkeypatch.setattr(elliptic_curve, "scalar_mul", no_point_work)
    with pytest.raises(ValueError, match="positive int"):
        divide_point(P, bad)
