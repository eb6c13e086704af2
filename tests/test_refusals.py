"""Every cap refuses with a structured `BoundExceeded`.

Each case trips one raise site and checks the refusal's `cap`, `limit`
and `requested`, and its message, so a caller can tell which cap tripped
and by how much without reading the text.  The functions behind the one
torsion gate refuse an order that is no order at all with ValueError, even
past the cap (an order that p divides with PPartUnsupported, also a
ValueError), and an order past the cap with the same triple.
"""

import random

import pytest

from isogenion.elliptic_curve import (
    Curve,
    base_change,
    classes_with_trace,
    curve_from_j,
    point_order,
    torsion_basis,
    torsion_degree,
)
from isogenion.endo_ring import (
    annihilator_index,
    conductor_level,
    coords_in_basis,
    frobenius_matrix,
    gamma_matrix,
)
from isogenion.errors import BoundExceeded, PPartUnsupported
from isogenion.finite_field import field_create
from isogenion.hom_index_kernel import (
    annihilator_ideal,
    hom_index,
    kernel_of_ideal,
    p_part_ideal,
    rho,
    stable_cyclic_kernels,
)
from isogenion.isogeny import (
    compose,
    cyclic_isogenies,
    dual,
    frobenius_isogeny,
    multiplication_isogeny,
    stable_cyclic_subgroups,
    velu,
)
from isogenion.minimal_degree import _degree_candidates, eB, md_between, rB
from isogenion.quadratic_order import (
    QuadIdeal,
    QuadOrder,
    class_group,
    enumerate_ideals,
    ideal_count_invertible,
    primes_above,
    quad_order,
)
from oracles import deadline

F41 = field_create(41)


def curve41(j):
    return curve_from_j(F41, j, 6)


def points_over_two_fields():
    """A point over GF(5^8) and one over GF(5^5): their common field is
    GF(5^40)."""
    E = Curve(field_create(5), 1, 1)
    rng = random.Random(1)
    return base_change(E, 8).random_point(rng), base_change(E, 5).random_point(rng)


def coords_beyond_the_tower():
    T, P = points_over_two_fields()
    return coords_in_basis(T, P, P, 2)


def compose_past_the_degree_cap():
    phi9 = cyclic_isogenies(curve41(29), 9)[0]
    return compose(cyclic_isogenies(phi9.target_curve, 9)[0], phi9)


def ideal_kernel_beyond_the_torsion_cap():
    E = curve41(5)  # End(E) is the maximal order of Q(sqrt(-2))
    return kernel_of_ideal(E, enumerate_ideals(quad_order(-8), 67)[0])


def annihilator_of_orders_eight_and_nine():
    E = curve41(5)
    return annihilator_ideal(E, [torsion_basis(E, 8)[0], torsion_basis(E, 9)[0]])


def annihilator_of_a_prime_order_past_the_cap():
    """#E = 97 on the trace-5 class over GF(101): lcm(1, ..., 64) is prime
    to 97 and kills no finite point, so the order comes from point_order."""
    E = curve_from_j(field_create(101), 17, 5)
    return annihilator_ideal(E, [E.random_point(random.Random(1))])


def supersingular_pair_over_a_cubic_field():
    F = field_create(11, 3)  # j = 1728 and j = 0 are supersingular mod 11
    return md_between(Curve(F, 1, 0), Curve(F, 0, 1))


def inseparable_degree_over_a_cubic_field():
    E = Curve(field_create(5, 3), 1, 1)
    return list(_degree_candidates(E, 5, True))


CASES = {
    "coords_in_basis": (
        coords_beyond_the_tower,
        ("R_MAX", 24, 40),
        "caps are p <= 65536, r <= 24",
    ),
    "gamma_matrix": (
        lambda: gamma_matrix(curve41(29), 64),
        ("M_MAX", 64, 128),
        "torsion and kernel orders are capped at 64",
    ),
    "annihilator_index": (
        lambda: annihilator_index(curve41(5), None, 65),
        ("M_MAX", 64, 65),
        "torsion and kernel orders are capped at 64",
    ),
    "kernel_of_ideal-torsion": (
        ideal_kernel_beyond_the_torsion_cap,
        ("M_MAX", 64, 67),
        "torsion and kernel orders are capped at 64",
    ),
    "annihilator_ideal": (
        annihilator_of_orders_eight_and_nine,
        ("M_MAX", 64, 72),
        "torsion and kernel orders are capped at 64",
    ),
    "annihilator_ideal-prime-order": (
        annihilator_of_a_prime_order_past_the_cap,
        ("M_MAX", 64, 97),
        "torsion and kernel orders are capped at 64",
    ),
    "p_part_ideal": (
        lambda: p_part_ideal(curve41(5), 2, 4),
        ("DISC_MAX", 10**6, 41**4),
        "ideal norm cap is 1000000",
    ),
    "_FrobStep.maps": (
        lambda: frobenius_isogeny(curve41(29), 3).rational_maps,
        ("FROBENIUS_MAP_MAX", 2**12, 41**3),
        "rational maps of this Frobenius power are huge",
    ),
    "velu": (
        lambda: velu(curve41(29), stable_cyclic_subgroups(curve41(29), 2)[0], 128),
        ("M_MAX", 64, 128),
        "torsion and kernel orders are capped at 64",
    ),
    "compose": (
        compose_past_the_degree_cap,
        ("M_MAX", 64, 81),
        "composite separable degree cap is 64",
    ),
    "_degree_candidates": (
        inseparable_degree_over_a_cubic_field,
        ("SEARCH_R_MAX", 2, 3),
        "degrees divisible by p are only searched over GF(p) and GF(p^2)",
    ),
    "md_between": (
        supersingular_pair_over_a_cubic_field,
        ("SEARCH_R_MAX", 2, 3),
        "supersingular search beyond GF(p^2) is not supported",
    ),
    "class_group": (
        lambda: class_group(quad_order(-8, 360)),
        ("DISC_MAX", 10**6, 1036800),
        "|disc| cap for class groups is 1000000",
    ),
    "enumerate_ideals": (
        lambda: enumerate_ideals(quad_order(-8, 4), 10**6 + 1),
        ("DISC_MAX", 10**6, 10**6 + 1),
        "norm cap for enumeration is 1000000",
    ),
}


@pytest.mark.parametrize("site", sorted(CASES))
def test_refusal_names_its_cap(site):
    call, named, message = CASES[site]
    with pytest.raises(BoundExceeded) as refusal:
        call()
    err = refusal.value
    assert (err.cap, err.limit, err.requested) == named
    assert str(err) == message


def test_hom_index_refuses_before_it_scans_the_kernel():
    """[43] on GF(41), j = 29 has kernel E[43], whose annihilator lattice
    needs E[86] (f0/f = 2): the order is refused before the 1,848 kernel
    points over GF(41^21) are found."""
    E = curve41(29)
    with deadline(1), pytest.raises(BoundExceeded) as refusal:
        hom_index(E, E, multiplication_isogeny(E, 43))
    err = refusal.value
    assert (err.cap, err.limit, err.requested) == ("M_MAX", 64, 86)


GATED = {
    "torsion_basis": torsion_basis,
    "torsion_degree": torsion_degree,
    "frobenius_matrix": frobenius_matrix,
    "cyclic_isogenies": cyclic_isogenies,
    "velu": lambda E, n: velu(E, None, n),
    "annihilator_index": lambda E, n: annihilator_index(E, None, n),
    "stable_cyclic_kernels": stable_cyclic_kernels,
}


@pytest.mark.parametrize("site", sorted(GATED))
@pytest.mark.parametrize(
    "E, n, error",
    [
        (Curve(field_create(7), 1, 1), 70, PPartUnsupported),
        (curve41(29), True, ValueError),
    ],
    ids=["multiple-of-p-past-the-cap", "bool"],
)
def test_an_invalid_order_is_refused_before_the_cap(site, E, n, error):
    """check_torsion_order refuses an order that is no order at all with
    ValueError, even when it is past M_MAX: a multiple of p with
    PPartUnsupported, which is also a ValueError, and a bool."""
    with pytest.raises(error):
        GATED[site](E, n)


def test_annihilator_ideal_refuses_a_point_order_that_p_divides():
    """#E = 41 on the trace-1 class over GF(41): every finite point has
    order p, the p-part that no etale kernel carries."""
    (cls,) = classes_with_trace(F41, 1)
    E = cls.representative
    with pytest.raises(PPartUnsupported, match="order 41 "):
        annihilator_ideal(E, [E.random_point(random.Random(1))])


P_PART = {
    "multiplication_isogeny": lambda: multiplication_isogeny(curve41(29), 41),
    "conductor_level": lambda: conductor_level(curve41(29), 41),
}


@pytest.mark.parametrize("site", sorted(P_PART))
def test_a_degree_or_multiplier_that_p_divides_is_the_p_part(site):
    """An ell or a multiplier that p divides is refused by the one p-part
    owner, with the type and message of every p-multiple order, as
    build_graph and count_components refuse ell = p."""
    with pytest.raises(PPartUnsupported, match="order 41 must be coprime"):
        P_PART[site]()


def test_hom_index_refuses_the_verschiebung_as_the_p_part():
    """The Verschiebung of an ordinary curve is separable of degree p, so
    the annihilator lattice of its kernel would need E[p*f0/f]."""
    E = curve41(29)
    V = dual(frobenius_isogeny(E, 1))
    assert (V.insep_exp, V.separable_degree) == (0, 41)
    with pytest.raises(PPartUnsupported, match="order 82 "):
        hom_index(V.source_curve, E, V)


@pytest.mark.parametrize("site", sorted(GATED))
def test_an_order_past_the_cap_is_refused_by_the_gate(site):
    with pytest.raises(BoundExceeded) as refusal:
        GATED[site](curve41(29), 65)
    err = refusal.value
    assert (err.cap, err.limit, err.requested) == ("M_MAX", 64, 65)


BOOL_REFUSED = {
    "multiplication_isogeny": (lambda E: multiplication_isogeny(E, True), ValueError),
    "frobenius_isogeny": (lambda E: frobenius_isogeny(E, True), ValueError),
    "point_order": (lambda E: point_order(E.infinity(), multiple=True), ValueError),
    "rho": (lambda E: rho(True), TypeError),
    "p_part_ideal": (lambda E: p_part_ideal(E, True, 1), TypeError),
    "eB": (lambda E: eB(True, 0), TypeError),
    "rB": (lambda E: rB(field_create(31), True), TypeError),
    "QuadOrder": (lambda E: QuadOrder(-4, True), TypeError),
    "QuadIdeal": (lambda E: QuadIdeal(quad_order(-4), True, 1, 0), TypeError),
    "enumerate_ideals": (lambda E: enumerate_ideals(quad_order(-4), True), ValueError),
    "ideal_count_invertible-float": (
        lambda E: ideal_count_invertible(1, 2.0, 1, -4), ValueError,
    ),
    "primes_above-float": (lambda E: primes_above(quad_order(-4), 2.0), ValueError),
}


@pytest.mark.parametrize("site", sorted(BOOL_REFUSED))
def test_a_bool_is_refused_where_an_int_is_asked(site):
    """A multiplier, exponent, multiple, trace, conductor, ideal coordinate
    or norm that is a bool is refused, with the error each site raises for
    any non-int, as check_torsion_order refuses a bool order, rather than
    read as 1; a float prime ell is refused like any non-prime."""
    call, error = BOOL_REFUSED[site]
    with pytest.raises(error):
        call(curve41(29))
