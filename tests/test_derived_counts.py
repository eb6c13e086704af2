"""Point counts that curves inherit instead of sweeping.

Velu targets and Frobenius images over the same field carry their source's
#E(k) (isogenous curves over k have equal counts, Tate 1966), and a
quadratic twist carries 2q + 2 - #E(k).  Each derived count is checked
against an exhaustive sweep of a fresh Curve with the same coefficients,
which starts with no count, so the oracle never reads a derived value.
"""

import pytest

import isogenion.elliptic_curve as ec
from isogenion.elliptic_curve import (
    Curve,
    classes_with_trace,
    curve_class,
    j_invariant,
    quadratic_twist,
)
from isogenion.finite_field import field_create
from isogenion.isogeny import cyclic_isogenies, frobenius_isogeny
from isogenion.minimal_degree import md_between


def swept_order(E):
    fresh = Curve(E.field, E.A, E.B)
    assert fresh._order is None
    return fresh.order


def assert_derived(E):
    assert E._order is not None, "count should be derived, not left to a sweep"
    assert E.order == swept_order(E)


def first_classes(F, traces):
    return [c for t in traces for c in classes_with_trace(F, t)[:2]]


@pytest.mark.parametrize("p, r, traces", [(31, 1, (1, 4, -6)), (7, 2, (2, -4))])
@pytest.mark.parametrize("m", [2, 3])
def test_velu_targets_inherit_the_count(p, r, traces, m):
    F = field_create(p, r)
    seen = 0
    for c in first_classes(F, traces):
        for phi in cyclic_isogenies(c.representative, m):
            assert phi.target_curve.field is F
            assert_derived(phi.target_curve)
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("p", [7, 11])
def test_frobenius_targets_inherit_the_count(p):
    F = field_create(p, 2)
    moved = 0
    for j in F.elements():
        for c in ec.twist_classes(F, j):
            tgt = frobenius_isogeny(c.representative, 1).target_curve
            assert_derived(tgt)
            moved += tgt != c.representative
    assert moved > 0  # some curves are not defined over GF(p)


def test_twist_pairs_over_gf121():
    F = field_create(11, 2)
    checked = 0
    for t in range(-22, 23):
        for c in classes_with_trace(F, t):
            if c.j and c.j != F.from_int(1728):
                assert c.representative.order == swept_order(c.representative)
                checked += 1
    # every generic j has a curve and its twist
    assert checked == 2 * (F.order - 2)


def test_quadratic_twist_of_a_counted_curve():
    E = Curve(field_create(41), 3, 7)
    E.order
    assert_derived(quadratic_twist(E))
    assert quadratic_twist(Curve(field_create(41), 3, 7))._order is None


@pytest.fixture
def sweeps(monkeypatch):
    seen = []
    sweep = ec.count_points

    def recording(E):
        if E._order is None:
            seen.append(E.field.order)
        return sweep(E)

    monkeypatch.setattr(ec, "count_points", recording)
    return seen


def test_twist_scan_member_derives_from_its_partner(sweeps):
    # a counted curve in the class of twist index 1 hands its count to that
    # scan member, and the base member derives its own from the pair: neither
    # is swept
    ec._twist_scan.cache_clear()
    F = field_create(31, 2)
    j = F.from_coeffs([5, 3])
    c = j * (F.from_int(1728) - j)
    twist = quadratic_twist(Curve(F, 3 * c, 2 * c * (F.from_int(1728) - j)))
    u = F.from_int(2)
    E = Curve(F, twist.A * u**4, twist.B * u**6)
    E._set_count(swept_order(E))
    sweeps.clear()
    assert j_invariant(E) == j
    assert curve_class(E).twist_index == 1
    assert [k.trace for k in ec.twist_classes(F, j)] == [-E.trace, E.trace]
    assert sweeps == []


def test_md_between_sweeps_only_the_base_field(sweeps):
    F = field_create(31)
    classes = classes_with_trace(F, 1)
    sweeps.clear()
    for c in classes:
        assert md_between(c.representative, c.representative).md in (2, 3, 4)
    assert set(sweeps) <= {F.order}
