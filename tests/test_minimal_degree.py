"""Minimal isogeny degrees: the CM classifier and the supersingular survey.

md_classifier reads Md(E) over the closure off Kronecker symbols alone; the
search in md_between enumerates kernels degree by degree, so the two are
independent and must agree on every class of a small prime field.  The
Kronecker rule also agrees with the residue table it replaced.
"""

import random
from types import SimpleNamespace

import pytest
import sympy

from isogenion.elliptic_curve import (
    Curve,
    classes_with_trace,
    curve_from_j,
    point_add,
    scalar_mul,
    torsion_basis,
    twist_classes,
)
from isogenion.errors import NotIsogenous, TraceMismatch
from isogenion.finite_field import field_create
from isogenion.isogeny import compose, cyclic_isogenies, dual, velu
import isogenion.minimal_degree
from isogenion.minimal_degree import (
    CM_TABLE,
    _cyclic_closure,
    md_between,
    md_classifier,
    md_supersingular_bounds,
    rB,
)
from oracles import cyclic_lines, residue_table_md


def _all_classes(p):
    F = field_create(p)
    return [c for j in F.elements() for c in twist_classes(F, j)]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_md_classifier_matches_closure_search(p):
    for cls in _all_classes(p):
        E = cls.representative
        assert md_classifier(E) == md_between(E, E, over_k=False).md, cls


def test_md_between_over_k_refuses_through_check_isogenous():
    """Over the base field, curves of different traces get the shared
    TraceMismatch, an ordinary and a supersingular one included; over the
    closure the trace pair +-t is searched and the others keep their own
    refusals."""
    F = field_create(41)
    E, twist = curve_from_j(F, 5, 6), curve_from_j(F, 5, -6)
    with pytest.raises(TraceMismatch, match="traces 6 and -6 differ; the curves are not k-isogenous"):
        md_between(E, twist)
    supersingular = Curve(F, 0, 1)  # j = 0 and 41 = 2 mod 3: supersingular
    with pytest.raises(TraceMismatch):
        md_between(E, supersingular)
    assert md_between(E, twist, over_k=False).md >= 2
    with pytest.raises(NotIsogenous, match="ordinary and supersingular"):
        md_between(E, supersingular, over_k=False)
    with pytest.raises(NotIsogenous, match="different fields"):
        md_between(E, Curve(field_create(43), 1, 1), over_k=False)


@pytest.mark.parametrize("supersingular", [False, True])
def test_md_classifier_matches_the_residue_table(monkeypatch, supersingular):
    """Both rules depend on p only through p mod |D| <= 12 and the excluded
    primes, all below 24, so primes below 3000 cover every case.  The curve
    is a stand-in carrying p; j(E) and the reduction type are patched in."""
    mod = isogenion.minimal_degree
    monkeypatch.setattr(mod, "is_supersingular", lambda E: supersingular)
    for p in sympy.primerange(5, 3000):
        E = SimpleNamespace(field=SimpleNamespace(p=p))
        for j in sorted({row[1] % p for row in CM_TABLE}):
            monkeypatch.setattr(mod, "j_invariant", lambda E: SimpleNamespace(lift_int=lambda: j))
            assert md_classifier(E) == residue_table_md(p, j, supersingular), (p, j)


def _line_scan_closure(E, m):
    """Every cyclic degree-m isogeny over the closure, the long way: one Velu
    quotient per cyclic line of a basis of E[m]."""
    P, Q, _ = torsion_basis(E, m)
    return [
        velu(P.curve, point_add(scalar_mul(x, P), scalar_mul(y, Q)), m)
        for x, y in cyclic_lines(m)
    ]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cyclic_closure_matches_the_line_scan(p):
    for cls in _all_classes(p):
        E = cls.representative
        for m in (2, 3, 4):
            got = [phi.kernel_polynomial() for phi in _cyclic_closure(E, m)]
            want = {phi.kernel_polynomial() for phi in _line_scan_closure(E, m)}
            assert len(set(got)) == len(got) == len(want), (cls, m)
            assert set(got) == want, (cls, m)


def test_md_classifier_sweep_covers_every_value():
    classes = [c for p in (5, 7, 11, 13) for c in _all_classes(p)]
    assert len(classes) == 84
    assert {md_classifier(c.representative) for c in classes} == {2, 3, 4}


def test_md_supersingular_bounds_at_11():
    report = md_supersingular_bounds(11)
    assert report["p"] == 11
    assert report["fp_bound"] == 4
    assert report["fp_bound_ok"]
    assert len(report["fp_pairs"]) == 6
    assert all(entry["md"] <= report["fp_bound"] for entry in report["fp_pairs"])
    assert report["fp2_deviations"] == []
    assert report["fp2_skipped"] == []
    assert report["full_trace_matches_closure"]
    assert all(entry["equal"] for entry in report["full_trace_matches_closure"])
    assert report["fp2_expected_p"]
    assert all(entry["md"] == 11 for entry in report["fp2_expected_p"])


def test_doubling_witness_over_cubic_extension():
    # for odd t no 2-isogeny is rational over GF(103); the degree-4 witness
    # is [2] on the curve itself, so nothing is built over GF(103^3)
    c = classes_with_trace(field_create(103), 1)[0]
    assert md_between(c.representative, c.representative).md == 4


def test_doubling_witness_is_an_endomorphism_over_the_base_field():
    F = field_create(31)
    E = classes_with_trace(F, 1)[0].representative
    res = md_between(E, E)
    assert res.md == 4
    w = res.witness
    assert w.source_curve == E and w.target_curve == E
    assert w.degree == 4 and w.insep_exp == 0
    rng = random.Random(31)
    for _ in range(10):
        P = E.random_point(rng)
        assert w(P) == scalar_mul(2, P)


def test_doubling_witness_equals_dual_after_a_two_isogeny():
    # with even t a 2-isogeny phi is rational, and [2] = dual(phi) o phi
    checked = 0
    for cls in classes_with_trace(field_create(37), 2):
        E = cls.representative
        res = md_between(E, E)
        if res.md == 4:
            phi = cyclic_isogenies(E, 2)[0]
            assert res.witness == compose(dual(phi), phi)
            checked += 1
    assert checked


def test_rB_at_101():
    F = field_create(101)
    value, pair = rB(F, 1)
    assert value == 11
    assert [(c.j, c.twist_index) for c in pair] == [(F.from_int(16), 0), (F.from_int(99), 1)]
