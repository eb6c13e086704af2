"""The classes of one trace, read from the one j-line sweep of a field.

`classes_with_trace` reads `elliptic_curve._j_line`, a table of the
j-invariants of each trace.  Two meters check it: the full sweep it
replaced (`oracles.j_line_classes`), and Schoof's count of the classes of
an ordinary trace as a sum of class numbers (Schoof, JCTA 46 (1987),
Thm 4.6).
"""

from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isogenion import elliptic_curve as ec
from isogenion.elliptic_curve import (
    Curve,
    classes_with_trace,
    curve_class,
    discriminant_frobenius_order,
)
from isogenion.errors import SingularCurve
from isogenion.finite_field import field_create
from isogenion.intmath import divisors, is_prime
from isogenion.isogeny_graph import build_graph
from isogenion.quadratic_order import QuadOrder, class_group
from oracles import j_line_classes

FIELDS = [(11, 2), (7, 2), (5, 3), (31, 1)]


def all_traces(F):
    """Every t with |t| <= floor(2 sqrt q) + 1: the Hasse interval and one
    trace past it, which no class has."""
    bound = isqrt(4 * F.order) + 1
    return range(-bound, bound + 1)


def assert_same_classes(got, want):
    assert got == want
    assert all(a.representative is b.representative for a, b in zip(got, want))


@pytest.mark.parametrize("p, r", FIELDS)
def test_classes_with_trace_equal_the_full_sweep(p, r):
    F = field_create(p, r)
    for t in all_traces(F):
        assert_same_classes(classes_with_trace(F, t), j_line_classes(F, t))
    bound = isqrt(4 * F.order) + 1
    assert classes_with_trace(F, bound) == classes_with_trace(F, -bound) == []


@pytest.mark.parametrize("p, r", FIELDS)
def test_classes_with_trace_survive_clearing_the_tables(p, r):
    F = field_create(p, r)
    warm = {t: classes_with_trace(F, t) for t in all_traces(F)}
    for tables in ([ec._twist_scan], [ec._j_line, ec._twist_scan]):
        for table in tables:
            table.cache_clear()
        for t in all_traces(F):
            got = classes_with_trace(F, t)
            assert got == warm[t]
            assert_same_classes(got, j_line_classes(F, t))


def test_a_returned_list_is_the_callers_own():
    F = field_create(11, 2)
    first = classes_with_trace(F, 1)
    want = list(first)
    assert want
    first.clear()
    first.append(None)
    assert classes_with_trace(F, 1) == want


def test_the_table_holds_j_invariants_not_classes():
    F = field_create(11, 2)
    classes_with_trace(F, 0)
    table = ec._j_line(F)
    for t, js in table.items():
        assert type(t) is int and type(js) is tuple
        for j in js:
            assert type(j) is tuple and len(j) == F.r
            assert all(type(c) is int for c in j)
        assert list(js) == sorted(set(js))


def test_only_the_first_call_on_a_field_sweeps_the_j_line(monkeypatch):
    F = field_create(11, 2)
    seen = []
    real = ec.twist_classes

    def counting(field, j):
        seen.append(j)
        return real(field, j)

    monkeypatch.setattr(ec, "twist_classes", counting)
    ec._j_line.cache_clear()
    first = classes_with_trace(F, 3)
    assert seen[: F.order] == list(F.elements())
    assert len(seen) == F.order + len({c.j for c in first})
    for t in (5, -7, 0, 22):
        seen.clear()
        got = classes_with_trace(F, t)
        js = {c.j for c in got}
        assert len(seen) == len(js) and set(seen) == js
    assert ec._j_line.cache_info().misses == 1


@pytest.mark.parametrize("t", [True, 6.0])
def test_a_trace_that_is_not_an_int_is_refused(monkeypatch, t):
    """A bool or float trace is refused before the table is read: True
    used to answer the trace-1 classes (True == 1 as a dict key), and 6.0
    failed later in split_discriminant with an untyped TypeError."""

    def no_table(field):
        raise AssertionError("j-line read before the trace was checked")

    monkeypatch.setattr(ec, "_j_line", no_table)
    F = field_create(41)
    with pytest.raises(ValueError, match="trace must be an int"):
        classes_with_trace(F, t)
    with pytest.raises(ValueError, match="trace must be an int"):
        build_graph(F, t, 2)


def schoof_count(q, t):
    """The number of classes of an ordinary trace t over GF(q): the sum of
    h(D0 f^2) over the conductors f | f0 (Schoof 1987, Thm 4.6)."""
    D0, f0 = discriminant_frobenius_order(q, t)
    return sum(class_group(QuadOrder(D0, f)).h for f in divisors(f0))


@pytest.mark.parametrize("p, r", [(11, 2), (31, 1)])
def test_ordinary_class_counts_are_schoofs(p, r):
    F = field_create(p, r)
    ordinary = [t for t in all_traces(F) if t * t < 4 * F.order and t % p]
    assert ordinary
    for t in ordinary:
        assert len(classes_with_trace(F, t)) == schoof_count(F.order, t)


SMALL_FIELDS = [
    (p, r) for p in range(5, 344) if is_prime(p) for r in (1, 2, 3) if p**r <= 343
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(SMALL_FIELDS),
    st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
    st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
)
def test_every_curve_has_its_class_among_its_traces(pr, a, b):
    F = field_create(*pr)
    try:
        E = Curve(F, F.from_coeffs(a[: F.r]), F.from_coeffs(b[: F.r]))
    except SingularCurve:
        assume(False)
    assert curve_class(E) in classes_with_trace(F, E.trace)
