"""The package's cross-call caches: one policy (functools.lru_cache, which
reports hits, misses and size), cached answers equal to a cold recompute,
one enumeration of isogenies per curve, a README that names every table,
and field elements and polynomials that keep no hash memo."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import isogenion
from isogenion.elliptic_curve import (
    Curve,
    curve_from_j,
    sylow_basis,
    torsion_basis,
)
from isogenion.endo_ring import compute_endo_conductor, frobenius_matrix
from isogenion.finite_field import FieldElement, field_create
from isogenion.hom_index_kernel import pair_report
from isogenion.isogeny import cyclic_isogenies
from isogenion.isogeny_graph import build_graph
from isogenion.polyring import Poly

README = Path(__file__).resolve().parent.parent / "README.md"


def library_modules():
    return [
        importlib.import_module(f"isogenion.{info.name}")
        for info in pkgutil.iter_modules(isogenion.__path__)
    ]


def cache_tables():
    """Every module-level lru_cache of the package."""
    return [
        value
        for module in library_modules()
        for value in vars(module).values()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    ]


def curve_caches():
    """Every module-level lru_cache whose first parameter is a Curve."""
    found = []
    for value in cache_tables():
        first = next(iter(inspect.signature(value).parameters.values()), None)
        if first is not None and first.annotation in ("Curve", Curve):
            found.append(value)
    return found


CURVE_CACHES = curve_caches()


def readme_sentence(opening):
    """The README's Caches sentence that starts with `opening`."""
    section = README.read_text(encoding="utf-8").split("## Caches", 1)[1]
    words = r"\s+".join(opening.split())
    return re.search(words + r"\s(.*?)\.\s", section, re.DOTALL).group(1)


@pytest.fixture(scope="module")
def volcano():
    F = field_create(41)
    return curve_from_j(F, 29, 6), curve_from_j(F, 25, 6)


def test_no_module_level_containers():
    """No module keeps a dict, list or set of its own, so every cache is an
    lru_cache table."""
    for module in library_modules():
        for name, value in vars(module).items():
            if not name.startswith("__"):
                assert not isinstance(value, (dict, list, set)), (module.__name__, name)


def test_readme_names_every_curve_cache():
    """The README's list of per-curve tables is the discovered one, both ways."""
    listed = readme_sentence("The per-curve ones are")
    names = set(re.findall(r"`(?:\w+\.)?(\w+)`", listed))
    assert names == {fn.__name__ for fn in CURVE_CACHES}
    assert "cyclic_isogenies" in names


def test_readme_names_every_cache_table():
    """The README's list of the other tables, given as `module.name`, is
    every discovered module-level lru_cache that is not per-curve, both
    ways; with the per-curve list it names every table."""
    others = re.findall(r"`(\w+)\.(\w+)`", readme_sentence("The other tables are"))
    discovered = {
        (fn.__module__.rsplit(".", 1)[1], fn.__name__)
        for fn in cache_tables()
        if fn not in CURVE_CACHES
    }
    assert set(others) == discovered


def test_elements_and_polynomials_keep_no_hash_memo():
    assert FieldElement.__slots__ == Poly.__slots__ == ("field", "coeffs")


@pytest.mark.parametrize("r", [1, 2, 6])
def test_hashes_are_the_tuple_hash(r):
    """Elements and polynomials hash as (p, r, coeffs), the values they had
    when they kept a memo, so set and dict orders stay the same."""
    F = field_create(41, r)
    xs = [F.zero, F.one, F.from_int(40), F.from_coeffs(range(1, r + 1))]
    polys = [Poly(F, []), Poly(F, xs), Poly.from_roots(F, xs[1:])]
    for x in xs + polys:
        assert hash(x) == hash((41, r, x.coeffs))


def test_curve_caches_answer_cache_info(volcano):
    E29, _ = volcano
    torsion_basis(E29, 4)
    frobenius_matrix(E29, 4)
    compute_endo_conductor(E29)
    cyclic_isogenies(E29, 2)
    for fn in CURVE_CACHES:
        info = fn.cache_info()
        assert info.maxsize is None and info.currsize >= 1


def test_float_modulus_is_refused_after_the_int_is_cached(volcano):
    E29, _ = volcano
    for fn in (torsion_basis, frobenius_matrix, cyclic_isogenies):
        fn(E29, 2)
        with pytest.raises(ValueError):
            fn(E29, 2.0)


@pytest.mark.parametrize("p, r, t", [(41, 1, 6), (11, 2, -6)])
def test_graph_enumerates_each_vertex_once(p, r, t):
    """build_graph and its conductor searches share one enumeration per
    class representative: every lookup after the first is a hit."""
    cyclic_isogenies.cache_clear()
    g = build_graph(field_create(p, r), t, 2)
    assert g.depth >= 1
    assert cyclic_isogenies.cache_info().misses == len(g.vertices)


def test_cold_recompute_equals_cached(volcano):
    E29, E25 = volcano
    warm_sylow = sylow_basis(E29, 2)
    warm_basis = torsion_basis(E29, 4)
    warm_frob = frobenius_matrix(E29, 4)
    warm_report = pair_report(E29, E25)
    for fn in CURVE_CACHES:
        fn.cache_clear()
    assert sylow_basis(E29, 2) == warm_sylow
    assert torsion_basis(E29, 4) == warm_basis
    cold_frob = frobenius_matrix(E29, 4)
    assert (cold_frob.m, cold_frob.basis, cold_frob.matrix) == (
        warm_frob.m, warm_frob.basis, warm_frob.matrix,
    )
    assert pair_report(E29, E25) == warm_report
    assert sylow_basis.cache_info().misses >= 1
    assert torsion_basis.cache_info().misses >= 1
    assert compute_endo_conductor.cache_info().misses >= 1
    assert cyclic_isogenies.cache_info().misses >= 1
