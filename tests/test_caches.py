"""The package's cross-call caches: one policy (functools.lru_cache, which
reports hits, misses and size), and cached answers equal to a cold
recompute."""

import importlib
import pkgutil

import pytest

import isogenion
from isogenion import minimal_degree
from isogenion.elliptic_curve import (
    base_change,
    curve_from_j,
    sylow_basis,
    torsion_basis,
)
from isogenion.endo_ring import compute_endo_conductor, frobenius_matrix
from isogenion.finite_field import field_create
from isogenion.hom_index_kernel import pair_report

CURVE_CACHES = (
    sylow_basis,
    torsion_basis,
    frobenius_matrix,
    compute_endo_conductor,
    base_change,
)


@pytest.fixture(scope="module")
def volcano():
    F = field_create(41)
    return curve_from_j(F, 29, 6), curve_from_j(F, 25, 6)


def test_no_module_level_containers():
    """No module keeps a dict, list or set of its own, so every cache is an
    lru_cache table."""
    for info in pkgutil.iter_modules(isogenion.__path__):
        module = importlib.import_module(f"isogenion.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__"):
                assert not isinstance(value, (dict, list, set)), f"{info.name}.{name}"


def test_curve_caches_answer_cache_info(volcano):
    E29, _ = volcano
    torsion_basis(E29, 4)
    frobenius_matrix(E29, 4)
    compute_endo_conductor(E29)
    for fn in CURVE_CACHES:
        info = fn.cache_info()
        assert info.maxsize is None and info.currsize >= 1
    for fn in (minimal_degree._cyclic_rational, minimal_degree._cyclic_closure):
        assert fn.cache_info().maxsize is None


def test_float_modulus_is_refused_after_the_int_is_cached(volcano):
    E29, _ = volcano
    torsion_basis(E29, 2)
    frobenius_matrix(E29, 2)
    with pytest.raises(ValueError):
        torsion_basis(E29, 2.0)
    with pytest.raises(ValueError):
        frobenius_matrix(E29, 2.0)


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
