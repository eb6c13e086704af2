"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import isogenion  # noqa: E402
from isogenion import (  # noqa: E402,F401  (the tracer targets every module)
    elliptic_curve, endo_ring, errors, finite_field, hom_index_kernel, isogeny,
    isogeny_graph, minimal_degree, polyring, quadratic_order,
)

with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_query_list(workload):
    first = workloads.queries(workload, 7)
    assert workloads.queries(workload, 7) == first
    other = workloads.queries(workload, 8)
    assert other != first
    assert sorted(other) == sorted(first)
    assert {workloads.key(q) for q in first} == set(REFERENCE[workload])


@pytest.mark.parametrize("seed", range(5))
def test_every_seed_starts_with_the_same_block(seed):
    fields = [q[1] for q in workloads.queries("mindeg-fp", seed)]
    first = fields.count(workloads.MINDEG_FIRST_P)
    assert fields[:first] == [workloads.MINDEG_FIRST_P] * first

    traces = [q[3] for q in workloads.queries("graph-fp2", seed)]
    t = workloads.GRAPH_FIRST_T
    assert traces[:4] == [t, t, -t, -t]
    first_at = {}
    for i, u in enumerate(traces):
        first_at.setdefault(u, i)
    # a twist pair is one block: t for both ells, then -t
    assert all(first_at[-u] == first_at[u] + 2 for u in range(1, max(traces) + 1))


def _bindings():
    """(namespace, attribute) -> object for every traced function or method."""
    targets = set()
    for table in (tracer.SPANNED, tracer.COUNTED):
        for mod, names in table.items():
            for name in names:
                targets.add(id(getattr(sys.modules[f"isogenion.{mod}"], name)))
    out = {}
    for module in tracer.library_modules():
        for attr, value in vars(module).items():
            if id(value) in targets:
                out[(module, attr)] = value
    for mod, cls_name, meth, _ in tracer.COUNTED_METHODS:
        cls = getattr(sys.modules[f"isogenion.{mod}"], cls_name)
        out[(cls, meth)] = cls.__dict__[meth]
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    # functions imported under another name are bound more than once
    sqrt_names = {attr for (ns, attr), v in before.items() if v is finite_field.sqrt}
    assert sqrt_names == {"sqrt", "field_sqrt"}
    t = tracer.Tracer()
    t.install()
    try:
        for (namespace, attr), original in before.items():
            now = getattr(namespace, attr)
            assert now is not original and now.__wrapped__ is original, (namespace, attr)
        originals = {id(v) for v in before.values()}
        for module in tracer.library_modules():
            assert not any(id(v) in originals for v in vars(module).values())

        E = elliptic_curve.Curve(finite_field.field_create(43), 2, 3)
        elliptic_curve.torsion_basis(E, 2)
    finally:
        t.uninstall()
    assert _bindings() == before
    for (namespace, attr), original in before.items():
        assert getattr(namespace, attr) is original

    m = t.metrics()
    assert m["elliptic_curve.torsion_basis.calls"] == 1
    assert m["elliptic_curve.count_points.sweeps"] == 1
    assert m["elliptic_curve.sylow_basis.calls"] >= 1
    names = [s[0] for s in t.spans]
    top = names.index("elliptic_curve.torsion_basis")
    assert t.spans[top][3] == -1
    for name, start, end, parent, _ in t.spans:
        assert start <= end
        if name == "elliptic_curve.sylow_basis":
            assert parent == top
    total = t.spans[top][2] - t.spans[top][1]
    assert 0 <= m["elliptic_curve.torsion_basis.self_s"] <= total


def test_worker_refuses_a_warm_process():
    with pytest.raises(RuntimeError, match="fresh interpreter"):
        worker.import_library()


@pytest.fixture(scope="module")
def torsion_ctx():
    return worker.prepare(isogenion, "torsion-fp")


def _check(workload, query, raw, ctx):
    answers = {workloads.key(query): worker.judge_answer(isogenion, ctx, query, raw, [])}
    return run.judge({k: REFERENCE[workload][k] for k in answers}, answers)


def _answer(query, ctx):
    try:
        return worker.answer(isogenion, ctx, query)
    except errors.IsogenionError as exc:
        return exc


@pytest.mark.parametrize("query, refused", [
    (("torsion_basis", 5, 4), 0),
    (("frobenius_matrix", 29, 3), 0),
    (("pair_report", 29, 5), 0),
    (("torsion_basis", 13, 13), 1),
])
def test_checker_passes_the_right_answers(torsion_ctx, query, refused):
    assert _check("torsion-fp", query, _answer(query, torsion_ctx), torsion_ctx) == (0, refused)


def test_checker_flags_wrong_answers(torsion_ctx):
    query = ("torsion_basis", 5, 4)
    P, Q, K = worker.answer(isogenion, torsion_ctx, query)
    # a pair that does not span E[4], though its field is right
    assert _check("torsion-fp", query, (P, P, K), torsion_ctx) == (1, 0)

    query = ("pair_report", 29, 5)
    text = worker.answer(isogenion, torsion_ctx, query)
    assert _check("torsion-fp", query, text.replace("[", "[0, ", 1), torsion_ctx) == (1, 0)
    # a refusal where the reference has an answer, and an untyped error
    assert _check("torsion-fp", query, errors.BoundExceeded("cap"), torsion_ctx) == (1, 0)
    assert _check("torsion-fp", query, AssertionError("bug"), torsion_ctx) == (1, 0)
    # the wrong refusal class
    query = ("torsion_basis", 13, 13)
    assert _check("torsion-fp", query, errors.NotRational("x"), torsion_ctx) == (1, 0)


def test_judge_counts_missing_and_refused_answers():
    reference = {"a": "1", "b": "2", "c": "3"}
    answers = {"a": ["1", "answer"], "b": ["2", "refused"]}
    assert run.judge(reference, answers) == (1, 1)
    answers["c"] = ["3", "error"]
    assert run.judge(reference, answers) == (1, 1)


def test_tail_is_the_value_with_ten_above_it():
    latencies = [float(i) for i in range(40)]
    assert run.tail(latencies) == (29.0, 75.0)
    with pytest.raises(run.BenchError):
        run.tail(latencies[:10])
