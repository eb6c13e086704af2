"""Import hygiene of the package sources, read with `ast`.

Every top-level import must be used by its module (the `from __future__`
feature `annotations` and names re-exported through `__all__` excepted),
no module reaches into another's private names with
`from .module import _name`, every private top-level function or class
is referenced somewhere in its module outside its own body, no module
calls `velu`, only `elliptic_curve.py` builds raw points, and
`isogeny_graph.py` never factors (no `roots`).  Every public function,
class, method and property has a caller outside the tests, a function
imports only what a top-level import would turn into a cycle, no module
reads the environment, and the test oracles check with explicit raises
rather than `assert`.
"""

import ast
import re
from pathlib import Path

import pytest

import isogenion

SOURCES = sorted(Path(isogenion.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree):
    """Names listed in a top-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


def top_level_imports(tree):
    """(bound name, line) for every import statement in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_top_level_imports(path):
    tree = parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    keep = used | exported(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in top_level_imports(tree)
        if name not in keep
    ]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_private_cross_module_imports(path):
    tree = parse(path)
    private = [
        f"{'.' * node.level}{node.module or ''}.{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("isogenion"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_dead_private_helpers(path):
    tree = parse(path)
    private = [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    dead = []
    for helper in private:
        used = {
            n.id
            for other in tree.body
            if other is not helper
            for n in ast.walk(other)
            if isinstance(n, ast.Name)
        }
        if helper.name not in used:
            dead.append(f"{helper.name} (line {helper.lineno})")
    assert not dead, f"{path.name} defines but never uses: {', '.join(dead)}"


def calls_to(tree, name):
    """Lines that call `name`, bare or as an attribute (`module.name`)."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    ]


def test_only_isogeny_calls_velu():
    """velu is the validating public entry point, and the package calls it
    nowhere: isogeny.py builds every Velu step with its one step
    constructor, and other modules take their isogenies from
    cyclic_isogenies, the one enumerator."""
    callers = [
        f"{path.name} (line {line})"
        for path in SOURCES
        for line in calls_to(parse(path), "velu")
    ]
    assert not callers, f"velu is called inside the package: {', '.join(callers)}"


def test_only_elliptic_curve_builds_raw_points():
    """Other modules get their points through Curve.point, which checks the
    equation, or embed_point, which checks the base change."""
    callers = [
        f"{path.name} (line {node.lineno})"
        for path in SOURCES
        if path.name != "elliptic_curve.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Point"
    ]
    assert not callers, f"Point is built outside its module: {', '.join(callers)}"



def test_isogeny_graph_does_not_find_roots():
    """build_graph tests each Velu target by division (polyring.multiplicity),
    so factoring Phi_ell(j, Y) cannot creep back into its per-vertex loop."""
    tree = parse(next(p for p in SOURCES if p.name == "isogeny_graph.py"))
    imports = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "roots" for alias in node.names)
    ]
    calls = [f"line {line}" for line in calls_to(tree, "roots")]
    assert not imports, f"isogeny_graph.py imports roots: {', '.join(imports)}"
    assert not calls, f"isogeny_graph.py calls roots: {', '.join(calls)}"


def names_in(node):
    """Every name, attribute and imported name that occurs under `node`."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in n.names)
    return out


def readme_code_names():
    """Words of the README's inline code spans and names of its python
    block; its prose does not count."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fence = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
    out = set()
    for lang, body in fence.findall(text):
        if lang == "python":
            out |= names_in(ast.parse(body))
    for span in re.findall(r"`([^`]+)`", fence.sub("", text)):
        out.update(re.findall(r"\w+", span))
    return out


def uses_in(node):
    """(bare names, (module stem, name) imports, attributes, attributes
    called) under `node`."""
    bare, imported, attrs, called = set(), set(), set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            bare.add(n.id)
        elif isinstance(n, ast.ImportFrom) and n.module:
            imported.update((n.module.split(".")[-1], a.name) for a in n.names)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            called.add(n.func.attr)
    return bare, imported, attrs, called


def slot_names(tree):
    """Every name listed in a class's `__slots__`."""
    return {
        ast.literal_eval(elt)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
        for elt in node.value.elts
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public function, class, method or property is used by library code
    outside its own definition, by the benchmark (`bench/*.py`), by `tools/`
    or by the README's code; an operation that only tests call is a second
    spelling of one the package already has, or belongs in
    `tests/oracles.py`.  A top-level function or class counts as a bare name
    in its own module or an import from that module (the scripts also reach
    it as a module attribute), so `FieldElement.is_square` cannot hide an
    unused `intmath.is_square`.  A method or property counts as an
    attribute, except that a method (not a property) named like a slot of
    a library class counts only as a call: `fm.basis` reads a slot and is
    no use of `QuadIdeal.basis`."""
    paths = [*(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    scripts = [uses_in(parse(path)) for path in paths]
    trees = {path.stem: parse(path) for path in SOURCES}
    tops = [(stem, node, uses_in(node)) for stem, tree in trees.items() for node in tree.body]
    readme = readme_code_names()
    script_attrs = set().union(*(u[2] for u in scripts))
    imported = set().union(*(u[1] for u in scripts), *(u[1] for _, _, u in tops))
    slots = set().union(*map(slot_names, trees.values()))
    unused = []
    for i, (stem, node, _) in enumerate(tops):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        own_module = set().union(*(u[0] for k, (s, _, u) in enumerate(tops) if s == stem and k != i))
        if not (
            node.name.startswith("_")
            or node.name in readme | script_attrs | own_module
            or (stem, node.name) in imported
        ):
            unused.append(f"{stem}.{node.name}")
        for m in node.body if isinstance(node, ast.ClassDef) else ():
            if not isinstance(m, ast.FunctionDef) or m.name.startswith("_"):
                continue
            prop = any(isinstance(d, ast.Name) and d.id == "property" for d in m.decorator_list)
            kind = 3 if m.name in slots and not prop else 2  # called, else any attribute
            rest = [u for k, (_, _, u) in enumerate(tops) if k != i]
            rest += [uses_in(o) for o in node.body if o is not m] + scripts
            if m.name not in readme and not any(m.name in u[kind] for u in rest):
                unused.append(f"{stem}.{node.name}.{m.name}")
    assert not unused, f"public names that only tests use: {', '.join(unused)}"


def test_function_level_imports_break_a_cycle():
    """An import inside a function names a package module that imports this
    one back, directly or through others, at its top level; anything else
    belongs at the top of the module."""
    trees = {path.stem: parse(path) for path in SOURCES}
    graph = {
        stem: {n.module for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1}
        for stem, tree in trees.items()
    }

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            mod = todo.pop()
            if mod == goal:
                return True
            if mod not in seen:
                seen.add(mod)
                todo.extend(graph.get(mod, ()))
        return False

    stray = [
        f"{stem}.py (line {node.lineno})"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and node not in tree.body
        and not (isinstance(node, ast.ImportFrom) and node.level == 1
                 and reaches(node.module, stem))
    ]
    assert not stray, f"function-level imports that form no cycle: {', '.join(stray)}"


def test_no_module_reads_the_environment():
    """Behaviour depends on arguments alone: no module reads `os.environ`
    or `os.getenv`."""
    readers = [
        f"{path.name} (line {node.lineno})"
        for path in SOURCES
        for node in ast.walk(parse(path))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name in ("environ", "getenv") for alias in node.names)
        )
    ]
    assert not readers, f"modules read the environment: {', '.join(readers)}"


def test_oracles_use_no_assert_statements():
    """pytest rewrites `assert` only in test modules, and `python -O` strips
    it everywhere else, so the shared oracles check with explicit raises."""
    path = Path(__file__).resolve().parent / "oracles.py"
    asserts = [
        f"line {node.lineno}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, f"oracles.py uses assert at {', '.join(asserts)}"


def test_every_refusal_names_its_cap():
    """Each `BoundExceeded` raised in the package says which cap tripped,
    its limit and the value requested (None where it is not known)."""
    bare = [
        f"{path.name} (line {node.lineno})"
        for path in SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "BoundExceeded"
        and not {"cap", "limit", "requested"} <= {kw.arg for kw in node.keywords}
    ]
    assert not bare, f"BoundExceeded without cap, limit or requested: {', '.join(bare)}"


def owners(test):
    """`module.function` for each top-level function or method with a node
    that passes `test`."""
    out = set()
    for path in SOURCES:
        for node in parse(path).body:
            scopes = node.body if isinstance(node, ast.ClassDef) else [node]
            out.update(
                f"{path.stem}.{scope.name}"
                for scope in scopes
                if isinstance(scope, ast.FunctionDef)
                and any(test(n) for n in ast.walk(scope))
            )
    return out


def test_each_cap_has_one_owner():
    """check_torsion_order is the one gate for torsion and kernel orders,
    and compose keeps its own cap on the separable degree; field_create
    refuses every extension past R_MAX, except where torsion_degree refuses
    before any field is built and divide_point ends its scan."""
    compares_m_max = owners(
        lambda n: isinstance(n, ast.Compare)
        and any(isinstance(x, ast.Name) and x.id == "M_MAX" for x in ast.walk(n))
    )
    assert compares_m_max == {"elliptic_curve.check_torsion_order", "isogeny.compose"}
    names_r_max = owners(lambda n: isinstance(n, ast.Constant) and n.value == "R_MAX")
    assert names_r_max == {
        "finite_field.field_create",
        "elliptic_curve.torsion_degree",
        "elliptic_curve.divide_point",
    }


def builds(name):
    """`module.function` for each function that calls `name` by its bare
    name (for an exception class, each function that builds one)."""
    return owners(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
    )


def times(k):
    """A test for a product with the literal factor k."""
    return lambda n: (
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mult)
        and any(isinstance(x, ast.Constant) and x.value == k for x in (n.left, n.right))
    )


def compares(*tests):
    """`module.function` for each function with a comparison that has, for
    each test, an operand that passes it."""
    return owners(
        lambda n: isinstance(n, ast.Compare)
        and all(any(test(x) for x in (n.left, *n.comparators)) for test in tests)
    )


def test_each_decision_has_one_owner():
    """check_isogenous owns the same-trace refusal and check_kernel_generator
    the exact-order one; compose decides whether its middle models are
    isomorphic, and Isogeny.__eq__ whether its source models are, by
    isomorphism_scale, not by computing two classes.  The kernel scan owns
    the orders of the kernel points, so neither kernel_gen nor hom_index
    orders them again, and hom_index owns the annihilator lattice that
    pair_report's oracle_index reads.  check_coprime_to_p owns the p-part
    refusal, the descent of the kernel polynomial decides whether velu's
    kernel is Frobenius-stable, and IsogenyGraph alone reads its adjacency
    map.  frobenius_is_integer alone decides t^2 = 4q, for the seven sites
    that choose the quaternionic case; only the Hasse check of _set_count
    and eB's argument check compare with 4q themselves, and eB alone calls
    the Minkowski floor."""
    assert compares(times(4)) == {
        "elliptic_curve.frobenius_is_integer",
        "elliptic_curve._set_count",
        "minimal_degree.eB",
    }
    calls_abs = lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "abs"
    assert not compares(times(2), calls_abs)
    assert builds("frobenius_is_integer") == {
        "elliptic_curve.torsion_degree",
        "endo_ring.annihilator_index",
        "hom_index_kernel.hom_index",
        "isogeny_graph.build_graph",
        "isogeny_graph.surface_degree",
        "minimal_degree.md_between",
        "minimal_degree.md_supersingular_bounds",
    }
    assert builds("floor_two_over_pi_sqrt") == {"minimal_degree.eB"}
    is_none = lambda n: isinstance(n, ast.Constant) and n.value is None
    names_disc0 = lambda n: getattr(n, "id", getattr(n, "attr", None)) == "disc0"
    assert not compares(is_none, names_disc0)
    assert builds("TraceMismatch") == {"elliptic_curve.check_isogenous"}
    assert builds("WrongOrder") == {"elliptic_curve.check_kernel_generator"}
    for owner in ("isogeny.compose", "isogeny.__eq__"):
        assert owner not in builds("curve_class")
        assert owner in builds("isomorphism_scale")
    assert not {"isogeny.kernel_gen", "hom_index_kernel.hom_index"} & builds("point_order")
    for name in ("annihilator_index", "annihilator_lattice"):
        assert "hom_index_kernel.pair_report" not in builds(name)
    assert builds("PPartUnsupported") == {"elliptic_curve.check_coprime_to_p"}
    for name in ("point_log", "_frobenius_eigenvalue"):
        assert "isogeny.velu" not in builds(name)
    graph = parse(Path(isogenion.__file__).parent / "isogeny_graph.py")
    readers = {
        node.name
        for node in graph.body
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and n.attr == "_adj"
    }
    assert readers == {"IsogenyGraph"}


def test_each_point_is_certified_and_ordered_once():
    """sylow_basis certifies the bottoms a torsion basis inherits, so
    torsion_basis tests no independence again; point_order runs one
    ell-chain per prime, with no recursion; frobenius_matrix is gated by
    torsion_basis alone; and unmap's row test is its one membership test."""
    for name in ("point_log", "_bottom_independent"):
        assert "elliptic_curve.torsion_basis" not in builds(name)
    assert builds("_bottom_independent") == {"elliptic_curve.sylow_basis"}
    curve = parse(Path(isogenion.__file__).parent / "elliptic_curve.py")
    names = {n.name for n in curve.body if isinstance(n, ast.FunctionDef)}
    assert not {"_certify_basis", "_order_dividing"} & names
    assert "elliptic_curve.point_order" not in builds("point_order")
    assert "elliptic_curve.point_order" in builds("_ell_power_order")
    assert "endo_ring.frobenius_matrix" not in builds("check_torsion_order")
    calls_map = owners(
        lambda n: isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "map"
    )
    assert "polyring.unmap" not in calls_map
