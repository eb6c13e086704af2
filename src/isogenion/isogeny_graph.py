"""Rational ell-isogeny graphs of a fixed trace class.

Fix k = GF(q), a trace value t realised by some curve over k, and a prime
ell different from the characteristic.  The graph built here has one
vertex per k-isomorphism class with trace t and one directed edge per
Frobenius-stable order-ell subgroup, so an edge u -> v means "some curve
in class u admits a k-rational ell-isogeny onto a curve in class v".
Away from the extra-automorphism j-invariants 0 and 1728 duality makes
the two directions agree and the graph is effectively undirected.

When t^2 - 4q < 0 the endomorphism ring of every class is an order in an
imaginary quadratic field and each connected component is a volcano:
writing t^2 - 4q = f0^2 * D0 with D0 fundamental, a vertex sits at level
v_ell(f) where f is its endomorphism conductor, from 0 (the surface) down
to the floor at depth d = v_ell(f0).  `verify_volcano` checks that shape
clause by clause, `surface_degree` compares horizontal edge counts with
1 + kronecker(D, ell), and `count_components` evaluates the class-group
formula sum of h(O) / ord([l]) over the orders O that are maximal at ell,
which must match the number of components the edge scan actually finds.

Degrees here always count k-rational kernels: a self-loop contributes one
per kernel, and at j = 0 or 1728 several kernels may share a target class
without changing the count.  Every structural check works with these raw
kernel counts; the handshake convention (loops doubled) adds
`multiplicity(v, v)` to `degree(v)`.
"""

from __future__ import annotations

import json
from collections import Counter

from .elliptic_curve import (
    check_coprime_to_p,
    classes_with_trace,
    discriminant_frobenius_order,
    frobenius_is_integer,
)
from .endo_ring import conductor_level
from .errors import NoCurveWithTrace, NotOnSurface
from .finite_field import Field, element_to_json
from .intmath import divisors, is_prime, kronecker, prime_factors, valuation
from .isogeny import cyclic_isogenies
from .quadratic_order import class_group, class_order, primes_above, quad_order


class IsogenyGraph:
    """An ell-isogeny graph over one finite field and trace class.

    Vertices are CurveClass values in a fixed deterministic order; edges
    are stored as a sorted tuple of (from-index, to-index, multiplicity)
    triples where the multiplicity counts k-rational kernels.  `levels`
    aligns with `vertices` and gives each class's distance below the
    surface, i.e. the ell-valuation of its endomorphism conductor.
    """

    __slots__ = (
        "field",
        "trace",
        "ell",
        "vertices",
        "edges",
        "levels",
        "depth",
        "components",
        "disc0",
        "cond0",
        "_adj",
    )

    def __init__(
        self, field, trace, ell, vertices, edges, levels, depth, components,
        disc0, cond0,
    ):
        self.field = field
        self.trace = trace
        self.ell = ell
        self.vertices = tuple(vertices)
        self.edges = tuple(sorted(tuple(e) for e in edges))
        self.levels = tuple(levels)
        self.depth = depth
        self.components = tuple(tuple(c) for c in components)
        self.disc0 = disc0
        self.cond0 = cond0
        adj: dict[int, dict[int, int]] = {}
        for u, v, m in self.edges:
            adj.setdefault(u, {})[v] = m
        self._adj = adj

    def multiplicity(self, u: int, v: int) -> int:
        """Number of k-rational kernels on curves in class u whose
        quotient lands in class v (0 when there is no edge)."""
        return self._adj.get(u, {}).get(v, 0)

    def degree(self, v: int) -> int:
        """Kernel count at v (a self-loop counts once per kernel)."""
        return sum(self._adj.get(v, {}).values())

    def kernels_to_level(self, v: int, level: int) -> int:
        """Number of kernels at v whose quotient lands on the given level."""
        return sum(m for w, m in self._adj.get(v, {}).items() if self.levels[w] == level)

    def __repr__(self):
        return (
            f"IsogenyGraph(q={self.field.order}, t={self.trace}, "
            f"ell={self.ell}, vertices={len(self.vertices)}, "
            f"depth={self.depth})"
        )


def build_graph(field: Field, trace: int, ell: int) -> IsogenyGraph:
    """The ell-isogeny graph of all classes over `field` with this trace.

    Vertices are the field's classes (one j-line sweep per field) with the
    requested trace; each vertex's edges are its cyclic_isogenies, the
    target class located among the vertices.  ell may be any prime int
    not dividing q (ValueError, or PPartUnsupported from
    check_coprime_to_p, before the sweep); a kernel past M_MAX or R_MAX
    raises BoundExceeded.  Raises NoCurveWithTrace when the sweep finds
    nothing.
    """
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"ell must be a prime, got {ell!r}")
    check_coprime_to_p(ell, field.p)

    classes = classes_with_trace(field, trace)
    if not classes:
        raise NoCurveWithTrace(
            f"no curve over GF({field.order}) has trace {trace}"
        )
    index = {cls: i for i, cls in enumerate(classes)}

    if frobenius_is_integer(field.order, trace):
        disc0 = cond0 = None
        depth = 0
        levels = (0,) * len(classes)
    else:
        disc0, cond0 = discriminant_frobenius_order(field.order, trace)
        depth = valuation(cond0, ell)
        levels = tuple(conductor_level(c.representative, ell) for c in classes)

    counts = Counter(
        (u, index[edge.target])
        for u, cls in enumerate(classes)
        for edge in cyclic_isogenies(cls.representative, ell)
    )
    edges = [(u, v, m) for (u, v), m in counts.items()]

    parent = list(range(len(classes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for i in range(len(classes)):
        groups.setdefault(find(i), []).append(i)
    components = tuple(sorted(tuple(sorted(g)) for g in groups.values()))

    return IsogenyGraph(
        field, trace, ell, classes, edges, levels, depth, components,
        disc0, cond0,
    )


def verify_volcano(g: IsogenyGraph) -> dict:
    """Check the volcano shape of every component, one clause at a time.

    Returns a report with one entry per clause, each carrying an "ok"
    flag and a witness list:

    - surface_regular: within each component, the level-0 vertices all
      have the same surface-subgraph kernel degree, and it is at most 2
      (witnesses: offending vertex indices).
    - unique_ascent: every vertex below the surface has exactly one
      kernel leading one level up, and no edge is horizontal below the
      surface or jumps more than one level (witnesses: vertex indices
      and (u, v) edge pairs).
    - level_degrees: when the graph has positive depth, kernel degree is
      ell + 1 strictly above the floor and 1 on the floor (witnesses:
      vertex indices).  Depth-0 graphs pass this clause trivially.

    Degrees count k-rational kernels, so the extra automorphisms at
    j = 0 and 1728 (which can merge several kernels into one drawn
    neighbor) never disturb the counts being checked.
    """
    surface_bad: list[int] = []
    ascent_bad: list = []
    degree_bad: list[int] = []

    for comp in g.components:
        surface = [v for v in comp if g.levels[v] == 0]
        sdegs = {v: g.kernels_to_level(v, 0) for v in surface}
        if sdegs:
            expected = min(sdegs.values())
            for v, dv in sdegs.items():
                if dv > 2 or dv != expected:
                    surface_bad.append(v)

        for v in comp:
            if g.levels[v] > 0 and g.kernels_to_level(v, g.levels[v] - 1) != 1:
                ascent_bad.append(v)

        if g.depth > 0:
            for v in comp:
                deg = g.degree(v)
                want = g.ell + 1 if g.levels[v] < g.depth else 1
                if deg != want:
                    degree_bad.append(v)

    for u, v, _ in g.edges:
        lu, lv = g.levels[u], g.levels[v]
        if (lu == lv and lu > 0) or abs(lu - lv) > 1:
            ascent_bad.append((u, v))

    report = {
        "depth": g.depth,
        "surface_regular": {
            "ok": not surface_bad, "witnesses": tuple(surface_bad),
        },
        "unique_ascent": {
            "ok": not ascent_bad, "witnesses": tuple(ascent_bad),
        },
        "level_degrees": {
            "ok": not degree_bad, "witnesses": tuple(degree_bad),
        },
    }
    report["ok"] = all(
        report[k]["ok"]
        for k in ("surface_regular", "unique_ascent", "level_degrees")
    )
    return report


def surface_degree(g: IsogenyGraph, v: int) -> int:
    """Horizontal kernel count at a surface vertex.

    The value is checked against 1 + kronecker(D, ell), where D is the
    discriminant of the vertex's endomorphism order; since a surface
    vertex's conductor is prime to ell, only the fundamental part D0
    enters the symbol.  Raises NotOnSurface for vertices below the
    surface and for graphs whose Frobenius is an integer
    (frobenius_is_integer: trace +-2*sqrt(q)), which have no quadratic
    level structure at all.
    """
    if frobenius_is_integer(g.field.order, g.trace):
        raise NotOnSurface(
            "trace +-2*sqrt(q) classes carry no two-level structure"
        )
    if g.levels[v] != 0:
        raise NotOnSurface(f"vertex {v} sits at level {g.levels[v]}")
    horizontal = g.kernels_to_level(v, 0)
    assert horizontal == 1 + kronecker(g.disc0, g.ell)
    return horizontal


def count_components(q: int, t: int, ell: int) -> int:
    """Component count of the (q, t) ell-isogeny graph by class theory.

    Writing t^2 - 4q = f0^2 * D0, every component's surface consists of
    classes sharing one endomorphism order O maximal at ell, and the
    surface cycle length is the order of the class [l] of a prime above
    ell in cl(O) (1 when ell is inert, so such vertices head their own
    components).  Summing h(O) / ord([l]) over the orders between Z[pi]
    and the maximal order that are maximal at ell counts every component
    exactly once.  q must be a prime power and t an int (ValueError), and
    ell a prime int (ValueError) not dividing q (PPartUnsupported from
    check_coprime_to_p, as build_graph refuses that graph).
    """
    primes = prime_factors(q) if type(q) is int and q > 1 else ()
    if len(primes) != 1 or type(t) is not int:
        raise ValueError(f"need a prime power q and an int t, got {q!r}, {t!r}")
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"ell must be a prime not dividing q = {q}, got {ell!r}")
    check_coprime_to_p(ell, primes[0])
    disc0, cond0 = discriminant_frobenius_order(q, t)
    total = 0
    for f in divisors(cond0 // ell ** valuation(cond0, ell)):
        order = quad_order(disc0, f)
        above = primes_above(order, ell)
        cycle = class_order(above[0]) if above else 1
        h = class_group(order).h
        assert h % cycle == 0
        total += h // cycle
    return total


def _j_text(j) -> str:
    try:
        return str(j.lift_int())
    except ValueError:
        return str(j.lift())


def graph_to_dot(g: IsogenyGraph) -> str:
    """GraphViz source: undirected, one repeated edge per kernel, vertex
    labels "j=<val> [L<level>]".  Where automorphisms make the two
    directed multiplicities disagree (j = 0 or 1728) the larger count is
    drawn."""
    lines = ["graph isogeny {"]
    for i, cls in enumerate(g.vertices):
        lines.append(f'    v{i} [label="j={_j_text(cls.j)} [L{g.levels[i]}]"];')
    for u, v, m in g.edges:
        if u > v:
            continue
        copies = m if u == v else max(m, g.multiplicity(v, u))
        lines.extend(f"    v{u} -- v{v};" for _ in range(copies))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: IsogenyGraph) -> str:
    """A deterministic JSON document with the graph's vertices (j, trace,
    twist index), per-vertex levels, directed edge triples, and connected
    components."""
    doc = {
        "field": {"p": g.field.p, "r": g.field.r},
        "trace": g.trace,
        "ell": g.ell,
        "depth": g.depth,
        "vertices": [
            {"j": element_to_json(c.j), "trace": c.trace, "twist": c.twist_index}
            for c in g.vertices
        ],
        "levels": list(g.levels),
        "edges": [list(e) for e in g.edges],
        "components": [list(c) for c in g.components],
    }
    return json.dumps(doc, sort_keys=True)
