"""Isogeny-graph construction against hand-checked volcano structures.

The GF(41)/trace-6 and GF(53)/trace-0 graphs are frozen edge by edge;
derived quantities (component counts, level populations, loop counts)
are cross-checked against independent witnesses: ring class numbers,
Kronecker symbols, Frobenius scalarity on torsion, and cubic splitting.
"""

import hashlib
import json
from collections import Counter

import pytest

import isogenion.isogeny_graph
import isogenion.polyring
from isogenion.elliptic_curve import curve_from_j
from isogenion.endo_ring import frobenius_matrix
from isogenion.errors import (
    NoCurveWithTrace,
    NotImaginaryQuadratic,
    NotOnSurface,
    PPartUnsupported,
    UnsupportedLevel,
)
from isogenion.finite_field import field_create
from isogenion.intmath import kronecker
from isogenion.isogeny import cyclic_isogenies, modular_polynomial
from isogenion.isogeny_graph import (
    IsogenyGraph,
    build_graph,
    count_components,
    graph_to_dot,
    graph_to_json,
    surface_degree,
    verify_volcano,
)
from isogenion.polyring import Poly, roots
from isogenion.quadratic_order import class_group, quad_order

F7 = field_create(7)
F11 = field_create(11)
F31 = field_create(31)
F41 = field_create(41)
F49 = field_create(7, 2)
F53 = field_create(53)

# the trace-6 2-volcano over GF(41): j-invariant -> level
VOLCANO_LEVELS = {5: 0, 29: 1, 22: 1, 13: 2, 33: 2, 25: 2, 35: 2}


def vdx(g, j):
    """Index of the unique vertex with this j-invariant (GF(p) graphs)."""
    hits = [i for i, c in enumerate(g.vertices) if c.j.lift_int() == j]
    assert len(hits) == 1
    return hits[0]


def undirected_j_pairs(g):
    """Multiset of undirected edges named by j-invariant pairs."""
    bag = Counter()
    for u, v, m in g.edges:
        if u > v:
            continue
        ju = g.vertices[u].j.lift_int()
        jv = g.vertices[v].j.lift_int()
        bag[tuple(sorted((ju, jv)))] += m
    return bag


@pytest.fixture(scope="module")
def g41_2():
    return build_graph(F41, 6, 2)


@pytest.fixture(scope="module")
def g41_3():
    return build_graph(F41, 6, 3)


@pytest.fixture(scope="module")
def g53_2():
    return build_graph(F53, 0, 2)


@pytest.fixture(scope="module")
def g53_3():
    return build_graph(F53, 0, 3)


@pytest.fixture(scope="module")
def g31_2():
    return build_graph(F31, 4, 2)


class TestTraceSixVolcano:
    """The 7-vertex 2-volcano over GF(41), frozen edge by edge."""

    def test_vertex_set(self, g41_2):
        assert sorted(c.j.lift_int() for c in g41_2.vertices) == sorted(
            VOLCANO_LEVELS
        )
        assert all(c.trace == 6 for c in g41_2.vertices)

    def test_levels_and_depth(self, g41_2):
        assert g41_2.depth == 2
        got = {
            c.j.lift_int(): g41_2.levels[i]
            for i, c in enumerate(g41_2.vertices)
        }
        assert got == VOLCANO_LEVELS

    def test_edge_multiset(self, g41_2):
        assert undirected_j_pairs(g41_2) == Counter(
            {
                (5, 5): 1,
                (5, 29): 1,
                (5, 22): 1,
                (13, 29): 1,
                (29, 33): 1,
                (22, 25): 1,
                (22, 35): 1,
            }
        )

    def test_single_component(self, g41_2):
        assert len(g41_2.components) == 1
        assert g41_2.components[0] == tuple(range(7))

    def test_degrees_by_level(self, g41_2):
        for i, c in enumerate(g41_2.vertices):
            level = VOLCANO_LEVELS[c.j.lift_int()]
            assert g41_2.degree(i) == (3 if level < 2 else 1)

    def test_loop_degree_conventions(self, g41_2):
        i5 = vdx(g41_2, 5)
        assert g41_2.degree(i5) == 3
        assert g41_2.degree(i5) + g41_2.multiplicity(i5, i5) == 4  # loops doubled
        assert len({v for u, v, _ in g41_2.edges if u == i5}) == 3  # itself, 22, 29

    def test_directed_symmetry(self, g41_2):
        for u, v, m in g41_2.edges:
            assert g41_2.multiplicity(v, u) == m

    def test_volcano_report_passes(self, g41_2):
        report = verify_volcano(g41_2)
        assert report["ok"] and report["depth"] == 2
        for clause in ("surface_regular", "unique_ascent", "level_degrees"):
            assert report[clause] == {"ok": True, "witnesses": ()}

    def test_classify_edges(self, g41_2):
        i5, i29, i13 = vdx(g41_2, 5), vdx(g41_2, 29), vdx(g41_2, 13)
        levels = g41_2.levels
        assert levels[i29] == levels[i5] + 1  # 5 -> 29 descends
        assert levels[i13] == levels[i29] + 1  # 29 -> 13 descends
        assert g41_2.multiplicity(i5, i5) and g41_2.multiplicity(i29, i13)
        assert not g41_2.multiplicity(i5, i13)  # levels 0 -> 2, not an edge
        assert all(abs(levels[u] - levels[v]) <= 1 for u, v, _ in g41_2.edges)

    def test_surface_degree(self, g41_2):
        i5 = vdx(g41_2, 5)
        assert surface_degree(g41_2, i5) == 1 + kronecker(-8, 2) == 1
        with pytest.raises(NotOnSurface):
            surface_degree(g41_2, vdx(g41_2, 29))

    def test_level_populations_are_class_numbers(self, g41_2):
        by_level = Counter(g41_2.levels)
        assert by_level == {
            0: class_group(quad_order(-8, 1)).h,
            1: class_group(quad_order(-8, 2)).h,
            2: class_group(quad_order(-8, 4)).h,
        }
        assert by_level == {0: 1, 1: 2, 2: 4}


class TestTraceSixThreeGraph:
    """Same trace class at ell = 3: depth 0, loops, and a double edge."""

    def test_depth_zero(self, g41_3):
        assert g41_3.depth == 0
        assert set(g41_3.levels) == {0}

    def test_edge_multiset(self, g41_3):
        assert undirected_j_pairs(g41_3) == Counter(
            {
                (5, 5): 2,
                (22, 29): 2,
                (13, 25): 1,
                (13, 35): 1,
                (25, 33): 1,
                (33, 35): 1,
            }
        )

    def test_components_by_conductor(self, g41_3):
        comps = {
            frozenset(g41_3.vertices[v].j.lift_int() for v in comp)
            for comp in g41_3.components
        }
        assert comps == {
            frozenset({5}),
            frozenset({22, 29}),
            frozenset({13, 25, 33, 35}),
        }

    def test_everything_horizontal(self, g41_3):
        assert all(g41_3.levels[u] == g41_3.levels[v] for u, v, _ in g41_3.edges)
        report = verify_volcano(g41_3)
        assert report["ok"] and report["depth"] == 0

    def test_two_kernels_everywhere(self, g41_3):
        # split fundamental part at every conductor: kronecker(-8, 3) = 1
        assert all(g41_3.degree(v) == 2 for v in range(len(g41_3.vertices)))


class TestSupersingularGF53:
    """Trace 0 over GF(53): six classes, a 2-matching and a 3-cycle."""

    def test_vertices(self, g53_2, g53_3):
        js = sorted(c.j.lift_int() for c in g53_2.vertices)
        assert js == [0, 0, 46, 46, 50, 50]  # j = 0, -7, -3
        assert g53_2.vertices == g53_3.vertices
        assert g53_2.depth == 0 and g53_3.depth == 0

    def test_two_graph_is_perfect_matching(self, g53_2):
        assert undirected_j_pairs(g53_2) == Counter(
            {(0, 46): 2, (50, 50): 1}
        )
        assert all(g53_2.degree(v) == 1 for v in range(6))
        assert len(g53_2.components) == 3

    def test_three_graph_is_six_cycle(self, g53_3):
        assert undirected_j_pairs(g53_3) == Counter(
            {(0, 0): 1, (0, 50): 2, (46, 46): 1, (46, 50): 2}
        )
        assert all(g53_3.degree(v) == 2 for v in range(6))
        assert len(g53_3.components) == 1

    def test_combined_labelling_matches_matching_and_cycle(
        self, g53_2, g53_3
    ):
        # One labelling E(j, 1..2) of the six classes must realise both
        # graphs at once: matching {01-71, 31-32, 02-72} and the cycle
        # 01-02-32-71-72-31-01 (writing j = 0, -3, -7 as 0, 3, 7).
        matching = {
            frozenset([(0, 1), (7, 1)]),
            frozenset([(3, 1), (3, 2)]),
            frozenset([(0, 2), (7, 2)]),
        }
        cycle_order = [(0, 1), (0, 2), (3, 2), (7, 1), (7, 2), (3, 1)]
        cycle = {
            frozenset([cycle_order[i], cycle_order[(i + 1) % 6]])
            for i in range(6)
        }
        by_j = {0: [], 3: [], 7: []}
        for i, c in enumerate(g53_2.vertices):
            by_j[{0: 0, 50: 3, 46: 7}[c.j.lift_int()]].append(i)

        def edge_sets(g, label):
            return {
                frozenset([label[u], label[v]])
                for u, v, _ in g.edges
                if u != v
            }

        found = 0
        for bits in range(8):
            label = {}
            for k, jval in enumerate((0, 3, 7)):
                a, b = by_j[jval]
                if bits >> k & 1:
                    a, b = b, a
                label[a], label[b] = (jval, 1), (jval, 2)
            if edge_sets(g53_2, label) == matching and edge_sets(
                g53_3, label
            ) == cycle:
                found += 1
        assert found > 0

    def test_surface_degrees(self, g53_2, g53_3):
        for v in range(6):
            assert surface_degree(g53_2, v) == 1 + kronecker(-212, 2) == 1
            assert surface_degree(g53_3, v) == 1 + kronecker(-212, 3) == 2

    def test_volcano_reports_pass(self, g53_2, g53_3):
        assert verify_volcano(g53_2)["ok"]
        assert verify_volcano(g53_3)["ok"]


class TestTwoPrimeConductor:
    """GF(31), trace 4: conductor 6, so ell = 2 and 3 each see depth 1."""

    def test_depth_and_level_populations(self, g31_2):
        assert g31_2.depth == 1
        assert Counter(g31_2.levels) == {
            0: class_group(quad_order(-3, 1)).h
            + class_group(quad_order(-3, 3)).h,
            1: class_group(quad_order(-3, 2)).h
            + class_group(quad_order(-3, 6)).h,
        }

    def test_j_zero_asymmetry(self, g31_2):
        # (pi - u)/2 is an endomorphism of the j = 0 curve (Frobenius is
        # scalar on its 2-torsion), so all three kernels are rational and
        # all land on the single conductor-2 class below; the unique way
        # back up makes the directed multiplicities 3 versus 1.
        i0 = vdx(g31_2, 0)
        (x, y), (z, w) = frobenius_matrix(
            curve_from_j(F31, 0, 4), 2
        ).matrix
        assert y % 2 == 0 and z % 2 == 0 and (x - w) % 2 == 0
        assert g31_2.degree(i0) == 3
        assert len({v for u, v, _ in g31_2.edges if u == i0}) == 1
        (peer,) = [
            v for v in range(len(g31_2.vertices)) if g31_2.multiplicity(i0, v)
        ]
        assert g31_2.multiplicity(i0, peer) == 3
        assert g31_2.multiplicity(peer, i0) == 1

    def test_symmetry_away_from_special_j(self, g31_2):
        special = {0, 1728 % 31}
        for u, v, m in g31_2.edges:
            if (
                g31_2.vertices[u].j.lift_int() not in special
                and g31_2.vertices[v].j.lift_int() not in special
            ):
                assert g31_2.multiplicity(v, u) == m

    @pytest.mark.parametrize("ell", [2, 3])
    def test_volcano_and_components(self, ell):
        g = build_graph(F31, 4, ell)
        assert verify_volcano(g)["ok"]
        assert count_components(31, 4, ell) == len(g.components) == 2


class TestSupersingularPrimeField:
    """Trace 0 over GF(p), p = 3 mod 4: a genuine two-level 2-volcano."""

    def test_gf7_split_surface(self):
        g = build_graph(F7, 0, 2)
        assert g.depth == 1 and sorted(g.levels) == [0, 1]
        (surf,) = [v for v in range(2) if g.levels[v] == 0]
        (floor,) = [v for v in range(2) if g.levels[v] == 1]
        # surface has full rational 2-torsion, floor does not
        (x, y), (z, w) = frobenius_matrix(
            g.vertices[surf].representative, 2
        ).matrix
        assert y % 2 == 0 and z % 2 == 0 and (x - w) % 2 == 0
        assert surface_degree(g, surf) == 1 + kronecker(-7, 2) == 2
        assert g.multiplicity(surf, surf) == 2
        assert g.multiplicity(surf, floor) == g.multiplicity(floor, surf) == 1
        assert verify_volcano(g)["ok"]
        assert count_components(7, 0, 2) == len(g.components) == 1

    def test_gf11_inert_surface(self):
        g = build_graph(F11, 0, 2)
        assert g.depth == 1
        surf = [v for v in range(4) if g.levels[v] == 0]
        floor = [v for v in range(4) if g.levels[v] == 1]
        assert len(surf) == 1
        assert len(floor) == class_group(quad_order(-11, 2)).h == 3
        assert surface_degree(g, surf[0]) == 1 + kronecker(-11, 2) == 0
        assert g.degree(surf[0]) == 3  # all three kernels descend
        assert verify_volcano(g)["ok"]
        assert count_components(11, 0, 2) == len(g.components) == 1


class TestFullSupersingularClass:
    """Trace +-2p over GF(p^2): one class, ell + 1 loops, not a volcano."""

    @pytest.mark.parametrize("t", [14, -14])
    def test_single_vertex_with_three_loops(self, t):
        g = build_graph(F49, t, 2)
        assert len(g.vertices) == 1 and g.depth == 0
        assert g.multiplicity(0, 0) == 3
        # independent witness: the curve's 2-division cubic splits
        E = g.vertices[0].representative
        cubic = Poly(F49, [E.B, E.A, F49.zero, F49.one])
        assert sum(m for _, m in roots(cubic)) == 3

    def test_not_a_volcano_and_no_surface(self):
        g = build_graph(F49, 14, 2)
        report = verify_volcano(g)
        assert not report["ok"]
        assert report["surface_regular"] == {"ok": False, "witnesses": (0,)}
        with pytest.raises(NotOnSurface):
            surface_degree(g, 0)
        with pytest.raises(NotImaginaryQuadratic):
            count_components(49, 14, 2)


class TestInertLevels:
    """(D0/ell) = -1 leaves every class isolated."""

    @pytest.mark.parametrize(
        "field,q,t,ell",
        [(F41, 41, 6, 5), (F41, 41, 6, 7), (F53, 53, 0, 5)],
    )
    def test_edgeless(self, field, q, t, ell):
        g = build_graph(field, t, ell)
        assert g.edges == ()
        assert len(g.components) == len(g.vertices)
        assert count_components(q, t, ell) == len(g.vertices)
        assert surface_degree(g, 0) == 1 + kronecker(g.disc0, ell) == 0


class TestComponentFormula:
    CASES = [
        (F41, 41, 6, 2, 1),
        (F41, 41, 6, 3, 3),
        (F31, 31, 4, 2, 2),
        (F31, 31, 4, 3, 2),
        (F31, 31, 4, 5, 6),
        (F53, 53, 0, 2, 3),
        (F53, 53, 0, 3, 1),
        (F7, 7, 0, 2, 1),
        (F7, 7, 0, 3, 2),
        (F11, 11, 0, 2, 1),
        (F11, 11, 0, 3, 2),
    ]

    @pytest.mark.parametrize("field,q,t,ell,expected", CASES)
    def test_formula_matches_edge_scan(self, field, q, t, ell, expected):
        g = build_graph(field, t, ell)
        assert count_components(q, t, ell) == len(g.components) == expected

    @pytest.mark.parametrize("field,q,t,ell,expected", CASES)
    def test_components_partition_vertices(self, field, q, t, ell, expected):
        g = build_graph(field, t, ell)
        seen = sorted(v for comp in g.components for v in comp)
        assert seen == list(range(len(g.vertices)))
        for u, v, _ in g.edges:
            (cu,) = [c for c in g.components if u in c]
            assert v in cu


class TestPathsRespectLevels:
    """Within the GF(41) 2-volcano every path is at least as long as the
    level gap between its endpoints, and the gap is attained."""

    def _adjacency(self, g):
        nbrs = {v: set() for v in range(len(g.vertices))}
        for u, v, _ in g.edges:
            if u != v:
                nbrs[u].add(v)
                nbrs[v].add(u)
        return nbrs

    def test_all_simple_paths(self, g41_2):
        nbrs = self._adjacency(g41_2)

        def walk(v, target, seen, length):
            if v == target:
                yield length
                return
            for w in nbrs[v] - seen:
                yield from walk(w, target, seen | {w}, length + 1)

        for a in range(7):
            for b in range(a + 1, 7):
                gap = abs(g41_2.levels[a] - g41_2.levels[b])
                lengths = list(walk(a, b, {a}, 0))
                assert lengths and min(lengths) >= gap

    def test_floor_to_floor_distances(self, g41_2):
        nbrs = self._adjacency(g41_2)

        def bfs(a, b):
            frontier, dist = {a}, 0
            seen = {a}
            while b not in frontier:
                frontier = {w for v in frontier for w in nbrs[v]} - seen
                seen |= frontier
                dist += 1
            return dist

        i13, i33 = vdx(g41_2, 13), vdx(g41_2, 33)
        i25, i35 = vdx(g41_2, 25), vdx(g41_2, 35)
        assert bfs(i13, i33) == 2  # same branch, through 29
        assert bfs(i25, i35) == 2  # same branch, through 22
        assert bfs(i13, i25) == 4  # across branches, through the surface
        assert bfs(vdx(g41_2, 29), i13) == 1


class TestMutatedGraph:
    def test_deleting_a_floor_edge_breaks_clause_three(self, g41_2):
        i13, i29 = vdx(g41_2, 13), vdx(g41_2, 29)
        pruned = [
            e for e in g41_2.edges if set(e[:2]) != {i13, i29}
        ]
        mutant = IsogenyGraph(
            g41_2.field,
            g41_2.trace,
            g41_2.ell,
            g41_2.vertices,
            pruned,
            g41_2.levels,
            g41_2.depth,
            g41_2.components,
            g41_2.disc0,
            g41_2.cond0,
        )
        report = verify_volcano(mutant)
        assert not report["ok"]
        assert not report["level_degrees"]["ok"]
        witnesses = set(report["level_degrees"]["witnesses"])
        assert i13 in witnesses  # the stranded floor vertex
        assert i29 in witnesses  # its former parent, now underfull
        assert not report["unique_ascent"]["ok"]

    def test_horizontal_edge_below_surface_is_flagged(self, g41_2):
        i13, i33 = vdx(g41_2, 13), vdx(g41_2, 33)
        doctored = list(g41_2.edges) + [(i13, i33, 1), (i33, i13, 1)]
        mutant = IsogenyGraph(
            g41_2.field,
            g41_2.trace,
            g41_2.ell,
            g41_2.vertices,
            doctored,
            g41_2.levels,
            g41_2.depth,
            g41_2.components,
            g41_2.disc0,
            g41_2.cond0,
        )
        report = verify_volcano(mutant)
        assert not report["unique_ascent"]["ok"]
        assert (i13, i33) in report["unique_ascent"]["witnesses"]


class TestModularPolynomialCheck:
    """build_graph checks every Velu target against Phi_ell(j, Y) by
    division, so the check needs no root finding and still catches a
    wrong modular polynomial."""

    # sha256 of graph_to_json, pinned when the check factored
    # Phi_ell(j, Y); each graph has a vertex whose kernels share a target
    # j-invariant (two or three of them), so multiplicities matter
    PINNED = {
        (2, -6): "18b487c8673e3e181414deca3424cd9a0945e3b435fcc44e69e4ee1808b646e7",
        (2, 22): "20adf509fcb887be0a1b3c9c9b80b3ffe04a453ffb5281ef8e64f477a0b8989a",
        (3, 14): "11789d2b1e302b058efb184dc5f1b9a3803ad6e3198b7bfd700e542e1ba250c0",
        (3, -22): "3a04031a64b0095823700c6a88e6ff326493164a0fb7a7e1fcab4eb7fe569709",
    }

    @pytest.mark.parametrize("ell, t", sorted(PINNED))
    def test_check_needs_no_roots(self, monkeypatch, ell, t):
        F121 = field_create(11, 2)
        before = graph_to_json(build_graph(F121, t, ell))
        # enumerate afresh, so the check runs again with roots refused
        cyclic_isogenies.cache_clear()

        def refuse(*args):
            raise AssertionError("roots called")

        monkeypatch.setattr(isogenion.polyring, "roots", refuse)
        after = graph_to_json(build_graph(F121, t, ell))
        assert after == before
        assert hashlib.sha256(after.encode()).hexdigest() == self.PINNED[ell, t]

    def test_wrong_modular_polynomial_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            isogenion.isogeny_graph, "modular_polynomial",
            lambda ell: modular_polynomial(3),
        )
        with pytest.raises(
            AssertionError, match="Velu target is not a modular-polynomial root"
        ):
            build_graph(F41, 6, 2)


class TestExports:
    def test_dot_output(self, g41_2):
        dot = graph_to_dot(g41_2)
        assert dot.startswith("graph isogeny {")
        assert 'v0 [label="j=5 [L0]"];' in dot
        assert dot.count("v0 -- v0;") == 1
        edge_lines = [ln for ln in dot.splitlines() if " -- " in ln]
        assert len(edge_lines) == 7  # loop + six undirected edges

    def test_dot_repeats_multiple_edges(self, g41_3):
        dot = graph_to_dot(g41_3)
        assert dot.count("v0 -- v0;") == 2
        pairs = Counter(
            ln.strip() for ln in dot.splitlines() if " -- " in ln
        )
        assert 2 in pairs.values()  # the 22=29 double edge

    def test_json_round_trip(self, g41_2):
        doc = json.loads(graph_to_json(g41_2))
        assert doc["trace"] == 6 and doc["ell"] == 2 and doc["depth"] == 2
        assert doc["field"] == {"p": 41, "r": 1}
        assert len(doc["vertices"]) == 7
        assert doc["vertices"][0]["j"] == 5
        assert doc["levels"] == list(g41_2.levels)
        assert doc["components"] == [list(range(7))]
        assert sorted(map(tuple, doc["edges"])) == list(g41_2.edges)

    def test_exports_are_deterministic(self):
        a = build_graph(F41, 6, 2)
        b = build_graph(F41, 6, 2)
        assert graph_to_dot(a) == graph_to_dot(b)
        assert graph_to_json(a) == graph_to_json(b)


class TestValidation:
    def test_no_curve_with_trace(self):
        with pytest.raises(NoCurveWithTrace):
            build_graph(F31, 12, 2)  # beyond the Hasse bound
        with pytest.raises(NoCurveWithTrace):
            build_graph(F49, 7, 2)  # t = p inadmissible for p = 1 mod 3

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedLevel):
            build_graph(F41, 6, 11)

    def test_ell_equal_to_characteristic(self):
        with pytest.raises(PPartUnsupported):
            build_graph(F7, 0, 7)

    def test_ell_must_be_a_small_prime(self):
        with pytest.raises(ValueError):
            build_graph(F41, 6, 1)
        with pytest.raises(ValueError):
            build_graph(F41, 6, 2.0)

    @pytest.mark.parametrize("ell", [41, 1, 4, 2.0])
    def test_count_components_refuses_a_bad_ell(self, monkeypatch, ell):
        """An ell that is not a prime int (ValueError), or that divides q
        (PPartUnsupported), is refused before any class group is built:
        count_components(41, 6, 41) used to answer 7 for a graph build_graph
        refuses, and ell = 1 failed in valuation."""

        def no_class_groups(*args):
            raise AssertionError("class-group work before ell was checked")

        monkeypatch.setattr(isogenion.isogeny_graph, "class_group", no_class_groups)
        monkeypatch.setattr(isogenion.isogeny_graph, "primes_above", no_class_groups)
        if ell == 41:
            error, message = PPartUnsupported, "coprime to the characteristic"
        else:
            error, message = ValueError, "prime not dividing"
        with pytest.raises(error, match=message):
            count_components(41, 6, ell)

    def test_traces_all_match(self, g41_2, g53_2):
        assert all(c.trace == g41_2.trace for c in g41_2.vertices)
        assert all(c.trace == g53_2.trace for c in g53_2.vertices)
