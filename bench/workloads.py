"""Query lists of the benchmark workloads, as plain data.

A query is a tuple of a kind and integers; the worker turns it into library
calls.  Each workload answers a fixed set of queries and the seed only sets
their order: at desk scale the cost of a field or trace class swings by 10x
from one input to the next (rB over GF(31) with t = 1 takes 1 s, over GF(61)
18 s), so drawing the inputs themselves would make runs with different seeds
incomparable.  Every query's answer is pinned in reference.json by its key.

This module imports nothing from the library, so the lists can be built and
tested without touching it.
"""

import json
import random

# graph-fp2: every trace over GF(11^2) with ell in {2, 3}.  The first query
# pays the exhaustive j-line sweep (count_points); the rest reuse its classes
# and exercise Velu, roots and the conductor probes.
GRAPH_P = 11
GRAPH_TRACES = range(-2 * GRAPH_P, 2 * GRAPH_P + 1)  # |t| <= 2*sqrt(q), all realised
GRAPH_ELLS = (2, 3)
GRAPH_FIRST_T = 21

# mindeg-fp: (p, t) -> the trace-t classes over GF(p) as (j, twist index), in
# the library's canonical key order.  Odd t sends the degree-4 doubling
# witness to GF(p^2); even t stays in the base field.  Pinned from a class
# sweep so that setting up needs no sweep of its own.
MINDEG_CLASSES = {
    (31, 1): ((10, 0), (24, 1)),
    (31, 3): ((8, 1), (27, 0)),
    (37, 2): ((6, 0), (9, 1), (15, 1), (18, 0), (21, 1), (26, 0), (30, 1), (34, 0)),
    (43, 4): ((7, 0), (9, 1), (12, 0), (20, 1), (28, 1), (29, 1), (31, 1), (38, 1)),
    (53, 2): ((6, 1), (20, 0), (25, 1), (29, 1), (30, 1), (45, 0)),
    (61, 4): ((30, 0), (43, 0), (46, 0), (51, 1)),
}
MINDEG_FIRST_P = 31
SUPERSINGULAR_P = 11

# torsion-fp: the depth-2 2-volcano of trace 6 over GF(41); vertex j -> level.
# End(E) at level v is the order of discriminant -8 * 4^v.
TORSION_P, TORSION_T = 41, 6
VOLCANO = {5: 0, 29: 1, 22: 1, 13: 2, 33: 2, 25: 2, 35: 2}
TORSION_M = (2, 3, 4, 6)
# One vertex per level with a larger m: E[17] on the surface needs GF(41^16),
# E[16] on level 1 and E[8] on the floor need GF(41^8).
DEEP_TORSION = ((5, 17), (29, 16), (13, 8))
PAIR_DEGREES = (2, 3, 4, 6)
IDEAL_NORMS = (2, 3, 4, 6)
# Typed BoundExceeded answers: E[64] on a level-1 vertex samples points in
# every candidate extension before it refuses; the others refuse at once.
REFUSALS = (
    ("torsion_basis", 29, 64),
    ("torsion_basis", 13, 13),
    ("torsion_basis", 35, 23),
    ("stable_cyclic_kernels", 5, 65),
)

WORKLOADS = ("graph-fp2", "mindeg-fp", "torsion-fp")


def _graph_fp2():
    # Traces t and -t are quadratic twists with the same j-invariants, so the
    # first of the two pays for their shared caches: each pair is one block.
    # The first block always pays the j-line sweep; t = +-21 is one of the
    # cheapest classes, so the sweep does not land on a query that would be
    # slow anyway.
    pairs = {abs(t): [("graph", GRAPH_P, 2, u, ell) for u in (abs(t), -abs(t))
                      for ell in GRAPH_ELLS]
             for t in GRAPH_TRACES if t}
    pairs[0] = [("graph", GRAPH_P, 2, 0, ell) for ell in GRAPH_ELLS]
    first = pairs.pop(GRAPH_FIRST_T)
    return [[first], list(pairs.values())]


def _mindeg_fp():
    blocks = {}
    for (p, t), classes in MINDEG_CLASSES.items():
        pairs = [("md_between", p, t, *a, *b)
                 for i, a in enumerate(classes) for b in classes[i:]]
        blocks.setdefault(p, []).extend(pairs + [("rB", p, t)])
    # Queries over one field share its caches, so each field is one block.
    # GF(31) goes first: its odd traces sweep curves over GF(31^2), which sets
    # the pass's peak memory, and that peak would otherwise depend on how many
    # caches the blocks before it had filled.
    first = blocks.pop(MINDEG_FIRST_P)
    return [[first], list(blocks.values()) + [[("md_supersingular_bounds", SUPERSINGULAR_P)]]]


def _torsion_fp():
    bases = [(j, m) for j in VOLCANO for m in TORSION_M] + list(DEEP_TORSION)
    # Round trips and pair reports fill per-curve caches (conductors, gamma
    # matrices) that the next ones reuse, so each of those stages is a
    # single block in a fixed order.
    return [
        [[("graph", TORSION_P, 1, TORSION_T, 2)]],
        [[("torsion_basis", j, m)] for j, m in bases],
        [[("frobenius_matrix", j, m)] for j, m in bases],
        [[("ideal_round_trip", j, n) for j in VOLCANO for n in IDEAL_NORMS]],
        [[("pair_report", j2, j1) for j2 in VOLCANO for j1 in VOLCANO]],
        [[q] for q in REFUSALS],
    ]


_BUILDERS = {"graph-fp2": _graph_fp2, "mindeg-fp": _mindeg_fp, "torsion-fp": _torsion_fp}


def queries(workload: str, seed: int) -> list:
    """The workload's query list in the order the seed picks.

    A workload is a sequence of stages, each a list of blocks of queries.
    The seed shuffles the blocks within each stage.  Queries within a block,
    and the stages, keep their order: they share library caches, so their
    order decides which query pays for a cache fill, and with it the spread
    of per-query latencies.
    """
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for stage in _BUILDERS[workload]():
        blocks = list(stage)
        rng.shuffle(blocks)
        for block in blocks:
            out.extend(block)
    return out


def key(query) -> str:
    """The query's name in reference.json."""
    return json.dumps(query)
