"""The two graph moves of the 4-term relation on SimpleGraph bit rows,
the projected GF(2) indicator by elimination, and the graph
constructions the tests build their cases with.

Independent references for the edge-mask moves ``graphs.prime_mask`` and
``graphs.tilde_mask``, which the library builds its 4-term and 2-term
terms on, and for the Pfaffian-parity route of
``invariants.r_k_graph_core``; the tests compare the two forms.
``graph_four_term`` maps the library's four edge-mask terms back to
graphs, and ``is_intersection_graph`` asks ``graphs.realize_diagram``.
"""

from typing import Sequence

from chordlab.fourterm import DEFAULT_SIGNS, RelationQuadruple
from chordlab.graphs import (
    GraphError,
    SimpleGraph,
    gf2_rank,
    graph_four_term_masks,
    realize_diagram,
)
from chordlab.partitions import partition_log_full


def relabeled(g: SimpleGraph, perm: Sequence[int]) -> SimpleGraph:
    """Graph with vertex u renamed perm[u]."""
    rows = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if g.rows[u] >> v & 1:
                rows[perm[u]] |= 1 << perm[v]
    return SimpleGraph(g.n, tuple(rows))


def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """g on vertices 0..g.n-1, h shifted after it, no edges between."""
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return SimpleGraph(g.n + h.n, tuple(rows))


def graph_four_term(
    g: SimpleGraph, a: int, b: int, signs: tuple[int, int, int, int] = DEFAULT_SIGNS
) -> RelationQuadruple:
    """Graph 4-term instance at the ordered vertex pair (a, b); raises
    GraphError unless a and b are distinct vertices of g."""
    masks = graph_four_term_masks(g.n, g.edge_mask(), a, b)
    terms = [SimpleGraph.from_edge_mask(g.n, m) for m in masks]
    return RelationQuadruple(tuple(zip(terms, signs)))


def is_intersection_graph(g: SimpleGraph) -> bool:
    """Whether some chord diagram has an isomorphic intersection graph;
    capped at n <= 7 by the search it runs."""
    return realize_diagram(g) is not None


def graph_prime(g: SimpleGraph, a: int, b: int) -> SimpleGraph:
    """Toggle the adjacency of a and b; everything else unchanged."""
    if a == b:
        raise GraphError("vertices must be distinct")
    rows = list(g.rows)
    rows[a] ^= 1 << b
    rows[b] ^= 1 << a
    return SimpleGraph(g.n, tuple(rows))


def graph_tilde(g: SimpleGraph, a: int, b: int) -> SimpleGraph:
    """For every vertex adjacent to b (other than a), toggle its
    adjacency with a.  The a-b edge itself is untouched; the result
    depends on the order of (a, b)."""
    if a == b:
        raise GraphError("vertices must be distinct")
    mask = g.rows[b] & ~(1 << a) & ~(1 << b)
    rows = list(g.rows)
    rows[a] ^= mask
    rest = mask
    while rest:
        low = rest & (-rest)
        rest ^= low
        rows[low.bit_length() - 1] ^= 1 << a
    return SimpleGraph(g.n, tuple(rows))


def projected_indicator(g: SimpleGraph) -> int:
    """Partition-projected GF(2) nondegeneracy indicator of a graph, by
    one gf2_rank elimination per vertex subset; -2 R_k on 2k vertices.

    Induced-subgraph ranks are taken on masked bit rows; dropping the
    complementary zero rows and columns does not change GF(2) rank.
    """
    n = g.n
    values = [0] * (1 << n)
    for mask in range(1, 1 << n):
        rows = [g.rows[u] & mask for u in range(n) if mask >> u & 1]
        values[mask] = 1 if gf2_rank(rows, n) == len(rows) else 0
    return partition_log_full(values, n)
