"""Graph counts and cycle parities against networkx, an implementation
independent of chordlab's own routes.  networkx is a test extra only:
the module is skipped when it is not installed."""

import itertools
import random

import pytest

from chordlab.graphs import SimpleGraph, enumerate_graphs, graph_canonical_mask
from chordlab.invariants import MIN_L, e_l_parity
from graph_moves import is_intersection_graph

nx = pytest.importorskip("networkx")


def _to_nx(g: SimpleGraph):
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


def test_cycle_parities_match_simple_cycles():
    rng = random.Random(2013)
    for _ in range(200):
        n = rng.randint(4, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = SimpleGraph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
        lengths = [0] * (n + 1)
        for cycle in nx.simple_cycles(_to_nx(g), length_bound=n):
            lengths[len(cycle)] += 1
        for l in range(MIN_L, n + 2):
            expected = lengths[l] & 1 if l <= n else 0
            assert e_l_parity(g, l) == expected, (g.edges(), l)


def test_six_vertex_classes_match_the_atlas():
    # the Atlas of Graphs (Read and Wilson) lists 156 graphs on 6 vertices
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 6]
    atlas_masks = {
        graph_canonical_mask(SimpleGraph.from_edges(6, h.edges())) for h in atlas
    }
    classes = list(enumerate_graphs(6, "up-to-iso"))
    assert len(atlas) == len(atlas_masks) == len(classes) == 156
    assert {g.edge_mask() for g in classes} == atlas_masks
    # exactly two are not circle graphs: the five-wheel and the three-prism
    outside = [_to_nx(g) for g in classes if not is_intersection_graph(g)]
    assert len(outside) == 2
    for target in (nx.wheel_graph(6), nx.circular_ladder_graph(3)):
        assert sum(nx.is_isomorphic(h, target) for h in outside) == 1


def test_seven_vertex_atlas_sample():
    # the Atlas lists 1,044 graphs on 7 vertices; a seeded sample of 60 is
    # checked against the 6-vertex obstructions, recognized by networkx
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
    assert len(atlas) == 1044
    obstructions = (nx.wheel_graph(6), nx.circular_ladder_graph(3))
    circle = obstructed = 0
    for h in random.Random(2013).sample(atlas, 60):
        g = SimpleGraph.from_edges(7, h.edges())
        is_circle = is_intersection_graph(g)
        circle += is_circle
        found = False
        for vs in itertools.combinations(range(7), 6):
            blocked = any(nx.is_isomorphic(h.subgraph(vs), t) for t in obstructions)
            # the five-wheel and the three-prism are the only 6-vertex
            # graphs that are not circle graphs
            assert is_intersection_graph(g.induced(vs)) != blocked
            found |= blocked
        # circle graphs are closed under induced subgraphs
        assert not (found and is_circle)
        obstructed += found
    # two of the five sampled non-circle graphs have no 6-vertex obstruction
    assert (circle, obstructed) == (55, 3)
