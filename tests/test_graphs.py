import ast
import inspect
import itertools
import random
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chordlab.diagrams import (
    ChordDiagram,
    enumerate_diagrams,
    parse_diagram,
    random_diagram,
    word_positions,
)
import chordlab
from chordlab import graphs
from chordlab.graphs import (
    GraphError,
    SimpleGraph,
    cycle_sign,
    enumerate_cycles,
    enumerate_graphs,
    format_graph,
    gf2_rank,
    graph_canonical_mask,
    interleave_rows,
    intersection_graph,
    pair_index_table,
    parse_graph,
    pfaffian_parities,
    prime_mask,
    realize_diagram,
    sign_matrix,
    tilde_mask,
)
from chordlab.invariants import FIVE_WHEEL, THREE_PRISM
from chordlab.table1 import ROWS
from chordlab.verify import dense_sign_matrix
from graph_moves import graph_prime, graph_tilde, is_intersection_graph, relabeled
from references import edge_mask as reference_edge_mask
from references import realization_by_mask as reference_realization_by_mask
from references import sampled_items

K2 = SimpleGraph.from_edges(2, [(0, 1)])
C4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = SimpleGraph.from_edges(4, list(itertools.combinations(range(4), 2)))

graphs5 = st.integers(0, (1 << 10) - 1).map(lambda m: SimpleGraph.from_edge_mask(5, m))


def count_cycles_naive(g: SimpleGraph, length: int) -> int:
    """Independent oracle: closed vertex sequences deduped by symmetry."""
    seen = set()
    for perm in itertools.permutations(range(g.n), length):
        if all(
            g.has_edge(perm[i], perm[(i + 1) % length]) for i in range(length)
        ):
            best = min(
                min(seq[i:] + seq[:i] for i in range(length))
                for seq in (perm, perm[::-1])
            )
            seen.add(best)
    return len(seen)


def reference_sign_matrix(word) -> list[list[int]]:
    """The per-word step-weight builder the batched one replaced."""
    pairs = word_positions(word)
    n = len(pairs)
    w = [[0] * n for _ in range(n)]
    for a in range(n):
        a1, a2 = pairs[a]
        for b in range(a + 1, n):
            b1, b2 = pairs[b]
            if (a1 < b1 < a2) == (a1 < b2 < a2):
                continue
            if a1 < b1 < a2:
                w[a][b], w[b][a] = 1, -1
            else:
                w[a][b], w[b][a] = -1, 1
    return w


def test_every_public_name_resolves():
    # the package's public list names only what it defines, once each
    missing = [name for name in chordlab.__all__ if not hasattr(chordlab, name)]
    assert missing == []
    assert len(set(chordlab.__all__)) == len(chordlab.__all__)


# public names kept without a library caller or a README entry, and why
_UNCALLED_EXPORTS = {
    # perfbench/tracer.py LAYERS wraps it, and test_perfbench_names
    # requires every layer it names to resolve
    "diagram_four_term",
}


def test_every_public_name_is_called_or_documented():
    # an export earns its place by a caller in the library (a load of the
    # name anywhere under src/chordlab outside __init__.py; a definition
    # is not a load) or by a mention in README.md; read as text, nothing
    # is imported
    repo = Path(__file__).resolve().parent.parent
    loaded = set()
    for path in (repo / "src" / "chordlab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    documented = set(re.findall(r"\w+", (repo / "README.md").read_text()))
    idle = set(chordlab.__all__) - loaded - documented - _UNCALLED_EXPORTS
    assert sorted(idle) == []
    assert _UNCALLED_EXPORTS <= set(chordlab.__all__) - loaded - documented


class TestBasics:
    def test_symmetry_enforced(self):
        with pytest.raises(GraphError):
            SimpleGraph(2, (0b10, 0b00))

    def test_loops_rejected(self):
        with pytest.raises(GraphError):
            SimpleGraph(1, (0b1,))

    def test_parse_edge_list(self):
        assert parse_graph("1-2") == K2
        assert parse_graph("A-B,C-D") == SimpleGraph.from_edges(4, [(0, 1), (2, 3)])

    def test_parse_matrix_roundtrip(self):
        for g in (K2, C4, K4, FIVE_WHEEL):
            assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize("bad", ["", "1-1", "1", "x-y!", "3\n01\n10"])
    def test_parse_rejects(self, bad):
        with pytest.raises(GraphError):
            parse_graph(bad)

    def test_edge_mask_roundtrip(self):
        for g in (K2, C4, K4, FIVE_WHEEL, THREE_PRISM):
            assert SimpleGraph.from_edge_mask(g.n, g.edge_mask()) == g

    def test_edge_mask_matches_the_pair_by_pair_mask(self):
        # one shift per row against one bit per edge, every labeled graph
        for n in range(6):
            for g in enumerate_graphs(n, "labeled"):
                assert g.edge_mask() == reference_edge_mask(g)

    @pytest.mark.parametrize(
        "edge, bit",
        [((0, 1), 0), ((0, 2), 1), ((0, 3), 2), ((1, 2), 3), ((1, 3), 4), ((2, 3), 5)],
    )
    def test_edge_mask_bit_order(self, edge, bit):
        # the pair -> bit map pinned independently of pair_index_table
        g = SimpleGraph.from_edges(4, [edge])
        assert g.edge_mask() == 1 << bit
        assert SimpleGraph.from_edge_mask(4, 1 << bit) == g


class TestIntersectionGraph:
    def test_crossing_pair(self):
        assert intersection_graph(parse_diagram("ABAB")) == K2

    def test_disjoint_pair(self):
        assert intersection_graph(parse_diagram("AABB")) == SimpleGraph(2, (0, 0))

    def test_alternating_is_complete(self):
        assert intersection_graph(parse_diagram("ABCDABCD")) == K4


class TestDirectedIntersectionGraph:
    def test_canonical_orientation_from_first_endpoint(self):
        d = parse_diagram("ABAB")
        assert sign_matrix(d) == [[0, 1], [-1, 0]]  # arrow A -> B
        # A begins at 0 (at 2 if flipped) and B at 1 (at 3 if flipped):
        # A -> B iff B's begin lies on the arc from A's begin to A's end
        for flip_mask, a_to_b in ((0, 1), (1, 0), (2, 0), (3, 1)):
            w = sign_matrix(d, flip_mask)
            assert w[0][1] == 2 * a_to_b - 1
            assert w[1][0] == 1 - 2 * a_to_b

    def test_exactly_one_arrow_per_edge(self, diagram_classes):
        # antisymmetric, and nonzero exactly on the intersection graph's
        # edges, under every orientation
        for n in range(2, 7):
            for d in diagram_classes(n):
                rows = intersection_graph(d).rows
                plain = [[row >> v & 1 for v in range(n)] for row in rows]
                for flip_mask in range(1 << n):
                    w = sign_matrix(d, flip_mask)
                    assert [[-x for x in col] for col in zip(*w)] == w
                    assert [[x * x for x in row] for row in w] == plain

    def test_flipping_one_chord_preserves_cycle_signs(self):
        rng = random.Random(3)
        for _ in range(100):
            d = random_diagram(5, rng)
            cycles = enumerate_cycles(intersection_graph(d), 4)
            base = sign_matrix(d)
            flipped = sign_matrix(d, 1 << rng.randrange(5))
            for cyc in cycles:
                assert cycle_sign(base, cyc) == cycle_sign(flipped, cyc)

    def test_published_signed_four_gons(self):
        # the worked 4-chord example: labeled chords C, D, A, B reading
        # counterclockwise, with the three 4-gons signed -, +, +
        d = parse_diagram("CDABCDAB")
        w = sign_matrix(d)
        # letters C,D,A,B normalize to ids 0,1,2,3 in first-appearance order
        cycles = enumerate_cycles(intersection_graph(d), 4)
        signs = {cyc: cycle_sign(w, cyc) for cyc in cycles}
        assert signs == {(0, 1, 2, 3): -1, (0, 1, 3, 2): 1, (0, 2, 1, 3): 1}


class TestSignMatrix:
    @staticmethod
    def check_batch(words):
        signed = dense_sign_matrix(words)
        assert signed.dtype == np.int8
        reference = np.array([reference_sign_matrix(w) for w in words], dtype=np.int8)
        assert signed.tobytes() == reference.tobytes()
        n = len(words[0]) // 2
        plain = np.array(
            [[[row >> v & 1 for v in range(n)] for row in interleave_rows(w)]
             for w in words],
            dtype=np.int8,
        )
        assert (np.abs(signed) == plain).all()
        # the scalar twin, on the diagram's first-appearance labels
        for w, batch_matrix in zip(words, signed):
            firsts = list(dict.fromkeys(w))
            relabeled = batch_matrix[np.ix_(firsts, firsts)]
            assert relabeled.tolist() == sign_matrix(ChordDiagram(w))

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_reference_on_every_basepointed_word(self, order):
        self.check_batch([d.word for d in enumerate_diagrams(order, "basepointed")])

    @pytest.mark.parametrize("order", [6, 7, 8])
    def test_matches_reference_on_raw_four_term_words(self, order):
        # term words keep their chord ids, so labels are not first-appearance
        words = [
            w
            for quad, _ in sampled_items(order, 300, order, four_term=True)
            for w in quad
        ]
        assert any(tuple(w) != ChordDiagram(w).word for w in words)
        self.check_batch(words)

    def test_canonical_orientation_signs(self, diagram_classes):
        # +1 at [u][v] is the arrow u -> v of the first-endpoint
        # orientation, and reversing chord c negates row and column c
        for d in diagram_classes(5):
            base = sign_matrix(d)
            assert base == reference_sign_matrix(d.word)
            for flip_mask in range(1 << 5):
                flip = [-1 if flip_mask >> c & 1 else 1 for c in range(5)]
                expected = [
                    [flip[u] * flip[v] * base[u][v] for v in range(5)]
                    for u in range(5)
                ]
                assert sign_matrix(d, flip_mask) == expected

    def test_empty_batch(self):
        assert dense_sign_matrix(np.empty((0, 8), dtype=np.int8)).shape == (0, 4, 4)


class TestCycles:
    def test_k4_has_three_four_gons(self):
        assert len(enumerate_cycles(K4, 4)) == 3
        assert count_cycles_naive(K4, 4) == 3

    def test_c4_has_one(self):
        assert len(enumerate_cycles(C4, 4)) == 1

    def test_trees_have_none(self):
        tree = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
        for l in (3, 4, 5):
            assert enumerate_cycles(tree, l) == []

    def test_rejects_short_lengths(self):
        with pytest.raises(ValueError):
            enumerate_cycles(K4, 2)

    def test_canonical_form_unique_and_sorted(self):
        cycles = enumerate_cycles(K4, 4)
        assert cycles == sorted(set(cycles))
        for cyc in cycles:
            assert cyc[0] == min(cyc)
            assert cyc[1] < cyc[-1]

    def test_matches_naive_oracle_exhaustive_n5(self):
        for g in enumerate_graphs(5, "labeled"):
            for l in (3, 4, 5):
                assert len(enumerate_cycles(g, l)) == count_cycles_naive(g, l)

    def test_matches_naive_oracle_n6_classes(self):
        for g in enumerate_graphs(6, "up-to-iso"):
            for l in (3, 4, 5, 6):
                assert len(enumerate_cycles(g, l)) == count_cycles_naive(g, l)


class TestCycleSign:
    def test_consistent_cycle_is_positive(self):
        w = [[0] * 4 for _ in range(4)]
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
            w[u][v], w[v][u] = 1, -1
        assert cycle_sign(w, (0, 1, 2, 3)) == 1
        # traversal direction does not matter
        assert cycle_sign(w, (0, 3, 2, 1)) == 1
        # one reversed arrow makes the cycle negative
        w[2][3], w[3][2] = -1, 1
        assert cycle_sign(w, (0, 1, 2, 3)) == -1

    def test_odd_length_rejected(self):
        w = sign_matrix(parse_diagram("ABCABC"))
        with pytest.raises(ValueError):
            cycle_sign(w, (0, 1, 2))

    def test_missing_edge_rejected(self):
        # only A-B and C-D cross in ABABCDCD
        w = sign_matrix(parse_diagram("ABABCDCD"))
        with pytest.raises(GraphError):
            cycle_sign(w, (0, 1, 2, 3))


class TestGF2:
    def test_examples(self):
        assert gf2_rank(K2.rows, 2) == 2
        assert gf2_rank((0,), 1) == 0
        assert gf2_rank(C4.rows, 4) == 2

    @given(graphs5, st.randoms(use_true_random=False))
    def test_rank_is_relabeling_invariant(self, g, rnd):
        perm = list(range(5))
        rnd.shuffle(perm)
        assert gf2_rank(g.rows, 5) == gf2_rank(relabeled(g, perm).rows, 5)

    def _assert_parities_match_rank(self, n, masks):
        """pfaffian_parities against scalar gf2_rank: every induced
        subgraph's nondegeneracy, the full set, and the rank as the
        largest nonsingular principal subset."""
        masks = np.array(masks, dtype=np.int64)
        pf = np.array(pfaffian_parities(n, masks))
        assert pf.dtype == np.int64 and pf.shape == (1 << n, len(masks))
        assert (pf[0] == 1).all()
        graphs_rows = [SimpleGraph.from_edge_mask(n, m).rows for m in masks.tolist()]
        rows = np.array(graphs_rows, dtype=np.int64).reshape(len(masks), n).T
        ptab = pair_index_table(n)
        for s in range(1, 1 << n):
            members = [u for u in range(n) if s >> u & 1]
            # the induced subgraph is fixed by the edges inside s, so
            # each distinct one is ranked once, on its masked rows
            inside = sum(1 << ptab[u][v] for u, v in itertools.combinations(members, 2))
            _, first, inverse = np.unique(
                masks & inside, return_index=True, return_inverse=True
            )
            sub_rows = (rows[members][:, first] & s).T.tolist()
            nondeg = np.array([gf2_rank(r, n) == len(members) for r in sub_rows])
            assert pf[s].tolist() == nondeg[inverse].tolist()
        ranks = [gf2_rank(col, n) for col in rows.T.tolist()]
        sizes = np.array([s.bit_count() for s in range(1 << n)])
        assert pf[-1].tolist() == [int(r == n) for r in ranks]
        assert (pf * sizes[:, None]).max(axis=0).tolist() == ranks

    @pytest.mark.parametrize("n", range(7))
    def test_pfaffian_parities_exhaustive(self, n):
        self._assert_parities_match_rank(n, range(1 << n * (n - 1) // 2))

    @given(st.data())
    def test_pfaffian_parities_sampled_n7_n8(self, data):
        n = data.draw(st.sampled_from([7, 8]))
        mask = st.integers(0, (1 << n * (n - 1) // 2) - 1)
        masks = data.draw(st.lists(mask, min_size=1, max_size=8))
        self._assert_parities_match_rank(n, masks)


class TestPrimeAndTilde:
    def test_prime_examples(self):
        assert graph_prime(K2, 0, 1) == SimpleGraph(2, (0, 0))
        assert graph_prime(SimpleGraph(2, (0, 0)), 0, 1) == K2
        assert graph_prime(graph_prime(K4, 1, 3), 1, 3) == K4

    def test_prime_rejects_equal_vertices(self):
        for move in (prime_mask, tilde_mask):
            with pytest.raises(GraphError):
                move(2, 1, 1, 1)

    def test_tilde_path_becomes_triangle(self):
        path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        expected = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert graph_tilde(path, 0, 1) == expected

    def test_tilde_with_isolated_partner_is_identity(self):
        g = SimpleGraph.from_edges(3, [(0, 2)])
        assert graph_tilde(g, 0, 1) == g

    def test_tilde_involution_exhaustive_n5(self):
        for g in enumerate_graphs(5, "labeled"):
            for a in range(5):
                for b in range(5):
                    if a != b:
                        assert graph_tilde(graph_tilde(g, a, b), a, b) == g

    @given(graphs5)
    def test_tilde_preserves_partner_adjacency_and_far_edges(self, g):
        for a in range(5):
            for b in range(5):
                if a == b:
                    continue
                t = graph_tilde(g, a, b)
                # b's adjacencies are untouched, as are all edges not at a
                assert t.rows[b] == g.rows[b]
                for u in range(5):
                    if u != a:
                        assert t.rows[u] & ~(1 << a) == g.rows[u] & ~(1 << a)

    def test_mask_transforms_match_object_transforms(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randrange(2, 7)
            mask = rng.randrange(1 << (n * (n - 1) // 2))
            g = SimpleGraph.from_edge_mask(n, mask)
            a, b = rng.sample(range(n), 2)
            assert prime_mask(n, mask, a, b) == graph_prime(g, a, b).edge_mask()
            assert tilde_mask(n, mask, a, b) == graph_tilde(g, a, b).edge_mask()

    def test_batched_mask_helpers_match_scalar(self):
        for n in range(2, 6):
            masks = np.arange(1 << (n * (n - 1) // 2))
            for a, b in itertools.permutations(range(n), 2):
                for move in (prime_mask, tilde_mask):
                    assert move(n, masks, a, b).tolist() == [
                        move(n, m, a, b) for m in masks.tolist()
                    ]

    def test_pair_index_matches_edge_mask(self):
        tab = pair_index_table(4)
        g = SimpleGraph.from_edges(4, [(1, 3)])
        assert g.edge_mask() == 1 << tab[1][3]


class TestEnumerationAndIsomorphism:
    def test_labeled_count_n3(self):
        assert sum(1 for _ in enumerate_graphs(3, "labeled")) == 8

    def test_iso_count_n4(self):
        assert sum(1 for _ in enumerate_graphs(4, "up-to-iso")) == 11

    def test_iso_count_n6(self):
        assert sum(1 for _ in enumerate_graphs(6, "up-to-iso")) == 156

    def test_orders_above_the_ceilings_raise_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started above the ceiling")

        # up to iso, order 9 would first allocate 2^36 bytes of orbit marks
        monkeypatch.setattr(graphs, "bytearray", no_work, raising=False)
        # still a generator: it raises on the first item, not at the call
        assert inspect.isgeneratorfunction(enumerate_graphs)
        cases = ((7, "labeled", 6), (9, "up-to-iso", 8), (-1, "labeled", 6))
        for n, mode, ceiling in cases:
            with pytest.raises(ValueError, match=f"order {n} outside 0..{ceiling}"):
                next(enumerate_graphs(n, mode))

    @given(graphs5, st.randoms(use_true_random=False))
    def test_canonical_mask_invariant(self, g, rnd):
        perm = list(range(5))
        rnd.shuffle(perm)
        assert graph_canonical_mask(g) == graph_canonical_mask(relabeled(g, perm))


class TestRealizability:
    def test_every_four_vertex_graph_realizable(self):
        for g in enumerate_graphs(4, "labeled"):
            assert is_intersection_graph(g)
            d = realize_diagram(g)
            assert graph_canonical_mask(intersection_graph(d)) == graph_canonical_mask(g)

    def test_wheel_and_prism_are_not(self):
        assert not is_intersection_graph(FIVE_WHEEL)
        assert not is_intersection_graph(THREE_PRISM)
        assert realize_diagram(FIVE_WHEEL) is None

    def test_exactly_two_six_vertex_obstructions(self):
        bad = [
            g for g in enumerate_graphs(6, "up-to-iso") if not is_intersection_graph(g)
        ]
        expected = {graph_canonical_mask(FIVE_WHEEL), graph_canonical_mask(THREE_PRISM)}
        assert {graph_canonical_mask(g) for g in bad} == expected

    def test_seven_vertices_tested_eight_refused(self):
        # the test has the 7-vertex cap of realize_diagram, the search it runs
        path = SimpleGraph.from_edges(7, [(i, i + 1) for i in range(6)])
        wheel_plus_one = SimpleGraph.from_edges(7, FIVE_WHEEL.edges())
        assert is_intersection_graph(path)
        assert not is_intersection_graph(wheel_plus_one)
        with pytest.raises(GraphError, match="capped at 7 vertices"):
            is_intersection_graph(SimpleGraph.from_edges(8, []))

    def test_empty_graph_realized_by_empty_diagram(self):
        empty = SimpleGraph(0, ())
        assert realize_diagram(empty) == ChordDiagram(())
        assert is_intersection_graph(empty)

    def test_all_five_vertex_graphs_realizable(self):
        assert all(is_intersection_graph(g) for g in enumerate_graphs(5, "up-to-iso"))

    def test_orbit_lookup_matches_class_table(self):
        for n in range(6):
            for g in enumerate_graphs(n, "labeled"):
                assert realize_diagram(g) == _realize_by_class_reference(g)
        rng = random.Random(6)
        for _ in range(400):
            g = SimpleGraph.from_edge_mask(6, rng.randrange(1 << 15))
            assert realize_diagram(g) == _realize_by_class_reference(g)

    @pytest.mark.parametrize("n", range(8))
    def test_realization_table_matches_validated_graphs(self, n):
        # the table reads each class's masks off its crossing rows
        assert graphs._realization_by_mask(n) == reference_realization_by_mask(n)

    def test_table_rows_keep_their_realizing_diagrams(self):
        got = [
            str(realize_diagram(SimpleGraph.from_edges(row.vertices, row.edges)))
            for row in ROWS
        ]
        assert got == [
            "ABACDBCD",
            "ABCADCBD",
            "ABCADBCD",
            "ABCDABCD",
            "ABCADCEDFEBF",
            "ABCADCEFDBEF",
            "ABCDEFABCDEF",
        ]


@lru_cache(maxsize=None)
def _class_table(n: int) -> dict:
    table: dict = {}
    for d in enumerate_diagrams(n, "up-to-rotation"):
        table.setdefault(graph_canonical_mask(intersection_graph(d)), d)
    return table


def _realize_by_class_reference(g: SimpleGraph):
    """Reference realization: canonically label every class's intersection
    graph and keep the first class in enumeration order per label."""
    return _class_table(g.n).get(graph_canonical_mask(g))
