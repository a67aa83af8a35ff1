import hashlib
import itertools
import random
from functools import lru_cache
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordlab.diagrams import (
    ChordDiagram,
    DiagramError,
    canonical_code,
    enumerate_diagrams,
    find_shares,
    parse_diagram,
    share_moves,
)
from chordlab.fourterm import (
    DEFAULT_SIGNS,
    RelationQuadruple,
    VerificationReport,
    by_class,
    diagram_four_term,
    diagram_source,
    four_term_words,
    neighbor_positions,
    relation_sums,
    signed_sum,
    verify_weight_system,
)
from chordlab.graphs import (
    GraphError,
    SimpleGraph,
    enumerate_cycles,
    enumerate_graphs,
    format_graph,
    gf2_rank,
    hamiltonian_ruled_out,
    interleave_rows,
    intersection_graph,
)
from chordlab.invariants import e_l_parity, r_k, r_k_oriented, sl2_projected, w_c
from chordlab.polynomials import ZERO, IntPolynomial
from chordlab.sl2 import sl2_recursive
from chordlab import diagrams, fourterm, invariants, verify
from chordlab.verify import masked_relation, merge_reports, suite_four_term_graphs
from graph_moves import graph_four_term, graph_prime, graph_tilde
import references

# the (sign, masks) terms of the two graph relations, for masked_relation
FOUR_TERM = verify._four_term_masks
TWO_TERM = verify._two_term_masks


def verify_graph_four_term(
    f: Callable[[SimpleGraph], object],
    order: int,
    invariant: str = "f",
    signs: tuple[int, int, int, int] = DEFAULT_SIGNS,
) -> VerificationReport:
    """Signed sums of f over all labeled graphs and ordered vertex pairs.

    Object-level reference on the bit-row moves; the exhaustive suites
    run the edge-mask engine `verify.masked_relation` on a value table
    instead.
    """
    report = VerificationReport(invariant=invariant, order=order)
    for g in _all_graphs(order):
        for a, b in itertools.permutations(range(order), 2):
            tilde = graph_tilde(g, a, b)
            terms = (g, graph_prime(g, a, b), tilde, graph_prime(tilde, a, b))
            quad = RelationQuadruple(tuple(zip(terms, signs)))
            report.checked += 1
            total = quad.signed_sum(f)
            if total:
                report.add_violation([format_graph(t) for t, _ in quad.terms], total)
    return report.finalize()


def two_term_check(
    f: Callable[[SimpleGraph], object],
    order: int,
    invariant: str = "f",
) -> VerificationReport:
    """Check f(g) == f(g~) for all labeled graphs and ordered pairs.

    Object-level reference for `verify.masked_relation` on 2-term terms.
    """
    report = VerificationReport(invariant=invariant, order=order)
    for g in _all_graphs(order):
        for a, b in itertools.permutations(range(order), 2):
            tilde = graph_tilde(g, a, b)
            report.checked += 1
            diff = f(g) - f(tilde)
            if diff:
                report.add_violation([format_graph(g), format_graph(tilde)], diff)
    return report.finalize()


def _all_graphs(order: int):
    return enumerate_graphs(order, "labeled")


def _triangles(g: SimpleGraph) -> int:
    return len(enumerate_cycles(g, 3))


def _diagram_triangles(d) -> int:
    return _triangles(intersection_graph(d))


def _edges(g: SimpleGraph) -> int:
    return len(g.edges())


def _mask_table(f, order: int) -> np.ndarray:
    return np.array(
        [f(g) for g in enumerate_graphs(order, "labeled")], dtype=np.int32
    )


def _sha(report) -> str:
    return hashlib.sha256(report.json_lines().encode()).hexdigest()


def _items(windows) -> list:
    """The (item, weight) pairs of a source's windows, each item a tuple
    of tuple words: an array window's rows are read with tolist."""
    return [
        (tuple(map(tuple, item)), weight)
        for items, weights in windows
        for item, weight in zip(
            items.tolist() if isinstance(items, np.ndarray) else items,
            weights,
            strict=True,
        )
    ]


class TestQuadrupleShape:
    def test_signs_sum_to_zero(self):
        quad = diagram_four_term(parse_diagram("ABAB"), 0)
        assert [s for _, s in quad.terms] == [1, -1, -1, 1]
        assert all(t.n == 2 for t, _ in quad.terms)

    def test_same_chord_rejected(self):
        with pytest.raises(DiagramError):
            diagram_four_term(parse_diagram("AABB"), 0)
        # the empty word has no positions at all
        with pytest.raises(DiagramError):
            diagram_four_term(ChordDiagram(""), 0)

    def test_bad_signs_rejected(self):
        d = parse_diagram("ABAB")
        with pytest.raises(ValueError):
            RelationQuadruple(terms=((d, 1), (d, 1), (d, -1), (d, 1)))

    def test_wraparound_position(self):
        d = parse_diagram("AABB")
        quad = diagram_four_term(d, 3)  # pair (position 3, position 0)
        assert len(quad.terms) == 4
        assert quad.signed_sum(sl2_recursive) == ZERO


class TestDiagramFourTerm:
    def test_sl2_annihilates_exhaustively(self, diagram_classes):
        checked = 0
        for n in range(2, 6):
            for d in enumerate_diagrams(n, "basepointed"):
                for p in neighbor_positions(d):
                    quad = diagram_four_term(d, p)
                    assert quad.signed_sum(sl2_recursive) == ZERO
                    checked += 1
        assert checked > 9000

    def test_e4_parity_annihilates(self, diagram_classes):
        from chordlab.invariants import e_l_parity
        from chordlab.graphs import intersection_graph

        for n in range(2, 6):
            for d in diagram_classes(n):
                for p in neighbor_positions(d):
                    quad = diagram_four_term(d, p)
                    total = sum(
                        s * e_l_parity(intersection_graph(t), 4)
                        for t, s in quad.terms
                    )
                    assert total % 2 == 0

    def test_corrupted_signs_detected(self):
        report = verify_weight_system(
            sl2_recursive,
            3,
            invariant="sl2",
            signs=(1, -1, 1, -1),
        )
        assert not report.ok
        assert report.violations

    def test_graph_quadruple_correspondence(self):
        # the intersection graphs of a diagram quadruple at (A at p,
        # B at p+1) form the graph quadruple at the ordered pair (B, A),
        # label for label
        for n in range(2, 5):
            for d in enumerate_diagrams(n, "basepointed"):
                for p in neighbor_positions(d):
                    words = four_term_words(d.word, p)
                    a_ch = d.word[p]
                    b_ch = d.word[(p + 1) % (2 * n)]
                    g1, g2, g3, g4 = (
                        SimpleGraph(n, interleave_rows(w)) for w in words
                    )
                    tilde = graph_tilde(g1, b_ch, a_ch)
                    assert g2 == graph_prime(g1, b_ch, a_ch)
                    assert g3 == tilde
                    assert g4 == graph_prime(tilde, b_ch, a_ch)
                    quad = graph_four_term(g1, b_ch, a_ch)
                    assert [t for t, _ in quad.terms] == [g1, g2, g3, g4]

    @pytest.mark.parametrize("order", [0, 1])
    def test_sampling_below_two_chords_raises(self, order):
        # no diagram of these orders has neighboring ends of distinct
        # chords, so sampling must refuse instead of drawing forever
        with pytest.raises(ValueError, match="order >= 2"):
            verify_weight_system(sl2_recursive, order, sample=3)
        with pytest.raises(ValueError, match="order >= 2"):
            verify.suite_four_term_diagrams("sl2", order, sample=3)

    def test_negative_sample_count_raises(self):
        runs = (
            lambda: verify_weight_system(sl2_recursive, 4, sample=-3),
            lambda: verify.suite_four_term_diagrams("sl2", 5, sample=-3),
            lambda: verify.suite_four_term_diagrams("rk", 4, 2, sample=-3),
            lambda: verify.suite_parity(4, 2, sample=-3),
            lambda: verify.suite_conjecture(3, sample=-3),
            lambda: verify.suite_oracle_equivalence(4, sample=-3),
        )
        for run in runs:
            with pytest.raises(ValueError, match="nonnegative, got -3"):
                run()

    def test_orders_above_the_ceilings_raise_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started above the ceiling")

        for module, name in (
            (fourterm, "rotation_classes"),
            (fourterm, "random_slots"),
            (verify, "enumerate_diagrams"),
            (verify, "pfaffian_parities"),
        ):
            monkeypatch.setattr(module, name, no_work)
        runs = (
            (lambda: suite_four_term_graphs("wc", 7), "order 7 outside 0..6"),
            (lambda: verify.suite_two_term("wc", 7), "order 7 outside 0..6"),
            (lambda: verify.suite_mutation(7), "order 7 outside 0..6"),
            (lambda: verify.suite_conjecture(4), "order 8 outside 0..6"),
            (
                lambda: verify.suite_oracle_equivalence(9, sample=1),
                "order 9 outside 0..8",
            ),
            (lambda: verify_weight_system(no_work, 7), "order 7 outside 0..6"),
            # the ceiling comes before the sampled parity order test
            (lambda: verify.suite_parity(9, 4, sample=3), "order 9 outside 0..8"),
            # the sampled R_k 4-term run at order 2k, through the DP windows
            (
                lambda: verify.suite_four_term_diagrams("rk", 10, 5, sample=1),
                "order 10 outside 0..8",
            ),
        )
        for run, message in runs:
            with pytest.raises(ValueError, match=message):
                run()

    def test_graph_invariants_above_the_ceiling_raise_before_any_work(
        self, monkeypatch
    ):
        def no_work(*args):
            raise AssertionError("work started above the ceiling")

        for name in (
            "enumerate_cycles",
            "_hamiltonian_cycle_count",
            "r_k_graph_core",
        ):
            monkeypatch.setattr(invariants, name, no_work)
        g9 = SimpleGraph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
        runs = [lambda l=l: e_l_parity(g9, l) for l in (4, 9, 10)]
        runs += [lambda k=k: invariants.r_k_graph(g9, k) for k in (2, 4, 5)]
        for run in runs:
            with pytest.raises(ValueError, match="order 9 outside 0..8"):
                run()

    def test_report_determinism(self):
        kwargs = dict(sample=50, seed=123, invariant="r2")
        a = verify_weight_system(lambda d: r_k(d, 2), 4, **kwargs)
        b = verify_weight_system(lambda d: r_k(d, 2), 4, **kwargs)
        assert a.json_lines() == b.json_lines()
        assert a.checked == 50


class TestSources:
    """The one diagram source, of diagrams and of 4-term instances."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.none() | st.integers(0, 40),
        st.integers(0, 2**32),
        st.integers(1, 4),
    )
    @example(order=3, sample=0, seed=0, count=2)  # sample=0 yields nothing
    def test_shards_partition_the_stream(self, order, sample, seed, count):
        # both modes yield windows of (item, weight) pairs; a sampled item
        # stands for itself alone and is the draw of the tuple reference
        for four_term in (False, True):
            def items(shard=None):
                # windows of 7 four-term items, or of 28 one-word items
                with mock.patch.object(fourterm, "_WINDOW_WORDS", 28):
                    return _items(diagram_source(order, sample, seed, shard, four_term))

            whole = items()
            if sample is not None:
                reference = references.sampled_items(order, sample, seed, None, four_term)
                assert whole == reference
                assert len(whole) == sample
                assert all(w == 1 for _, w in whole)
            parts = [items((index, count)) for index in range(count)]
            assert sorted(itertools.chain(*parts)) == sorted(whole)


class TestSampledWindows:
    """The int8 windows of the sampled source hold, row for row, the
    items of the tuple reference: the same draws, the same positions and
    the same moves."""

    @pytest.mark.parametrize("order", range(2, 9))
    @pytest.mark.parametrize(
        "sample, window, shard",
        [(300, 64, None), (129, 128, None), (0, 16, None), (250, 32, (1, 3)),
         (97, 5, (0, 2)), (40, 1024, (3, 4))],
    )
    def test_windows_match_the_tuple_sources(self, order, sample, window, shard):
        seed = 100 * order + sample
        # the rows: the words of random_diagram; the quadruples: the
        # slicing move at the position rng.choice draws
        for four_term in (False, True):
            # ``window`` items a window, four words each with ``four_term``
            words = 4 * window if four_term else window
            with mock.patch.object(fourterm, "_WINDOW_WORDS", words):
                windows = _items(diagram_source(order, sample, seed, shard, four_term))
            expected = references.sampled_items(order, sample, seed, shard, four_term)
            assert windows == expected

    @pytest.mark.parametrize("order", range(2, 9))
    def test_draws_leave_the_generator_as_shuffle_and_randrange_do(self, order):
        # each 4-term draw: a shuffle of the slots, then randrange of the
        # neighboring-position count, 2n less the chords with adjacent ends
        m = 2 * order
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in fourterm._sampled_arrays(order, 50, rng, None, 16, True):
                pass
            for _ in range(50):
                slots = list(range(m))
                ref.shuffle(slots)
                gaps = (abs(a - b) for a, b in zip(slots[::2], slots[1::2]))
                ref.randrange(m - sum(g in (1, m - 1) for g in gaps))
            assert rng.getstate() == ref.getstate()

    def test_windows_have_the_window_size_but_the_last(self, monkeypatch):
        # _WINDOW_WORDS words a window: 256 four-term items or 1,024 diagrams
        windows = list(diagram_source(8, 600, 1, None, True))
        assert [w.shape for w, _ in windows] == [
            (256, 4, 16), (256, 4, 16), (88, 4, 16)
        ]
        assert {w.dtype for w, _ in windows} == {np.dtype(np.int8)}
        assert [ws for _, ws in windows] == [(1,) * 256, (1,) * 256, (1,) * 88]
        assert [w.shape for w, _ in diagram_source(4, 2100, 1, None, False)] == [
            (1024, 1, 8), (1024, 1, 8), (52, 1, 8)
        ]
        # exhaustive windows of tuple items hold as many words
        sizes = [len(items) for items, _ in diagram_source(5, None, 0, None, True)]
        assert len(sizes) > 2 and set(sizes[:-1]) == {256} and sizes[-1] <= 256
        # the bound is read at each call
        monkeypatch.setattr(fourterm, "_WINDOW_WORDS", 128)
        sizes = [len(items) for items, _ in diagram_source(6, None, 0, None, False)]
        assert len(sizes) > 2 and set(sizes[:-1]) == {128} and sizes[-1] <= 128
        monkeypatch.setattr(fourterm, "_WINDOW_WORDS", 4)
        assert [w.shape for w, _ in diagram_source(4, 5, 1, None, False)] == [
            (4, 1, 8), (1, 1, 8)
        ]

    @pytest.mark.parametrize("order", range(2, 7))
    def test_move_table_matches_the_slicing_move(self, order):
        for d in enumerate_diagrams(order, "basepointed"):
            neighboring = neighbor_positions(d)
            for p in range(2 * order):
                if p in neighboring:
                    got = four_term_words(d.word, p)
                    assert got == references.four_term_words(d.word, p)
                    assert got[0] is d.word
                else:
                    with pytest.raises(DiagramError):
                        four_term_words(d.word, p)

    def test_checks_come_before_any_draw(self):
        for args, message in (
            ((9, 5), "order 9 outside 0..8"),
            ((4, -1), "nonnegative, got -1"),
        ):
            for four_term in (False, True):
                with pytest.raises(ValueError, match=message):
                    diagram_source(*args, 0, None, four_term)
        with pytest.raises(ValueError, match="order >= 2, got 1"):
            diagram_source(1, 3, 0, None, True)

    def test_no_sampled_run_draws_tuple_items(self, monkeypatch):
        # every sampled path reads the int8 windows: no random_diagram
        # draw, under any module's binding, and no 4-term word slicing
        def no_tuples(*args):
            raise AssertionError("a tuple item drawn")

        for module in (diagrams, fourterm, verify):
            monkeypatch.setattr(module, "random_diagram", no_tuples, raising=False)
        monkeypatch.setattr(fourterm, "four_term_words", no_tuples)
        for run in (
            lambda: verify.suite_four_term_diagrams("sl2", 6, sample=50, seed=1),
            lambda: verify.suite_four_term_diagrams("rk", 8, 4, sample=50, seed=1),
            lambda: verify.suite_parity(8, 4, sample=50, seed=1),
            lambda: verify.suite_conjecture(3, sample=50, seed=1),
            lambda: verify.suite_oracle_equivalence(5, sample=50, seed=1),
            lambda: verify_weight_system(_diagram_triangles, 6, sample=50, seed=1),
        ):
            assert run().checked == 50


class TestGraphFourTerm:
    def test_tilde_prime_readings_coincide(self):
        # toggling the a-b edge commutes with the tilde move, so the two
        # readings of the fourth term agree
        for g in enumerate_graphs(4, "labeled"):
            for a in range(4):
                for b in range(4):
                    if a != b:
                        assert graph_prime(graph_tilde(g, a, b), a, b) == graph_tilde(
                            graph_prime(g, a, b), a, b
                        )

    @pytest.mark.parametrize("a, b", [(0, 3), (3, 0), (-1, 0), (0, -1), (1, 1)])
    def test_vertices_outside_the_graph_raise(self, a, b):
        # the edge-mask moves index a table by vertex, where -1 would
        # wrap around to the last row and n would raise IndexError
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="distinct vertices in 0..2"):
            graph_four_term(g, a, b)

    def test_isolated_partner_collapses(self):
        g = SimpleGraph.from_edges(3, [(1, 2)])
        quad = graph_four_term(g, 1, 0)  # vertex 0 is isolated
        (t1, _), (t2, _), (t3, _), (t4, _) = quad.terms
        assert t3 == t1
        assert t4 == t2

    def test_el_parity_annihilates_small(self):
        report = suite_four_term_graphs("el-parity", 5, l=4)
        assert report.ok
        assert report.checked == (1 << 10) * 20

    def test_rk_graph_annihilates_order4(self):
        report = suite_four_term_graphs("rk-graph", 4, k=2)
        assert report.ok
        assert report.checked == (1 << 6) * 12

    def test_generic_graph_verifier(self):
        # edge count is a 4-invariant (the prime move changes both sides
        # equally) but the triangle count is not
        report = verify_graph_four_term(
            lambda g: len(g.edges()), 4, invariant="edge-count"
        )
        assert report.ok
        from chordlab.graphs import enumerate_cycles

        broken = verify_graph_four_term(
            lambda g: len(enumerate_cycles(g, 3)), 4, invariant="triangles"
        )
        assert not broken.ok


class TestTwoTerm:
    def test_wc_small(self):
        for n in range(1, 6):
            assert two_term_check(w_c, n, invariant="wc").ok

    def test_gf2_rank_small(self):
        for n in range(1, 6):
            assert two_term_check(
                lambda g: gf2_rank(g.rows, g.n), n, invariant="gf2-rank"
            ).ok

    def test_edge_count_fails(self):
        report = two_term_check(
            lambda g: len(g.edges()), 3, invariant="edge-count"
        )
        assert not report.ok

    def test_json_lines_shape(self):
        report = two_term_check(lambda g: len(g.edges()), 3, invariant="edge-count")
        import json

        lines = report.json_lines().splitlines()
        summary = json.loads(lines[-1])
        assert summary == {"checked": report.checked, "violations": len(report.violations)}
        first = json.loads(lines[0])
        assert set(first) == {"invariant", "order", "terms", "signed_sum"}


class TestMaskEngines:
    """The numpy mask engine in verify, on 4-term and 2-term terms,
    against the object-level engines on tables that violate the
    relations."""

    @pytest.mark.parametrize("f", [_triangles, _edges])
    def test_four_term_matches_object_engine(self, f):
        masked = masked_relation(f.__name__, _mask_table(f, 4), 4, FOUR_TERM)
        plain = verify_graph_four_term(f, 4, invariant=f.__name__)
        assert masked.checked == plain.checked == 64 * 12
        assert masked.violations == plain.violations
        assert masked.ok == (f is _edges)

    @pytest.mark.parametrize("f", [_triangles, _edges])
    def test_two_term_matches_object_engine(self, f):
        masked = masked_relation(f.__name__, _mask_table(f, 4), 4, TWO_TERM)
        plain = two_term_check(f, 4, invariant=f.__name__)
        assert masked.checked == plain.checked == 64 * 12
        assert masked.violations == plain.violations
        assert not masked.ok

    @pytest.mark.parametrize("chunk", [2048, 5])
    def test_shards_merge_to_the_whole_run(self, chunk, monkeypatch):
        monkeypatch.setattr(verify, "_MASK_CHUNK", chunk)
        table = _mask_table(_triangles, 4)
        for terms in (FOUR_TERM, TWO_TERM):
            whole = masked_relation("triangles", table, 4, terms)
            parts = [
                masked_relation("triangles", table, 4, terms, shard=(i, 3))
                for i in range(3)
            ]
            assert merge_reports(parts).json_lines() == whole.json_lines()

    @pytest.mark.parametrize("order", [4, 5])
    def test_full_length_el_parity_table(self, order):
        # the batched Hamiltonian route against per-graph cycle parities
        name, table, mod2 = verify._graph_invariant_table(
            "el-parity", order, None, order
        )
        expected = [e_l_parity(g, order) for g in enumerate_graphs(order, "labeled")]
        assert (name, mod2) == (f"e{order}-parity", True)
        assert table.tolist() == expected

    def test_graph_parity_sums_reduce_mod_2(self):
        # digest recorded from the int-subclass parity implementation
        table = _mask_table(_triangles, 4) & 1
        report = masked_relation("triangle-parity", table, 4, FOUR_TERM, mod2=True)
        assert {v["signed_sum"] for v in report.violations} == {"1"}
        assert len(report.violations) == 384
        assert _sha(report) == (
            "da2418a227c4a2632a132548ad4b2ca2c817b640ca5d4a17f0f4d6bce5eacdce"
        )

    def test_diagram_parity_sums_reduce_mod_2(self, monkeypatch):
        # digest recorded from the int-subclass parity implementation
        def parity(d):
            return _triangles(SimpleGraph(d.n, interleave_rows(d.word))) & 1

        monkeypatch.setattr(
            verify,
            "_diagram_invariant",
            lambda invariant, k, l: ("triangle-parity", parity, True),
        )
        report = verify.suite_four_term_diagrams("triangle-parity", 4)
        assert {v["signed_sum"] for v in report.violations} == {"1"}
        assert len(report.violations) == 288
        assert _sha(report) == (
            "d64e58da699c84cddf231664b76269bc1524d62f33f026de270326adbcc7082c"
        )

    @pytest.mark.parametrize("window", [1, 7, 1024])
    def test_diagram_parity_digest_does_not_depend_on_the_window(
        self, monkeypatch, window
    ):
        # ``window`` four-term items a window
        monkeypatch.setattr(fourterm, "_WINDOW_WORDS", 4 * window)
        self.test_diagram_parity_sums_reduce_mod_2(monkeypatch)

    @pytest.mark.parametrize("suite", [suite_four_term_graphs, verify.suite_two_term])
    def test_unknown_graph_invariant(self, suite):
        with pytest.raises(ValueError, match="^unknown graph invariant: 'nope'$"):
            suite("nope", 4)

    def test_flag_the_invariant_does_not_take_raises(self):
        with pytest.raises(ValueError, match="^invariant 'wc' does not take --k$"):
            suite_four_term_graphs("wc", 4, k=2)
        with pytest.raises(ValueError, match="^invariant 'rk' does not take --l$"):
            verify.suite_four_term_diagrams("rk", 4, k=2, l=4)


class TestViolationDigests:
    """Violation-producing reports of the diagram engines, pinned by
    (checked, violations, sha256 of json_lines()) as recorded before the
    diagram 4-term loops and the per-class suite loops were merged."""

    @pytest.mark.parametrize(
        "run, checked, violations, digest",
        [
            (
                lambda: verify_weight_system(
                    _diagram_triangles, 4, invariant="triangles"
                ),
                720,
                352,
                "10f65d881fb05480d526f86b61d8a7b8fb90b09f21f44f8173166f7b276cce5b",
            ),
            (
                lambda: verify_weight_system(
                    _diagram_triangles, 6, 300, 5, invariant="triangles"
                ),
                300,
                190,
                "72b3e09a9bf28c9a2654fcfe85a94fd33e214a3f65aaddc50a6ef64df48ec4c2",
            ),
            (
                lambda: verify_weight_system(
                    sl2_recursive, 5, 100, 9, invariant="sl2",
                    signs=(1, 1, -1, -1),
                ),
                100,
                55,
                "af7b387320121ae3aa1964a0c13038dd3715c553b900c6e7ffa5933ef9c7f2e6",
            ),
        ],
        ids=["triangles-exhaustive", "triangles-sampled", "sl2-bad-signs"],
    )
    def test_weight_system(self, run, checked, violations, digest):
        report = run()
        assert (report.checked, len(report.violations)) == (checked, violations)
        assert _sha(report) == digest

    def test_sampled_rk_records_from_array_rows(self, monkeypatch):
        # a DP fault (+1 where step 0 -> 1 reads +1) on the sampled R_k
        # 4-term run, whose violating rows come from int8 windows; digest
        # recorded when the windows were tuple items
        real = verify.hamiltonian_cycle_sums

        def corrupt(mats):
            mats = np.asarray(mats)
            return real(mats) + (mats[:, 0, 1] > 0)

        monkeypatch.setattr(verify, "hamiltonian_cycle_sums", corrupt)
        report = verify.suite_four_term_diagrams("rk", 8, 4, sample=3000, seed=3)
        assert (report.checked, len(report.violations)) == (3000, 186)
        assert _sha(report) == (
            "fb65ae0a17db9ba10d0f5ab51d5ddbeaea54978498afcc03c737d6746a8e40d9"
        )

    @pytest.mark.parametrize(
        "name, broken, run, checked, violations, digest",
        [
            (
                "r_k_via_wc",
                lambda d, k: 0,
                lambda: verify.suite_wc_identity(2),
                105,
                7,
                "093e9583a1f1345deaf22131dff457942026d991d32803c18e941232a040b486",
            ),
            (
                "sl2_oracle",
                lambda d: sl2_recursive(d) + 1,
                lambda: verify.suite_oracle_equivalence(4),
                105,
                105,
                "6c6c1f0786a6e8f7fbdc53a2f70b666ed64b7af1c3ff7c2e677827783884bb2f",
            ),
            (
                "e_l_parity",
                lambda g, l: 0,
                lambda: verify.suite_parity(5, 2),
                945,
                191,
                "308bdefdbc015908f7290447e151afe3043f309c441aeeb8d24337c162b54bf1",
            ),
            # sampled by-class runs, whose items are now int8 array rows;
            # recorded when they were drawn as tuple items
            (
                "sl2_oracle",
                lambda d: sl2_recursive(d) + 1,
                lambda: verify.suite_oracle_equivalence(5, sample=200, seed=11),
                200,
                200,
                "7eebfe4548f4523c21245d93c4a814af04a6f52bccf8fa4d1a08a66539cab01d",
            ),
            (
                "r_k_oriented",
                lambda d, k, flip: 1,
                lambda: verify.suite_conjecture(3, sample=300, seed=13),
                300,
                299,
                "d833b1297f527246aff6dcdb550273e1d921779fa466e396c2218a4a504a5a5f",
            ),
            (
                "sl2_recursive",
                lambda d: IntPolynomial([canonical_code(d)[1]]),
                lambda: verify.suite_four_term_diagrams("sl2", 6, sample=400, seed=3),
                400,
                58,
                "34dba8f85a53135269e21830fd1b98382489064fb8c0ec4cd7bebd56ec108d99",
            ),
        ],
        ids=[
            "wc-identity", "oracle-equivalence", "parity",
            "oracle-equivalence-sampled", "conjecture-sampled", "sl2-four-term-sampled",
        ],
    )
    def test_per_class_suites(
        self, monkeypatch, name, broken, run, checked, violations, digest
    ):
        monkeypatch.setattr(verify, name, broken)
        report = run()
        assert (report.checked, len(report.violations)) == (checked, violations)
        assert _sha(report) == digest

    @pytest.mark.parametrize(
        "name, broken, order, checked, violations, digest",
        [
            (
                # R_k replaced by the rotation class: every mutant that
                # leaves its class is recorded, so a class key memo that
                # gave a word another class's key would change the records.
                # Order 6: at order 4 the crossing rows rule out every
                # Hamiltonian cycle of a class whose mutants leave it, so
                # R_k is never evaluated there (744 checked, 0 violations)
                "r_k_oriented",
                lambda d, k, flip: canonical_code(d),
                6,
                70188,
                712,
                "f62acda3415d4cf25e23c25be513cce4ca8c72ab6f09b50f5cc9c4a1a36cdb18",
            ),
            (
                # no R_k at odd order: the rows alone decide
                "interleave_rows",
                lambda word: word.index(word[0], 1),
                5,
                6354,
                4410,
                "287c2bbf7506c1e46b6524f15111304b56d4a35628dce0c01bff903e4340a144",
            ),
        ],
        ids=["rk-by-class", "rows"],
    )
    def test_mutation(
        self, monkeypatch, name, broken, order, checked, violations, digest
    ):
        # each record holds the two canonical codes, the share and the
        # mutation kind; the rows case was recorded before the suite checked
        # its own ceiling, the rk-by-class case once the rows settled R_k = 0
        monkeypatch.setattr(verify, name, broken)
        report = verify.suite_mutation(order)
        assert (report.checked, len(report.violations)) == (checked, violations)
        assert _sha(report) == digest


class TestPerClassWindows:
    """The per-class suites read diagrams in windows and give each
    window's new classes one batch verdict; the report must not depend
    on the window size."""

    @staticmethod
    def _verdict(d):
        # a class function: only the canonical code is read
        code = canonical_code(d)
        return None if code[1:2] == b"A" else f"second={code[1:2].decode()}"

    def _check_windows(self, monkeypatch, window, sample):
        monkeypatch.setattr(fourterm, "_WINDOW_WORDS", window)
        # one check per basepointed diagram, or per draw
        if sample is None:
            diagrams = list(enumerate_diagrams(5, "basepointed"))
        else:
            draws = references.sampled_items(5, sample, 3)
            diagrams = [ChordDiagram(w) for (w,), _ in draws]
        reference = VerificationReport(invariant="synthetic", order=5)
        for d in diagrams:
            reference.checked += 1
            if self._verdict(d) is not None:
                reference.add_violation([canonical_code(d).decode()], self._verdict(d))
        reference.finalize()
        seen = []

        def batch(ds):
            seen.extend(canonical_code(d) for d in ds)
            return [self._verdict(d) for d in ds]

        report = verify._per_class_suite("synthetic", 5, batch, sample, seed=3)
        assert _summary(report) == _summary(reference)
        # one verdict per class met, never repeated across windows
        met = {canonical_code(d) for d in diagrams}
        assert len(seen) == len(set(seen)) == len(met)
        return met

    @pytest.mark.parametrize("window", [1, 7, 1024])
    def test_windows_match_one_pass(self, monkeypatch, window):
        met = self._check_windows(monkeypatch, window, None)
        assert len(met) == len(list(enumerate_diagrams(5, "up-to-rotation")))

    @pytest.mark.parametrize("window", [1, 7, 1024])
    def test_sampled_windows_match_one_pass(self, monkeypatch, window):
        self._check_windows(monkeypatch, window, 400)

    @pytest.mark.parametrize("window", [5, 1024])
    def test_conjecture_violations_do_not_depend_on_the_window(
        self, monkeypatch, window
    ):
        monkeypatch.setattr(verify, "r_k_oriented", lambda d, k, flip: 1)
        monkeypatch.setattr(fourterm, "_WINDOW_WORDS", 1024)
        whole = _summary(verify.suite_conjecture(2))
        monkeypatch.setattr(fourterm, "_WINDOW_WORDS", window)
        report = verify.suite_conjecture(2)
        assert _summary(report) == whole
        expected = [
            d for d in enumerate_diagrams(4, "basepointed")
            if sl2_projected(d).coefficient(2) != 2
        ]
        assert (report.checked, len(report.violations)) == (105, len(expected))

    @staticmethod
    def _conjecture_per_word(k):
        """The conjecture report of one check per basepointed diagram."""
        report = VerificationReport(invariant=f"conjecture-k{k}", order=2 * k)
        for d in enumerate_diagrams(2 * k, "basepointed"):
            report.checked += 1
            lhs = sl2_projected(d).coefficient(k)
            rhs = 2 * verify.r_k_oriented(d, k, 0)
            if lhs != rhs:
                report.add_violation([canonical_code(d).decode()], f"lhs={lhs} rhs={rhs}")
        return report.finalize()

    @pytest.mark.parametrize("window", [5, 1024])
    def test_class_weighted_conjecture_matches_one_check_per_word(
        self, monkeypatch, window
    ):
        # each class is checked once and weighted by its orbit, so its
        # record repeats once per basepointed diagram of the class
        monkeypatch.setattr(verify, "r_k_oriented", lambda d, k, flip: 1)
        monkeypatch.setattr(fourterm, "_WINDOW_WORDS", window)
        reference = _summary(self._conjecture_per_word(2))
        assert _summary(verify.suite_conjecture(2)) == reference
        parts = [verify.suite_conjecture(2, shard=(i, 3)) for i in range(3)]
        assert _summary(merge_reports(parts)) == reference
        # shards split classes: no class is checked by two shards
        codes = [{rec["terms"][0] for rec in p.violations} for p in parts]
        assert not (codes[0] & codes[1] or codes[0] & codes[2] or codes[1] & codes[2])
        assert sum(p.checked for p in parts) == 105


def _summary(report) -> tuple:
    """(checked, violations, digest of the JSON lines): a failing
    comparison prints three values, not two long reports."""
    return report.checked, len(report.violations), _sha(report)


@lru_cache(maxsize=None)
def _triangles_per_word(order: int) -> tuple:
    """The triangle-count 4-term report, one check per basepointed word."""
    return _summary(references.four_term_report(_diagram_triangles, order, "triangles"))


class TestOrbitWeights:
    """An exhaustive diagram run checks each rotation class once and
    weights it by its orbit size; its report must be the report of one
    check per (basepointed word, position), byte for byte."""

    @pytest.mark.parametrize("order", range(7))
    def test_non_invariant_class_function(self, order):
        report = verify_weight_system(_diagram_triangles, order, invariant="triangles")
        assert _summary(report) == _triangles_per_word(order)
        if order == 5:
            assert (report.checked, len(report.violations)) == (8400, 4880)

    @pytest.mark.parametrize("order", range(7))
    def test_flipped_signs(self, order):
        # R_2 is a weight system, so only the signs make violations
        signs = (1, -1, 1, -1)
        f = lambda d: r_k(d, 2)
        report = verify_weight_system(f, order, invariant="r2", signs=signs)
        reference = references.four_term_report(f, order, "r2", signs)
        assert _summary(report) == _summary(reference)
        assert reference.ok == (order < 4)

    @pytest.mark.parametrize("order", range(7))
    def test_merged_shards(self, order):
        # verify_weight_system's loop, the classes split three ways
        evaluate = lambda: by_class(lambda ds: [_diagram_triangles(d) for d in ds])
        parts = [
            relation_sums(
                "triangles",
                order,
                diagram_source(order, None, 0, (i, 3), True),
                evaluate(),
                signed_sum(),
            )
            for i in range(3)
        ]
        assert _summary(merge_reports(parts)) == _triangles_per_word(order)

    def test_no_exhaustive_suite_walks_basepointed_words(self, monkeypatch):
        def no_walk(m):
            raise AssertionError("basepointed words walked")

        monkeypatch.setattr(diagrams, "_matchings", no_walk)
        for run in (
            lambda: verify.suite_four_term_diagrams("rk", 5, 2),
            lambda: verify_weight_system(_diagram_triangles, 5),
            lambda: verify.suite_conjecture(2),
            lambda: verify.suite_parity(4, 2),
        ):
            assert run().checked > 0


class TestOneKeyerPerRun:
    """A by-class run keys its words through one class keyer, whose memo
    is emptied when full; emptying it only repeats work."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify.suite_four_term_diagrams("rk", 4, 2),
            lambda: verify.suite_four_term_diagrams("rk", 5, 2),
            lambda: verify.suite_four_term_diagrams("sl2", 7, sample=600, seed=4),
            lambda: verify_weight_system(_diagram_triangles, 5, invariant="triangles"),
        ],
        ids=["rk-4", "rk-5", "sl2-sampled-7", "triangles-5"],
    )
    def test_a_one_word_memo_gives_the_same_bytes(self, monkeypatch, run):
        whole = _summary(run())
        monkeypatch.setattr(diagrams, "_KEYER_WORDS", 1)
        assert _summary(run()) == whole

    def test_exhaustive_run_keys_each_relabeled_word_once(self, monkeypatch):
        keyed = []
        real = diagrams.canonical_word_bytes
        monkeypatch.setattr(
            diagrams, "canonical_word_bytes", lambda w: keyed.append(w) or real(w)
        )
        # the suite takes R_k from the DP, so every key counted is the keyer's
        report = verify.suite_four_term_diagrams("rk", 5, 2)
        assert (report.checked, report.ok) == (8400, True)
        # at most the 945 basepointed words of order 5; a keyer per
        # 128-item window made 13,146 keys
        assert len(keyed) == len(set(keyed)) <= 945

    @pytest.mark.parametrize(
        "run",
        [lambda: verify.suite_wc_identity(3), lambda: verify.suite_parity(6, 3)],
        ids=["wc-identity-3", "parity-6"],
    )
    def test_exhaustive_rk_verdicts_key_no_word(self, monkeypatch, run):
        # each class reaches the verdict once, so R_k needs no class key
        keyed = []
        real = diagrams.canonical_word_bytes
        monkeypatch.setattr(
            diagrams, "canonical_word_bytes", lambda w: keyed.append(w) or real(w)
        )
        report = run()
        assert (report.checked, report.ok, keyed) == (10395, True, [])


class TestMutationCounts:
    @pytest.mark.parametrize(
        "order,checked",
        [(0, 3), (1, 6), (2, 24), (3, 120), (4, 744), (5, 6354), (6, 70188)],
    )
    def test_checked_is_three_per_share_of_each_class(self, order, checked):
        # the empty word has one share, the empty one, and three mutants
        report = verify.suite_mutation(order)
        assert (report.checked, report.ok) == (checked, True)
        shares = sum(
            len(find_shares(d)) for d in enumerate_diagrams(order, "up-to-rotation")
        )
        assert checked == 3 * shares


class TestMutationRowsRule:
    """suite_mutation reads R_k = 0 off a class's crossing rows when they
    rule out a Hamiltonian cycle, and keys no word of such a class."""

    @pytest.mark.parametrize("order", [4, 6])
    def test_skipped_mutants_have_rk_zero(self, order):
        # the mutants whose R_k the suite takes as 0 unevaluated: same
        # rows as their class representative, whose rows rule cycles out
        k = order // 2
        skipped = set()
        for d in enumerate_diagrams(order, "up-to-rotation"):
            rows = interleave_rows(d.word)
            if hamiltonian_ruled_out(rows):
                moves = (g for _, _, gs in share_moves(d.word) for g in gs)
                mutants = (move(d.word) for move in moves)
                skipped.update(w for w in mutants if interleave_rows(w) == rows)
        assert skipped
        for w in skipped:
            d = ChordDiagram(w)
            assert r_k_oriented(d, k, 0) == 0
            # cycle enumeration has no shortcut: no Hamiltonian cycle at all
            assert enumerate_cycles(intersection_graph(d), order) == []

    def test_run_keys_only_classes_the_rows_leave_open(self, monkeypatch):
        keyed = []
        real = diagrams.canonical_word_bytes
        monkeypatch.setattr(
            diagrams, "canonical_word_bytes", lambda w: keyed.append(w) or real(w)
        )
        report = verify.suite_mutation(6)
        assert (report.checked, report.ok) == (70188, True)
        assert keyed and len(keyed) == len(set(keyed))
        assert not any(hamiltonian_ruled_out(interleave_rows(w)) for w in keyed)


class TestHamiltonianRoute:
    """The sampled R_k 4-term and parity checks through the batched
    Hamiltonian DP, under a DP corrupted by matrix content alone (a
    crossing read as +1 from chord 1 to chord 0), so the reports carry
    violations.  Digests recorded before the diagram loops were merged."""

    @pytest.fixture(autouse=True)
    def corrupt_dp(self, monkeypatch):
        real = verify.hamiltonian_cycle_sums

        def corrupt(mats):
            mats = np.asarray(mats)
            return real(mats) + (mats[:, 1, 0] == 1)

        monkeypatch.setattr(verify, "hamiltonian_cycle_sums", corrupt)

    def test_sampled_rk_four_term_digest(self):
        report = verify.suite_four_term_diagrams("rk", 8, 4, sample=3000, seed=11)
        assert (report.checked, len(report.violations)) == (3000, 190)
        assert _sha(report) == (
            "fb75121189d475fbe7d2641dbdc4f3d968c864e36e296ba559e8950a2f9980fd"
        )

    def test_sampled_parity_digest(self):
        report = verify.suite_parity(8, 4, sample=2000, seed=13)
        assert (report.checked, len(report.violations)) == (2000, 912)
        assert _sha(report) == (
            "e868ac6d146b555824c7e5faafc4bf9c83f66aee377cf39bc0e42d7ec17bc2d1"
        )

    def test_sampled_rk_shards_merge_to_the_whole_run(self):
        def run(shard=None):
            return verify.suite_four_term_diagrams(
                "rk", 8, 4, sample=3000, seed=11, shard=shard
            )

        parts = [run((i, 3)) for i in range(3)]
        assert merge_reports(parts).json_lines() == run().json_lines()
        assert sum(len(p.violations) for p in parts) == 190
