import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import diagrams, invariants
from chordlab.diagrams import parse_diagram, random_diagram
from chordlab.graphs import (
    SimpleGraph,
    cycle_sign,
    enumerate_cycles,
    hamiltonian_ruled_out,
    interleave_rows,
    intersection_graph,
    pfaffian_parities,
    realize_diagram,
    sign_matrix,
)
from chordlab.invariants import (
    FIVE_WHEEL,
    THREE_PRISM,
    _projected_chunk,
    _signed_hamiltonian_sum,
    e_l_parity,
    r_k,
    r_k_graph,
    r_k_graph_core,
    r_k_oriented,
    r_k_via_wc,
    sl2_graph_extension_check,
    sl2_on_graph,
    sl2_projected,
    sl2_projected_batch,
    w_c,
)
from chordlab.polynomials import C, IntPolynomial, ZERO
from chordlab.sl2 import sl2_recursive
from chordlab.verify import suite_four_term_graphs
from graph_moves import disjoint_union, projected_indicator
from references import (
    conjecture_check,
    diagram_product,
    induced_subdiagram,
    partition_weight,
    project_primitive_value,
    rotated,
    set_partitions,
)

K4_DIAGRAM = parse_diagram("ABCDABCD")


class TestRk:
    def test_complete_four_graph(self):
        assert r_k(K4_DIAGRAM, 2) == 1

    def test_triangle_with_pendant_vanishes(self):
        assert r_k(parse_diagram("ABCABDCD"), 2) == 0

    def test_four_cycle_graph(self):
        d = realize_diagram(
            SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        )
        assert r_k(d, 2) == 1

    def test_small_diagrams_vanish(self):
        assert r_k(parse_diagram("ABAB"), 2) == 0
        assert r_k(K4_DIAGRAM, 3) == 0

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            r_k(K4_DIAGRAM, 1)

    def test_order_above_the_ceiling_raises(self):
        order9 = parse_diagram("ABCDEFGHI" * 2)
        for k in (2, 12):
            with pytest.raises(ValueError, match="order 9 outside 0..8"):
                r_k(order9, k)

    def test_odd_signed_cycle_total_raises(self):
        # a directed 3-cycle: not antisymmetric, and the total counts the
        # cycle in one direction only
        w = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        with pytest.raises(AssertionError, match="must be even, got 1"):
            _signed_hamiltonian_sum(w)

    def test_invariant_checks_survive_optimized_mode(self):
        # explicit raises, not assert statements: they still fire under -O
        code = (
            "from chordlab.invariants import _signed_hamiltonian_sum\n"
            "from chordlab.invariants import _SUBWORD_MEMO, _projected_chunk\n"
            "from chordlab.sl2 import _six_term_step\n"
            "from chordlab._bulk import hamiltonian_cycle_sums\n"
            # a one-chord value of degree 2 leaves a digit past c^2
            "_SUBWORD_MEMO[bytes([0, 0])] = (0, 0, 1)\n"
            "for call in (lambda: _signed_hamiltonian_sum("
            "[[0, 1, 0], [0, 0, 1], [1, 0, 0]]), "
            "lambda: hamiltonian_cycle_sums("
            "[[[0, 0, 0]] * 3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]), "
            "lambda: _six_term_step((0, 0, 1, 1), (0, 0)), "
            "lambda: _projected_chunk([(0, 0, 1, 1)])[0]):\n"
            "    try:\n"
            "        call()\n"
            "    except (AssertionError, ArithmeticError):\n"
            "        continue\n"
            "    raise SystemExit('no error under -O')\n"
            # the library's resource ceilings are raises too
            "from chordlab.fourterm import diagram_source\n"
            "try:\n"
            "    diagram_source(7, None, 0, None, False, 1)\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no ceiling error under -O')\n"
        )
        src = os.path.dirname(os.path.dirname(invariants.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-O", "-c", code], check=True, env=env)

    def test_dp_agrees_with_explicit_cycle_signs(self, diagram_classes):
        # the Hamiltonian DP fast path against per-cycle enumeration
        for d in diagram_classes(4):
            w = sign_matrix(d)
            cycles = enumerate_cycles(intersection_graph(d), 4)
            expected = sum(cycle_sign(w, cyc) for cyc in cycles)
            assert r_k(d, 2) == expected

    def test_rows_rule_decides_before_the_key(self, monkeypatch):
        # at order 2k a word whose crossing rows rule out a Hamiltonian
        # cycle reads 0 unkeyed and unmemoized; the others go through the memo
        keyed = []
        real = diagrams.canonical_word_bytes
        monkeypatch.setattr(
            diagrams, "canonical_word_bytes", lambda w: keyed.append(w) or real(w)
        )
        monkeypatch.setattr(invariants, "_RK_MEMO", {})
        rng = random.Random(27)
        ds = [random_diagram(8, rng) for _ in range(2000)]
        assert [r_k(d, 4) for d in ds] == [r_k_oriented(d, 4, 0) for d in ds]
        live = {
            d.word for d in ds if not hamiltonian_ruled_out(interleave_rows(d.word))
        }
        assert 0 < len(live) < len(ds)
        assert set(keyed) == live
        assert len(invariants._RK_MEMO) == len({real(w) for w in live})

    def test_orientation_masks_small(self, diagram_classes):
        for d in diagram_classes(4):
            base = r_k(d, 2)
            for mask in range(16):
                assert r_k_oriented(d, 2, mask) == base


class TestSmallInvariants:
    def test_e_l_parity(self):
        k4 = intersection_graph(K4_DIAGRAM)
        assert e_l_parity(k4, 4) == 1
        c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert e_l_parity(c4, 4) == 1
        assert e_l_parity(SimpleGraph(3, (0, 0, 0)), 4) == 0
        with pytest.raises(ValueError):
            e_l_parity(c4, 3)

    def test_w_c(self):
        assert w_c(SimpleGraph.from_edges(2, [(0, 1)])) == 1
        assert w_c(SimpleGraph(1, (0,))) == 0
        assert w_c(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 0
        assert w_c(SimpleGraph(0, ())) == 1


class TestProjection:
    def test_matches_direct_partition_sum(self, diagram_classes):
        # independent oracle: the explicit alternating-factorial sum over
        # restricted-growth set partitions
        for n in range(1, 5):
            for d in diagram_classes(n):
                direct = None
                for blocks in set_partitions(n):
                    term = partition_weight(len(blocks))
                    for block in blocks:
                        term = term * sl2_recursive(induced_subdiagram(d, block))
                    direct = term if direct is None else direct + term
                assert project_primitive_value(d, sl2_recursive) == direct

    def test_single_chord(self):
        assert project_primitive_value(parse_diagram("AA"), sl2_recursive) == C

    def test_batch_refuses_orders_above_the_ceiling(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started above the ceiling")

        monkeypatch.setattr(invariants, "canonical_code", no_work)
        batch = [parse_diagram("ABAB"), parse_diagram("ABCDEFGHI" * 2)]
        with pytest.raises(ValueError, match="order 9 outside 0..8"):
            sl2_projected_batch(batch)

    def test_point_route_matches_polynomial_route(self, diagram_classes):
        # the integer-point route behind sl2_projected against the
        # ring-generic partition sum over IntPolynomial values
        def check(d):
            got = IntPolynomial(_projected_chunk([d.word])[0])
            assert got == project_primitive_value(d, sl2_recursive)

        for n in range(7):
            for d in diagram_classes(n):
                check(d)
        rng = random.Random(7)
        for _ in range(40):
            check(random_diagram(7, rng))

    @pytest.fixture
    def cold_memos(self, monkeypatch):
        # batches must compute, not answer from memos filled by other tests
        monkeypatch.setattr(invariants, "_PROJECTED_MEMO", {})
        monkeypatch.setattr(invariants, "_SUBWORD_MEMO", {})

    def test_batch_matches_polynomial_route(self, diagram_classes, cold_memos):
        # every class of order <= 5 (orders 0 and 1 too), rotated and so
        # non-canonical words, and duplicates, in one batch
        ds = [d for n in range(6) for d in diagram_classes(n)]
        ds += [rotated(d, 3) for d in ds[::4]] + ds[::9]
        random.Random(5).shuffle(ds)
        expected = [project_primitive_value(d, sl2_recursive) for d in ds]
        assert sl2_projected_batch(ds) == expected

    def test_batches_longer_than_a_chunk(self, cold_memos):
        rng = random.Random(8)
        size = invariants._PROJECTION_CHUNK + 5
        ds = [random_diagram(n, rng) for n in (7, 8) for _ in range(size)]
        rng.shuffle(ds)
        expected = [project_primitive_value(d, sl2_recursive) for d in ds]
        assert sl2_projected_batch(ds) == expected

    @pytest.mark.parametrize("coeffs", [(0, 1 << 62), (0, 1 << 200)])
    def test_exact_past_int64(self, monkeypatch, cold_memos, coeffs):
        # a single-chord value past int64, then far past it: the projection
        # equals the ring-generic route over the same subword values
        monkeypatch.setitem(invariants._SUBWORD_MEMO, bytes([0, 0]), coeffs)
        ds = [parse_diagram(w) for w in ("AABB", "ABAB", "ABCABC", "ABACBC")]
        got = sl2_projected_batch(ds)
        memo = invariants._SUBWORD_MEMO
        value = lambda d: IntPolynomial(memo[bytes(d.word)])
        assert got == [project_primitive_value(d, value) for d in ds]
        assert got[0] == IntPolynomial([0, 0, 1 - coeffs[1] ** 2])

    @settings(max_examples=6, deadline=None)
    @given(st.integers(7, 8), st.integers(1, 6), st.integers(0, 2**32))
    def test_batch_property_orders_7_8(self, n, split, seed):
        rng = random.Random(seed)
        d = random_diagram(n, rng)
        product = diagram_product(
            random_diagram(split, rng), random_diagram(n - split, rng)
        )
        got = sl2_projected_batch([d, product])
        assert got == [project_primitive_value(d, sl2_recursive), ZERO]

    def test_products_project_to_zero(self, diagram_classes):
        for d1 in diagram_classes(2):
            for d2 in diagram_classes(2):
                assert sl2_projected(diagram_product(d1, d2)) == ZERO

    def test_table_row_values(self):
        assert sl2_projected(K4_DIAGRAM) == IntPolynomial([0, -7, 2])
        d6 = realize_diagram(
            SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        )
        assert sl2_projected(d6) == IntPolynomial([0, -8, 3, 2])


class TestConjectureIdentity:
    def test_k4_row(self):
        res = conjecture_check(K4_DIAGRAM, 2)
        assert res == (2, 2, True)

    def test_row6(self):
        g = SimpleGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 4), (3, 5)]
        )
        res = conjecture_check(realize_diagram(g), 3)
        assert res == (0, 0, True)

    def test_k6_row(self):
        # the published row has both cells negated; the self-consistent
        # values are -8 and -16 (see the table1 module docstring)
        d = realize_diagram(
            SimpleGraph.from_edges(6, list(itertools.combinations(range(6), 2)))
        )
        res = conjecture_check(d, 3)
        assert res == (-16, -16, True)
        assert r_k(d, 3) == -8

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conjecture_check(K4_DIAGRAM, 3)


class TestWcIdentity:
    def test_projected_indicator_is_minus_twice_rk(self, diagram_classes):
        for d in diagram_classes(4):
            assert projected_indicator(intersection_graph(d)) == -2 * r_k(d, 2)

    def test_via_wc_equals_rk_small(self, diagram_classes):
        for d in diagram_classes(4):
            assert r_k_via_wc(d, 2) == r_k(d, 2)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            r_k_via_wc(parse_diagram("ABAB"), 2)


class TestGraphExtension:
    def test_wheel_prism_and_k4(self):
        assert r_k_graph(FIVE_WHEEL, 3) == -3
        assert r_k_graph(THREE_PRISM, 3) == -1
        k4 = SimpleGraph.from_edges(4, list(itertools.combinations(range(4), 2)))
        assert r_k_graph(k4, 2) == 1

    def test_agrees_with_rk_on_intersection_graphs(self, diagram_classes):
        for d in diagram_classes(4):
            assert r_k_graph(intersection_graph(d), 2) == r_k(d, 2)

    def test_general_size_convolution(self):
        k4 = SimpleGraph.from_edges(4, list(itertools.combinations(range(4), 2)))
        assert r_k_graph(SimpleGraph(3, (0, 0, 0)), 2) == 0
        padded = disjoint_union(k4, SimpleGraph(1, (0,)))
        assert r_k_graph(padded, 2) == 1

    def _assert_batch_matches_scalar(self, n, masks):
        """The shared core on each int mask and on int64 and int32 arrays,
        against the elimination reference; an int's pf rows are its lane."""
        want = []
        for m in masks:
            indicator = projected_indicator(SimpleGraph.from_edge_mask(n, m))
            assert indicator % 2 == 0
            want.append(-indicator // 2)
        assert [r_k_graph_core(n, m) for m in masks] == want
        for dtype in (np.int64, np.int32):
            assert r_k_graph_core(n, np.array(masks, dtype=dtype)).tolist() == want
        lanes = np.array(pfaffian_parities(n, np.array(masks, dtype=np.int64)))
        assert [pfaffian_parities(n, m) for m in masks] == lanes.T.tolist()

    def test_batch_matches_scalar_order4_exhaustive(self):
        self._assert_batch_matches_scalar(4, list(range(64)))

    def test_batch_reads_parities_without_ranks(self, monkeypatch):
        def no_rank(*args):
            raise AssertionError("the projected indicator ran a GF(2) elimination")

        monkeypatch.setattr(invariants, "gf2_rank", no_rank)
        masks = np.arange(1 << 15, dtype=np.int64)
        r_k_graph_core(6, masks)
        assert r_k_graph(FIVE_WHEEL, 3) == -3
        # an alternating matrix of odd size is always degenerate
        pf = pfaffian_parities(6, masks)
        assert not any(pf[s].any() for s in range(64) if s.bit_count() % 2)

    def test_batch_matches_scalar_order6_sample(self):
        rng = random.Random(2024)
        masks = [rng.randrange(1 << 15) for _ in range(200)]
        masks += [FIVE_WHEEL.edge_mask(), THREE_PRISM.edge_mask()]
        self._assert_batch_matches_scalar(6, masks)
        wheel_prism = np.array(masks[-2:], dtype=np.int64)
        assert r_k_graph_core(6, wheel_prism).tolist() == [-3, -1]
        assert [r_k_graph_core(6, m) for m in masks[-2:]] == [-3, -1]

    def test_batch_matches_scalar_order8_sample(self):
        rng = random.Random(8)
        masks = [rng.randrange(1 << 28) for _ in range(200)]
        self._assert_batch_matches_scalar(8, masks)

    def test_batch_rejects_other_sizes(self):
        # the rk-graph table runs the core only at order 2k, k >= 2
        with pytest.raises(ValueError, match="order == 2k"):
            suite_four_term_graphs("rk-graph", 5, k=2)
        with pytest.raises(ValueError, match="--k >= 2"):
            suite_four_term_graphs("rk-graph", 2, k=1)

    def test_sl2_on_graph_requires_realizability(self):
        with pytest.raises(ValueError):
            sl2_on_graph(FIVE_WHEEL)

    def test_extension_check_report(self):
        reports = {rep.name: rep for rep in sl2_graph_extension_check()}
        assert set(reports) == {"five-wheel", "three-prism"}
        for rep in reports.values():
            assert rep.consistent
            assert rep.component_rk_ok
            assert rep.matches_expected
        assert reports["five-wheel"].value == IntPolynomial(
            [0, -72, 176, -139, 50, -10, 1]
        )
        assert reports["five-wheel"].primitive == IntPolynomial([0, -72, 70, -6])
        assert reports["three-prism"].value == IntPolynomial(
            [0, -63, 146, -108, 40, -9, 1]
        )
        assert reports["three-prism"].primitive == IntPolynomial([0, -63, 58, -2])


class TestLeafVanishing:
    def test_leaf_kills_rk_and_drops_projected_degree(self, diagram_classes):
        for k in (2,):
            n = 2 * k
            for d in diagram_classes(n):
                g = intersection_graph(d)
                if not any(g.degree(u) == 1 for u in range(n)):
                    continue
                assert r_k(d, k) == 0
                assert sl2_projected(d).degree < k


def test_parity_congruence_random_order6():
    rng = random.Random(4)
    for _ in range(200):
        d = random_diagram(6, rng)
        g = intersection_graph(d)
        assert r_k(d, 3) & 1 == e_l_parity(g, 6)
