"""Acceptance suite: one test per criterion, exact (zero tolerance)
throughout, printing one PASS line per criterion (run with -s to see
them live).

Criterion 1 targets the published reference table, two cells of which
are sign misprints (see chordlab.table1); the as-published variant is
kept as a strict expected failure so any change in that state fails
loudly, and the reconciled variant asserts the exact corrected values.
"""

import itertools
import random
from math import factorial

import numpy as np
import pytest

from chordlab import table1
from chordlab._bulk import hamiltonian_cycle_sums
from chordlab.diagrams import (
    canonical_code,
    enumerate_diagrams,
    parse_diagram,
    random_diagram,
    rotation_classes,
)
from chordlab.fourterm import verify_weight_system
from chordlab.graphs import graph_canonical_mask, intersection_graph
from chordlab.invariants import (
    FIVE_WHEEL,
    THREE_PRISM,
    r_k,
    r_k_graph,
    r_k_oriented,
    sl2_graph_extension_check,
    sl2_projected,
)
from chordlab.polynomials import C, IntPolynomial
from chordlab.sl2 import sl2_oracle, sl2_recursive
from chordlab.verify import (
    dense_sign_matrix,
    suite_conjecture,
    suite_four_term_diagrams,
    suite_four_term_graphs,
    suite_mutation,
    suite_oracle_equivalence,
    suite_parity,
    suite_two_term,
    suite_wc_identity,
)
from graph_moves import projected_indicator
from references import diagram_product, induced_subdiagram


@pytest.fixture(scope="module")
def reps():
    """Up-to-rotation representatives by order, computed once."""
    cache: dict[int, list] = {}

    def get(n: int):
        if n not in cache:
            cache[n] = list(enumerate_diagrams(n, "up-to-rotation"))
        return cache[n]

    return get


def test_ac01_table1_reproduction():
    rows = table1.recompute()
    statuses = [cell.status for row in rows for cell in row.cells]
    assert statuses.count("ok") == 19
    assert statuses.count("sign-misprint") == 2
    assert "MISMATCH" not in statuses
    # the two reconciled cells, pinned exactly
    row7 = rows[-1]
    assert row7.cells[1].computed == str(IntPolynomial([0, -295, 284, -16]))
    assert row7.cells[2].computed == "-8"
    print(
        "AC01 PASS: table reproduced, 19/21 cells literal, row-7 projected and "
        "rk cells are documented sign misprints (computed -16c^3+284c^2-295c / -8)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="row 7 rk and projected cells are sign misprints in the published "
    "table; three independent computations give the negated values",
)
def test_ac01_table1_as_published():
    rows = table1.recompute()
    assert all(cell.status == "ok" for row in rows for cell in row.cells)


def test_ac02_four_term_r2_exhaustive():
    report = suite_four_term_diagrams("rk", 4, k=2)
    assert report.ok
    assert report.checked == 720  # every neighboring-end pair of all 105
    print(f"AC02 PASS: 4T for R_2 exact on all {report.checked} order-4 quadruples")


def test_ac03_four_term_r3_exhaustive():
    report = suite_four_term_diagrams("rk", 6, k=3)
    assert report.ok
    assert report.checked > 100_000
    print(f"AC03 PASS: 4T for R_3 exact on all {report.checked} order-6 quadruples")


def test_ac04_four_term_r4_sampled():
    report = suite_four_term_diagrams("rk", 8, k=4, sample=100_000, seed=0)
    assert report.ok
    assert report.checked == 100_000
    print("AC04 PASS: 4T for R_4 exact on 100000 sampled order-8 quadruples (seed 0)")


def test_ac05_parity_congruence():
    for order, k in ((4, 2), (6, 3)):
        report = suite_parity(order, k)
        assert report.ok
        assert report.checked == factorial(2 * order) // (2**order * factorial(order))
    sampled = suite_parity(8, 4, sample=10_000, seed=0)
    assert sampled.ok and sampled.checked == 10_000
    print(
        "AC05 PASS: R_k = E_2k (mod 2) exhaustive at (4,2),(6,3) and on 10000 "
        "order-8 samples"
    )


def test_ac06_orientation_independence():
    for d in enumerate_diagrams(4, "basepointed"):
        base = r_k(d, 2)
        for mask in range(16):
            assert r_k_oriented(d, 2, mask) == base
    rng = random.Random(0)
    for order in (6, 8):
        k = order // 2
        words = [random_diagram(order, rng).word for _ in range(1000)]
        base = dense_sign_matrix(words)
        canonical = hamiltonian_cycle_sums(base)
        flipped = np.empty((len(words) * 32, order, order), dtype=np.int8)
        for i in range(len(words)):
            for j in range(32):
                mask = rng.randrange(1 << order)
                s = np.array(
                    [-1 if mask >> c & 1 else 1 for c in range(order)], dtype=np.int8
                )
                flipped[i * 32 + j] = s[:, None] * base[i] * s[None, :]
        vals = hamiltonian_cycle_sums(flipped).reshape(len(words), 32)
        assert (vals == canonical[:, None]).all()
    print(
        "AC06 PASS: orientation independence exact (16 masks x 105 at order 4; "
        "32 random masks x 1000 diagrams at orders 6 and 8)"
    )


def test_ac07_mutation_invariance():
    total = 0
    for order in range(1, 7):
        # mutation surgery commutes with basepoint rotation, so one
        # representative per rotation class covers every diagram
        report = suite_mutation(order)
        assert report.ok
        total += report.checked
    print(
        f"AC07 PASS: labeled intersection graph and R_k preserved under all "
        f"{total} (diagram class, share, mutation kind) triples at order <= 6"
    )


def test_ac08_intersection_graph_dependence(reps):
    for order in (4, 6):
        k = order // 2
        groups: dict[int, list] = {}
        rep_codes = set()
        for d in reps(order):
            rep_codes.add(canonical_code(d))
            groups.setdefault(graph_canonical_mask(intersection_graph(d)), []).append(d)
        # every basepointed diagram reduces to one of the representatives
        for d in enumerate_diagrams(order, "basepointed"):
            assert canonical_code(d) in rep_codes
        multi = 0
        for members in groups.values():
            vals = {
                (r_k(d, k), sl2_oracle(d), sl2_projected(d)) for d in members
            }
            assert len(vals) == 1
            if len(members) > 1:
                multi += 1
        assert multi > 0  # the grouping is not vacuous
    print(
        "AC08 PASS: R_k, the sl2 oracle, and projected values are constant on "
        "every intersection-graph class at orders 4 and 6"
    )


def test_ac09_oracle_vs_recursive():
    for order in range(6):
        report = suite_oracle_equivalence(order)
        assert report.ok
    sampled = suite_oracle_equivalence(6, sample=1000, seed=0)
    assert sampled.ok and sampled.checked == 1000
    print(
        "AC09 PASS: contraction oracle equals the recurrence on all diagrams of "
        "order <= 5 and 1000 random order-6 diagrams"
    )


def test_ac10_sl2_structure(reps):
    # the degree-n/2 bound on projected values concerns orders >= 2: the
    # single chord is its own projection with value c of degree 1
    assert sl2_projected(parse_diagram("AA")) == C
    for order in range(1, 7):
        for d in reps(order):
            p = sl2_recursive(d)
            assert p.degree == order
            assert p.leading_coefficient == 1
            assert p.coefficient(0) == 0
            if order >= 2:
                assert sl2_projected(d).degree <= order // 2
            g = intersection_graph(d)
            for leaf in range(order):
                if g.degree(leaf) == 1:
                    rest = induced_subdiagram(d, set(range(order)) - {leaf})
                    assert p == (C - 1) * sl2_recursive(rest)
                    if order in (4, 6):
                        assert r_k(d, order // 2) == 0
                        assert sl2_projected(d).degree < order // 2
    for d1 in itertools.chain.from_iterable(reps(n) for n in range(4)):
        for d2 in itertools.chain.from_iterable(reps(n) for n in range(4)):
            assert sl2_recursive(diagram_product(d1, d2)) == sl2_recursive(
                d1
            ) * sl2_recursive(d2)
    print(
        "AC10 PASS: sl2 values are monic of degree n with (c-1) leaf factors, "
        "multiplicative on products, and projected degrees stay within n/2"
    )


def test_ac11_coefficient_identity():
    for k, expected in ((2, 105), (3, 10395)):
        report = suite_conjecture(k)
        assert report.ok
        assert report.checked == expected
    sampled = suite_conjecture(4, sample=1000, seed=0)
    assert sampled.ok and sampled.checked == 1000
    print(
        "AC11 PASS: [c^k] of the projected sl2 value equals 2 R_k exhaustively "
        "at k=2,3 and on 1000 order-8 samples"
    )


def test_ac12_projected_indicator_identity(reps):
    for k, expected in ((2, 105), (3, 10395)):
        report = suite_wc_identity(k)
        assert report.ok
        assert report.checked == expected
    # the identity carries an exact factor of two: the projected GF(2)
    # indicator is -2 R_k, never -R_k (documented in the notes)
    for d in reps(4):
        assert projected_indicator(intersection_graph(d)) == -2 * r_k(d, 2)
    print(
        "AC12 PASS: R_k recovered from the projected GF(2) indicator "
        "(exact halving) exhaustively at k=2 and k=3"
    )


def test_ac13_two_term_relation():
    total = 0
    for order in range(1, 7):
        report = suite_two_term("wc", order)
        assert report.ok
        total += report.checked
    assert total == sum(
        (1 << (n * (n - 1) // 2)) * n * (n - 1) for n in range(1, 7)
    )
    print(
        f"AC13 PASS: the GF(2) indicator satisfies the 2-term relation on all "
        f"{total} (graph, ordered pair) instances with <= 6 vertices"
    )


def test_ac14_graph_extension(reps):
    report = suite_four_term_graphs("rk-graph", 6, k=3)
    assert report.ok
    assert report.checked == 32768 * 30
    for order in (4, 6):
        k = order // 2
        for d in reps(order):
            assert r_k_graph(intersection_graph(d), k) == r_k(d, k)
    assert r_k_graph(FIVE_WHEEL, 3) == -3
    assert r_k_graph(THREE_PRISM, 3) == -1
    print(
        "AC14 PASS: the graph extension annihilates all 983040 six-vertex 4T "
        "quadruples, matches R_k on every intersection graph, and takes -3/-1 "
        "on the five-wheel and three-prism"
    )


def test_ac15_sl2_extension_remark():
    reports = sl2_graph_extension_check()
    assert all(rep.consistent for rep in reports)
    assert all(rep.component_rk_ok for rep in reports)
    assert all(rep.matches_expected for rep in reports)
    for rep in reports:
        assert rep.primitive.coefficient(3) == 2 * rep.rk
    print(
        "AC15 PASS: all five 4T resolutions yield the expected sl2 extension "
        "values and primitive parts for the five-wheel and three-prism"
    )


def test_ac16_negative_control():
    corrupted = verify_weight_system(
        lambda d: r_k(d, 2),
        4,
        invariant="r2-corrupted-signs",
        signs=(1, -1, 1, -1),
    )
    assert not corrupted.ok
    assert len(corrupted.violations) > 0
    rec = corrupted.violations[0]
    assert set(rec) == {"invariant", "order", "terms", "signed_sum"}
    assert len(rec["terms"]) == 4
    print(
        f"AC16 PASS: harness can fail (corrupted sign convention produced "
        f"{len(corrupted.violations)} violations)"
    )


# ---------------------------------------------------------------------------
# additional published identities exercised at full stated scale


def test_extra_el_parity_graph_four_term_order6():
    for l in (4, 5, 6):
        report = suite_four_term_graphs("el-parity", 6, l=l)
        assert report.ok
        assert report.checked == 32768 * 30
    print(
        "extra PASS: E_l mod 2 annihilates every six-vertex graph 4T quadruple "
        "for l=4,5,6"
    )


def test_extra_enumeration_count_order8():
    count = sum(1 for _ in enumerate_diagrams(8, "basepointed"))
    assert count == factorial(16) // (2**8 * factorial(8)) == 2_027_025
    orbits = [orbit for _, orbit in rotation_classes(8)]
    assert (len(orbits), sum(orbits)) == (127_072, count)
    print(
        "extra PASS: order-8 basepointed enumeration has (2n-1)!! = 2027025 words "
        "in 127072 rotation classes"
    )
