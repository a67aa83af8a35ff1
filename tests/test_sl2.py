import random
import types
from typing import Sequence

import pytest

import chordlab.sl2 as sl2_module
from chordlab.diagrams import ChordDiagram, parse_diagram, random_diagram
from chordlab.polynomials import C, ONE
from chordlab.sl2 import (
    _contraction_traces,
    casimir_eigenvalue,
    rep_matrices,
    sl2_oracle,
    sl2_recursive,
)
from references import diagram_product, induced_subdiagram, rotated


def test_import_binds_the_submodule():
    # no package export shadows the submodule's name
    assert isinstance(sl2_module, types.ModuleType)
    assert sl2_module.sl2_recursive is sl2_recursive


def test_rep_matrices_satisfy_sl2_relations():
    for lam in range(1, 6):
        e, f, h = rep_matrices(lam)
        m = lam + 1
        def mul(x, y):
            return [
                [sum(x[i][k] * y[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]
        def sub(x, y):
            return [[x[i][j] - y[i][j] for j in range(m)] for i in range(m)]
        assert sub(mul(h, e), mul(e, h)) == [[2 * x for x in row] for row in e]
        assert sub(mul(h, f), mul(f, h)) == [[-2 * x for x in row] for row in f]
        assert sub(mul(e, f), mul(f, e)) == h


def test_casimir_eigenvalues():
    assert casimir_eigenvalue(1) == 0.75
    assert casimir_eigenvalue(2) == 2


def _trace_exact(word: Sequence[int], lam: int) -> int:
    """Slow exact reference for the contraction trace (tests only)."""
    m = lam + 1
    e, f, h = rep_matrices(lam)
    opens = [[[2 * x for x in row] for row in e], [[2 * x for x in row] for row in f], h]
    closes = [f, e, h]
    n = len(word) // 2
    total = 0
    for assign in range(3**n):
        digits = [(assign // 3**ch) % 3 for ch in range(n)]
        mat = [[int(i == j) for j in range(m)] for i in range(m)]
        seen: set[int] = set()
        for ch in word:
            M = closes[digits[ch]] if ch in seen else opens[digits[ch]]
            seen.add(ch)
            mat = [
                [sum(mat[i][k] * M[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]
        total += sum(mat[i][i] for i in range(m))
    return total


def test_crt_trace_matches_exact_reference(diagram_classes):
    diagrams = [parse_diagram(word) for word in ["AA", "ABAB", "AABB", "ABCABC"]]
    diagrams += [d for n in range(5) for d in diagram_classes(n)]
    for d in diagrams:
        lams = range(1, d.n + 2)
        for lam, trace in zip(lams, _contraction_traces(d.word, lams)):
            assert trace == _trace_exact(d.word, lam)


def test_rep_matrices_are_shifted_diagonals():
    for lam in range(1, 9):
        e, f, h = rep_matrices(lam)
        for i in range(lam + 1):
            for j in range(lam + 1):
                if j != i + 1:
                    assert e[i][j] == 0
                if j != i - 1:
                    assert f[i][j] == 0
                if j != i:
                    assert h[i][j] == 0


class TestKnownValues:
    def test_single_chord(self):
        assert sl2_oracle(parse_diagram("AA")) == C
        assert sl2_recursive(parse_diagram("AA")) == C

    def test_empty_diagram(self):
        assert sl2_oracle(ChordDiagram(())) == ONE

    def test_oracle_refuses_orders_above_the_ceiling(self):
        with pytest.raises(ValueError, match="order 9 outside 0..8"):
            sl2_oracle(parse_diagram("ABCDEFGHI" * 2))

    def test_recurrence_refuses_orders_above_the_ceiling(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started above the ceiling")

        monkeypatch.setattr(sl2_module, "_sl2_value", no_work)
        with pytest.raises(ValueError, match="order 9 outside 0..8"):
            sl2_recursive(parse_diagram("ABCDEFGHI" * 2))

    def test_crossing_pair(self):
        assert sl2_oracle(parse_diagram("ABAB")) == C * C - C

    def test_triangle(self):
        assert sl2_recursive(parse_diagram("ABCABC")) == C * (C - 1) * (C - 2)

    def test_triangle_with_pendant(self):
        # one extra chord crossing only the last triangle chord
        d = parse_diagram("ABCABDCD")
        assert sl2_recursive(d) == C * (C - 1) * (C - 1) * (C - 2)


class TestStructure:
    def test_monic_degree_zero_constant(self, diagram_classes):
        for n in range(1, 5):
            for d in diagram_classes(n):
                p = sl2_recursive(d)
                assert p.degree == n
                assert p.leading_coefficient == 1
                assert p.coefficient(0) == 0

    def test_leaf_rule(self, diagram_classes):
        for n in range(2, 6):
            for d in diagram_classes(n):
                g_rows = [0] * n
                for a in range(n):
                    a1, a2 = d.endpoints(a)
                    for b in range(n):
                        if a != b:
                            b1, b2 = d.endpoints(b)
                            if (a1 < b1 < a2) != (a1 < b2 < a2):
                                g_rows[a] |= 1 << b
                leaves = [ch for ch in range(n) if bin(g_rows[ch]).count("1") == 1]
                for leaf in leaves:
                    rest = induced_subdiagram(d, set(range(n)) - {leaf})
                    assert sl2_recursive(d) == (C - 1) * sl2_recursive(rest)

    def test_multiplicative_on_products(self, diagram_classes):
        for n1 in range(4):
            for n2 in range(4):
                for d1 in diagram_classes(n1):
                    for d2 in diagram_classes(n2):
                        prod = diagram_product(d1, d2)
                        assert sl2_recursive(prod) == sl2_recursive(d1) * sl2_recursive(d2)


def test_oracle_equals_recursive_exhaustive_small(diagram_classes):
    for n in range(7):
        for d in diagram_classes(n):
            assert sl2_oracle(d) == sl2_recursive(d)


def test_oracle_equals_recursive_random_order5():
    rng = random.Random(1)
    for _ in range(25):
        d = random_diagram(5, rng)
        assert sl2_oracle(d) == sl2_recursive(d)


def test_memo_is_stable():
    d = parse_diagram("ABCDABCD")
    first = sl2_recursive(d)
    assert sl2_recursive(d) == first
    assert sl2_recursive(rotated(d, 3)) == first
