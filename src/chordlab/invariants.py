"""The weight systems: signed even-cycle counts, the mod-2 cycle count,
the GF(2) nondegeneracy indicator, the sl2 weight system, and the
projection onto primitive elements for diagrams and graphs.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

from ._np import np
from .diagrams import (
    MAX_DIAGRAM_ORDER,
    ChordDiagram,
    canonical_code,
    require_order,
)
from .graphs import (
    SimpleGraph,
    cycle_sign,
    enumerate_cycles,
    gf2_rank,
    graph_four_term_masks,
    hamiltonian_ruled_out,
    interleave_rows,
    intersection_graph,
    pfaffian_parities,
    realize_diagram,
    sign_matrix,
)
from .partitions import partition_log_full
from .polynomials import IntPolynomial
from .sl2 import _sl2_value, sl2_recursive

# smallest cycle parameters the invariants are defined for: 2k-cycles
# with k >= 2 and l-cycles with l >= 4
MIN_K = 2
MIN_L = 4


# ---------------------------------------------------------------------------
# signed and unsigned even-cycle counts


def _signed_hamiltonian_sum(w: Sequence[Sequence[int]]) -> int:
    """Signed count of Hamiltonian cycles from a +-1 step-weight matrix.

    The recurrence of :func:`chordlab._bulk.hamiltonian_cycle_sums` in push
    form.  Its callers skip it where the graph's rows rule out every
    Hamiltonian cycle (:func:`~chordlab.graphs.hamiltonian_ruled_out`).
    """
    n = len(w)
    full = 1 << n
    paths = [[0] * n for _ in range(full)]
    paths[1][0] = 1
    for mask in range(1, full, 2):
        row = paths[mask]
        for v in range(n):
            val = row[v]
            if not val:
                continue
            wv = w[v]
            for u in range(n):
                if wv[u] and not mask >> u & 1:
                    paths[mask | 1 << u][u] += val * wv[u]
    total = sum(paths[full - 1][v] * w[v][0] for v in range(1, n))
    if total % 2:
        # each cycle is counted once in each direction; for a symmetric or
        # antisymmetric weight matrix the two counts agree or cancel
        raise AssertionError(f"signed Hamiltonian sum must be even, got {total}")
    return total // 2


def _hamiltonian_cycle_count(g: SimpleGraph) -> int:
    if hamiltonian_ruled_out(g.rows):
        return 0
    w = [[1 if g.rows[u] >> v & 1 else 0 for v in range(g.n)] for u in range(g.n)]
    return _signed_hamiltonian_sum(w)


def r_k_oriented(d: ChordDiagram, k: int, flip_mask: int) -> int:
    """Signed 2k-cycle count under an explicit chord orientation mask.

    At order 2k it reads 0 without the sign matrix when the crossing rows
    rule out a Hamiltonian cycle (:func:`~chordlab.graphs.hamiltonian_ruled_out`).
    """
    if k < MIN_K:
        raise ValueError(f"k must be at least {MIN_K}")
    if d.n < 2 * k:
        return 0
    if 2 * k == d.n:
        if hamiltonian_ruled_out(interleave_rows(d.word)):
            return 0
        return _signed_hamiltonian_sum(sign_matrix(d, flip_mask))
    w = sign_matrix(d, flip_mask)
    g = intersection_graph(d)  # the crossings: where w is nonzero
    return sum(cycle_sign(w, cyc) for cyc in enumerate_cycles(g, 2 * k))


_RK_MEMO: dict[tuple[bytes, int], int] = {}


def r_k(d: ChordDiagram, k: int) -> int:
    """Positive minus negative 2k-cycles of the directed intersection graph.

    The result does not depend on the chord orientation, so the canonical
    one (each chord directed from its first endpoint) is used.  At order
    2k it is a signed count of Hamiltonian cycles: a diagram whose
    crossing rows rule them out (:func:`~chordlab.graphs.hamiltonian_ruled_out`)
    reads 0 before any key is taken and is not memoized; the others are
    memoized by canonical code.
    """
    if k < MIN_K:
        raise ValueError(f"k must be at least {MIN_K}")
    require_order("r_k", d.n, MAX_DIAGRAM_ORDER)
    if d.n < 2 * k:
        return 0
    if d.n == 2 * k and hamiltonian_ruled_out(interleave_rows(d.word)):
        return 0
    key = (canonical_code(d), k)
    val = _RK_MEMO.get(key)
    if val is None:
        val = _RK_MEMO[key] = r_k_oriented(d, k, 0)
    return val


def e_l_parity(g: SimpleGraph, l: int) -> int:
    """Parity of the number of l-cycles with l distinct vertices."""
    if l < MIN_L:
        raise ValueError(f"l must be at least {MIN_L}")
    require_order("e_l_parity", g.n, MAX_DIAGRAM_ORDER)
    if l > g.n:
        return 0
    if l == g.n:
        return _hamiltonian_cycle_count(g) & 1
    return len(enumerate_cycles(g, l)) & 1


def w_c(g: SimpleGraph) -> int:
    """1 iff the adjacency matrix is nondegenerate over GF(2), else 0."""
    return 1 if gf2_rank(g.rows, g.n) == g.n else 0


# ---------------------------------------------------------------------------
# projection onto primitive elements


_PROJECTED_MEMO: dict[bytes, IntPolynomial] = {}
# normalized induced subword (bytes) -> its sl2 coefficients, ascending
_SUBWORD_MEMO: dict[bytes, tuple[int, ...]] = {}
_PROJECTION_CHUNK = 32  # words of one order per subword table and digit width


def sl2_projected(d: ChordDiagram) -> IntPolynomial:
    """sl2 value of the projection of d onto primitive elements."""
    return sl2_projected_batch([d])[0]


def sl2_projected_batch(diagrams: Sequence[ChordDiagram]) -> list[IntPolynomial]:
    """:func:`sl2_projected` of each diagram, in input order; classes not
    in the memo are projected once, by order, _PROJECTION_CHUNK at a time.
    Raises ValueError if any diagram is above
    :data:`~chordlab.diagrams.MAX_DIAGRAM_ORDER`."""
    top = max((d.n for d in diagrams), default=0)
    require_order("sl2_projected_batch", top, MAX_DIAGRAM_ORDER)
    codes = [canonical_code(d) for d in diagrams]
    missing = {c: d.word for c, d in zip(codes, diagrams) if c not in _PROJECTED_MEMO}
    for m in set(map(len, missing.values())):
        group = [(c, w) for c, w in missing.items() if len(w) == m]
        for lo in range(0, len(group), _PROJECTION_CHUNK):
            chunk = group[lo : lo + _PROJECTION_CHUNK]
            for (c, _), co in zip(chunk, _projected_chunk([w for _, w in chunk])):
                _PROJECTED_MEMO[c] = IntPolynomial(co)
    return [_PROJECTED_MEMO[c] for c in codes]


def _projected_chunk(words: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Ascending coefficients of the projections of normalized words of
    one order n.

    sl2 is multiplicative, so the projection's value is the sum over set
    partitions of the chords of (-1)^(blocks-1) (blocks-1)! times the
    product of sl2 over the blocks' induced subwords.  Every block product
    has total order n, so the degree is at most n.  The sum runs once per
    word on exact ints, each subword's coefficients packed into one int at
    c = 2^B (Kronecker substitution); B from :func:`_projection_bits` makes
    the result's balanced base-2^B digits its coefficients.
    """
    n = len(words[0]) // 2
    if n == 0:
        return [[1] for _ in words]
    index: dict[bytes, int] = {}
    ids = [
        index.setdefault(bytes(w).translate(*sub), len(index))
        for sub in _subword_tables(n)
        for w in words
    ]
    top = [0] * (n + 1)
    table = []
    for key in index:
        if key not in _SUBWORD_MEMO:
            _SUBWORD_MEMO[key] = _sl2_value(tuple(key)).coeffs
        co = _SUBWORD_MEMO[key]
        top[len(key) // 2] = max(top[len(key) // 2], sum(map(abs, co)))
        table.append(co)
    bits = _projection_bits(top)
    packed = [sum(a << bits * i for i, a in enumerate(co)) for co in table]
    out = []
    for lane in range(len(words)):
        value = partition_log_full([packed[i] for i in ids[lane :: len(words)]], n)
        out.append(_balanced_digits(value, bits, n + 1))
    return out


@lru_cache(maxsize=None)
def _subword_tables(n: int) -> tuple[tuple[bytes, bytes], ...]:
    """``bytes.translate`` arguments, per chord mask, that cut an order-n
    normalized word down to the mask's chords and relabel them by rank;
    ranks keep the order of first appearance, so the result is normalized."""
    out = []
    for mask in range(1 << n):
        kept = [ch for ch in range(n) if mask >> ch & 1]
        table = bytes(kept.index(ch) if ch in kept else 0 for ch in range(256))
        out.append((table, bytes(set(range(n)).difference(kept))))
    return tuple(out)


def _projection_bits(top: Sequence[int]) -> int:
    """Digit width B with 2^(B-1) above every coefficient of
    :func:`partition_log_full` on polynomials whose coefficients sum in
    absolute value to at most top[j] over masks of j chords.  That L1 norm
    is subadditive and submultiplicative, and the transform's value on a
    mask s subtracts from values[s] one product log[T] * values[s \\ T]
    per block T of t < j chords holding the least chord of s, so it is at
    most L_j = top[j] + sum_t C(j - 1, t - 1) L_t top[j - t]."""
    bound = [0] * len(top)
    for j in range(1, len(top)):
        terms = (comb(j - 1, t - 1) * bound[t] * top[j - t] for t in range(1, j))
        bound[j] = top[j] + sum(terms)
    return bound[-1].bit_length() + 1


def _balanced_digits(value: int, bits: int, count: int) -> list[int]:
    """The first ``count`` digits of value in base 2^bits, each in
    [-2^(bits-1), 2^(bits-1)), lowest first; raises ArithmeticError if any
    digit is left past them."""
    half = 1 << bits - 1
    low = (1 << bits) - 1
    out = []
    for _ in range(count):
        digit = ((value + half) & low) - half
        out.append(digit)
        value = (value - digit) >> bits
    if value:
        raise ArithmeticError(f"sl2 projection has degree above {count - 1}")
    return out


def _neg_half(total, what: str):
    """-total / 2 for an int or an integer array; odd entries raise.
    An int is tested without numpy, so the scalar routes never load it."""
    odd = total % 2 if isinstance(total, int) else np.any(total % 2)
    if odd:
        raise AssertionError(f"{what} must be even, got {total}")
    return -total // 2


def r_k_via_wc(d: ChordDiagram, k: int) -> int:
    """R_k recovered from the projected nondegeneracy indicator.

    The projected indicator equals -2 R_k on diagrams with 2k chords;
    the division by two is exact and asserted.
    """
    if d.n != 2 * k:
        raise ValueError(f"diagram must have exactly {2 * k} chords, has {d.n}")
    return r_k_graph(intersection_graph(d), k)


def r_k_graph_core(n: int, masks: int | np.ndarray) -> int | np.ndarray:
    """:func:`r_k_graph` on graphs of exactly n = 2k vertices, given as one
    int edge mask or an integer array of them: minus half the
    partition-projected nondegeneracy indicator, every induced subgraph's
    nondegeneracy read from :func:`pfaffian_parities`."""
    total = partition_log_full(pfaffian_parities(n, masks), n)
    return _neg_half(total, "projected indicator")


def r_k_graph(g: SimpleGraph, k: int) -> int:
    """Extension of R_k to arbitrary graphs.

    On 2k-vertex graphs this is minus half the partition-projected GF(2)
    nondegeneracy indicator, :func:`r_k_graph_core` of the edge mask; it
    agrees with R_k on intersection graphs and satisfies the graph
    4-term relation.  Other sizes go through convolution with the
    all-ones invariant, i.e. the 2k-vertex core summed over all induced
    subgraphs on 2k vertices.
    """
    if k < MIN_K:
        raise ValueError(f"k must be at least {MIN_K}")
    require_order("r_k_graph", g.n, MAX_DIAGRAM_ORDER)
    if g.n == 2 * k:
        return r_k_graph_core(g.n, g.edge_mask())
    subsets = itertools.combinations(range(g.n), 2 * k)
    return sum(r_k_graph(g.induced(vs), k) for vs in subsets)


# ---------------------------------------------------------------------------
# the two 6-vertex graphs that are not intersection graphs

FIVE_WHEEL = SimpleGraph.from_edges(
    6,
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 4), (4, 5), (5, 3), (3, 1)],
)

THREE_PRISM = SimpleGraph.from_edges(
    6,
    [(0, 2), (0, 3), (2, 3), (1, 4), (1, 5), (4, 5), (0, 1), (2, 4), (3, 5)],
)

# Each resolution rewrites the target through the graph 4-term relation at
# an ordered vertex pair; the other three terms are intersection graphs.
# The triples are the published signed-cycle values of those three terms.
WHEEL_PRISM_RESOLUTIONS = {
    "five-wheel": (
        FIVE_WHEEL,
        [((4, 5), (-1, -3, -1)), ((4, 0), (-1, -1, 1)), ((0, 4), (-1, -1, 1))],
        -3,
    ),
    "three-prism": (
        THREE_PRISM,
        [((0, 1), (1, -3, -1)), ((0, 3), (-1, -1, -1))],
        -1,
    ),
}

SL2_EXTENSION_EXPECTED = {
    "five-wheel": (
        IntPolynomial([0, -72, 176, -139, 50, -10, 1]),
        IntPolynomial([0, -72, 70, -6]),
    ),
    "three-prism": (
        IntPolynomial([0, -63, 146, -108, 40, -9, 1]),
        IntPolynomial([0, -63, 58, -2]),
    ),
}


def sl2_on_graph(g: SimpleGraph) -> IntPolynomial:
    """sl2 value through any realizing diagram (intersection graphs only)."""
    return _sl2_on_realized(realize_diagram(g))


def _sl2_on_realized(d: ChordDiagram | None) -> IntPolynomial:
    if d is None:
        raise ValueError("graph is not an intersection graph")
    return sl2_recursive(d)


class GraphExtensionReport(NamedTuple):
    name: str
    values: tuple[IntPolynomial, ...]
    consistent: bool
    value: IntPolynomial
    primitive: IntPolynomial
    rk: int
    component_rk_ok: bool
    matches_expected: bool


def sl2_graph_extension_check() -> list[GraphExtensionReport]:
    """Extend sl2 to the five-wheel and the three-prism and verify it.

    Each 4-term resolution of a target graph determines a candidate
    value from three intersection graphs; all resolutions must agree,
    match the expected polynomials, and the coefficient of c^3 in the
    primitive part must be twice the graph extension of the signed
    cycle count.
    """
    # each realization looks up the graph's n! relabelings: one per
    # distinct graph (edge mask) of the check
    realize = lru_cache(maxsize=None)(realize_diagram)
    sl2_on = lambda g: _sl2_on_realized(realize(g))
    reports = []
    for name, (target, resolutions, expected_rk) in WHEEL_PRISM_RESOLUTIONS.items():
        values = []
        component_ok = True
        for (a, b), triple in resolutions:
            _, *masks = graph_four_term_masks(target.n, target.edge_mask(), a, b)
            g2, g3, g4 = (SimpleGraph.from_edge_mask(target.n, m) for m in masks)
            values.append(sl2_on(g2) + sl2_on(g3) - sl2_on(g4))
            got = tuple(r_k(realize(h), 3) for h in (g2, g3, g4))
            if got != triple:
                component_ok = False
        consistent = all(v == values[0] for v in values)
        value = values[0]
        # primitive part through the graph coproduct: proper induced
        # subgraphs are all intersection graphs, the full block is the
        # extension value just computed
        n = target.n
        subset_values = [None] + [
            sl2_on(target.induced([u for u in range(n) if mask >> u & 1]))
            for mask in range(1, (1 << n) - 1)
        ] + [value]
        primitive = partition_log_full(subset_values, n)
        rk = r_k_graph(target, 3)
        exp_value, exp_prim = SL2_EXTENSION_EXPECTED[name]
        matches = (
            consistent
            and value == exp_value
            and primitive == exp_prim
            and rk == expected_rk
            and primitive.coefficient(3) == 2 * rk
        )
        reports.append(
            GraphExtensionReport(
                name=name,
                values=tuple(values),
                consistent=consistent,
                value=value,
                primitive=primitive,
                rk=rk,
                component_rk_ok=component_ok,
                matches_expected=matches,
            )
        )
    return reports
