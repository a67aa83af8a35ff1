"""Brute-force references that the tests compare the library against.

``set_partitions`` and ``partition_weight`` spell out the sum that
``partitions.partition_log_full`` computes by subset convolution;
``project_primitive_value`` is the ring-generic projection route behind
``invariants.sl2_projected_batch``; ``conjecture_check`` states the
paper's coefficient identity for one diagram.  ``interleave_rows`` and
``find_shares`` are the pairwise crossing test and the per-position
share scan that the bitmask kernels of ``graphs`` and ``diagrams``
replaced, and ``find_shares_by_runs`` is the run arithmetic on one
position mask per subset that the share table behind
``diagrams.share_moves`` replaced.  ``rotated``, ``induced_subdiagram``
and ``diagram_product`` are the diagram constructions the tests build
their cases with.
``rotation_representatives`` finds the rotation classes by keying every
basepointed word, the enumeration the orderly generator behind
``diagrams.enumerate_diagrams(n, "up-to-rotation")`` replaced.
``edge_mask`` packs a graph's edges pair by pair, and
``realization_by_mask`` tables the classes by the masks of their
validated intersection graphs, the routes ``graphs.rows_edge_mask``
replaced.  ``four_term_words`` builds the four words of a diagram
4-term instance by slicing, the move that the cached index maps of
``fourterm._four_term_moves`` replaced.  ``four_term_report`` makes one
check per (basepointed word, position), the walk that the orbit-weighted
rotation classes of ``fourterm.diagram_source`` replaced.
``sampled_items`` draws a sampled run one tuple item at a time, through
``random_diagram`` and ``rng.choice``, the draws that the int8 windows
of the sampled ``fourterm.diagram_source`` replaced.
"""

from __future__ import annotations

import itertools
import random
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from chordlab.diagrams import (
    ChordDiagram,
    DiagramError,
    Share,
    _normalize,
    canonical_word_bytes,
    enumerate_diagrams,
    random_diagram,
    word_positions,
)
from chordlab.fourterm import DEFAULT_SIGNS, VerificationReport, neighbor_positions
from chordlab.graphs import SimpleGraph, intersection_graph, pair_index_table
from chordlab.invariants import r_k, sl2_projected
from chordlab.partitions import partition_log_full


def rotated(d: ChordDiagram, r: int) -> ChordDiagram:
    """Diagram with the basepoint moved r positions counterclockwise."""
    m = len(d.word)
    if m == 0:
        return d
    r %= m
    return ChordDiagram(d.word[r:] + d.word[:r])


def induced_subdiagram(d: ChordDiagram, chords: Iterable[int]) -> ChordDiagram:
    """Delete all endpoints of chords outside the subset, keeping order."""
    keep = set(chords)
    extra = keep.difference(range(d.n))
    if extra:
        raise DiagramError(f"unknown chords: {sorted(extra)}")
    return ChordDiagram(ch for ch in d.word if ch in keep)


def diagram_product(d1: ChordDiagram, d2: ChordDiagram) -> ChordDiagram:
    """Concatenation product: the factors occupy disjoint arcs."""
    shift = d1.n
    return ChordDiagram(d1.word + tuple(ch + shift for ch in d2.word))


def rotation_representatives(n: int) -> list[ChordDiagram]:
    """One diagram per rotation class of order n, in sorted canonical-code
    order: the distinct keys of every basepointed word, each parsed back."""
    codes = {canonical_word_bytes(d.word) for d in enumerate_diagrams(n)}
    return [ChordDiagram(code) for code in sorted(codes)]


def set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield all partitions of range(n) into nonempty blocks.

    Each partition is a tuple of blocks; block order and iteration order
    follow the restricted-growth-string encoding.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(i)
        yield tuple(tuple(b) for b in blocks)
        # advance the restricted-growth string
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


def partition_weight(num_blocks: int) -> int:
    """Alternating-factorial weight (-1)^(k-1) * (k-1)! for k blocks."""
    return (-1) ** (num_blocks - 1) * factorial(num_blocks - 1)


def project_primitive_value(d: ChordDiagram, f: Callable[[ChordDiagram], object]):
    """Value of a multiplicative invariant on the primitive part of d.

    Computes sum over set partitions of the chords of
    (-1)^(blocks-1) (blocks-1)! prod f(induced subdiagram per block),
    which equals f applied to the projection of d onto primitive
    elements whenever f is multiplicative over disjoint products.
    """
    n = d.n
    if n == 0:
        return f(d)
    values: list = [None] * (1 << n)
    for mask in range(1, 1 << n):
        chords = [c for c in range(n) if mask >> c & 1]
        values[mask] = f(induced_subdiagram(d, chords))
    return partition_log_full(values, n)


class ConjectureResult(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def conjecture_check(d: ChordDiagram, k: int) -> ConjectureResult:
    """Compare the coefficient of c^k in the projected sl2 value with 2 R_k."""
    if d.n != 2 * k:
        raise ValueError(f"diagram must have exactly {2 * k} chords, has {d.n}")
    lhs = sl2_projected(d).coefficient(k)
    rhs = 2 * r_k(d, k)
    return ConjectureResult(lhs, rhs, lhs == rhs)


def interleave_rows(word) -> tuple[int, ...]:
    """Adjacency bit rows of the interleaving relation, chord pair by
    chord pair: b crosses a iff exactly one end of b lies between a's."""
    pairs = word_positions(word)
    n = len(pairs)
    rows = [0] * n
    for a in range(n):
        a1, a2 = pairs[a]
        for b in range(a + 1, n):
            b1, b2 = pairs[b]
            if (a1 < b1 < a2) != (a1 < b2 < a2):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return tuple(rows)


def find_shares(d: ChordDiagram) -> list[Share]:
    """Every chord subset whose endpoint positions form at most two
    circular runs, in increasing mask order, found by scanning a list of
    covered positions."""
    m = len(d.word)
    n = d.n
    pairs = d.chord_positions()
    shares = []
    for mask in range(1 << n):
        in_set = [False] * m
        for ch in range(n):
            if mask >> ch & 1:
                i, j = pairs[ch]
                in_set[i] = in_set[j] = True
        starts = [p for p in range(m) if in_set[p] and not in_set[p - 1]]
        if len(starts) > 2:
            continue
        k = 2 * bin(mask).count("1")
        if not starts:
            arcs = ((0, 0), (0, 0)) if k == 0 else ((0, m), (0, 0))
        elif len(starts) == 1:
            s = starts[0]
            arcs = ((s, k), ((s + k) % m, 0))
        else:
            s1, s2 = starts
            arcs = ((s1, _run_length(in_set, s1)), (s2, _run_length(in_set, s2)))
        chords = frozenset(ch for ch in range(n) if mask >> ch & 1)
        shares.append(Share(arcs=arcs, chords=chords))
    return shares


def find_shares_by_runs(d: ChordDiagram) -> list[Share]:
    """Every chord subset whose endpoint positions form at most two
    circular runs, in increasing mask order: a subset's positions are one
    bit mask, its lowest chord's ends or'ed into the mask of the rest,
    and a run starts at each position whose cyclic predecessor is outside
    the mask."""
    m = len(d.word)
    n = d.n
    ends = [0] * n
    for p, ch in enumerate(d.word):
        ends[ch] |= 1 << p
    full = (1 << m) - 1
    covered = [0] * (1 << n)
    shares = []
    for mask in range(1 << n):
        if mask:
            low = mask & -mask
            covered[mask] = covered[mask ^ low] | ends[low.bit_length() - 1]
        pm = covered[mask]
        if pm == 0 or pm == full:
            # the empty subset, or every position covered (one full run)
            arcs = ((0, pm.bit_count()), (0, 0))
        else:
            starts = pm & ~(pm << 1 | pm >> (m - 1))
            if starts.bit_count() > 2:
                continue
            k = pm.bit_count()
            s1 = (starts & -starts).bit_length() - 1
            if starts == 1 << s1:
                arcs = ((s1, k), ((s1 + k) % m, 0))
            else:
                # the first run cannot wrap: it ends before the second starts
                run = pm >> s1
                l1 = (~run & (run + 1)).bit_length() - 1
                arcs = ((s1, l1), (starts.bit_length() - 1, k - l1))
        chords = frozenset(ch for ch in range(n) if mask >> ch & 1)
        shares.append(Share(arcs=arcs, chords=chords))
    return shares


def _run_length(in_set: list[bool], start: int) -> int:
    m = len(in_set)
    k = 0
    while k < m and in_set[(start + k) % m]:
        k += 1
    return k


def edge_mask(g: SimpleGraph) -> int:
    """One bit per edge (u, v), at the pair's index in pair_index_table."""
    ptab = pair_index_table(g.n)
    return sum(1 << ptab[u][v] for u, v in g.edges())


def realization_by_mask(n: int) -> dict:
    """Edge mask of each order-n class's validated intersection graph ->
    (index of the first class with that mask, its representative)."""
    out: dict = {}
    for idx, d in enumerate(enumerate_diagrams(n, "up-to-rotation")):
        out.setdefault(edge_mask(intersection_graph(d)), (idx, d))
    return out


def four_term_words(word, p: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The four words of the diagram 4-term instance at positions p,
    p+1 (cyclic), chord ids preserved: the word, the two neighboring
    ends swapped, and the end at p+1 re-homed to just before / just
    after the other end of the chord at p."""
    word = tuple(word)
    m = len(word)
    p %= m
    p1 = (p + 1) % m
    a_ch, b_ch = word[p], word[p1]
    if a_ch == b_ch:
        raise DiagramError("positions p and p+1 must belong to distinct chords")
    swapped = list(word)
    swapped[p], swapped[p1] = swapped[p1], swapped[p]
    i = word.index(a_ch)
    j = word.index(a_ch, i + 1)
    q = j if p == i else i
    base = word[:p1] + word[p1 + 1 :]
    q_idx = q - 1 if p1 < q else q
    before = base[:q_idx] + (b_ch,) + base[q_idx:]
    after = base[: q_idx + 1] + (b_ch,) + base[q_idx + 1 :]
    return word, tuple(swapped), before, after


def four_term_report(
    f: Callable[[ChordDiagram], object],
    order: int,
    invariant: str = "f",
    signs: tuple[int, int, int, int] = DEFAULT_SIGNS,
) -> VerificationReport:
    """The diagram 4-term report of f with one check per (basepointed
    word, neighboring-end position) of the order: the terms sliced by
    :func:`four_term_words`, f read on each term's diagram and each
    violation recorded with its terms' canonical codes.  Values and codes
    are memoized by a term's normalized word, which fixes its diagram."""
    normalized: dict = {}
    values: dict = {}
    codes: dict = {}
    report = VerificationReport(invariant=invariant, order=order)
    for d in enumerate_diagrams(order, "basepointed"):
        for p in neighbor_positions(d):
            words = []
            for w in four_term_words(d.word, p):
                if w not in normalized:
                    normalized[w] = _normalize(w)
                words.append(w := normalized[w])
                if w not in values:
                    values[w] = f(ChordDiagram(w))
                    codes[w] = canonical_word_bytes(w).decode("ascii")
            report.checked += 1
            if total := sum(s * values[w] for w, s in zip(words, signs)):
                report.add_violation([codes[w] for w in words], total)
    return report.finalize()


def sampled_items(
    order: int,
    sample: int,
    seed: int,
    shard: tuple[int, int] | None = None,
    four_term: bool = False,
) -> list[tuple[tuple, int]]:
    """The (item, weight) pairs of a sampled diagram run: ``sample``
    draws of :func:`random_diagram` from ``random.Random(seed)``, each
    item ``(word,)`` or, with ``four_term``, the :func:`four_term_words`
    at a neighboring-end position drawn by ``rng.choice`` right after its
    diagram; every draw is made, and ``shard=(index, count)`` keeps the
    draws at indexes i with i % count == index.  Each weighs 1."""
    rng = random.Random(seed)
    items = []
    for _ in range(sample):
        d = random_diagram(order, rng)
        if four_term:
            items.append(four_term_words(d.word, rng.choice(neighbor_positions(d))))
        else:
            items.append((d.word,))
    index, count = shard or (0, 1)
    return [(item, 1) for item in itertools.islice(items, index, None, count)]
