"""Simple graphs, intersection graphs, cycles, GF(2) rank, and the
edge-mask moves that make the terms of the graph relations.

Adjacency is kept as machine-word bit rows, so edge toggles and GF(2)
elimination are single-word operations at the n <= 16 scale this
library targets.  The intersection graph directed by chord orientations
is one antisymmetric +-1 step-weight matrix, :func:`sign_matrix`, and a
cycle's sign is the product of its step weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ._np import np
from .diagrams import (
    MAX_DIAGRAM_ORDER,
    MAX_GRAPH_ORDER,
    ChordDiagram,
    enumerate_diagrams,
    require_order,
)


class GraphError(ValueError):
    """Raised for malformed graph input or invalid vertex arguments."""


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1 with bit-row adjacency."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise GraphError("adjacency must have one row per vertex")
        for u, row in enumerate(self.rows):
            if row >> self.n:
                raise GraphError("adjacency bits outside vertex range")
            if row >> u & 1:
                raise GraphError("loops are not allowed")
            for v in range(self.n):
                if (row >> v & 1) != (self.rows[v] >> u & 1):
                    raise GraphError("adjacency must be symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"bad edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return SimpleGraph(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return bin(self.rows[u]).count("1")

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.rows[u] >> v & 1
        ]

    def edge_mask(self) -> int:
        """Edges packed into one int, bit index from :func:`pair_index_table`."""
        return rows_edge_mask(self.rows)

    @staticmethod
    def from_edge_mask(n: int, mask: int) -> "SimpleGraph":
        ptab = pair_index_table(n)
        return SimpleGraph.from_edges(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if mask >> ptab[u][v] & 1],
        )

    def induced(self, vertices: Sequence[int]) -> "SimpleGraph":
        """Subgraph induced on the given vertices (relabeled in order)."""
        vs = list(vertices)
        rows = [0] * len(vs)
        for i, u in enumerate(vs):
            for j, v in enumerate(vs):
                if i != j and self.rows[u] >> v & 1:
                    rows[i] |= 1 << j
        return SimpleGraph(len(vs), tuple(rows))

    def __str__(self) -> str:
        return format_graph(self)


def parse_graph(text: str) -> SimpleGraph:
    """Parse either adjacency-matrix text or an edge list.

    Matrix form: first line the vertex count, then n rows of '0'/'1'.
    Edge list: "1-2,3-4" (1-based integers) or "A-B,C-D" (letters);
    the vertex set is 1..max (or A..max letter), so isolated trailing
    vertices can be included by mentioning them in any edge.
    """
    s = text.strip()
    if not s:
        raise GraphError("empty graph text")
    if "\n" in s or s.isdigit():
        lines = [ln.strip() for ln in s.splitlines() if ln.strip()]
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise GraphError(f"bad vertex count: {lines[0]!r}") from exc
        if len(lines) != n + 1:
            raise GraphError(f"expected {n} adjacency rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            if len(ln) != n or set(ln) - {"0", "1"}:
                raise GraphError(f"bad adjacency row: {ln!r}")
            rows.append(sum(1 << v for v, b in enumerate(ln) if b == "1"))
        return SimpleGraph(n, tuple(rows))
    edges = []
    top = 0
    for item in s.split(","):
        item = item.strip()
        halves = item.split("-")
        if len(halves) != 2:
            raise GraphError(f"bad edge: {item!r}")
        uv = []
        for h in halves:
            h = h.strip()
            if h.isdigit():
                v = int(h) - 1
            elif len(h) == 1 and h.isalpha():
                v = ord(h.upper()) - ord("A")
            else:
                raise GraphError(f"bad vertex name: {h!r}")
            if v < 0:
                raise GraphError(f"bad vertex name: {h!r}")
            uv.append(v)
        if uv[0] == uv[1]:
            raise GraphError(f"loop edge: {item!r}")
        top = max(top, uv[0] + 1, uv[1] + 1)
        edges.append((uv[0], uv[1]))
    return SimpleGraph.from_edges(top, edges)


def format_graph(g: SimpleGraph) -> str:
    """Emit the adjacency-matrix text form (bit rows)."""
    lines = [str(g.n)]
    for u in range(g.n):
        lines.append("".join("1" if g.rows[u] >> v & 1 else "0" for v in range(g.n)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# intersection graphs and chord orientations


def interleave_rows(word: Sequence[int]) -> tuple[int, ...]:
    """Adjacency bit rows of the interleaving relation of a word's chords,
    found in one scan; chord labels must be 0..n-1, in any order.

    ``live`` holds the chords with one end read so far.  Chord c crosses
    exactly the chords with one end strictly between its two ends, so
    its row is ``live`` when c opens xor ``live`` after c closes: the
    chords read once in between.
    """
    rows = [0] * (len(word) // 2)
    live = 0
    for ch in word:
        bit = 1 << ch
        if live & bit:
            live ^= bit
            rows[ch] ^= live
        else:
            rows[ch] = live
            live |= bit
    return tuple(rows)


def hamiltonian_ruled_out(rows: Sequence[int]) -> bool:
    """Whether the degrees alone rule out a Hamiltonian cycle of the
    graph with these adjacency bit rows (no diagonal bits).

    From n = 3 on, a cycle enters and leaves each vertex through two
    distinct neighbours, so a vertex with fewer than two lies on none.
    """
    return len(rows) >= 3 and any(r.bit_count() < 2 for r in rows)


def intersection_graph(d: ChordDiagram) -> SimpleGraph:
    """Graph on the chords with edges between interleaving chords."""
    return SimpleGraph(d.n, interleave_rows(d.word))


def sign_matrix(d: ChordDiagram, flip_mask: int = 0) -> list[list[int]]:
    """Step-weight matrix of the directed intersection graph, the scalar
    twin of :func:`chordlab.verify.dense_sign_matrix`: [u][v] is +1 for an
    arrow u -> v, -1 for v -> u and 0 off the edges.

    Each chord begins at its first endpoint after the basepoint; set bit
    c of flip_mask to reverse chord c.  Chord a points to chord b iff b's
    begin lies on the counterclockwise arc from a's begin to a's end.
    """
    pairs = d.chord_positions()
    rows = interleave_rows(d.word)
    m, n = len(d.word), d.n
    begins = [j if flip_mask >> c & 1 else i for c, (i, j) in enumerate(pairs)]
    w = [[0] * n for _ in range(n)]
    for a, ba in enumerate(begins):
        arc = (sum(pairs[a]) - 2 * ba) % m
        for b in range(a + 1, n):
            if rows[a] >> b & 1:
                s = 1 if (begins[b] - ba) % m < arc else -1
                w[a][b], w[b][a] = s, -s
    return w


# ---------------------------------------------------------------------------
# cycles


def enumerate_cycles(g: SimpleGraph, length: int) -> list[tuple[int, ...]]:
    """All simple cycles on `length` distinct vertices, once each.

    Cycles are returned in canonical form: anchored at their minimal
    vertex, direction fixed so the second vertex is smaller than the
    last.  Search explores only vertices above the anchor, so every
    cycle is generated from exactly one root and one direction survives.
    """
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    n = g.n
    out: list[tuple[int, ...]] = []
    path = [0] * length
    def dfs(root: int, v: int, depth: int, visited: int):
        if depth == length:
            if g.rows[v] >> root & 1 and path[1] < path[length - 1]:
                out.append(tuple(path))
            return
        nbrs = g.rows[v] & ~visited
        while nbrs:
            low = nbrs & (-nbrs)
            nbrs ^= low
            u = low.bit_length() - 1
            if u > root:
                path[depth] = u
                dfs(root, u, depth + 1, visited | low)
    for root in range(n):
        path[0] = root
        dfs(root, root, 1, 1 << root)
    out.sort()
    return out


def cycle_sign(w: Sequence[Sequence[int]], cycle: Sequence[int]) -> int:
    """Product of the step weights of w around an even cycle: +1 iff an
    even number of its arrows point either way around.

    Reversing the traversal negates every step weight of an antisymmetric
    w, so even length keeps the sign independent of the direction.
    """
    if len(cycle) % 2 != 0:
        raise ValueError("cycle sign is defined for even length only")
    sign = 1
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if not w[u][v]:
            raise GraphError(f"cycle edge {u}-{v} missing from graph")
        sign *= w[u][v]
    return sign


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def gf2_rank(rows: Sequence[int], n_cols: int) -> int:
    """Rank over GF(2) via bit-row Gaussian elimination."""
    work = list(rows)
    rank = 0
    row_idx = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row_idx, len(work)):
            if work[r] >> col & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and work[r] >> col & 1:
                work[r] ^= work[row_idx]
        rank += 1
        row_idx += 1
        if row_idx == len(work):
            break
    return rank


def pfaffian_parities(n: int, masks: int | np.ndarray) -> list:
    """The 2^n rows pf[S], ints for one int edge mask and arrays for an
    integer array of them: pf[S] is 1 where the subgraph that S induces is
    nondegenerate over GF(2), which for an alternating matrix means that
    its Pfaffian, the parity of its perfect matchings, is odd.  So
    pf[{}] = 1, odd S read 0 and pf[S] = XOR over v in S of
    edge(low, v) AND pf[S-low-v], low the least vertex of S; the largest
    |S| with pf[S] = 1 is the rank.  An int stays numpy-free.
    """
    ptab = pair_index_table(n)
    edge = [masks >> i & 1 for i in range(n * (n - 1) // 2)]
    zero = masks & 0
    # entries are replaced, never updated in place: the rows share zero
    pf = [zero + 1] + [zero] * ((1 << n) - 1)
    for s in range(3, 1 << n):
        low = (s & -s).bit_length() - 1
        if s.bit_count() % 2 == 0:
            for v in range(low + 1, n):
                if s >> v & 1:
                    pf[s] = pf[s] ^ edge[ptab[low][v]] & pf[s ^ 1 << low ^ 1 << v]
    return pf


# ---------------------------------------------------------------------------
# enumeration, isomorphism, realizability


def enumerate_graphs(n: int, mode: str = "labeled") -> Iterator[SimpleGraph]:
    """Yield graphs on n vertices.

    mode="labeled" gives all 2^(n(n-1)/2) graphs in edge-mask order;
    mode="up-to-iso" gives the minimum-edge-mask representative of each
    isomorphism class, found by orbit marking over all n! relabelings.
    Raises ValueError above :data:`~chordlab.diagrams.MAX_GRAPH_ORDER`
    labeled, :data:`~chordlab.diagrams.MAX_DIAGRAM_ORDER` up to iso.
    """
    if mode not in ("labeled", "up-to-iso"):
        raise ValueError(f"enumerate_graphs: unknown mode {mode!r}")
    # labeled mode is kept at 6 so a sorted listing stays in memory
    ceiling = MAX_GRAPH_ORDER if mode == "labeled" else MAX_DIAGRAM_ORDER
    require_order("enumerate_graphs", n, ceiling)
    npairs = n * (n - 1) // 2
    if mode == "labeled":
        for mask in range(1 << npairs):
            yield SimpleGraph.from_edge_mask(n, mask)
        return
    seen = bytearray(1 << npairs)
    for mask in range(1 << npairs):
        if seen[mask]:
            continue
        yield SimpleGraph.from_edge_mask(n, mask)
        for img in _orbit_masks(n, mask):
            seen[img] = 1


def rows_edge_mask(rows: Sequence[int]) -> int:
    """The edge mask of bit-row adjacency, bit index from
    :func:`pair_index_table`: that table numbers the pairs (u, v), u < v,
    row by row, so row u's bits above u move as one shift."""
    n = len(rows)
    ptab = pair_index_table(n)
    return sum(row >> u + 1 << ptab[u][u + 1] for u, row in enumerate(rows[:-1]))


@lru_cache(maxsize=None)
def pair_index_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Table [u][v] -> bit position of the pair in an edge mask."""
    table = [[0] * n for _ in range(n)]
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            table[u][v] = table[v][u] = k
            k += 1
    return tuple(tuple(row) for row in table)


def prime_mask(n: int, masks: int | np.ndarray, a: int, b: int) -> int | np.ndarray:
    """Toggle the a-b adjacency in one int edge mask, or in every mask of
    an int64 array; GraphError unless a and b are distinct vertices."""
    _require_pair(n, a, b)
    return masks ^ (1 << pair_index_table(n)[a][b])


def tilde_mask(n: int, masks: int | np.ndarray, a: int, b: int) -> int | np.ndarray:
    """Toggle a's adjacency with every neighbor of b other than a, in one
    int edge mask or in every mask of an int64 array.  The a-b edge
    itself is untouched; the result depends on the order of (a, b).
    GraphError unless a and b are distinct vertices."""
    _require_pair(n, a, b)
    ptab = pair_index_table(n)
    flip = masks & 0
    for c in range(n):
        if c != a and c != b:
            flip |= (masks >> ptab[b][c] & 1) << ptab[a][c]
    return masks ^ flip


def graph_four_term_masks(n: int, masks: int | np.ndarray, a: int, b: int) -> tuple:
    """The terms (g, g', g~, g~') of the graph 4-term relation at the
    ordered vertex pair (a, b), for one int edge mask or every mask of an
    int64 array: g' toggles the a-b edge, g~ toggles a's adjacency with
    every other neighbor of b."""
    tilde = tilde_mask(n, masks, a, b)
    return masks, prime_mask(n, masks, a, b), tilde, prime_mask(n, tilde, a, b)


def _require_pair(n: int, a: int, b: int) -> None:
    # a negative vertex would wrap around in pair_index_table's rows
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise GraphError(f"need distinct vertices in 0..{n - 1}, got {a} and {b}")


@lru_cache(maxsize=None)
def _pair_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex permutation, the induced map on pair indices."""
    ptab = pair_index_table(n)
    maps = []
    for perm in itertools.permutations(range(n)):
        pmap = [0] * (n * (n - 1) // 2)
        for u in range(n):
            for v in range(u + 1, n):
                pmap[ptab[u][v]] = ptab[perm[u]][perm[v]]
        maps.append(tuple(pmap))
    return tuple(maps)


def graph_canonical_mask(g: SimpleGraph) -> int:
    """Minimum edge mask over all vertex relabelings (n <= 8)."""
    if g.n > 8:
        raise GraphError("brute-force canonical labeling is capped at 8 vertices")
    return min(_orbit_masks(g.n, g.edge_mask()))


def _orbit_masks(n: int, mask: int) -> list[int]:
    """Edge masks of the graph under each of the n! vertex relabelings."""
    out = []
    for pmap in _pair_permutations(n):
        img = 0
        rest = mask
        while rest:
            low = rest & (-rest)
            rest ^= low
            img |= 1 << pmap[low.bit_length() - 1]
        out.append(img)
    return out


@lru_cache(maxsize=None)
def _realization_by_mask(n: int) -> dict[int, tuple[int, ChordDiagram]]:
    """Map the plain intersection-graph edge mask of every order-n diagram
    class -> (index of its first class in enumeration order, that class's
    representative)."""
    out: dict[int, tuple[int, ChordDiagram]] = {}
    for idx, d in enumerate(enumerate_diagrams(n, "up-to-rotation")):
        out.setdefault(rows_edge_mask(interleave_rows(d.word)), (idx, d))
    return out


def realize_diagram(g: SimpleGraph) -> ChordDiagram | None:
    """A chord diagram whose intersection graph is isomorphic to g, or None.

    The first diagram class, in sorted canonical-code order, whose
    intersection graph lies in the relabeling orbit of g; capped at
    n <= 7.  The classes of each order are tabled once, by edge mask,
    from the orderly ``enumerate_diagrams(n, "up-to-rotation")``, which
    keys no word; each call then looks up g's n! relabelings.
    """
    if g.n > 7:
        raise GraphError("realizability search is capped at 7 vertices")
    table = _realization_by_mask(g.n)
    hits = [table[m] for m in set(_orbit_masks(g.n, g.edge_mask())) if m in table]
    return min(hits)[1] if hits else None

