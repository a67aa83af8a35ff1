"""The two graph moves of the 4-term relation on SimpleGraph bit rows.

Independent references for the edge-mask moves ``graphs.prime_mask`` and
``graphs.tilde_mask``, which the library builds its 4-term and 2-term
terms on; the tests compare the two forms.
"""

from chordlab.graphs import GraphError, SimpleGraph


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
