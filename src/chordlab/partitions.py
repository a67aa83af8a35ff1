"""Set partitions and the partition-lattice log transform.

Partitions of range(n) are enumerated through restricted-growth strings,
so iteration order is canonical and blocks are ordered by first element.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Sequence


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


def partition_log_full(values: Sequence, n: int):
    """Weighted partition sum over the full set, by subset convolution.

    Given ``values[mask]`` for every nonempty subset mask of range(n),
    returns sum over partitions P of range(n) of
    ``partition_weight(len(P)) * prod(values[block] for block in P)``.

    This is the Moebius/log transform on the partition lattice, computed
    with the recursion on the block containing the minimum element; cost
    is O(3^n) ring operations instead of a sum over all partitions.

    Any ring works, including numpy integer arrays with a batch axis
    (one partition sum per lane, one call per batch).  Array arithmetic
    wraps silently, so the caller must keep every partial sum inside the
    dtype.  With all |values[mask]| <= 1 no partial sum exceeds
    2 * sum_j S(n, j) (j-1)! in absolute value (S the Stirling numbers of
    the second kind): 2164 at n = 6, so int32 is exact up to n = 11.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    size = 1 << n
    log: list = [None] * size
    for s in range(1, size):
        low = s & (-s)
        rest = s ^ low
        acc = values[s]
        # peel off the block containing the minimum element:
        # values[s] = sum over blocks T (low in T) of log[T] * values[s \ T]
        t = rest
        while True:
            t = (t - 1) & rest
            if t == rest:  # wrapped around (only when rest == 0)
                break
            block = low | t
            acc = acc - log[block] * values[s ^ block]
            if t == 0:
                break
        log[s] = acc
    return log[size - 1]
