"""The partition-lattice log transform, by subset convolution."""

from __future__ import annotations

from typing import Sequence


def partition_log_full(values: Sequence, n: int):
    """Weighted partition sum over the full set, by subset convolution.

    Given ``values[mask]`` for every nonempty subset mask of range(n),
    returns sum over partitions P of range(n) of
    ``(-1)**(len(P) - 1) * (len(P) - 1)! * prod(values[block] for block in P)``.

    This is the Moebius/log transform on the partition lattice, computed
    with the recursion on the block containing the minimum element.  The
    full set's value reads only sets holding element 0 (the blocks that
    contain it, and theirs in turn), so only those are computed: fewer
    than 3^(n-1) ring products instead of a sum over all partitions.

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
    # the sets holding element 0: the odd masks
    for s in range(1, size, 2):
        rest = s ^ 1
        acc = values[s]
        # peel off the block containing element 0:
        # values[s] = sum over blocks T (0 in T) of log[T] * values[s \ T]
        t = rest
        while True:
            t = (t - 1) & rest
            if t == rest:  # wrapped around (only when rest == 0)
                break
            block = 1 | t
            acc = acc - log[block] * values[s ^ block]
            if t == 0:
                break
        log[s] = acc
    return log[size - 1]
