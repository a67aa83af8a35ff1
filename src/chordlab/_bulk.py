"""Batched Hamiltonian-cycle sums over many small graphs at once.

Used by the verification harness for sampled suites at order 2k and the
el-parity table at l = n, on batches its callers bound (1,024 words a
diagram window, 2,048 masks a graph chunk).  Signed path counts, at most
(n-1)! < 2^31 for n <= 13, are pulled level by level in int32.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from ._np import np


def hamiltonian_cycle_sums(wmats: np.ndarray) -> np.ndarray:
    """Sum of edge-weight products over undirected Hamiltonian cycles.

    wmats has shape (B, n, n), n <= 13; entry [g, u, v] is the weight of the
    step u -> v in graph g: -1, 0 (a non-edge) or 1, else ValueError.  With
    antisymmetric +-1 weights this is twice the signed cycle count; with 0/1
    adjacency it is twice the plain count.  Returns int64 of shape (B,),
    halved.  The pull form of :func:`invariants._signed_hamiltonian_sum`.

    From n = 3 on, a cycle enters and leaves each vertex through two
    distinct neighbours, so a graph with a vertex that has fewer than two
    (a nonzero step either way, the diagonal aside) reads 0 and only the
    other graphs run the DP in one pass: the caller bounds the batch.
    """
    wmats = np.asarray(wmats)
    n = wmats.shape[-1]
    least, most = (wmats.min(), wmats.max()) if wmats.size else (0, 0)
    if n > 13 or wmats.dtype.kind not in "biu" or not -1 <= least <= most <= 1:
        raise ValueError(f"Hamiltonian DP needs n <= 13 and weights -1, 0, 1; n = {n}")
    live = np.arange(len(wmats))
    if n >= 3:
        steps = wmats != 0
        touch = (steps | steps.transpose(0, 2, 1)) & ~np.eye(n, dtype=bool)
        live = np.flatnonzero(touch.sum(axis=2).min(axis=1) >= 2)
    out = np.zeros(len(wmats), dtype=np.int64)
    if len(live):
        out[live] = _chunk_sums(wmats[live], n)
    return out


@lru_cache(maxsize=None)
def _plan(n: int) -> list:
    """Per level of the DP, built on first use: (T, u) pulls from the L
    states (T - u, v) below, or from the start ({0}, 0) when T = {u}, by
    (targets, L) source and weight rows; a last state closes each cycle."""
    index, levels = {((0,), 0): 0}, []
    for size in range(1, n):
        targets, sources, weights = {}, [], []
        for members in combinations(range(1, n), size):
            for u in members:
                targets[members, u] = len(targets)
                rest = tuple(v for v in members if v != u) or (0,)
                sources.append([index[rest, v] for v in rest])
                weights.append([v * n + u for v in rest])
        levels.append((np.array(sources), np.array(weights)))
        index = targets
    return levels + [(np.arange(n - 1)[None], np.arange(1, n)[None] * n)]


def _chunk_sums(chunk: np.ndarray, n: int) -> np.ndarray:
    # (n * n, B): the weight of step u -> v in row u * n + v
    w = np.ascontiguousarray(chunk.reshape(len(chunk), n * n).T, dtype=np.int32)
    # one buffer for every level, so none allocates ("clip": indices in range)
    buf = np.empty((4, max(len(s) for s, _ in _plan(n)), len(chunk)), np.int32)
    paths = np.ones((1, len(chunk)), np.int32)
    for k, (sources, weights) in enumerate(_plan(n)):
        nxt, tmp, wt = (buf[i, : len(sources)] for i in ((k + 1) % 2, 2, 3))
        nxt[:] = 0
        for src, wrow in zip(sources.T, weights.T):
            np.take(paths, src, axis=0, out=tmp, mode="clip")
            nxt += np.multiply(tmp, np.take(w, wrow, axis=0, out=wt, mode="clip"), tmp)
        paths = nxt
    if (paths[0] & 1).any():
        raise AssertionError("cycle sum must be even (two traversals each)")
    return paths[0] >> 1
