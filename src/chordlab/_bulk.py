"""Batched Hamiltonian-cycle sums over many small graphs at once.

Used by the verification harness for order-8 sampled suites, where a
per-graph Python DP would dominate the runtime.  Signed path counts fit
easily in int64 (they are bounded by (n-1)!).
"""

from __future__ import annotations

from ._np import np

# graphs per DP pass, so no int64 copy of the whole batch is made
_CHUNK = 4096


def hamiltonian_cycle_sums(wmats: np.ndarray) -> np.ndarray:
    """Sum of edge-weight products over undirected Hamiltonian cycles.

    wmats has shape (B, n, n); entry [g, u, v] is the weight of the step
    u -> v in graph g (0 for a non-edge).  With antisymmetric +-1
    weights this is twice the signed cycle count; with 0/1 adjacency it
    is twice the plain count.  Returns int64 of shape (B,), halved.

    Batch form of the DP in :func:`chordlab.invariants._signed_hamiltonian_sum`.
    """
    wmats = np.asarray(wmats)
    out = np.empty(len(wmats), dtype=np.int64)
    for lo in range(0, len(wmats), _CHUNK):
        w = wmats[lo : lo + _CHUNK].astype(np.int64)
        out[lo : lo + _CHUNK] = _chunk_sums(w)
    return out


def _chunk_sums(w: np.ndarray) -> np.ndarray:
    batch, n, _ = w.shape
    full = 1 << n
    # paths[mask, v, g]: weighted count of paths 0 -> v visiting exactly mask
    paths = np.zeros((full, n, batch), dtype=np.int64)
    paths[1, 0] = 1
    for mask in range(1, full, 2):
        for v in range(n):
            if not mask >> v & 1:
                continue
            pv = paths[mask, v]
            if not pv.any():
                continue
            for u in range(n):
                if not mask >> u & 1:
                    paths[mask | 1 << u, u] += pv * w[:, v, u]
    total = np.zeros(batch, dtype=np.int64)
    for v in range(1, n):
        total += paths[full - 1, v] * w[:, v, 0]
    if (total & 1).any():
        raise AssertionError("cycle sum must be even (two traversals each)")
    return total >> 1
