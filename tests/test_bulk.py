"""The batched Hamiltonian DP against a push-form reference and the
scalar DP."""

import random

import numpy as np
import pytest

from chordlab import _bulk
from chordlab._bulk import _CHUNK, hamiltonian_cycle_sums
from chordlab.diagrams import random_diagram
from chordlab.invariants import _signed_hamiltonian_sum
from chordlab.verify import dense_sign_matrix


def push_cycle_sums(wmats: np.ndarray) -> np.ndarray:
    """Reference: the push DP over a (2^n, n, B) int64 table of path
    counts, each (mask, v) row added into every one-step extension; it
    runs every matrix through the whole table, with no shortcut."""
    total = push_totals(wmats)
    if (total & 1).any():
        raise AssertionError("cycle sum must be even (two traversals each)")
    return total >> 1


def push_totals(wmats: np.ndarray) -> np.ndarray:
    """The reference's cycle sums before halving, one per matrix."""
    wmats = np.asarray(wmats, dtype=np.int64)
    batch, n = len(wmats), wmats.shape[-1]
    full = 1 << n
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
                    paths[mask | 1 << u, u] += pv * wmats[:, v, u]
    total = np.zeros(batch, dtype=np.int64)
    for v in range(1, n):
        total += paths[full - 1, v] * wmats[:, v, 0]
    return total


def random_matrices(rng, batch: int, n: int, kind: str) -> np.ndarray:
    """Antisymmetric +-1 step weights or symmetric 0/1 adjacency."""
    if kind == "signed":
        upper = np.triu(rng.choice(np.array([-1, 1], dtype=np.int8), (batch, n, n)), 1)
        return upper - upper.transpose(0, 2, 1)
    upper = np.triu(rng.integers(0, 2, (batch, n, n), dtype=np.int8), 1)
    return upper + upper.transpose(0, 2, 1)


def sparse_matrices(rng, batch: int, n: int, kind: str) -> np.ndarray:
    """Matrices with a share of 0.15 to 0.3 of their entries nonzero:
    symmetric 0/1, antisymmetric +-1, or arbitrary directed -1/0/1
    (diagonal included)."""
    keep = rng.random((batch, n, n)) < rng.uniform(0.15, 0.3)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), (batch, n, n))
    if kind == "directed":
        return (keep * signs).astype(np.int8)
    upper = np.triu(keep * (signs if kind == "signed" else 1), 1).astype(np.int8)
    return upper + (1 if kind == "adjacency" else -1) * upper.transpose(0, 2, 1)


def touches_two(w) -> bool:
    """Whether every vertex has two others it steps to or from."""
    n = len(w)
    return all(
        len({u for u in range(n) if u != v and (w[v][u] or w[u][v])}) >= 2
        for v in range(n)
    )


def agree_row_by_row(wmats):
    """Both kernels against the push reference, matrix by matrix: an odd
    total raises in the scalar DP on that matrix and in the batched DP on
    any batch that holds it; the even matrices are summed again as one
    batch."""
    totals = push_totals(wmats)
    odd = (totals & 1).astype(bool)
    want = ["odd" if o else int(t >> 1) for t, o in zip(totals, odd)]
    assert [scalar_outcome(w[None]) for w in wmats] == [
        x if x == "odd" else [x] for x in want
    ]
    assert outcome(hamiltonian_cycle_sums, wmats) == ("odd" if odd.any() else want)
    even = [x for x in want if x != "odd"]
    assert outcome(hamiltonian_cycle_sums, wmats[~odd]) == even


def outcome(run, wmats):
    """The sums, or "odd" where the odd-total check fired."""
    try:
        return [int(x) for x in run(wmats)]
    except AssertionError as err:
        assert "must be even" in str(err)
        return "odd"


def scalar_outcome(wmats):
    """The scalar DP per matrix; "odd" if it fires on any of them, as
    the batched DPs then refuse the whole batch."""
    values = []
    for w in wmats:
        try:
            values.append(_signed_hamiltonian_sum(w.tolist()))
        except AssertionError:
            return "odd"
    return values


class TestHamiltonianCycleSums:
    @pytest.mark.parametrize("kind", ["signed", "adjacency"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_push_reference_and_scalar_dp(self, n, kind):
        rng = np.random.default_rng(1000 * n + len(kind))
        for batch in (1, 5, _CHUNK + 3):
            wmats = random_matrices(rng, batch, n, kind)
            got = outcome(hamiltonian_cycle_sums, wmats)
            assert got == outcome(push_cycle_sums, wmats)
            # the scalar DP on every matrix but the middle of the long
            # batch: the first five and those around the chunk boundary
            ends = np.r_[0 : min(batch, 5), max(5, _CHUNK - 5) : batch]
            some = got if got == "odd" else [got[i] for i in ends]
            assert some == scalar_outcome(wmats[ends])
            # from n = 3 on every cycle is met in both directions; at
            # n = 2 the one cycle 0 -> 1 -> 0 is met once, so the total
            # of a nonzero matrix is odd
            assert (got == "odd") == (n == 2 and bool(wmats.any()))

    @pytest.mark.parametrize("kind", ["signed", "adjacency", "directed"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sparse_matrices_agree_with_push_reference(self, n, kind):
        # most of these have a vertex with fewer than two neighbours
        rng = np.random.default_rng(2000 * n + len(kind))
        agree_row_by_row(sparse_matrices(rng, 300, n, kind))

    def test_order8_sign_matrices_agree_with_push_reference(self):
        rng = random.Random(26)
        words = [random_diagram(8, rng).word for _ in range(500)]
        agree_row_by_row(dense_sign_matrix(np.array(words, dtype=np.int8)))

    def test_only_graphs_that_can_hold_a_cycle_reach_the_dp(self, monkeypatch):
        # pruned and live graphs mixed, the live ones spanning a chunk boundary
        rng = np.random.default_rng(5)
        wmats = random_matrices(rng, 2 * _CHUNK + 7, 5, "signed")
        lonely = rng.random(len(wmats)) < 0.4
        lonely_vertex = rng.integers(0, 5, len(wmats))
        for g in np.flatnonzero(lonely):
            v, u = lonely_vertex[g], (lonely_vertex[g] + 1) % 5
            keep = wmats[g, v, u]
            wmats[g, v, :] = wmats[g, :, v] = 0
            wmats[g, v, u], wmats[g, u, v] = keep, -keep
            wmats[g, v, v] = 1  # the DP never reads the diagonal
        live = np.array([touches_two(w) for w in wmats])
        assert (live == ~lonely).all() and live.sum() > _CHUNK
        chunks = []
        real = _bulk._chunk_sums
        monkeypatch.setattr(
            _bulk, "_chunk_sums", lambda c, n: chunks.append(c.copy()) or real(c, n)
        )
        assert outcome(hamiltonian_cycle_sums, wmats) == outcome(push_cycle_sums, wmats)
        assert [len(c) for c in chunks] == [_CHUNK, live.sum() - _CHUNK]
        assert (np.concatenate(chunks) == wmats[live]).all()
        chunks.clear()
        assert hamiltonian_cycle_sums(wmats[lonely]).tolist() == [0] * lonely.sum()
        assert chunks == []

    def test_known_counts(self):
        # K_n has (n-1)!/2 Hamiltonian cycles; K_13 reaches the int32 bound
        for n, count in ((4, 3), (5, 12), (8, 2520), (13, 239500800)):
            k = np.ones((1, n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
            assert hamiltonian_cycle_sums(k).tolist() == [count]

    def test_odd_total_raises(self):
        # a directed 3-cycle counts its one cycle in one direction only
        batch = np.zeros((4, 3, 3), dtype=np.int8)
        batch[2] = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        with pytest.raises(AssertionError, match="must be even"):
            hamiltonian_cycle_sums(batch)

    def test_weights_and_orders_out_of_range_raise(self):
        # a bad weight raises in a graph the DP would skip (vertex 0 has
        # one neighbour) and on the diagonal, which the DP never reads
        two = np.zeros((3, 4, 4), dtype=np.int8)
        two[1, 0, 1] = 2
        with pytest.raises(ValueError, match="weights -1, 0, 1"):
            hamiltonian_cycle_sums(two)
        loop = np.ones((2, 4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8)
        loop[1, 2, 2] = -3
        with pytest.raises(ValueError, match="weights -1, 0, 1"):
            hamiltonian_cycle_sums(loop)
        with pytest.raises(ValueError, match="weights -1, 0, 1"):
            hamiltonian_cycle_sums(np.full((1, 4, 4), 0.5))
        with pytest.raises(ValueError, match="n <= 13 .*; n = 14"):
            hamiltonian_cycle_sums(np.zeros((1, 14, 14), dtype=np.int8))
