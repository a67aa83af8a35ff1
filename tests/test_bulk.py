"""The batched Hamiltonian DP against a push-form reference and the
scalar DP."""

import numpy as np
import pytest

from chordlab._bulk import _CHUNK, hamiltonian_cycle_sums
from chordlab.invariants import _signed_hamiltonian_sum


def push_cycle_sums(wmats: np.ndarray) -> np.ndarray:
    """Reference: the push DP over a (2^n, n, B) int64 table of path
    counts, each (mask, v) row added into every one-step extension."""
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
    if (total & 1).any():
        raise AssertionError("cycle sum must be even (two traversals each)")
    return total >> 1


def random_matrices(rng, batch: int, n: int, kind: str) -> np.ndarray:
    """Antisymmetric +-1 step weights or symmetric 0/1 adjacency."""
    if kind == "signed":
        upper = np.triu(rng.choice(np.array([-1, 1], dtype=np.int8), (batch, n, n)), 1)
        return upper - upper.transpose(0, 2, 1)
    upper = np.triu(rng.integers(0, 2, (batch, n, n), dtype=np.int8), 1)
    return upper + upper.transpose(0, 2, 1)


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
        two = np.zeros((3, 4, 4), dtype=np.int8)
        two[1, 0, 1] = 2
        with pytest.raises(ValueError, match="weights -1, 0, 1"):
            hamiltonian_cycle_sums(two)
        with pytest.raises(ValueError, match="weights -1, 0, 1"):
            hamiltonian_cycle_sums(np.full((1, 4, 4), 0.5))
        with pytest.raises(ValueError, match="n <= 13 .*; n = 14"):
            hamiltonian_cycle_sums(np.zeros((1, 14, 14), dtype=np.int8))
