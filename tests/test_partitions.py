import random
from math import prod

import numpy as np
import pytest

from chordlab.partitions import partition_log_full
from chordlab.polynomials import IntPolynomial
from references import partition_weight, set_partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


@pytest.mark.parametrize("n", range(8))
def test_counts_match_bell_numbers(n):
    assert sum(1 for _ in set_partitions(n)) == BELL[n]


def test_blocks_partition_the_ground_set():
    for blocks in set_partitions(5):
        flat = sorted(x for b in blocks for x in b)
        assert flat == list(range(5))
        assert all(b for b in blocks)


def test_iteration_is_canonical():
    first = list(set_partitions(4))
    assert first == list(set_partitions(4))
    assert first[0] == ((0, 1, 2, 3),)
    # blocks ordered by first element
    for blocks in first:
        firsts = [b[0] for b in blocks]
        assert firsts == sorted(firsts)


def test_weights():
    assert [partition_weight(k) for k in range(1, 5)] == [1, -1, 2, -6]


def _direct_partition_sum(values, n):
    total = None
    for blocks in set_partitions(n):
        term = partition_weight(len(blocks)) * prod(
            values[sum(1 << x for x in block)] for block in blocks
        )
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_log_transform_matches_direct_sum_ints(n):
    rng = random.Random(n)
    values = [rng.randrange(-4, 5) for _ in range(1 << n)]
    assert partition_log_full(values, n) == _direct_partition_sum(values, n)


def test_log_transform_matches_direct_sum_polynomials():
    rng = random.Random(7)
    n = 4
    values = [
        IntPolynomial([rng.randrange(-3, 4) for _ in range(3)]) for _ in range(1 << n)
    ]
    assert partition_log_full(values, n) == _direct_partition_sum(values, n)


def test_log_transform_rejects_empty():
    with pytest.raises(ValueError):
        partition_log_full([1], 0)


def test_batched_numpy_values_match_per_lane():
    rng = random.Random(11)
    n, lanes = 5, 7
    rows = [[rng.choice((-1, 0, 1)) for _ in range(lanes)] for _ in range(1 << n)]
    batch = [np.array(r, dtype=np.int32) for r in rows]
    got = partition_log_full(batch, n)
    assert got.dtype == np.int32
    for lane in range(lanes):
        assert int(got[lane]) == partition_log_full([r[lane] for r in rows], n)
