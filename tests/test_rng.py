from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singhunt import rng
from singhunt.rng import _draw_table, _limit, below_rows, split

BIG_MODULI = [1, 2, 2**63 + 1, 2**64]  # at 2^63 + 1 about half of all draws are rejected


def fisher_yates(stream, items: list) -> None:
    """The scalar shuffle: one `below` per position, from the last down."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]


def scalar_rows(seed: int, index, moduli) -> list[list[int]]:
    rows = []
    for i in index:
        stream = split(seed, i)
        rows.append([stream.below(m) for m in moduli])
    return rows


@pytest.mark.parametrize("moduli", [[m] for m in BIG_MODULI] + [BIG_MODULI, [2**63 + 1] * 4, [7, 2**64, 5]])
def test_below_rows_equal_the_scalar_draws(moduli):
    index = list(range(60)) + [2**64 - 1]
    assert below_rows(11, np.array(index, dtype=np.uint64), moduli).tolist() == scalar_rows(11, index, moduli)


@pytest.mark.parametrize("moduli", [[m] for m in BIG_MODULI] + [BIG_MODULI])
def test_draw_table_is_the_scalar_stream_up_to_its_rejections(moduli):
    """Entry (r, j) is raw draw j of stream r reduced mod moduli[j], flagged
    exactly when `below` would reject it."""
    streams = [split(4, i) for i in range(80)]
    table, rejected = _draw_table(np.array([s.state for s in streams], dtype=np.uint64),
                                  np.array([m % 2**64 for m in moduli], dtype=np.uint64))
    for r, stream in enumerate(streams):
        raw = [stream.next_u64() for _ in moduli]
        assert rejected[r].tolist() == [u >= _limit(m) for u, m in zip(raw, moduli)]
        assert table[r].tolist() == [u % m for u, m in zip(raw, moduli)]
    if 2**63 + 1 in moduli:
        assert 10 < rejected.sum() < 70  # so the scalar redo of below_rows is exercised


def test_below_rows_redo_rejected_rows_with_the_scalar_generator():
    index = np.arange(40, dtype=np.uint64)
    with mock.patch.object(rng, "split", wraps=rng.split) as scalar:
        below_rows(3, index, [2**63 + 1])
    rejected = _draw_table(rng._mix_array(np.uint64(3) ^ rng._mix_array(index)),
                           np.array([2**63 + 1], dtype=np.uint64))[1]
    assert scalar.call_count == int(rejected.sum()) > 0


@pytest.mark.parametrize("n", [0, 1, 2, 73])
def test_shuffle_is_the_scalar_fisher_yates(n):
    got, want = list(range(n)), list(range(n))
    a, b = split(9, n), split(9, n)
    a.shuffle(got)
    fisher_yates(b, want)
    assert got == want
    # the state advanced by exactly the draws consumed
    assert a.state == b.state
    assert [a.below(10) for _ in range(5)] == [b.below(10) for _ in range(5)]


@settings(max_examples=60)
@given(st.integers(0, 2**64 - 1), st.integers(0, 200), st.booleans())
def test_shuffle_in_blocks_is_the_scalar_fisher_yates(seed, n, reject):
    """The one draw table gives the scalar permutation, also when it has a
    rejected draw and every draw is redone by `below`."""
    table = _draw_table
    if reject:  # report a rejection in the table
        table = lambda states, moduli: (_draw_table(states, moduli)[0], np.ones((1, len(moduli)), dtype=bool))
    got, want = list(range(n)), list(range(n))
    a, b = split(seed, 1), split(seed, 1)
    with mock.patch.object(rng, "_draw_table", table):
        a.shuffle(got)
    fisher_yates(b, want)
    assert got == want and a.state == b.state
