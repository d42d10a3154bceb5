from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from singhunt import interp, rng
from singhunt.fields import field_create
from singhunt.interp import PointSet
from singhunt.rng import _draw_table, _limit, below_rows, permutation_rows, split

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
    want = list(range(n))
    stream = split(9, n)
    fisher_yates(stream, want)
    assert permutation_rows(9, [n], n).tolist() == [want]
    # the swaps are exactly the first n - 1 draws of the stream: the draws after them continue it
    swaps = list(range(n, 1, -1))
    assert below_rows(9, np.array([n], dtype=np.uint64), swaps + [10] * 5)[0, len(swaps):].tolist() \
        == [stream.below(10) for _ in range(5)]


@settings(max_examples=60)
@given(st.integers(0, 2**64 - 1), st.integers(2, 200), st.integers(1, 3), st.booleans())
@example(9, 2, 1, False)
@example(9, 73, 1, False)
def test_shuffle_in_blocks_is_the_scalar_fisher_yates(seed, n, draws, reject):
    """Draw d of `oversampled_system` is the scalar Fisher-Yates shuffle of
    split(seed, d), from one draw table, also when the table has a rejected
    draw and its rows are redone by `below`.  Point i of the set is (i,),
    and at degree 0 with slack n - 1 a draw keeps all n points."""
    table = _draw_table
    if reject:  # report a rejection in every row of the table
        table = lambda states, moduli: (_draw_table(states, moduli)[0],
                                        np.ones((len(states), len(moduli)), dtype=bool))
    pts = PointSet(field_create(211), [(i,) for i in range(n)])
    with mock.patch.object(rng, "_draw_table", table), \
            mock.patch.object(interp, "vanishing_system", wraps=interp.vanishing_system) as system:
        interp.oversampled_system(pts, 0, slack=n - 1, draws=draws, seed=seed)
    want = []
    for d in range(draws):
        order = list(range(n))
        fisher_yates(split(seed, d), order)
        want += order
    assert system.call_args.args[0].planes[0, :, 0].tolist() == want
