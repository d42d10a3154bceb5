"""Deterministic splittable randomness for reproducible searches.

Every search in this package derives one independent 64-bit stream per
trial from (seed, trial index), so results do not depend on how trials
are scheduled across workers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _limit(n: int) -> int:
    """Draws u >= _limit(n) are rejected, so that u % n is unbiased."""
    if not 1 <= n <= 1 << 64:
        raise ValueError(f"below() needs 1 <= n <= 2^64, got {n}")
    return (1 << 64) - ((1 << 64) % n)


class SplitMix64:
    """The splitmix64 generator; tiny, fast, and identical on every platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        limit = _limit(n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def split(seed: int, index: int) -> SplitMix64:
    """Stream #index of the given seed; streams are mutually independent."""
    return SplitMix64(_mix((seed & _MASK) ^ _mix(index & _MASK)))


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def below_rows(seed: int, index: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Row r is [split(seed, index[r]).below(m) for m in moduli], for every r at once.

    Returns a uint64 array (len(index) x len(moduli)).  Without rejections
    the j-th draw of a stream is mixed from its start state plus j+1
    gammas, so all rows are computed with wrapping uint64 arithmetic; a row
    in which some draw is rejected is redone by the scalar generator, so
    every row equals the scalar draw bit for bit.
    """
    limits = [_limit(m) for m in moduli]
    index = np.asarray(index, dtype=np.uint64)
    state = _mix_array(np.uint64(seed & _MASK) ^ _mix_array(index))
    out = np.empty((len(index), len(moduli)), dtype=np.uint64)
    redo = np.zeros(len(index), dtype=bool)
    for j, (m, limit) in enumerate(zip(moduli, limits)):
        state = state + np.uint64(_GAMMA)
        u = _mix_array(state)
        redo |= u > np.uint64(limit - 1)
        out[:, j] = u if m == 1 << 64 else u % np.uint64(m)
    for r in np.flatnonzero(redo).tolist():
        rng = split(seed, int(index[r]))
        out[r] = [rng.below(m) for m in moduli]
    return out


def digit_rows(index: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Row r is the index[r]-th tuple of itertools.product(*map(range, radices)):
    the mixed-radix digits of index[r], most significant first, in the
    index's dtype.  Each digit is a floor division and a subtraction, which
    numpy does several times faster than divmod or %."""
    index = np.asarray(index)
    out = np.empty((len(radices), len(index)), dtype=index.dtype)
    for j in range(len(radices) - 1, 0, -1):
        rest = index // radices[j]
        out[j] = index - rest * radices[j]
        index = rest
    if len(radices):
        out[0] = index
    return out.T


def first_occurrences(rows: np.ndarray, base: int) -> np.ndarray:
    """Ascending indices of the first occurrence of every distinct row of
    digits below base.

    Each row's digits are packed into as few uint64 words as hold them
    (base^d <= 2^64 digits a word), and the rows are ranked on the words;
    rows of no digits are all equal.
    """
    per = 1
    while base ** (per + 1) <= 1 << 64:
        per += 1
    words = np.zeros((len(rows), max(1, -(-rows.shape[1] // per))), dtype=np.uint64)
    for j in range(rows.shape[1]):
        words[:, j // per] = words[:, j // per] * np.uint64(base) + rows[:, j]
    order = np.lexsort(words.T)  # stable: equal rows end up adjacent, in index order
    ranked = words[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[new])
