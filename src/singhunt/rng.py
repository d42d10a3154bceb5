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


def split(seed: int, index: int) -> SplitMix64:
    """Stream #index of the given seed; streams are mutually independent."""
    return SplitMix64(_mix((seed & _MASK) ^ _mix(index & _MASK)))


_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2, _GAMMA64 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB), np.uint64(_GAMMA)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """``_mix`` of every entry of a uint64 array, wrapping like the scalar."""
    z = z ^ (z >> _S30)
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _draw_table(states: np.ndarray, moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(draws, rejected), both streams x moduli, in one 2-D pass.

    The j-th draw u of the stream at state s is mix(s + (j+1)*gamma), with
    wrapping uint64 arithmetic; draws[r, j] is that u mod moduli[j] (a
    modulus 0 stands for 2^64), and rejected[r, j] says that ``below``
    rejects u.  Entry (r, j) is the scalar ``below(moduli[j])`` of stream r
    only while row r has no rejection before column j.  The table is
    column-major, so each operation broadcast over the moduli runs down the
    streams, not along rows as short as the moduli."""
    steps = np.arange(1, len(moduli) + 1, dtype=np.uint64) * _GAMMA64
    u = _mix_array(np.add(states[:, None], steps, order="F"))
    safe = np.maximum(moduli, np.uint64(1))
    # below(m) keeps u <= (2^64 - 1) - 2^64 % m, and 2^64 % m == (2^64 - m) % m
    return np.where(moduli == 0, u, u % safe), u > ~(np.negative(moduli) % safe)


def below_rows(seed: int, index: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Row r is [split(seed, index[r]).below(m) for m in moduli], for every r at once.

    Returns a uint64 array (len(index) x len(moduli)) from ``_draw_table``;
    a row in which some draw is rejected is redone by the scalar generator,
    so every row equals the scalar draw bit for bit.
    """
    for m in moduli:
        _limit(m)
    index = np.asarray(index, dtype=np.uint64)
    state = _mix_array(np.uint64(seed & _MASK) ^ _mix_array(index))
    out, rejected = _draw_table(state, np.array([m & _MASK for m in moduli], dtype=np.uint64))
    for r in np.flatnonzero(rejected.any(axis=1)).tolist():
        rng = split(seed, int(index[r]))
        out[r] = [rng.below(m) for m in moduli]
    return out


def permutation_rows(seed: int, index: Sequence[int], n: int) -> np.ndarray:
    """Row r is the Fisher-Yates shuffle of range(n) by split(seed, index[r]):
    one ``below(i + 1)`` per position i from the last down, swapping it with
    the draw.  The swaps of every row are one ``below_rows`` table."""
    rows = []
    for swaps in below_rows(seed, np.asarray(index, dtype=np.uint64), range(n, 1, -1)).tolist():
        order = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            order[i], order[j] = order[j], order[i]
        rows.append(order)
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


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


def row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One key per row of digits below base, equal exactly where the rows
    are: the digits packed into one uint64 while base^width <= 2^64,
    otherwise into as few uint64 words as hold them (base^d <= 2^64 digits
    a word), read as one bytes string of big-endian words.  Keys sort
    (np.sort, np.searchsorted) like any array."""
    per = 1
    while base ** (per + 1) <= 1 << 64:
        per += 1
    width = rows.shape[1]
    words = np.zeros((len(rows), max(1, -(-width // per))), dtype=np.uint64)
    for j in range(width):
        words[:, j // per] = words[:, j // per] * np.uint64(base) + rows[:, j]
    if words.shape[1] == 1:
        return words[:, 0]
    return words.astype(">u8").view(f"S{8 * words.shape[1]}")[:, 0]


def distinct_rows(
    rows: np.ndarray, base: int, seen: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(first, keys): the ascending indices of the first occurrence of every
    distinct row of digits below base whose key (``row_keys``) is not in the
    sorted array seen, and the sorted keys of seen and of those rows.

    A row whose key is one word w < base^width leaves room below it for its
    index i when base^width * 2^bits <= 2^64 (bits the bit length of the row
    count).  Then one unstable np.sort of the keys w << bits | i puts equal
    rows next to each other, the lowest index first.  Otherwise a stable
    lexsort of the keys does.  Only the rows are sorted: each distinct one
    is then looked up in seen.  Rows of no digits are all equal.
    """
    keys = row_keys(rows, base)
    bits = len(rows).bit_length()
    if base ** rows.shape[1] << bits <= 1 << 64:
        shift = np.uint64(bits)
        key = np.sort(keys << shift | np.arange(len(rows), dtype=np.uint64))
        word = key >> shift
        new = np.ones(len(rows), dtype=bool)
        new[1:] = word[1:] != word[:-1]
        distinct, first = word[new], (key[new] & np.uint64((1 << bits) - 1)).astype(np.intp)
    else:
        order = np.lexsort((keys,))  # stable: equal rows end up adjacent, in index order
        ranked = keys[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = ranked[1:] != ranked[:-1]
        distinct, first = ranked[new], order[new]
    if seen is not None and len(seen):
        at = np.searchsorted(seen, distinct)
        unseen = seen[np.minimum(at, len(seen) - 1)] != distinct
        distinct = np.insert(seen, at[unseen], distinct[unseen])
        first = first[unseen]
    return np.sort(first), distinct


def first_occurrences(rows: np.ndarray, base: int) -> np.ndarray:
    """Ascending indices of the first occurrence of every distinct row of
    digits below base (``distinct_rows``)."""
    return distinct_rows(rows, base)[0]
