"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, stream_index).  Streams for distinct indices are
statistically independent, and a stream depends only on its key, never on
how many draws other streams made.  That makes fuzz runs replayable per
trial and independent of execution order.

A Philox stream is fully defined by its key and counter, so `streams` gives
a window of trials one Philox, re-keyed per index: each generator it yields
is bit-equal to `stream(seed, i)`.  Its words 4j..4j+3 are a pure function
of the key and the counter j + 1 (Salmon, Moraes, Dror & Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC'11), so `_words` evaluates
Philox4x64-10 for a whole window of streams as uint64 arrays, and `_unit`
and `_integers` draw from them what a Generator would.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["stream", "streams"]

_KEY_LIMIT = 1 << 64


def _check_key(name: str, value: int) -> None:
    """ValueError unless value, a seed or stream index, is in 0..2^64 - 1."""
    if not 0 <= value < _KEY_LIMIT:
        raise ValueError(f"{name} {value} is outside 0..2^64 - 1")


def streams(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """The generator of stream(seed, i) for each i of indices, in order: one
    Generator whose Philox is re-keyed to (seed, i) before it is yielded, so
    each is valid only until the next is drawn.  seed and every index must
    be in 0..2^64 - 1, else ValueError (for an index, when it is reached)."""
    _check_key("seed", seed)
    bit_generator = np.random.Philox(0)
    start = bit_generator.state  # counter 0, empty buffer
    # Lists, which the state setter reads faster than arrays.
    key = [seed, 0]
    start.update(buffer=[0] * 4, state={"counter": [0] * 4, "key": key})
    generator = np.random.Generator(bit_generator)

    def rekeyed(index: int) -> np.random.Generator:
        _check_key("stream index", index)
        key[1] = index
        bit_generator.state = start
        return generator

    return map(rekeyed, indices)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream `index` of the run keyed by `seed`; both must be
    in 0..2^64 - 1, else ValueError."""
    return next(streams(seed, (index,)))


# Philox4x64-10 as numpy's Philox runs it: the multipliers of the two even
# lanes, the key's Weyl increments, and at most this many 4-word blocks per
# pass of _words, which keeps its buffers in cache (about 1.5 MB).
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LOW, _M_HIGH = _PHILOX_M & _LOW, _PHILOX_M >> _32
_PASS_BLOCKS = 1 << 14


def _words(seed: int, indices: Sequence[int], count: int) -> np.ndarray:
    """The first count 64-bit words of stream(seed, i) for each i of
    indices, (N, count) uint64: block j made at counter j + 1 in ten rounds
    of 128-bit products from 32-bit halves, in place a pass at a time, the
    key wrapping at 2^64 as it is bumped."""
    _check_key("seed", seed)
    index = np.fromiter(indices, dtype=np.uint64)
    blocks = -(-count // 4)
    step = max(1, _PASS_BLOCKS // blocks)
    # Round 1 in closed form: lane 2 and both odd lanes start at 0, so it
    # leaves the even lanes (seed, hi(M0 (j + 1)) ^ index) and the odd lanes
    # (0, lo(M0 (j + 1))); j + 1 < 2^32, so hi needs only M0's halves.
    counter = np.arange(1, blocks + 1, dtype=np.uint64)
    first_high = (counter * _M_HIGH[0] + ((counter * _M_LOW[0]) >> _32)) >> _32
    first_low = counter * _PHILOX_M[0]
    out = np.empty((len(index), blocks, 4), dtype=np.uint64)
    scratch = np.empty((6, 2, min(step, len(index)), blocks), dtype=np.uint64)
    for start in range(0, len(index), step):
        rows = index[start : start + step, None]
        even, odd, low, high, middle, carry = scratch[:, :, : len(rows)]
        even[0], even[1], odd[0], odd[1] = seed, first_high ^ rows, 0, first_low
        key = np.stack((np.full_like(rows, seed), rows)) + _PHILOX_W
        for _ in range(9):
            np.bitwise_and(even, _LOW, out=low)
            np.right_shift(even, _32, out=high)
            np.multiply(low, _M_LOW, out=carry)
            carry >>= _32
            np.multiply(high, _M_LOW, out=middle)
            middle += carry
            low *= _M_HIGH
            np.bitwise_and(middle, _LOW, out=carry)
            carry += low
            carry >>= _32
            high *= _M_HIGH
            middle >>= _32
            high += middle
            high += carry  # the high halves of the products
            even *= _PHILOX_M  # and their low halves
            np.bitwise_xor(high[::-1], odd, out=odd)
            odd ^= key
            even, odd = odd, even[::-1]
            key += _PHILOX_W
        out[start : start + step] = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
    return out.reshape(len(index), 4 * blocks)[:, :count]


def _unit(words: np.ndarray) -> np.ndarray:
    """The doubles Generator.random makes of 64-bit words."""
    return (words >> np.uint64(11)) * 2.0**-53


def _uniforms(seed: int, indices: Sequence[int], count: int) -> np.ndarray:
    """stream(seed, i).random(count) for each i of indices, (N, count)."""
    return _unit(_words(seed, indices, count))


def _integers(word: np.ndarray, bounds: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """g.integers(k) for each k of bounds in turn, drawn from the first
    words (N,) of N streams, and whether each row took them at its first
    try.  The Generator draws k by Lemire's method on a 32-bit half of a
    word, low half first (k = 1 draws nothing).  A half whose product
    leaves a remainder below (2^32 - k) mod k is drawn again, so its row
    must be drawn from its own stream.  At most two bounds draw."""
    halves = [word & _LOW, word >> _32]
    accepted = np.ones(len(word), dtype=bool)
    values = []
    for k in bounds:
        product = halves.pop(0) * np.uint64(k) if k > 1 else np.zeros_like(word)
        accepted &= (product & _LOW) >= np.uint64(((1 << 32) - k) % k)
        values.append((product >> _32).astype(np.int64))
    return values, accepted
