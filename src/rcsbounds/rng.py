"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, stream_index).  Streams for distinct indices are
statistically independent, and a stream depends only on its key, never on
how many draws other streams made.  That makes fuzz runs replayable per
trial and independent of execution order.

A Philox stream is fully defined by its key and counter, so `streams` gives
a window of trials one Philox, re-keyed per index: each generator it yields
is bit-equal to `stream(seed, i)`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
    generator = np.random.Generator(bit_generator)

    def rekeyed(index: int) -> np.random.Generator:
        _check_key("stream index", index)
        start["state"]["key"][:] = seed, index
        bit_generator.state = start
        return generator

    return map(rekeyed, indices)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream `index` of the run keyed by `seed`; both must be
    in 0..2^64 - 1, else ValueError."""
    return next(streams(seed, (index,)))
