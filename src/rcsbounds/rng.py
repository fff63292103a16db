"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, stream_index).  Streams for distinct indices are
statistically independent, and a stream depends only on its key, never on
how many draws other streams made.  That makes fuzz runs replayable per
trial and independent of execution order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

_KEY_LIMIT = 1 << 64


def _check_key(name: str, value: int) -> None:
    """ValueError unless value, a seed or stream index, is in 0..2^64 - 1."""
    if not 0 <= value < _KEY_LIMIT:
        raise ValueError(f"{name} {value} is outside 0..2^64 - 1")


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream `index` of the run keyed by `seed`; both must be
    in 0..2^64 - 1, else ValueError."""
    _check_key("seed", seed)
    _check_key("stream index", index)
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
