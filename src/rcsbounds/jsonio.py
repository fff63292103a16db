"""JSON encoding helpers.

Complex scalars are encoded as two-element arrays [re, im]; vectors as
arrays of those; matrices as row-major nested arrays.  Decoding validates
shapes and finiteness and raises ValueError with a JSON-pointer-style
path on malformed input.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "encode_complex",
    "encode_vector",
    "encode_matrix",
    "decode_complex",
    "decode_vector",
    "decode_matrix",
]


def encode_complex(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def encode_vector(v) -> list[list[float]]:
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    return [encode_complex(z) for z in arr]


def encode_matrix(m) -> list[list[list[float]]]:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {arr.shape}")
    return [[encode_complex(z) for z in row] for row in arr]


def _fail(path: str, message: str):
    raise ValueError(f"{path}: {message}")


def decode_complex(obj, path: str = "$") -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        _fail(path, "complex number must be a two-element array [re, im]")
    re, im = obj
    if isinstance(re, bool) or isinstance(im, bool):
        _fail(path, "complex parts must be numbers")
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        _fail(path, "complex parts must be numbers")
    if not (math.isfinite(re) and math.isfinite(im)):
        _fail(path, "complex parts must be finite")
    return complex(re, im)


def decode_vector(obj, path: str = "$") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        _fail(path, "vector must be a nonempty array")
    return np.array(
        [decode_complex(z, f"{path}[{i}]") for i, z in enumerate(obj)],
        dtype=np.complex128,
    )


def decode_matrix(obj, path: str = "$") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        _fail(path, "matrix must be a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            _fail(f"{path}[{i}]", "matrix row must be a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}[{i}]", f"ragged matrix row (expected {width} entries)")
        rows.append([decode_complex(z, f"{path}[{i}][{j}]") for j, z in enumerate(row)])
    m = np.array(rows, dtype=np.complex128)
    if m.shape[0] != m.shape[1]:
        _fail(path, f"matrix must be square, got shape {m.shape}")
    return m
