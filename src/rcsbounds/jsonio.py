"""JSON encoding, and the one checker of instance files.

Complex scalars are encoded as two-element arrays [re, im]; vectors as
arrays of those; matrices as row-major nested arrays.

Every node of an instance file is checked here, once, as it is decoded.
A spec is a leaf check, (node, path) -> the node decoded, or an object's
keys with the spec of each; _check walks a node against its spec, and
_variant against the spec of its kind.  forms, bounds and cli declare the
spec of each object they read next to the type it decodes to.  A node
that departs from its spec raises ValueError with a JSON-pointer-style
path, such as $.form.functional.weights[1].
"""

from __future__ import annotations

import json
import math

import numpy as np

from .matalg import DimMismatchError

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


def _any(node, path: str):
    """A node its holder checks: the key _variant dispatches on."""
    return node


def _number(node, path: str) -> float:
    """A number, not a bool, as a float."""
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, "must be a number")
    try:
        return float(node)
    except OverflowError:  # an integer beyond the double range
        _fail(path, "must be finite")


def _integer(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, "must be an integer")
    return node


def _finite(node, path: str) -> float:
    value = _number(node, path)
    if not math.isfinite(value):
        _fail(path, "must be finite")
    return value


def _positive(node, path: str) -> float:
    value = _number(node, path)
    if not 0 < value < math.inf:
        _fail(path, "must be positive and finite")
    return value


def _const(value):
    """The check of a node equal to value, of its type."""

    def check(node, path: str):
        if type(node) is not type(value) or node != value:
            _fail(path, f"must be {json.dumps(value)}")
        return node

    return check


def _entries(node, path: str) -> list:
    if not isinstance(node, list) or not node:
        _fail(path, "must be a nonempty array")
    return node


def _nonempty(item, dtype=np.float64):
    """The check of a nonempty array whose entries pass item, as a vector of dtype."""

    def check(node, path: str) -> np.ndarray:
        entries = _entries(node, path)
        return np.array([item(z, f"{path}[{i}]") for i, z in enumerate(entries)], dtype=dtype)

    return check


def _square(item):
    """The check of a square array, n rows of n entries that pass item and
    share one shape, as an (n, n, ...) complex array."""

    def check(node, path: str) -> np.ndarray:
        rows = _entries(node, path)
        for i, row in enumerate(rows):
            if len(_entries(row, f"{path}[{i}]")) != len(rows):
                _fail(f"{path}[{i}]", f"must have {len(rows)} entries: the array is square")
        cells = [
            [item(z, f"{path}[{i}][{j}]") for j, z in enumerate(row)] for i, row in enumerate(rows)
        ]
        if len({np.shape(cell) for row in cells for cell in row}) > 1:
            _fail(path, "entries must share one shape")
        return np.array(cells, dtype=np.complex128)

    return check


def decode_complex(obj, path: str = "$") -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        _fail(path, "must be a complex number [re, im]")
    re, im = (_number(part, f"{path}[{i}]") for i, part in enumerate(obj))
    if not (math.isfinite(re) and math.isfinite(im)):
        _fail(path, "complex parts must be finite")
    return complex(re, im)


def decode_vector(obj, path: str = "$") -> np.ndarray:
    return _nonempty(decode_complex, np.complex128)(obj, path)


def decode_matrix(obj, path: str = "$") -> np.ndarray:
    return _square(decode_complex)(obj, path)


def _argument(node, path: str) -> np.ndarray:
    """A vector or a matrix: nesting depth decides."""
    head = node[0] if isinstance(node, list) and node else None
    if isinstance(head, list) and head and isinstance(head[0], list):
        return decode_matrix(node, path)
    return decode_vector(node, path)


def _check(node, spec, path: str, optional=()):
    """node decoded against spec: a leaf check's value, or for an object's
    keys a dict of the decoded values of those present.  ValueError at the
    first place node departs from spec: an object's keys are all required
    unless named in optional, at any depth, and no others are allowed."""
    if callable(spec):
        return spec(node, path)
    if not isinstance(node, dict):
        _fail(path, "must be an object")
    for key in node:
        if key not in spec:
            _fail(f"{path}.{key}", "unknown key")
    fields = {}
    for key, item in spec.items():
        if key in node:
            fields[key] = _check(node[key], item, f"{path}.{key}", optional)
        elif key not in optional:
            _fail(f"{path}.{key}", "missing")
    return fields


def _variant(node, specs: dict, path: str, key: str = "kind", optional=()) -> dict:
    """node decoded (_check) against specs[node[key]], the spec of its kind."""
    if not isinstance(node, dict):
        _fail(path, "must be an object")
    if node.get(key) not in tuple(specs):  # a tuple: an unhashable value is no TypeError
        _fail(f"{path}.{key}", f"must be one of {', '.join(specs)}")
    return _check(node, {key: _any, **specs[node[key]]}, path, optional)


def _at(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a value or dimension error reported at path:
    the check of a decoded object's values, such as a constructor's."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, DimMismatchError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
