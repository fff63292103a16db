"""Command-line surface: verify instance files, fuzz, sharpness, compare.

Exit codes: 0 the checked inequality holds (or no fuzz violations),
2 violated (or a degenerate sharpness window), 3 precondition failed,
1 usage or I/O error.

Default tolerances come from RCSBOUNDS_RTOL / RCSBOUNDS_ATOL when set;
--tol-rtol / --tol-atol take precedence over both the environment and
any overrides stored in an instance file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import jsonio
from .bounds import (
    _REGISTRY,
    HOLDS,
    HYPOTHESIS_ERRORS,
    INEQUALITY_IDS,
    PS_IMPROVED,
    VIOLATED,
    BoundReport,
    DegenerateSpaceError,
    WeightedSequences,
    _batch_of_one,
    _encode_value,
    _evaluate_one,
    precondition_failed_report,
    sharpness_witness,
)
from .forms import FormInstance, OmegaPair, PositiveFunctional, _coerce_argument
from .harness import (
    SPACE_DIMS,
    FuzzSummary,
    GeneratorConfig,
    _scalar_rows,
    _sequence_batch,
    fuzz_run,
    gen_argmin_families,
    run_trial,
)
from .matalg import (
    DEFAULT_TOL,
    MAX_DIM,
    DimMismatchError,
    Tolerance,
    as_element,
)
from .rng import _check_key, _uniforms, stream

__all__ = ["main", "CSV_HEADER"]

ENV_RTOL = "RCSBOUNDS_RTOL"
ENV_ATOL = "RCSBOUNDS_ATOL"

SHARPNESS_TARGET = 0.25
SHARPNESS_TOL = 1e-12

# The range of compare --n, the length of each compared sequence; MAX_DIM
# bounds --dim likewise.
MAX_SEQUENCE_LENGTH = 4096

CSV_HEADER = (
    "window_a",
    "window_A",
    "window_b",
    "window_B",
    "c1",
    "c2",
    "c3",
    "argmin",
    "lhs",
    "margin",
    "equality_residual",
)

class _UsageError(Exception):
    """Raised for exit-code-1 conditions; the message goes to stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(v: float) -> str:
    # A NaN side, margin or check value: a failed hypothesis stopped the evaluation.
    return "not evaluated" if math.isnan(v) else f"{v:.6e}"


def _resolve_tolerance(args: argparse.Namespace, file_tol: Optional[dict] = None) -> Tolerance:
    rtol = DEFAULT_TOL.rtol
    atol = DEFAULT_TOL.atol
    for env_name, current in ((ENV_RTOL, "rtol"), (ENV_ATOL, "atol")):
        raw = os.environ.get(env_name)
        if raw is None:
            continue
        try:
            value = float(raw)
        except ValueError as exc:
            raise _UsageError(f"{env_name}={raw!r} is not a number") from exc
        if not 0 < value < math.inf:
            raise _UsageError(f"{env_name} must be positive and finite")
        if env_name == ENV_RTOL:
            rtol = value
        else:
            atol = value
    if file_tol:
        rtol = float(file_tol.get("rtol", rtol))
        atol = float(file_tol.get("atol", atol))
    if args.tol_rtol is not None:
        rtol = args.tol_rtol
    if args.tol_atol is not None:
        atol = args.tol_atol
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise _UsageError("tolerances must be positive and finite")
    return Tolerance(rtol=rtol, atol=atol)


def _print_report(report: BoundReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
        return
    print(f"inequality: {report.inequality_id}")
    print(f"verdict:    {report.verdict}")
    for side, value in (("lhs", report.lhs), ("rhs", report.rhs)):
        if isinstance(value, np.ndarray):
            rendered = np.array2string(value, precision=6, suppress_small=False)
            print(f"{side}:")
            for line in rendered.splitlines():
                print(f"  {line}")
        else:
            print(f"{side}:        {_fmt(float(value))}")
    print(f"margin:     {_fmt(report.margin)}")
    if report.preconditions:
        print("preconditions:")
        for check in report.preconditions:
            state = "pass" if check.passed else "FAIL"
            print(f"  {check.name}: {state} ({_fmt(float(check.value))})")
    scalars = {
        k: v
        for k, v in report.details.items()
        if isinstance(v, (int, float, complex, str)) and not isinstance(v, bool)
    }
    if scalars:
        print("details:")
        for key, value in scalars.items():
            if isinstance(value, complex):
                print(f"  {key}: {value.real:.6e}{value.imag:+.6e}j")
            elif isinstance(value, (int, str)):
                print(f"  {key}: {value}")
            else:
                print(f"  {key}: {_fmt(float(value))}")


def _exit_code(verdict: str) -> int:
    if verdict == HOLDS:
        return 0
    if verdict == VIOLATED:
        return 2
    return 3


def _decode_argument(node, path: str) -> np.ndarray:
    """Vector or matrix argument: nesting depth decides."""
    if not isinstance(node, list) or not node:
        raise ValueError(f"{path}: expected a nonempty array")
    head = node[0]
    if isinstance(head, list) and head and isinstance(head[0], list):
        return jsonio.decode_matrix(node, path)
    return jsonio.decode_vector(node, path)


def _window_pair(omega: complex, Omega: complex, where: str) -> OmegaPair:
    """The window pair (omega, Omega), or a ValueError at where unless
    |Omega - omega|^2, a factor of every bound, is a finite double."""
    pair = OmegaPair(omega=omega, Omega=Omega)
    try:
        if math.isfinite(pair.spread() ** 2):
            return pair
    except OverflowError:
        pass
    raise ValueError(f"{where}: |Omega - omega|^2 must be finite")


def _decode_pair(node: dict, path: str) -> OmegaPair:
    omega = jsonio.decode_complex(node["omega"], f"{path}.omega")
    return _window_pair(omega, jsonio.decode_complex(node["Omega"], f"{path}.Omega"), path)


def _number(node, path: str) -> None:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValueError(f"{path}: must be a number")


def _positive(node, path: str) -> None:
    _number(node, path)
    if not 0 < node < math.inf:
        raise ValueError(f"{path}: must be positive and finite")


def _finite(node, path: str) -> None:
    _number(node, path)
    if not math.isfinite(node):
        raise ValueError(f"{path}: must be finite")


def _complex(node, path: str) -> None:
    if not isinstance(node, list) or len(node) != 2:
        raise ValueError(f"{path}: must be a complex number [re, im]")
    for i, part in enumerate(node):
        _number(part, f"{path}[{i}]")


def _nonempty(item):
    """The check of a nonempty array whose entries pass item."""

    def check(node, path: str) -> None:
        if not isinstance(node, list) or not node:
            raise ValueError(f"{path}: must be a nonempty array")
        for i, entry in enumerate(node):
            item(entry, f"{path}[{i}]")

    return check


_VECTOR = _nonempty(_complex)
_NUMBERS = _nonempty(_number)
_WINDOW = {"a": _finite, "A": _finite, "b": _finite, "B": _finite}

# The spec of each top-level payload key: a type, a check, or an object's
# keys with the spec of each.  FormInstance.from_dict and jsonio check the
# rest: shapes, finiteness and the form's own keys.
_PAYLOAD_SPECS = {
    "form": dict,
    "x": list,
    "y": list,
    "omega_pair": {"omega": _complex, "Omega": _complex},
    "operator_pair": {"t": _nonempty(_VECTOR), "s": _nonempty(_VECTOR), "v": _VECTOR},
    "sequences": {"a_seq": _NUMBERS, "b_seq": _NUMBERS, "w_seq": _NUMBERS, "window": _WINDOW},
}


def _check(node, spec, path: str, optional: bool = False) -> None:
    """ValueError at the first place node departs from spec; an object's
    keys are all required unless optional, and no others are allowed."""
    if isinstance(spec, type):
        if not isinstance(node, spec):
            raise ValueError(f"{path}: must be an {'object' if spec is dict else 'array'}")
    elif callable(spec):
        spec(node, path)
    else:
        _check(node, dict, path)
        for key in node:
            if key not in spec:
                raise ValueError(f"{path}.{key}: unknown key")
        for key, item in spec.items():
            if key in node:
                _check(node[key], item, f"{path}.{key}")
            elif not optional:
                raise ValueError(f"{path}.{key}: missing")


def _check_instance(doc) -> None:
    """Version, target, the target's payload keys, and the keys and value
    types of the tolerance and of every payload present."""
    _check(doc, dict, "$")
    if doc.get("version") != "1":
        raise ValueError('$.version: must be "1"')
    target = doc.get("target")
    if target not in INEQUALITY_IDS:  # a tuple: an unhashable target is no TypeError
        raise ValueError(f"$.target: must be one of {', '.join(INEQUALITY_IDS)}")
    for key in _PAYLOADS[_REGISTRY[target].payload][0]:
        if key not in doc:
            raise ValueError(f"$.{key}: required for target {target}")
    for key, spec in _PAYLOAD_SPECS.items():
        if key in doc:
            _check(doc[key], spec, f"$.{key}")
    if "tolerance" in doc:
        tol_spec = {"rtol": _positive, "atol": _positive}
        _check(doc["tolerance"], tol_spec, "$.tolerance", optional=True)


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}: JSON parse error: {exc}") from exc
    try:
        _check_instance(doc)
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    return doc


def _at(path: str, fn, *args):
    """fn(*args), with a dimension error reported as a usage error at path."""
    try:
        return fn(*args)
    except DimMismatchError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _decode_form(doc: dict) -> tuple:
    form = _at("$.form", FormInstance.from_dict, doc["form"], "$.form")
    x = _decode_argument(doc["x"], "$.x")
    y = _decode_argument(doc["y"], "$.y")
    for path, arg in (("$.x", x), ("$.y", y)):
        _at(path, _coerce_argument, form, arg)
    return form, x, y, _decode_pair(doc["omega_pair"], "$.omega_pair")


def _decode_functional_form(doc: dict) -> tuple:
    payload = _decode_form(doc)
    if payload[0].kind != "functional_form":
        raise ValueError(f"$.form.kind: target {doc['target']} needs a functional_form")
    return payload


def _decode_operator_pair(doc: dict) -> tuple:
    op = doc["operator_pair"]
    t, s = (
        _at(path, as_element, jsonio.decode_matrix(op[key], path))
        for key, path in (("t", "$.operator_pair.t"), ("s", "$.operator_pair.s"))
    )
    return t, s, jsonio.decode_vector(op["v"], "$.operator_pair.v")


def _decode_sequences(doc: dict) -> WeightedSequences:
    return _at("$.sequences", WeightedSequences.from_dict, doc["sequences"], "$.sequences")


# Each payload kind of the registry: its top-level keys and its decoder.
_PAYLOADS = {
    "form": (("form", "x", "y", "omega_pair"), _decode_form),
    "functional_form": (("form", "x", "y", "omega_pair"), _decode_functional_form),
    "operator_pair": (("operator_pair",), _decode_operator_pair),
    "sequences": (("sequences",), _decode_sequences),
}


def _report_from_instance(doc: dict, tol: Tolerance) -> BoundReport:
    """The target's report on the decoded instance: a PRECONDITION_FAILED
    report if the decoder or evaluator finds a hypothesis failed."""
    target = doc["target"]
    try:
        payload = _PAYLOADS[_REGISTRY[target].payload][1](doc)  # errors carry their JSON path
        try:
            return _evaluate_one(target, payload, tol)
        except (ValueError, ArithmeticError, DimMismatchError) as exc:
            # Values the evaluator cannot take: a zero vector, weights other
            # than 1 for a PS_* target, or numbers out of double range.
            raise ValueError(f"$: target {target}: {exc}") from exc
    except HYPOTHESIS_ERRORS as exc:
        return precondition_failed_report(target, exc)


def cmd_verify(args: argparse.Namespace) -> int:
    doc = _load_instance(args.file)
    tol = _resolve_tolerance(args, doc.get("tolerance"))
    try:
        report = _report_from_instance(doc, tol)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _print_report(report, args.json)
    return _exit_code(report.verdict)


def _print_summary(summary: FuzzSummary, as_json: bool) -> None:
    if as_json:
        print(json.dumps(summary.to_dict()))
        return
    print(f"inequality:          {summary.inequality_id}")
    print(f"seed:                {summary.seed}")
    print(f"trials run:          {summary.trials_run}")
    print(f"holds:               {summary.holds}")
    print(f"violated:            {summary.violated}")
    print(f"precondition failed: {summary.precondition_failed}")
    if summary.worst_margin is not None:
        print(f"worst margin:        {_fmt(summary.worst_margin)} (trial {summary.worst_seed})")


def cmd_fuzz(args: argparse.Namespace) -> int:
    tol = _resolve_tolerance(args)
    entry = _REGISTRY.get(args.inequality_id)
    if args.dims is not None and entry is not None and entry.payload == "sequences":
        raise _UsageError(
            f"--dims does not apply to {args.inequality_id}: it draws n from {SPACE_DIMS}"
        )
    try:
        config = GeneratorConfig(
            seed=args.seed,
            trials=args.trials,
            dims=tuple(args.dims) if args.dims else GeneratorConfig.dims,
        )
        if args.replay is None:
            summary = fuzz_run(config, args.inequality_id, tol)
        else:
            report = run_trial(config, args.inequality_id, args.replay, tol)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.replay is None:
        _print_summary(summary, args.json)
        return 0 if summary.violated == 0 else 2
    _print_report(report, args.json)
    return _exit_code(report.verdict)


def _sharpness_inputs(
    kind: str, dim: int, seed: int
) -> tuple[PositiveFunctional, np.ndarray]:
    g = stream(seed, 0)
    if kind == "vector_state":
        state = np.zeros(dim, dtype=np.complex128)
        state[0] = 1.0
        phi = PositiveFunctional.vector_state(state)
        y = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        return phi, y
    if kind == "trace":
        phi = PositiveFunctional.trace(dim)
    else:
        phi = PositiveFunctional.weighted_sum(g.uniform(0.2, 2.0, size=dim))
    y = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    return phi, y


def cmd_sharpness(args: argparse.Namespace) -> int:
    tol = _resolve_tolerance(args)
    if not 1 <= args.dim <= MAX_DIM:
        raise _UsageError(f"--dim must be in 1..{MAX_DIM}")
    flags = "--omega, --Omega"
    try:
        pair = _window_pair(args.omega, args.Omega, flags)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    phi, y = _sharpness_inputs(args.kind, args.dim, args.seed)
    try:
        result = sharpness_witness(phi, y, pair, tol)
    except DegenerateSpaceError as exc:
        print(f"degenerate instance: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        # A finite window whose witness leaves the double range.
        raise _UsageError(f"{flags}: {exc}") from exc
    ratio = result.ratio
    degenerate = not math.isfinite(ratio)
    deviation = None if degenerate else abs(ratio - SHARPNESS_TARGET)
    if args.json:
        payload = {
            "omega": jsonio.encode_complex(pair.omega),
            "Omega": jsonio.encode_complex(pair.Omega),
            "kind": args.kind,
            "dim": args.dim,
            "seed": args.seed,
            "ratio": None if degenerate else ratio,
            "deviation": deviation,
            "x": _encode_value(result.x),
            "z": _encode_value(result.z),
            "report": result.report.to_dict(),
        }
        print(json.dumps(payload))
    else:
        if degenerate:
            print("degenerate window: omega == Omega, ratio undefined")
        else:
            print(f"ratio:     {ratio!r}")
            print(f"deviation: {_fmt(deviation)} (target {SHARPNESS_TARGET})")
        print(f"witness x: {np.array2string(result.x, precision=6)}")
        print(f"witness z: {np.array2string(result.z, precision=6)}")
    if degenerate:
        return 2
    return 0 if deviation <= SHARPNESS_TOL else 2


def _compare_batches(args: argparse.Namespace):
    """The constant-comparison study as PS_IMPROVED batches (a_seq, b_seq,
    w_seq, edges), in order.

    Random windows first, as many rows at a time as draw
    SCALAR_WINDOW_WORDS words (harness._scalar_rows) so that memory does
    not grow with --samples or --n, row i the uniforms stream(seed,
    i).random(4 + 3n) from stacked Philox passes (rng._uniforms), then the
    three constructed families, so the output is reproducible and
    schedule-independent.
    """
    size = _scalar_rows(4 + 3 * args.n)
    for start in range(0, args.samples, size):
        indices = range(start, min(start + size, args.samples))
        yield _sequence_batch(_uniforms(args.seed, indices, 4 + 3 * args.n), True)
    for _, family in gen_argmin_families(max(2, args.n)):
        yield _batch_of_one("sequences", family)


# compare --csv writes the lines csv.writer would: each float as its repr, the
# shortest decimal that reads back to it and the nearest such, in fixed
# notation for 1e-4 <= |x| < 1e16; "," between cells; "\r\n" after each row.
# _float_cells finds those decimals for a chunk of floats at once, as Ryu
# (Adams, PLDI 2018) and Schubfach (Giulietti, 2020) do for one.  With
# x = m 2^e and 10^16 <= x 10^k < 10^17, x 10^k = m 5^k 2^-t (t = -e - k), so
# the exact product m 5^k (128 bits from 32-bit halves, as rng._words
# multiplies) gives D = floor(x 10^k) and its remainder, hence the 17-, 16-
# and 15-digit roundings of x.  The shortest of them within half an ulp of x
# (5^k / 2 in units of 2^-t; on the edge only for an even m, which reads
# back by ties-to-even) is the repr.  float.__repr__ formats what this rule
# leaves open: |x| outside [1e-4, 1e15), zeros, inf and NaN; an exact
# halfway rounding; D outside [10^16, 10^17 - 100), from a log10 exponent
# off by one or a rounding that carries into an 18th digit; and a
# power-of-two m, whose interval is lopsided.  (Below 1e15 an interval's
# edge has at least 19 significant digits and a power of two at most 15,
# so neither the edge rule nor the lopsided interval decides a repr there.)

# Values formatted at a time: few enough that a chunk's largest array, its
# cells, stays under glibc's default mmap threshold of 128 KiB.  Larger
# arrays raise that threshold as they are freed, and the heap then keeps
# what later allocations take (over fuzz-scalar benchmark rounds: a peak
# 1.5 MB above the repr version's at 8,192 values, 0.4 MB at 3,072).
_CSV_CHUNK = 3072
# A cell's bytes: a sign, places 10^15..10^0, ".", 10^-1..10^-20, and
# three for the separators that follow it; unused bytes are 0.
_CELL = 41
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
_POW10 = 10 ** np.arange(4)
_ARGMIN = CSV_HEADER.index("argmin")


@functools.cache
def _quad_text() -> np.ndarray:
    """The ASCII of each group of four digits 0000..9999 as one uint32, in
    four variants: as is, with its trailing zeros as 0 bytes, with its
    leading zeros so, and both."""
    quads = np.arange(10_000, dtype=np.int16)[:, None]
    digits = (quads // 10 ** np.arange(3, -1, -1, dtype=np.int16) % 10).astype(np.uint8)
    text = np.tile(digits + np.uint8(ord("0")), (4, 1, 1))
    text[1] *= np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.uint8)[:, ::-1] == 0
    text[2] *= np.cumprod(digits == 0, axis=1, dtype=np.uint8) == 0
    text[3] *= (text[1] != 0) & (text[2] != 0)
    return text.view(np.uint32).reshape(-1)


def _shortest_digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, k, fast) for |x| = ax: digits 10^-k is repr's decimal of x,
    17 digits with trailing zeros, where fast; float.__repr__ decides the
    rest."""
    bits = ax.view(np.uint64)
    m = bits & np.uint64((1 << 52) - 1)
    fast = (ax >= 1e-4) & (ax < 1e15) & (m != 0)
    m |= np.uint64(1 << 52)
    # Clipped to _POW5's range; the D check sends a wrong k to float.__repr__.
    k = np.clip(16 - np.floor(np.log10(np.where(fast, ax, 1.0))), 0, 20).astype(np.int64)
    t = (1075 - k - (bits >> np.uint64(52)).astype(np.int64)).astype(np.uint64)
    five = _POW5[k]
    low, half = np.uint64(0xFFFFFFFF), np.uint64(32)
    ml, mh, fl, fh = m & low, m >> half, five & low, five >> half
    ll = ml * fl
    middle = ml * fh + mh * fl + (ll >> half)
    product_low = (middle << half) | (ll & low)
    product_high = mh * fh + (middle >> half)
    d = ((product_high << (np.uint64(64) - t)) | (product_low >> t)).astype(np.int64)
    r = (product_low & ((np.uint64(1) << t) - np.uint64(1))).astype(np.int64)
    unit = (np.uint64(1) << t).astype(np.int64)
    fast &= (d >= 10**16) & (d < 10**17 - 100)
    # The roundings of x 10^k to multiples of q = 1, 10, 100: below and
    # above are its distances to the two nearest, in units of 2^-t.  The
    # last that reads back (2 min(below, above) < 5^k, or = for an even m)
    # is the shortest.
    limit = five.astype(np.int64) + ((m & np.uint64(1)) == 0)
    digits = np.zeros(len(ax), dtype=np.int64)
    for q in (1, 10, 100):
        base = d // q
        below = (d - base * q) * unit + r
        above = q * unit - below
        fast &= below != above
        rounded = (base + (below > above)) * q
        digits = np.where(2 * np.minimum(below, above) < limit, rounded, digits)
    return digits, k, fast & (digits > 0)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The cells (N, _CELL) uint8 whose nonzero bytes are repr(x[i]) in
    ASCII, for a float64 vector x."""
    n = len(x)
    digits, k, fast = _shortest_digits(np.abs(x))
    # digits 10^scale has its last digit at place -k - scale, a multiple of
    # 4, so its groups of four digits are words of a grid of the places
    # 10^15..10^-20 (high and tail hold its first 12 and last 8 digits),
    # the first from word (k + scale) / 4 - 1 on.  Its leading zeros in the
    # integer part and its trailing zeros in the fraction are written as 0
    # bytes, as is every place it does not cover but 10^0.
    scale = -k % 4
    high = digits // 10**8
    tail = (digits - high * 10**8) * _POW10[scale]
    high = high * _POW10[scale] + tail // 10**8
    tail -= tail // 10**8 * 10**8
    top = (k + scale) // 4 - 1
    at, table = np.arange(0, 9 * n, 9) + top, _quad_text()
    grid = np.zeros((n, 9), dtype=np.uint32)
    grid[:, 3] = np.frombuffer(b"\0\0\0" + b"0", dtype=np.uint32)[0]  # "0" at 10^0
    parts = (high // 10**8, high // 10**4, high, tail // 10**4, tail)
    zeros_after = np.ones(n, dtype=bool)  # every group after g is 0
    for g in range(4, -1, -1):
        quad = parts[g] - parts[g] // 10**4 * 10**4
        # The _quad_text variant: trailing zeros dropped in the fraction
        # (words 4-8), leading zeros in the integer part (words 0-3).
        variant = (zeros_after & (top + g >= 4)) + 2 * ((g == 0) & (top <= 3))
        grid.ravel()[at + g] = table[quad + 10_000 * variant]
        zeros_after &= quad == 0
    text = grid.view(np.uint8)
    cells = np.zeros((n, _CELL), dtype=np.uint8)
    cells[:, 0] = (x < 0) * ord("-")
    cells[:, 1:17], cells[:, 17], cells[:, 18:38] = text[:, :16], ord("."), text[:, 16:]
    cells[cells[:, 18] == 0, 18] = ord("0")  # an integer's ".0"
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = list(map(float.__repr__, x[slow].tolist()))
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        data = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
        start = slow * _CELL - (np.cumsum(lengths) - lengths)
        cells[slow] = 0
        cells.ravel()[np.repeat(start, lengths) + np.arange(len(data))] = data
    return cells


def _csv_lines(floats: np.ndarray, argmin: np.ndarray):
    """The text csv.writer writes for rows of floats (N, len(CSV_HEADER) - 1)
    and their argmin (1..3, one digit), a chunk of rows at a time."""
    rows = max(1, _CSV_CHUNK // floats.shape[1])
    for start in range(0, len(floats), rows):
        chunk = floats[start : start + rows]
        cells = _float_cells(chunk.ravel()).reshape(len(chunk), -1, _CELL)
        cells[:, :, -3] = ord(",")
        cells[:, _ARGMIN - 1, -2] = argmin[start : start + rows] + ord("0")
        cells[:, _ARGMIN - 1, -1] = ord(",")
        cells[:, -1, -3:-1] = np.frombuffer(b"\r\n", dtype=np.uint8)
        yield cells[cells != 0].tobytes().decode("ascii")


def cmd_compare(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= MAX_SEQUENCE_LENGTH:
        raise _UsageError(f"--n must be in 1..{MAX_SEQUENCE_LENGTH}")
    if args.samples < 0:
        raise _UsageError("--samples must be nonnegative")
    tol = _resolve_tolerance(args)
    entry = _REGISTRY[PS_IMPROVED]
    counts = np.zeros(4, dtype=int)  # of each argmin, 1-3
    try:
        target = None if args.csv is None else open(args.csv, "w", encoding="utf-8", newline="")
        with target or contextlib.nullcontext() as fh:
            # csv.writer's lines, a chunk of rows at a time (_csv_lines).
            if fh is not None:
                fh.write(f"{','.join(CSV_HEADER)}\r\n")
            for batch in _compare_batches(args):
                reports = entry.evaluate(batch, tol)
                details = reports.details
                argmin = details["argmin"]
                counts += np.bincount(argmin, minlength=4)
                if fh is not None:
                    residual = np.abs(details["equality_lhs"] - details["equality_rhs"])
                    floats = np.column_stack(
                        (batch[3], details["constants"], reports.lhs, reports.margin, residual)
                    )
                    fh.writelines(_csv_lines(floats, argmin))
    except OSError as exc:
        raise _UsageError(f"cannot write {args.csv}: {exc}") from exc
    samples, counts = int(counts.sum()), dict(zip((1, 2, 3), counts[1:].tolist()))
    if args.json:
        payload = {
            "samples": samples,
            "random_samples": args.samples,
            "constructed_families": samples - args.samples,
            "argmin_counts": {str(k): v for k, v in counts.items()},
            "csv": args.csv,
        }
        print(json.dumps(payload))
    else:
        print(f"samples: {samples} ({args.samples} random + {samples - args.samples} constructed)")
        print(
            "argmin counts: "
            f"first={counts[1]} second={counts[2]} third={counts[3]}"
        )
        if args.csv is not None:
            print(f"csv written: {args.csv}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    parser.add_argument(
        "--tol-rtol", type=float, default=None, metavar="R", help="relative tolerance override"
    )
    parser.add_argument(
        "--tol-atol", type=float, default=None, metavar="A", help="absolute tolerance override"
    )


# argparse keeps no state between parse_args calls, so one parser serves
# every main() call of a process.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rcsbounds",
        description="Evaluate reverse Cauchy-Schwarz bounds and their hypotheses.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_verify = sub.add_parser("verify", help="check one instance file")
    p_verify.add_argument("file", help="instance JSON path")
    _add_common_flags(p_verify, seed=False)
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="randomized campaign for one inequality")
    p_fuzz.add_argument("inequality_id", help="inequality to fuzz")
    p_fuzz.add_argument("--trials", type=int, default=1000, help="number of trials")
    p_fuzz.add_argument(
        "--dims", type=int, nargs="+", default=None, metavar="D",
        help="matrix dimensions d to draw from (default 1 2 4 8); not for the sequence ids",
    )
    p_fuzz.add_argument(
        "--replay", type=int, default=None, metavar="TRIAL", help="re-run one trial index"
    )
    _add_common_flags(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_sharp = sub.add_parser("sharpness", help="demonstrate the 1/4 constant")
    p_sharp.add_argument("--omega", type=complex, default=complex(1.0), help="lower window value")
    p_sharp.add_argument("--Omega", type=complex, default=complex(3.0), help="upper window value")
    p_sharp.add_argument("--dim", type=int, default=2, help="carrier dimension")
    p_sharp.add_argument(
        "--kind",
        choices=("vector_state", "trace", "weighted_sum"),
        default="vector_state",
        help="positive functional used for the witness",
    )
    _add_common_flags(p_sharp)
    p_sharp.set_defaults(func=cmd_sharpness)

    p_cmp = sub.add_parser("compare", help="constant-selection study for the refined bound")
    p_cmp.add_argument(
        "--n", type=int, default=8, help=f"sequence length per sample (1..{MAX_SEQUENCE_LENGTH})"
    )
    p_cmp.add_argument("--samples", type=int, default=10000, help="random window count")
    p_cmp.add_argument("--csv", default=None, metavar="PATH", help="write per-sample rows here")
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            _check_key("--seed", getattr(args, "seed", 0))
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        # Input near the double range can overflow on the way to a
        # verdict; the result says so, numpy's warnings would add lines.
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"rcsbounds: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Every file the commands open handles its own errors, so this is
        # stdout failing: a closed pipe or a full disk.  What is still
        # buffered goes to devnull, so the flush at exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"rcsbounds: error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
