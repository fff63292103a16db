"""Evaluators for reverse Cauchy-Schwarz bounds.

Every evaluator returns a BoundReport carrying both sides of its
inequality, the margin (how far the right side dominates the left), the
verdict, and the hypothesis checks that were run.  Margins are least
eigenvalues of rhs - lhs for matrix-valued bounds and plain differences
for scalar ones.  A verdict of PRECONDITION_FAILED means the hypotheses
were violated and the margin carries no claim.

Matrix-level bounds (the algebra-valued inequalities):

* additive_matrix_bound:
    <y,y>^(1/2) <x,x> <y,y>^(1/2) - <x,y><y,x>
        <= (1/4) |Omega - omega|^2 <y,y>^2
* multiplicative_matrix_bound:
    <x,x>^(1/2) <y,y>^(1/2) + <y,y>^(1/2) <x,x>^(1/2)
        <= (|Omega| + |omega|) / sqrt(Re(conj(omega) Omega)) * |<x,y>|

Scalar specializations (positive functionals, operator pairs, weighted
sequences) follow the same pattern; see the individual docstrings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import jsonio
from .forms import (
    FormError,
    FormInstance,
    NotCommutingError,
    NotStrictlyPositiveError,
    OmegaPair,
    PositiveFunctional,
    WindowCheckError,
    _FunctionalForms,
    _adjoint_symmetry,
    _coerce_argument,
    _form_eval,
    _pair_rows,
    _re_term,
    _root_commutation,
    _spectral_window,
    form_eval,
)
from .matalg import (
    DEFAULT_TOL,
    DimMismatchError,
    KernelError,
    NotHermitianError,
    NotPositiveError,
    Tolerance,
    _adjoint,
    _norms,
    _psd_root,
    abs_element,
    as_element,
    eig_hermitian_stack,
    is_normal,
    loewner_leq,
    re_part,
    sqrt_psd,
)

__all__ = [
    "HOLDS",
    "VIOLATED",
    "PRECONDITION_FAILED",
    "ADD_MATRIX",
    "MULT_MATRIX",
    "ADD_FUNCTIONAL",
    "MULT_FUNCTIONAL",
    "OP_PAIR_ADD",
    "OP_PAIR_MULT",
    "INT_ADD",
    "INT_MULT",
    "GREUB_RHEINBOLDT",
    "WEIGHTED_ADD",
    "PS_MULT",
    "PS_ADD",
    "PS_IMPROVED",
    "INEQUALITY_IDS",
    "HYPOTHESIS_ERRORS",
    "NonPositiveReOmegaError",
    "WindowViolationError",
    "DegenerateSpaceError",
    "PreconditionCheck",
    "BoundReport",
    "precondition_failed_report",
    "ScalarWindow",
    "WeightedSequences",
    "SharpnessResult",
    "OperatorPairResult",
    "IntegralBoundsResult",
    "ImprovedResult",
    "additive_matrix_bound",
    "multiplicative_matrix_bound",
    "functional_additive_bound",
    "functional_multiplicative_bound",
    "sharpness_witness",
    "operator_pair_bounds",
    "integral_bounds",
    "greub_rheinboldt",
    "weighted_additive",
    "polya_szego_multiplicative",
    "polya_szego_additive",
    "polya_szego_improved",
]

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
PRECONDITION_FAILED = "PRECONDITION_FAILED"

ADD_MATRIX = "ADD_MATRIX"
MULT_MATRIX = "MULT_MATRIX"
ADD_FUNCTIONAL = "ADD_FUNCTIONAL"
MULT_FUNCTIONAL = "MULT_FUNCTIONAL"
OP_PAIR_ADD = "OP_PAIR_ADD"
OP_PAIR_MULT = "OP_PAIR_MULT"
INT_ADD = "INT_ADD"
INT_MULT = "INT_MULT"
GREUB_RHEINBOLDT = "GREUB_RHEINBOLDT"
WEIGHTED_ADD = "WEIGHTED_ADD"
PS_MULT = "PS_MULT"
PS_ADD = "PS_ADD"
PS_IMPROVED = "PS_IMPROVED"


class NonPositiveReOmegaError(Exception):
    """Re(conj(omega) * Omega) <= 0: the multiplicative hypothesis fails."""


class WindowViolationError(Exception):
    """Sequence data falls outside its declared scalar window."""


class DegenerateSpaceError(Exception):
    """No unit vector orthogonal to y exists for the sharpness construction."""


@dataclass(frozen=True)
class _Inequality:
    """What one inequality id needs and runs.

    payload is the instance kind of the id: "form" (a FormInstance, x, y
    and an OmegaPair), "functional_form" (the same over a functional
    form), "operator_pair" (t, s, v) or "sequences" (a WeightedSequences,
    with every weight 1 when unit_weights).  evaluate(batch, tol), the
    id's one evaluator, returns the reports of a batch of N instances as
    columns (_Reports), each independent of the others.  A batch is a
    tuple of columns:

    * "form", "functional_form": N forms of one kind, one per instance (for
      "functional_form" one forms._FunctionalForms), x and y as (N, ...)
      arrays normalized by forms._coerce_argument, and N window pairs
      (OmegaPairs; for "functional_form" an (N, 2) array, forms._pair_rows);
    * "operator_pair": (N, d, d) stacks t, s and an (N, d) stack of nonzero v;
    * "sequences": (N, n) stacks of a_seq, b_seq, w_seq and the (N, 4)
      edges (a, A, b, B) of their windows, checked (_check_sequences).

    _batch_of_one makes the batch of a lone instance.  The callables look
    the evaluators up in this module when called, so a rebound evaluator
    is the one that runs.
    """

    payload: str
    evaluate: Callable
    unit_weights: bool = False


_REGISTRY = {
    ADD_MATRIX: _Inequality("form", lambda b, tol: _matrix_reports(ADD_MATRIX, *b, tol)),
    MULT_MATRIX: _Inequality("form", lambda b, tol: _matrix_reports(MULT_MATRIX, *b, tol)),
    ADD_FUNCTIONAL: _Inequality(
        "functional_form", lambda b, tol: _functional_reports(ADD_FUNCTIONAL, *b, tol)
    ),
    MULT_FUNCTIONAL: _Inequality(
        "functional_form", lambda b, tol: _functional_reports(MULT_FUNCTIONAL, *b, tol)
    ),
    OP_PAIR_ADD: _Inequality(
        "operator_pair", lambda b, tol: _operator_pair_reports(OP_PAIR_ADD, *b, tol)
    ),
    OP_PAIR_MULT: _Inequality(
        "operator_pair", lambda b, tol: _operator_pair_reports(OP_PAIR_MULT, *b, tol)
    ),
    INT_ADD: _Inequality(
        "sequences", lambda b, tol: _sequence_reports(INT_ADD, _additive_sides, b, tol)
    ),
    INT_MULT: _Inequality(
        "sequences", lambda b, tol: _sequence_reports(INT_MULT, _multiplicative_sides, b, tol)
    ),
    GREUB_RHEINBOLDT: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(GREUB_RHEINBOLDT, _greub_rheinboldt_sides, b, tol),
    ),
    WEIGHTED_ADD: _Inequality(
        "sequences", lambda b, tol: _sequence_reports(WEIGHTED_ADD, _additive_sides, b, tol)
    ),
    PS_MULT: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(PS_MULT, _product_sides, b, tol),
        unit_weights=True,
    ),
    PS_ADD: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(PS_ADD, _classical_additive_sides, b, tol),
        unit_weights=True,
    ),
    PS_IMPROVED: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(PS_IMPROVED, _improved_sides, b, tol),
        unit_weights=True,
    ),
}

INEQUALITY_IDS = tuple(_REGISTRY)

# The exceptions that mean an instance fails a hypothesis of its
# inequality, each with the name of the check it fails.  Any other exception
# (a solver failure, a failed cross-check, a dimension or value error) is
# no verdict and propagates.
_HYPOTHESIS_CHECKS = {
    NotHermitianError: "hermitian",
    NotPositiveError: "positive_semidefinite",
    FormError: "admissible_instance",
    NotCommutingError: "commuting",
    NotStrictlyPositiveError: "strictly_positive",
    WindowCheckError: "spectral_window",
    NonPositiveReOmegaError: "re_cross_positive",
    WindowViolationError: "sequences_in_window",
}
HYPOTHESIS_ERRORS = tuple(_HYPOTHESIS_CHECKS)


def precondition_failed_report(inequality_id: str, exc: Exception) -> BoundReport:
    """The PRECONDITION_FAILED report of an instance whose hypothesis check
    raised exc, one of HYPOTHESIS_ERRORS: one failed check, named after the
    nearest listed class of exc, the exception in details, and no sides or
    margin."""
    return _failed_reports(inequality_id, exc).reports()[0]


def _failed_reports(inequality_id: str, exc: Exception) -> _Reports:
    """precondition_failed_report as the columns of one row."""
    name = next(_HYPOTHESIS_CHECKS[c] for c in type(exc).__mro__ if c in _HYPOTHESIS_CHECKS)
    nan, details = np.array([math.nan]), {"error": [type(exc).__name__], "message": [str(exc)]}
    no = np.array([False])
    return _Reports(inequality_id, no, nan, nan, nan, ((name, no, nan),), details)


def _batch_of_one(payload: str, instance) -> tuple:
    """The batch (see _Inequality) holding one instance of the payload kind,
    a tuple as the public single-instance functions take it or, for
    "sequences", a WeightedSequences.  Runs their argument checks."""
    if payload == "sequences":
        edges = _window_edges([instance.window])
        return instance.a_seq[None], instance.b_seq[None], instance.w_seq[None], edges
    if payload == "operator_pair":
        t, s, v = instance
        tm = as_element(t)
        sm = as_element(s)
        vv = np.asarray(v, dtype=np.complex128).reshape(-1)
        if tm.shape != sm.shape or vv.size != tm.shape[0]:
            raise DimMismatchError("operator pair and vector dimensions disagree")
        # NaN for a NaN entry, inf for an infinite one or past overflow.
        norm2 = float(np.vdot(vv, vv).real)
        if not 0.0 < norm2 < math.inf:
            raise ValueError(
                f"v must be nonzero and finite, with ||v||^2 in the double range "
                f"(||v||^2 = {norm2:.3e})"
            )
        return tm[None], sm[None], vv[None]
    form, x, y, pair = instance
    x, y = _coerce_argument(form, x)[None], _coerce_argument(form, y)[None]
    if payload == "functional_form":
        return _FunctionalForms.of([form]), x, y, _pair_rows([pair])
    return [form], x, y, [pair]


def _evaluate_one(inequality_id: str, instance, tol: Tolerance) -> BoundReport:
    """The report of inequality_id on one instance: its evaluator on the
    batch of one."""
    entry = _REGISTRY[inequality_id]
    return entry.evaluate(_batch_of_one(entry.payload, instance), tol).reports()[0]


@dataclass(frozen=True)
class PreconditionCheck:
    """One named hypothesis check: deviation-style or margin-style value."""

    name: str
    passed: bool
    value: float


@dataclass(frozen=True)
class BoundReport:
    """Both sides of one inequality plus verdict and margin."""

    inequality_id: str
    preconditions: tuple[PreconditionCheck, ...]
    lhs: object
    rhs: object
    margin: float
    verdict: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "verdict": self.verdict,
            "margin": _encode_value(self.margin),
            "lhs": _encode_value(self.lhs),
            "rhs": _encode_value(self.rhs),
            "preconditions": [
                {"name": p.name, "passed": p.passed, "value": _encode_value(p.value)}
                for p in self.preconditions
            ],
            "details": {k: _encode_value(v) for k, v in self.details.items()},
        }


def _encode_value(v):
    if isinstance(v, np.ndarray):
        if v.ndim == 1:
            return jsonio.encode_vector(v)
        return jsonio.encode_matrix(v)
    if isinstance(v, (np.complexfloating, complex)):
        z = complex(v)
        if z.imag == 0.0:
            return z.real
        return jsonio.encode_complex(z)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return None if math.isnan(f) else f
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    if isinstance(v, dict):
        return {k: _encode_value(x) for k, x in v.items()}
    raise TypeError(f"cannot encode {type(v)!r}")


@dataclass(frozen=True)
class _Reports:
    """The reports of a batch of N instances as columns, row k the report
    of instance k: holds (whether the margin is within its band), margin,
    lhs and rhs as (N,) arrays (lhs and rhs (N, d, d) for a matrix-valued
    id), preconditions as (name, passed, value) with (N,) columns per
    check, and details as one (N,) or (N, m) column per key, in the order
    the JSON prints them.  A row's verdict is PRECONDITION_FAILED where a
    check failed, else HOLDS where it holds, else VIOLATED.  Campaigns
    reduce the passed, holds and margin columns; reports() builds the
    BoundReports where reports are returned."""

    inequality_id: str
    holds: np.ndarray
    margin: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    preconditions: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> np.ndarray:
        """Whether every precondition of a row passed, shape (N,)."""
        passed = np.ones(len(self.holds), dtype=bool)
        for _, column, _ in self.preconditions:
            passed = passed & column
        return passed

    def reports(self) -> list[BoundReport]:
        """The BoundReport of every row, its values Python scalars (matrix
        sides (d, d) arrays) as the JSON and the table print them."""
        checks = [
            [PreconditionCheck(name, *c) for c in zip(_rows(passed), _rows(value))]
            for name, passed, value in self.preconditions
        ]
        details = [_rows(column) for column in self.details.values()]
        sides = (_rows(c) for c in (self.lhs, self.rhs, self.margin, self.holds))
        rows = zip(*(zip(*c) if c else itertools.repeat(()) for c in (checks, details)), *sides)
        return [
            BoundReport(
                self.inequality_id, pre, lhs, rhs, margin, _verdict(pre, holds),
                dict(zip(self.details, values)),
            )
            for pre, values, lhs, rhs, margin, holds in rows
        ]


def _verdict(preconditions: tuple, holds: bool) -> str:
    """PRECONDITION_FAILED if a check failed, else HOLDS or VIOLATED."""
    if any(not p.passed for p in preconditions):
        return PRECONDITION_FAILED
    return HOLDS if holds else VIOLATED


def _rows(column) -> list:
    """The N rows of a column: (d, d) arrays of an (N, d, d) stack, else
    Python scalars or lists."""
    if not isinstance(column, np.ndarray):
        return list(column)
    return list(column) if column.ndim == 3 else column.tolist()


def _scalar_reports(
    inequality_id: str, lhs, rhs, tol: Tolerance, size=1.0, preconditions=(), details=None
) -> _Reports:
    """The reports of a scalar-valued id from (N,) sides, by the one verdict
    rule of every scalar id: the margin rhs - lhs holds at the band of the
    largest of |lhs|, |rhs|, size and 1, size the size of the products a
    cancelling lhs is formed from, whose rounding is no violation.  A row
    whose lhs, rhs or margin is not finite is no verdict: ValueError."""
    margin = rhs - lhs
    bad = ~(np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(margin))
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise ValueError(
            f"{inequality_id} values overflow the double range "
            f"(lhs = {float(lhs[k])!r}, rhs = {float(rhs[k])!r})"
        )
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), np.maximum(size, 1.0))
    holds = margin >= -tol.band(scale)
    return _Reports(inequality_id, holds, margin, lhs, rhs, preconditions, details or {})


def _pow2(x: np.ndarray) -> np.ndarray:
    """x ** 2 element by element as Python's float power takes it (libm
    pow, not x * x), with its OverflowError at a finite x."""
    with np.errstate(over="ignore"):
        square = np.float_power(x, 2.0)
    if np.any(np.isinf(square) & np.isfinite(x)):
        raise OverflowError(34, "Numerical result out of range")
    return square


def _divide(x, y: np.ndarray) -> np.ndarray:
    """x / y as Python divides floats: ZeroDivisionError at a zero divisor."""
    if not np.all(y):
        raise ZeroDivisionError("float division by zero")
    return x / y


def _hypot(z: np.ndarray) -> np.ndarray:
    """|z| as Python's abs(complex) takes it (libm hypot), unlike np.abs."""
    return np.hypot(z.real, z.imag)


# ---------------------------------------------------------------------------
# Matrix-valued bounds
# ---------------------------------------------------------------------------


def additive_matrix_bound(
    form: FormInstance, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Additive reverse bound for an algebra-valued form.

    lhs = <y,y>^(1/2) <x,x> <y,y>^(1/2) - <x,y><y,x>, which under the
    adjoint-symmetry hypothesis equals
    |<x,x>^(1/2) <y,y>^(1/2)|^2 - |<y,x>|^2.
    rhs = (1/4) |Omega - omega|^2 <y,y>^2.
    """
    return _evaluate_one(ADD_MATRIX, (form, x, y, pair), tol)


def multiplicative_matrix_bound(
    form: FormInstance, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Multiplicative reverse bound for an algebra-valued form.

    lhs = <x,x>^(1/2) <y,y>^(1/2) + <y,y>^(1/2) <x,x>^(1/2),
    rhs = (|Omega| + |omega|) / sqrt(Re(conj(omega) Omega)) * |<x,y>|.

    Requires Re(conj(omega) * Omega) > 0 and a normal <x, y>.
    """
    return _evaluate_one(MULT_MATRIX, (form, x, y, pair), tol)


def _positive_re_cross(re_cross: np.ndarray) -> np.ndarray:
    """The (N,) values Re(conj(omega) * Omega) of N window pairs, which the
    multiplicative bounds require positive: NonPositiveReOmegaError at the
    first that is not."""
    low = re_cross <= 0.0
    if np.count_nonzero(low):
        raise NonPositiveReOmegaError(
            f"Re(conj(omega) * Omega) = {re_cross[np.argmax(low)]:.6e} must be positive"
        )
    return re_cross


def _matrix_reports(
    inequality_id: str,
    forms: list[FormInstance],
    x: np.ndarray,
    y: np.ndarray,
    pairs: list[OmegaPair],
    tol: Tolerance,
) -> _Reports:
    """ADD_MATRIX or MULT_MATRIX reports for a "form" batch (see
    _Inequality).  Each form evaluation, square root, Re-term check,
    absolute value and Loewner margin is one call over the batch, so a
    report does not depend on the other instances.

    The first eigensolve of a report (<y, y> for ADD_MATRIX, <x, x> for
    MULT_MATRIX) starts cold; every later one starts in its eigenvectors,
    which diagonalize all of them when x and y commute (see matalg).  The
    basis lives only within this call."""
    if inequality_id == MULT_MATRIX:
        re_cross = _positive_re_cross(np.array([p.re_cross() for p in pairs])).tolist()
        coeffs = [(abs(p.Omega) + abs(p.omega)) / math.sqrt(c) for p, c in zip(pairs, re_cross)]
    xx, yy, xy, yx = (_form_eval(forms, u, v) for u, v in ((x, x), (y, y), (x, y), (y, x)))
    re_term = _re_term(forms, x, y, _pair_rows(pairs))
    s_ok, s_dev = _adjoint_symmetry(xy, yx, tol)
    if inequality_id == ADD_MATRIX:
        dec = eig_hermitian_stack(yy, tol)
        root = _psd_root(dec, tol)
        name = "root_commutation"
        ok, value = _root_commutation(root, xy, tol)
        lhs = re_part(root @ xx @ root - xy @ yx)
        quarter_spread = np.array([0.25 * p.spread() ** 2 for p in pairs])
        rhs = re_part(quarter_spread[:, None, None] * (yy @ yy))
    else:
        dec = eig_hermitian_stack(xx, tol)
        root_x = _psd_root(dec, tol)
        root_y = sqrt_psd(yy, tol, start=dec.eigenvectors)
        name = "cross_term_normal"
        ok, value = is_normal(xy, tol)
        lhs = re_part(root_x @ root_y + root_y @ root_x)
        absolute = abs_element(xy, tol, start=dec.eigenvectors)
        rhs = re_part(np.array(coeffs)[:, None, None] * absolute)
    r_ok, r_margin = loewner_leq(np.zeros_like(re_term), re_term, tol, start=dec.eigenvectors)
    holds, margin = loewner_leq(lhs, rhs, tol, start=dec.eigenvectors)
    preconditions = (
        ("adjoint_symmetry", s_ok, s_dev),
        (name, ok, value),
        ("re_term_positive", r_ok, r_margin),
    )
    details = {"omega": [p.omega for p in pairs], "Omega": [p.Omega for p in pairs]}
    if inequality_id == MULT_MATRIX:
        details["coefficient"] = coeffs
    return _Reports(inequality_id, holds, margin, lhs, rhs, preconditions, details)


# ---------------------------------------------------------------------------
# Positive-functional bounds
# ---------------------------------------------------------------------------


def functional_additive_bound(
    phi: PositiveFunctional, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Additive reverse bound for a positive functional.

    phi(x*x) phi(y*y) - |phi(y*x)|^2
        <= (1/4) |Omega - omega|^2 phi(y*y)^2

    under Re phi((x - omega y)* (Omega y - x)) >= 0.  Adjoint symmetry and
    commutation are automatic for scalar values, so only the Re condition
    is checked.
    """
    return _evaluate_one(ADD_FUNCTIONAL, (FormInstance.functional_form(phi), x, y, pair), tol)


def functional_multiplicative_bound(
    phi: PositiveFunctional, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Multiplicative reverse bound for a positive functional.

    phi(x*x)^(1/2) phi(y*y)^(1/2)
        <= (1/2) (|Omega| + |omega|) / sqrt(Re(conj(omega) Omega)) |phi(y*x)|
    """
    return _evaluate_one(MULT_FUNCTIONAL, (FormInstance.functional_form(phi), x, y, pair), tol)


def _functional_reports(
    inequality_id: str, forms: _FunctionalForms, x, y, pairs: np.ndarray, tol: Tolerance
) -> _Reports:
    """ADD_FUNCTIONAL or MULT_FUNCTIONAL reports for a "functional_form"
    batch (see _Inequality): three form evaluations, one Re term and one
    Re check over the batch, its functionals grouped by kind once
    (forms._FunctionalForms), and the sides as column expressions, |.| and
    ** 2 as Python takes them (_hypot, _pow2, and Re(conj(omega) Omega) as
    Python's complex product).  Each functional sums its own weighted
    trace, so a report does not depend on the other instances.
    The additive lhs is judged at phi(x*x) phi(y*y), the size it cancels from."""
    omega, Omega = pairs[:, 0], pairs[:, 1]
    if inequality_id == MULT_FUNCTIONAL:
        re_cross = _positive_re_cross(omega.real * Omega.real + omega.imag * Omega.imag)
    fxx, fyy, cross = (_form_eval(forms, u, v)[:, 0, 0] for u, v in ((x, x), (y, y), (x, y)))
    fxx, fyy = fxx.real, fyy.real
    re_term = _re_term(forms, x, y, pairs)
    preconditions = (("re_term_positive", *loewner_leq(np.zeros_like(re_term), re_term, tol)),)
    details = {"omega": omega, "Omega": Omega}
    size = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if inequality_id == ADD_FUNCTIONAL:
            size = fxx * fyy
            lhs = size - _pow2(_hypot(cross))
            rhs = 0.25 * _pow2(_hypot(Omega - omega)) * _pow2(fyy)
        else:
            lhs = np.sqrt(np.maximum(fxx, 0.0)) * np.sqrt(np.maximum(fyy, 0.0))
            coeff = 0.5 * (_hypot(Omega) + _hypot(omega)) / np.sqrt(re_cross)
            rhs = coeff * _hypot(cross)
            details["coefficient"] = coeff
        details.update(phi_xx=fxx, phi_yy=fyy, phi_yx=cross)
        return _scalar_reports(inequality_id, lhs, rhs, tol, size, preconditions, details)


# ---------------------------------------------------------------------------
# Sharpness witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessResult:
    """Witness x, companion direction z, its report, and the attained ratio."""

    x: np.ndarray
    z: np.ndarray
    report: BoundReport
    ratio: float


def _unit_candidates(phi: PositiveFunctional, vector_carrier: bool):
    k = phi.dim
    if vector_carrier:
        for i in range(k):
            e = np.zeros(k, dtype=np.complex128)
            e[i] = 1.0
            yield e
    else:
        for j in range(k):
            for i in range(k):
                e = np.zeros((k, k), dtype=np.complex128)
                e[i, j] = 1.0
                yield e


def sharpness_witness(
    phi: PositiveFunctional, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> SharpnessResult:
    """Construct x attaining the additive functional bound.

    With y normalized to phi(y*y) = 1 and z chosen so that phi(z*z) = 1,
    phi(z*y) = 0 (Gram-Schmidt against y under the phi scalar product),
    the witness is

        x = ((Omega + omega) / 2) y + ((Omega - omega) / 2) z.

    The attained ratio lhs / (|Omega - omega|^2 phi(y*y)^2) equals 1/4
    exactly; the Re term of the hypothesis vanishes for this x.

    Raises DegenerateSpaceError when no admissible z exists (for example
    a rank-one state with a one-dimensional carrier).
    """
    form = FormInstance.functional_form(phi)
    ya = np.asarray(y, dtype=np.complex128)
    vector_carrier = ya.ndim == 1
    norm2 = form_eval(form, ya, ya)[0, 0].real
    if norm2 <= tol.band(1.0):
        raise DegenerateSpaceError("phi(y*y) is not positive; cannot normalize y")
    y1 = ya / math.sqrt(norm2)

    def dot(u, v) -> complex:
        return complex(form_eval(form, u, v)[0, 0])

    z = None
    for cand in _unit_candidates(phi, vector_carrier):
        resid = cand - dot(cand, y1) * y1
        r2 = dot(resid, resid).real
        if r2 > 1e-10 * max(dot(cand, cand).real, 1.0):
            z = resid / math.sqrt(r2)
            break
    if z is None:
        raise DegenerateSpaceError(
            "no direction with phi(z*z) > 0 orthogonal to y under phi"
        )
    x = 0.5 * (pair.Omega + pair.omega) * y1 + 0.5 * (pair.Omega - pair.omega) * z
    report = functional_additive_bound(phi, x, y1, pair, tol)
    spread2 = pair.spread() ** 2
    fyy = report.details["phi_yy"]
    denom = spread2 * fyy**2
    ratio = float(report.lhs / denom) if denom > 0.0 else math.nan
    re_value = re_part(
        form_eval(form, pair.Omega * y1 - x, x - pair.omega * y1)
    )[0, 0].real
    report.details["re_term_value"] = re_value
    report.details["ratio"] = ratio
    return SharpnessResult(x=x, z=z, report=report, ratio=ratio)


# ---------------------------------------------------------------------------
# Commuting operator pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorPairResult:
    additive: BoundReport
    multiplicative: BoundReport


def operator_pair_bounds(t, s, v, tol: Tolerance = DEFAULT_TOL) -> OperatorPairResult:
    """Reverse bounds for ||Tv||, ||Sv|| with T, S commuting strictly positive.

    Evaluated through the functional phi(R) = <R v, v> (normalized
    internally, then rescaled), with the window pairs coming from the
    spectra of T and S.  The closed-form sides computed directly from
    ||Tv||, ||Sv||, <Tv, Sv> and the spectral edges are carried in the
    report details and cross-checked against the functional route.

    additive (the OP_PAIR_ADD report):
        ||Tv||^2 ||Sv||^2 - |<Tv, Sv>|^2
            <= ((Mt Ms - mt ms) / 2)^2
               * min(||Sv||^4 / (Ms ms)^2, ||Tv||^4 / (Mt mt)^2)
    multiplicative (the OP_PAIR_MULT report):
        ||Tv|| ||Sv|| <= (1/2) (sqrt(mt ms / (Mt Ms)) + sqrt(Mt Ms / (mt ms)))
                         * |<Tv, Sv>|

    with m/M the least/greatest eigenvalues of the respective operator.
    The additive lhs cancels from products of size ||Tv||^2 ||Sv||^2, so
    its cross-check and its verdict band are taken at that size.  Each
    report is its id's evaluator on the batch of one, OP_PAIR_ADD first.
    """
    return OperatorPairResult(
        *(_evaluate_one(i, (t, s, v), tol) for i in (OP_PAIR_ADD, OP_PAIR_MULT))
    )


def _operator_pair_reports(
    inequality_id: str, t: np.ndarray, s: np.ndarray, v: np.ndarray, tol: Tolerance
) -> _Reports:
    """OP_PAIR_ADD or OP_PAIR_MULT reports for an "operator_pair" batch (see
    _Inequality), every value computed over the whole (N, d, d) stack.

    Both ids take the spectra of t and s and check both windows, ts and
    st, in one joint eigenbasis (forms._spectral_window), so they share
    their hypotheses.  The functional route evaluates the vector state
    phi(R) = <R u, u>, u = v / ||v||, on stacked products R = b* a
    (_state_values): phi(t* t), phi(s* s), phi(s* t) and the Re term of
    each window the id checks, ts and, for OP_PAIR_ADD, st, with one
    stacked Re check.  The id's builder forms its sides from these, rescaled
    by ||v||, and its closed forms from Tv and Sv; the two routes are
    cross-checked over the stack, and a slice whose values leave the
    double range is an error, never a verdict.  No step reduces over the
    batch axis, so a report does not depend on the other instances."""
    additive = inequality_id == OP_PAIR_ADD
    edges = _spectral_window(t, s, tol, mirrored=True)
    lo_t, hi_t, lo_s, hi_s = edges
    # The window pairs (omega, Omega) whose Re terms the id checks, ts and,
    # for OP_PAIR_ADD, st, each with its arguments (x, y).
    windows = [(lo_t / hi_s, hi_t / lo_s), (lo_s / hi_t, hi_s / lo_t)][: 1 + additive]
    args = list(zip([(t, s), (s, t)], windows))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norms(v[:, None, :])
        a = [t, s, t] + [Omega[:, None, None] * y - x for (x, y), (_, Omega) in args]
        b = [t, s, s] + [x - omega[:, None, None] * y for (x, y), (omega, _) in args]
        phi = _state_values(v / norm[:, None], np.concatenate(a), np.concatenate(b))
        phi = phi.reshape(len(a), len(v))
        tv, sv = t @ v[..., None], s @ v[..., None]
        nt2, ns2 = _inner(tv, tv).real, _inner(sv, sv).real
        cross = _inner(sv, tv)
        build = _additive_pair_sides if additive else _multiplicative_pair_sides
        lhs, rhs, size, closed, details = build(edges, windows, norm, phi[:3], nt2, ns2, cross)
        margin = rhs - lhs
    re_terms = phi[3:].real
    bad = ~np.isfinite(np.vstack((lhs, rhs, margin, *closed, re_terms))).all(axis=0)
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise ValueError(
            f"operator pair values overflow the double range (||v|| = {norm[k]:.3e}, "
            f"||Tv||^2 = {nt2[k]:.3e}, ||Sv||^2 = {ns2[k]:.3e})"
        )
    re_terms = re_terms.reshape(-1, 1, 1)
    re_ok, re_margin = loewner_leq(np.zeros_like(re_terms), re_terms, tol)
    label = "operator pair additive" if additive else "operator pair multiplicative"
    _cross_check(label, lhs, closed[0], size)
    _cross_check(label, rhs, closed[1])
    names = ["re_term_positive_ts", "re_term_positive_st"] if additive else ["re_term_positive"]
    preconditions = tuple(zip(names, re_ok.reshape(-1, len(v)), re_margin.reshape(-1, len(v))))
    return _scalar_reports(inequality_id, lhs, rhs, tol, size, preconditions, details)


def _state_values(u: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The vector states phi(R) = <R u, u> of unit vectors u, shape (N, d),
    on the products R = b* a of (K N, d, d) stacks a and b, slice j taking
    the state of row j mod N: the (K N,) values, each formed on its own
    slice as PositiveFunctional.value forms it."""
    w = np.tile(u, (len(a) // len(u), 1))[..., None]
    return _inner(w, (_adjoint(b) @ a) @ w)


def _inner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The inner products sum(conj(p[k]) q[k]), as np.vdot takes them, of
    (N, d, 1) stacks of columns: shape (N,)."""
    return (p.conj().swapaxes(1, 2) @ q)[:, 0, 0]


def _multiplicative_pair_sides(edges, windows, norm, phi, nt2, ns2, cross):
    """OP_PAIR_MULT's sides from the setup of _operator_pair_reports: lhs
    and rhs of the multiplicative functional bound on the ts window,
    rescaled by ||v||^2, the size 1 they are judged at, the closed forms
    ||Tv|| ||Sv|| and (1/2) (sqrt(mt ms / (Mt Ms)) + sqrt(Mt Ms / (mt ms)))
    |<Tv, Sv>|, and the report details as (N,) columns."""
    lo_t, hi_t, lo_s, hi_s = edges
    ((omega, Omega),) = windows
    fxx, fyy, phi_cross = phi[0].real, phi[1].real, phi[2]
    re_cross = _positive_re_cross(omega * Omega)
    coeff = 0.5 * (np.abs(Omega) + np.abs(omega)) / np.sqrt(re_cross)
    scale2 = norm**2
    lhs = np.sqrt(np.maximum(fxx, 0.0)) * np.sqrt(np.maximum(fyy, 0.0)) * scale2
    rhs = coeff * np.abs(phi_cross) * scale2
    ratio = (lo_t * lo_s) / (hi_t * hi_s)
    cf_lhs = np.sqrt(nt2) * np.sqrt(ns2)
    cf_rhs = 0.5 * (np.sqrt(ratio) + np.sqrt(1.0 / ratio)) * np.abs(cross)
    details = {"omega": omega + 0j, "Omega": Omega + 0j}
    details.update(closed_form_lhs=cf_lhs, closed_form_rhs=cf_rhs, cross=cross)
    return lhs, rhs, 1.0, (cf_lhs, cf_rhs), details


def _additive_pair_sides(edges, windows, norm, phi, nt2, ns2, cross):
    """OP_PAIR_ADD's sides from the setup of _operator_pair_reports: lhs of
    the additive functional bound on the ts window and the lesser rhs of
    the ts and st windows, rescaled by ||v||^4, the size ||Tv||^2 ||Sv||^2
    they are judged at, the closed forms of operator_pair_bounds, and the
    report details as (N,) columns.  Both routes form lhs as a difference
    of two products of that size, so they agree, and lhs is judged, to
    rounding at that size."""
    lo_t, hi_t, lo_s, hi_s = edges
    (omega_ts, Omega_ts), (omega_st, Omega_st) = windows
    fxx, fyy, phi_cross = phi[0].real, phi[1].real, phi[2]
    # phi(s* s), phi(t* t) and phi(t* s) = conj(phi(s* t)) are the st
    # window's values: only its rhs is used.
    rhs_ts = 0.25 * np.abs(Omega_ts - omega_ts) ** 2 * fyy**2
    rhs_st = 0.25 * np.abs(Omega_st - omega_st) ** 2 * fxx**2
    scale4 = norm**4
    lhs = (fxx * fyy - np.abs(phi_cross) ** 2) * scale4
    rhs = np.minimum(rhs_ts, rhs_st) * scale4
    cf_lhs = nt2 * ns2 - np.abs(cross) ** 2
    half_gap = (hi_t * hi_s - lo_t * lo_s) / 2.0
    cf_rhs = half_gap**2 * np.minimum(ns2**2 / (hi_s * lo_s) ** 2, nt2**2 / (hi_t * lo_t) ** 2)
    details = {"omega_ts": omega_ts + 0j, "Omega_ts": Omega_ts + 0j}
    details.update(omega_st=omega_st + 0j, Omega_st=Omega_st + 0j)
    details.update(closed_form_lhs=cf_lhs, closed_form_rhs=cf_rhs)
    details.update(norm_tv_sq=nt2, norm_sv_sq=ns2, cross=cross)
    return lhs, rhs, nt2 * ns2, (cf_lhs, cf_rhs), details


def _cross_check(label: str, via_functional, closed_form, size=1.0) -> None:
    """Raise KernelError unless the two routes agree to 1e-9 relative of
    the larger of their results, size (the size of their operands) and 1:
    floats, or (N,) arrays compared slice by slice, the first slice that
    disagrees raising."""
    a, b = np.atleast_1d(via_functional, closed_form)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(size, 1.0))
    off = np.abs(a - b) > 1e-9 * scale
    if np.count_nonzero(off):
        k = int(np.argmax(off))
        raise KernelError(
            f"{label}: functional route {float(a[k])!r} disagrees with "
            f"closed form {float(b[k])!r}"
        )


# ---------------------------------------------------------------------------
# Weighted sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarWindow:
    """Window 0 < a <= values <= A and 0 < b <= values <= B, A and B finite."""

    a: float
    A: float
    b: float
    B: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a <= self.A < math.inf) or not (0.0 < self.b <= self.B < math.inf):
            raise WindowViolationError(
                f"window must satisfy 0 < a <= A < inf and 0 < b <= B < inf, got "
                f"(a={self.a}, A={self.A}, b={self.b}, B={self.B})"
            )


@dataclass(frozen=True)
class WeightedSequences:
    """Finite sequences a_i in [a, A], b_i in [b, B] with positive weights."""

    a_seq: np.ndarray
    b_seq: np.ndarray
    w_seq: np.ndarray
    window: ScalarWindow

    def __post_init__(self) -> None:
        a = np.asarray(self.a_seq, dtype=np.float64)
        b = np.asarray(self.b_seq, dtype=np.float64)
        w = np.asarray(self.w_seq, dtype=np.float64)
        object.__setattr__(self, "a_seq", a)
        object.__setattr__(self, "b_seq", b)
        object.__setattr__(self, "w_seq", w)
        if not (a.ndim == b.ndim == w.ndim == 1) or not (a.size == b.size == w.size):
            raise DimMismatchError("sequences and weights must share one length")
        if a.size < 1:
            raise DimMismatchError("sequences must be nonempty")
        _check_sequences(a[None], b[None], w[None], _window_edges([self.window]))

    @property
    def n(self) -> int:
        return int(self.a_seq.size)

    def sums(self) -> tuple[float, float, float]:
        """(sum w a^2, sum w b^2, sum w a b)."""
        return tuple(float(v) for v in _weighted_sums(self.a_seq, self.b_seq, self.w_seq))

    def to_dict(self) -> dict:
        return {
            "a_seq": [float(v) for v in self.a_seq],
            "b_seq": [float(v) for v in self.b_seq],
            "w_seq": [float(v) for v in self.w_seq],
            "window": {
                "a": self.window.a,
                "A": self.window.A,
                "b": self.window.b,
                "B": self.window.B,
            },
        }

    @classmethod
    def from_dict(cls, obj: dict, path: str = "$") -> "WeightedSequences":
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: weighted sequences must be an object")
        win = obj.get("window")
        if not isinstance(win, dict):
            raise ValueError(f"{path}.window: must be an object")
        try:
            window = ScalarWindow(
                a=float(win["a"]), A=float(win["A"]), b=float(win["b"]), B=float(win["B"])
            )
        except KeyError as exc:
            raise ValueError(f"{path}.window: missing key {exc}") from exc
        seqs = {}
        for name in ("a_seq", "b_seq", "w_seq"):
            raw = obj.get(name)
            if not isinstance(raw, list) or not raw:
                raise ValueError(f"{path}.{name}: must be a nonempty array of numbers")
            seqs[name] = np.asarray(raw, dtype=np.float64)
        try:
            return cls(seqs["a_seq"], seqs["b_seq"], seqs["w_seq"], window)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


# What WeightedSequences raises for each of its data checks, in order: finite
# data, positive weights, a_i in [a, A] and b_i in [b, B] up to a slack of
# 1e-12 * max(A, 1) and 1e-12 * max(B, 1).
_SEQUENCE_ERRORS = (
    (ValueError, "sequence data must be finite"),
    (ValueError, "weights must be strictly positive"),
    (WindowViolationError, "a_seq leaves the window [a, A]"),
    (WindowViolationError, "b_seq leaves the window [b, B]"),
)


def _window_edges(windows: Sequence[ScalarWindow]) -> np.ndarray:
    """The (N, 4) edges (a, A, b, B) of N windows, as a "sequences" batch holds them."""
    return np.array([(x.a, x.A, x.b, x.B) for x in windows], dtype=np.float64)


_SLACK_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])


def _check_sequences(a: np.ndarray, b: np.ndarray, w: np.ndarray, edges: np.ndarray) -> None:
    """The data checks of WeightedSequences on (N, n) stacks of a_seq, b_seq,
    w_seq and the (N, 4) edges of their windows, all rows at once.  The first
    failing row raises what WeightedSequences raises on that row alone."""
    # Each window edge moved out by its slack: a - slack_a, A + slack_a, ...
    slack = 1e-12 * np.maximum(edges[:, [1, 1, 3, 3]], 1.0)
    low_a, high_a, low_b, high_b = (edges + _SLACK_SIGNS * slack).T[..., None]
    # With the finite edges of valid windows, every check passes when each
    # a and b lies in its slackened window and each w in (0, inf), which
    # NaN and infinite data fail.
    inside = (low_a <= a) & (a <= high_a) & (low_b <= b) & (b <= high_b)
    if (inside & (0.0 < w) & (w < math.inf)).all():
        return
    failed = np.array([  # (check, row), the checks of _SEQUENCE_ERRORS
        ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(w)),
        w <= 0.0,
        (a < low_a) | (a > high_a),
        (b < low_b) | (b > high_b),
    ]).any(axis=-1)
    rows = np.flatnonzero(failed.any(axis=0))
    if rows.size:
        error, message = _SEQUENCE_ERRORS[int(np.argmax(failed[:, rows[0]]))]
        raise error(message)


def _weighted_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sum w a^2, sum w b^2, sum w a b) over the last axis: for (N, n)
    stacks, three row reductions, each row bit-equal to its 1-D sum."""
    return tuple(np.add.reduce(w * u * v, axis=-1) for u, v in ((a, a), (b, b), (a, b)))


def _sequence_reports(inequality_id: str, sides: Callable, batch: tuple, tol: Tolerance) -> _Reports:
    """The reports of a sequences id on a "sequences" batch (see
    _Inequality): the weighted sums of every row at once, then the id's
    sides(sa2, sb2, sab, window) as column expressions, window the (N,)
    edge columns (a, A, b, B): lhs, rhs, the size of the products lhs
    cancels from (1 if it does not) and the details.  ** 2, / and min are
    taken as Python takes them on one row (_pow2, _divide, _min), so an
    overflowing power or a zero divisor raises.  The batch's data were
    checked where it was built (WeightedSequences, harness._sequence_batch);
    for a unit-weights id its weights are checked here."""
    a, b, w, edges = batch
    if _REGISTRY[inequality_id].unit_weights and np.any(w != 1.0):
        raise ValueError(f"{inequality_id} requires unit weights (w_i = 1)")
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs, size, details = sides(*_weighted_sums(a, b, w), tuple(edges.T))
        return _scalar_reports(inequality_id, lhs, rhs, tol, size, details=details)


def _min(*columns: np.ndarray) -> np.ndarray:
    """Python's min of each row of the columns: the first least value."""
    least = columns[0]
    for c in columns[1:]:
        least = np.where(c < least, c, least)
    return least


def _scaled_constants(sa2, sb2, sab, win) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """((AB - ab)^2 / 4) * Ck for the three constants of the refined
    difference bound, win the window edges (a, A, b, B).  The first two are
    also the branches of the additive bound for weighted sums, the third is
    the classical difference bound."""
    a, A, b, B = win
    gap = _pow2(A * B - a * b) / 4.0
    return (
        _divide(gap * sa2 * sa2, _pow2(A * a)),
        _divide(gap * sb2 * sb2, _pow2(B * b)),
        _divide(gap * sab * sab, a * b * A * B),
    )


def _additive_sides(sa2, sb2, sab, win) -> tuple:
    """The additive bound for weighted sums (INT_ADD, WEIGHTED_ADD)."""
    branch_a, branch_b, _ = _scaled_constants(sa2, sb2, sab, win)
    details = {"branch_a": branch_a, "branch_b": branch_b}
    return sa2 * sb2 - sab * sab, _min(branch_a, branch_b), sa2 * sb2, details


def _multiplicative_sides(sa2, sb2, sab, win) -> tuple:
    """The multiplicative bound for weighted sums (INT_MULT)."""
    a, A, b, B = win
    lhs = np.sqrt(sa2) * np.sqrt(sb2)
    ratio = _divide(a * b, A * B)
    coeff = 0.5 * (np.sqrt(ratio) + np.sqrt(_divide(1.0, ratio)))
    return lhs, coeff * sab, 1.0, {"coefficient": coeff}


def _product_sides(sa2, sb2, sab, win) -> tuple:
    """The classical product bound (PS_MULT)."""
    a, A, b, B = win
    prod = A * B * a * b
    return sa2 * sb2, _divide(_pow2(A * B + a * b), 4.0 * prod) * sab * sab, 1.0, {}


def _greub_rheinboldt_sides(sa2, sb2, sab, win) -> tuple:
    """The product bound, cross-checked against the squared multiplicative
    sides (GREUB_RHEINBOLDT)."""
    lhs, rhs, *_ = _product_sides(sa2, sb2, sab, win)
    lhs_m, rhs_m, *_ = _multiplicative_sides(sa2, sb2, sab, win)
    rhs_squared = rhs_m * rhs_m
    _cross_check("greub_rheinboldt rhs", rhs, rhs_squared)
    details = {
        "rhs_via_squared_multiplicative": rhs_squared,
        "margin_via_squared_multiplicative": rhs_squared - lhs,
        "lhs_via_squared_multiplicative": lhs_m * lhs_m,
    }
    return lhs, rhs, 1.0, details


def _classical_additive_sides(sa2, sb2, sab, win) -> tuple:
    """The classical difference bound, the third constant (PS_ADD)."""
    return sa2 * sb2 - sab * sab, _scaled_constants(sa2, sb2, sab, win)[2], sa2 * sb2, {}


def _improved_sides(sa2, sb2, sab, win) -> tuple:
    """The refined difference bound (PS_IMPROVED); see polya_szego_improved."""
    a, A, b, B = win
    constants = _scaled_constants(sa2, sb2, sab, win)
    least = _min(*constants)
    threshold = least + 1e-12 * np.abs(least)
    c1, c2, _ = (c <= threshold for c in constants)
    details = {
        "constants": np.array(constants).T,
        "argmin": np.where(c1, 1, np.where(c2, 2, 3)),
        "equality_lhs": _divide(sa2, A * a),
        "equality_rhs": _divide(sb2, B * b),
        "improvement_over_classical": constants[2] - least,
    }
    return sa2 * sb2 - sab * sab, least, sa2 * sb2, details


@dataclass(frozen=True)
class IntegralBoundsResult:
    additive: BoundReport
    multiplicative: BoundReport


def integral_bounds(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> IntegralBoundsResult:
    """Reverse bounds for weighted sums (finite measure-space case).

    With S_ff = sum w a^2, S_gg = sum w b^2, S_fg = sum w a b:

    additive:
        S_ff S_gg - S_fg^2
            <= ((AB - ab)^2 / 4) * min(S_gg^2 / (Bb)^2, S_ff^2 / (Aa)^2)
    multiplicative:
        sqrt(S_ff) sqrt(S_gg)
            <= (1/2) (sqrt(ab / AB) + sqrt(AB / ab)) * S_fg
    """
    return IntegralBoundsResult(
        additive=_evaluate_one(INT_ADD, data, tol),
        multiplicative=_evaluate_one(INT_MULT, data, tol),
    )


def greub_rheinboldt(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Greub-Rheinboldt inequality for weighted sequences.

    sum(w a^2) sum(w b^2) <= ((AB + ab)^2 / (4 AB ab)) * (sum(w a b))^2.

    The report details carry the same bound obtained by squaring the
    multiplicative sides, which agrees algebraically; both routes are
    cross-checked.
    """
    return _evaluate_one(GREUB_RHEINBOLDT, data, tol)


def weighted_additive(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Additive reverse bound for weighted sequences: the additive half of
    integral_bounds, kept as its own inequality id."""
    return _evaluate_one(WEIGHTED_ADD, data, tol)


def polya_szego_multiplicative(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Classical product bound for unweighted sequences, greub_rheinboldt
    with unit weights:

    sum(a^2) sum(b^2) <= ((ab + AB)^2 / (4 ab AB)) * (sum(a b))^2.
    """
    return _evaluate_one(PS_MULT, data, tol)


def polya_szego_additive(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Classical difference bound for unweighted sequences, the third
    constant of polya_szego_improved:

    sum(a^2) sum(b^2) - (sum(a b))^2
        <= ((AB - ab)^2 / (4 ab AB)) * (sum(a b))^2.
    """
    return _evaluate_one(PS_ADD, data, tol)


@dataclass(frozen=True)
class ImprovedResult:
    """Three-constant refinement of the classical difference bound."""

    report: BoundReport
    constants: tuple[float, float, float]
    argmin: int
    equality_lhs: float
    equality_rhs: float
    equality_holds: bool
    classical_multiplicative: BoundReport
    classical_additive: BoundReport


def polya_szego_improved(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> ImprovedResult:
    """Refined difference bound taking the least of three constants.

    sum(a^2) sum(b^2) - (sum ab)^2 <= ((AB - ab)^2 / 4) * min(C1, C2, C3)
    with
        C1 = (sum a^2)^2 / (Aa)^2,
        C2 = (sum b^2)^2 / (Bb)^2,
        C3 = (sum ab)^2 / (ab AB).

    The stored constants are the scaled values ((AB - ab)^2 / 4) * Ck.
    The third constant reproduces the classical difference bound, so the
    refinement never does worse.  Equality of the first two scaled
    constants is governed by sum(a^2) / (Aa) = sum(b^2) / (Bb); both sides
    of that condition are reported.  Ties in the argmin resolve to the
    lowest index among constants within 1e-12 relative of the least.
    """
    report, classical_mult, classical_add = (
        _evaluate_one(i, data, tol) for i in (PS_IMPROVED, PS_MULT, PS_ADD)
    )
    details = report.details
    eq_lhs = details["equality_lhs"]
    eq_rhs = details["equality_rhs"]
    eq_scale = max(abs(eq_lhs), abs(eq_rhs), 1.0)
    return ImprovedResult(
        report=report,
        constants=tuple(details["constants"]),
        argmin=details["argmin"],
        equality_lhs=eq_lhs,
        equality_rhs=eq_rhs,
        equality_holds=abs(eq_lhs - eq_rhs) <= tol.band(eq_scale),
        classical_multiplicative=classical_mult,
        classical_additive=classical_add,
    )
