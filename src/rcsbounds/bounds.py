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

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    _adjoint_symmetry,
    _coerce_argument,
    _form_eval,
    _omega_from_edges,
    _re_term,
    _root_commutation,
    form_eval,
)
from .matalg import (
    DEFAULT_TOL,
    DimMismatchError,
    KernelError,
    NotHermitianError,
    NotPositiveError,
    Tolerance,
    abs_element,
    as_element,
    is_normal,
    loewner_leq,
    re_part,
    spectrum_bounds,
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
    id's one evaluator, returns the reports of a batch of N instances,
    each independent of the others.  A batch is a tuple of columns:

    * "form", "functional_form": N forms of one kind, one per instance,
      x and y as (N, ...) arrays normalized by forms._coerce_argument, and
      N window pairs;
    * "operator_pair": (N, d, d) stacks t, s and an (N, d) stack of nonzero v;
    * "sequences": (N, n) stacks of a_seq, b_seq, w_seq and N windows.

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
        "sequences", lambda b, tol: _sequence_reports(INT_ADD, _additive_row, b, tol)
    ),
    INT_MULT: _Inequality(
        "sequences", lambda b, tol: _sequence_reports(INT_MULT, _multiplicative_row, b, tol)
    ),
    GREUB_RHEINBOLDT: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(GREUB_RHEINBOLDT, _greub_rheinboldt_row, b, tol),
    ),
    WEIGHTED_ADD: _Inequality(
        "sequences", lambda b, tol: _sequence_reports(WEIGHTED_ADD, _additive_row, b, tol)
    ),
    PS_MULT: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(PS_MULT, _product_row, b, tol),
        unit_weights=True,
    ),
    PS_ADD: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(PS_ADD, _classical_additive_row, b, tol),
        unit_weights=True,
    ),
    PS_IMPROVED: _Inequality(
        "sequences",
        lambda b, tol: _sequence_reports(PS_IMPROVED, _improved_row, b, tol),
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
    name = next(_HYPOTHESIS_CHECKS[c] for c in type(exc).__mro__ if c in _HYPOTHESIS_CHECKS)
    return BoundReport(
        inequality_id=inequality_id,
        preconditions=(PreconditionCheck(name, False, math.nan),),
        lhs=math.nan,
        rhs=math.nan,
        margin=math.nan,
        verdict=PRECONDITION_FAILED,
        details={"error": type(exc).__name__, "message": str(exc)},
    )


def _batch_of_one(payload: str, instance) -> tuple:
    """The batch (see _Inequality) holding one instance of the payload kind,
    a tuple as the public single-instance functions take it or, for
    "sequences", a WeightedSequences.  Runs their argument checks."""
    if payload == "sequences":
        return instance.a_seq[None], instance.b_seq[None], instance.w_seq[None], [instance.window]
    if payload == "operator_pair":
        t, s, v = instance
        tm = as_element(t)
        sm = as_element(s)
        vv = np.asarray(v, dtype=np.complex128).reshape(-1)
        if tm.shape != sm.shape or vv.size != tm.shape[0]:
            raise DimMismatchError("operator pair and vector dimensions disagree")
        if float(np.linalg.norm(vv)) == 0.0:
            raise ValueError("v must be nonzero")
        return tm[None], sm[None], vv[None]
    form, x, y, pair = instance
    return [form], _coerce_argument(form, x)[None], _coerce_argument(form, y)[None], [pair]


def _evaluate_one(inequality_id: str, instance, tol: Tolerance) -> BoundReport:
    """The report of inequality_id on one instance: its evaluator on the
    batch of one."""
    entry = _REGISTRY[inequality_id]
    return entry.evaluate(_batch_of_one(entry.payload, instance), tol)[0]


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


def _verdict(preconditions, holds: bool) -> str:
    if any(not p.passed for p in preconditions):
        return PRECONDITION_FAILED
    return HOLDS if holds else VIOLATED


def _scalar_report(
    inequality_id: str,
    preconditions: tuple[PreconditionCheck, ...],
    lhs: float,
    rhs: float,
    tol: Tolerance,
    details: Optional[dict] = None,
    size: float = 1.0,
) -> BoundReport:
    """Judge the margin at the larger of |lhs|, |rhs|, size (the size of
    the operands lhs cancels from) and 1."""
    margin = rhs - lhs
    scale = max(abs(lhs), abs(rhs), size, 1.0)
    holds = margin >= -tol.band(scale)
    return BoundReport(
        inequality_id=inequality_id,
        preconditions=preconditions,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        verdict=_verdict(preconditions, holds),
        details=details or {},
    )


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


def _positive_re_cross(pair: OmegaPair) -> float:
    """Re(conj(omega) * Omega), which the multiplicative bounds require positive."""
    re_cross = pair.re_cross()
    if re_cross <= 0.0:
        raise NonPositiveReOmegaError(
            f"Re(conj(omega) * Omega) = {re_cross:.6e} must be positive"
        )
    return re_cross


def _matrix_reports(
    inequality_id: str,
    forms: list[FormInstance],
    x: np.ndarray,
    y: np.ndarray,
    pairs: list[OmegaPair],
    tol: Tolerance,
) -> list[BoundReport]:
    """ADD_MATRIX or MULT_MATRIX reports for a "form" batch (see
    _Inequality).  Each form evaluation, square root, Re-term check,
    absolute value and Loewner margin is one call over the batch, so a
    report does not depend on the other instances."""
    if inequality_id == MULT_MATRIX:
        coeffs = [
            (abs(p.Omega) + abs(p.omega)) / math.sqrt(_positive_re_cross(p)) for p in pairs
        ]
    xx, yy, xy, yx = (_form_eval(forms, u, v) for u, v in ((x, x), (y, y), (x, y), (y, x)))
    re_term = _re_term(forms, x, y, pairs)
    s_ok, s_dev = _adjoint_symmetry(xy, yx, tol)
    if inequality_id == ADD_MATRIX:
        root = sqrt_psd(yy, tol)
        name = "root_commutation"
        ok, value = _root_commutation(root, xy, tol)
        lhs = re_part(root @ xx @ root - xy @ yx)
        quarter_spread = np.array([0.25 * p.spread() ** 2 for p in pairs])
        rhs = re_part(quarter_spread[:, None, None] * (yy @ yy))
    else:
        root_x = sqrt_psd(xx, tol)
        root_y = sqrt_psd(yy, tol)
        name = "cross_term_normal"
        ok, value = is_normal(xy, tol)
        lhs = re_part(root_x @ root_y + root_y @ root_x)
        rhs = re_part(np.array(coeffs)[:, None, None] * abs_element(xy, tol))
    r_ok, r_margin = loewner_leq(np.zeros_like(re_term), re_term, tol)
    holds, margin = loewner_leq(lhs, rhs, tol)
    reports = []
    for k, pair in enumerate(pairs):
        preconditions = (
            PreconditionCheck("adjoint_symmetry", bool(s_ok[k]), float(s_dev[k])),
            PreconditionCheck(name, bool(ok[k]), float(value[k])),
            PreconditionCheck("re_term_positive", bool(r_ok[k]), float(r_margin[k])),
        )
        details = {"omega": pair.omega, "Omega": pair.Omega}
        if inequality_id == MULT_MATRIX:
            details["coefficient"] = coeffs[k]
        reports.append(
            BoundReport(
                inequality_id=inequality_id,
                preconditions=preconditions,
                lhs=lhs[k],
                rhs=rhs[k],
                margin=float(margin[k]),
                verdict=_verdict(preconditions, bool(holds[k])),
                details=details,
            )
        )
    return reports


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
    inequality_id: str, forms: list, x, y, pairs: list[OmegaPair], tol: Tolerance
) -> list[BoundReport]:
    """ADD_FUNCTIONAL or MULT_FUNCTIONAL reports for a "functional_form"
    batch (see _Inequality): three form evaluations, one Re term and one
    Re check over the batch.  Each functional sums its own weighted trace,
    so a report does not depend on the other instances."""
    if inequality_id == MULT_FUNCTIONAL:
        for pair in pairs:
            _positive_re_cross(pair)
    fxx, fyy, cross = (_form_eval(forms, u, v)[:, 0, 0] for u, v in ((x, x), (y, y), (x, y)))
    re_term = _re_term(forms, x, y, pairs)
    values = zip(fxx.real, fyy.real, map(complex, cross))
    checks = zip(*loewner_leq(np.zeros_like(re_term), re_term, tol))
    return [
        _functional_report(inequality_id, *value, pair, check, tol)
        for value, pair, check in zip(values, pairs, checks)
    ]


def _functional_report(
    inequality_id: str,
    fxx: float,
    fyy: float,
    cross: complex,
    pair: OmegaPair,
    re_check,
    tol: Tolerance,
) -> BoundReport:
    """The ADD_FUNCTIONAL or MULT_FUNCTIONAL report from phi(x*x), phi(y*y),
    phi(y*x) and the Re check (ok, margin)."""
    preconditions = (PreconditionCheck("re_term_positive", bool(re_check[0]), float(re_check[1])),)
    details = {"omega": pair.omega, "Omega": pair.Omega}
    if inequality_id == ADD_FUNCTIONAL:
        lhs = fxx * fyy - abs(cross) ** 2
        rhs = 0.25 * pair.spread() ** 2 * fyy**2
    else:
        lhs = math.sqrt(max(fxx, 0.0)) * math.sqrt(max(fyy, 0.0))
        coeff = 0.5 * (abs(pair.Omega) + abs(pair.omega)) / math.sqrt(_positive_re_cross(pair))
        rhs = coeff * abs(cross)
        details["coefficient"] = coeff
    details.update(phi_xx=fxx, phi_yy=fyy, phi_yx=cross)
    return _scalar_report(inequality_id, preconditions, lhs, rhs, tol, details)


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
) -> list[BoundReport]:
    """OP_PAIR_ADD or OP_PAIR_MULT reports for an "operator_pair" batch (see
    _Inequality).  Both ids take both spectra and both window checks, ts
    and st, so they share their hypotheses; OP_PAIR_ADD builds the ts and
    st additive functional reports and their Re terms, OP_PAIR_MULT the ts
    multiplicative report and its Re term.  Each spectrum, window check,
    form evaluation and Re check runs once over the stack, so a report
    does not depend on the other instances.  The functional sides,
    rescaled by ||v||, are cross-checked against the closed forms."""
    lo_t, hi_t = spectrum_bounds(t, tol)
    lo_s, hi_s = spectrum_bounds(s, tol)
    pairs_ts = _omega_from_edges(t, s, (lo_t, hi_t), (lo_s, hi_s), tol)
    pairs_st = _omega_from_edges(s, t, (lo_s, hi_s), (lo_t, hi_t), tol)
    norms = [float(np.linalg.norm(vv)) for vv in v]
    forms = [
        FormInstance.functional_form(PositiveFunctional.vector_state(vv / nv))
        for vv, nv in zip(v, norms)
    ]
    phi_tt, phi_ss, phi_ts = (_form_eval(forms, a, b)[:, 0, 0] for a, b in ((t, t), (s, s), (t, s)))
    if inequality_id == OP_PAIR_ADD:
        # The Re terms of the ts and then the st reports.
        re_terms = _re_term(forms * 2, np.vstack((t, s)), np.vstack((s, t)), pairs_ts + pairs_st)
    else:
        re_terms = _re_term(forms, t, s, pairs_ts)
    re_ok, re_margin = loewner_leq(np.zeros_like(re_terms), re_terms, tol)
    reports = []
    for k, (tm, sm, vv, nv) in enumerate(zip(t, s, v, norms)):
        pair_ts, pair_st = pairs_ts[k], pairs_st[k]
        mt, Mt, ms, Ms = float(lo_t[k]), float(hi_t[k]), float(lo_s[k]), float(hi_s[k])
        fxx, fyy, phi_cross = phi_tt.real[k], phi_ss.real[k], complex(phi_ts[k])
        tv = tm @ vv
        sv = sm @ vv
        nt2 = float(np.vdot(tv, tv).real)
        ns2 = float(np.vdot(sv, sv).real)
        cross = complex(np.vdot(sv, tv))
        if inequality_id == OP_PAIR_MULT:
            rep = _functional_report(
                MULT_FUNCTIONAL, fxx, fyy, phi_cross, pair_ts, (re_ok[k], re_margin[k]), tol
            )
            lhs = rep.lhs * nv**2
            rhs = rep.rhs * nv**2
            ratio = (mt * ms) / (Mt * Ms)
            cf_rhs = 0.5 * (math.sqrt(ratio) + math.sqrt(1.0 / ratio)) * abs(cross)
            cf_lhs = math.sqrt(nt2) * math.sqrt(ns2)
            _cross_check("operator pair multiplicative", lhs, cf_lhs)
            _cross_check("operator pair multiplicative", rhs, cf_rhs)
            preconditions = rep.preconditions
            size = 1.0
            details = {"omega": pair_ts.omega, "Omega": pair_ts.Omega}
            details.update(closed_form_lhs=cf_lhs, closed_form_rhs=cf_rhs, cross=cross)
        else:
            check_ts, check_st = ((re_ok[j], re_margin[j]) for j in (k, len(v) + k))
            rep_ts = _functional_report(ADD_FUNCTIONAL, fxx, fyy, phi_cross, pair_ts, check_ts, tol)
            # phi(s*s), phi(t*t) and phi(t*s) = conj(phi(s*t)): only rhs and
            # preconditions of the st report are used.
            rep_st = _functional_report(
                ADD_FUNCTIONAL, fyy, fxx, phi_cross.conjugate(), pair_st, check_st, tol
            )
            preconditions = tuple(
                PreconditionCheck(f"{p.name}_{tag}", p.passed, p.value)
                for tag, rep in (("ts", rep_ts), ("st", rep_st))
                for p in rep.preconditions
            )
            scale4 = nv**4
            lhs = rep_ts.lhs * scale4
            rhs = min(rep_ts.rhs, rep_st.rhs) * scale4
            cf_lhs = nt2 * ns2 - abs(cross) ** 2
            half_gap = (Mt * Ms - mt * ms) / 2.0
            cf_rhs = half_gap**2 * min(ns2**2 / (Ms * ms) ** 2, nt2**2 / (Mt * mt) ** 2)
            # Both routes form lhs as a difference of two products of size
            # ||Tv||^2 ||Sv||^2, so they agree, and lhs is judged, to
            # rounding at that size.
            size = nt2 * ns2
            _cross_check("operator pair additive", lhs, cf_lhs, size)
            _cross_check("operator pair additive", rhs, cf_rhs)
            details = {
                "omega_ts": pair_ts.omega,
                "Omega_ts": pair_ts.Omega,
                "omega_st": pair_st.omega,
                "Omega_st": pair_st.Omega,
            }
            details.update(closed_form_lhs=cf_lhs, closed_form_rhs=cf_rhs)
            details.update(norm_tv_sq=nt2, norm_sv_sq=ns2, cross=cross)
        reports.append(_scalar_report(inequality_id, preconditions, lhs, rhs, tol, details, size))
    return reports


def _cross_check(label: str, via_functional: float, closed_form: float, size: float = 1.0) -> None:
    """Raise KernelError unless the two routes agree to 1e-9 relative of
    the larger of their results, size (the size of their operands) and 1."""
    scale = max(abs(via_functional), abs(closed_form), size, 1.0)
    if abs(via_functional - closed_form) > 1e-9 * scale:
        raise KernelError(
            f"{label}: functional route {via_functional!r} disagrees with "
            f"closed form {closed_form!r}"
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
        _check_sequences(a[None], b[None], w[None], [self.window])

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


def _check_sequences(a: np.ndarray, b: np.ndarray, w: np.ndarray, windows: Sequence) -> None:
    """The data checks of WeightedSequences on (N, n) stacks of a_seq, b_seq,
    w_seq and their N windows, all rows at once.  The first failing row
    raises what WeightedSequences raises on that row alone."""
    lo_a, hi_a, lo_b, hi_b = np.array([(x.a, x.A, x.b, x.B) for x in windows]).T[..., None]
    slack_a = 1e-12 * np.maximum(hi_a, 1.0)
    slack_b = 1e-12 * np.maximum(hi_b, 1.0)
    failed = np.array([  # (check, row), the checks of _SEQUENCE_ERRORS
        ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(w)),
        w <= 0.0,
        (a < lo_a - slack_a) | (a > hi_a + slack_a),
        (b < lo_b - slack_b) | (b > hi_b + slack_b),
    ]).any(axis=-1)
    rows = np.flatnonzero(failed.any(axis=0))
    if rows.size:
        error, message = _SEQUENCE_ERRORS[int(np.argmax(failed[:, rows[0]]))]
        raise error(message)


def _weighted_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sum w a^2, sum w b^2, sum w a b) over the last axis: for (N, n)
    stacks, three row reductions, each row bit-equal to its 1-D sum."""
    return tuple(np.sum(w * u * v, axis=-1) for u, v in ((a, a), (b, b), (a, b)))


def _sequence_reports(inequality_id: str, row: Callable, batch: tuple, tol: Tolerance):
    """The reports of a sequences id on a "sequences" batch (see
    _Inequality): the weighted sums of every row at once, then
    row(inequality_id, sa2, sb2, sab, window, tol) per instance, in Python
    floats.  The data of the whole batch (see _check_sequences) and, for a
    unit-weights id, its weights are checked once."""
    a, b, w, windows = batch
    _check_sequences(a, b, w, windows)
    if _REGISTRY[inequality_id].unit_weights and np.any(w != 1.0):
        raise ValueError(f"{inequality_id} requires unit weights (w_i = 1)")
    sums = zip(*(s.tolist() for s in _weighted_sums(a, b, w)))
    return [row(inequality_id, *s, win, tol) for s, win in zip(sums, windows)]


def _scaled_constants(
    sa2: float, sb2: float, sab: float, win: ScalarWindow
) -> tuple[float, float, float]:
    """((AB - ab)^2 / 4) * Ck for the three constants of the refined
    difference bound.  The first two are also the branches of the additive
    bound for weighted sums, the third is the classical difference bound."""
    gap = (win.A * win.B - win.a * win.b) ** 2 / 4.0
    return (
        gap * sa2 * sa2 / (win.A * win.a) ** 2,
        gap * sb2 * sb2 / (win.B * win.b) ** 2,
        gap * sab * sab / (win.a * win.b * win.A * win.B),
    )


def _additive_row(inequality_id, sa2, sb2, sab, win, tol) -> BoundReport:
    """The additive bound for weighted sums (INT_ADD, WEIGHTED_ADD)."""
    branch_a, branch_b, _ = _scaled_constants(sa2, sb2, sab, win)
    return _scalar_report(
        inequality_id,
        (),
        sa2 * sb2 - sab * sab,
        min(branch_a, branch_b),
        tol,
        details={"branch_a": branch_a, "branch_b": branch_b},
    )


def _multiplicative_sides(
    sa2: float, sb2: float, sab: float, win: ScalarWindow
) -> tuple[float, float, float]:
    lhs = math.sqrt(sa2) * math.sqrt(sb2)
    ratio = (win.a * win.b) / (win.A * win.B)
    coeff = 0.5 * (math.sqrt(ratio) + math.sqrt(1.0 / ratio))
    return lhs, coeff * sab, coeff


def _multiplicative_row(inequality_id, sa2, sb2, sab, win, tol) -> BoundReport:
    """The multiplicative bound for weighted sums (INT_MULT)."""
    lhs, rhs, coeff = _multiplicative_sides(sa2, sb2, sab, win)
    return _scalar_report(inequality_id, (), lhs, rhs, tol, details={"coefficient": coeff})


def _product_sides(
    sa2: float, sb2: float, sab: float, win: ScalarWindow
) -> tuple[float, float]:
    """lhs and rhs of the Greub-Rheinboldt product bound."""
    prod = win.A * win.B * win.a * win.b
    return sa2 * sb2, (win.A * win.B + win.a * win.b) ** 2 / (4.0 * prod) * sab * sab


def _greub_rheinboldt_row(inequality_id, sa2, sb2, sab, win, tol) -> BoundReport:
    """The product bound, cross-checked against the squared multiplicative
    sides (GREUB_RHEINBOLDT)."""
    lhs, rhs = _product_sides(sa2, sb2, sab, win)
    lhs_m, rhs_m, _ = _multiplicative_sides(sa2, sb2, sab, win)
    rhs_squared = rhs_m * rhs_m
    _cross_check("greub_rheinboldt rhs", rhs, rhs_squared)
    return _scalar_report(
        inequality_id,
        (),
        lhs,
        rhs,
        tol,
        details={
            "rhs_via_squared_multiplicative": rhs_squared,
            "margin_via_squared_multiplicative": rhs_squared - lhs,
            "lhs_via_squared_multiplicative": lhs_m * lhs_m,
        },
    )


def _product_row(inequality_id, sa2, sb2, sab, win, tol) -> BoundReport:
    """The classical product bound (PS_MULT)."""
    return _scalar_report(inequality_id, (), *_product_sides(sa2, sb2, sab, win), tol)


def _classical_additive_row(inequality_id, sa2, sb2, sab, win, tol) -> BoundReport:
    """The classical difference bound, the third constant (PS_ADD)."""
    constant = _scaled_constants(sa2, sb2, sab, win)[2]
    return _scalar_report(inequality_id, (), sa2 * sb2 - sab * sab, constant, tol)


def _improved_row(inequality_id, sa2, sb2, sab, win, tol) -> BoundReport:
    """The refined difference bound (PS_IMPROVED); see polya_szego_improved."""
    constants = _scaled_constants(sa2, sb2, sab, win)
    least = min(constants)
    threshold = least + 1e-12 * abs(least)
    argmin = next(i for i, c in enumerate(constants) if c <= threshold) + 1
    return _scalar_report(
        inequality_id,
        (),
        sa2 * sb2 - sab * sab,
        least,
        tol,
        details={
            "constants": list(constants),
            "argmin": argmin,
            "equality_lhs": sa2 / (win.A * win.a),
            "equality_rhs": sb2 / (win.B * win.b),
            "improvement_over_classical": constants[2] - least,
        },
    )


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
