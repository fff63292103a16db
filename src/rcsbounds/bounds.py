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
from typing import Callable, Optional

import numpy as np

from . import jsonio
from .forms import (
    FormInstance,
    OmegaPair,
    PositiveFunctional,
    _adjoint_symmetry,
    _form_eval,
    _omega_from_edges,
    _re_term,
    _root_commutation,
    check_re_condition,
    form_eval,
)
from .matalg import (
    DEFAULT_TOL,
    DimMismatchError,
    KernelError,
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
    "NonPositiveReOmegaError",
    "WindowViolationError",
    "DegenerateSpaceError",
    "PreconditionCheck",
    "BoundReport",
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


@dataclass(frozen=True)
class _Inequality:
    """What one inequality id needs and runs.

    payload is the instance kind its evaluator takes: "form" (a
    FormInstance, x, y and an OmegaPair), "functional_form" (the same over
    a functional form), "operator_pair" (t, s, v) or "sequences" (a
    WeightedSequences, with every weight 1 when unit_weights).
    evaluate(payload, tol) returns the id's BoundReport.  stacked is set
    for the ids that run_trials evaluates in stacked kernel calls: it takes
    the payload of N instances, with (N, d, d) stacks for x, y, t and s,
    (N, d) for v and a list of N window pairs, and returns the N reports.

    The callables look the evaluators up in this module when called, so a
    rebound evaluator is the one that runs.
    """

    payload: str
    evaluate: Callable
    stacked: Optional[Callable] = None
    unit_weights: bool = False


_REGISTRY = {
    ADD_MATRIX: _Inequality(
        "form",
        lambda p, tol: additive_matrix_bound(*p, tol),
        lambda p, tol: _matrix_stack(ADD_MATRIX, *p, tol),
    ),
    MULT_MATRIX: _Inequality(
        "form",
        lambda p, tol: multiplicative_matrix_bound(*p, tol),
        lambda p, tol: _matrix_stack(MULT_MATRIX, *p, tol),
    ),
    ADD_FUNCTIONAL: _Inequality(
        "functional_form", lambda p, tol: functional_additive_bound(p[0].functional, *p[1:], tol)
    ),
    MULT_FUNCTIONAL: _Inequality(
        "functional_form",
        lambda p, tol: functional_multiplicative_bound(p[0].functional, *p[1:], tol),
    ),
    OP_PAIR_ADD: _Inequality(
        "operator_pair",
        lambda p, tol: operator_pair_bounds(*p, tol).additive,
        lambda p, tol: [r.additive for r in _operator_pair_results(*p, tol)],
    ),
    OP_PAIR_MULT: _Inequality(
        "operator_pair",
        lambda p, tol: operator_pair_bounds(*p, tol).multiplicative,
        lambda p, tol: [r.multiplicative for r in _operator_pair_results(*p, tol)],
    ),
    INT_ADD: _Inequality("sequences", lambda data, tol: integral_bounds(data, tol).additive),
    INT_MULT: _Inequality(
        "sequences", lambda data, tol: integral_bounds(data, tol).multiplicative
    ),
    GREUB_RHEINBOLDT: _Inequality("sequences", lambda data, tol: greub_rheinboldt(data, tol)),
    WEIGHTED_ADD: _Inequality("sequences", lambda data, tol: weighted_additive(data, tol)),
    PS_MULT: _Inequality(
        "sequences", lambda data, tol: polya_szego_multiplicative(data, tol), unit_weights=True
    ),
    PS_ADD: _Inequality(
        "sequences", lambda data, tol: polya_szego_additive(data, tol), unit_weights=True
    ),
    PS_IMPROVED: _Inequality(
        "sequences", lambda data, tol: polya_szego_improved(data, tol).report, unit_weights=True
    ),
}

INEQUALITY_IDS = tuple(_REGISTRY)


class NonPositiveReOmegaError(Exception):
    """Re(conj(omega) * Omega) <= 0: the multiplicative hypothesis fails."""


class WindowViolationError(Exception):
    """Sequence data falls outside its declared scalar window."""


class DegenerateSpaceError(Exception):
    """No unit vector orthogonal to y exists for the sharpness construction."""


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
) -> BoundReport:
    margin = rhs - lhs
    scale = max(abs(lhs), abs(rhs), 1.0)
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
    values = _form_values(form, x, y, pair.omega, pair.Omega)
    return _matrix_reports(ADD_MATRIX, values, [pair], tol)[0]


def multiplicative_matrix_bound(
    form: FormInstance, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Multiplicative reverse bound for an algebra-valued form.

    lhs = <x,x>^(1/2) <y,y>^(1/2) + <y,y>^(1/2) <x,x>^(1/2),
    rhs = (|Omega| + |omega|) / sqrt(Re(conj(omega) Omega)) * |<x,y>|.

    Requires Re(conj(omega) * Omega) > 0 and a normal <x, y>.
    """
    _positive_re_cross(pair)
    values = _form_values(form, x, y, pair.omega, pair.Omega)
    return _matrix_reports(MULT_MATRIX, values, [pair], tol)[0]


def _positive_re_cross(pair: OmegaPair) -> float:
    """Re(conj(omega) * Omega), which the multiplicative bounds require positive."""
    re_cross = pair.re_cross()
    if re_cross <= 0.0:
        raise NonPositiveReOmegaError(
            f"Re(conj(omega) * Omega) = {re_cross:.6e} must be positive"
        )
    return re_cross


def _form_values(
    form: FormInstance, x, y, omega, Omega, stacked: bool = False
) -> tuple[np.ndarray, ...]:
    """<x,x>, <y,y>, <x,y>, <y,x> and the Re term, each an (N, k, k) stack.

    N = 1 for one argument pair with complex omega, Omega.  With stacked,
    x and y are module-form stacks of shape (N, d, d) and omega, Omega
    arrays of shape (N, 1, 1).
    """
    values = (
        _form_eval(form, x, x, stacked),
        _form_eval(form, y, y, stacked),
        _form_eval(form, x, y, stacked),
        _form_eval(form, y, x, stacked),
        _re_term(form, x, y, omega, Omega, stacked),
    )
    return tuple(v.reshape(-1, *v.shape[-2:]) for v in values)


def _matrix_stack(
    inequality_id: str, form: FormInstance, x, y, pairs: list[OmegaPair], tol: Tolerance
) -> list[BoundReport]:
    """ADD_MATRIX or MULT_MATRIX reports for module-form stacks x, y of
    shape (N, d, d) and their N window pairs."""
    omega = np.array([p.omega for p in pairs])[:, None, None]
    Omega = np.array([p.Omega for p in pairs])[:, None, None]
    values = _form_values(form, x, y, omega, Omega, stacked=True)
    return _matrix_reports(inequality_id, values, pairs, tol)


def _matrix_reports(
    inequality_id: str,
    values: tuple[np.ndarray, ...],
    pairs: list[OmegaPair],
    tol: Tolerance,
) -> list[BoundReport]:
    """ADD_MATRIX or MULT_MATRIX reports for N instances given by their
    _form_values and window pairs.  Each square root, Re-term check,
    absolute value and Loewner margin is one call over the stack, so a
    report does not depend on the other instances."""
    xx, yy, xy, yx, re_term = values
    s_ok, s_dev = _adjoint_symmetry(xy, yx, tol)
    if inequality_id == ADD_MATRIX:
        root = sqrt_psd(yy, tol)
        name = "root_commutation"
        ok, value = _root_commutation(root, xy, tol)
        lhs = re_part(root @ xx @ root - xy @ yx)
        quarter_spread = np.array([0.25 * p.spread() ** 2 for p in pairs])
        rhs = re_part(quarter_spread[:, None, None] * (yy @ yy))
    else:
        coeffs = [
            (abs(p.Omega) + abs(p.omega)) / math.sqrt(_positive_re_cross(p)) for p in pairs
        ]
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


def _functional_values(phi: PositiveFunctional, x, y):
    """phi(x*x), phi(y*y) (real) and phi(y*x) for matrix or vector arguments."""
    form = FormInstance.functional_form(phi)
    fxx = form_eval(form, x, x)[0, 0].real
    fyy = form_eval(form, y, y)[0, 0].real
    cross = complex(form_eval(form, x, y)[0, 0])
    return form, fxx, fyy, cross


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
    form, fxx, fyy, cross = _functional_values(phi, x, y)
    re_check = check_re_condition(form, x, y, pair, tol)
    return _functional_additive_report(fxx, fyy, cross, pair, re_check, tol)


def _functional_additive_report(
    fxx: float, fyy: float, cross: complex, pair: OmegaPair, re_check, tol: Tolerance
) -> BoundReport:
    """functional_additive_bound from its _functional_values and Re check (ok, margin)."""
    preconditions = (PreconditionCheck("re_term_positive", bool(re_check[0]), float(re_check[1])),)
    lhs = fxx * fyy - abs(cross) ** 2
    rhs = 0.25 * pair.spread() ** 2 * fyy**2
    return _scalar_report(
        ADD_FUNCTIONAL,
        preconditions,
        lhs,
        rhs,
        tol,
        details={
            "omega": pair.omega,
            "Omega": pair.Omega,
            "phi_xx": fxx,
            "phi_yy": fyy,
            "phi_yx": cross,
        },
    )


def functional_multiplicative_bound(
    phi: PositiveFunctional, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Multiplicative reverse bound for a positive functional.

    phi(x*x)^(1/2) phi(y*y)^(1/2)
        <= (1/2) (|Omega| + |omega|) / sqrt(Re(conj(omega) Omega)) |phi(y*x)|
    """
    _positive_re_cross(pair)
    form, fxx, fyy, cross = _functional_values(phi, x, y)
    re_check = check_re_condition(form, x, y, pair, tol)
    return _functional_multiplicative_report(fxx, fyy, cross, pair, re_check, tol)


def _functional_multiplicative_report(
    fxx: float, fyy: float, cross: complex, pair: OmegaPair, re_check, tol: Tolerance
) -> BoundReport:
    """functional_multiplicative_bound from its _functional_values and Re check (ok, margin)."""
    preconditions = (PreconditionCheck("re_term_positive", bool(re_check[0]), float(re_check[1])),)
    lhs = math.sqrt(max(fxx, 0.0)) * math.sqrt(max(fyy, 0.0))
    coeff = 0.5 * (abs(pair.Omega) + abs(pair.omega)) / math.sqrt(_positive_re_cross(pair))
    rhs = coeff * abs(cross)
    return _scalar_report(
        MULT_FUNCTIONAL,
        preconditions,
        lhs,
        rhs,
        tol,
        details={
            "omega": pair.omega,
            "Omega": pair.Omega,
            "coefficient": coeff,
            "phi_xx": fxx,
            "phi_yy": fyy,
            "phi_yx": cross,
        },
    )


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

    additive:
        ||Tv||^2 ||Sv||^2 - |<Tv, Sv>|^2
            <= ((Mt Ms - mt ms) / 2)^2
               * min(||Sv||^4 / (Ms ms)^2, ||Tv||^4 / (Mt mt)^2)
    multiplicative:
        ||Tv|| ||Sv|| <= (1/2) (sqrt(mt ms / (Mt Ms)) + sqrt(Mt Ms / (mt ms)))
                         * |<Tv, Sv>|

    with m/M the least/greatest eigenvalues of the respective operator.
    """
    tm = as_element(t)
    sm = as_element(s)
    vv = np.asarray(v, dtype=np.complex128).reshape(-1)
    if tm.shape != sm.shape or vv.size != tm.shape[0]:
        raise DimMismatchError("operator pair and vector dimensions disagree")
    if float(np.linalg.norm(vv)) == 0.0:
        raise ValueError("v must be nonzero")
    return _operator_pair_results(tm[None], sm[None], vv[None], tol)[0]


def _operator_pair_results(
    t: np.ndarray, s: np.ndarray, v: np.ndarray, tol: Tolerance
) -> list[OperatorPairResult]:
    """operator_pair_bounds for (N, d, d) stacks t, s and nonzero vectors v
    of shape (N, d).  The spectra, the window checks and the Re-term
    checks each run once over the stack, so a result does not depend on
    the other instances."""
    lo_t, hi_t = spectrum_bounds(t, tol)
    lo_s, hi_s = spectrum_bounds(s, tol)
    pairs_ts = _omega_from_edges(t, s, (lo_t, hi_t), (lo_s, hi_s), tol)
    pairs_st = _omega_from_edges(s, t, (lo_s, hi_s), (lo_t, hi_t), tol)
    instances = []
    re_terms = []
    for tm, sm, vv, pair_ts, pair_st in zip(t, s, v, pairs_ts, pairs_st):
        nv = float(np.linalg.norm(vv))
        phi = PositiveFunctional.vector_state(vv / nv)
        values_ts = _functional_values(phi, tm, sm)
        values_st = _functional_values(phi, sm, tm)
        # The Re terms of the ts and st additive reports; the multiplicative
        # report's Re check is the ts one.
        for (form, *_), x, y, pair in (
            (values_ts, tm, sm, pair_ts),
            (values_st, sm, tm, pair_st),
        ):
            re_terms.append(_re_term(form, x, y, pair.omega, pair.Omega))
        instances.append((tm, vv, nv, values_ts[1:], values_st[1:]))
    re_terms = np.stack(re_terms)
    re_ok, re_margin = loewner_leq(np.zeros_like(re_terms), re_terms, tol)
    results = []
    for k, (tm, vv, nv, values_ts, values_st) in enumerate(instances):
        sm, pair_ts, pair_st = s[k], pairs_ts[k], pairs_st[k]
        edges = (float(lo_t[k]), float(hi_t[k]), float(lo_s[k]), float(hi_s[k]))
        check_ts, check_st = ((re_ok[2 * k + i], re_margin[2 * k + i]) for i in range(2))
        rep_ts = _functional_additive_report(*values_ts, pair_ts, check_ts, tol)
        rep_st = _functional_additive_report(*values_st, pair_st, check_st, tol)
        rep_mult = _functional_multiplicative_report(*values_ts, pair_ts, check_ts, tol)
        results.append(
            _operator_pair_result(
                tm, sm, vv, nv, edges, pair_ts, pair_st, rep_ts, rep_st, rep_mult, tol
            )
        )
    return results


def _operator_pair_result(
    tm, sm, vv, nv, edges, pair_ts, pair_st, rep_ts, rep_st, rep_mult, tol
) -> OperatorPairResult:
    """Both operator-pair reports from the functional reports, rescaled by
    ||v||, and cross-checked against the closed forms."""
    lo_t, hi_t, lo_s, hi_s = edges
    add_preconditions = tuple(
        PreconditionCheck(f"{p.name}_{tag}", p.passed, p.value)
        for tag, rep in (("ts", rep_ts), ("st", rep_st))
        for p in rep.preconditions
    )
    scale4 = nv**4
    lhs_add = rep_ts.lhs * scale4
    rhs_add = min(rep_ts.rhs, rep_st.rhs) * scale4

    tv = tm @ vv
    sv = sm @ vv
    nt2 = float(np.vdot(tv, tv).real)
    ns2 = float(np.vdot(sv, sv).real)
    cross = complex(np.vdot(sv, tv))
    cf_lhs_add = nt2 * ns2 - abs(cross) ** 2
    half_gap = (hi_t * hi_s - lo_t * lo_s) / 2.0
    cf_rhs_add = half_gap**2 * min(
        ns2**2 / (hi_s * lo_s) ** 2, nt2**2 / (hi_t * lo_t) ** 2
    )
    _cross_check("operator pair additive", lhs_add, cf_lhs_add)
    _cross_check("operator pair additive", rhs_add, cf_rhs_add)

    margin_add = rhs_add - lhs_add
    scale_add = max(abs(lhs_add), abs(rhs_add), 1.0)
    additive = BoundReport(
        inequality_id=OP_PAIR_ADD,
        preconditions=add_preconditions,
        lhs=float(lhs_add),
        rhs=float(rhs_add),
        margin=float(margin_add),
        verdict=_verdict(add_preconditions, margin_add >= -tol.band(scale_add)),
        details={
            "omega_ts": pair_ts.omega,
            "Omega_ts": pair_ts.Omega,
            "omega_st": pair_st.omega,
            "Omega_st": pair_st.Omega,
            "closed_form_lhs": cf_lhs_add,
            "closed_form_rhs": cf_rhs_add,
            "norm_tv_sq": nt2,
            "norm_sv_sq": ns2,
            "cross": cross,
        },
    )

    lhs_mult = rep_mult.lhs * nv**2
    rhs_mult = rep_mult.rhs * nv**2
    ratio = (lo_t * lo_s) / (hi_t * hi_s)
    cf_rhs_mult = 0.5 * (math.sqrt(ratio) + math.sqrt(1.0 / ratio)) * abs(cross)
    cf_lhs_mult = math.sqrt(nt2) * math.sqrt(ns2)
    _cross_check("operator pair multiplicative", lhs_mult, cf_lhs_mult)
    _cross_check("operator pair multiplicative", rhs_mult, cf_rhs_mult)
    margin_mult = rhs_mult - lhs_mult
    scale_mult = max(abs(lhs_mult), abs(rhs_mult), 1.0)
    multiplicative = BoundReport(
        inequality_id=OP_PAIR_MULT,
        preconditions=rep_mult.preconditions,
        lhs=float(lhs_mult),
        rhs=float(rhs_mult),
        margin=float(margin_mult),
        verdict=_verdict(
            rep_mult.preconditions, margin_mult >= -tol.band(scale_mult)
        ),
        details={
            "omega": pair_ts.omega,
            "Omega": pair_ts.Omega,
            "closed_form_lhs": cf_lhs_mult,
            "closed_form_rhs": cf_rhs_mult,
            "cross": cross,
        },
    )
    return OperatorPairResult(additive=additive, multiplicative=multiplicative)


def _cross_check(label: str, via_functional: float, closed_form: float) -> None:
    scale = max(abs(via_functional), abs(closed_form), 1.0)
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
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)) or not np.all(
            np.isfinite(w)
        ):
            raise ValueError("sequence data must be finite")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        win = self.window
        slack_a = 1e-12 * max(win.A, 1.0)
        slack_b = 1e-12 * max(win.B, 1.0)
        if np.any(a < win.a - slack_a) or np.any(a > win.A + slack_a):
            raise WindowViolationError("a_seq leaves the window [a, A]")
        if np.any(b < win.b - slack_b) or np.any(b > win.B + slack_b):
            raise WindowViolationError("b_seq leaves the window [b, B]")

    @property
    def n(self) -> int:
        return int(self.a_seq.size)

    def sums(self) -> tuple[float, float, float]:
        """(sum w a^2, sum w b^2, sum w a b)."""
        w = self.w_seq
        return (
            float(np.sum(w * self.a_seq * self.a_seq)),
            float(np.sum(w * self.b_seq * self.b_seq)),
            float(np.sum(w * self.a_seq * self.b_seq)),
        )

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


def _additive_report(
    inequality_id: str, data: WeightedSequences, tol: Tolerance
) -> BoundReport:
    """The additive bound for weighted sums under the given id."""
    sa2, sb2, sab = data.sums()
    branch_a, branch_b, _ = _scaled_constants(sa2, sb2, sab, data.window)
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


def _product_sides(
    sa2: float, sb2: float, sab: float, win: ScalarWindow
) -> tuple[float, float]:
    """lhs and rhs of the Greub-Rheinboldt product bound."""
    prod = win.A * win.B * win.a * win.b
    return sa2 * sb2, (win.A * win.B + win.a * win.b) ** 2 / (4.0 * prod) * sab * sab


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
    lhs_m, rhs_m, coeff = _multiplicative_sides(*data.sums(), data.window)
    multiplicative = _scalar_report(
        INT_MULT, (), lhs_m, rhs_m, tol, details={"coefficient": coeff}
    )
    return IntegralBoundsResult(
        additive=_additive_report(INT_ADD, data, tol), multiplicative=multiplicative
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
    sa2, sb2, sab = data.sums()
    lhs, rhs = _product_sides(sa2, sb2, sab, data.window)
    lhs_m, rhs_m, _ = _multiplicative_sides(sa2, sb2, sab, data.window)
    rhs_squared = rhs_m * rhs_m
    _cross_check("greub_rheinboldt rhs", rhs, rhs_squared)
    return _scalar_report(
        GREUB_RHEINBOLDT,
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


def weighted_additive(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Additive reverse bound for weighted sequences: the additive half of
    integral_bounds, kept as its own inequality id."""
    return _additive_report(WEIGHTED_ADD, data, tol)


def _require_unit_weights(data: WeightedSequences, who: str) -> None:
    if np.any(data.w_seq != 1.0):
        raise ValueError(f"{who} requires unit weights (w_i = 1)")


def polya_szego_multiplicative(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Classical product bound for unweighted sequences, greub_rheinboldt
    with unit weights:

    sum(a^2) sum(b^2) <= ((ab + AB)^2 / (4 ab AB)) * (sum(a b))^2.
    """
    _require_unit_weights(data, "polya_szego_multiplicative")
    return _scalar_report(PS_MULT, (), *_product_sides(*data.sums(), data.window), tol)


def polya_szego_additive(
    data: WeightedSequences, tol: Tolerance = DEFAULT_TOL
) -> BoundReport:
    """Classical difference bound for unweighted sequences, the third
    constant of polya_szego_improved:

    sum(a^2) sum(b^2) - (sum(a b))^2
        <= ((AB - ab)^2 / (4 ab AB)) * (sum(a b))^2.
    """
    _require_unit_weights(data, "polya_szego_additive")
    return polya_szego_improved(data, tol).classical_additive


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
    _require_unit_weights(data, "polya_szego_improved")
    sa2, sb2, sab = data.sums()
    win = data.window
    constants = _scaled_constants(sa2, sb2, sab, win)
    least = min(constants)
    threshold = least + 1e-12 * abs(least)
    argmin = next(i for i, c in enumerate(constants) if c <= threshold) + 1
    lhs = sa2 * sb2 - sab * sab
    classical_mult = _scalar_report(PS_MULT, (), *_product_sides(sa2, sb2, sab, win), tol)
    classical_add = _scalar_report(PS_ADD, (), lhs, constants[2], tol)
    eq_lhs = sa2 / (win.A * win.a)
    eq_rhs = sb2 / (win.B * win.b)
    eq_scale = max(abs(eq_lhs), abs(eq_rhs), 1.0)
    eq_holds = abs(eq_lhs - eq_rhs) <= tol.band(eq_scale)
    report = _scalar_report(
        PS_IMPROVED,
        (),
        lhs,
        least,
        tol,
        details={
            "constants": list(constants),
            "argmin": argmin,
            "equality_lhs": eq_lhs,
            "equality_rhs": eq_rhs,
            "improvement_over_classical": classical_add.rhs - least,
        },
    )
    return ImprovedResult(
        report=report,
        constants=constants,
        argmin=argmin,
        equality_lhs=eq_lhs,
        equality_rhs=eq_rhs,
        equality_holds=eq_holds,
        classical_multiplicative=classical_mult,
        classical_additive=classical_add,
    )
