"""Positive sesquilinear forms with values in a matrix algebra.

Three realizations are supported, all linear in the first argument and
conjugate-linear in the second:

* module_form: the space is M_d(C) itself and <u, v> = v* u.
* gram_tensor: the space is C^n and <e_i, e_j> is a stored d x d block,
  extended sesquilinearly.
* functional_form: <u, v> = phi(v* u) as a 1 x 1 matrix, where phi is a
  positive linear functional on M_k(C).  Arguments may be k x k matrices
  or vectors in C^k; a vector u is embedded as the matrix with u in its
  first column and zeros elsewhere.

The module also hosts the hypothesis checks used by the bound evaluators:
adjoint symmetry of the form, commutation of <x, y> with <y, y>^(1/2),
positivity of the Re term built from a scalar window pair, and the
spectral recipe that produces such a pair for commuting positive inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import jsonio
from .matalg import (
    DEFAULT_TOL,
    JACOBI_REL_TARGET,
    DimMismatchError,
    KernelError,
    Tolerance,
    _as_stack,
    _edges,
    _hermitian_scaled,
    _jacobi,
    _norms,
    _validated,
    as_element,
    eig_hermitian_stack,
    loewner_leq,
    re_part,
    sqrt_psd,
)
from .rng import _complex_normals, _uniforms

__all__ = [
    "FormError",
    "NotStrictlyPositiveError",
    "NotCommutingError",
    "WindowCheckError",
    "OmegaPair",
    "PositiveFunctional",
    "FormInstance",
    "PositivityReport",
    "form_eval",
    "check_star1",
    "check_com",
    "check_re_condition",
    "omega_from_spectra",
    "validate_positivity",
]


class FormError(Exception):
    """Base class for form-layer failures."""


class NotStrictlyPositiveError(FormError):
    """A matrix required to be strictly positive has min eigenvalue <= atol."""


class NotCommutingError(FormError):
    """A pair of matrices required to commute does not, within tolerance."""


class WindowCheckError(FormError, KernelError):
    """A spectral window pair fails omega * y <= x <= Omega * y within tolerance."""


class _Overflow(ValueError):
    """Values of a batch past the double range, the first at slice k."""

    def __init__(self, message: str, k: int) -> None:
        super().__init__(message)
        self.slice = k


@dataclass(frozen=True)
class OmegaPair:
    """Scalar window pair (omega, Omega) entering the reverse bounds."""

    omega: complex
    Omega: complex

    def spread(self) -> float:
        """|Omega - omega|."""
        return abs(self.Omega - self.omega)

    def re_cross(self) -> float:
        """Re(conj(omega) * Omega), the positivity quantity for the
        multiplicative bounds."""
        return (self.omega.conjugate() * self.Omega).real


VECTOR_STATE = "vector_state"
TRACE = "trace"
WEIGHTED_SUM = "weighted_sum"
# The keys of each functional kind besides "kind", with the spec of each.
_FUNCTIONAL_SPECS = {
    VECTOR_STATE: {"dim": jsonio._integer, "state": jsonio.decode_vector},
    TRACE: {"dim": jsonio._integer},
    WEIGHTED_SUM: {"dim": jsonio._integer, "weights": jsonio._nonempty(jsonio._positive)},
}
_FUNCTIONAL_KINDS = tuple(_FUNCTIONAL_SPECS)


@dataclass(frozen=True)
class PositiveFunctional:
    """Positive linear functional on M_dim(C).

    kind is one of:
      * vector_state: phi(R) = <R x0, x0> for a unit vector x0,
      * trace:        phi(R) = tr R,
      * weighted_sum: phi(R) = sum_i w_i R_ii with strictly positive w.
    """

    kind: str
    dim: int
    state: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in _FUNCTIONAL_KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if not 1 <= self.dim <= 16:
            raise DimMismatchError(f"functional dimension {self.dim} outside 1..16")
        if self.kind == VECTOR_STATE:
            if self.state is None or self.state.shape != (self.dim,):
                raise ValueError("vector_state requires a state of shape (dim,)")
            _check_payloads(norms=[np.linalg.norm(self.state)])
        if self.kind == WEIGHTED_SUM:
            if self.weights is None or self.weights.shape != (self.dim,):
                raise ValueError("weighted_sum requires weights of shape (dim,)")
            _check_payloads(weights=self.weights)

    @classmethod
    def vector_state(cls, x0) -> "PositiveFunctional":
        arr = np.asarray(x0, dtype=np.complex128).reshape(-1)
        return cls(kind=VECTOR_STATE, dim=arr.size, state=arr)

    @classmethod
    def trace(cls, dim: int) -> "PositiveFunctional":
        return cls(kind=TRACE, dim=dim)

    @classmethod
    def weighted_sum(cls, weights) -> "PositiveFunctional":
        arr = np.asarray(weights, dtype=np.float64).reshape(-1)
        return cls(kind=WEIGHTED_SUM, dim=arr.size, weights=arr)

    def value(self, r) -> complex:
        """Evaluate the functional on a dim x dim matrix (_functional_values
        of one functional)."""
        m = as_element(r)
        if m.shape[0] != self.dim:
            raise DimMismatchError(
                f"functional on M_{self.dim} applied to shape {m.shape}"
            )
        return complex(_functional_values([self], m[None])[0])

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "dim": self.dim}
        if self.kind == VECTOR_STATE:
            out["state"] = jsonio.encode_vector(self.state)
        elif self.kind == WEIGHTED_SUM:
            out["weights"] = [float(w) for w in self.weights]
        return out

    @classmethod
    def from_dict(cls, obj: dict, path: str = "$") -> "PositiveFunctional":
        fields = jsonio._variant(obj, _FUNCTIONAL_SPECS, path)
        # A value error of the state or weights is reported at their key.
        payload = [key for key in ("state", "weights") if key in fields]
        return jsonio._at(".".join([path, *payload]), cls, **fields)


def _check_payloads(norms=(), weights=()) -> None:
    """PositiveFunctional's value checks over stacks: vector-state norms
    within 1e-9 of 1, weights strictly positive and finite."""
    norms = np.asarray(norms, dtype=np.float64)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
    if off.size:
        raise ValueError(f"vector_state payload must be a unit vector (norm {norms[off[0]]})")
    if not np.all((np.asarray(weights) > 0.0) & np.isfinite(weights)):
        raise ValueError("weighted_sum weights must be strictly positive and finite")


GRAM_TENSOR = "gram_tensor"
MODULE_FORM = "module_form"
FUNCTIONAL_FORM = "functional_form"
# The keys of each form kind besides "kind", with the spec of each.
_DIMS = {"algebra_dim": jsonio._integer, "space_dim": jsonio._integer}
_FORM_SPECS = {
    GRAM_TENSOR: {**_DIMS, "gram": jsonio._square(jsonio.decode_matrix)},
    MODULE_FORM: _DIMS,
    FUNCTIONAL_FORM: {
        **_DIMS, "algebra_dim": jsonio._const(1), "functional": PositiveFunctional.from_dict
    },
}
_FORM_KINDS = tuple(_FORM_SPECS)


@dataclass(frozen=True)
class FormInstance:
    """A concrete positive sesquilinear form.

    algebra_dim is the size of the output blocks (1 for functional forms);
    space_dim is the dimension parameter of the underlying space: n for
    gram_tensor over C^n, d for module_form over M_d, and the functional's
    matrix size for functional_form.
    """

    kind: str
    algebra_dim: int
    space_dim: int
    gram: Optional[np.ndarray] = field(default=None, repr=False)
    functional: Optional[PositiveFunctional] = None

    def __post_init__(self) -> None:
        if self.kind not in _FORM_KINDS:
            raise ValueError(f"unknown form kind {self.kind!r}")
        if not 1 <= self.algebra_dim <= 16:
            raise DimMismatchError(
                f"algebra dimension {self.algebra_dim} outside 1..16"
            )
        if self.space_dim < 1:
            raise DimMismatchError("space dimension must be at least 1")
        if self.kind == MODULE_FORM and self.space_dim != self.algebra_dim:
            raise ValueError("module_form requires algebra_dim == space_dim")
        if self.kind == GRAM_TENSOR:
            n, d = self.space_dim, self.algebra_dim
            if self.gram is None or self.gram.shape != (n, n, d, d):
                raise ValueError(
                    f"gram_tensor payload must have shape ({n}, {n}, {d}, {d})"
                )
        if self.kind == FUNCTIONAL_FORM:
            if self.functional is None:
                raise ValueError("functional_form requires a functional payload")
            if self.algebra_dim != 1:
                raise ValueError("functional_form output is 1 x 1")
            if self.space_dim != self.functional.dim:
                raise ValueError("functional_form space_dim must match functional dim")

    @classmethod
    def module_form(cls, d: int) -> "FormInstance":
        return cls(kind=MODULE_FORM, algebra_dim=d, space_dim=d)

    @classmethod
    def gram_tensor(cls, blocks) -> "FormInstance":
        arr = np.asarray(blocks, dtype=np.complex128)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise ValueError(
                f"gram blocks must form an (n, n, d, d) tensor, got {arr.shape}"
            )
        return cls(
            kind=GRAM_TENSOR,
            algebra_dim=arr.shape[2],
            space_dim=arr.shape[0],
            gram=arr,
        )

    @classmethod
    def functional_form(cls, phi: PositiveFunctional) -> "FormInstance":
        return cls(
            kind=FUNCTIONAL_FORM,
            algebra_dim=1,
            space_dim=phi.dim,
            functional=phi,
        )

    def to_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "algebra_dim": self.algebra_dim,
            "space_dim": self.space_dim,
        }
        if self.kind == GRAM_TENSOR:
            out["gram"] = [
                [jsonio.encode_matrix(self.gram[i, j]) for j in range(self.space_dim)]
                for i in range(self.space_dim)
            ]
        elif self.kind == FUNCTIONAL_FORM:
            out["functional"] = self.functional.to_dict()
        return out

    @classmethod
    def from_dict(cls, obj: dict, path: str = "$") -> "FormInstance":
        return jsonio._at(path, cls, **jsonio._variant(obj, _FORM_SPECS, path))


def _first_column_matrix(u: np.ndarray, k: int) -> np.ndarray:
    m = np.zeros((k, k), dtype=np.complex128)
    m[:, 0] = u
    return m


def _coerce_argument(form: FormInstance, x) -> np.ndarray:
    """Validate one form argument and normalize it to an ndarray: a vector
    for gram_tensor, a matrix otherwise (a functional form's vector
    argument becomes its first-column matrix)."""
    arr = np.asarray(x, dtype=np.complex128)
    if form.kind == GRAM_TENSOR:
        arr = arr.reshape(-1) if arr.ndim == 0 else arr
        if arr.ndim != 1 or arr.size != form.space_dim:
            raise DimMismatchError(
                f"gram_tensor argument must be a vector of length {form.space_dim}"
            )
        return arr
    if form.kind == MODULE_FORM:
        m = as_element(arr)
        if m.shape[-1] != form.algebra_dim:
            raise DimMismatchError(
                f"module_form argument must be {form.algebra_dim} x {form.algebra_dim}"
            )
        return m
    k = form.functional.dim
    if arr.ndim == 1:
        if arr.size != k:
            raise DimMismatchError(
                f"functional_form vector argument must have length {k}"
            )
        return _first_column_matrix(arr, k)
    m = as_element(arr)
    if m.shape[0] != k:
        raise DimMismatchError(f"functional_form matrix argument must be {k} x {k}")
    return m


def form_eval(form: FormInstance, x, y) -> np.ndarray:
    """Evaluate <x, y> as an algebra_dim x algebra_dim matrix."""
    return _form_eval([form], _coerce_argument(form, x)[None], _coerce_argument(form, y)[None])[0]


def _form_eval(forms, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x[k], y[k]> under forms[k] for N forms of one kind (FormInstances,
    or a _FunctionalForms) and batches x, y of N arguments, each normalized
    by _coerce_argument: the (N, algebra_dim, algebra_dim) stack of values."""
    if isinstance(forms, _FunctionalForms) or forms[0].kind == FUNCTIONAL_FORM:
        # _coerce_argument has checked u and v, so v* u is evaluated
        # unchecked; a value past the double range is an error, never a verdict.
        values = _FunctionalForms.of(forms).values(y.conj().swapaxes(-1, -2) @ x)
        bad = ~np.isfinite(values)
        if np.count_nonzero(bad):
            k = int(np.argmax(bad))
            raise _Overflow(f"functional values must be finite (slice {k} is not)", k)
        return values[:, None, None]
    if forms[0].kind == MODULE_FORM:
        return y.conj().swapaxes(-1, -2) @ x
    members = zip(forms, x, y)
    return np.stack([np.einsum("i,j,ijab->ab", u, v.conj(), f.gram) for f, u, v in members])


class _FunctionalForms:
    """N functionals of one dimension as a "functional_form" batch holds
    them: the index of each one's kind in _FUNCTIONAL_KINDS, shape (N,), and
    (N, dim) states and weights, read on the rows of their kind alone and
    checked once as PositiveFunctional checks one.  They are grouped by kind
    once: for each kind present, its members' indices (a slice when they
    are all N) and what its formula needs, the states s as rows conj(s) and
    columns s, or the weights; every _form_eval over the batch reuses it."""

    def __init__(self, kinds: np.ndarray, states: np.ndarray, weights: np.ndarray) -> None:
        self.kinds, self.states, self.weights = kinds, states, weights
        self.groups = []
        for kind, name in enumerate(_FUNCTIONAL_KINDS):
            index = np.flatnonzero(kinds == kind)
            if not index.size:
                continue
            payload = None
            if name == VECTOR_STATE:
                s = states[index]
                _check_payloads(norms=np.linalg.norm(s, axis=1))
                payload = s.conj()[:, None, :], s[:, :, None]
            elif name == WEIGHTED_SUM:
                payload = weights[index]
                _check_payloads(weights=payload)
            index = slice(None) if index.size == len(kinds) else index
            self.groups.append((name, index, payload))

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def of(cls, forms) -> "_FunctionalForms":
        """forms itself if it is grouped, else its FormInstances grouped now."""
        if isinstance(forms, cls):
            return forms
        phis = [form.functional for form in forms]
        ones = np.ones(phis[0].dim)
        states = np.array([ones if phi.state is None else phi.state for phi in phis], complex)
        weights = np.array([ones if phi.weights is None else phi.weights for phi in phis])
        return cls(np.array([_FUNCTIONAL_KINDS.index(phi.kind) for phi in phis]), states, weights)

    def form(self, k: int) -> FormInstance:
        """The FormInstance of functional k."""
        kind = _FUNCTIONAL_KINDS[self.kinds[k]]
        state = self.states[k] if kind == VECTOR_STATE else None
        weights = self.weights[k] if kind == WEIGHTED_SUM else None
        phi = PositiveFunctional(kind, self.states.shape[1], state, weights)
        return FormInstance.functional_form(phi)

    def values(self, m: np.ndarray) -> np.ndarray:
        """phi_k(m[k]) for an (N, dim, dim) complex128 stack m, unchecked,
        evaluated per kind over the stack: a vector state as s* (m s) by
        stacked products, a trace or weighted sum as the sum of the
        (weighted) diagonal.  Each slice is the same whatever else is in
        the stack."""
        values = np.empty(len(m), dtype=np.complex128)
        for kind, index, payload in self.groups:
            part = m[index]
            if kind == VECTOR_STATE:
                rows, columns = payload
                values[index] = (rows @ (part @ columns))[:, 0, 0]
                continue
            diagonal = np.diagonal(part, axis1=1, axis2=2)
            if kind == WEIGHTED_SUM:
                diagonal = payload * diagonal
            values[index] = diagonal.sum(axis=-1)
        return values


def _functional_values(functionals: list[PositiveFunctional], m: np.ndarray) -> np.ndarray:
    """phi_k(m[k]) for N functionals of one dimension and an (N, dim, dim)
    complex128 stack m, unchecked (_FunctionalForms.values)."""
    forms = [FormInstance.functional_form(phi) for phi in functionals]
    return _FunctionalForms.of(forms).values(m)


def check_star1(
    form: FormInstance, x, y, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float]:
    """Check <x, y>* = <y, x> and report the Frobenius deviation."""
    ok, dev = _adjoint_symmetry(form_eval(form, x, y)[None], form_eval(form, y, x)[None], tol)
    return bool(ok[0]), float(dev[0])


def _adjoint_symmetry(
    xy: np.ndarray, yx: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """The check_star1 test for (N, k, k) stacks of xy = <x, y> and yx = <y, x>."""
    dev = _norms(xy.conj().swapaxes(1, 2) - yx)
    scale = np.maximum(np.maximum(_norms(xy), _norms(yx)), 1.0)
    return dev <= tol.band(scale), dev


def check_com(
    form: FormInstance, x, y, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float]:
    """Check that <y, y>^(1/2) commutes with <x, y>.

    Raises NotPositiveError (from sqrt_psd) when <y, y> is not positive
    semidefinite within tolerance.
    """
    root = sqrt_psd(form_eval(form, y, y), tol)
    ok, dev = _root_commutation(root[None], form_eval(form, x, y)[None], tol)
    return bool(ok[0]), float(dev[0])


def _root_commutation(
    root: np.ndarray, xy: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """The check_com test for (N, k, k) stacks of root = <y, y>^(1/2) and xy = <x, y>."""
    dev = _norms(root @ xy - xy @ root)
    scale = np.maximum(_norms(root) * _norms(xy), 1.0)
    return dev <= tol.band(scale), dev


def _pair_rows(pairs) -> np.ndarray:
    """The (N, 2) array of the window pairs (omega, Omega) of N OmegaPairs."""
    return np.array([(p.omega, p.Omega) for p in pairs])


def _re_term(forms, x: np.ndarray, y: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Hermitian part of <Omega y - x, x - omega y> for forms and batches
    x, y as _form_eval takes them and (N, 2) window pairs (_pair_rows)."""
    shape = (-1,) + (1,) * (x.ndim - 1)
    omega, Omega = (np.ascontiguousarray(pairs[:, j]).reshape(shape) for j in (0, 1))
    return re_part(_form_eval(forms, Omega * y - x, x - omega * y))


def check_re_condition(
    form: FormInstance, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float]:
    """Check Re <Omega y - x, x - omega y> >= 0; margin is its least eigenvalue."""
    args = (_coerce_argument(form, a)[None] for a in (x, y))
    m = _re_term([form], *args, _pair_rows([pair]))[0]
    return loewner_leq(np.zeros_like(m), m, tol)


# The joint window reads y's spectral edges off the diagonal of U* y U,
# within its off-diagonal norm ry of the spectrum.  A slice stays on that
# route where ry <= _JOINT_REL_RESIDUAL * ||y||_F, a bound relative to y's
# own norm and so to its scale.  It is 100 times the bound at which y's own
# Jacobi solve would stop: x's eigenvectors are only as accurate as its
# solve leaves them, about JACOBI_REL_TARGET * ||x||_F over the gaps of x,
# which put ry at up to 5e-12 ||y||_F on random pairs with spectra in
# [0.1, 10] and d <= 16 (0.3% of them above this bound, 17% above
# JACOBI_REL_TARGET).
_JOINT_REL_RESIDUAL = 100 * JACOBI_REL_TARGET


def omega_from_spectra(x, y, tol: Tolerance = DEFAULT_TOL):
    """Window pair for commuting strictly positive matrices.

    Returns omega = min sigma(x) / max sigma(y) and
    Omega = max sigma(x) / min sigma(y), which satisfy
    omega * y <= x <= Omega * y in the Loewner order.  For (N, d, d)
    stacks x, y, a list of N pairs, raising if any slice fails a check.

    Commuting Hermitian matrices share an eigenbasis, so one
    decomposition serves both spectra: with U the eigenvectors of x, the
    spectrum of x comes with U, and the diagonal dy of U* y U is within
    ry = ||off(U* y U)||_F of the spectrum of y (Weyl's inequality).  By
    the same inequality, with dx the diagonal of U* x U and rx its
    off-diagonal norm, x - omega y >= 0 holds up to the band when
    min_i(dx_i - omega dy_i) - (rx + omega ry) >= -band, the band being the
    one loewner_leq takes; likewise for the Omega side.  A slice takes
    this route only when ry <= 1e-12 ||y||_F (_JOINT_REL_RESIDUAL), so
    that y's edges are that close at any scale.  A slice whose U does not
    diagonalize y that far (as x with a repeated eigenvalue, such as
    x = I, can leave it), or that fails any of these checks (as at a band
    below roundoff), is decided on its own by the per-matrix route
    instead: the spectrum of y from its own solve (of the y that its
    Hermiticity check scaled, so y is checked once) and both checks by
    loewner_leq.  So a slice's pair never depends on the other slices of
    the stack.
    """
    xm, single = _as_stack(x)
    ym, _ = _as_stack(y)
    if xm.shape != ym.shape:
        raise DimMismatchError(f"shape mismatch {np.shape(x)} vs {np.shape(y)}")
    pairs = [OmegaPair(*row) for row in _window(*_spectral_window(xm, ym, tol)).tolist()]
    return pairs[0] if single else pairs


def _window(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """The (N, 2) complex window pairs (omega, Omega) =
    (min sigma(a) / max sigma(b), max sigma(a) / min sigma(b)) of N pairs
    (a, b) from their spectral edges, arrays of shape (N,), so that
    omega * b <= a <= Omega * b: the one place the window is computed."""
    return np.stack((lo_a / hi_b, hi_a / lo_b), axis=1).astype(np.complex128)


def _spectral_window(
    x: np.ndarray, y: np.ndarray, tol: Tolerance, mirrored: bool = False, start=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The spectral edges (lo_x, hi_x, lo_y, hi_y), arrays of shape (N,),
    of same-shape (N, d, d) stacks x and y, checked as omega_from_spectra
    checks them; raises if any slice fails a check.  mirrored also checks
    the window of (y, x), as the operator pairs need, in the same basis.
    start is the start basis of the eigensolve of x (see
    eig_hermitian_stack), such as the unitaries a generator built x and y
    in; it saves sweeps and leaves every check as it is."""
    dec = eig_hermitian_stack(x, tol, start=start)
    # y passes the Hermiticity check its own eig_hermitian would make, and
    # the fallback solves what that check returns.
    hy = _hermitian_scaled(y, tol, "eig_hermitian")
    px, py = (_in_basis(dec.eigenvectors, m) for m in (x, y))
    lo_x, hi_x = dec.eigenvalues[:, 0], dec.eigenvalues[:, -1]
    lo_y, hi_y = py[0].min(axis=1), py[0].max(axis=1)
    # Each window omega * b <= a <= Omega * b as (a, b, their _in_basis
    # triples, the edges of a and b); the fallback updates y's in place.
    windows = [(x, y, px, py, (lo_x, hi_x, lo_y, hi_y))]
    if mirrored:
        windows.append((y, x, py, px, (lo_y, hi_y, lo_x, hi_x)))
    # Nonpositive or non-finite edges fail these tests and fall back.
    with np.errstate(all="ignore"):
        fast = (py[1] <= _JOINT_REL_RESIDUAL * py[2]) & (lo_x > tol.atol) & (lo_y > tol.atol)
        for _, _, a, b, edges in windows:
            omega, Omega = _window(*edges).real.T
            fast &= _weyl_leq(_scaled(b, omega), a, tol) & _weyl_leq(a, _scaled(b, Omega), tol)
    slow = np.flatnonzero(~fast)
    if slow.size:
        lo_y[slow], hi_y[slow] = _edges(_jacobi(*(c[slow] for c in hy))[0])
    for name, lo in (("x", lo_x), ("y", lo_y)):
        low = lo <= tol.atol
        if np.count_nonzero(low):
            raise NotStrictlyPositiveError(
                f"{name} must be strictly positive (min eigenvalue {lo[np.argmax(low)]:.6e})"
            )
    comm = _norms(x @ y - y @ x)
    apart = comm > tol.atol + tol.rtol * px[2] * py[2]
    if np.count_nonzero(apart):
        raise NotCommutingError(
            f"inputs do not commute (||[x, y]|| = {comm[np.argmax(apart)]:.6e})"
        )
    if slow.size:
        for a, b, _, _, edges in windows:
            a, b = a[slow], b[slow]
            omega, Omega = _window(*edges)[slow].real.T[..., None, None]
            ok_lo, _ = loewner_leq(omega * b, a, tol)
            ok_hi, _ = loewner_leq(a, Omega * b, tol)
            if not (ok_lo.all() and ok_hi.all()):
                raise WindowCheckError("spectral window failed its Loewner sanity check")
    return lo_x, hi_x, lo_y, hi_y


def _in_basis(u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An (N, d, d) stack m seen in the unitary bases u: the real diagonal
    of u* m u, shape (N, d), the Frobenius norms of its off-diagonal parts
    and the Frobenius norms of m, shape (N,) each."""
    rotated = u.conj().swapaxes(1, 2) @ m @ u
    off = ~np.eye(m.shape[-1], dtype=bool)
    return (
        np.diagonal(rotated, axis1=1, axis2=2).real,
        _norms(np.where(off, rotated, 0.0)),
        _norms(m),
    )


def _scaled(part: tuple, c: np.ndarray) -> tuple:
    """An _in_basis triple of the stack c[k] * m[k], for c >= 0 of shape (N,)."""
    diagonal, residual, norm = part
    return c[:, None] * diagonal, c * residual, c * norm


def _weyl_leq(a: tuple, b: tuple, tol: Tolerance) -> np.ndarray:
    """Whether a <= b holds within the band loewner_leq takes, decided from
    the _in_basis triples of a and b in one basis U: with diagonals da, db
    and off-diagonal residuals ra, rb, Weyl's inequality puts the least
    eigenvalue of b - a at or above min_i(db_i - da_i) - (ra + rb).  Also
    requires ra and rb within the band, so that the diagonals are the
    spectra to within it.  True means a <= b; False means undecided."""
    (da, ra, na), (db, rb, nb) = a, b
    band = tol.band(np.maximum(np.maximum(na, nb), 1.0))
    margin = (db - da).min(axis=1) - (ra + rb)
    return (margin >= -band) & (np.maximum(ra, rb) <= band)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of sampling <x, x> for positivity."""

    samples: int
    worst_margin: float
    worst_index: int
    max_defect: float
    passed: bool
    failing_sample: Optional[np.ndarray] = field(default=None, repr=False)


def validate_positivity(
    form: FormInstance,
    samples: int = 64,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PositivityReport:
    """Sample random arguments and check <x, x> is Hermitian PSD.

    Necessary-condition testing only: a pass does not prove positivity,
    but a failure pinpoints a concrete violating argument.

    Sample i is a vector for gram_tensor, and for a functional form when i
    is odd; else a matrix.  The samples' entries are complex normals of the
    words of stream(seed, 0) in sample order, drawn as one row; <x, x> is
    evaluated, and its Hermitian samples solved, as one stack.  A sample
    fails when its defect, or minus its least eigenvalue, exceeds the band
    at max(||<x, x>||_F, 1).  The report gives the first failing sample and
    the first least eigenvalue (0.0 at index -1 if no sample is Hermitian).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    k, gram = form.space_dim, form.kind == GRAM_TENSOR
    index = np.arange(samples)
    # A functional form's vector argument is its first-column matrix (_coerce_argument).
    column = (index % 2 == 1) & (form.kind == FUNCTIONAL_FORM)
    sizes = np.where(column | gram, k, k * k)
    total = int(sizes.sum())
    entries = _complex_normals(_uniforms(seed, [0], 2 * total), (total,))[0]
    owner = np.repeat(index, sizes)
    entry = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    x = np.zeros((samples, k) if gram else (samples, k, k), dtype=np.complex128)
    x.reshape(samples, -1)[owner, np.where(column[owner], entry * k, entry)] = entries
    xx = _validated(_form_eval([form] * samples, x, x))
    defect = _norms(xx - xx.conj().swapaxes(1, 2))
    band = tol.band(np.maximum(_norms(xx), 1.0))
    # A NaN defect or band (rtol 0 at an infinite norm) fails no
    # comparison: its sample goes on to the solve.
    solved = np.flatnonzero(~(defect > band))
    margin = np.full(samples, np.inf)
    if solved.size:
        margin[solved] = eig_hermitian_stack(re_part(xx[solved]), tol).eigenvalues[:, 0]
    worst = int(np.argmin(margin)) if solved.size else -1
    failed = (defect > band) | (margin < -band)
    first = int(np.argmax(failed))
    sample = x[first, :, 0] if column[first] else x[first]
    return PositivityReport(
        samples=samples,
        worst_margin=float(margin[worst]) if solved.size else 0.0,
        worst_index=worst,
        max_defect=float(np.fmax.reduce(defect, initial=0.0)),
        passed=not failed[first],
        failing_sample=sample.copy() if failed[first] else None,
    )
