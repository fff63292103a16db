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
    DimMismatchError,
    KernelError,
    Tolerance,
    _as_stack,
    _norms,
    as_element,
    eig_hermitian,
    frobenius,
    hermiticity_defect,
    loewner_leq,
    re_part,
    spectrum_bounds,
    sqrt_psd,
)
from .rng import stream

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
_FUNCTIONAL_KINDS = (VECTOR_STATE, TRACE, WEIGHTED_SUM)


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
            norm = float(np.linalg.norm(self.state))
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"vector_state payload must be a unit vector (norm {norm})")
        if self.kind == WEIGHTED_SUM:
            if self.weights is None or self.weights.shape != (self.dim,):
                raise ValueError("weighted_sum requires weights of shape (dim,)")
            if np.any(self.weights <= 0.0) or not np.all(np.isfinite(self.weights)):
                raise ValueError("weighted_sum weights must be strictly positive and finite")

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
        """Evaluate the functional on a dim x dim matrix."""
        m = as_element(r)
        if m.shape[0] != self.dim:
            raise DimMismatchError(
                f"functional on M_{self.dim} applied to shape {m.shape}"
            )
        if self.kind == VECTOR_STATE:
            return complex(np.vdot(self.state, m @ self.state))
        if self.kind == TRACE:
            return complex(np.trace(m))
        return complex(np.sum(self.weights * np.diag(m)))

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "dim": self.dim}
        if self.kind == VECTOR_STATE:
            out["state"] = jsonio.encode_vector(self.state)
        elif self.kind == WEIGHTED_SUM:
            out["weights"] = [float(w) for w in self.weights]
        return out

    @classmethod
    def from_dict(cls, obj: dict, path: str = "$") -> "PositiveFunctional":
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: functional must be an object")
        kind = obj.get("kind")
        if kind not in _FUNCTIONAL_KINDS:
            raise ValueError(f"{path}.kind: unknown functional kind {kind!r}")
        dim = obj.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"{path}.dim: must be an integer")
        if kind == VECTOR_STATE:
            state = jsonio.decode_vector(obj.get("state"), f"{path}.state")
            if state.size != dim:
                raise ValueError(f"{path}.state: length {state.size} != dim {dim}")
            return cls(kind=kind, dim=dim, state=state)
        if kind == WEIGHTED_SUM:
            raw = obj.get("weights")
            if not isinstance(raw, list) or len(raw) != dim:
                raise ValueError(f"{path}.weights: must be an array of length {dim}")
            weights = np.asarray(raw, dtype=np.float64)
            return cls(kind=kind, dim=dim, weights=weights)
        return cls(kind=kind, dim=dim)


GRAM_TENSOR = "gram_tensor"
MODULE_FORM = "module_form"
FUNCTIONAL_FORM = "functional_form"
_FORM_KINDS = (GRAM_TENSOR, MODULE_FORM, FUNCTIONAL_FORM)


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
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: form must be an object")
        kind = obj.get("kind")
        if kind not in _FORM_KINDS:
            raise ValueError(f"{path}.kind: unknown form kind {kind!r}")
        d = obj.get("algebra_dim")
        n = obj.get("space_dim")
        for name, val in (("algebra_dim", d), ("space_dim", n)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"{path}.{name}: must be an integer")
        if kind == MODULE_FORM:
            if d != n:
                raise ValueError(f"{path}: module_form requires algebra_dim == space_dim")
            return cls.module_form(d)
        if kind == GRAM_TENSOR:
            raw = obj.get("gram")
            if not isinstance(raw, list) or len(raw) != n:
                raise ValueError(f"{path}.gram: must be an n x n array of matrices")
            blocks = np.zeros((n, n, d, d), dtype=np.complex128)
            for i, row in enumerate(raw):
                if not isinstance(row, list) or len(row) != n:
                    raise ValueError(f"{path}.gram[{i}]: must contain {n} matrices")
                for j, cell in enumerate(row):
                    m = jsonio.decode_matrix(cell, f"{path}.gram[{i}][{j}]")
                    if m.shape != (d, d):
                        raise ValueError(
                            f"{path}.gram[{i}][{j}]: block must be {d} x {d}"
                        )
                    blocks[i, j] = m
            return cls.gram_tensor(blocks)
        phi = PositiveFunctional.from_dict(obj.get("functional"), f"{path}.functional")
        form = cls.functional_form(phi)
        if form.space_dim != n:
            raise ValueError(f"{path}.space_dim: must equal the functional dimension")
        return form


def _first_column_matrix(u: np.ndarray, k: int) -> np.ndarray:
    m = np.zeros((k, k), dtype=np.complex128)
    m[:, 0] = u
    return m


def _coerce_argument(form: FormInstance, x, stacked: bool = False) -> np.ndarray:
    """Validate one form argument and normalize it to an ndarray.

    With stacked, a module-form argument is an (N, d, d) stack of them.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if form.kind == GRAM_TENSOR:
        arr = arr.reshape(-1) if arr.ndim == 0 else arr
        if arr.ndim != 1 or arr.size != form.space_dim:
            raise DimMismatchError(
                f"gram_tensor argument must be a vector of length {form.space_dim}"
            )
        return arr
    if form.kind == MODULE_FORM:
        m = _as_stack(arr)[0] if stacked else as_element(arr)
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
    return _form_eval(form, x, y)


def _form_eval(form: FormInstance, x, y, stacked: bool = False) -> np.ndarray:
    """form_eval; with stacked, the module-form arguments x and y are
    (N, d, d) stacks, giving the (N, d, d) stack of values."""
    xa = _coerce_argument(form, x, stacked)
    ya = _coerce_argument(form, y, stacked)
    if form.kind == GRAM_TENSOR:
        return np.einsum("i,j,ijab->ab", xa, ya.conj(), form.gram)
    if form.kind == MODULE_FORM:
        return ya.conj().swapaxes(-1, -2) @ xa
    val = form.functional.value(ya.conj().T @ xa)
    return np.array([[val]], dtype=np.complex128)


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


def _re_term(form: FormInstance, x, y, omega, Omega, stacked: bool = False) -> np.ndarray:
    """Hermitian part of <Omega y - x, x - omega y>.

    With stacked (see _form_eval), x and y are module-form stacks of
    shape (N, d, d) and omega, Omega arrays of shape (N, 1, 1).
    """
    xa = np.asarray(x, dtype=np.complex128)
    ya = np.asarray(y, dtype=np.complex128)
    return re_part(_form_eval(form, Omega * ya - xa, xa - omega * ya, stacked))


def check_re_condition(
    form: FormInstance, x, y, pair: OmegaPair, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float]:
    """Check Re <Omega y - x, x - omega y> >= 0; margin is its least eigenvalue."""
    m = _re_term(form, x, y, pair.omega, pair.Omega)
    return loewner_leq(np.zeros_like(m), m, tol)


def omega_from_spectra(x, y, tol: Tolerance = DEFAULT_TOL):
    """Window pair for commuting strictly positive matrices.

    Returns omega = min sigma(x) / max sigma(y) and
    Omega = max sigma(x) / min sigma(y), which satisfy
    omega * y <= x <= Omega * y in the Loewner order.  For (N, d, d)
    stacks x, y, a list of N pairs, raising if any slice fails a check.
    """
    xm, single = _as_stack(x)
    ym, _ = _as_stack(y)
    if xm.shape != ym.shape:
        raise DimMismatchError(f"shape mismatch {np.shape(x)} vs {np.shape(y)}")
    pairs = _omega_from_edges(
        xm, ym, spectrum_bounds(xm, tol), spectrum_bounds(ym, tol), tol
    )
    return pairs[0] if single else pairs


def _omega_from_edges(
    xm: np.ndarray,
    ym: np.ndarray,
    edges_x: tuple[np.ndarray, np.ndarray],
    edges_y: tuple[np.ndarray, np.ndarray],
    tol: Tolerance,
) -> list[OmegaPair]:
    """omega_from_spectra for same-shape (N, d, d) stacks whose spectral
    edges (least, greatest eigenvalue; arrays of shape (N,)) are already
    known.  One pair per slice; raises if any slice fails a check."""
    lo_x, hi_x = edges_x
    lo_y, hi_y = edges_y
    for name, lo in (("x", lo_x), ("y", lo_y)):
        low = lo <= tol.atol
        if np.count_nonzero(low):
            raise NotStrictlyPositiveError(
                f"{name} must be strictly positive (min eigenvalue {lo[np.argmax(low)]:.6e})"
            )
    comm = _norms(xm @ ym - ym @ xm)
    apart = comm > tol.atol + tol.rtol * _norms(xm) * _norms(ym)
    if np.count_nonzero(apart):
        raise NotCommutingError(
            f"inputs do not commute (||[x, y]|| = {comm[np.argmax(apart)]:.6e})"
        )
    omega = lo_x / hi_y
    Omega = hi_x / lo_y
    ok_lo, _ = loewner_leq(omega[:, None, None] * ym, xm, tol)
    ok_hi, _ = loewner_leq(xm, Omega[:, None, None] * ym, tol)
    if not (ok_lo.all() and ok_hi.all()):
        raise WindowCheckError("spectral window failed its Loewner sanity check")
    return [OmegaPair(omega=complex(lo), Omega=complex(hi)) for lo, hi in zip(omega, Omega)]


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of sampling <x, x> for positivity."""

    samples: int
    worst_margin: float
    worst_index: int
    max_defect: float
    passed: bool
    failing_sample: Optional[np.ndarray] = field(default=None, repr=False)


def _random_argument(form: FormInstance, rng: np.random.Generator, sample_idx: int):
    if form.kind == GRAM_TENSOR:
        n = form.space_dim
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = form.algebra_dim if form.kind == MODULE_FORM else form.functional.dim
    if form.kind == FUNCTIONAL_FORM and sample_idx % 2 == 1:
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def validate_positivity(
    form: FormInstance,
    samples: int = 64,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PositivityReport:
    """Sample random arguments and check <x, x> is Hermitian PSD.

    Necessary-condition testing only: a pass does not prove positivity,
    but a failure pinpoints a concrete violating argument.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = stream(seed, 0)
    worst_margin = np.inf
    worst_index = -1
    max_defect = 0.0
    failing = None
    passed = True
    for i in range(samples):
        x = _random_argument(form, rng, i)
        xx = form_eval(form, x, x)
        defect = hermiticity_defect(xx)
        scale = max(frobenius(xx), 1.0)
        if defect > tol.band(scale):
            max_defect = max(max_defect, defect)
            if passed:
                failing = np.asarray(x)
            passed = False
            continue
        margin = float(eig_hermitian(re_part(xx), tol).eigenvalues[0])
        max_defect = max(max_defect, defect)
        if margin < worst_margin:
            worst_margin = margin
            worst_index = i
        if margin < -tol.band(scale):
            if passed:
                failing = np.asarray(x)
            passed = False
    if not np.isfinite(worst_margin):
        worst_margin = 0.0
    return PositivityReport(
        samples=samples,
        worst_margin=worst_margin,
        worst_index=worst_index,
        max_defect=max_defect,
        passed=passed,
        failing_sample=failing,
    )
