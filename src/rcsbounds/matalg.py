"""Hermitian matrix kernel for d x d complex matrices, d <= 16.

Provides the small set of algebra primitives everything else is built on:
adjoints, Hermitian parts, a parallel-ordering two-sided complex Jacobi
eigensolver, positive square roots, absolute values, spectral bounds, the
Loewner order, and a normality check.  All matrices are numpy arrays of
dtype complex128; all norms are Frobenius norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "SpectralDecomposition",
    "KernelError",
    "DimMismatchError",
    "NotHermitianError",
    "NotPositiveError",
    "NoConvergenceError",
    "as_element",
    "adjoint",
    "re_part",
    "frobenius",
    "hermiticity_defect",
    "eig_hermitian",
    "sqrt_psd",
    "abs_element",
    "spectrum_bounds",
    "loewner_leq",
    "is_normal",
]

MAX_DIM = 16

# Off-diagonal Frobenius mass threshold for Jacobi convergence, relative
# to the Frobenius norm of the input, and the hard sweep cap.
JACOBI_REL_TARGET = 1e-14
JACOBI_MAX_SWEEPS = 60

# Floor on the Jacobi rotation denominator, which is zero only for a zero
# pivot over a zero diagonal gap: there 2 / _TINY times the pivot gives 0.
_TINY = np.finfo(np.float64).tiny
# Signs of the closed-form diagonal shift t |h[p, q]| for the p and q rows.
_SIGNS = np.array([[1.0], [-1.0]])
_SIGNS.flags.writeable = False


class KernelError(Exception):
    """Base class for matrix-kernel failures."""


class DimMismatchError(KernelError):
    """Operands have incompatible or unsupported dimensions."""


class NotHermitianError(KernelError):
    """Input is not Hermitian within tolerance."""


class NotPositiveError(KernelError):
    """Input has an eigenvalue below the negativity band."""


class NoConvergenceError(KernelError):
    """Jacobi iteration failed to converge within the sweep cap."""


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used across the toolkit.

    A comparison at scale s uses the band atol + rtol * s; verdicts treat
    margins at or above -band as passing.
    """

    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self) -> None:
        for value in (self.rtol, self.atol):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError("tolerances must be finite and nonnegative")

    def band(self, scale: float) -> float:
        return self.atol + self.rtol * scale


DEFAULT_TOL = Tolerance()


def as_element(a) -> np.ndarray:
    """Coerce to a finite square complex128 matrix and validate its shape."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise DimMismatchError(
            f"dimension {m.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_element(a).conj().T.copy()


def re_part(a) -> np.ndarray:
    """Hermitian part (a + a*) / 2.  Output is exactly Hermitian."""
    m = as_element(a)
    return (m + m.conj().T) / 2.0


def frobenius(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def hermiticity_defect(a) -> float:
    """Frobenius distance ||a - a*||_F from the Hermitian matrices."""
    m = as_element(a)
    return float(np.linalg.norm(m - m.conj().T))


def _require_hermitian(a: np.ndarray, tol: Tolerance, who: str) -> np.ndarray:
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > tol.band(frobenius(a)):
        raise NotHermitianError(
            f"{who}: input is not Hermitian (defect {defect:.3e})"
        )
    # Symmetrize so downstream arithmetic sees an exactly Hermitian matrix.
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@functools.lru_cache(maxsize=None)
def _round_robin(d: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Flat index sets for one parallel-ordering Jacobi sweep over d x d.

    Round-robin (circle method) ordering: d - 1 steps for even d and d
    steps for odd d, where one index sits out each step.  Each step pairs
    the indices into disjoint pivots (p, q), p < q, and every pivot occurs
    exactly once per sweep.  A step is three arrays of row-major flat
    indices into a d x d matrix:

    * diagonal, shape (2, k): the (p, p) entries over the (q, q) entries;
    * pivots, shape (2, k): the (p, q) entries over the (q, p) entries;
    * block, shape (4, k): the (p, p), (p, q), (q, p), (q, q) entries.
    """
    n = d + d % 2
    players = list(range(n))
    steps = []
    for _ in range(n - 1):
        pairs = sorted(
            (min(a, b), max(a, b))
            for a, b in zip(players[: n // 2], reversed(players[n // 2 :]))
            if max(a, b) < d
        )
        p = np.array([a for a, _ in pairs])
        q = np.array([b for _, b in pairs])
        pp, pq, qp, qq = p * (d + 1), p * d + q, q * d + p, q * (d + 1)
        step = (np.stack((pp, qq)), np.stack((pq, qp)), np.stack((pp, pq, qp, qq)))
        for arr in step:
            arr.flags.writeable = False
        steps.append(step)
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _off_diagonal_mask(d: int) -> np.ndarray:
    mask = ~np.eye(d, dtype=bool)
    mask.flags.writeable = False
    return mask


def _off_diagonal_norm(h: np.ndarray) -> float:
    return float(np.linalg.norm(h[_off_diagonal_mask(h.shape[0])]))


def _jacobi_sweep(
    h: np.ndarray, v: np.ndarray, eye: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One parallel-ordering sweep over Hermitian h; returns the new (h, v).

    Each step zeroes its disjoint pivots (p, q) at once with one block
    rotation J, the identity outside rows and columns p, q and

        [[c, -c * w], [c * conj(w), c]],   w = t * u,   c = 1 / sqrt(1 + t^2)

    on them, where u is the phase of h[p, q] and t the smaller root of
    t^2 + 2 tau t = 1, tau = (h[p, p] - h[q, q]) / (2 |h[p, q]|).  It applies
    h <- J* h J and v <- v J as matrix products; J* h J has a zero (p, q)
    entry and diagonal h[p, p] + t |h[p, q]|, h[q, q] - t |h[p, q]|.  With
    delta = h[p, p] - h[q, q], the code forms

        g = t / |h[p, q]| = sign(delta) * 2 / (|delta| + hypot(delta, 2 |h[p, q]|))

    with the denominator floored at _TINY, so g is finite, |t| <= 1, and a
    zero pivot gives w = 0 and J = identity without dividing by the pivot.
    """
    for diagonal, pivots, block in _round_robin(h.shape[0]):
        beta = h.take(pivots[0])
        dg = h.take(diagonal)
        diff = (dg[0] - dg[1]).real
        ab = np.abs(beta)
        den = np.abs(diff) + np.hypot(diff, ab + ab)
        g = np.copysign(2.0 / np.maximum(den, _TINY), diff)
        t = g * ab
        c = 1.0 / np.hypot(1.0, t)
        cw = (c * g) * beta
        j = eye.copy()
        j.put(block, np.concatenate((c, -cw, cw.conj(), c)))
        h = j.conj().T @ h @ j
        v = v @ j
        # The rotated 2x2 blocks are known in closed form; writing them
        # back keeps the pivots exactly zero and the diagonal exactly real.
        h.put(diagonal, dg + (t * ab) * _SIGNS)
        h.put(pivots, 0.0)
    return h, v


def eig_hermitian(
    a,
    tol: Tolerance = DEFAULT_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix by parallel-ordering two-sided Jacobi.

    Each sweep visits every off-diagonal pivot once in round-robin order:
    d - 1 steps (d for odd d), each zeroing d // 2 disjoint pivots with one
    block rotation.  Sweeps repeat until the off-diagonal Frobenius mass
    drops to JACOBI_REL_TARGET times the Frobenius norm of the input.

    Parameters
    ----------
    a : array_like
        Hermitian matrix (within tol; symmetrized before iterating).
    tol : Tolerance
        Band for the Hermiticity precondition.
    max_sweeps : int
        Hard cap on full sweeps; NoConvergenceError beyond it.

    Returns
    -------
    SpectralDecomposition
        Real eigenvalues in ascending order and unitary eigenvectors.
    """
    m = as_element(a)
    h = _require_hermitian(m, tol, "eig_hermitian")
    d = h.shape[0]
    if d == 1:
        return SpectralDecomposition(
            eigenvalues=np.array([h[0, 0].real]),
            eigenvectors=np.eye(1, dtype=np.complex128),
        )
    # Jacobi commutes with scaling by a power of two, which is exact:
    # iterating on h * 2^-e with max |h| near 1 keeps the rotations and
    # norms clear of overflow and subnormals at any input scale.
    shrink = math.ldexp(1.0, min(-math.frexp(float(np.max(np.abs(h))))[1], 1023))
    h = h * shrink
    eye = np.eye(d, dtype=np.complex128)
    v = eye
    target = JACOBI_REL_TARGET * frobenius(h)
    sweeps = 0
    while _off_diagonal_norm(h) > target:
        if sweeps >= max_sweeps:
            raise NoConvergenceError(
                f"Jacobi did not converge in {max_sweeps} sweeps (off-diagonal "
                f"mass {_off_diagonal_norm(h) / shrink:.3e}, target {target / shrink:.3e})"
            )
        h, v = _jacobi_sweep(h, v, eye)
        sweeps += 1
    lam = np.real(np.diag(h)) / shrink
    order = np.argsort(lam, kind="stable")
    return SpectralDecomposition(
        eigenvalues=lam[order],
        eigenvectors=np.ascontiguousarray(v[:, order]),
    )


def sqrt_psd(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positive semidefinite square root.

    Eigenvalues in [-band, 0), band = atol + rtol * max|eigenvalue|, are
    clamped to zero; anything below the band raises NotPositiveError.
    """
    dec = eig_hermitian(a, tol)
    lam = dec.eigenvalues
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    band = tol.band(scale)
    if lam[0] < -band:
        raise NotPositiveError(
            f"matrix has eigenvalue {lam[0]:.6e} below -{band:.3e}"
        )
    clamped = np.where(lam < 0.0, 0.0, lam)
    v = dec.eigenvectors
    root = (v * np.sqrt(clamped)) @ v.conj().T
    return (root + root.conj().T) / 2.0


def abs_element(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Absolute value |a| = (a* a)^(1/2) for an arbitrary square matrix."""
    m = as_element(a)
    return sqrt_psd(m.conj().T @ m, tol)


def spectrum_bounds(a, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix."""
    dec = eig_hermitian(a, tol)
    return float(dec.eigenvalues[0]), float(dec.eigenvalues[-1])


def loewner_leq(a, b, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Test a <= b in the Loewner order.

    Returns (verdict, margin) with margin = min eig(b - a).  The verdict
    is margin >= -(atol + rtol * scale), scale = max(||a||_F, ||b||_F, 1).
    """
    ma = as_element(a)
    mb = as_element(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    ma = _require_hermitian(ma, tol, "loewner_leq lhs")
    mb = _require_hermitian(mb, tol, "loewner_leq rhs")
    diff = mb - ma
    dec = eig_hermitian(diff, tol)
    margin = float(dec.eigenvalues[0])
    scale = max(frobenius(ma), frobenius(mb), 1.0)
    return margin >= -tol.band(scale), margin


def is_normal(a, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Check a* a = a a* and report the Frobenius deviation."""
    m = as_element(a)
    dev = float(np.linalg.norm(m.conj().T @ m - m @ m.conj().T))
    scale = frobenius(m) ** 2
    return dev <= tol.atol + tol.rtol * scale, dev
