"""Hermitian matrix kernel for d x d complex matrices, d <= 16.

Provides the small set of algebra primitives everything else is built on:
adjoints, Hermitian parts, a parallel-ordering two-sided complex Jacobi
eigensolver, positive square roots, absolute values, spectral bounds, the
Loewner order, and a normality check.  All matrices are numpy arrays of
dtype complex128; all norms are Frobenius norms.

re_part, sqrt_psd, abs_element, spectrum_bounds, loewner_leq and is_normal
also accept a stack of N same-size matrices, shape (N, d, d), and then
return one result per slice; eig_hermitian_stack is the stacked
eigensolver behind all of them.  Batch invariant: every slice is scaled,
checked, iterated and stopped on its own, so slice k of a stacked result
is bit-equal to the result for that matrix alone, whatever its
batch-mates.
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
    "eig_hermitian_stack",
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

    def band(self, scale):
        return self.atol + self.rtol * scale


DEFAULT_TOL = Tolerance()


def _validated(m: np.ndarray) -> np.ndarray:
    """Check that the last two axes of m form finite square d x d matrices, 1 <= d <= MAX_DIM."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[-1] <= MAX_DIM:
        raise DimMismatchError(
            f"dimension {m.shape[-1]} outside supported range 1..{MAX_DIM}"
        )
    if np.count_nonzero(~np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_element(a) -> np.ndarray:
    """Coerce to a finite square complex128 matrix and validate its shape."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    return _validated(np.ascontiguousarray(m))


def _as_stack(a) -> tuple[np.ndarray, bool]:
    """A matrix or an (N, d, d) stack as a validated stack, and whether it was one matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 3:
        return _validated(np.ascontiguousarray(m)), False
    return as_element(m)[None], True


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_element(a).conj().T.copy()


def re_part(a) -> np.ndarray:
    """Hermitian part (a + a*) / 2, slice by slice for a stack.  Output is exactly Hermitian."""
    m, single = _as_stack(a)
    h = (m + _adjoint(m)) / 2.0
    return h[0] if single else h


def _flat(m: np.ndarray) -> np.ndarray:
    """The matrices over the last two axes of m as row-major rows."""
    return m.reshape(*m.shape[:-2], -1)


def _shrink(m: np.ndarray) -> np.ndarray:
    """Per matrix over the last two axes, the power of two 2^-e that brings
    the largest entry into [0.5, 1), or below 0.5 when it is under the
    least normal double.  Scaling by it is exact, and the scaled entries
    can be squared and summed without overflow."""
    big = np.maximum.reduce(np.abs(_flat(m)), axis=-1, initial=_TINY)
    return np.ldexp(1.0, -np.frexp(big)[1])


def _root_sumsq(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, without rescaling."""
    parts = np.ascontiguousarray(rows).view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", parts, parts))


def _norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, at an exact power-of-two scale."""
    shrink = _shrink(m)
    return _root_sumsq(_flat(m) * shrink[..., None]) / shrink


def frobenius(a) -> float:
    """Frobenius norm; finite entries of any size give a finite norm below overflow."""
    return float(_norms(np.asarray(a, dtype=np.complex128).reshape(1, -1)))


def hermiticity_defect(a) -> float:
    """Frobenius distance ||a - a*||_F from the Hermitian matrices."""
    m = as_element(a)
    return frobenius(m - m.conj().T)


def _hermitian_scaled(
    m: np.ndarray, tol: Tolerance, names: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check each slice of an (N, d, d) stack for Hermiticity and symmetrize it.

    Returns (h, shrink, norm): the Hermitian parts times their _shrink
    factors (1 for 1 x 1 matrices), the factors, and the Frobenius norms
    of the scaled inputs.  The defect and the norm are compared at that
    exact scale, so finite inputs of any size neither overflow nor widen
    the band.  The stack is
    split into len(names) equal parts, and a failing slice is reported
    under the name of its part.
    """
    if m.shape[-1] == 1:
        # Closed form: the defect 2 |Im a| and the norm |a| of a 1 x 1
        # matrix square nothing, so they need no scaling.
        a = m[:, 0, 0]
        shrink = np.ones(len(m))
        defect, norm = 2.0 * np.abs(a.imag), np.abs(a)
        h = a.real.astype(np.complex128).reshape(-1, 1, 1)
    else:
        shrink = _shrink(m)
        s = m * shrink[:, None, None]
        sh = _adjoint(s)
        defect = _root_sumsq(_flat(s - sh))
        norm = _root_sumsq(_flat(s))
        # Symmetrize so downstream arithmetic sees an exactly Hermitian matrix.
        h = (s + sh) / 2.0
    bad = defect > tol.atol * shrink + tol.rtol * norm
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise NotHermitianError(
            f"{names[k * len(names) // len(m)]}: input is not Hermitian "
            f"(defect {float(defect[k]) / float(shrink[k]):.3e})"
        )
    return h, shrink, norm


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and a unitary matrix of column eigenvectors.

    For a stack the arrays carry a leading axis: eigenvalues (N, d) and
    eigenvectors (N, d, d).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ _adjoint(v)


@functools.lru_cache(maxsize=None)
def _round_robin(d: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Flat index sets for one parallel-ordering Jacobi sweep over d x d.

    Round-robin (circle method) ordering: d - 1 steps for even d and d
    steps for odd d, where one index sits out each step.  Each step pairs
    the indices into k = d // 2 disjoint pivots (p, q), p < q, and every
    pivot occurs exactly once per sweep.  A step is four arrays of
    row-major flat indices into a d x d matrix:

    * diagonal, shape (2, k): the (p, p) entries over the (q, q) entries;
    * pivots, shape (2, k): the (p, q) entries over the (q, p) entries;
    * upper, shape (k,): the (p, q) entries;
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
        step = (np.stack((pp, qq)), np.stack((pq, qp)), pq, np.stack((pp, pq, qp, qq)))
        for arr in step:
            arr.flags.writeable = False
        steps.append(step)
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(steps)


def _stack_steps(d: int, n: int):
    """The _round_robin index sets of d for every matrix of a row-major
    (n, d, d) stack, as indices into its flat buffer: each set repeated n
    times along its last axis, matrix by matrix, with the matrix's offset
    added.  Shifted one step at a time, so the index arrays never outgrow
    one step."""
    steps = _round_robin(d)
    if n == 1:
        return steps
    base = np.repeat(np.arange(n) * (d * d), d // 2)
    return (tuple(np.tile(idx, n) + base for idx in step) for step in steps)


@functools.lru_cache(maxsize=None)
def _off_diagonal(d: int) -> np.ndarray:
    """Row-major flat indices of the off-diagonal entries of d x d."""
    off = np.flatnonzero(~np.eye(d, dtype=bool))
    off.flags.writeable = False
    return off


def _jacobi_sweep(
    h: np.ndarray, v: np.ndarray, eye: np.ndarray, steps
) -> tuple[np.ndarray, np.ndarray]:
    """One parallel-ordering sweep over a stack; returns the new (h, v).

    h is an (n, d, d) stack of Hermitian matrices, v their accumulated
    rotations, eye n identities and steps the _stack_steps of (d, n).
    Each step zeroes its disjoint pivots (p, q) at once with one block
    rotation J per matrix, the identity outside rows and columns p, q and

        [[c, -c * w], [c * conj(w), c]],   w = t * u,   c = 1 / sqrt(1 + t^2)

    on them, where u is the phase of h[p, q] and t the smaller root of
    t^2 + 2 tau t = 1, tau = (h[p, p] - h[q, q]) / (2 |h[p, q]|).  It applies
    h <- J* h J and v <- v J as matrix products; J* h J has a zero (p, q)
    entry and diagonal h[p, p] + t |h[p, q]|, h[q, q] - t |h[p, q]|.  With
    delta = h[p, p] - h[q, q], the code forms

        g = t / |h[p, q]| = sign(delta) * 2 / (|delta| + hypot(delta, 2 |h[p, q]|))

    with the denominator floored at _TINY, so g is finite, |t| <= 1, and a
    zero pivot gives w = 0 and J = identity without dividing by the pivot.
    Every operation acts on each matrix alone.
    """
    for diagonal, pivots, upper, block in steps:
        beta = h.take(upper)
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
        h = j.conj().swapaxes(1, 2) @ h @ j
        v = v @ j
        # The rotated 2x2 blocks are known in closed form; writing them
        # back keeps the pivots exactly zero and the diagonal exactly real.
        h.put(diagonal, dg + (t * ab) * _SIGNS)
        h.put(pivots, 0.0)
    return h, v


def eig_hermitian_stack(
    a,
    tol: Tolerance = DEFAULT_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> SpectralDecomposition:
    """Eigendecompositions of a stack of Hermitian matrices, shape (N, d, d).

    Parallel-ordering two-sided Jacobi: each sweep visits every
    off-diagonal pivot once in round-robin order, d - 1 steps (d for odd d)
    that each zero d // 2 disjoint pivots with one block rotation, applied
    to every unconverged matrix of the stack at once.

    Each matrix is iterated at its own exact power-of-two scale and leaves
    the active set as soon as its off-diagonal Frobenius mass drops to
    JACOBI_REL_TARGET times its own Frobenius norm, so slice k of the
    result is bit-equal to the decomposition of a[k] alone.

    Parameters
    ----------
    a : array_like, shape (N, d, d)
        Hermitian matrices (each within tol; symmetrized before iterating).
    tol : Tolerance
        Band for the Hermiticity precondition, checked slice by slice.
    max_sweeps : int
        Hard cap on full sweeps per matrix; NoConvergenceError beyond it.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues of shape (N, d), ascending along the last axis, and
        unitary eigenvectors of shape (N, d, d).
    """
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 3:
        raise DimMismatchError(f"expected a stack of square matrices, got shape {m.shape}")
    # Jacobi commutes with scaling by a power of two, which is exact:
    # iterating on h * 2^-e with max |h| near 1 keeps the rotations and
    # norms clear of overflow and subnormals at any input scale.
    h, shrink, norm = _hermitian_scaled(_validated(m), tol, ("eig_hermitian",))
    n, d, _ = h.shape
    if d == 1:
        return SpectralDecomposition(
            eigenvalues=h[:, 0, :].real / shrink[:, None],
            eigenvectors=np.ones((n, 1, 1), dtype=np.complex128),
        )
    off = _off_diagonal(d)
    target = JACOBI_REL_TARGET * norm
    eye = np.eye(d, dtype=np.complex128)[None].repeat(n, axis=0)
    # The active matrices and their rotations; a converged matrix is
    # copied out and dropped, so no later sweep touches it.
    active, hs, vs = np.arange(n), h, eye
    out_h = out_v = None
    for sweeps in range(max_sweeps + 1):
        mass = _root_sumsq(hs.reshape(-1, d * d).take(off, axis=1))
        done = mass <= target
        if np.count_nonzero(done):
            if out_h is None:
                if done.all():
                    out_h, out_v = hs, vs
                    break
                out_h, out_v = np.empty_like(h), np.empty_like(h)
            out_h[active[done]] = hs[done]
            out_v[active[done]] = vs[done]
            keep = ~done
            if not np.count_nonzero(keep):
                break
            active, target, mass = active[keep], target[keep], mass[keep]
            hs, vs = hs[keep], vs[keep]
        if sweeps == max_sweeps:
            k = active[0]
            raise NoConvergenceError(
                f"Jacobi did not converge in {max_sweeps} sweeps (off-diagonal "
                f"mass {mass[0] / shrink[k]:.3e}, target {target[0] / shrink[k]:.3e})"
            )
        hs, vs = _jacobi_sweep(hs, vs, eye[: active.size], _stack_steps(d, active.size))
    lam = np.diagonal(out_h, axis1=1, axis2=2).real / shrink[:, None]
    order = np.argsort(lam, axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    return SpectralDecomposition(
        eigenvalues=lam[rows, order],
        eigenvectors=np.ascontiguousarray(out_v.swapaxes(1, 2)[rows, order].swapaxes(1, 2)),
    )


def eig_hermitian(
    a,
    tol: Tolerance = DEFAULT_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> SpectralDecomposition:
    """Eigendecomposition of one Hermitian matrix by parallel-ordering two-sided Jacobi.

    The N = 1 case of eig_hermitian_stack: sweeps repeat until the
    off-diagonal Frobenius mass drops to JACOBI_REL_TARGET times the
    Frobenius norm of the input.

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
    dec = eig_hermitian_stack(as_element(a)[None], tol, max_sweeps)
    return SpectralDecomposition(dec.eigenvalues[0], dec.eigenvectors[0])


def sqrt_psd(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positive semidefinite square root, slice by slice for a stack.

    Eigenvalues in [-band, 0), band = atol + rtol * max|eigenvalue|, are
    clamped to zero; anything below the band raises NotPositiveError.
    """
    m, single = _as_stack(a)
    dec = eig_hermitian_stack(m, tol)
    lam = dec.eigenvalues
    band = tol.band(np.max(np.abs(lam), axis=1))
    low = lam[:, 0] < -band
    if np.count_nonzero(low):
        k = int(np.argmax(low))
        raise NotPositiveError(
            f"matrix has eigenvalue {lam[k, 0]:.6e} below -{band[k]:.3e}"
        )
    clamped = np.where(lam < 0.0, 0.0, lam)
    v = dec.eigenvectors
    root = (v * np.sqrt(clamped)[:, None, :]) @ _adjoint(v)
    root = (root + _adjoint(root)) / 2.0
    return root[0] if single else root


def abs_element(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Absolute value |a| = (a* a)^(1/2) for an arbitrary square matrix or a stack."""
    m, single = _as_stack(a)
    root = sqrt_psd(_adjoint(m) @ m, tol)
    return root[0] if single else root


def spectrum_bounds(a, tol: Tolerance = DEFAULT_TOL):
    """Smallest and largest eigenvalue of a Hermitian matrix.

    For a stack, two arrays of shape (N,)."""
    m, single = _as_stack(a)
    lam = eig_hermitian_stack(m, tol).eigenvalues
    if single:
        return float(lam[0, 0]), float(lam[0, -1])
    return lam[:, 0], lam[:, -1]


def loewner_leq(a, b, tol: Tolerance = DEFAULT_TOL):
    """Test a <= b in the Loewner order.

    Returns (verdict, margin) with margin = min eig(b - a).  The verdict
    is margin >= -(atol + rtol * scale), scale = max(||a||_F, ||b||_F, 1).
    For stacks, a boolean and a float array of shape (N,).
    """
    ma, single = _as_stack(a)
    mb, _ = _as_stack(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {np.shape(a)} vs {np.shape(b)}")
    n = len(ma)
    h, shrink, norm = _hermitian_scaled(
        np.concatenate((ma, mb)), tol, ("loewner_leq lhs", "loewner_leq rhs")
    )
    h /= shrink[:, None, None]
    norm /= shrink
    margin = eig_hermitian_stack(h[n:] - h[:n], tol).eigenvalues[:, 0]
    scale = np.maximum(np.maximum(norm[:n], norm[n:]), 1.0)
    holds = margin >= -tol.band(scale)
    if single:
        return bool(holds[0]), float(margin[0])
    return holds, margin


def is_normal(a, tol: Tolerance = DEFAULT_TOL):
    """Check a* a = a a* and report the Frobenius deviation (arrays for a stack)."""
    m, single = _as_stack(a)
    mh = _adjoint(m)
    dev = _norms(mh @ m - m @ mh)
    ok = dev <= tol.atol + tol.rtol * _norms(m) ** 2
    if single:
        return bool(ok[0]), float(dev[0])
    return ok, dev
