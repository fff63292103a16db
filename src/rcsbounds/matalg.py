"""Hermitian matrix kernel for d x d complex matrices, d <= 16.

Provides the small set of algebra primitives everything else is built on:
adjoints, Hermitian parts, a parallel-ordering two-sided complex Jacobi
eigensolver, positive square roots, absolute values, spectral bounds, the
Loewner order, and a normality check.  All matrices are numpy arrays of
dtype complex128; all norms are Frobenius norms.

re_part, sqrt_psd, abs_element, spectrum_bounds, loewner_leq and is_normal
also accept a stack of N same-size matrices, shape (N, d, d), and then
return one result per slice.  Every eigensolve runs in one private Jacobi
core, _jacobi, which takes a stack already checked Hermitian and scaled
by exact powers of two and returns unsorted eigenvalues and rotations:
eig_hermitian_stack (and sqrt_psd and abs_element through it) checks its
input, solves it there and orders the result; spectrum_bounds reads its
edges off the core's eigenvalues; and a Loewner test a <= b is one
checked solve of b - a, with a and b each checked once.  Batch invariant:
every slice is scaled, checked, iterated and stopped on its own, so slice
k of a stacked result is bit-equal to the result for that matrix alone.

Start basis: a solve can begin the Jacobi iteration of each slice in a
given unitary basis B instead of the identity, that is on B* h B with B
as the accumulated rotations.  A similarity changes no eigenvalue, and
the stopping rule is unchanged (off-diagonal mass at most
JACOBI_REL_TARGET times the norm of the input), so by Weyl's inequality a
started solve is as accurate as a cold one; when B nearly diagonalizes
the input, Jacobi's quadratic convergence makes that a fraction of one
sweep.  A start basis only saves sweeps and carries no meaning of its
own, so a caller keeps it within one computation: bounds starts the
later solves of one report in the eigenvectors of its first.
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

# Largest Frobenius defect ||B* B - I|| of a Jacobi start basis B.
START_UNITARY_TOL = 1e-12

# Floor on the Jacobi rotation denominator, which is zero only for a zero
# pivot over a zero diagonal gap: there 2 / _TINY times the pivot gives 0.
_TINY = np.finfo(np.float64).tiny


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


def _scaled(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An (N, d, d) stack times its _shrink factors, the factors, and the
    Frobenius norms of the scaled stack."""
    shrink = _shrink(m)
    s = m * shrink[:, None, None]
    return s, shrink, _root_sumsq(_flat(s))


def _hermitian_scaled(
    m: np.ndarray, tol: Tolerance, name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check each slice of an (N, d, d) stack for Hermiticity and symmetrize it.

    Returns (h, shrink, norm) as _jacobi takes them: the Hermitian parts
    times their _shrink factors (1 for 1 x 1 matrices), the factors, and
    the Frobenius norms of the scaled inputs.  The defect and the norm are
    compared at that exact scale, so finite inputs of any size neither
    overflow nor widen the band.  A failing slice is reported under name.
    """
    if m.shape[-1] == 1:
        # Closed form: the defect 2 |Im a| and the norm |a| of a 1 x 1
        # matrix square nothing, so they need no scaling.
        a = m[:, 0, 0]
        shrink = np.ones(len(m))
        defect, norm = 2.0 * np.abs(a.imag), np.abs(a)
        h = a.real.astype(np.complex128).reshape(-1, 1, 1)
    else:
        s, shrink, norm = _scaled(m)
        sh = _adjoint(s)
        defect = _root_sumsq(_flat(s - sh))
        # Symmetrize so downstream arithmetic sees an exactly Hermitian matrix.
        h = (s + sh) / 2.0
    bad = defect > tol.atol * shrink + tol.rtol * norm
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise NotHermitianError(
            f"{name}: input is not Hermitian "
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
    row-major flat indices into a d x d matrix, each a run of k-long
    blocks:

    * diagonal, length 2k: the (p, p) entries, then the (q, q) entries;
    * pivots, length 2k: the (p, q) entries, then the (q, p) entries;
    * upper, length k: the (p, q) entries;
    * block, length 4k: the (p, p), (p, q), (q, p), (q, q) entries.

    They index one matrix, so they serve a stack of any size.
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
        step = (
            np.concatenate((pp, qq)),
            np.concatenate((pq, qp)),
            pq,
            np.concatenate((pp, pq, qp, qq)),
        )
        for arr in step:
            arr.flags.writeable = False
        steps.append(step)
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(steps)


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
    rotations, eye n identities and steps the _round_robin index sets of
    d.  Each step zeroes its disjoint pivots (p, q) at once with one block
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
        rows = h.reshape(len(h), -1)
        beta = rows.take(upper, axis=1)
        dg = rows.take(diagonal, axis=1)
        k = beta.shape[1]
        diff = (dg[:, :k] - dg[:, k:]).real
        ab = np.abs(beta)
        den = np.abs(diff) + np.hypot(diff, ab + ab)
        g = np.copysign(2.0 / np.maximum(den, _TINY), diff)
        t = g * ab
        c = 1.0 / np.hypot(1.0, t)
        cw = (c * g) * beta
        j = eye.copy()
        j.reshape(len(j), -1)[:, block] = np.concatenate((c, -cw, cw.conj(), c), axis=1)
        h = j.conj().swapaxes(1, 2) @ h @ j
        v = v @ j
        # The rotated 2x2 blocks are known in closed form; writing them
        # back keeps the pivots exactly zero and the diagonal exactly real.
        shift = t * ab
        rows = h.reshape(len(h), -1)
        rows[:, diagonal] = dg + np.concatenate((shift, -shift), axis=1)
        rows[:, pivots] = 0.0
    return h, v


def _jacobi(
    h: np.ndarray, shrink: np.ndarray, norm: np.ndarray, max_sweeps=JACOBI_MAX_SWEEPS, *, start=None
) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobi core behind every eigensolve of this module.

    h is an exactly Hermitian (N, d, d) stack, each slice times its exact
    power of two shrink (by _hermitian_scaled, or by _scaled when it is
    Hermitian by construction), and norm its slices' Frobenius norms at
    that scale, which keeps the rotations clear of overflow and subnormals.
    Each sweep visits every off-diagonal pivot once in round-robin order,
    d - 1 steps (d for odd d) that each zero d // 2 disjoint pivots with
    one block rotation, applied to every unconverged matrix at once.  A
    matrix leaves the active set once its off-diagonal Frobenius mass drops
    to JACOBI_REL_TARGET times its norm, so slice k is solved as it would
    be alone; NoConvergenceError after max_sweeps sweeps.  start (one basis
    B per slice, or None) is checked unitary here, and the iteration then
    begins at B* h B, symmetrized, with B as the rotations.

    Returns the real diagonal of the converged stack over shrink (_unscaled),
    shape (N, d), unsorted, and the rotations, shape (N, d, d), whose column j
    belongs to entry j.
    """
    n, d, _ = h.shape
    if start is not None:
        start = _unitary_start(start, h.shape)
    if d == 1:
        return _unscaled(h[:, 0, :].real, shrink), np.ones((n, 1, 1), dtype=np.complex128)
    off = _off_diagonal(d)
    steps = _round_robin(d)
    target = JACOBI_REL_TARGET * norm
    eye = np.eye(d, dtype=np.complex128)[None].repeat(n, axis=0)
    # The active matrices and their rotations; a converged matrix is
    # copied out and dropped, so no later sweep touches it.
    active, hs, vs = np.arange(n), h, eye
    if start is not None:
        hs = _adjoint(start) @ h @ start
        hs = (hs + _adjoint(hs)) / 2.0
        vs = start
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
        hs, vs = _jacobi_sweep(hs, vs, eye[: active.size], steps)
    return _unscaled(np.diagonal(out_h, axis1=1, axis2=2).real, shrink), out_v


def _unscaled(lam: np.ndarray, shrink: np.ndarray) -> np.ndarray:
    """lam over shrink; ValueError naming a slice whose eigenvalue leaves the
    double range, which a finite input's can (up to d times its largest entry)."""
    with np.errstate(over="ignore"):
        lam = lam / shrink[:, None]
    bad = ~np.isfinite(lam).all(axis=1)
    if np.count_nonzero(bad):
        raise ValueError(f"eigenvalues overflow the double range (slice {np.argmax(bad)})")
    return lam


def _edges(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's least and greatest entry, the first and the last of equal
    ones (0.0 and -0.0), where eig_hermitian_stack's stable sort puts them."""
    rows, last = np.arange(len(lam)), lam.shape[1] - 1
    return lam[rows, lam.argmin(axis=1)], lam[rows, last - lam[:, ::-1].argmax(axis=1)]


def eig_hermitian_stack(
    a,
    tol: Tolerance = DEFAULT_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
    *,
    start=None,
) -> SpectralDecomposition:
    """Eigendecompositions of a stack of Hermitian matrices, shape (N, d, d).

    Each slice is checked Hermitian within tol, symmetrized and solved in
    the Jacobi core (_jacobi) at its own exact power-of-two scale, with at
    most max_sweeps sweeps, so slice k of the result is bit-equal to the
    decomposition of a[k] alone.  start, shape (N, d, d), is one unitary
    start basis per slice, such as the eigenvectors of a commuting matrix:
    it saves sweeps and changes no eigenvalue, and a slice not unitary to
    START_UNITARY_TOL (Frobenius norm of B* B - I) is a KernelError.

    Returns eigenvalues of shape (N, d), ascending along the last axis, and
    unitary eigenvectors of shape (N, d, d) in the same order; no other
    function orders a solve's eigenvectors.
    """
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 3:
        raise DimMismatchError(f"expected a stack of square matrices, got shape {m.shape}")
    h, shrink, norm = _hermitian_scaled(_validated(m), tol, "eig_hermitian")
    lam, v = _jacobi(h, shrink, norm, max_sweeps, start=start)
    order = np.argsort(lam, axis=1, kind="stable")
    rows = np.arange(len(lam))[:, None]
    return SpectralDecomposition(
        eigenvalues=lam[rows, order],
        eigenvectors=np.ascontiguousarray(v.swapaxes(1, 2)[rows, order].swapaxes(1, 2)),
    )


def _unitary_start(start, shape: tuple[int, ...]) -> np.ndarray:
    """The start bases of eig_hermitian_stack as a stack of the given
    shape; KernelError for a slice not unitary to START_UNITARY_TOL."""
    b = np.ascontiguousarray(start, dtype=np.complex128)
    if b.shape != shape:
        raise DimMismatchError(f"start shape {b.shape} does not match {shape}")
    defect = _norms(_adjoint(b) @ b - np.eye(shape[-1]))
    # A NaN defect (non-finite start) fails the comparison too.
    bad = ~(defect <= START_UNITARY_TOL)
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise KernelError(f"start basis {k} is not unitary (defect {defect[k]:.3e})")
    return b


def eig_hermitian(
    a,
    tol: Tolerance = DEFAULT_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> SpectralDecomposition:
    """Eigendecomposition of one Hermitian matrix: the N = 1 case of
    eig_hermitian_stack, with its tol and max_sweeps.  Returns real
    eigenvalues in ascending order and unitary eigenvectors."""
    dec = eig_hermitian_stack(as_element(a)[None], tol, max_sweeps)
    return SpectralDecomposition(dec.eigenvalues[0], dec.eigenvectors[0])


def _started(start, single: bool):
    """A start basis given with a single matrix as a stack of one, as
    _as_stack gives the matrix; None and stacks as they are."""
    return np.asarray(start)[None] if single and start is not None else start


def sqrt_psd(a, tol: Tolerance = DEFAULT_TOL, *, start=None) -> np.ndarray:
    """Positive semidefinite square root, slice by slice for a stack.

    Eigenvalues in [-band, 0), band = atol + rtol * max|eigenvalue|, are
    clamped to zero; anything below the band raises NotPositiveError.
    start is the eigensolver's start basis (see eig_hermitian_stack),
    shaped like a.
    """
    m, single = _as_stack(a)
    root = _psd_root(eig_hermitian_stack(m, tol, start=_started(start, single)), tol)
    return root[0] if single else root


def _psd_root(dec: SpectralDecomposition, tol: Tolerance) -> np.ndarray:
    """The square roots of sqrt_psd from a stack's decomposition: the
    clamp of eigenvalues in [-band, 0) to zero, NotPositiveError below."""
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
    return (root + _adjoint(root)) / 2.0


def abs_element(a, tol: Tolerance = DEFAULT_TOL, *, start=None) -> np.ndarray:
    """Absolute value |a| = (a* a)^(1/2) for an arbitrary square matrix or a stack.

    start is the start basis of the square root's eigensolve, shaped like a."""
    m, single = _as_stack(a)
    root = sqrt_psd(_adjoint(m) @ m, tol, start=_started(start, single))
    return root[0] if single else root


def spectrum_bounds(a, tol: Tolerance = DEFAULT_TOL):
    """Smallest and largest eigenvalue of a Hermitian matrix, from one
    checked solve.  For a stack, two arrays of shape (N,)."""
    m, single = _as_stack(a)
    lo, hi = _edges(_jacobi(*_hermitian_scaled(m, tol, "eig_hermitian"))[0])
    if single:
        return float(lo[0]), float(hi[0])
    return lo, hi


def loewner_leq(a, b, tol: Tolerance = DEFAULT_TOL, *, start=None, scale=None):
    """Test a <= b in the Loewner order by one solve of b - a.

    Returns (verdict, margin) with margin = min eig(b - a).  The verdict
    is margin >= -(atol + rtol * s), s = max(||a||_F, ||b||_F, scale, 1):
    scale, a float or one per slice, is the size of the operands a or b
    cancels from, whose rounding is no violation (none: 0).  For stacks,
    a boolean and a float array of shape (N,).  start is the start basis
    of the eigensolve of b - a, shaped like a.  a and b are each checked
    Hermitian once, and b - a, exactly Hermitian, is checked finite (an
    overflowing difference is a ValueError) and solved once in the core.
    Finite operands of any size are unscaled without overflow, and their
    band stays finite when ||a||_F or ||b||_F is past the double range."""
    ma, single = _as_stack(a)
    mb, _ = _as_stack(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {np.shape(a)} vs {np.shape(b)}")
    ha, sa, na = _hermitian_scaled(ma, tol, "loewner_leq lhs")
    hb, sb, nb = _hermitian_scaled(mb, tol, "loewner_leq rhs")
    # Unscaled in real arithmetic, as a complex division by a subnormal
    # shrink overflows through its reciprocal; rtol multiplies each norm
    # before its unscaling, so a norm past the double range keeps its band.
    for h, shrink in ((ha, sa), (hb, sb)):
        h.view(np.float64)[...] /= shrink[:, None, None]
    lam, _ = _jacobi(*_scaled(_validated(hb - ha)), start=_started(start, single))
    margin = _edges(lam)[0]
    with np.errstate(over="ignore"):
        norms = np.maximum(tol.rtol * na / sa, tol.rtol * nb / sb)
    floor = tol.rtol * np.maximum(0.0 if scale is None else scale, 1.0)
    holds = margin >= -(tol.atol + np.maximum(norms, floor))
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
