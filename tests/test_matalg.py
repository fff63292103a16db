"""Kernel tests: every eigenvalue-dependent result is checked against an
oracle that does not go through the Jacobi sweep (closed-form 2x2 roots,
numpy's eigh, or direct squaring/reconstruction residuals)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsbounds.harness import gen_random_unitary
from rcsbounds.matalg import (
    DEFAULT_TOL,
    JACOBI_MAX_SWEEPS,
    MAX_DIM,
    DimMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPositiveError,
    Tolerance,
    abs_element,
    adjoint,
    as_element,
    eig_hermitian,
    eig_hermitian_stack,
    frobenius,
    is_normal,
    loewner_leq,
    re_part,
    spectrum_bounds,
    sqrt_psd,
)
from rcsbounds.rng import stream

RECON_RTOL = 1e-10


def rand_hermitian(d, g, scale=1.0):
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return scale * (z + z.conj().T) / 2.0


def rand_psd(d, g, scale=1.0):
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return scale * (z.conj().T @ z)


def eig2_closed_form(a):
    """Roots of lambda^2 - tr(A) lambda + det(A) for 2x2 Hermitian A."""
    tr = (a[0, 0] + a[1, 1]).real
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def test_as_element_rejects_bad_shapes():
    with pytest.raises(DimMismatchError):
        as_element(np.zeros((2, 3)))
    with pytest.raises(DimMismatchError):
        as_element(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))
    with pytest.raises(ValueError):
        as_element(np.array([[np.nan]]))


def test_adjoint_examples():
    assert adjoint([[1j]]) == np.array([[-1j]])
    np.testing.assert_array_equal(adjoint([[0, 1], [0, 0]]), [[0, 0], [1, 0]])
    h = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    np.testing.assert_array_equal(adjoint(h), h)
    z = np.array([[1 + 2j, 3j], [0, 4]])
    np.testing.assert_array_equal(adjoint(adjoint(z)), z)


def test_re_part_examples():
    assert re_part([[1j]]) == np.array([[0]])
    np.testing.assert_allclose(re_part([[0, 2], [0, 0]]), [[0, 1], [1, 0]])
    h = rand_hermitian(3, stream(1, 0))
    np.testing.assert_array_equal(re_part(h), h)


def test_eig_diagonal_permutation():
    dec = eig_hermitian(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)
    # columns of V must be (signed/phased) identity columns
    np.testing.assert_allclose(np.abs(dec.eigenvectors), [[0, 1], [1, 0]], atol=1e-12)


def test_eig_offdiagonal_pair():
    dec = eig_hermitian([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_2x2_closed_form_oracle():
    for trial in range(200):
        g = stream(100, trial)
        a = rand_hermitian(2, g, scale=float(g.uniform(0.1, 10.0)))
        lo, hi = eig2_closed_form(a)
        dec = eig_hermitian(a)
        scale = max(abs(lo), abs(hi), 1.0)
        assert abs(dec.eigenvalues[0] - lo) <= 1e-12 * scale
        assert abs(dec.eigenvalues[1] - hi) <= 1e-12 * scale


def test_eig_matches_numpy_eigh():
    for trial, d in enumerate([1, 2, 3, 5, 8, 13, 16]):
        a = rand_hermitian(d, stream(200, trial))
        ours = eig_hermitian(a).eigenvalues
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(ours, ref, atol=1e-10 * max(frobenius(a), 1.0))


def test_eig_reconstruction_and_unitarity():
    for trial in range(20):
        g = stream(300, trial)
        d = int(g.integers(1, MAX_DIM + 1))
        a = rand_hermitian(d, g)
        dec = eig_hermitian(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert frobenius(recon - a) <= RECON_RTOL * max(frobenius(a), 1.0)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert frobenius(gram - np.eye(d)) <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian([[0.0, 1.0], [0.0, 0.0]])


def test_eig_sweep_cap():
    a = rand_hermitian(4, stream(7, 0))
    with pytest.raises(NoConvergenceError):
        eig_hermitian(a, max_sweeps=0)


def test_sqrt_examples():
    np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = sqrt_psd(a)
    assert frobenius(b @ b - a) <= 1e-10 * max(frobenius(a), 1.0)


def test_sqrt_clamps_roundoff_negatives():
    a = np.diag([1.0, -1e-14])
    b = sqrt_psd(a)
    assert b[1, 1].real == 0.0


def test_sqrt_rejects_genuinely_negative():
    with pytest.raises(NotPositiveError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_involution_many_dims():
    # 200 PSD matrices over the supported dims, squaring residual bounded
    dims = [1, 2, 4, 8, 16]
    for trial in range(200):
        g = stream(400, trial)
        d = dims[trial % len(dims)]
        a = rand_psd(d, g, scale=float(g.uniform(0.1, 10.0)))
        b = sqrt_psd(a)
        assert frobenius(b @ b - a) <= 1e-10 * max(frobenius(a), 1.0)
        assert frobenius(b - b.conj().T) == 0.0


def test_abs_examples():
    np.testing.assert_allclose(abs_element([[-3.0]]), [[3.0]], atol=1e-14)
    np.testing.assert_allclose(abs_element(np.diag([2.0, -3.0])), np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(
        abs_element([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0]), atol=1e-12
    )


def test_abs_positivity_property():
    for trial in range(50):
        g = stream(500, trial)
        d = int(g.integers(1, 9))
        a = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        m = abs_element(a)
        assert eig_hermitian(m).eigenvalues[0] >= -DEFAULT_TOL.atol


def test_spectrum_bounds_examples():
    assert spectrum_bounds(np.diag([1.0, 2.0, 5.0])) == (1.0, 5.0)
    assert spectrum_bounds(np.eye(3)) == (1.0, 1.0)
    lo, hi = spectrum_bounds([[2.0, 1.0], [1.0, 2.0]])
    assert abs(lo - 1.0) <= 1e-12 and abs(hi - 3.0) <= 1e-12


def test_loewner_examples():
    ok, margin = loewner_leq(np.zeros((2, 2)), np.eye(2))
    assert ok and abs(margin - 1.0) <= 1e-12
    ok, margin = loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    assert not ok and abs(margin + 1.0) <= 1e-12
    a = rand_hermitian(3, stream(2, 0))
    ok, margin = loewner_leq(a, a)
    assert ok and abs(margin) <= DEFAULT_TOL.atol


def test_loewner_dim_mismatch():
    with pytest.raises(DimMismatchError):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_antisymmetry_at_tolerance():
    # both directions true forces near-equality
    for trial in range(20):
        a = rand_hermitian(4, stream(600, trial))
        b = a + 1e-14 * np.eye(4)
        ab, _ = loewner_leq(a, b)
        ba, _ = loewner_leq(b, a)
        if ab and ba:
            scale = max(frobenius(a), frobenius(b), 1.0)
            assert frobenius(a - b) <= 10 * DEFAULT_TOL.band(scale)


def test_is_normal_examples():
    h = rand_hermitian(3, stream(3, 0))
    ok, dev = is_normal(h)
    assert ok and dev <= 1e-12
    ok, dev = is_normal([[0.0, 1.0], [0.0, 0.0]])
    assert not ok
    assert abs(dev - math.sqrt(2.0)) <= 1e-12


def test_tolerance_band():
    tol = Tolerance(rtol=1e-6, atol=1e-9)
    assert tol.band(2.0) == 1e-9 + 2e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
def test_tolerance_rejects_non_finite_and_negative(bad):
    with pytest.raises(ValueError):
        Tolerance(rtol=bad)
    with pytest.raises(ValueError):
        Tolerance(atol=bad)
    assert Tolerance(rtol=0.0, atol=0.0).band(1.0) == 0.0


def adversarial_hermitian(kind, d, g):
    """Inputs that stress the Jacobi rotation formulas and its stopping rule."""
    if kind == "zero":
        return np.zeros((d, d), dtype=np.complex128)
    if kind == "identity":
        return np.eye(d, dtype=np.complex128)
    if kind == "graded":
        grade = np.logspace(-8, 8, d)
        return grade[:, None] * rand_hermitian(d, g) * grade[None, :]
    if kind in ("huge", "tiny"):
        return (1e150 if kind == "huge" else 1e-150) * rand_hermitian(d, g)
    if kind == "repeated":
        lam = np.where(np.arange(d) % 2 == 0, 1.0, 2.0)
    elif kind == "clustered":
        lam = 1.0 + 1e-10 * np.arange(d)
    elif kind == "rank1":
        lam = np.zeros(d)
        lam[-1] = float(g.uniform(0.5, 2.0))
    else:
        raise ValueError(kind)
    u = gen_random_unitary(d, g)
    return re_part((u * lam) @ u.conj().T)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind",
    ["zero", "identity", "repeated", "clustered", "graded", "rank1", "huge", "tiny"],
)
def test_eig_adversarial_inputs_every_dim(kind):
    # Converging within JACOBI_MAX_SWEEPS means no NoConvergenceError; any
    # overflow, division by zero or invalid operation raises here.
    for d in range(1, MAX_DIM + 1):
        for trial in range(3):
            a = adversarial_hermitian(kind, d, stream(700 + d, trial))
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                dec = eig_hermitian(a, max_sweeps=JACOBI_MAX_SWEEPS)
            norm = frobenius(a)
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)
            assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(a))) <= 1e-12 * norm
            assert frobenius(dec.reconstruct() - a) <= 1e-12 * norm
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert frobenius(gram - np.eye(d)) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_eig_2x2_closed_form_edge_pivots():
    # Equal diagonals (tau = 0), a zero pivot, and pivots far below or
    # far above the diagonal gap.
    cases = [
        [[1.0, 1j], [-1j, 1.0]],
        [[2.0, 0.0], [0.0, -3.0]],
        [[1.0, 1e-300], [1e-300, 2.0]],
        [[1e-300, 1.0 + 1.0j], [1.0 - 1.0j, -1e-300]],
    ]
    for case in cases:
        a = np.array(case, dtype=np.complex128)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            dec = eig_hermitian(a)
        lo, hi = eig2_closed_form(a)
        scale = max(abs(lo), abs(hi))
        assert abs(dec.eigenvalues[0] - lo) <= 1e-15 * scale
        assert abs(dec.eigenvalues[1] - hi) <= 1e-15 * scale
        assert frobenius(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(2)) <= 1e-15
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        # A subnormal pivot over equal diagonals, where the closed form's
        # determinant underflows: the eigenvalues are -|b| and |b|.
        dec = eig_hermitian([[0.0, 1e-310j], [-1e-310j, 0.0]])
        np.testing.assert_allclose(dec.eigenvalues, [-1e-310, 1e-310], rtol=1e-15, atol=0.0)
        # The first step's pivots are (0, 3) and (1, 2): a zero pivot over a
        # zero diagonal gap is rotated next to a nonzero one.
        a = np.array([[1, 0, 0, 0], [0, 2, 1j, 0], [0, -1j, 3, 0], [0, 0, 0, 1]])
        np.testing.assert_allclose(
            eig_hermitian(a).eigenvalues, np.linalg.eigvalsh(a), rtol=0.0, atol=1e-15
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
def test_eig_preserves_trace_and_det_sign(seed, d):
    a = rand_hermitian(d, stream(seed, 0))
    vals = eig_hermitian(a).eigenvalues
    assert abs(vals.sum() - np.trace(a).real) <= 1e-10 * max(frobenius(a), 1.0)
    assert np.all(np.diff(vals) >= -1e-15)


def test_eig_stack_slices_equal_single_calls_every_dim():
    # Batch invariant: a slice's decomposition does not depend on its
    # batch-mates.  Exactly repeated eigenvalues take many more sweeps
    # than distinct spectra, so the slices leave the active set at
    # different sweeps.
    for d in range(1, MAX_DIM + 1):
        g = stream(800 + d, 0)
        slices = []
        for k in range(6):
            if k % 3 == 0:
                slices.append(adversarial_hermitian("repeated", d, g))
            elif k % 3 == 1:
                slices.append(rand_hermitian(d, g, scale=float(g.uniform(0.1, 1e3))))
            else:
                slices.append(adversarial_hermitian("graded", d, g))
        stack = np.stack(slices)
        dec = eig_hermitian_stack(stack)
        assert dec.eigenvalues.shape == (6, d) and dec.eigenvectors.shape == (6, d, d)
        for k, a in enumerate(stack):
            single = eig_hermitian(a)
            np.testing.assert_array_equal(dec.eigenvalues[k], single.eigenvalues)
            np.testing.assert_array_equal(dec.eigenvectors[k], single.eigenvectors)
            assert np.max(np.abs(single.eigenvalues - np.linalg.eigvalsh(a))) <= 1e-12 * frobenius(a)
        # The same slices in another order and in sub-stacks.
        order = g.permutation(6)
        shuffled = eig_hermitian_stack(stack[order])
        np.testing.assert_array_equal(shuffled.eigenvalues, dec.eigenvalues[order])
        np.testing.assert_array_equal(shuffled.eigenvectors, dec.eigenvectors[order])
        part = eig_hermitian_stack(stack[1:4])
        np.testing.assert_array_equal(part.eigenvalues, dec.eigenvalues[1:4])


def test_stacked_primitives_equal_single_calls():
    g = stream(850, 0)
    for d in (1, 2, 5, 8, 16):
        a = np.stack([rand_psd(d, g) for _ in range(4)])
        b = a + np.stack([rand_psd(d, g, scale=0.1) for _ in range(4)])
        roots = sqrt_psd(a)
        absolutes = abs_element(b - 2 * a)
        lo, hi = spectrum_bounds(a)
        holds, margins = loewner_leq(a, b)
        normal, devs = is_normal(b @ a)
        for k in range(4):
            np.testing.assert_array_equal(roots[k], sqrt_psd(a[k]))
            np.testing.assert_array_equal(absolutes[k], abs_element(b[k] - 2 * a[k]))
            assert (lo[k], hi[k]) == spectrum_bounds(a[k])
            assert (holds[k], margins[k]) == loewner_leq(a[k], b[k])
            assert (normal[k], devs[k]) == is_normal(b[k] @ a[k])
    with pytest.raises(NotHermitianError, match="rhs"):
        loewner_leq(np.stack([np.eye(2)] * 2), np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


@pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
def test_kernel_near_overflow(d):
    # Entries near 1e300 are finite; the Hermiticity check, the norms and
    # the iteration all work at an exact power-of-two scale, so nothing
    # overflows and a non-Hermitian input is still rejected.
    g = stream(900, d)
    h = rand_hermitian(d, g, scale=1e300)
    p = rand_psd(d, g, scale=1e299 / d)
    with np.errstate(over="raise"):
        dec = eig_hermitian(h)
        root = sqrt_psd(p)
        ok, margin = loewner_leq(h, h + 1e300 * np.eye(d))
        lo, _ = spectrum_bounds(p)
    norm = frobenius(h)
    assert math.isfinite(norm) and norm > 1e300
    ref = np.linalg.eigvalsh(h / 1e300) * 1e300
    assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-12 * norm
    assert frobenius(root @ root - p) <= 1e-10 * frobenius(p)
    assert ok and abs(margin - 1e300) <= 1e-12 * norm
    assert lo >= -1e-12 * frobenius(p)
    skew = 1e300 * (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)))
    with np.errstate(over="raise"):
        for call in (eig_hermitian, sqrt_psd, lambda m: loewner_leq(m, m)):
            with pytest.raises(NotHermitianError):
                call(skew)
