"""Kernel tests: every eigenvalue-dependent result is checked against an
oracle that does not go through the Jacobi sweep (closed-form 2x2 roots,
numpy's eigh, or direct squaring/reconstruction residuals)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsbounds import matalg
from rcsbounds.harness import gen_random_unitary, oracle_psd_minors
from rcsbounds.matalg import (
    DEFAULT_TOL,
    JACOBI_MAX_SWEEPS,
    MAX_DIM,
    DimMismatchError,
    KernelError,
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
        # Started slices too: a slice's own eigenvectors leave it nearly
        # nothing to do, a Haar-random basis a full solve.
        own = dec.eigenvectors
        starts = np.stack([own[k] if k % 2 else gen_random_unitary(d, g) for k in range(6)])
        started = eig_hermitian_stack(stack, start=starts)
        for k in range(6):
            alone = eig_hermitian_stack(stack[k : k + 1], start=starts[k : k + 1])
            np.testing.assert_array_equal(started.eigenvalues[k], alone.eigenvalues[0])
            np.testing.assert_array_equal(started.eigenvectors[k], alone.eigenvectors[0])


def test_identity_start_equals_cold_solve():
    for d in range(1, MAX_DIM + 1):
        g = stream(860, d)
        kinds = ("repeated", "graded", "clustered")
        stack = np.stack([adversarial_hermitian(kind, d, g) for kind in kinds])
        cold = eig_hermitian_stack(stack)
        warm = eig_hermitian_stack(stack, start=np.broadcast_to(np.eye(d), stack.shape))
        np.testing.assert_array_equal(warm.eigenvalues, cold.eigenvalues)
        np.testing.assert_array_equal(warm.eigenvectors, cold.eigenvectors)


def test_random_start_meets_kernel_residual_bounds():
    # A start basis unrelated to the matrix costs sweeps, not accuracy:
    # the residual bounds of the acceptance kernel test, and the spectrum
    # of numpy's eigvalsh within the band of the cold solves.
    for i in range(96):
        g = stream(870, i)
        d = 1 + i % MAX_DIM
        a = rand_psd(d, g) if i % 2 else rand_hermitian(d, g, scale=float(g.uniform(0.1, 1e3)))
        start = gen_random_unitary(d, g)
        dec = eig_hermitian_stack(a[None], start=start[None])
        norm = frobenius(a)
        assert frobenius(dec.reconstruct()[0] - a) <= 1e-10 * norm
        v = dec.eigenvectors[0]
        assert frobenius(v.conj().T @ v - np.eye(d)) <= 1e-12 * d
        assert np.max(np.abs(dec.eigenvalues[0] - np.linalg.eigvalsh(a))) <= 1e-12 * norm
        if i % 2:
            root = sqrt_psd(a, start=start)
            assert frobenius(root @ root - a) <= 1e-10 * max(norm, 1.0)


def test_started_loewner_agrees_with_minor_oracle():
    # Decisions clearly away from the boundary, from a start basis that
    # diagonalizes b - a, one that diagonalizes a, or a Haar-random one.
    checked = 0
    for i in range(300):
        g = stream(880, i)
        d = int(g.integers(1, 5))
        a = rand_hermitian(d, g)
        b = a + rand_psd(d, g) - float(g.uniform(0.0, 2.0)) * np.eye(d)
        if i % 3 == 0:
            start = eig_hermitian(b - a).eigenvectors
        elif i % 3 == 1:
            start = eig_hermitian(a).eigenvectors
        else:
            start = gen_random_unitary(d, g)
        holds, margin = loewner_leq(a, b, start=start)
        if abs(margin) < 1e-10 * max(1.0, frobenius(b - a)):
            continue
        assert holds == oracle_psd_minors(re_part(b - a)) == (margin > 0), f"trial {i}"
        checked += 1
    assert checked >= 250


def test_non_unitary_start_is_rejected():
    g = stream(890, 0)
    a = rand_psd(3, g)
    u = gen_random_unitary(3, g)
    for bad in (2.0 * u, u + 1e-10, np.zeros((3, 3)), np.full((3, 3), np.nan)):
        with pytest.raises(KernelError, match="not unitary"):
            eig_hermitian_stack(np.stack([a, a]), start=np.stack([u, bad]))
        for call in (
            lambda: sqrt_psd(a, start=bad),
            lambda: abs_element(a, start=bad),
            lambda: loewner_leq(a, 2.0 * a, start=bad),
        ):
            with pytest.raises(KernelError, match="not unitary"):
                call()
    with pytest.raises(DimMismatchError):
        eig_hermitian_stack(a[None], start=u)


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


def test_loewner_names_the_operand_that_is_not_hermitian():
    # Each operand is checked once, under its own name: a first, then b.
    skew = np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(NotHermitianError, match="^loewner_leq lhs: "):
        loewner_leq(skew, skew)
    with pytest.raises(NotHermitianError, match="^loewner_leq rhs: "):
        loewner_leq(np.stack([np.eye(2)] * 2), skew)


def test_loewner_overflowing_difference_is_not_finite():
    # Finite operands whose difference b - a leaves the double range.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            loewner_leq(-1e308 * np.eye(3), 1e308 * np.eye(3))


@pytest.mark.parametrize("c", [9e307, 1e308])
def test_loewner_equal_operands_near_the_double_range(c):
    # Entries at or past 2^1023 are unscaled in real arithmetic, where a
    # complex division by their subnormal shrink overflowed.
    assert loewner_leq(c * np.eye(3), c * np.eye(3)) == (True, 0.0)
    assert loewner_leq(-c * np.eye(3), -c * np.eye(3)) == (True, 0.0)


def test_loewner_band_of_a_norm_past_the_double_range():
    # ||a||_F = 4 * 8.9e307 overflows, yet its band stays finite: a margin
    # of -3.9e307 is a violation, not a pass at an infinite band.
    a, b = 8.9e307 * np.eye(16), 5e307 * np.eye(16)
    assert loewner_leq(a, b) == (False, -3.9e307)
    assert loewner_leq(b, a) == (True, 3.9e307)


def test_an_eigenvalue_past_the_double_range_is_an_error():
    # Finite matrices whose spectrum leaves the double range: the largest
    # eigenvalue of c * ones(16, 16) is 16 c.  Every solve unscales in the
    # Jacobi core, which raises rather than give an infinite eigenvalue or margin.
    ones = np.ones((16, 16))
    overflow = "^eigenvalues overflow the double range \\(slice 0\\)$"
    with pytest.raises(ValueError, match=overflow):
        eig_hermitian(5e307 * ones)
    with pytest.raises(ValueError, match=overflow):
        loewner_leq(np.zeros((16, 16)), -1e308 * ones)


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_loewner_margin_is_the_least_eigenvalue_of_the_difference(d):
    # For exactly Hermitian operands, the one solve of b - a gives the
    # margin eig_hermitian_stack gives as its least eigenvalue, bit for
    # bit, from the identity and from a start basis alike.
    g = stream(870, d)
    a, b = (re_part(g.standard_normal((5, d, d)) + 1j * g.standard_normal((5, d, d))) for _ in "ab")
    starts = np.stack([gen_random_unitary(d, g) for _ in range(5)])
    for start in (None, starts):
        _, margin = loewner_leq(a, b, start=start)
        want = eig_hermitian_stack(b - a, start=start).eigenvalues[:, 0]
        assert margin.tobytes() == want.tobytes()


def test_loewner_is_one_checked_solve(monkeypatch):
    # Each operand is checked once, and b - a alone is solved, once.
    checks, solves = [], []
    check, solve = matalg._hermitian_scaled, matalg._jacobi
    monkeypatch.setattr(matalg, "_hermitian_scaled", lambda m, *a: checks.append(len(m)) or check(m, *a))
    monkeypatch.setattr(matalg, "_jacobi", lambda h, *a, **k: solves.append(len(h)) or solve(h, *a, **k))
    g = stream(871, 0)
    a, b = (np.stack([rand_psd(4, g) for _ in range(3)]) for _ in "ab")
    loewner_leq(a, b)
    assert (checks, solves) == ([3, 3], [3])


def test_signed_zero_edges_are_those_of_the_sorted_spectrum():
    # At tiny = -1e-300 this matrix's solve ends with the diagonal
    # (-0.0, 2, 0.0), whose least entries compare equal: the margin and the
    # edges are the first and the last of eig_hermitian_stack's stable
    # order, which numpy's min is not.
    for tiny in (1e-300, -1e-300):
        m = np.array([[0.0, tiny, tiny], [tiny, 1.0, 1.0], [tiny, 1.0, 1.0]])
        lam = eig_hermitian_stack(m[None]).eigenvalues[0]
        _, margin = loewner_leq(np.zeros_like(m), m)
        edges = (margin, *spectrum_bounds(m))
        assert edges == (lam[0], lam[0], lam[-1])
        assert np.signbit(edges).tolist() == np.signbit(lam[[0, 0, -1]]).tolist(), tiny


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
