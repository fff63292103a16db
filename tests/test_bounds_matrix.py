"""Algebra-valued reverse bounds: hand instances, the expansion identity,
precondition gating, and scaling covariance."""

import numpy as np
import pytest

from rcsbounds.bounds import (
    HOLDS,
    PRECONDITION_FAILED,
    NonPositiveReOmegaError,
    additive_matrix_bound,
    multiplicative_matrix_bound,
)
from rcsbounds.forms import FormInstance, OmegaPair, PositiveFunctional, form_eval
from rcsbounds.matalg import DimMismatchError, abs_element, frobenius, sqrt_psd
from rcsbounds.rng import stream


def commuting_pair(d, g, lo=0.1, hi=10.0):
    q = np.linalg.qr(g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)))[0]
    x = q @ np.diag(g.uniform(lo, hi, d)).astype(complex) @ q.conj().T
    y = q @ np.diag(g.uniform(lo, hi, d)).astype(complex) @ q.conj().T
    return (x + x.conj().T) / 2, (y + y.conj().T) / 2


def test_additive_diagonal_hand_instance():
    form = FormInstance.module_form(2)
    x = np.diag([2.0, 3.0]).astype(complex)
    y = np.eye(2, dtype=complex)
    rep = additive_matrix_bound(form, x, y, OmegaPair(2.0, 3.0))
    assert rep.verdict == HOLDS
    np.testing.assert_allclose(rep.lhs, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(rep.rhs, 0.25 * np.eye(2), atol=1e-12)
    assert abs(rep.margin - 0.25) <= 1e-12
    assert all(p.passed for p in rep.preconditions)


def test_additive_x_equals_y_equality():
    form = FormInstance.module_form(3)
    g = stream(30, 0)
    x, _ = commuting_pair(3, g)
    rep = additive_matrix_bound(form, x, x, OmegaPair(1.0, 1.0))
    assert rep.verdict == HOLDS
    assert frobenius(np.asarray(rep.lhs)) <= 1e-10
    assert frobenius(np.asarray(rep.rhs)) <= 1e-10


def test_additive_functional_sharp_instance():
    phi = PositiveFunctional.vector_state(np.array([1.0, 0.0]))
    form = FormInstance.functional_form(phi)
    x = np.array([2.0, 1.0], dtype=complex)
    y = np.array([1.0, 0.0], dtype=complex)
    rep = additive_matrix_bound(form, x, y, OmegaPair(1.0, 3.0))
    assert rep.verdict == HOLDS
    assert abs(rep.lhs[0, 0] - 1.0) <= 1e-12
    assert abs(rep.rhs[0, 0] - 1.0) <= 1e-12
    assert abs(rep.margin) <= 1e-12


def test_additive_lhs_matches_unexpanded_form():
    """The computed lhs must agree with |<x,x>^(1/2) <y,y>^(1/2)|^2 - |<y,x>|^2."""
    form = FormInstance.module_form(4)
    for trial in range(20):
        g = stream(31, trial)
        x, y = commuting_pair(4, g)
        rep = additive_matrix_bound(form, x, y, OmegaPair(0.01, 100.0))
        rx = sqrt_psd(form_eval(form, x, x))
        ry = sqrt_psd(form_eval(form, y, y))
        unexpanded = abs_element(rx @ ry) @ abs_element(rx @ ry) - abs_element(
            form_eval(form, y, x)
        ) @ abs_element(form_eval(form, y, x))
        scale = max(frobenius(unexpanded), 1.0)
        assert frobenius(np.asarray(rep.lhs) - unexpanded) <= 1e-8 * scale


def test_additive_re_failure_gates_verdict():
    form = FormInstance.module_form(1)
    rep = additive_matrix_bound(form, [[5.0]], [[1.0]], OmegaPair(1.0, 3.0))
    assert rep.verdict == PRECONDITION_FAILED
    failed = {p.name for p in rep.preconditions if not p.passed}
    assert failed == {"re_term_positive"}


def test_additive_scaling_covariance():
    form = FormInstance.module_form(3)
    for trial in range(20):
        g = stream(32, trial)
        x, y = commuting_pair(3, g)
        pair = OmegaPair(0.05, 120.0)
        lam = complex(g.standard_normal(), g.standard_normal())
        if abs(lam) < 0.1:
            lam = 1.0 + 1.0j
        rep = additive_matrix_bound(form, x, y, pair)
        rep_scaled = additive_matrix_bound(
            form, lam * x, y, OmegaPair(lam * pair.omega, lam * pair.Omega)
        )
        scale = max(abs(rep.margin), 1.0)
        assert abs(rep_scaled.margin - abs(lam) ** 2 * rep.margin) <= 1e-10 * abs(lam) ** 2 * scale


def test_multiplicative_diagonal_hand_instance():
    form = FormInstance.module_form(2)
    x = np.diag([2.0, 3.0]).astype(complex)
    y = np.eye(2, dtype=complex)
    rep = multiplicative_matrix_bound(form, x, y, OmegaPair(2.0, 3.0))
    assert rep.verdict == HOLDS
    np.testing.assert_allclose(rep.lhs, 2.0 * np.diag([2.0, 3.0]), atol=1e-12)
    coeff = 5.0 / np.sqrt(6.0)
    np.testing.assert_allclose(rep.rhs, coeff * np.diag([2.0, 3.0]), atol=1e-12)


def test_multiplicative_scalar_equality():
    form = FormInstance.module_form(1)
    rep = multiplicative_matrix_bound(form, [[2.0]], [[1.0]], OmegaPair(2.0, 2.0))
    assert rep.verdict == HOLDS
    assert abs(rep.lhs[0, 0] - 4.0) <= 1e-12
    assert abs(rep.rhs[0, 0] - 4.0) <= 1e-12


def test_multiplicative_rejects_nonpositive_re_cross():
    form = FormInstance.module_form(1)
    with pytest.raises(NonPositiveReOmegaError):
        multiplicative_matrix_bound(form, [[1.0]], [[1.0]], OmegaPair(-1.0, 1.0))


@pytest.mark.parametrize("bound", [additive_matrix_bound, multiplicative_matrix_bound])
def test_matrix_bounds_reject_stacked_arguments(bound):
    form = FormInstance.module_form(2)
    stack = np.stack([np.diag([2.0, 3.0]), np.diag([4.0, 5.0])])
    pair = OmegaPair(omega=1.0, Omega=6.0)
    for x, y in ((stack, np.eye(2)), (np.eye(2), stack), (stack, stack)):
        with pytest.raises(DimMismatchError):
            bound(form, x, y, pair)


def test_multiplicative_random_commuting_pairs_hold():
    form = FormInstance.module_form(4)
    from rcsbounds.forms import omega_from_spectra

    for trial in range(50):
        g = stream(33, trial)
        x, y = commuting_pair(4, g)
        pair = omega_from_spectra(x, y)
        rep = multiplicative_matrix_bound(form, x, y, pair)
        assert rep.verdict == HOLDS, (trial, rep.margin)
