"""Form realizations and hypothesis checkers."""

import numpy as np
import pytest

from rcsbounds.forms import (
    FormInstance,
    NotCommutingError,
    NotStrictlyPositiveError,
    OmegaPair,
    PositiveFunctional,
    check_com,
    check_re_condition,
    check_star1,
    form_eval,
    omega_from_spectra,
    validate_positivity,
)
from rcsbounds.matalg import DEFAULT_TOL, DimMismatchError, frobenius, loewner_leq
from rcsbounds.rng import stream


def rand_matrix(d, g):
    return g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))


def gram_from_blocks(blocks):
    return FormInstance.gram_tensor(np.asarray(blocks, dtype=np.complex128))


def e(i, n):
    v = np.zeros(n, dtype=np.complex128)
    v[i] = 1.0
    return v


# --- form_eval -------------------------------------------------------------


def test_module_form_identity():
    form = FormInstance.module_form(2)
    np.testing.assert_array_equal(form_eval(form, np.eye(2), np.eye(2)), np.eye(2))


def test_module_form_is_y_star_x():
    form = FormInstance.module_form(3)
    g = stream(10, 0)
    x, y = rand_matrix(3, g), rand_matrix(3, g)
    np.testing.assert_allclose(form_eval(form, x, y), y.conj().T @ x, atol=1e-14)


def test_vector_state_reduces_to_standard_inner_product():
    phi = PositiveFunctional.vector_state(np.array([1.0, 0.0]))
    form = FormInstance.functional_form(phi)
    g = stream(11, 0)
    u = g.standard_normal(2) + 1j * g.standard_normal(2)
    v = g.standard_normal(2) + 1j * g.standard_normal(2)
    out = form_eval(form, u, v)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.vdot(v, u)) <= 1e-12


def test_gram_tensor_basis_evaluation():
    blocks = np.zeros((2, 2, 1, 1), dtype=np.complex128)
    blocks[0, 1] = [[1j]]
    form = gram_from_blocks(blocks)
    out = form_eval(form, e(0, 2), e(1, 2))
    assert out[0, 0] == 1j


def test_sesquilinearity_all_kinds():
    g = stream(12, 0)
    phi = PositiveFunctional.trace(3)
    psd_blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    b1, b2 = rand_matrix(2, g), rand_matrix(2, g)
    for i, bi in enumerate((b1, b2)):
        for j, bj in enumerate((b1, b2)):
            psd_blocks[i, j] = bi.conj().T @ bj
    forms_and_args = [
        (FormInstance.module_form(3), lambda: rand_matrix(3, g)),
        (FormInstance.functional_form(phi), lambda: rand_matrix(3, g)),
        (gram_from_blocks(psd_blocks), lambda: g.standard_normal(2) + 1j * g.standard_normal(2)),
    ]
    for form, draw in forms_and_args:
        for _ in range(100):
            x, z, y = draw(), draw(), draw()
            alpha = complex(g.standard_normal(), g.standard_normal())
            left = form_eval(form, alpha * x + z, y)
            right = alpha * form_eval(form, x, y) + form_eval(form, z, y)
            scale = max(frobenius(left), frobenius(right), 1.0)
            assert frobenius(left - right) <= 1e-12 * scale
            # conjugate homogeneity in the second slot
            left2 = form_eval(form, y, alpha * x)
            right2 = np.conj(alpha) * form_eval(form, y, x)
            scale2 = max(frobenius(left2), frobenius(right2), 1.0)
            assert frobenius(left2 - right2) <= 1e-12 * scale2


# --- hypothesis checkers ---------------------------------------------------


@pytest.mark.parametrize("check", [form_eval, check_star1, check_com])
def test_module_form_rejects_stacked_arguments(check):
    form = FormInstance.module_form(2)
    stack = np.stack([np.eye(2), 2 * np.eye(2)])
    for x, y in ((stack, np.eye(2)), (np.eye(2), stack), (stack, stack)):
        with pytest.raises(DimMismatchError):
            check(form, x, y)


def test_star1_module_and_functional_always_pass():
    g = stream(13, 0)
    mod = FormInstance.module_form(3)
    fun = FormInstance.functional_form(PositiveFunctional.weighted_sum([1.0, 2.0, 0.5]))
    for _ in range(100):
        x, y = rand_matrix(3, g), rand_matrix(3, g)
        ok, dev = check_star1(mod, x, y)
        assert ok and dev <= 1e-12
        ok, dev = check_star1(fun, x, y)
        assert ok, dev


def test_star1_gram_counterexample():
    blocks = np.zeros((2, 2, 1, 1), dtype=np.complex128)
    blocks[0, 0] = blocks[1, 1] = [[1.0]]
    blocks[0, 1] = [[1j]]
    blocks[1, 0] = [[1j]]
    form = gram_from_blocks(blocks)
    ok, dev = check_star1(form, e(0, 2), e(1, 2))
    assert not ok
    assert abs(dev - 2.0) <= 1e-12


def test_com_scalar_always_passes():
    form = FormInstance.functional_form(PositiveFunctional.trace(2))
    g = stream(14, 0)
    ok, dev = check_com(form, rand_matrix(2, g), rand_matrix(2, g))
    assert ok and dev <= 1e-12


def test_com_gram_counterexample():
    """<y,y> = diag(1,4), <x,y> = nilpotent shift: the root diag(1,2) moves
    the shift by one unit."""
    blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    blocks[0, 0] = np.eye(2)
    blocks[1, 1] = np.diag([1.0, 4.0])
    blocks[0, 1] = np.array([[0.0, 1.0], [0.0, 0.0]])
    blocks[1, 0] = blocks[0, 1].conj().T
    form = gram_from_blocks(blocks)
    ok, dev = check_com(form, e(0, 2), e(1, 2))
    assert not ok
    assert abs(dev - 1.0) <= 1e-12


def test_com_commuting_module_pair():
    g = stream(15, 0)
    basis = np.linalg.qr(rand_matrix(3, g))[0]
    x = basis @ np.diag(g.uniform(0.5, 2.0, 3)).astype(complex) @ basis.conj().T
    y = basis @ np.diag(g.uniform(0.5, 2.0, 3)).astype(complex) @ basis.conj().T
    ok, dev = check_com(FormInstance.module_form(3), x, y)
    assert ok, dev


def test_re_condition_scalar_examples():
    form = FormInstance.functional_form(PositiveFunctional.trace(1))
    ok, margin = check_re_condition(form, [[1.0]], [[1.0]], OmegaPair(1.0, 1.0))
    assert ok and abs(margin) <= 1e-12
    ok, margin = check_re_condition(form, [[2.0]], [[1.0]], OmegaPair(1.0, 3.0))
    assert ok and abs(margin - 1.0) <= 1e-12
    ok, margin = check_re_condition(form, [[5.0]], [[1.0]], OmegaPair(1.0, 3.0))
    assert not ok and abs(margin + 8.0) <= 1e-12


def test_re_condition_x_equals_y():
    form = FormInstance.module_form(2)
    g = stream(16, 0)
    x = rand_matrix(2, g)
    ok, margin = check_re_condition(form, x, x, OmegaPair(1.0, 1.0))
    assert ok and abs(margin) <= 1e-12


# --- omega_from_spectra ----------------------------------------------------


def test_omega_from_spectra_examples():
    pair = omega_from_spectra(np.diag([1.0, 2.0]), np.eye(2))
    assert (pair.omega, pair.Omega) == (1.0, 2.0)
    pair = omega_from_spectra(np.diag([1.0, 4.0]), np.diag([1.0, 4.0]))
    assert abs(pair.omega - 0.25) <= 1e-12 and abs(pair.Omega - 4.0) <= 1e-12
    pair = omega_from_spectra(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert abs(pair.omega - 0.5) <= 1e-12 and abs(pair.Omega - 2.0) <= 1e-12


def test_omega_from_spectra_sandwich_property():
    for trial in range(25):
        g = stream(17, trial)
        basis = np.linalg.qr(rand_matrix(4, g))[0]
        x = basis @ np.diag(g.uniform(0.1, 10.0, 4)).astype(complex) @ basis.conj().T
        y = basis @ np.diag(g.uniform(0.1, 10.0, 4)).astype(complex) @ basis.conj().T
        x, y = (x + x.conj().T) / 2, (y + y.conj().T) / 2
        pair = omega_from_spectra(x, y)
        ok_lo, m_lo = loewner_leq(pair.omega.real * y, x)
        ok_hi, m_hi = loewner_leq(x, pair.Omega.real * y)
        assert ok_lo and ok_hi
        assert m_lo >= -1e-9 and m_hi >= -1e-9


def test_omega_from_spectra_rejects_non_strictly_positive():
    with pytest.raises(NotStrictlyPositiveError):
        omega_from_spectra(np.diag([0.0, 1.0]), np.eye(2))


def test_omega_from_spectra_rejects_non_commuting():
    x = np.array([[2.0, 1.0], [1.0, 2.0]])
    y = np.diag([1.0, 3.0])
    with pytest.raises(NotCommutingError):
        omega_from_spectra(x, y)


# --- positivity ------------------------------------------------------------


def test_validate_positivity_module_form():
    report = validate_positivity(FormInstance.module_form(3), samples=32, seed=5)
    assert report.passed
    assert report.worst_margin >= -DEFAULT_TOL.atol


def test_validate_positivity_psd_gram_construction():
    g = stream(18, 0)
    n, d = 3, 2
    bs = [rand_matrix(d, g) for _ in range(n)]
    blocks = np.zeros((n, n, d, d), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            blocks[i, j] = bs[j].conj().T @ bs[i]
    report = validate_positivity(gram_from_blocks(blocks), samples=64, seed=6)
    assert report.passed


def test_validate_positivity_indefinite_gram_fails():
    blocks = np.zeros((2, 2, 1, 1), dtype=np.complex128)
    blocks[0, 0] = blocks[1, 1] = [[1.0]]
    blocks[0, 1] = blocks[1, 0] = [[2.0]]
    report = validate_positivity(gram_from_blocks(blocks), samples=64, seed=7)
    assert not report.passed
    assert report.worst_margin < -DEFAULT_TOL.atol


def test_functional_cauchy_schwarz_baseline():
    """|phi(y*x)|^2 <= phi(x*x) phi(y*y) over all three functional kinds."""
    g = stream(19, 0)
    functionals = [
        PositiveFunctional.vector_state(np.array([0.6, 0.8j])),
        PositiveFunctional.trace(2),
        PositiveFunctional.weighted_sum([0.5, 1.5]),
    ]
    for trial in range(1000):
        phi = functionals[trial % 3]
        form = FormInstance.functional_form(phi)
        x, y = rand_matrix(2, g), rand_matrix(2, g)
        cross = form_eval(form, x, y)[0, 0]
        fxx = form_eval(form, x, x)[0, 0].real
        fyy = form_eval(form, y, y)[0, 0].real
        assert abs(cross) ** 2 <= fxx * fyy + 1e-9 * max(fxx * fyy, 1.0)


def test_module_form_schwarz_operator_bound():
    """<x,y><y,x> <= lambda_max(x*x) <y,y> for the module form."""
    from rcsbounds.matalg import spectrum_bounds

    form = FormInstance.module_form(3)
    g = stream(20, 0)
    for _ in range(50):
        x, y = rand_matrix(3, g), rand_matrix(3, g)
        xy = form_eval(form, x, y)
        yx = form_eval(form, y, x)
        yy = form_eval(form, y, y)
        _, lam = spectrum_bounds((x.conj().T @ x + (x.conj().T @ x).conj().T) / 2)
        ok, _ = loewner_leq(xy @ yx, lam * yy)
        assert ok


# --- serialization ---------------------------------------------------------


def test_functional_round_trip():
    for phi in (
        PositiveFunctional.vector_state(np.array([0.6, 0.8j])),
        PositiveFunctional.trace(3),
        PositiveFunctional.weighted_sum([0.5, 1.5, 2.0]),
    ):
        back = PositiveFunctional.from_dict(phi.to_dict())
        assert back.kind == phi.kind and back.dim == phi.dim
        g = stream(21, 0)
        r = rand_matrix(phi.dim, g)
        assert abs(back.value(r) - phi.value(r)) == 0.0


def test_form_instance_round_trip():
    g = stream(22, 0)
    blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    bs = [rand_matrix(2, g) for _ in range(2)]
    for i in range(2):
        for j in range(2):
            blocks[i, j] = bs[j].conj().T @ bs[i]
    for form in (
        FormInstance.module_form(3),
        gram_from_blocks(blocks),
        FormInstance.functional_form(PositiveFunctional.trace(2)),
    ):
        back = FormInstance.from_dict(form.to_dict())
        assert back.kind == form.kind
        assert back.algebra_dim == form.algebra_dim
        assert back.space_dim == form.space_dim
        if form.kind == "gram_tensor":
            np.testing.assert_array_equal(back.gram, form.gram)


def test_from_dict_error_paths():
    with pytest.raises(ValueError, match=r"\$\.kind"):
        FormInstance.from_dict({"kind": "bogus", "algebra_dim": 1, "space_dim": 1})
    with pytest.raises(ValueError, match=r"\$\.weights"):
        PositiveFunctional.from_dict({"kind": "weighted_sum", "dim": 2, "weights": [1.0]})
