"""Form realizations and hypothesis checkers."""

import math

import numpy as np
import pytest

from rcsbounds import forms, matalg
from rcsbounds.forms import (
    FormInstance,
    NotCommutingError,
    NotStrictlyPositiveError,
    OmegaPair,
    PositiveFunctional,
    _in_basis,
    _scaled,
    _spectral_window,
    _weyl_leq,
    check_com,
    check_re_condition,
    check_star1,
    form_eval,
    omega_from_spectra,
    validate_positivity,
)
from rcsbounds.harness import gen_commuting_positive_pair, gen_random_unitary
from rcsbounds.matalg import (
    DEFAULT_TOL,
    DimMismatchError,
    NotHermitianError,
    Tolerance,
    eig_hermitian,
    eig_hermitian_stack,
    frobenius,
    hermiticity_defect,
    loewner_leq,
    re_part,
    spectrum_bounds,
)
from rcsbounds.rng import _complex_normals, stream
from reference import oracle_psd_minors


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


def test_functional_form_checks_its_arguments_once(monkeypatch):
    # form_eval checks x and y (_coerce_argument); the functional then
    # evaluates y* x without checking it again, as the public value would,
    # and a value past the double range is an error.
    phi = PositiveFunctional.vector_state(np.array([0.6, 0.8j]))
    form = FormInstance.functional_form(phi)
    g = stream(13, 0)
    x, y = rand_matrix(2, g), rand_matrix(2, g)
    expected = phi.value(y.conj().T @ x)

    def unexpected(self, r):
        raise AssertionError("checked evaluation")

    monkeypatch.setattr(PositiveFunctional, "value", unexpected)
    assert form_eval(form, x, y)[0, 0] == expected
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="functional values must be finite"):
            form_eval(form, 1e200 * np.eye(2), 1e200 * np.eye(2))
        # In a batch, the error names the first slice past the double range.
        big = np.stack([np.eye(2), 1e200 * np.eye(2), 1e200 * np.eye(2)])
        with pytest.raises(ValueError, match=r"finite \(slice 1 is not\)$"):
            forms._form_eval([form] * 3, big, big)


@pytest.mark.parametrize("state", [[np.nan, 0.0], [np.inf, 0.0], [1.0, 1.0]])
def test_vector_state_rejects_non_unit_states(state):
    # A NaN norm compares false either way, so it must not pass as unit.
    with pytest.raises(ValueError, match="unit vector"):
        PositiveFunctional.vector_state(state)


@pytest.mark.parametrize(
    "row, value, message",
    [
        (0, [1.0, 1.0], "unit vector"),
        (0, [np.nan, 0.0], "unit vector"),
        (2, [0.0, 1.0], "strictly positive"),
        (2, [np.inf, 1.0], "strictly positive"),
    ],
)
def test_stacked_functionals_are_checked_as_each_one(row, value, message):
    # A stack of functionals built from arrays runs PositiveFunctional's
    # value checks once over its rows of each kind, with the same errors;
    # a trace row's payload is never read.
    kinds = np.array([0, 1, 2, 1])
    states = np.array([[1.0, 0.0], [np.nan, np.nan], [0.0, 1.0], [9.0, 9.0]], dtype=complex)
    weights = np.array([[-1.0, 0.0], [np.nan, 0.0], [0.5, 2.0], [0.0, 0.0]])
    forms._FunctionalForms(kinds, states, weights)
    (states if row == 0 else weights)[row] = value
    with pytest.raises(ValueError, match=message):
        forms._FunctionalForms(kinds, states, weights)


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


def test_omega_from_spectra_rejects_non_hermitian_y():
    # y commutes with x and is diagonal in its eigenbasis, but is not Hermitian.
    with pytest.raises(NotHermitianError):
        omega_from_spectra(np.diag([1.0, 2.0]), np.diag([1.0 + 1.0j, 2.0]))


def test_omega_from_spectra_rejects_non_commuting():
    x = np.array([[2.0, 1.0], [1.0, 2.0]])
    y = np.diag([1.0, 3.0])
    with pytest.raises(NotCommutingError):
        omega_from_spectra(x, y)


def per_matrix_pair(x, y):
    """The window pair from each matrix's own spectrum."""
    lo_x, hi_x = spectrum_bounds(x)
    lo_y, hi_y = spectrum_bounds(y)
    return OmegaPair(complex(lo_x / hi_y), complex(hi_x / lo_y))


def rotated(w, diagonal):
    return re_part((w * np.asarray(diagonal, dtype=float)) @ w.conj().T)


def counted_fallbacks(monkeypatch):
    # Slices that leave the joint eigenbasis take y's spectrum on its own,
    # in one Jacobi solve of the checked y.
    slices = []

    def counted(h, *args, **kwargs):
        slices.append(len(h))
        return matalg._jacobi(h, *args, **kwargs)

    monkeypatch.setattr(forms, "_jacobi", counted)
    return slices


def fallback_cases():
    # x = I and a repeated eigenvalue of x: the eigenbasis of x need not
    # diagonalize y, so the joint route cannot decide these.  In the last
    # two the window checks would pass in that basis, but the diagonal of
    # y there is not its spectrum; in the very last its off-diagonal part
    # is within the band of a check, since the band is floored at norm 1,
    # but not within roundoff of y's own norm.
    w = gen_random_unitary(3, stream(5, 0))
    small = np.array([[2.0, 1e-5, 0.0], [1e-5, 2.0, 0.0], [0.0, 0.0, 2.0]])
    return [
        (np.eye(3), rotated(w, [1.0, 2.0, 3.0])),
        (rotated(w, [1.0, 1.0, 2.0]), rotated(w, [1.0, 2.0, 2.0])),
        (rotated(w, [1.0, 1.0, 2.0]), rotated(w, [1.0, 1.001, 2.0])),
        (1e-4 * np.eye(3), 1e-4 * small),
    ]


def test_window_fallback_slices_match_per_matrix_route(monkeypatch):
    slices = counted_fallbacks(monkeypatch)
    # In their own eigenbasis these pairs are diagonal: the joint route
    # takes them and agrees exactly.
    diagonal = [(np.eye(3), np.diag([1.0, 2, 3])), (np.diag([1.0, 1, 2]), np.diag([1.0, 2, 2]))]
    for x, y in diagonal:
        assert omega_from_spectra(x, y) == per_matrix_pair(x, y)
    assert slices == []
    for x, y in fallback_cases():
        assert omega_from_spectra(x, y) == per_matrix_pair(x, y)
    assert slices == [1, 1, 1, 1]


def test_window_fallback_checks_y_once(monkeypatch):
    # The fallback solves the y its Hermiticity check scaled, so x = I
    # makes six checks: x's and y's solves, then a and b of the two
    # Loewner sanity checks.  Its edges are spectrum_bounds(y) bit for bit.
    calls, hermitian_scaled = [], matalg._hermitian_scaled

    def counted(m, *args):
        calls.append(len(m))
        return hermitian_scaled(m, *args)

    for x, y in fallback_cases():
        edges = _spectral_window(x[None], y[None], DEFAULT_TOL)
        assert [e.tobytes() for e in edges[2:]] == [e.tobytes() for e in spectrum_bounds(y[None])]
    for module in (forms, matalg):
        monkeypatch.setattr(module, "_hermitian_scaled", counted)
    omega_from_spectra(np.eye(2), np.diag([1.0, 2.0]) + 0.5 * np.ones((2, 2)))
    assert calls == [1] * 6


def test_window_of_mixed_stack_is_bit_equal_to_lone_calls(monkeypatch):
    slices = counted_fallbacks(monkeypatch)
    fast = [gen_commuting_positive_pair(3, stream(6, i)) for i in range(3)]
    pairs = [fast[0], *fallback_cases(), fast[1], fast[2]]
    x, y = (np.stack(column) for column in zip(*pairs))
    assert omega_from_spectra(x, y) == [omega_from_spectra(a, b) for a, b in pairs]
    for mirrored in (False, True):
        edges = _spectral_window(x, y, DEFAULT_TOL, mirrored)
        for k, (a, b) in enumerate(pairs):
            alone = _spectral_window(a[None], b[None], DEFAULT_TOL, mirrored)
            assert [e[k].tobytes() for e in edges] == [e[0].tobytes() for e in alone]
    # Only the fallback slices leave the joint route: all at once in each
    # of the three stacked calls, one at a time in the lone ones.
    assert sorted(slices) == [1] * 12 + [4] * 3


def test_window_edges_match_eigvalsh(monkeypatch):
    slices = counted_fallbacks(monkeypatch)
    for d in range(1, 17):
        x, y = gen_commuting_positive_pair(d, stream(31, d))
        edges = _spectral_window(x[None], y[None], DEFAULT_TOL, True)
        for (lo, hi), m in zip((edges[:2], edges[2:]), (x, y)):
            lam = np.linalg.eigvalsh(m)
            band = DEFAULT_TOL.band(frobenius(m))
            assert abs(lo[0] - lam[0]) <= band and abs(hi[0] - lam[-1]) <= band, d
    assert slices == []  # distinct spectra: every pair took the joint route


def test_window_checks_agree_with_minor_oracle():
    # omega * y <= x and x <= Omega * y, decided in the eigenbasis of x,
    # against the cofactor minors of x - omega * y and Omega * y - x, for
    # windows at, inside and outside the spectral one.
    decided = 0
    for d in range(1, 5):
        for trial in range(20):
            x, y = gen_commuting_positive_pair(d, stream(41, 100 * d + trial))
            u = eig_hermitian_stack(x[None]).eigenvectors
            px, py = _in_basis(u, x[None]), _in_basis(u, y[None])
            pair = omega_from_spectra(x, y)
            for f in (1.0 - 1e-3, 1.0, 1.0 + 1e-3):
                omega, Omega = np.array([pair.omega.real * f]), np.array([pair.Omega.real / f])
                lower = _weyl_leq(_scaled(py, omega), px, DEFAULT_TOL)[0]
                upper = _weyl_leq(px, _scaled(py, Omega), DEFAULT_TOL)[0]
                assert lower == oracle_psd_minors(x - omega[0] * y), (d, trial, f)
                assert upper == oracle_psd_minors(Omega[0] * y - x), (d, trial, f)
                decided += lower + upper
    assert 0 < decided < 2 * 3 * 4 * 20


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


def _positivity_reference(form, samples, seed, tol):
    """validate_positivity's report, one sample at a time from stream(seed, 0):
    sample i is a vector for gram_tensor and for a functional form's odd i,
    else a matrix, of complex normals of the stream's next uniforms."""
    g = stream(seed, 0)
    worst_margin, worst_index, max_defect, failing, passed = math.inf, -1, 0.0, None, True
    for i in range(samples):
        k = form.space_dim
        vector = form.kind == "gram_tensor" or (form.kind == "functional_form" and i % 2 == 1)
        shape = (k,) if vector else (k, k)
        x = _complex_normals(g.random((1, 2 * math.prod(shape))), shape)[0]
        xx = form_eval(form, x, x)
        defect = hermiticity_defect(xx)
        scale = max(frobenius(xx), 1.0)
        max_defect = max(max_defect, defect)
        if defect > tol.band(scale):
            failing = x if passed else failing
            passed = False
            continue
        margin = float(eig_hermitian(re_part(xx), tol).eigenvalues[0])
        if margin < worst_margin:
            worst_margin, worst_index = margin, i
        if margin < -tol.band(scale):
            failing = x if passed else failing
            passed = False
    worst_margin = worst_margin if math.isfinite(worst_margin) else 0.0
    return worst_margin, worst_index, max_defect, passed, failing


def _positivity_forms():
    g = stream(18, 0)
    bs = [rand_matrix(2, g) for _ in range(3)]
    positive = [[bs[j].conj().T @ bs[i] for j in range(3)] for i in range(3)]
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]]).reshape(2, 2, 1, 1)
    functionals = (
        PositiveFunctional.vector_state([0.6, 0.8j, 0.0]),
        PositiveFunctional.trace(3),
        PositiveFunctional.weighted_sum([0.5, 1.0, 2.0]),
    )
    return {
        "module_form_1": FormInstance.module_form(1),
        "module_form_3": FormInstance.module_form(3),
        "gram_positive": gram_from_blocks(positive),
        "gram_indefinite": gram_from_blocks(indefinite),
        **{phi.kind: FormInstance.functional_form(phi) for phi in functionals},
    }


@pytest.mark.parametrize("name", sorted(_positivity_forms()))
def test_validate_positivity_equals_its_sample_by_sample_reference(name):
    # Every field bit for bit, against the per-sample loop over the same
    # stream: at 1, 2, 7 and 64 samples, at the default band and at 0.
    form = _positivity_forms()[name]
    failed = set()
    for samples in (1, 2, 7, 64):
        for seed, tol in ((11, DEFAULT_TOL), (12, Tolerance(0.0, 0.0))):
            report = validate_positivity(form, samples, seed, tol)
            margin, index, defect, passed, failing = _positivity_reference(form, samples, seed, tol)
            assert report.samples == samples
            assert report.worst_margin.hex() == margin.hex()
            assert (report.worst_index, report.passed) == (index, passed)
            assert report.max_defect.hex() == defect.hex()
            if failing is None:
                assert report.failing_sample is None
            else:
                assert report.failing_sample.shape == failing.shape
                assert report.failing_sample.tobytes() == failing.tobytes()
            failed |= set() if passed else {tol}
    # The indefinite gram fails at the default band; the band 0 fails the
    # others on roundoff, except the 1 x 1 module form, whose |x|^2 is exact.
    if name == "gram_indefinite":
        assert DEFAULT_TOL in failed
    assert (Tolerance(0.0, 0.0) in failed) == (name != "module_form_1")


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


WEIGHTED_SUM = {"kind": "weighted_sum", "dim": 2, "weights": [1.0, 2.0]}


def functional_form(functional=WEIGHTED_SUM, **keys):
    form = {"kind": "functional_form", "algebra_dim": 1, "space_dim": 2, "functional": functional}
    return {**form, **keys}


def weights(values):
    return functional_form({**WEIGHTED_SUM, "weights": values})


_ONE, _ZERO = [[[1.0, 0.0]]], [[[0.0, 0.0]]]
GRAM_TENSOR = {
    "kind": "gram_tensor", "algebra_dim": 1, "space_dim": 2, "gram": [[_ONE, _ZERO], [_ZERO, _ONE]]
}
MODULE_FORM = {"kind": "module_form", "algebra_dim": 2, "space_dim": 2}

# Form objects with one bad node: the path, below the form's own, that the
# error names, and a part of its message.  Before every node of an instance
# file was checked (jsonio), verify read HOLDS for the first seven and named
# no JSON path for the rest.
BAD_FORMS = {
    "module_form_unknown_key": ({**MODULE_FORM, "extra": 1}, ".extra", "unknown key"),
    "gram_tensor_unknown_key": ({**GRAM_TENSOR, "extra": 1}, ".extra", "unknown key"),
    "functional_form_unknown_key": (functional_form(extra=1), ".extra", "unknown key"),
    "functional_unknown_key": (
        functional_form({**WEIGHTED_SUM, "extra": 1}), ".functional.extra", "unknown key"
    ),
    "weights_strings": (weights(["1", "2"]), ".functional.weights[0]", "must be a number"),
    "weights_booleans": (weights([True, True]), ".functional.weights[0]", "must be a number"),
    "functional_algebra_dim_2": (functional_form(algebra_dim=2), ".algebra_dim", "must be 1"),
    "weights_not_numbers": (weights([1, "abc"]), ".functional.weights[1]", "must be a number"),
    "weights_nested": (weights([[1.0], [1.0]]), ".functional.weights[0]", "must be a number"),
    "weights_nan": (weights([math.nan, 1.0]), ".functional.weights[0]", "positive and finite"),
    "weights_negative": (weights([-1.0, 1.0]), ".functional.weights[0]", "positive and finite"),
    "state_of_norm_2": (
        functional_form({"kind": "vector_state", "dim": 2, "state": [[2.0, 0.0], [0.0, 0.0]]}),
        ".functional.state",
        "unit vector (norm 2.0)",
    ),
}


def test_from_dict_error_paths():
    with pytest.raises(ValueError, match=r"\$\.kind"):
        FormInstance.from_dict({"kind": "bogus", "algebra_dim": 1, "space_dim": 1})
    with pytest.raises(ValueError, match=r"\$\.weights"):
        PositiveFunctional.from_dict({"kind": "weighted_sum", "dim": 2, "weights": [1.0]})
    for name, (form, where, message) in BAD_FORMS.items():
        with pytest.raises(ValueError) as exc_info:
            FormInstance.from_dict(form)
        assert str(exc_info.value).startswith(f"${where}: "), name
        assert message in str(exc_info.value), name
    # Each kind decodes without its bad node.
    for form in (MODULE_FORM, GRAM_TENSOR, functional_form()):
        assert FormInstance.from_dict(form).to_dict() == form
