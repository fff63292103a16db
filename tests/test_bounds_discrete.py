"""Weighted-sequence inequalities: hand numbers, homogeneity, the
specialization identities, and property-based sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsbounds.bounds import (
    HOLDS,
    ScalarWindow,
    WeightedSequences,
    WindowViolationError,
    greub_rheinboldt,
    integral_bounds,
    polya_szego_additive,
    polya_szego_improved,
    polya_szego_multiplicative,
    weighted_additive,
)
from rcsbounds.harness import gen_argmin_families


def seqs(a, b, w=None, window=None):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if w is None:
        w = np.ones_like(a)
    if window is None:
        window = ScalarWindow(a.min(), a.max(), b.min(), b.max())
    return WeightedSequences(a, b, np.asarray(w, dtype=float), window)


EQUALITY_DATA = seqs([1.0, 2.0], [2.0, 1.0], window=ScalarWindow(1.0, 2.0, 1.0, 2.0))


def test_window_validation():
    with pytest.raises(WindowViolationError):
        ScalarWindow(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(WindowViolationError):
        ScalarWindow(2.0, 1.0, 1.0, 2.0)
    with pytest.raises(WindowViolationError):
        seqs([1.0, 5.0], [1.0, 1.0], window=ScalarWindow(1.0, 2.0, 1.0, 2.0))


def test_constant_sequences_are_tight():
    data = seqs([3.0, 3.0, 3.0], [0.5, 0.5, 0.5], w=[0.2, 1.0, 2.5])
    res = integral_bounds(data)
    assert abs(res.additive.lhs) <= 1e-12 and abs(res.additive.rhs) <= 1e-12
    assert abs(res.multiplicative.margin) <= 1e-12
    assert abs(res.multiplicative.details["coefficient"] - 1.0) <= 1e-12


def test_multiplicative_equality_instance():
    res = integral_bounds(EQUALITY_DATA)
    assert abs(res.multiplicative.lhs - 5.0) <= 1e-12
    assert abs(res.multiplicative.rhs - 5.0) <= 1e-12
    assert res.multiplicative.verdict == HOLDS


def test_greub_rheinboldt_equality_instance():
    rep = greub_rheinboldt(EQUALITY_DATA)
    assert abs(rep.lhs - 25.0) <= 1e-12
    assert abs(rep.rhs - 25.0) <= 1e-12
    assert rep.verdict == HOLDS


def test_greub_rheinboldt_is_squared_multiplicative():
    rep = greub_rheinboldt(EQUALITY_DATA)
    assert rep.rhs == rep.details["rhs_via_squared_multiplicative"]
    mult = integral_bounds(EQUALITY_DATA).multiplicative
    assert rep.details["lhs_via_squared_multiplicative"] == mult.lhs * mult.lhs


def test_weighted_additive_pinned_family():
    data = seqs([2.0, 2.0], [0.5, 0.5], window=ScalarWindow(1.0, 2.0, 0.5, 0.5))
    rep = weighted_additive(data)
    assert abs(rep.lhs) <= 1e-12
    assert abs(rep.rhs - 0.25) <= 1e-12
    assert abs(rep.details["branch_b"] - 0.25) <= 1e-12
    assert abs(rep.details["branch_a"] - 1.0) <= 1e-12


def test_weighted_additive_matches_integral_route():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        a = rng.uniform(0.5, 4.0, n)
        b = rng.uniform(0.2, 3.0, n)
        w = rng.uniform(0.1, 2.0, n)
        data = seqs(a, b, w)
        assert weighted_additive(data).lhs == integral_bounds(data).additive.lhs
        assert weighted_additive(data).rhs == integral_bounds(data).additive.rhs


def test_ps_requires_unit_weights():
    data = seqs([1.0, 2.0], [2.0, 1.0], w=[1.0, 2.0])
    with pytest.raises(ValueError):
        polya_szego_multiplicative(data)
    with pytest.raises(ValueError):
        polya_szego_improved(data)


def test_greub_rheinboldt_unit_weights_is_classical_bound():
    """With w = 1 the weighted product bound IS the classical one, bit for bit."""
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        data = seqs(rng.uniform(1.0, 3.0, n), rng.uniform(0.5, 2.0, n))
        gr = greub_rheinboldt(data)
        ps = polya_szego_multiplicative(data)
        assert gr.lhs == ps.lhs
        assert gr.rhs == ps.rhs
        assert gr.margin == ps.margin


def test_improved_family_constants():
    data = seqs([2.0, 2.0], [0.5, 0.5], window=ScalarWindow(1.0, 2.0, 0.5, 0.5))
    res = polya_szego_improved(data)
    np.testing.assert_allclose(res.constants, (1.0, 0.25, 0.5), atol=1e-14)
    assert res.argmin == 2
    assert abs(res.report.lhs) <= 1e-14


def test_improved_mirror_family_constants():
    data = seqs([0.5, 0.5], [2.0, 2.0], window=ScalarWindow(0.5, 0.5, 1.0, 2.0))
    res = polya_szego_improved(data)
    np.testing.assert_allclose(res.constants, (0.25, 1.0, 0.5), atol=1e-14)
    assert res.argmin == 1


def test_improved_equality_family_prefers_third():
    res = polya_szego_improved(EQUALITY_DATA)
    assert res.argmin == 3
    assert res.equality_holds
    assert abs(res.equality_lhs - res.equality_rhs) <= 1e-12
    # third constant reproduces the classical additive bound
    assert abs(res.constants[2] - res.classical_additive.rhs) <= 1e-12
    # PS_ADD is that constant, bit for bit
    assert res.classical_additive.rhs == res.constants[2]
    assert polya_szego_additive(EQUALITY_DATA).rhs == res.constants[2]


def test_improved_constant_sequences():
    data = seqs([2.0, 2.0, 2.0], [0.5, 0.5, 0.5])
    res = polya_szego_improved(data)
    assert abs(res.report.lhs) <= 1e-12
    assert res.equality_holds


def test_improved_never_worse_than_classical():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        data = seqs(rng.uniform(0.5, 5.0, n), rng.uniform(0.2, 4.0, n))
        res = polya_szego_improved(data)
        assert res.report.rhs <= res.classical_additive.rhs * (1 + 1e-12)
        assert res.report.details["improvement_over_classical"] >= -1e-12


def test_improved_schwarz_consistency():
    """Scaled third constant never exceeds gap * sum(a^2) sum(b^2) / (ab AB)."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        data = seqs(rng.uniform(0.5, 5.0, n), rng.uniform(0.2, 4.0, n))
        res = polya_szego_improved(data)
        sa2, sb2, _ = data.sums()
        win = data.window
        gap = (win.A * win.B - win.a * win.b) ** 2 / 4.0
        cap = gap * sa2 * sb2 / (win.a * win.b * win.A * win.B)
        assert res.constants[2] <= cap * (1 + 1e-12)


def test_gen_argmin_families_cover_all_three():
    argmins = {name: polya_szego_improved(fam).argmin for name, fam in gen_argmin_families(5)}
    assert argmins == {"family_c2": 2, "family_c1": 1, "family_c3": 3}


def test_measure_homogeneity():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        data = seqs(rng.uniform(1.0, 3.0, n), rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 1.0, n))
        c = float(rng.uniform(0.01, 100.0))
        scaled = WeightedSequences(data.a_seq, data.b_seq, c * data.w_seq, data.window)
        base = integral_bounds(data)
        after = integral_bounds(scaled)
        # additive sides scale by c^2, multiplicative by c
        for rep0, rep1, power in ((base.additive, after.additive, 2), (base.multiplicative, after.multiplicative, 1)):
            assert rep0.verdict == rep1.verdict
            scale = max(abs(rep0.margin), 1.0)
            assert abs(rep1.margin - c**power * rep0.margin) <= 1e-9 * c**power * scale


@st.composite
def bounded_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    a_lo = draw(st.floats(min_value=0.1, max_value=5.0))
    a_hi = draw(st.floats(min_value=a_lo, max_value=a_lo * 4))
    b_lo = draw(st.floats(min_value=0.1, max_value=5.0))
    b_hi = draw(st.floats(min_value=b_lo, max_value=b_lo * 4))
    a = draw(
        st.lists(st.floats(min_value=a_lo, max_value=a_hi), min_size=n, max_size=n)
    )
    b = draw(
        st.lists(st.floats(min_value=b_lo, max_value=b_hi), min_size=n, max_size=n)
    )
    return seqs(a, b, window=ScalarWindow(a_lo, a_hi, b_lo, b_hi))


@settings(max_examples=150, deadline=None)
@given(bounded_sequences())
def test_all_sequence_bounds_hold(data):
    assert integral_bounds(data).additive.verdict == HOLDS
    assert integral_bounds(data).multiplicative.verdict == HOLDS
    assert greub_rheinboldt(data).verdict == HOLDS
    assert weighted_additive(data).verdict == HOLDS
    assert polya_szego_multiplicative(data).verdict == HOLDS
    assert polya_szego_additive(data).verdict == HOLDS
    assert polya_szego_improved(data).report.verdict == HOLDS


@pytest.mark.parametrize(
    "bound", [integral_bounds, weighted_additive, polya_szego_additive, polya_szego_improved]
)
def test_underflowing_divisor_raises_zero_division(bound):
    # (A a)^2 underflows to 0: the sides are taken as Python takes them on
    # one instance, so the division raises instead of giving inf or NaN.
    data = seqs([1e-170, 1e-170], [1.0, 1.0])
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        bound(data)
