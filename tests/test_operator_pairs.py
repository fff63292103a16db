"""Reverse bounds for commuting strictly positive operator pairs."""

import numpy as np
import pytest

from rcsbounds import (
    DEFAULT_TOL,
    DimMismatchError,
    NotCommutingError,
    NotStrictlyPositiveError,
    PositiveFunctional,
    omega_from_spectra,
    operator_pair_bounds,
)
from rcsbounds import bounds
from rcsbounds.harness import gen_commuting_positive_pair
from rcsbounds.rng import stream


def test_hand_instance_additive():
    # T = diag(1, 2), S = diag(2, 1), v = (1, 1):
    #   ||Tv||^2 ||Sv||^2 = 25, |<Tv, Sv>|^2 = 16, lhs = 9
    #   window edges 2/1 both ways, rhs = (3/2)^2 * min(25/4, 25/4) = 14.0625
    t = np.diag([1.0, 2.0])
    s = np.diag([2.0, 1.0])
    res = operator_pair_bounds(t, s, [1.0, 1.0])
    assert res.additive.verdict == "HOLDS"
    assert res.additive.lhs == pytest.approx(9.0, abs=1e-12)
    assert res.additive.rhs == pytest.approx(14.0625, abs=1e-12)


def test_hand_instance_multiplicative_is_equality():
    # Same pair: ||Tv|| ||Sv|| = 5 and the bound evaluates to exactly 5.
    t = np.diag([1.0, 2.0])
    s = np.diag([2.0, 1.0])
    res = operator_pair_bounds(t, s, [1.0, 1.0])
    assert res.multiplicative.verdict == "HOLDS"
    assert res.multiplicative.lhs == pytest.approx(5.0, abs=1e-12)
    assert res.multiplicative.rhs == pytest.approx(5.0, abs=1e-12)


def test_dual_route_agreement_on_hand_instance():
    t = np.diag([1.0, 2.0])
    s = np.diag([2.0, 1.0])
    res = operator_pair_bounds(t, s, [1.0, 1.0])
    for rep in (res.additive, res.multiplicative):
        cf_lhs = rep.details["closed_form_lhs"]
        cf_rhs = rep.details["closed_form_rhs"]
        assert rep.lhs == pytest.approx(cf_lhs, rel=1e-12, abs=1e-12)
        assert rep.rhs == pytest.approx(cf_rhs, rel=1e-12, abs=1e-12)


def test_additive_report_carries_both_windows():
    # The ts window (min t / max s, max t / min s) and the mirrored st
    # window, against spectral edges from numpy's eigvalsh.
    t, s = gen_commuting_positive_pair(3, stream(412, 0))
    (mt, *_, big_t), (ms, *_, big_s) = np.linalg.eigvalsh(t), np.linalg.eigvalsh(s)
    details = operator_pair_bounds(t, s, [1.0, 2.0, -1.0]).additive.details
    expected = {
        "omega_ts": mt / big_s,
        "Omega_ts": big_t / ms,
        "omega_st": ms / big_t,
        "Omega_st": big_s / mt,
    }
    for key, value in expected.items():
        assert details[key] == pytest.approx(value, rel=1e-12), key


def test_equal_operators_multiplicative_equality():
    # T = S makes <Tv, Sv> = ||Tv||^2, so lhs = rhs = ||Tv||^2 up to the
    # window factor, which collapses only when the spectrum is a point.
    t = np.diag([3.0, 3.0, 3.0])
    v = np.array([1.0, 2.0, -1.0])
    res = operator_pair_bounds(t, t, v)
    assert res.multiplicative.lhs == pytest.approx(
        res.multiplicative.rhs, rel=1e-12
    )
    assert res.additive.lhs == pytest.approx(0.0, abs=1e-10)


def test_random_commuting_pairs_hold():
    worst_add = np.inf
    worst_mult = np.inf
    for i in range(200):
        g = stream(411, i)
        d = int(g.choice([2, 3, 4, 8]))
        t, s = gen_commuting_positive_pair(d, g)
        v = g.normal(size=d) + 1j * g.normal(size=d)
        res = operator_pair_bounds(t, s, v)
        assert res.additive.verdict == "HOLDS"
        assert res.multiplicative.verdict == "HOLDS"
        worst_add = min(worst_add, res.additive.margin)
        worst_mult = min(worst_mult, res.multiplicative.margin)
    assert worst_add >= -1e-9
    assert worst_mult >= -1e-9


def test_dual_route_agreement_random():
    for i in range(100):
        g = stream(412, i)
        d = int(g.choice([2, 4, 8]))
        t, s = gen_commuting_positive_pair(d, g)
        v = g.normal(size=d) + 1j * g.normal(size=d)
        res = operator_pair_bounds(t, s, v)
        for rep in (res.additive, res.multiplicative):
            scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
            assert abs(rep.lhs - rep.details["closed_form_lhs"]) <= 1e-12 * scale
            assert abs(rep.rhs - rep.details["closed_form_rhs"]) <= 1e-12 * scale


def test_vector_scaling_covariance():
    # v -> c v multiplies the additive sides by |c|^4 and the
    # multiplicative sides by |c|^2; the verdicts cannot change.
    g = stream(413, 0)
    t, s = gen_commuting_positive_pair(3, g)
    v = g.normal(size=3) + 1j * g.normal(size=3)
    c = 2.5 - 1.25j
    base = operator_pair_bounds(t, s, v)
    scaled = operator_pair_bounds(t, s, c * v)
    f4 = abs(c) ** 4
    f2 = abs(c) ** 2
    assert scaled.additive.lhs == pytest.approx(f4 * base.additive.lhs, rel=1e-10)
    assert scaled.additive.rhs == pytest.approx(f4 * base.additive.rhs, rel=1e-10)
    assert scaled.multiplicative.lhs == pytest.approx(
        f2 * base.multiplicative.lhs, rel=1e-10
    )
    assert scaled.multiplicative.rhs == pytest.approx(
        f2 * base.multiplicative.rhs, rel=1e-10
    )


def test_noncommuting_pair_rejected():
    t = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = np.diag([1.0, 3.0])
    with pytest.raises(NotCommutingError):
        operator_pair_bounds(t, s, [1.0, 0.0])


def test_nonpositive_operator_rejected():
    t = np.diag([1.0, -2.0])
    s = np.diag([2.0, 1.0])
    with pytest.raises(NotStrictlyPositiveError):
        operator_pair_bounds(t, s, [1.0, 1.0])


def test_zero_vector_rejected():
    t = np.diag([1.0, 2.0])
    with pytest.raises(ValueError):
        operator_pair_bounds(t, t, [0.0, 0.0])


def test_dimension_mismatch_rejected():
    t = np.diag([1.0, 2.0])
    s = np.diag([2.0, 1.0, 3.0])
    with pytest.raises(DimMismatchError):
        operator_pair_bounds(t, s, [1.0, 1.0])
    with pytest.raises(DimMismatchError):
        operator_pair_bounds(t, t, [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "v",
    [[np.nan, 1.0], [np.inf, 1.0], [1e200, 1e200], [0.0, 0.0]],
    ids=["nan", "inf", "huge", "zero"],
)
def test_bad_vector_rejected_by_name(v):
    # v is checked once, up front: a NaN or infinite entry, a zero vector
    # and a v whose squared norm overflows are value errors naming v.
    t = np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match="^v must be nonzero and finite"):
        operator_pair_bounds(t, t, v)


def test_overflowing_sides_are_an_error_not_a_verdict():
    # Finite inputs whose products leave the double range give no NaN
    # margin and no pretend VIOLATED: the batch raises at the first such
    # slice, whatever its batch-mates.
    t = np.diag([1e200, 2.0])
    s = np.diag([2.0, 1.0])
    with pytest.raises(ValueError, match="overflow the double range"):
        operator_pair_bounds(t, s, [1.0, 1.0])
    ts = np.stack((s, t))
    ss = np.stack((t * 1e-200 + np.eye(2), s))
    v = np.ones((2, 2), dtype=complex)
    for inequality_id in ("OP_PAIR_ADD", "OP_PAIR_MULT"):
        with pytest.raises(ValueError, match="overflow the double range"):
            bounds._operator_pair_reports(inequality_id, ts, ss, v, None, DEFAULT_TOL)


UNIT_STATE_OVERFLOW = (
    r"^operator pair values overflow the double range "
    r"\(\|\|v\|\| = 1\.000e-100, \|\|Tv\|\|\^2 = 1\.000e\+200, \|\|Sv\|\|\^2 = 4\.000e-200\)$"
)


def test_overflow_on_the_unit_state_is_an_error_not_a_verdict():
    # ||Tv||^2 = 1e200 and OP_PAIR_MULT's closed forms are finite, but
    # t* t, which the functional route evaluates on u = v / ||v||, is not:
    # the error names the slice's ||v|| as a closed form's overflow does.
    t = np.diag([1e200, 2.0])
    s = np.diag([2.0, 1.0])
    for inequality_id in ("OP_PAIR_ADD", "OP_PAIR_MULT"):
        with pytest.raises(ValueError, match=UNIT_STATE_OVERFLOW):
            bounds._evaluate_one(inequality_id, (t, s, [1e-100, 0.0]), DEFAULT_TOL)


def test_overflow_on_the_unit_state_names_its_slice():
    # In a batch, the error names the ||v|| of the slice that overflows on
    # its unit state, not that of the first slice.
    ts = np.stack((np.diag([1.0, 2.0]), np.diag([1e200, 2.0])))
    ss = np.stack((np.diag([2.0, 1.0]), np.diag([2.0, 1.0])))
    v = np.array([[1.0, 1.0], [1e-100, 0.0]], dtype=complex)
    for inequality_id in ("OP_PAIR_ADD", "OP_PAIR_MULT"):
        with pytest.raises(ValueError, match=UNIT_STATE_OVERFLOW):
            bounds._operator_pair_reports(inequality_id, ts, ss, v, None, DEFAULT_TOL)


def test_stacked_sides_match_a_per_instance_reference():
    # The evaluator forms every value over the stack; the sides computed
    # one instance at a time through the public functional and window
    # agree to rounding at the size of their operands.
    for i in range(60):
        g = stream(414, i)
        d = int(g.choice([1, 2, 3, 4, 8]))
        t, s = gen_commuting_positive_pair(d, g)
        v = g.normal(size=d) + 1j * g.normal(size=d)
        res = operator_pair_bounds(t, s, v)
        norm = np.linalg.norm(v)
        phi = PositiveFunctional.vector_state(v / norm)
        ftt, fss = (phi.value(m.conj().T @ m).real for m in (t, s))
        fst = phi.value(s.conj().T @ t)
        ts, st = omega_from_spectra(t, s), omega_from_spectra(s, t)
        coeff = 0.5 * (abs(ts.Omega) + abs(ts.omega)) / np.sqrt(ts.re_cross())
        size = ftt * fss * norm**4
        rhs_add = 0.25 * min(ts.spread() ** 2 * fss**2, st.spread() ** 2 * ftt**2) * norm**4
        pairs = [
            (res.additive.lhs, (ftt * fss - abs(fst) ** 2) * norm**4),
            (res.additive.rhs, rhs_add),
            (res.multiplicative.lhs, np.sqrt(ftt * fss) * norm**2),
            (res.multiplicative.rhs, coeff * abs(fst) * norm**2),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * max(size, 1.0), (i, got, want)
