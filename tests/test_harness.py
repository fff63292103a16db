"""Generators, the exact-minor oracle, and the deterministic fuzz loop."""

import importlib

import numpy as np
import pytest

from rcsbounds import (
    ADD_MATRIX,
    INEQUALITY_IDS,
    MULT_MATRIX,
    OP_PAIR_ADD,
    OP_PAIR_MULT,
    PS_IMPROVED,
    DimTooLargeError,
    FormError,
    FuzzSummary,
    GeneratorConfig,
    NotHermitianError,
    Tolerance,
    WindowCheckError,
    additive_matrix_bound,
    check_re_condition,
    eig_hermitian,
    eig_hermitian_stack,
    fuzz_run,
    gen_argmin_families,
    gen_bounded_sequences,
    gen_commuting_positive_pair,
    gen_random_unitary,
    gen_re_valid_instance,
    omega_from_spectra,
    oracle_psd_minors,
    run_trial,
    run_trials,
    sample_window,
)
from rcsbounds.harness import TRIAL_WINDOW
from rcsbounds.rng import stream


def test_random_unitary_is_unitary():
    for d in (1, 2, 4, 8, 16):
        u = gen_random_unitary(d, rng=d)
        assert np.linalg.norm(u @ u.conj().T - np.eye(d)) <= 1e-12 * d


def test_random_unitary_seeds_differ():
    for seed in range(10):
        u = gen_random_unitary(4, rng=seed)
        v = gen_random_unitary(4, rng=seed + 100)
        assert np.linalg.norm(u - v) > 1e-3


def test_commuting_pair_commutes_and_is_admissible():
    for i in range(20):
        g = stream(77, i)
        d = int(g.choice([1, 2, 4, 8]))
        t, s = gen_commuting_positive_pair(d, g)
        comm = np.linalg.norm(t @ s - s @ t)
        assert comm <= 1e-10 * max(1.0, np.linalg.norm(t) * np.linalg.norm(s))
        pair = omega_from_spectra(t, s)  # raises if not commuting positive
        assert pair.Omega.imag == pair.omega.imag == 0.0
        assert pair.Omega.real >= pair.omega.real > 0


def test_bounded_sequences_respect_window():
    window = sample_window(stream(78, 0), (0.5, 4.0))
    data = gen_bounded_sequences(12, window, stream(78, 1))
    assert np.all(data.a_seq >= window.a) and np.all(data.a_seq <= window.A)
    assert np.all(data.b_seq >= window.b) and np.all(data.b_seq <= window.B)
    assert np.all(data.w_seq > 0.0) and np.all(data.w_seq <= 1.0)


def test_bounded_sequences_pin_endpoints():
    window = sample_window(stream(79, 0), (0.5, 4.0))
    data = gen_bounded_sequences(4, window, stream(79, 1))
    assert data.a_seq[0] == window.a
    assert data.a_seq[1] == window.A
    assert data.b_seq[2] == window.b
    assert data.b_seq[3] == window.B


def test_bounded_sequences_short():
    window = sample_window(stream(80, 0), (0.5, 4.0))
    data = gen_bounded_sequences(1, window, stream(80, 1))
    assert data.a_seq.shape == (1,)
    assert window.a <= data.a_seq[0] <= window.A


def test_module_instances_satisfy_bound():
    for i in range(25):
        g = stream(81, i)
        d = int(g.choice([1, 2, 4]))
        form, x, y, pair = gen_re_valid_instance("module", d, g)
        report = additive_matrix_bound(form, x, y, pair)
        assert report.verdict == "HOLDS"


def test_functional_instances_pass_re_check():
    for i in range(25):
        g = stream(82, i)
        d = int(g.choice([1, 2, 4]))
        form, x, y, pair = gen_re_valid_instance("functional", d, g)
        ok, value = check_re_condition(form, x, y, pair)
        assert ok, f"trial {i}: Re term {value}"


def test_unknown_instance_kind_rejected():
    with pytest.raises(ValueError):
        gen_re_valid_instance("mystery", 2, 0)


def test_argmin_families_need_two_points():
    with pytest.raises(ValueError):
        gen_argmin_families(1)
    names = [name for name, _ in gen_argmin_families(5)]
    assert names == ["family_c2", "family_c1", "family_c3"]


def test_minor_oracle_basic():
    assert oracle_psd_minors(np.eye(3))
    assert not oracle_psd_minors(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DimTooLargeError):
        oracle_psd_minors(np.eye(5))
    with pytest.raises(NotHermitianError):
        oracle_psd_minors(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_minor_oracle_agrees_with_eigensolver():
    # Compare against the Jacobi eigenvalues on matrices whose least
    # eigenvalue is clearly away from zero, where both answers are
    # unambiguous.
    checked = 0
    for i in range(500):
        g = stream(83, i)
        d = int(g.integers(1, 5))
        z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        h = (z + z.conj().T) / 2.0
        lam_min = float(np.min(eig_hermitian(h).eigenvalues))
        if abs(lam_min) < 1e-10 * max(1.0, np.linalg.norm(h)):
            continue
        assert oracle_psd_minors(h) == (lam_min > 0), f"trial {i}"
        checked += 1
    assert checked >= 400


def test_run_trial_is_pure():
    config = GeneratorConfig(seed=7, trials=10)
    first = run_trial(config, ADD_MATRIX, 5)
    run_trial(config, ADD_MATRIX, 3)  # unrelated trial in between
    second = run_trial(config, ADD_MATRIX, 5)
    assert first.margin == second.margin
    assert first.lhs == second.lhs
    assert first.rhs == second.rhs


@pytest.mark.parametrize(
    "inequality_id, solves",
    [(ADD_MATRIX, 7), (MULT_MATRIX, 9), (OP_PAIR_ADD, 8), (OP_PAIR_MULT, 8)],
)
def test_eigensolves_per_report(monkeypatch, inequality_id, solves):
    # Generator plus evaluator: each spectral decomposition of a report is
    # computed once.  Every decomposed matrix is counted: each slice of an
    # eig_hermitian_stack call, through every module binding.
    calls = []
    original = eig_hermitian_stack

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return original(a, *args, **kwargs)

    for name in ("", ".matalg", ".forms", ".bounds", ".harness", ".cli"):
        module = importlib.import_module(f"rcsbounds{name}")
        if getattr(module, "eig_hermitian_stack", None) is original:
            monkeypatch.setattr(module, "eig_hermitian_stack", counted)
    config = GeneratorConfig(seed=3, trials=8, dims=(1, 2, 4, 8))
    for i in range(config.trials):
        calls.clear()
        report = run_trial(config, inequality_id, i)
        assert report.verdict == "HOLDS"
        assert sum(calls) == solves, f"trial {i}"


@pytest.mark.parametrize("inequality_id", [ADD_MATRIX, MULT_MATRIX, OP_PAIR_ADD, OP_PAIR_MULT])
def test_campaign_margins_equal_replays(inequality_id):
    # Batch invariant: in a campaign, same-d trials are evaluated in
    # stacked calls; each trial's margin is bit-equal to replaying it
    # alone.  70 trials span a full window and a partial one.
    config = GeneratorConfig(seed=21, trials=70, dims=(1, 2, 4, 8, 16))
    assert config.trials % TRIAL_WINDOW != 0
    outcomes = run_trials(config, inequality_id, range(config.trials))
    assert len(outcomes) == config.trials
    for i, report in enumerate(outcomes):
        replay = run_trial(config, inequality_id, i)
        assert report.margin == replay.margin, f"trial {i}"
        assert report.verdict == replay.verdict == "HOLDS"
    summary = fuzz_run(config, inequality_id)
    worst = min((r.margin, i) for i, r in enumerate(outcomes))
    assert (summary.worst_margin, summary.worst_seed) == worst


def test_failed_window_rerun_matches_replays():
    # Below roundoff some generator checks fail, so the stacked window
    # raises and is evaluated again trial by trial: each outcome is the
    # trial's own, as in a replay.
    tol = Tolerance(rtol=3e-17, atol=3e-17)
    config = GeneratorConfig(seed=4, trials=30, dims=(2,))
    outcomes = run_trials(config, ADD_MATRIX, range(config.trials), tol)
    failures = 0
    for i, outcome in enumerate(outcomes):
        try:
            replay = run_trial(config, ADD_MATRIX, i, tol)
        except FormError as exc:
            assert type(outcome) is type(exc), f"trial {i}"
            failures += 1
            continue
        assert outcome.margin == replay.margin, f"trial {i}"
    assert failures > 0


def test_run_trial_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_trial(GeneratorConfig(), "NOT_AN_ID", 0)


def test_fuzz_zero_trials():
    summary = fuzz_run(GeneratorConfig(seed=1, trials=0), PS_IMPROVED)
    assert summary.trials_run == 0
    assert summary.holds == summary.violated == summary.precondition_failed == 0
    assert summary.worst_margin is None and summary.worst_seed is None


@pytest.mark.parametrize("inequality_id", sorted(INEQUALITY_IDS))
def test_fuzz_counts_are_consistent(inequality_id):
    config = GeneratorConfig(seed=5, trials=40, dims=(1, 2, 4))
    summary = fuzz_run(config, inequality_id)
    assert isinstance(summary, FuzzSummary)
    total = summary.holds + summary.violated + summary.precondition_failed
    assert total == summary.trials_run == 40
    assert summary.violated == 0


def test_fuzz_strict_band_counts_generator_failures():
    # Below roundoff the module generator's commutation and window checks
    # fail; fuzz_run counts those trials as precondition failures.
    tol = Tolerance(rtol=3e-17, atol=3e-17)
    config = GeneratorConfig(seed=4, trials=30, dims=(2,))
    raised = set()
    for i in range(config.trials):
        try:
            run_trial(config, ADD_MATRIX, i, tol)
        except FormError as exc:
            raised.add(type(exc))
    assert WindowCheckError in raised
    for inequality_id in (ADD_MATRIX, MULT_MATRIX, OP_PAIR_ADD, OP_PAIR_MULT):
        strict = fuzz_run(config, inequality_id, tol)
        assert strict.precondition_failed > 0
        assert strict.holds + strict.violated + strict.precondition_failed == 30
        assert fuzz_run(config, inequality_id).precondition_failed == 0


def test_fuzz_replay_reproduces_worst_margin():
    config = GeneratorConfig(seed=11, trials=60, dims=(2, 4))
    summary = fuzz_run(config, ADD_MATRIX)
    assert summary.worst_seed is not None
    replayed = run_trial(config, ADD_MATRIX, summary.worst_seed)
    assert replayed.margin == summary.worst_margin


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(trials=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(dims=())
    with pytest.raises(ValueError):
        GeneratorConfig(dims=(17,))
    with pytest.raises(ValueError):
        GeneratorConfig(space_dims=(0,))
    with pytest.raises(ValueError):
        GeneratorConfig(window_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        GeneratorConfig(spectrum_range=(2.0, 1.0))
