"""Generators, the exact-minor oracle, and the deterministic fuzz loop."""

import importlib
import json

import numpy as np
import pytest

import rcsbounds
from rcsbounds import (
    ADD_FUNCTIONAL,
    ADD_MATRIX,
    DEFAULT_TOL,
    HYPOTHESIS_ERRORS,
    INEQUALITY_IDS,
    INT_ADD,
    MULT_FUNCTIONAL,
    MULT_MATRIX,
    OP_PAIR_ADD,
    OP_PAIR_MULT,
    PRECONDITION_FAILED,
    PS_IMPROVED,
    BoundReport,
    DimTooLargeError,
    FormError,
    FuzzSummary,
    GeneratorConfig,
    KernelError,
    NoConvergenceError,
    NonPositiveReOmegaError,
    NotCommutingError,
    NotHermitianError,
    NotPositiveError,
    NotStrictlyPositiveError,
    RejectionCapExceededError,
    ScalarWindow,
    Tolerance,
    WeightedSequences,
    WindowCheckError,
    WindowViolationError,
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
    loewner_leq,
    omega_from_spectra,
    oracle_psd_minors,
    precondition_failed_report,
    run_trial,
    run_trials,
    sample_window,
)
from rcsbounds import bounds, harness
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
    [(ADD_MATRIX, 7), (MULT_MATRIX, 9), (OP_PAIR_ADD, 8), (OP_PAIR_MULT, 7)],
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


@pytest.mark.parametrize("inequality_id", sorted(INEQUALITY_IDS))
def test_campaign_margins_equal_replays(inequality_id):
    # Batch invariant: in a campaign, trials of one dimension are one batch
    # of the id's evaluator; each trial's report is bit-equal to replaying
    # it alone, a batch of one.  70 trials span a full window and a partial one.
    config = GeneratorConfig(seed=21, trials=70, dims=(1, 2, 4, 8, 16))
    assert config.trials % TRIAL_WINDOW != 0
    outcomes = run_trials(config, inequality_id, range(config.trials))
    assert len(outcomes) == config.trials
    for i, report in enumerate(outcomes):
        replay = run_trial(config, inequality_id, i)
        assert report.to_dict() == replay.to_dict(), f"trial {i}"
        assert report.verdict == replay.verdict == "HOLDS"
    summary = fuzz_run(config, inequality_id)
    worst = min((r.margin, i) for i, r in enumerate(outcomes))
    assert (summary.worst_margin, summary.worst_seed) == worst


# The checks of the module generator's instances, which fail below roundoff.
GENERATOR_CHECKS = {"commuting", "strictly_positive", "spectral_window"}


def test_failed_window_rerun_matches_replays():
    # Below roundoff some generator checks fail, so stacked groups raise
    # and their members are evaluated alone from the same draws: each
    # report is the trial's own, as in a replay, and a failed check gives
    # a report that names it.  With dims (1, 2, 4) a window mixes groups
    # of several d, failing trials and passing ones.
    tol = Tolerance(rtol=3e-17, atol=3e-17)
    cases = [(ADD_MATRIX, (2,))] + [
        (inequality_id, (1, 2, 4))
        for inequality_id in (ADD_MATRIX, MULT_MATRIX, OP_PAIR_ADD, OP_PAIR_MULT)
    ]
    for inequality_id, dims in cases:
        config = GeneratorConfig(seed=4, trials=30, dims=dims)
        reports = run_trials(config, inequality_id, range(config.trials), tol)
        assert all(isinstance(report, BoundReport) for report in reports)
        failures = 0
        for i, report in enumerate(reports):
            replay = run_trial(config, inequality_id, i, tol)
            assert report.to_dict() == replay.to_dict(), f"{inequality_id} {dims} trial {i}"
            if "error" in report.details:  # a generator check raised
                (check,) = report.preconditions
                assert check.name in GENERATOR_CHECKS and not check.passed
                assert report.verdict == PRECONDITION_FAILED and report.details["message"]
                failures += 1
        assert 0 < failures < config.trials, (inequality_id, dims)


def test_each_trial_is_drawn_once(monkeypatch):
    # A window whose stacked groups fail a hypothesis draws no trial again.
    calls = []

    def counted(d, rng):
        calls.append(d)
        return gen_commuting_positive_pair(d, rng)

    monkeypatch.setattr(harness, "gen_commuting_positive_pair", counted)
    tol = Tolerance(rtol=3e-17, atol=3e-17)
    config = GeneratorConfig(seed=4, trials=30, dims=(2,))
    reports = run_trials(config, ADD_MATRIX, range(config.trials), tol)
    assert PRECONDITION_FAILED in {report.verdict for report in reports}
    assert len(calls) == config.trials


def test_solver_failure_in_a_stacked_group_propagates(monkeypatch):
    # Only a hypothesis failure is retried member by member: any other
    # exception leaves the campaign at the first stacked call.
    calls = []

    def failing(*args):
        calls.append(args)
        raise NoConvergenceError("no convergence")

    monkeypatch.setattr(bounds, "_matrix_reports", failing)
    with pytest.raises(NoConvergenceError):
        fuzz_run(GeneratorConfig(seed=1, trials=40, dims=(2,)), ADD_MATRIX)
    assert len(calls) == 1


@pytest.mark.parametrize("inequality_id", [ADD_FUNCTIONAL, MULT_FUNCTIONAL])
def test_functional_group_is_one_batch(monkeypatch, inequality_id):
    # One stacked Re check per dimension group, covering every trial; the
    # generator's own Re checks go through forms and are not counted.
    lengths = []

    def counted(a, b, tol):
        lengths.append(len(b))
        return loewner_leq(a, b, tol)

    monkeypatch.setattr(bounds, "loewner_leq", counted)
    config = GeneratorConfig(seed=7, trials=64, dims=(1, 2, 4))
    reports = run_trials(config, inequality_id, range(config.trials))
    assert PRECONDITION_FAILED not in {report.verdict for report in reports}
    assert len(lengths) == len(config.dims)
    assert sum(lengths) == config.trials


@pytest.mark.parametrize("index", [-1, 30, 2**64])
def test_run_trial_rejects_index_outside_campaign(index):
    # An index no campaign runs: not a trial of this configuration.
    with pytest.raises(ValueError, match="trial index"):
        run_trial(GeneratorConfig(seed=0, trials=30), ADD_MATRIX, index)


@pytest.mark.parametrize(
    "error, check",
    [
        (NotHermitianError, "hermitian"),
        (NotPositiveError, "positive_semidefinite"),
        (FormError, "admissible_instance"),
        (RejectionCapExceededError, "admissible_instance"),
        (NotCommutingError, "commuting"),
        (NotStrictlyPositiveError, "strictly_positive"),
        (WindowCheckError, "spectral_window"),
        (NonPositiveReOmegaError, "re_cross_positive"),
        (WindowViolationError, "sequences_in_window"),
    ],
)
def test_hypothesis_error_report_names_its_check(error, check):
    assert issubclass(error, HYPOTHESIS_ERRORS)
    report = precondition_failed_report(ADD_MATRIX, error("the reason"))
    assert report.inequality_id == ADD_MATRIX
    assert report.verdict == PRECONDITION_FAILED
    assert [(p.name, p.passed) for p in report.preconditions] == [(check, False)]
    assert report.details == {"error": error.__name__, "message": "the reason"}
    assert report.to_dict()["margin"] is None


def test_solver_and_kernel_failures_are_not_hypothesis_errors():
    for error in (NoConvergenceError, KernelError, ValueError):
        assert not issubclass(error, HYPOTHESIS_ERRORS)


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
    raised = [
        report
        for report in (run_trial(config, ADD_MATRIX, i, tol) for i in range(config.trials))
        if "error" in report.details
    ]
    assert WindowCheckError.__name__ in {report.details["error"] for report in raised}
    assert {report.preconditions[0].name for report in raised} <= GENERATOR_CHECKS
    for inequality_id in (ADD_MATRIX, MULT_MATRIX, OP_PAIR_ADD, OP_PAIR_MULT):
        strict = fuzz_run(config, inequality_id, tol)
        verdicts = [r.verdict for r in run_trials(config, inequality_id, range(30), tol)]
        assert strict.precondition_failed == verdicts.count(PRECONDITION_FAILED) > 0
        assert strict.holds + strict.violated + strict.precondition_failed == 30
        assert fuzz_run(config, inequality_id).precondition_failed == 0


def test_fuzz_replay_reproduces_worst_margin():
    config = GeneratorConfig(seed=11, trials=60, dims=(2, 4))
    summary = fuzz_run(config, ADD_MATRIX)
    assert summary.worst_seed is not None
    replayed = run_trial(config, ADD_MATRIX, summary.worst_seed)
    assert replayed.margin == summary.worst_margin


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_stream_rejects_keys_outside_64_bits(seed, index):
    # Masking them would alias distinct seeds: -1 would be 2**64 - 1.
    with pytest.raises(ValueError, match=r"outside 0\.\.2\^64 - 1"):
        stream(seed, index)


def test_stream_keys_in_range_are_the_philox_key():
    for seed, index in ((0, 0), (7, 2**64 - 1), (2**64 - 1, 3)):
        key = np.array([seed, index], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).integers(2**62, size=4)
        assert stream(seed, index).integers(2**62, size=4).tolist() == expected.tolist()


def _state(g):
    """Everything that decides a generator's next draws."""
    state = g.bit_generator.state
    inner = state["state"]
    return (
        inner["counter"].tolist(),
        inner["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_streams_are_bit_equal_to_stream(seed):
    # One Philox re-keyed per index: each yielded generator draws what a
    # fresh stream(seed, i) draws, whatever the previous one left in its
    # buffers (integers(3) leaves half of a 64-bit draw behind).
    indices = [5, 0, 2**64 - 1, 3, 0, 5]
    draws = (
        lambda g: g.standard_normal(3),
        lambda g: g.uniform(0.1, 10.0, size=3),
        lambda g: g.integers(2**62, size=3),
        lambda g: g.integers(3, size=3),
    )
    for index, g in zip(indices, rcsbounds.streams(seed, indices)):
        expected = stream(seed, index)
        for draw in draws:
            assert draw(g).tolist() == draw(expected).tolist(), (seed, index)
        assert _state(g) == _state(expected)


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_streams_reject_keys_as_stream_does(seed, index):
    with pytest.raises(ValueError) as expected:
        stream(seed, index)
    with pytest.raises(ValueError) as raised:
        list(rcsbounds.streams(seed, [0, index]))
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("dims", [(1, 2, 4, 8), (4, 8, 16)])
def test_dimension_index_draw_is_choice(dims):
    # A trial draws its dimension as dims[g.integers(len(dims))]: the same
    # value as g.choice(np.asarray(dims)), with the stream left in the same
    # state, so every later draw of the trial is unchanged.
    for i in range(1000):
        by_choice, by_index = stream(17, i), stream(17, i)
        assert int(by_choice.choice(np.asarray(dims))) == dims[by_index.integers(len(dims))]
        assert _state(by_choice) == _state(by_index)


# Rows (a_seq, b_seq, w_seq) in the window [1, 2] x [0.5, 4], whose slacks
# are 2e-12 for a and 4e-12 for b.
SEQUENCE_WINDOW = ScalarWindow(1.0, 2.0, 0.5, 4.0)
SEQUENCE_ROWS = {
    "inside": ([1.0, 2.0, 1.5, 1.2], [0.5, 4.0, 1.0, 2.0], [1.0, 0.5, 0.25, 1.0]),
    "inside_slack": ([1.0, 2.0 + 1e-12, 1.5, 1.2], [0.5 - 3e-12, 4.0, 1.0, 2.0], [1.0] * 4),
    "beyond_slack_b": ([1.0, 2.0, 1.5, 1.2], [0.5, 4.0 + 8e-12, 1.0, 2.0], [1.0] * 4),
    "beyond_slack_a": ([1.0 - 4e-12, 2.0, 1.5, 1.2], [0.5, 4.0, 1.0, 2.0], [0.5] * 4),
    "nan": ([1.0, 2.0, np.nan, 1.2], [0.5, 9.0, 1.0, 2.0], [1.0] * 4),
    "zero_weight": ([1.0, 2.0, 1.5, 0.5], [0.5, 4.0, 1.0, 2.0], [1.0, 0.0, 1.0, 1.0]),
}


def _lone_error(row):
    """What WeightedSequences raises on one row, or None."""
    try:
        WeightedSequences(*row, SEQUENCE_WINDOW)
    except (ValueError, WindowViolationError) as exc:
        return type(exc), str(exc)
    return None


def test_stacked_sequence_check_raises_as_the_first_failing_row():
    names = list(SEQUENCE_ROWS)
    assert [_lone_error(SEQUENCE_ROWS[n]) is None for n in names] == [True, True] + [False] * 4
    for start in range(len(names)):
        rows = [SEQUENCE_ROWS[n] for n in names[start:] + names[:start]]
        expected = next(e for e in map(_lone_error, rows) if e is not None)
        a, b, w = (np.array(column) for column in zip(*rows))
        with pytest.raises((ValueError, WindowViolationError)) as raised:
            bounds._check_sequences(a, b, w, [SEQUENCE_WINDOW] * len(rows))
        assert (type(raised.value), str(raised.value)) == expected, names[start]
    inside = [SEQUENCE_ROWS["inside"], SEQUENCE_ROWS["inside_slack"]]
    bounds._check_sequences(*(np.array(c) for c in zip(*inside)), [SEQUENCE_WINDOW] * 2)


def test_out_of_window_row_is_isolated_in_its_group():
    # The group's stacked check fails on one row: that row gets the report
    # of its failed hypothesis, the others the reports of their lone
    # evaluation, bit for bit.
    names = ["inside", "beyond_slack_a", "inside_slack", "inside"]
    rows = [(*map(np.array, SEQUENCE_ROWS[n]), SEQUENCE_WINDOW) for n in names]
    entry = bounds._REGISTRY[INT_ADD]
    reports = harness._group_reports(INT_ADD, entry, rows, DEFAULT_TOL)
    for name, row, report in zip(names, rows, reports):
        try:
            expected = bounds._evaluate_one(INT_ADD, WeightedSequences(*row), DEFAULT_TOL)
        except WindowViolationError as exc:
            expected = precondition_failed_report(INT_ADD, exc)
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict()), name
    assert [r.verdict for r in reports] == ["HOLDS", PRECONDITION_FAILED, "HOLDS", "HOLDS"]


def test_config_validation():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            GeneratorConfig(seed=seed)
    with pytest.raises(ValueError):
        GeneratorConfig(trials=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(dims=())
    with pytest.raises(ValueError):
        GeneratorConfig(dims=(17,))
