"""Generators, the exact-minor oracle, and the deterministic fuzz loop."""

import dataclasses
import functools
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
from rcsbounds import bounds, forms, harness, matalg
from rcsbounds.harness import REJECTION_CAP, TRIAL_WINDOW
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
    [(ADD_MATRIX, 4), (MULT_MATRIX, 6), (OP_PAIR_ADD, 3), (OP_PAIR_MULT, 2)],
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


@pytest.mark.parametrize(
    "inequality_id, sweeps",
    [(ADD_MATRIX, [5, 6, 5, 0, 2, 4, 2, 0]), (MULT_MATRIX, [5, 5, 5, 0, 2, 4, 2, 0])],
)
def test_jacobi_sweeps_per_report(monkeypatch, inequality_id, sweeps):
    # The window's eigensolve starts in the unitaries the generator built
    # the pair in, and the evaluator's first starts cold; every later solve
    # of the report starts in the eigenvectors of the evaluator's first,
    # which diagonalize a commuting pair's matrices.  Each started solve
    # takes at most one sweep.  Every sweep of every matrix is counted.
    solves = []
    original_stack, original_sweep = eig_hermitian_stack, matalg._jacobi_sweep

    def counted_stack(a, *args, start=None, **kwargs):
        solves.append([start is not None, 0])
        return original_stack(a, *args, start=start, **kwargs)

    def counted_sweep(h, *args):
        solves[-1][1] += len(h)
        return original_sweep(h, *args)

    for name in ("", ".matalg", ".forms", ".bounds", ".harness", ".cli"):
        module = importlib.import_module(f"rcsbounds{name}")
        if getattr(module, "eig_hermitian_stack", None) is original_stack:
            monkeypatch.setattr(module, "eig_hermitian_stack", counted_stack)
    monkeypatch.setattr(matalg, "_jacobi_sweep", counted_sweep)
    config = GeneratorConfig(seed=3, trials=8, dims=(1, 2, 4, 8))
    started = 2 if inequality_id == ADD_MATRIX else 4
    for i in range(config.trials):
        solves.clear()
        assert run_trial(config, inequality_id, i).verdict == "HOLDS"
        assert [s for s, _ in solves] == [True, False] + [True] * started, f"trial {i}"
        assert all(n <= 1 for s, n in solves if s), f"trial {i}"
        assert sum(n for _, n in solves) == sweeps[i], f"trial {i}"


@pytest.mark.parametrize("inequality_id", [OP_PAIR_ADD, OP_PAIR_MULT])
def test_operator_pair_batch_is_one_pass(monkeypatch, inequality_id):
    # An operator-pair batch builds no functional per trial, and its stacked
    # calls check their arrays a fixed number of times whatever its size.
    built, validated = [], []
    original_init, original_validated = forms.PositiveFunctional.__post_init__, matalg._validated

    def counted_init(self):
        built.append(self)
        original_init(self)

    def counted_validated(m):
        validated.append(m.shape)
        return original_validated(m)

    monkeypatch.setattr(forms.PositiveFunctional, "__post_init__", counted_init)
    monkeypatch.setattr(matalg, "_validated", counted_validated)
    counts = []
    for trials in (4, 40):
        validated.clear()
        config = GeneratorConfig(seed=6, trials=trials, dims=(3,))
        reports = run_trials(config, inequality_id, range(trials))
        assert [r.verdict for r in reports] == ["HOLDS"] * trials
        assert {shape[0] for shape in validated} >= {trials}  # stacked calls
        counts.append(len(validated))
    assert built == []
    assert counts[0] == counts[1]


def test_started_window_equals_cold_window():
    # The module instances' window starts its eigensolve of x in the
    # generator's unitaries; its pairs equal those of a cold
    # omega_from_spectra on the same stacks to 1e-12 relative.
    g = stream(31, 0)
    for d in range(1, 17):
        draws = [harness._pair_draw(d, g) for _ in range(8)]
        _, x, y, pairs = harness._module_instances(*map(np.stack, zip(*draws)), DEFAULT_TOL)
        for started, cold in zip(pairs, omega_from_spectra(x, y)):
            for a, b in ((started.omega, cold.omega), (started.Omega, cold.Omega)):
                assert abs(a - b) <= 1e-12 * abs(b), (d, a, b)


@pytest.mark.parametrize("kind", ["module", "functional"])
def test_module_generator_is_the_campaign_instance(kind):
    # gen_re_valid_instance(kind) on a trial's stream, after the dimension
    # draw, gives that trial's instance in a campaign batch.
    inequality_id = {"module": ADD_MATRIX, "functional": ADD_FUNCTIONAL}[kind]
    config = GeneratorConfig(seed=13, trials=12, dims=(4,))
    entry = bounds._REGISTRY[inequality_id]
    draws = harness._DRAWS.get(entry.payload, harness._matrix_draws)
    ((_, columns),) = draws(config, entry, list(range(config.trials)))
    restart = functools.partial(harness._restarted, config)
    forms_, x, y, pairs = harness._batch(entry, columns, DEFAULT_TOL, restart)
    if kind == "functional":
        forms_ = [forms_.form(i) for i in range(config.trials)]
        pairs = [forms.OmegaPair(*row) for row in pairs.tolist()]
    for i in range(config.trials):
        g = stream(config.seed, i)
        g.integers(len(config.dims))
        form, xi, yi, pair = gen_re_valid_instance(kind, 4, g)
        assert form.to_dict() == forms_[i].to_dict() and pair == pairs[i]
        assert xi.tobytes() == x[i].tobytes() and yi.tobytes() == y[i].tobytes()


def _functional_reference(d, g, cap=1000, tol=DEFAULT_TOL):
    """gen_re_valid_instance("functional") written out one draw at a time
    with g.uniform and per-instance functional values, as the generator
    has always drawn and checked its instances."""
    phi = harness._random_functional(d, g)
    form = forms.FormInstance.functional_form(phi)

    def gaussian_matrix():
        return g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))

    def phi_norm2(m):
        return _functional_value(phi, m.conj().T @ m).real

    y = gaussian_matrix()
    while phi_norm2(y) < 1e-8:
        y = gaussian_matrix()
    fyy = phi_norm2(y)
    lam_mod = g.uniform(0.5, 2.0)
    lam = lam_mod * np.exp(1j * g.uniform(0.0, 2 * np.pi))
    radius = g.uniform(0.1, 0.9) * lam_mod
    c = radius * np.exp(1j * g.uniform(0.0, 2 * np.pi))
    pair = forms.OmegaPair(omega=complex(lam - c), Omega=complex(lam + c))
    for _ in range(cap):
        p = gaussian_matrix()
        fpp = phi_norm2(p)
        if fpp < 1e-12:
            continue
        rho = g.uniform(0.0, 0.9)
        x = lam * y + p * np.sqrt(rho * radius**2 * fyy / fpp)
        if check_re_condition(form, x, y, pair, tol)[0]:
            return form, x, y, pair
    raise RejectionCapExceededError("cap")


def test_functional_generator_draws_as_one_draw_at_a_time():
    # The first attempt drawn at once and built over the stack is the
    # instance that drawing one value at a time with g.uniform gives.
    for i in range(60):
        d = 1 + i % 16
        form, x, y, pair = gen_re_valid_instance("functional", d, stream(29, i))
        ref_form, ref_x, ref_y, ref_pair = _functional_reference(d, stream(29, i))
        assert form.to_dict() == ref_form.to_dict() and pair == ref_pair, i
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes(), i


# Ways a functional instance's first attempt is rejected: by a stand-in for
# the stacked Re check that also rejects every attempt whose x[0, 0] has a
# real part with an even last bit (about half of them), or by thresholds on
# phi(y* y) or phi(p* p) that Gaussian draws often miss at d = 1.
REJECTIONS = {
    "re_check": None,
    "degenerate_y": ("_Y_NORM2_MIN", 2.0),
    "degenerate_p": ("_P_NORM2_MIN", 2.0),
}


def _odd_last_bit(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64) % 2 == 1


@pytest.mark.parametrize("rejection", sorted(REJECTIONS))
@pytest.mark.parametrize("inequality_id", [ADD_FUNCTIONAL, MULT_FUNCTIONAL])
def test_rejected_slice_continues_on_its_own_stream(monkeypatch, rejection, inequality_id):
    # Slices whose first attempt is rejected continue their own rejection
    # loop: each campaign report equals the run_trial replay and the
    # report of the lone generator's instance, bit for bit.
    if REJECTIONS[rejection] is None:
        original = harness._re_accepts

        def rejecting(forms_, x, y, pairs, tol):
            return original(forms_, x, y, pairs, tol) & _odd_last_bit(x[:, 0, 0].real)

        monkeypatch.setattr(harness, "_re_accepts", rejecting)
    else:
        monkeypatch.setattr(harness, *REJECTIONS[rejection])
    restarts = []
    continued = harness._functional_rejections

    def counted(d, g, tol, cap):
        restarts.append(d)
        return continued(d, g, tol, cap)

    monkeypatch.setattr(harness, "_functional_rejections", counted)
    config = GeneratorConfig(seed=31, trials=40, dims=(1, 2, 4))
    reports = run_trials(config, inequality_id, range(config.trials))
    assert 0 < len(restarts) < config.trials
    for i, report in enumerate(reports):
        assert report.verdict == "HOLDS", i
        assert report.to_dict() == run_trial(config, inequality_id, i).to_dict(), i
        g = stream(config.seed, i)
        d = config.dims[g.integers(len(config.dims))]
        form, x, y, pair = gen_re_valid_instance("functional", d, g)
        lone = bounds._evaluate_one(inequality_id, (form, x, y, pair), DEFAULT_TOL)
        assert json.dumps(report.to_dict()) == json.dumps(lone.to_dict()), i
        phi = form.functional
        if rejection == "re_check":
            assert _odd_last_bit(x[0, 0].real)
        elif rejection == "degenerate_y":
            assert phi.value(y.conj().T @ y).real >= 2.0


@pytest.mark.parametrize("inequality_id", [ADD_FUNCTIONAL, MULT_FUNCTIONAL])
def test_functional_rejection_cap_is_a_failed_precondition(monkeypatch, inequality_id):
    # With every attempt rejected, each trial reaches the rejection cap and
    # gets the report of its failed hypothesis, with the generator's message.
    monkeypatch.setattr(harness, "_re_accepts", lambda forms_, x, *_: np.zeros(len(x), bool))
    config = GeneratorConfig(seed=32, trials=4, dims=(1, 2))
    for i, report in enumerate(run_trials(config, inequality_id, range(config.trials))):
        d = config.dims[stream(config.seed, i).integers(len(config.dims))]
        assert report.verdict == PRECONDITION_FAILED
        assert [c.name for c in report.preconditions] == ["admissible_instance"]
        assert report.details == {
            "error": "RejectionCapExceededError",
            "message": f"no admissible x found in {REJECTION_CAP} attempts (kind=functional, d={d})",
        }
    for cap in (0, 3):
        with pytest.raises(RejectionCapExceededError, match=f"in {cap} attempts"):
            gen_re_valid_instance("functional", 2, stream(32, 0), cap=cap)


def _uniform_sequences(g, n, unit_weights):
    """sample_window(g, WINDOW_RANGE) then gen_bounded_sequences(n, window,
    g) written out with g.uniform, as the sequence trials have always been drawn."""
    a_lo, a_hi = sorted(g.uniform(*harness.WINDOW_RANGE, size=2).tolist())
    b_lo, b_hi = sorted(g.uniform(*harness.WINDOW_RANGE, size=2).tolist())
    a_seq = g.uniform(a_lo, a_hi, size=n)
    b_seq = g.uniform(b_lo, b_hi, size=n)
    w_seq = 1.0 - g.uniform(0.0, 1.0, size=n)
    if n >= 4:
        a_seq[0], a_seq[1], b_seq[2], b_seq[3] = a_lo, a_hi, b_lo, b_hi
    w_seq = np.ones(n) if unit_weights else w_seq
    return a_seq, b_seq, w_seq, np.array([a_lo, a_hi, b_lo, b_hi])


@pytest.mark.parametrize("unit_weights", [False, True])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_sequence_batch_is_sample_window_then_gen_bounded_sequences(n, unit_weights):
    # The stacked builder on the trials' rows gives, byte for byte, the
    # window and sequences that sample_window then gen_bounded_sequences
    # draw from each trial's stream, and that g.uniform draws.
    rows = [harness._sequence_draw(stream(41, i), n) for i in range(50)]
    batch = harness._sequence_batch(np.stack(rows), unit_weights)
    for i in range(50):
        g = stream(41, i)
        window = sample_window(g, harness.WINDOW_RANGE)
        data = gen_bounded_sequences(n, window, g)
        w_seq = np.ones(n) if unit_weights else data.w_seq
        edges = [window.a, window.A, window.b, window.B]
        lone = (data.a_seq, data.b_seq, w_seq, np.array(edges))
        reference = _uniform_sequences(stream(41, i), n, unit_weights)
        for column, one, ref in zip(batch, lone, reference):
            assert column[i].tobytes() == one.tobytes() == ref.tobytes(), i


def _functional_value(phi, m):
    """phi(m) by the textbook formula of its kind."""
    if phi.kind == "vector_state":
        return complex(np.vdot(phi.state, m @ phi.state))
    if phi.kind == "trace":
        return complex(np.trace(m))
    return complex(np.sum(phi.weights * np.diag(m)))


def test_stacked_functional_values_are_each_functional_value():
    # Over a mixed-kind stack each slice's value is PositiveFunctional.value
    # bit for bit, whatever batch it is in, and the textbook formula of its
    # kind to roundoff.
    for d in range(1, 17):
        g = stream(61, d)
        phis = [harness._random_functional(d, g) for _ in range(15)]
        assert {phi.kind for phi in phis} == {"vector_state", "trace", "weighted_sum"}
        m = g.standard_normal((15, d, d)) + 1j * g.standard_normal((15, d, d))
        values = forms._functional_values(phis, m)
        reverse = forms._functional_values(phis[::-1], m[::-1])[::-1]
        halves = [forms._functional_values(phis[k::2], m[k::2]) for k in (0, 1)]
        for k, phi in enumerate(phis):
            one = phi.value(m[k])
            assert values[k] == reverse[k] == halves[k % 2][k // 2] == one, (d, k)
            assert abs(one - _functional_value(phi, m[k])) <= 1e-14 * max(abs(one), 1.0)


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
    original = harness._pair_draw

    def counted(d, rng):
        calls.append(d)
        return original(d, rng)

    monkeypatch.setattr(harness, "_pair_draw", counted)
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


def _counting(monkeypatch, name, modules, calls):
    """Record the batch length of every call of the function name, however
    the modules bind it."""
    original = getattr(forms, name)

    def counted(form_list, *args):
        calls.append(len(form_list))
        return original(form_list, *args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


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
    # A 1000-trial campaign draws each instance alone and builds, checks
    # and evaluates it with its group: every Re term (the generator's
    # check and the evaluator's) and every form evaluation (phi(y* y) and
    # phi(p* p) in the generator, phi(x* x), phi(y* y), phi(y* x) and the
    # two Re terms') covers a whole group, none a single trial.
    lengths.clear()
    re_terms, form_evals = [], []
    _counting(monkeypatch, "_re_term", (forms, bounds, harness), re_terms)
    _counting(monkeypatch, "_form_eval", (forms, bounds, harness), form_evals)
    config = GeneratorConfig(seed=8, trials=1000, dims=(1, 2, 4))
    summary = fuzz_run(config, inequality_id)
    assert summary.holds == config.trials
    groups = len(lengths)
    assert groups == len(config.dims)  # the campaign is one window
    assert sum(re_terms) == 2 * config.trials and len(re_terms) == 2 * groups
    assert sum(form_evals) == 7 * config.trials and len(form_evals) == 7 * groups


SCALAR_IDS = sorted(
    i for i, e in bounds._REGISTRY.items() if e.payload in ("sequences", "functional_form")
)


@pytest.mark.parametrize("inequality_id", SCALAR_IDS)
def test_scalar_window_size_does_not_change_a_trial(monkeypatch, inequality_id):
    # A word budget of one word is one trial per window, 300 words a few
    # (5 sequence trials, 2 functional ones at the default dims).
    config = GeneratorConfig(seed=23, trials=40)
    payload = bounds._REGISTRY[inequality_id].payload
    outputs = []
    for budget, rows in ((harness.SCALAR_WINDOW_WORDS, None), (300, (5, 2)), (1, (1, 1))):
        monkeypatch.setattr(harness, "SCALAR_WINDOW_WORDS", budget)
        if rows is not None:
            assert harness._window_size(config, payload) == rows[payload != "sequences"]
        reports = run_trials(config, inequality_id, range(config.trials))
        summary = fuzz_run(config, inequality_id)
        outputs.append(
            (json.dumps(summary.to_dict()), [json.dumps(r.to_dict()) for r in reports])
        )
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_scalar_windows_fit_the_word_budget():
    budget = harness.SCALAR_WINDOW_WORDS
    # Rows of 53 words (n, then 4 + 3n uniforms at n <= 16), of the mean
    # functional row over the dims (2d + 4d^2 normals, d + 5 uniforms),
    # and of compare's 4 + 3n uniforms.
    cases = [(harness._window_size(GeneratorConfig(), "sequences"), 53)]
    singles = [(d,) for d in range(1, 17)]
    for dims in singles + [(1, 2, 4, 8), (1, 16), (4, 8, 16), tuple(range(1, 17))]:
        rows = harness._window_size(GeneratorConfig(dims=dims), "functional_form")
        cases.append((rows, sum(4 * d * d + 3 * d + 5 for d in dims) / len(dims)))
    cases += [(harness._scalar_rows(4 + 3 * n), 4 + 3 * n) for n in (1, 8, 4096)]
    for rows, words in cases:
        assert 1 <= rows and rows * words <= budget < (rows + 1) * words, (rows, words)
    # A default campaign is one window; matrix payloads keep TRIAL_WINDOW.
    for payload in ("sequences", "functional_form"):
        assert harness._window_size(GeneratorConfig(), payload) >= GeneratorConfig().trials
    assert harness._window_size(GeneratorConfig(), "form") == TRIAL_WINDOW
    assert harness._scalar_rows(budget + 1) == 1


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


def _reduced(reports) -> dict:
    """The documented aggregation of reports in trial order: the verdict
    counts, and the least margin over the trials that did not fail a
    precondition with the lowest index attaining it (None without one)."""
    verdicts = [r.verdict for r in reports]
    judged = [(r.margin, i) for i, r in enumerate(reports) if r.verdict != PRECONDITION_FAILED]
    worst_margin, worst_seed = min(judged) if judged else (None, None)
    counts = {key: verdicts.count(key.upper()) for key in ("holds", "violated", "precondition_failed")}
    return {**counts, "worst_margin": worst_margin, "worst_seed": worst_seed}


STRICT_BAND = (GeneratorConfig(seed=4, trials=30, dims=(2,)), Tolerance(rtol=3e-17, atol=3e-17))
AGGREGATION_CASES = [
    *((i, GeneratorConfig(seed=51, trials=300, dims=(1, 2, 4)), DEFAULT_TOL) for i in INEQUALITY_IDS),
    (ADD_MATRIX, *STRICT_BAND),
]


@pytest.mark.parametrize("inequality_id, config, tol", AGGREGATION_CASES)
def test_fuzz_summary_is_the_reduction_of_run_trials(inequality_id, config, tol):
    # fuzz_run reduces the verdict and margin columns of each evaluated batch;
    # its summary equals the documented rule applied to the reports of the
    # same trials, across dimension groups and windows.  In the strict-band
    # campaign some trials fail a generator check, so its group is evaluated
    # member by member and their reports are left out of the worst margin.
    summary = fuzz_run(config, inequality_id, tol).to_dict()
    expected = _reduced(run_trials(config, inequality_id, range(config.trials), tol))
    assert {key: summary[key] for key in expected} == expected
    if tol is STRICT_BAND[1]:
        assert 0 < expected["precondition_failed"] < config.trials


def _rebound(monkeypatch, inequality_id, evaluate):
    """Rebind the registry entry of inequality_id to evaluate(entry, batch, tol)."""
    entry = bounds._REGISTRY[inequality_id]
    rebound = dataclasses.replace(entry, evaluate=lambda batch, tol: evaluate(entry, batch, tol))
    monkeypatch.setitem(bounds._REGISTRY, inequality_id, rebound)


def test_fuzz_margin_ties_go_to_the_lowest_index(monkeypatch):
    # Every margin is set to a zero, +0.0 or -0.0 by its sign about the
    # batch median: all trials tie, and the lowest index wins with its own
    # zero, though trial 0 is in the last dimension group its window evaluates.
    def zeros(entry, batch, tol):
        reports = entry.evaluate(batch, tol)
        margin = np.copysign(0.0, reports.margin - np.median(reports.margin))
        return dataclasses.replace(reports, margin=margin)

    _rebound(monkeypatch, INT_ADD, zeros)
    config = GeneratorConfig(seed=3, trials=600)
    n = harness.SPACE_DIMS[stream(3, 0).integers(len(harness.SPACE_DIMS))]
    assert n == max(harness.SPACE_DIMS)
    reports = run_trials(config, INT_ADD, range(config.trials))
    summary = fuzz_run(config, INT_ADD).to_dict()
    assert (summary["worst_margin"], summary["worst_seed"]) == (reports[0].margin, 0)
    assert {key: summary[key] for key in _reduced(reports)} == _reduced(reports)


def test_fuzz_summary_without_a_judged_trial(monkeypatch):
    # Every batch and every member alone fails a hypothesis: every trial is
    # a precondition failure, and there is no worst margin or trial.
    def failing(entry, batch, tol):
        raise WindowViolationError("a_seq leaves the window [a, A]")

    _rebound(monkeypatch, INT_ADD, failing)
    summary = fuzz_run(GeneratorConfig(seed=6, trials=300), INT_ADD)
    assert (summary.holds, summary.violated, summary.precondition_failed) == (0, 0, 300)
    assert (summary.worst_margin, summary.worst_seed) == (None, None)


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
            bounds._check_sequences(a, b, w, bounds._window_edges([SEQUENCE_WINDOW] * len(rows)))
        assert (type(raised.value), str(raised.value)) == expected, names[start]
    inside = [SEQUENCE_ROWS["inside"], SEQUENCE_ROWS["inside_slack"]]
    edges = bounds._window_edges([SEQUENCE_WINDOW] * 2)
    bounds._check_sequences(*(np.array(c) for c in zip(*inside)), edges)


def test_out_of_window_row_is_isolated_in_its_group():
    # The group's stacked check fails on one row: that row gets the report
    # of its failed hypothesis, the others the reports of their lone
    # evaluation, bit for bit.  The rows are drawn uniforms (_sequence_draw)
    # for n = 4.  In the second, the uniform behind a_seq[2] is -0.5, which
    # puts a_seq[2] below the window by half its width; in the third, the
    # one behind a_seq[3] is 1 + 1e-13, which puts a_seq[3] above the window
    # by less than its slack of at least 1e-12.
    names = ["inside", "beyond_slack_a", "inside_slack", "inside"]
    rows = [harness._sequence_draw(stream(43, i), 4) for i in range(len(names))]
    rows[1][4 + 2] = -0.5
    rows[2][4 + 3] = 1.0 + 1e-13
    entry = bounds._REGISTRY[INT_ADD]
    parts = harness._group_reports(INT_ADD, entry, (np.stack(rows),), DEFAULT_TOL)
    reports = [report for part in parts for report in part.reports()]
    for name, row, report in zip(names, rows, reports):
        edges = harness._windows(row[None, :4], harness.WINDOW_RANGE)
        a, b, w, edges = (c[0] for c in (*harness._sequences(edges, row[None, 4:]), edges))
        assert (a[3] > edges[1]) == (name == "inside_slack")
        try:
            data = WeightedSequences(a, b, w, ScalarWindow(*edges.tolist()))
            expected = bounds._evaluate_one(INT_ADD, data, DEFAULT_TOL)
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
