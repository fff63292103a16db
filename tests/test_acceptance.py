"""Acceptance checklist: every shipped guarantee, one test and one line each.

Run with -s to see the line per criterion:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from rcsbounds import (
    ADD_MATRIX,
    HOLDS,
    MULT_MATRIX,
    PRECONDITION_FAILED,
    FuzzSummary,
    GeneratorConfig,
    OmegaPair,
    PositiveFunctional,
    ScalarWindow,
    WeightedSequences,
    additive_matrix_bound,
    eig_hermitian,
    frobenius,
    fuzz_run,
    gen_argmin_families,
    gen_bounded_sequences,
    gen_re_valid_instance,
    greub_rheinboldt,
    integral_bounds,
    operator_pair_bounds,
    polya_szego_improved,
    polya_szego_multiplicative,
    run_trial,
    sample_window,
    sharpness_witness,
    sqrt_psd,
)
from rcsbounds import bounds, cli, harness
from rcsbounds.bounds import PS_ADD, PS_IMPROVED
from rcsbounds.matalg import DEFAULT_TOL
from rcsbounds.rng import stream

ACCEPTANCE_DIMS = (1, 2, 4, 8, 16)


def _line(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _unit_weight_data(seed: int, index: int, n_choices=(4, 8, 16)) -> WeightedSequences:
    g = stream(seed, index)
    window = sample_window(g, (0.1, 10.0))
    n = int(g.choice(np.asarray(n_choices)))
    data = gen_bounded_sequences(n, window, g)
    return replace(data, w_seq=np.ones(n))


def _weighted_data(seed: int, index: int) -> WeightedSequences:
    g = stream(seed, index)
    window = sample_window(g, (0.1, 10.0))
    n = int(g.choice(np.asarray([4, 8, 16])))
    return gen_bounded_sequences(n, window, g)


def test_kernel_residuals():
    start = time.monotonic()
    worst_eig = 0.0
    worst_sqrt = 0.0
    for i in range(200):
        g = stream(9001, i)
        d = ACCEPTANCE_DIMS[i % len(ACCEPTANCE_DIMS)]
        z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        a = z @ z.conj().T
        norm = float(np.linalg.norm(a))
        recon = eig_hermitian(a).reconstruct()
        worst_eig = max(worst_eig, float(np.linalg.norm(recon - a)) / max(norm, 1e-300))
        root = sqrt_psd(a)
        resid = float(np.linalg.norm(root @ root - a)) / max(norm, 1.0)
        worst_sqrt = max(worst_sqrt, resid)
    elapsed = time.monotonic() - start
    ok = worst_eig <= 1e-10 and worst_sqrt <= 1e-10 and elapsed < 10.0
    _line(
        "kernel residuals",
        ok,
        f"eig {worst_eig:.2e}, sqrt {worst_sqrt:.2e}, {elapsed:.1f}s over 200 matrices",
    )
    assert ok


def test_additive_matrix_fuzz():
    start = time.monotonic()
    summary = fuzz_run(GeneratorConfig(seed=42, trials=1000), ADD_MATRIX)
    elapsed = time.monotonic() - start
    ok = (
        summary.holds == 1000
        and summary.violated == 0
        and summary.precondition_failed == 0
        and summary.worst_margin >= -1e-9
        and elapsed < 30.0
    )
    _line(
        "additive matrix fuzz",
        ok,
        f"1000 trials, {summary.violated} violations, worst {summary.worst_margin:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_multiplicative_matrix_fuzz():
    start = time.monotonic()
    summary = fuzz_run(GeneratorConfig(seed=42, trials=1000), MULT_MATRIX)
    elapsed = time.monotonic() - start
    ok = (
        summary.holds == 1000
        and summary.violated == 0
        and summary.precondition_failed == 0
        and summary.worst_margin >= -1e-9
        and elapsed < 30.0
    )
    _line(
        "multiplicative matrix fuzz",
        ok,
        f"1000 trials, {summary.violated} violations, worst {summary.worst_margin:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_sharpness_ratio():
    worst = 0.0
    for i in range(100):
        g = stream(9004, i)
        d = int(g.choice([2, 3, 4, 8]))
        kind = i % 3
        if kind == 0:
            state = g.standard_normal(d) + 1j * g.standard_normal(d)
            phi = PositiveFunctional.vector_state(state / np.linalg.norm(state))
        elif kind == 1:
            phi = PositiveFunctional.trace(d)
        else:
            phi = PositiveFunctional.weighted_sum(g.uniform(0.2, 2.0, size=d))
        y = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        omega = complex(g.uniform(-2.0, 2.0), g.uniform(-2.0, 2.0))
        delta = complex(g.uniform(0.5, 3.0), g.uniform(-1.0, 1.0))
        result = sharpness_witness(phi, y, OmegaPair(omega, omega + delta))
        worst = max(worst, abs(result.ratio - 0.25))

    # hand instance: phi the first-coordinate state, y = (1, 0), window
    # (1, 3); the witness is x = (2, 1) with z = (0, 1), both sides 1.
    phi = PositiveFunctional.vector_state(np.array([1.0, 0.0]))
    hand = sharpness_witness(phi, np.array([1.0, 0.0]), OmegaPair(1.0, 3.0))
    hand_ok = (
        hand.report.lhs == 1.0
        and hand.report.rhs == 1.0
        and hand.ratio == 0.25
        and np.allclose(hand.x, [2.0, 1.0])
        and np.allclose(hand.z, [0.0, 1.0])
    )
    ok = worst <= 1e-12 and hand_ok
    _line(
        "sharpness ratio",
        ok,
        f"100 instances, worst |ratio - 1/4| {worst:.2e}, hand instance lhs=rhs={hand.report.lhs}",
    )
    assert ok


def test_operator_pair_hand_instance():
    res = operator_pair_bounds(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), [1.0, 1.0])
    add, mult = res.additive, res.multiplicative
    dual_ok = True
    for rep in (add, mult):
        scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
        dual_ok &= abs(rep.lhs - rep.details["closed_form_lhs"]) <= 1e-12 * scale
        dual_ok &= abs(rep.rhs - rep.details["closed_form_rhs"]) <= 1e-12 * scale
    ok = (
        abs(add.lhs - 9.0) <= 1e-12
        and abs(add.rhs - 14.0625) <= 1e-12
        and add.verdict == HOLDS
        and abs(mult.lhs - 5.0) <= 1e-12
        and abs(mult.rhs - 5.0) <= 1e-12
        and dual_ok
    )
    _line(
        "operator pair hand instance",
        ok,
        f"additive {add.lhs:g} <= {add.rhs:g}, multiplicative {mult.lhs:g} = {mult.rhs:g}, dual routes agree",
    )
    assert ok


def test_constant_selection(capsys):
    argmins = {}
    for name, family in gen_argmin_families(2):
        argmins[name] = polya_szego_improved(family).argmin
    family_ok = argmins == {"family_c2": 2, "family_c1": 1, "family_c3": 3}

    pinned_family = polya_szego_improved(
        WeightedSequences(
            np.array([2.0, 2.0]),
            np.array([0.5, 0.5]),
            np.ones(2),
            ScalarWindow(1.0, 2.0, 0.5, 0.5),
        )
    )
    constants_ok = tuple(round(c, 12) for c in pinned_family.constants) == (1.0, 0.25, 0.5)

    code = cli.main(["compare", "--samples", "10000", "--json"])
    payload = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        counts = payload["argmin_counts"]
        all_three = all(counts[k] >= 1 for k in ("1", "2", "3"))
        ok = family_ok and constants_ok and code == 0 and all_three
        _line(
            "constant selection",
            ok,
            f"pinned family constants {pinned_family.constants}, argmin counts {counts} over {payload['samples']} samples",
        )
    assert ok


def _unit_weight_batches(seed: int, count: int, n_choices=(4, 8, 16)) -> dict:
    """The instances _unit_weight_data(seed, i) gives for i < count, by
    length n: (indices, the "sequences" batch (a_seq, b_seq, w_seq, edges)).
    Each draws its window's and sequences' uniforms from its stream as
    sample_window and gen_bounded_sequences draw them, and the campaigns'
    stacked builders turn them into the same windows and sequences."""
    rows: dict = {}
    for i in range(count):
        g = stream(seed, i)
        u = g.random(4)
        n = int(g.choice(np.asarray(n_choices)))
        rows.setdefault(n, []).append((i, u, g.random(3 * n)))
    batches = {}
    for n, members in rows.items():
        indices, u_window, u_sequences = zip(*members)
        edges = harness._windows(np.stack(u_window), (0.1, 10.0))
        a_seq, b_seq, w_seq = harness._sequences(edges, np.stack(u_sequences))
        batches[n] = indices, (a_seq, b_seq, np.ones_like(w_seq), edges)
    return batches


def test_improvement_property():
    # The refined bound's rhs never exceeds the classical one, row by row
    # over 10,000 instances evaluated as PS_IMPROVED and PS_ADD batches; a
    # row of a batch is the lone polya_szego_improved call bit for bit.
    exceptions = 0
    worst_gap = 0.0
    checked = 0
    for indices, batch in _unit_weight_batches(9007, 10000).values():
        improved, classical = (
            bounds._REGISTRY[i].evaluate(batch, DEFAULT_TOL) for i in (PS_IMPROVED, PS_ADD)
        )
        gap = improved.rhs - classical.rhs
        exceptions += int(np.count_nonzero(gap > 0.0))
        worst_gap = max(worst_gap, float(np.max(gap, initial=0.0)))
        rows = improved.reports()
        for k, i in enumerate(indices):
            if i % 100 == 0:
                lone = polya_szego_improved(_unit_weight_data(9007, i))
                assert json.dumps(lone.report.to_dict()) == json.dumps(rows[k].to_dict()), i
                assert lone.classical_additive.rhs == classical.rhs[k], i
                checked += 1
    assert checked == 100
    ok = exceptions == 0
    _line(
        "improvement property",
        ok,
        f"10000 trials, {exceptions} exceptions, worst overshoot {worst_gap:.2e}",
    )
    assert ok


def test_specialization_identities():
    bit_equal = True
    margin_dev = 0.0
    for i in range(200):
        unit = _unit_weight_data(9008, i)
        gr = greub_rheinboldt(unit)
        ps = polya_szego_multiplicative(unit)
        bit_equal &= gr.lhs == ps.lhs and gr.rhs == ps.rhs and gr.margin == ps.margin

        weighted = _weighted_data(9009, i)
        grw = greub_rheinboldt(weighted)
        via_sq = grw.details["margin_via_squared_multiplicative"]
        scale = max(abs(grw.margin), 1.0)
        margin_dev = max(margin_dev, abs(grw.margin - via_sq) / scale)

    equality = greub_rheinboldt(
        WeightedSequences(
            np.array([1.0, 2.0]),
            np.array([2.0, 1.0]),
            np.ones(2),
            ScalarWindow(1.0, 2.0, 1.0, 2.0),
        )
    )
    equality_ok = equality.lhs == 25.0 and equality.rhs == 25.0
    ok = bit_equal and margin_dev <= 1e-12 and equality_ok
    _line(
        "specialization identities",
        ok,
        f"unit-weight bit equality {bit_equal}, squared-route margin dev {margin_dev:.2e}, equality {equality.lhs:g} = {equality.rhs:g}",
    )
    assert ok


def test_invariance_suites():
    # The margin is an eigenvalue of rhs - lhs, so "relative" means
    # normalized by the size of the sides, which scaling leaves fixed.
    worst_scale = 0.0
    for i in range(200):
        g = stream(9010, i)
        d = int(g.choice([1, 2, 4]))
        form, x, y, pair = gen_re_valid_instance("module", d, g)
        lam = float(g.uniform(0.2, 5.0))
        base = additive_matrix_bound(form, x, y, pair)
        scaled = additive_matrix_bound(
            form, lam * x, y, OmegaPair(lam * pair.omega, lam * pair.Omega)
        )
        ref = max(
            frobenius(np.asarray(base.rhs)), frobenius(np.asarray(base.lhs)), 1.0
        )
        worst_scale = max(worst_scale, abs(scaled.margin / lam**2 - base.margin) / ref)

    worst_measure = 0.0
    for i in range(200):
        data = _weighted_data(9011, i)
        c = float(stream(9012, i).uniform(0.2, 5.0))
        rescaled = replace(data, w_seq=c * data.w_seq)
        base = integral_bounds(data)
        two = integral_bounds(rescaled)
        ref_a = max(abs(base.additive.margin), 1.0)
        ref_m = max(abs(base.multiplicative.margin), 1.0)
        worst_measure = max(
            worst_measure,
            abs(two.additive.margin / c**2 - base.additive.margin) / ref_a,
            abs(two.multiplicative.margin / c - base.multiplicative.margin) / ref_m,
        )
    ok = worst_scale <= 1e-10 and worst_measure <= 1e-10
    _line(
        "invariance suites",
        ok,
        f"200 trials each: window scaling dev {worst_scale:.2e}, measure scaling dev {worst_measure:.2e}",
    )
    assert ok


def test_determinism():
    config = GeneratorConfig(seed=42, trials=1000)
    first = fuzz_run(config, ADD_MATRIX)
    second = fuzz_run(config, ADD_MATRIX)
    repeat_ok = first == second

    # Re-run every trial in shuffled order across worker threads and
    # aggregate with the same order-free rule; the summary must match.
    indices = list(range(config.trials))
    random.Random(7).shuffle(indices)

    def one(i: int):
        return i, run_trial(config, ADD_MATRIX, i)

    holds = violated = precondition_failed = 0
    worst = None
    with ThreadPoolExecutor(max_workers=4) as pool:
        for i, report in pool.map(one, indices):
            if report.verdict == PRECONDITION_FAILED:
                precondition_failed += 1
                continue
            if report.verdict == HOLDS:
                holds += 1
            else:
                violated += 1
            candidate = (report.margin, i)
            if worst is None or candidate < worst:
                worst = candidate
    parallel = FuzzSummary(
        inequality_id=ADD_MATRIX,
        seed=config.seed,
        trials_run=config.trials,
        holds=holds,
        violated=violated,
        precondition_failed=precondition_failed,
        worst_margin=None if worst is None else worst[0],
        worst_seed=None if worst is None else worst[1],
    )
    parallel_ok = parallel == first
    ok = repeat_ok and parallel_ok
    _line(
        "determinism",
        ok,
        f"repeat bit-identical {repeat_ok}, shuffled parallel aggregation identical {parallel_ok}",
    )
    assert ok
