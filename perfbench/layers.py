"""Per-layer metrics: span shares of the workload, and fixed layer probes.

Shares and per-trial counts describe the workload's own traced pass.  A
"trial" there is one top-level ``bounds`` evaluation: a fuzz trial or a
compare row.

Per-call costs and per-id figures come from probes that are the same on
every workload, so every layer is measured on every workload:

* the id probe runs a short campaign for each of the 13 ids, untraced for
  ms/trial and traced for call counts and per-call costs, and checks the
  eigensolves per trial against the reference counts exactly.  A matrix
  id runs one campaign per default d with equal trial counts, so its
  ms/trial does not depend on which dimensions the seed draws;
* the kernel probe times ``eig_hermitian`` at each supported size class
  and, with the traced samples, checks its eigenvalues against numpy;
* the import probe reads ``python -X importtime``;
* the command probe times each CLI command in-process, without start-up.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from spans import SpanTable, Tracer
from workloads import (
    DEFAULT_DIMS,
    FUNCTIONAL_IDS,
    MATRIX_IDS,
    ROOT,
    SCALAR_IDS,
    SEQUENCE_IDS,
    Tally,
    child_env,
    compare_command,
    fuzz_command,
    oneshot_commands,
    round_seed,
    run_check,
    run_command,
)

ALL_IDS = MATRIX_IDS + SCALAR_IDS

# Eigensolves per trial when the benchmark was written (the ROADMAP
# Baseline).  The traced run prints whether its counts still match; a
# change that saves eigensolves moves them on purpose, so a difference is
# reported, not failed.
REFERENCE_EIGENSOLVES = {
    "ADD_MATRIX": 8,
    "MULT_MATRIX": 9,
    "OP_PAIR_ADD": 13,
    "OP_PAIR_MULT": 13,
    **{i: 2 for i in FUNCTIONAL_IDS},
    **{i: 0 for i in SEQUENCE_IDS},
}

FAMILIES = ("matrix", "op_pair", "functional", "sequence")
ID_FAMILY = {
    "ADD_MATRIX": "matrix",
    "MULT_MATRIX": "matrix",
    "OP_PAIR_ADD": "op_pair",
    "OP_PAIR_MULT": "op_pair",
    **{i: "functional" for i in FUNCTIONAL_IDS},
    **{i: "sequence" for i in SEQUENCE_IDS},
}
GENERATORS = (
    "harness.gen_re_valid_instance",
    "harness.gen_commuting_positive_pair",
    "harness.gen_bounded_sequences",
    "harness.sample_window",
)

# Trials per campaign: matrix ids run one campaign per default d.
ID_PROBE_TRIALS = {**{i: 16 for i in MATRIX_IDS}, **{i: 150 for i in SCALAR_IDS}}
KERNEL_PROBE_CALLS = {1: 200, 2: 200, 4: 60, 8: 30, 16: 10}
EIG_ERR_LIMIT = 1e-12
COMPLETENESS_TRIALS = 2
IMPORT_PROBE_RUNS = 3
COMMAND_PROBE_RUNS = 5
COMMAND_PROBE_SAMPLES = 1000

SHARE_NAMES = {
    "matalg.eig_hermitian.self_share": ("matalg.eig_hermitian",),
    "forms.form_eval.self_share": ("forms.form_eval",),
    "harness.run_trial.self_share": ("harness.run_trial",),
    "harness.aggregate.self_share": ("harness.fuzz_run",),
    "rng.stream.self_share": ("rng.stream",),
    "cli.main.self_share": ("cli.main",),
}
LAYER_SHARES = ("matalg", "forms", "bounds", "harness")
PER_TRIAL = (
    "matalg.eig_hermitian",
    "matalg.sqrt_psd",
    "matalg.loewner_leq",
    "forms.form_eval",
    "forms.omega_from_spectra",
    "forms.check_re_condition",
)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _enclosing(table: SpanTable, name: str) -> np.ndarray:
    """For each span, the index of the nearest enclosing span called name, or -1."""
    owner = np.full(len(table), -1, dtype=np.int64)
    for i, (n, p) in enumerate(zip(table.names, table.parent)):
        if n == name:
            owner[i] = i
        elif p >= 0:
            owner[i] = owner[p]
    return owner


def _top_level_bounds(table: SpanTable) -> np.ndarray:
    """Indices of bounds spans with no bounds span above them: one per report."""
    inside = np.zeros(len(table), dtype=bool)
    top = []
    for i, (n, p) in enumerate(zip(table.names, table.parent)):
        is_bounds = n.startswith("bounds.")
        above = p >= 0 and inside[p]
        if is_bounds and not above:
            top.append(i)
        inside[i] = is_bounds or above
    return np.array(top, dtype=np.int64)


def workload_metrics(table: SpanTable) -> dict:
    """Self-time shares and per-trial call counts of the workload pass."""
    total = float(table.duration[table.roots()].sum())
    metrics = {}
    for metric, names in SHARE_NAMES.items():
        idx = table.indices(lambda n: n in names)
        metrics[metric] = (float(table.self_time[idx].sum()) / total, "share")
    for layer in LAYER_SHARES:
        metrics[f"{layer}.self_share"] = (
            float(table.self_time[table.layer(layer)].sum()) / total,
            "share",
        )
    trials = max(len(_top_level_bounds(table)), 1)
    for name in PER_TRIAL:
        metrics[f"{name}.calls_per_trial"] = (len(table.named(name)) / trials, "calls/trial")
    return metrics


def tracer_completeness(seed: int, tally: Tally) -> None:
    """Fail an id when a public layer call escaped the tracer's wrappers."""
    from rcsbounds import harness

    for k, inequality_id in enumerate(ALL_IDS):
        config = harness.GeneratorConfig(seed=round_seed(seed, 1_500_000 + k), trials=COMPLETENESS_TRIALS)
        tracer = Tracer()
        with tracer.installed(), tracer.profiled_calls() as profiled:
            for i in range(COMPLETENESS_TRIALS):
                harness.run_trial(config, inequality_id, i)
        spanned = Counter(span[0] for span in tracer.spans)
        missed = {name: n - spanned[name] for name, n in profiled.items() if n != spanned[name]}
        tally.count(
            f"tracer completeness {inequality_id}",
            [f"calls not seen by the tracer: {missed}"] if missed else [],
        )


def id_probe(seed: int, tally: Tally, tracer: Tracer) -> dict:
    """Per-id campaigns: ms/trial untraced, then counts and costs traced."""
    metrics = {}
    for k, inequality_id in enumerate(ALL_IDS):
        trials = ID_PROBE_TRIALS[inequality_id]
        campaign_seed = round_seed(seed, 1_000_000 + k)
        if inequality_id in MATRIX_IDS:
            commands = [fuzz_command(inequality_id, trials, campaign_seed, (d,)) for d in DEFAULT_DIMS]
        else:
            commands = [fuzz_command(inequality_id, trials, campaign_seed)]
        seconds = 0.0
        for command in commands:
            what = " ".join(command.argv)
            outcome = run_command(command)
            tally.count(what, run_check(command.check, outcome))
            seconds += outcome.seconds
            outcome = run_command(command, tracer)
            tally.count("traced " + what, run_check(command.check, outcome))
        metrics[f"harness.fuzz_run.ms_per_trial.{inequality_id}"] = (
            1e3 * seconds / (trials * len(commands)),
            "ms",
        )
    table = SpanTable(tracer.spans)

    trial_of = _enclosing(table, "harness.run_trial")
    eig = table.named("matalg.eig_hermitian")
    trials = table.named("harness.run_trial")
    per_trial = np.bincount(trial_of[eig][trial_of[eig] >= 0], minlength=len(table))
    drift = []
    for inequality_id in ALL_IDS:
        counts = per_trial[[t for t in trials if table.attrs[t] == inequality_id]]
        mean = float(counts.mean()) if len(counts) else 0.0
        metrics[f"matalg.eig_hermitian.calls_per_trial.{inequality_id}"] = (mean, "calls/trial")
        if len(counts) == 0 or np.any(counts != REFERENCE_EIGENSOLVES[inequality_id]):
            drift.append(f"{inequality_id} {mean:g} (reference {REFERENCE_EIGENSOLVES[inequality_id]})")
    print("eigensolves per trial " + ("differ from the reference: " + ", ".join(drift) if drift else "match the reference counts"))
    tracer_completeness(seed, tally)

    for name in ("matalg.sqrt_psd", "matalg.loewner_leq"):
        metrics[f"{name}.self_us_p50"] = (_median(table.self_time[table.named(name)]) / 1e3, "us")

    top = _top_level_bounds(table)
    top_trial = trial_of[top]
    children = table.children()
    for family in FAMILIES:
        evaluations = [
            b for b, t in zip(top, top_trial) if t >= 0 and ID_FAMILY[table.attrs[t]] == family
        ]
        metrics[f"bounds.evaluate.ms_p50.{family}"] = (
            _median(table.duration[evaluations]) / 1e6,
            "ms",
        )
        generate = [
            sum(table.duration[c] for c in children[t] if table.names[c] in GENERATORS)
            for t in trials
            if ID_FAMILY[table.attrs[t]] == family
        ]
        metrics[f"harness.generate.ms_p50.{family}"] = (_median(generate) / 1e6, "ms")

    functional = [
        i
        for i in table.named("harness.gen_re_valid_instance")
        if table.attrs[i] == "functional"
    ]
    attempts = sum(
        1 for i in functional for c in children[i] if table.names[c] == "forms.check_re_condition"
    )
    metrics["harness.gen.accept_ratio"] = (len(functional) / max(attempts, 1), "ratio")
    return metrics


def _random_hermitian(d: int, g: np.random.Generator) -> np.ndarray:
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


def _eig_error(a: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Largest eigenvalue error against numpy's eigvalsh, relative to ||a||_F."""
    h = (a + a.conj().T) / 2.0
    oracle = np.linalg.eigvalsh(h)
    return float(np.max(np.abs(np.sort(eigenvalues) - oracle)) / max(np.linalg.norm(h), 1e-300))


def kernel_probe(seed: int, tally: Tally, samples: list) -> dict:
    """eig_hermitian per size class, and its accuracy on every sampled input."""
    from rcsbounds import matalg

    g = np.random.default_rng(round_seed(seed, 2_000_000))
    metrics = {}
    checked = list(samples)
    for d, calls in KERNEL_PROBE_CALLS.items():
        times = []
        for _ in range(calls):
            a = _random_hermitian(d, g)
            start = time.perf_counter_ns()
            dec = matalg.eig_hermitian(a)
            times.append(time.perf_counter_ns() - start)
            checked.append((a, dec.eigenvalues))
        metrics[f"matalg.eig_hermitian.us_p50.d{d}"] = (_median(times) / 1e3, "us")
    worst = 0.0
    for a, eigenvalues in checked:
        err = _eig_error(a, eigenvalues)
        worst = max(worst, err)
        tally.count(
            f"eig_hermitian d={a.shape[0]}",
            [f"relative eigenvalue error {err:.3e}"] if err > EIG_ERR_LIMIT else [],
        )
    metrics["matalg.eig_hermitian.max_eig_err"] = (worst, "rel")
    return metrics


def _import_times() -> dict:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rcsbounds.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name in ("numpy", "jsonschema", "rcsbounds.cli"):
                cumulative[name] = int(parts[1]) / 1e3
    # The rcsbounds.cli entry includes everything it pulls in, numpy and
    # jsonschema among them; "rcsbounds" is the rest.
    total = cumulative["rcsbounds.cli"]
    return {
        "numpy": cumulative["numpy"],
        "jsonschema": cumulative.get("jsonschema", 0.0),
        "rcsbounds": total - cumulative["numpy"] - cumulative.get("jsonschema", 0.0),
        "total": total,
    }


def import_probe() -> dict:
    runs = [_import_times() for _ in range(IMPORT_PROBE_RUNS)]
    return {f"cli.import_ms.{k}": (_median([r[k] for r in runs]), "ms") for k in runs[0]}


def command_probe(seed: int, tally: Tally) -> dict:
    """In-process cli.main time per command: the part of a call that is not start-up.

    One more pass of the one-shot commands runs traced, for the share of
    their time spent in jsonio (decoding instances, encoding reports).
    """
    times = defaultdict(list)
    for r in range(COMMAND_PROBE_RUNS):
        probe_seed = round_seed(seed, 3_000_000 + r)
        for command in oneshot_commands(probe_seed) + [compare_command(COMMAND_PROBE_SAMPLES, probe_seed)]:
            outcome = run_command(command)
            tally.count(" ".join(command.argv), run_check(command.check, outcome))
            name = "fuzz_replay" if command.argv[0] == "fuzz" else command.argv[0]
            times[name].append(outcome.seconds * 1e3)
    metrics = {f"cli.main.ms_inproc.{k}": (_median(v), "ms") for k, v in times.items()}
    tracer = Tracer()
    for command in oneshot_commands(round_seed(seed, 3_000_000 + COMMAND_PROBE_RUNS)):
        outcome = run_command(command, tracer)
        tally.count("traced " + " ".join(command.argv), run_check(command.check, outcome))
    table = SpanTable(tracer.spans)
    metrics["jsonio.self_share.oneshot"] = (
        float(table.self_time[table.layer("jsonio")].sum() / table.duration[table.roots()].sum()),
        "share",
    )
    return metrics
