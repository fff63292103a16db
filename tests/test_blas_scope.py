"""The scope of the determinism contract across BLAS kernels and numpy's
CPU dispatch: a small set of outputs rerun in a subprocess under
OpenBLAS's Prescott kernel (OPENBLAS_CORETYPE, read when numpy loads
OpenBLAS), and under numpy's dispatch with AVX-512 turned off
(NPY_DISABLE_CPU_FEATURES, read when numpy loads).

The sequence campaigns and compare use no BLAS call on their values
(row sums and the integer Philox), so they stay byte-identical.  Matrix
and functional trials take stacked BLAS products, whose last bits may
move with the kernel: their verdicts stay the same, and their margins
agree within the default band of their verdict scale.  Their drawn
instances are uniforms, normals from rng._normals and what the builders
make of them: under another dispatch they stay byte-identical."""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from rcsbounds import GeneratorConfig, bounds, cli, forms, harness, run_trial
from rcsbounds.matalg import DEFAULT_TOL

ROOT = Path(__file__).resolve().parent.parent
SEQUENCE_IDS = [i for i, entry in bounds._REGISTRY.items() if entry.payload == "sequences"]
TRIAL_IDS = [i for i, entry in bounds._REGISTRY.items() if entry.payload != "sequences"]
TRIAL_CONFIG = GeneratorConfig(seed=21, trials=10)
# The OP_PAIR_ADD trials tools/dump_outputs.py writes: with ||v||^4 taken
# by np.power, 12 of them move under the other dispatch.
DUMP_CONFIG = GeneratorConfig(seed=0, trials=200)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}\n"


def _size(value) -> float:
    """The Frobenius norm of an encoded side: a number, or nested lists of
    numbers (complex entries as [re, im] pairs); 0 for None."""
    if isinstance(value, list):
        return math.sqrt(sum(_size(v) ** 2 for v in value))
    return abs(value) if isinstance(value, (int, float)) else 0.0


def _scale(report: dict) -> float:
    """The scale a report's verdict is judged at: the largest of its sides'
    norms, 1, and the products a cancelling lhs is formed from."""
    details = report["details"]
    sizes = [_size(report["lhs"]), _size(report["rhs"])]
    for a, b in (("phi_xx", "phi_yy"), ("norm_tv_sq", "norm_sv_sq")):
        sizes.append(_size(details.get(a)) * _size(details.get(b)))
    return max([1.0, *sizes])


def _bytes(column) -> bytes:
    """The bytes of a batch column: arrays, functionals as their arrays,
    and lists of forms or window pairs as their reprs."""
    if isinstance(column, forms._FunctionalForms):
        return column.kinds.tobytes() + column.states.tobytes() + column.weights.tobytes()
    if isinstance(column, list):
        return repr(column).encode()
    return np.asarray(column).tobytes()


def instances() -> dict:
    """The SHA-256 of the drawn rows and the built batches of the trials of
    TRIAL_CONFIG, per functional and matrix id."""
    digests = {}
    for inequality_id in TRIAL_IDS:
        entry = bounds._REGISTRY[inequality_id]
        restart = functools.partial(harness._restarted, TRIAL_CONFIG, entry.payload)
        digest, window = hashlib.sha256(), list(range(TRIAL_CONFIG.trials))
        for _, columns in harness._draws(TRIAL_CONFIG, entry.payload, window):
            digest.update(columns[0].tobytes())
            for column in harness._batch(entry, columns, DEFAULT_TOL, restart):
                digest.update(_bytes(column))
        digests[inequality_id] = digest.hexdigest()
    return digests


def outputs(csv_path: str) -> dict:
    """What the tests compare between kernels and dispatches: the JSON
    summaries of a 300-trial campaign of each sequence id, compare
    --samples 300 with its CSV, the reports of 10 trials of each
    functional and matrix id and of the DUMP_CONFIG trials of OP_PAIR_ADD,
    and the digests of their instances."""
    fuzz = {i: _cli(["fuzz", i, "--trials", "300", "--seed", "9", "--json"]) for i in SEQUENCE_IDS}
    summary = _cli(["compare", "--samples", "300", "--seed", "9", "--csv", csv_path])
    trials = {
        i: [run_trial(TRIAL_CONFIG, i, k).to_dict() for k in range(TRIAL_CONFIG.trials)]
        for i in TRIAL_IDS
    }
    dumped = harness.run_trials(DUMP_CONFIG, "OP_PAIR_ADD", range(DUMP_CONFIG.trials))
    trials["OP_PAIR_ADD dump"] = [report.to_dict() for report in dumped]
    compared = summary + Path(csv_path).read_text()
    return {"fuzz": fuzz, "compare": compared, "trials": trials, "instances": instances()}


def _elsewhere(tmp_path, **settings) -> tuple[dict, dict]:
    """outputs() here, and in a subprocess with the environment settings."""
    here = outputs(str(tmp_path / "here.csv"))
    env = dict(os.environ, **settings)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    code = (
        "import json, sys, test_blas_scope as t; "
        f"print(json.dumps(t.outputs({str(tmp_path / 'there.csv')!r})))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return here, json.loads(run.stdout)


def _same_verdict(a: dict, b: dict, where) -> None:
    """Two reports' verdicts equal, and their margins within the default
    band of their verdict scale."""
    assert a["verdict"] == b["verdict"], where
    if a["margin"] is None or b["margin"] is None:
        assert a["margin"] is b["margin"] is None, where
        return
    band = DEFAULT_TOL.band(max(_scale(a), _scale(b)))
    assert math.isclose(a["margin"], b["margin"], rel_tol=0.0, abs_tol=band), (
        where, a["margin"], b["margin"],
    )


def _same_verdicts(here: dict, there: dict) -> None:
    """The sequence outputs byte-identical, and each trial's verdict equal
    and its margin within the default band of its verdict scale."""
    assert there["fuzz"] == here["fuzz"]
    assert there["compare"].replace("there.csv", "here.csv") == here["compare"]
    for inequality_id, reports in here["trials"].items():
        for k, (a, b) in enumerate(zip(reports, there["trials"][inequality_id])):
            _same_verdict(a, b, (inequality_id, k))


def test_outputs_under_another_blas_kernel(tmp_path):
    _same_verdicts(*_elsewhere(tmp_path, OPENBLAS_CORETYPE="Prescott"))


def test_outputs_under_another_cpu_dispatch(tmp_path):
    # No operation on the way to a report depends on numpy's dispatch, so
    # every instance and every report is byte-identical.
    here, there = _elsewhere(tmp_path, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert there["instances"] == here["instances"]
    _same_verdicts(here, there)
    for inequality_id, reports in here["trials"].items():
        for k, (a, b) in enumerate(zip(reports, there["trials"][inequality_id])):
            assert json.dumps(a) == json.dumps(b), (inequality_id, k)


def test_cold_solves_give_the_campaign_verdicts():
    # A campaign starts each report's first eigensolve in the unitaries its
    # pair was built in; the same instance without them, as the library
    # functions and a verify file without a basis evaluate it, starts cold.
    # The two give the same verdicts, and margins within the default band.
    for inequality_id in ("ADD_MATRIX", "MULT_MATRIX", "OP_PAIR_ADD", "OP_PAIR_MULT"):
        entry = bounds._REGISTRY[inequality_id]
        for d in (2, 4, 8, 16):
            config = GeneratorConfig(seed=23, trials=6, dims=(d,))
            window = list(range(config.trials))
            campaign = harness.run_trials(config, inequality_id, window)
            restart = functools.partial(harness._restarted, config, entry.payload)
            for members, columns in harness._draws(config, entry.payload, window):
                *instances, basis = harness._batch(entry, columns, DEFAULT_TOL, restart)
                assert basis.shape == (len(members), d, d)
                for k, i in enumerate(members.tolist()):
                    lone = [column[k] for column in instances]
                    if entry.payload == "form":  # its window row as an OmegaPair
                        lone[3] = forms.OmegaPair(*lone[3].tolist())
                    cold = bounds._evaluate_one(inequality_id, lone, DEFAULT_TOL)
                    _same_verdict(campaign[i].to_dict(), cold.to_dict(), (inequality_id, d, i))
