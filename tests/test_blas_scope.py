"""The scope of the determinism contract across BLAS kernels: a small set
of outputs rerun in a subprocess under OpenBLAS's Prescott kernel
(OPENBLAS_CORETYPE, read when numpy loads OpenBLAS).

The sequence campaigns and compare use no BLAS call on their values
(row sums and the integer Philox), so they stay byte-identical.  Matrix
and functional trials take stacked BLAS products, whose last bits may
move with the kernel: their verdicts stay the same, and their margins
agree within the default band of their verdict scale."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from rcsbounds import GeneratorConfig, bounds, cli, run_trial
from rcsbounds.matalg import DEFAULT_TOL

ROOT = Path(__file__).resolve().parent.parent
SEQUENCE_IDS = [i for i, entry in bounds._REGISTRY.items() if entry.payload == "sequences"]
TRIAL_IDS = [i for i, entry in bounds._REGISTRY.items() if entry.payload != "sequences"]
TRIAL_CONFIG = GeneratorConfig(seed=21, trials=10)


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


def outputs(csv_path: str) -> dict:
    """What the test compares between kernels: the JSON summaries of a
    300-trial campaign of each sequence id, compare --samples 300 with its
    CSV, and the reports of 10 trials of each functional and matrix id."""
    fuzz = {i: _cli(["fuzz", i, "--trials", "300", "--seed", "9", "--json"]) for i in SEQUENCE_IDS}
    summary = _cli(["compare", "--samples", "300", "--seed", "9", "--csv", csv_path])
    trials = {
        i: [run_trial(TRIAL_CONFIG, i, k).to_dict() for k in range(TRIAL_CONFIG.trials)]
        for i in TRIAL_IDS
    }
    return {"fuzz": fuzz, "compare": summary + Path(csv_path).read_text(), "trials": trials}


def test_outputs_under_another_blas_kernel(tmp_path):
    here = outputs(str(tmp_path / "here.csv"))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
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
    there = json.loads(run.stdout)
    assert there["fuzz"] == here["fuzz"]
    assert there["compare"].replace("there.csv", "here.csv") == here["compare"]
    for inequality_id, reports in here["trials"].items():
        for k, (a, b) in enumerate(zip(reports, there["trials"][inequality_id])):
            assert a["verdict"] == b["verdict"], (inequality_id, k)
            if a["margin"] is None or b["margin"] is None:
                assert a["margin"] is b["margin"] is None, (inequality_id, k)
                continue
            band = DEFAULT_TOL.band(max(_scale(a), _scale(b)))
            assert math.isclose(a["margin"], b["margin"], rel_tol=0.0, abs_tol=band), (
                inequality_id, k, a["margin"], b["margin"],
            )
