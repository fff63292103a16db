"""Command-line behavior, exercised in-process through cli.main."""

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsbounds import (
    GeneratorConfig,
    bounds,
    cli,
    fuzz_run,
    gen_argmin_families,
    gen_bounded_sequences,
    gen_re_valid_instance,
    harness,
    jsonio,
    polya_szego_improved,
    run_trial,
    sample_window,
)
from rcsbounds.harness import WINDOW_RANGE
from rcsbounds.matalg import KernelError, NoConvergenceError
from rcsbounds.rng import stream

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "docs", "instances")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def matrix_doc(omega=(2.0, 0.0), Omega=(3.0, 0.0), target="ADD_MATRIX"):
    return {
        "version": "1",
        "target": target,
        "form": {"kind": "module_form", "algebra_dim": 2, "space_dim": 2},
        "x": [[[2, 0], [0, 0]], [[0, 0], [3, 0]]],
        "y": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "omega_pair": {"omega": list(omega), "Omega": list(Omega)},
    }


@pytest.mark.parametrize(
    "name",
    [
        "additive_matrix_diagonal.json",
        "functional_trace_sharp.json",
        "gram_tensor_diagonal.json",
        "operator_pair_swap.json",
        "refined_constants_family.json",
    ],
)
def test_verify_shipped_instances(capsys, name):
    code, out, _ = run(capsys, "verify", os.path.join(INSTANCES, name))
    assert code == 0
    assert "HOLDS" in out


def test_verify_json_output(capsys, tmp_path):
    path = write_instance(tmp_path, matrix_doc())
    code, out, _ = run(capsys, "verify", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["inequality_id"] == "ADD_MATRIX"
    assert doc["verdict"] == "HOLDS"
    assert isinstance(doc["margin"], float)
    assert {"lhs", "rhs", "preconditions", "details"} <= doc.keys()


def test_verify_precondition_exit_code(capsys, tmp_path):
    # x = diag(2, 3) sits outside the degenerate window [1, 1], so the
    # Re hypothesis fails and the verdict maps to exit code 3.
    path = write_instance(tmp_path, matrix_doc(omega=(1.0, 0.0), Omega=(1.0, 0.0)))
    code, out, _ = run(capsys, "verify", path)
    assert code == 3
    assert "PRECONDITION_FAILED" in out


def precondition_failed(capsys, argv, check):
    """Run argv, which must end in a named PRECONDITION_FAILED report: exit
    3 and nothing on stderr, as a table and as one JSON document with
    --json.  Returns the JSON report."""
    code, out, err = run(capsys, *argv)
    assert code == 3 and err == ""
    assert "verdict:    PRECONDITION_FAILED" in out and f"  {check}: FAIL" in out
    code, out, err = run(capsys, *argv, "--json")
    assert code == 3 and err == ""
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["verdict"] == "PRECONDITION_FAILED"
    assert [(p["name"], p["passed"]) for p in report["preconditions"]] == [(check, False)]
    return report


def test_verify_nonpositive_window_product(capsys, tmp_path):
    doc = matrix_doc(omega=(-1.0, 0.0), Omega=(1.0, 0.0), target="MULT_MATRIX")
    path = write_instance(tmp_path, doc)
    report = precondition_failed(capsys, ["verify", path], "re_cross_positive")
    assert report["inequality_id"] == "MULT_MATRIX"
    assert report["details"]["error"] == "NonPositiveReOmegaError"
    assert "Re(conj(omega) * Omega)" in report["details"]["message"]


@pytest.mark.parametrize("entry_point", ["verify", "replay"])
def test_raised_precondition_table_says_not_evaluated(capsys, tmp_path, entry_point):
    # A raised hypothesis failure has no sides, margin or check value: the
    # table says so instead of printing nan, and the JSON has null.
    if entry_point == "verify":
        doc = matrix_doc(omega=(-1.0, 0.0), Omega=(1.0, 0.0), target="MULT_MATRIX")
        argv = ["verify", write_instance(tmp_path, doc)]
    else:
        strict = ["--tol-rtol", "3e-17", "--tol-atol", "3e-17"]
        argv = ["fuzz", "ADD_MATRIX", "--dims", "2", "--trials", "30", "--seed", "4", *strict]
        argv += ["--replay", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 3 and err == ""
    assert "nan" not in out
    for label in ("lhs:        ", "rhs:        ", "margin:     "):
        assert f"{label}not evaluated" in out.splitlines()
    assert ": FAIL (not evaluated)" in out
    code, out, _ = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert report["lhs"] is report["rhs"] is report["margin"] is None
    assert report["preconditions"][0]["value"] is None


def test_verify_sequences_outside_window(capsys, tmp_path):
    with open(os.path.join(INSTANCES, "refined_constants_family.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["sequences"]["a_seq"][0] = 100.0
    path = write_instance(tmp_path, doc)
    report = precondition_failed(capsys, ["verify", path], "sequences_in_window")
    assert report["details"]["error"] == "WindowViolationError"
    assert "a_seq leaves the window" in report["details"]["message"]


def test_lone_sequence_instance_is_checked_once(capsys, monkeypatch):
    # WeightedSequences checks its data when it is made; the evaluator does
    # not check the batch of one again.
    calls = []
    checked = bounds._check_sequences

    def counted(*args):
        calls.append(len(args[0]))
        return checked(*args)

    monkeypatch.setattr(bounds, "_check_sequences", counted)
    code, out, _ = run(capsys, "verify", os.path.join(INSTANCES, "refined_constants_family.json"))
    assert code == 0 and "HOLDS" in out
    assert calls == [1]


SEQUENCE_IDS = [i for i, entry in bounds._REGISTRY.items() if entry.payload == "sequences"]


def sequences_doc(target, a_seq, b_seq):
    """A unit-weights sequences instance on the window its data span."""
    window = {"a": min(a_seq), "A": max(a_seq), "b": min(b_seq), "B": max(b_seq)}
    doc = {
        "version": "1",
        "target": target,
        "sequences": {"a_seq": a_seq, "b_seq": b_seq, "w_seq": [1.0] * len(a_seq)},
    }
    doc["sequences"]["window"] = window
    return doc


@pytest.mark.parametrize(
    "target, a_seq, b_seq",
    [
        # sqrt(sum a^2) is inf: HOLDS with margin -inf before.
        ("INT_MULT", [1e200, 2e200], [1.0, 2.0]),
        # A * B and the sums are inf: VIOLATED with NaN sides before.
        ("INT_ADD", [1e160, 1.5e160], [1e160, 2e160]),
        # sum a^2 overflows while every window constant stays finite.
        *((target, [1e155, 2e155], [1e-10, 2e-10]) for target in SEQUENCE_IDS),
    ],
)
def test_overflowing_scalar_sides_are_an_error(capsys, tmp_path, target, a_seq, b_seq):
    path = write_instance(tmp_path, sequences_doc(target, a_seq, b_seq))
    code, out, err = run(capsys, "verify", path)
    one_line_error(code, out, err, 1)
    assert f"$: target {target}: {target} values overflow the double range" in err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_non_finite_window_bound(capsys, tmp_path, bad):
    with open(os.path.join(INSTANCES, "refined_constants_family.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["sequences"]["window"]["A"] = bad
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 1)
    assert "$.sequences.window.A: must be finite" in err


def test_verify_value_errors_name_the_key_holding_the_value(capsys, tmp_path):
    # A window whose spread squares past the double range is an error at
    # $.omega_pair; an evaluator's value error is reported at $ with the
    # target, never at a key that does not hold the value.
    doc = matrix_doc(omega=(1e200, 0.0))
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: $.omega_pair: ")
    doc = matrix_doc()
    doc["x"] = [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: $: target ADD_MATRIX: ")
    assert "$.form" not in err


def test_verify_has_no_seed_flag(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["verify", write_instance(tmp_path, matrix_doc()), "--seed", "1"])
    assert exc_info.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 1
    assert "cannot read" in err


def test_verify_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "JSON parse error" in err


def test_verify_schema_violation_reports_path(capsys, tmp_path):
    doc = matrix_doc()
    doc["version"] = "2"
    path = write_instance(tmp_path, doc)
    code, _, err = run(capsys, "verify", path)
    assert code == 1
    assert "$.version" in err


def test_verify_missing_payload_for_target(capsys, tmp_path):
    doc = {"version": "1", "target": "PS_ADD"}
    path = write_instance(tmp_path, doc)
    code, _, err = run(capsys, "verify", path)
    assert code == 1
    assert "sequences" in err


def test_verify_functional_target_needs_functional_form(capsys, tmp_path):
    doc = matrix_doc(target="ADD_FUNCTIONAL")
    path = write_instance(tmp_path, doc)
    code, _, err = run(capsys, "verify", path)
    assert code == 1
    assert "functional_form" in err


def gram_doc(block00):
    """ADD_MATRIX over a 2 x 2 Gram tensor on C^2 with <e_0, e_0> = block00."""
    def matrix(m):
        return [[[float(v), 0.0] for v in row] for row in m]

    eye, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    return {
        "version": "1",
        "target": "ADD_MATRIX",
        "form": {
            "kind": "gram_tensor",
            "algebra_dim": 2,
            "space_dim": 2,
            "gram": [[matrix(block00), matrix(zero)], [matrix(zero), matrix(eye)]],
        },
        "x": [[2, 0], [0, 0]],
        "y": [[1, 0], [0, 0]],
        "omega_pair": {"omega": [1.0, 0.0], "Omega": [3.0, 0.0]},
    }


def one_line_error(code, out, err, expected_code):
    assert code == expected_code
    assert out == "" and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_non_commuting_operator_pair(capsys, tmp_path):
    doc = {
        "version": "1",
        "target": "OP_PAIR_ADD",
        "operator_pair": {
            "t": [[[2, 0], [1, 0]], [[1, 0], [2, 0]]],
            "s": [[[1, 0], [0, 0]], [[0, 0], [3, 0]]],
            "v": [[1, 0], [1, 0]],
        },
    }
    report = precondition_failed(capsys, ["verify", write_instance(tmp_path, doc)], "commuting")
    assert report["details"]["error"] == "NotCommutingError"
    assert "commute" in report["details"]["message"]


def test_verify_non_psd_gram_block(capsys, tmp_path):
    path = write_instance(tmp_path, gram_doc([[1, 0], [0, -1]]))
    report = precondition_failed(capsys, ["verify", path], "positive_semidefinite")
    assert report["details"]["error"] == "NotPositiveError"
    assert "eigenvalue" in report["details"]["message"]


def test_verify_non_hermitian_gram_block(capsys, tmp_path):
    path = write_instance(tmp_path, gram_doc([[1, 1], [0, 1]]))
    report = precondition_failed(capsys, ["verify", path], "hermitian")
    assert report["details"]["error"] == "NotHermitianError"
    assert "not Hermitian" in report["details"]["message"]


def test_verify_vector_argument_for_module_form(capsys, tmp_path):
    doc = matrix_doc()
    doc["x"] = [[2, 0], [3, 0]]
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: $.x: ")


def test_verify_matrix_above_max_dim(capsys, tmp_path):
    big = [[[float(i == j), 0.0] for j in range(17)] for i in range(17)]
    doc = matrix_doc()
    doc["x"] = big
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: $.x: ") and "17" in err
    doc = {
        "version": "1",
        "target": "OP_PAIR_MULT",
        "operator_pair": {"t": big, "s": big, "v": [[1.0, 0.0]] * 17},
    }
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: $.operator_pair.t: ") and "17" in err


@pytest.mark.parametrize("target", ["ADD_MATRIX", "MULT_MATRIX"])
def test_verify_of_a_campaign_instance_gives_its_report(capsys, tmp_path, target):
    # The generator's window is part of the instance: written to a file
    # with its x, y and window pair, a campaign trial's instance verifies
    # to the campaign's report bit for bit.
    config = GeneratorConfig(seed=17, trials=6, dims=(1, 2, 4))
    for i in range(config.trials):
        g = stream(config.seed, i)
        d = config.dims[g.integers(len(config.dims))]
        form, x, y, pair = gen_re_valid_instance("module", d, g)
        window = {"omega": jsonio.encode_complex(pair.omega)}
        window["Omega"] = jsonio.encode_complex(pair.Omega)
        doc = {"version": "1", "target": target, "form": form.to_dict(), "omega_pair": window}
        doc.update(x=jsonio.encode_matrix(x), y=jsonio.encode_matrix(y))
        code, out, _ = run(capsys, "verify", write_instance(tmp_path, doc), "--json")
        assert code == 0
        assert json.loads(out) == run_trial(config, target, i).to_dict(), f"trial {i}"


def test_verify_solver_failure_is_not_a_precondition(capsys, tmp_path, monkeypatch):
    def no_convergence(*args):
        raise NoConvergenceError("Jacobi did not converge")

    # The registry looks the evaluator up in bounds when it runs.
    monkeypatch.setattr(bounds, "_matrix_reports", no_convergence)
    with pytest.raises(NoConvergenceError):
        cli.main(["verify", write_instance(tmp_path, matrix_doc())])
    assert "PRECONDITION_FAILED" not in capsys.readouterr().out


def operator_pair_doc(target, t, s, v):
    def entry(z):
        return [complex(z).real, complex(z).imag]

    return {
        "version": "1",
        "target": target,
        "operator_pair": {
            "t": [[entry(z) for z in row] for row in t],
            "s": [[entry(z) for z in row] for row in s],
            "v": [entry(z) for z in v],
        },
    }


def near_proportional_pair_doc(target):
    # s = 1.1 t written in decimals, so <Tv, Sv> nearly equals ||Tv|| ||Sv||:
    # the additive lhs cancels to about 1e-8 of products of size 1e8.
    t = [[228.0, -96.0], [-96.0, 172.0]]
    s = [[250.8, -105.6], [-105.6, 189.2]]
    return operator_pair_doc(target, t, s, [0.3, 0.7])


@pytest.mark.parametrize("target", ["OP_PAIR_ADD", "OP_PAIR_MULT"])
@pytest.mark.parametrize(
    "doc",
    [
        near_proportional_pair_doc,
        # d = 1: lhs = rhs = 0 exactly, and both routes compute lhs as
        # rounding noise of about 1e-16 of products of size 8e13.
        lambda target: operator_pair_doc(target, [[1000.3]], [[3000.7]], [1.7 + 0.3j]),
    ],
    ids=["near_proportional", "one_dimensional"],
)
def test_verify_cancelling_operator_pair_holds(capsys, tmp_path, target, doc):
    # Both routes agree, and lhs is judged, to rounding at the size of the
    # products they subtract.
    code, out, _ = run(capsys, "verify", write_instance(tmp_path, doc(target)), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "HOLDS"


@pytest.mark.parametrize("target", ["OP_PAIR_ADD", "OP_PAIR_MULT"])
@pytest.mark.parametrize(
    "v, message",
    [
        ([math.nan, 1.0], "$.operator_pair.v[0]: complex parts must be finite"),
        ([1.0, math.inf], "$.operator_pair.v[1]: complex parts must be finite"),
        ([1e200, 1e200], "v must be nonzero and finite, with ||v||^2 in the double range"),
    ],
    ids=["nan", "inf", "squared_norm_overflows"],
)
def test_verify_bad_vector_ends_in_one_line(capsys, tmp_path, target, v, message):
    doc = operator_pair_doc(target, [[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 1.0]], v)
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 1)
    assert message in err


@pytest.mark.parametrize("target", ["OP_PAIR_ADD", "OP_PAIR_MULT"])
def test_verify_perturbed_functional_route_fails_cross_check(
    capsys, tmp_path, monkeypatch, target
):
    # The functional route's stacked values start with phi(t* t) of every
    # instance; that value alone is perturbed by 1e-6 relative.
    original = bounds._state_values

    def perturbed(u, a, b):
        values = original(u, a, b)
        values[: len(u)] *= 1.0 + 1e-6
        return values

    monkeypatch.setattr(bounds, "_state_values", perturbed)
    with pytest.raises(KernelError, match="functional route"):
        cli.main(["verify", write_instance(tmp_path, near_proportional_pair_doc(target))])
    assert "HOLDS" not in capsys.readouterr().out


def test_fuzz_small_run(capsys):
    code, out, _ = run(capsys, "fuzz", "PS_IMPROVED", "--trials", "25", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["trials_run"] == 25
    assert summary["violated"] == 0
    total = summary["holds"] + summary["violated"] + summary["precondition_failed"]
    assert total == 25


def test_fuzz_zero_trials(capsys):
    code, out, _ = run(capsys, "fuzz", "ADD_MATRIX", "--trials", "0", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["trials_run"] == 0
    assert summary["worst_margin"] is None


def test_fuzz_replay_matches_summary(capsys):
    code, out, _ = run(
        capsys, "fuzz", "ADD_MATRIX", "--trials", "30", "--seed", "9", "--json"
    )
    assert code == 0
    summary = json.loads(out)
    code, out, _ = run(
        capsys,
        "fuzz",
        "ADD_MATRIX",
        "--trials",
        "30",
        "--seed",
        "9",
        "--replay",
        str(summary["worst_seed"]),
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["margin"] == summary["worst_margin"]


def test_consecutive_main_calls_share_no_state(capsys):
    # One parser serves every main() call of a process; the flags of one
    # call do not carry over to the next.
    assert cli._build_parser() is cli._build_parser()
    for dims in ((2,), None, (2,)):
        flags = [] if dims is None else ["--dims", *map(str, dims)]
        code, out, _ = run(capsys, "fuzz", "ADD_MATRIX", "--trials", "20", "--json", *flags)
        assert code == 0
        config = GeneratorConfig(trials=20, dims=dims or GeneratorConfig.dims)
        assert json.loads(out) == fuzz_run(config, "ADD_MATRIX").to_dict()


def test_fuzz_unknown_id(capsys):
    code, _, err = run(capsys, "fuzz", "NO_SUCH_BOUND")
    assert code == 1
    assert "unknown inequality id" in err


def test_fuzz_invalid_trials(capsys):
    code, _, err = run(capsys, "fuzz", "ADD_MATRIX", "--trials", "-2")
    assert code == 1
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [["--replay", "-1"], ["--trials", "30", "--replay", "30"], ["--replay", str(2**64)]],
)
def test_fuzz_replay_outside_campaign(capsys, argv):
    # A replay index must be one of the campaign's trials 0..trials-1.
    code, out, err = run(capsys, "fuzz", "ADD_MATRIX", *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "trial index" in err


@pytest.mark.parametrize(
    "inequality_id",
    [i for i in bounds.INEQUALITY_IDS if bounds._REGISTRY[i].payload == "sequences"],
)
def test_fuzz_dims_rejected_for_sequence_ids(capsys, inequality_id):
    # A sequence id draws its length n itself, so --dims would be ignored.
    code, out, err = run(capsys, "fuzz", inequality_id, "--trials", "5", "--dims", "2")
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: --dims does not apply to " + inequality_id)


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "command", [["fuzz", "PS_ADD", "--trials", "5"], ["sharpness"], ["compare", "--samples", "5"]]
)
def test_seed_outside_64_bits(capsys, command, seed):
    # A seed keys a 64-bit Philox stream; masking it would alias distinct seeds.
    code, out, err = run(capsys, *command, "--seed", str(seed))
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: ") and str(seed) in err


def _cli_process(*argv, **kwargs):
    """rcsbounds.cli argv in a fresh interpreter, its stderr piped as text."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen(
        [sys.executable, "-m", "rcsbounds.cli", *argv],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def test_closed_stdout_is_one_line_error():
    # The reader of stdout is gone before anything is written, as in `| head`.
    proc = _cli_process("fuzz", "ADD_MATRIX", "--replay", "5", stdout=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err.startswith("rcsbounds: error: ") and err.count("\n") == 1
    assert "Broken pipe" in err and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_one_line_error():
    with open("/dev/full", "w") as full:
        proc = _cli_process("fuzz", "PS_ADD", "--trials", "5", "--json", stdout=full)
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err.startswith("rcsbounds: error: ") and err.count("\n") == 1
    assert "No space left" in err and "Traceback" not in err


def test_fuzz_tolerance_env_garbage(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_RTOL, "garbage")
    code, out, err = run(capsys, "fuzz", "ADD_MATRIX", "--trials", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and cli.ENV_RTOL in err


def test_fuzz_tolerance_takes_effect(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_RTOL, raising=False)
    monkeypatch.delenv(cli.ENV_ATOL, raising=False)
    campaign = ["fuzz", "ADD_MATRIX", "--dims", "2", "--trials", "30", "--seed", "4", "--json"]
    strict = ["--tol-rtol", "3e-17", "--tol-atol", "3e-17"]
    code, out, _ = run(capsys, *campaign)
    assert code == 0
    assert json.loads(out)["precondition_failed"] == 0

    # Below roundoff the generator's checks fail for some trials.
    code, out, _ = run(capsys, *campaign, *strict)
    assert code == 0
    tight = json.loads(out)
    assert tight["precondition_failed"] > 0

    # The environment sets the same band.
    monkeypatch.setenv(cli.ENV_RTOL, "3e-17")
    monkeypatch.setenv(cli.ENV_ATOL, "3e-17")
    code, out, _ = run(capsys, *campaign)
    assert json.loads(out) == tight
    monkeypatch.delenv(cli.ENV_RTOL)
    monkeypatch.delenv(cli.ENV_ATOL)

    # --replay uses the band too: the worst trial replays bit-equal, and
    # each trial the campaign counted as a precondition failure replays as
    # a report naming the failed checks: the one generator check that
    # raised, or the evaluator's own.
    code, out, _ = run(capsys, *campaign, *strict, "--replay", str(tight["worst_seed"]))
    assert json.loads(out)["margin"] == tight["worst_margin"]
    failed, raised = [], []
    for i in range(30):
        argv = [*campaign[:-1], *strict, "--replay", str(i)]
        code, out, err = run(capsys, *argv, "--json")
        assert err == "" and out.count("\n") == 1
        report = json.loads(out)
        if code == 0:
            continue
        assert code == 3 and report["verdict"] == "PRECONDITION_FAILED"
        checks = [p["name"] for p in report["preconditions"] if not p["passed"]]
        assert checks
        if "error" in report["details"]:
            assert checks[0] in {"commuting", "strictly_positive", "spectral_window"}
            precondition_failed(capsys, argv, checks[0])
            raised.append(i)
        failed.append(i)
    assert raised and len(failed) == tight["precondition_failed"]
    code, _, _ = run(capsys, *campaign, "--replay", str(failed[0]))
    assert code == 0


def test_sharpness_default_hits_quarter(capsys):
    code, out, _ = run(capsys, "sharpness")
    assert code == 0
    assert "0.25" in out


def test_sharpness_json_payload(capsys):
    code, out, _ = run(capsys, "sharpness", "--kind", "trace", "--dim", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ratio"] - 0.25) <= 1e-12
    assert payload["deviation"] <= 1e-12
    assert payload["report"]["verdict"] == "HOLDS"


def test_sharpness_complex_window(capsys):
    code, out, _ = run(capsys, "sharpness", "--omega", "1+2j", "--Omega", "3-1j", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ratio"] - 0.25) <= 1e-12


def test_sharpness_degenerate_window(capsys):
    code, out, _ = run(capsys, "sharpness", "--omega", "3", "--Omega", "3")
    assert code == 2
    assert "degenerate" in out


@pytest.mark.parametrize(
    "flags, flag",
    [
        (("--dim", "0"), "--dim"),
        (("--dim", "17"), "--dim"),
        (("--omega", "nan"), "--omega"),
        (("--omega", "1e200"), "--omega"),
        (("--Omega", "1e200"), "--Omega"),
        (("--omega", "1e200", "--Omega", "1e200"), "--omega"),
    ],
)
def test_sharpness_rejects_bad_flags(capsys, flags, flag):
    code, out, err = run(capsys, "sharpness", *flags)
    one_line_error(code, out, err, 1)
    assert err.startswith("rcsbounds: error: ") and flag in err


def test_compare_csv_contract(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "compare", "--n", "6", "--samples", "10", "--csv", str(target)
    )
    assert code == 0
    assert "argmin counts:" in out
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.CSV_HEADER
    assert len(rows) == 1 + 10 + 3
    for row in rows[1:]:
        assert len(row) == len(cli.CSV_HEADER)
        assert row[7] in {"1", "2", "3"}
        float(row[9])  # margin parses back


@pytest.mark.parametrize(
    "n, samples", [(1, 1000), (8, 1000), (4096, 25)], ids=["n1", "n8", "n4096"]
)
def test_compare_rows_equal_lone_evaluations(capsys, tmp_path, n, samples):
    # compare evaluates its rows in PS_IMPROVED batches and formats them a
    # chunk at a time; its file is the one csv.writer writes of the public
    # polya_szego_improved on each row alone.  --n 1 gives negative lhs,
    # exponent notation and zeros, and its families have n = 2 and form a
    # second batch; 1000 rows cross a formatting chunk; --n 4096 windows
    # hold 10 rows.
    target = tmp_path / "rows.csv"
    argv = ["compare", "--n", str(n), "--samples", str(samples), "--csv", str(target)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    lone = []
    for i in range(samples):
        g = stream(0, i)
        data = gen_bounded_sequences(n, sample_window(g, WINDOW_RANGE), g)
        lone.append(replace(data, w_seq=np.ones(n)))
    lone += [family for _, family in gen_argmin_families(max(2, n))]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(cli.CSV_HEADER)
    for data in lone:
        result = polya_szego_improved(data)
        win = data.window
        writer.writerow(
            (
                win.a, win.A, win.b, win.B, *result.constants, result.argmin,
                result.report.lhs, result.report.margin,
                abs(result.equality_lhs - result.equality_rhs),
            )
        )
    lines = target.read_bytes().split(b"\r\n")
    assert len(lines) == 1 + len(lone) + 1
    assert lines == expected.getvalue().encode().split(b"\r\n")


def _float_lines(values: np.ndarray) -> list[str]:
    """The texts cli._float_cells gives for values, a chunk at a time."""
    texts = []
    for start in range(0, len(values), cli._CSV_CHUNK):
        cells = cli._float_cells(values[start : start + cli._CSV_CHUNK])
        cells[:, -1] = ord("\n")
        texts.append(cells[cells != 0].tobytes().decode("ascii"))
    return "".join(texts).split("\n")[:-1]


def test_float_cells_are_float_repr():
    # The CSV formatter against float.__repr__, byte for byte, on over a
    # million values: random 64-bit patterns (subnormals, NaNs, huge and
    # tiny values), the fast range [1e-4, 1e15) at random bits and
    # log-uniform, short decimals k / 10^j, neighbours of the powers of ten
    # (where log10 can be off by one), powers of two (lopsided intervals),
    # odd eighths near 1e15 (exact halfway 17-digit roundings), the edges of
    # the fast range, and each of them negated at random.
    rng = np.random.default_rng(20)
    size = 200_000
    significands = rng.integers(1 << 52, 1 << 53, size, dtype=np.uint64)
    fast = significands * 2.0 ** rng.integers(-66, -2, size)
    tens = [float(f"1e{k}") for k in range(-6, 18)]
    tens = np.array(tens + [float(f"{c}e{k}") for c in (2, 5, 9) for k in range(-6, 16)])
    powers = 2.0 ** np.arange(-1074, 1024)
    edges = np.array([1e-4, 1e15, 1e16, 2.0**49, 2.0**50])
    values = np.concatenate(
        [
            rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64),
            fast,
            10.0 ** rng.uniform(-6, 17, size),
            rng.integers(1, 10**7, size) / 10.0 ** rng.integers(0, 23, size),
            rng.random(size // 2) * 10,
            (rng.integers(2**52, 2**53, size // 4, dtype=np.uint64) | np.uint64(1)) / 8.0,
            tens[:, None] * (1 + np.arange(-300, 301) * 2.0**-52),
            np.nextafter(tens, 0), np.nextafter(tens, np.inf),
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            edges[:, None] * (1 + np.arange(-2000, 2001) * 2.0**-52),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308],
            [1.7976931348623157e308],
        ],
        axis=None,
    )
    values.view(np.uint64)[rng.random(len(values)) < 0.5] ^= np.uint64(1 << 63)  # the sign
    assert len(values) >= 10**6
    expected = list(map(float.__repr__, values.tolist()))
    got = _float_lines(values)
    wrong = [(e, g) for e, g in zip(expected, got) if e != g]
    assert len(got) == len(expected) and not wrong, wrong[:10]


def test_compare_csv_does_not_depend_on_the_window_size(capsys, monkeypatch, tmp_path):
    # Word budgets of one row per window (1 word) and a few rows (10 at
    # --n 8, 300 words) write the rows of the default budget's one window.
    texts = []
    for budget in (harness.SCALAR_WINDOW_WORDS, 300, 1):
        monkeypatch.setattr(harness, "SCALAR_WINDOW_WORDS", budget)
        target = tmp_path / f"{budget}.csv"
        code, out, _ = run(capsys, "compare", "--samples", "45", "--csv", str(target))
        assert code == 0
        texts.append(out.replace(str(target), "<csv>").encode() + target.read_bytes())
    assert texts[1] == texts[0] and texts[2] == texts[0]


def test_compare_unwritable_csv_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "compare", "--samples", "5", "--csv", str(tmp_path))
    one_line_error(code, out, err, 1)
    assert err.startswith(f"rcsbounds: error: cannot write {tmp_path}: ")


def _peak_rss_kb(*argv) -> int:
    """The peak resident memory (VmHWM, kB) of a fresh interpreter that
    runs the CLI with argv.  ru_maxrss would not do: Linux carries it
    across exec from the forking process, this test's."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys; from rcsbounds.cli import main; code = main(sys.argv[1:]); "
        "peak = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]; "
        "print(code, peak[0].split()[1], file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    code, peak = result.stderr.split()[-2:]
    assert code == "0"
    return int(peak)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_compare_memory_does_not_grow_with_samples(tmp_path):
    # A window at a time, CSV rows included: 40,000 samples (nine windows
    # at --n 8) peak less than 8 MB above 2,000 (part of one), most of it
    # the first full window, and no higher than 20,000.
    peaks = [
        _peak_rss_kb("compare", "--samples", str(samples), "--csv", str(tmp_path / "rows.csv"))
        for samples in (2000, 20000, 40000)
    ]
    assert peaks[2] - peaks[0] < 8 * 1024 and peaks[2] - peaks[1] < 2 * 1024, peaks


def test_compare_json_counts(capsys):
    code, out, _ = run(capsys, "compare", "--n", "4", "--samples", "20", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 23
    assert payload["constructed_families"] == 3
    assert sum(payload["argmin_counts"].values()) == 23
    # the constructed families guarantee every constant wins at least once
    assert all(payload["argmin_counts"][k] >= 1 for k in ("1", "2", "3"))


def test_compare_flag_validation(capsys):
    # --n is a length in 1..MAX_SEQUENCE_LENGTH; a value past it is refused
    # in one line before anything is allocated.
    for n in ("0", str(cli.MAX_SEQUENCE_LENGTH + 1), "100000000000000"):
        code, out, err = run(capsys, "compare", "--n", n)
        one_line_error(code, out, err, 1)
        assert "--n" in err and str(cli.MAX_SEQUENCE_LENGTH) in err
    n = str(cli.MAX_SEQUENCE_LENGTH)
    code, out, _ = run(capsys, "compare", "--n", n, "--samples", "1", "--json")
    assert code == 0 and json.loads(out)["samples"] == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["verify"])  # missing positional argument
    assert exc_info.value.code == 1
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code == 1


def _tol_args(rtol=None, atol=None):
    return argparse.Namespace(tol_rtol=rtol, tol_atol=atol)


def test_tolerance_precedence(monkeypatch):
    monkeypatch.delenv(cli.ENV_RTOL, raising=False)
    monkeypatch.delenv(cli.ENV_ATOL, raising=False)
    base = cli._resolve_tolerance(_tol_args())

    monkeypatch.setenv(cli.ENV_RTOL, "1e-6")
    env_only = cli._resolve_tolerance(_tol_args())
    assert env_only.rtol == 1e-6
    assert env_only.atol == base.atol

    file_wins = cli._resolve_tolerance(_tol_args(), {"rtol": 1e-5})
    assert file_wins.rtol == 1e-5

    flag_wins = cli._resolve_tolerance(_tol_args(rtol=1e-4), {"rtol": 1e-5})
    assert flag_wins.rtol == 1e-4


def test_tolerance_env_validation(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_ATOL, "not-a-number")
    code, _, err = run(capsys, "sharpness")
    assert code == 1
    assert cli.ENV_ATOL in err

    monkeypatch.setenv(cli.ENV_ATOL, "-1e-9")
    code, _, err = run(capsys, "sharpness")
    assert code == 1
    assert "positive" in err


def test_tolerance_flag_validation(capsys):
    code, _, err = run(capsys, "sharpness", "--tol-rtol", "-1")
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_tolerance_non_finite_rejected(tmp_path, capsys, bad):
    doc = matrix_doc()
    doc["tolerance"] = {"rtol": bad}
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    assert code == 1
    assert out == "" and err.count("\n") == 1
    code, _, err = run(capsys, "fuzz", "PS_ADD", "--trials", "1", "--tol-atol", str(bad))
    assert code == 1
    assert "finite" in err


def _nodes(node, path=()):
    """(path, node) for every node of a JSON document."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _parent(doc, path):
    """The node holding the node at a nonempty path."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


_ODD_NUMBERS = st.sampled_from(
    [True, False, 0, -1.0, math.nan, math.inf, -math.inf, 1e200, -1e200]
)
_ODD_VALUES = st.one_of(
    st.sampled_from(["x", {}, [], None, [[1]]]).map(copy.deepcopy), _ODD_NUMBERS
)


def _sized(node, n):
    """node resized to n entries (n x n for a matrix), repeating its first entry."""
    if n == 0 or not node:
        return []
    if isinstance(node[0], list) and node[0] and isinstance(node[0][0], list):
        return [[node[0][0]] * n for _ in range(n)]
    return [node[0]] * n


@st.composite
def mutated_instances(draw):
    """A shipped instance with one to three keys dropped or added, values
    retyped, numbers replaced by booleans, NaN, infinities or 1e200, or
    arrays resized to dimension 0 or 17."""
    name = draw(st.sampled_from(sorted(os.listdir(INSTANCES))))
    with open(os.path.join(INSTANCES, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind, eligible = draw(
            st.sampled_from(
                [
                    ("drop", lambda node: True),
                    ("add", lambda node: isinstance(node, dict)),
                    ("retype", lambda node: True),
                    ("number", lambda node: isinstance(node, (int, float))),
                    ("size", lambda node: isinstance(node, list)),
                ]
            )
        )
        candidates = [(p, n) for p, n in nodes if eligible(n) and (p or kind == "add")]
        if not candidates:
            continue
        path, node = draw(st.sampled_from(candidates))
        if kind == "drop":
            del _parent(doc, path)[path[-1]]
        elif kind == "add":
            node[draw(st.sampled_from(["extra", "x", "t", "window", "rtol"]))] = draw(_ODD_VALUES)
        elif kind == "size":
            _parent(doc, path)[path[-1]] = _sized(node, draw(st.sampled_from([0, 17])))
        else:
            odd = _ODD_NUMBERS if kind == "number" else _ODD_VALUES
            _parent(doc, path)[path[-1]] = draw(odd)
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_instances())
def test_verify_mutated_instances_end_in_one_line(doc):
    # Every outcome is a usage error (exit 1, one line on stderr and
    # nothing on stdout) or a report with nothing on stderr (0, 2, or 3 for
    # a failed hypothesis).  An exception or a numpy warning escaping main
    # fails the test.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path])
    assert code in {0, 1, 2, 3}
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("rcsbounds: error: ") and "$" in err
    else:
        assert err == ""
        assert out.startswith("inequality: ") and "\nverdict:    " in out
    if code == 3:
        assert "verdict:    PRECONDITION_FAILED" in out and ": FAIL (" in out


def test_cli_import_does_not_load_jsonschema():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, rcsbounds.cli; print(sorted(m for m in sys.modules if 'jsonschema' in m))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
