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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsbounds import bounds, cli
from rcsbounds.matalg import NoConvergenceError

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


def test_verify_nonpositive_window_product(capsys, tmp_path):
    doc = matrix_doc(omega=(-1.0, 0.0), Omega=(1.0, 0.0), target="MULT_MATRIX")
    path = write_instance(tmp_path, doc)
    code, _, err = run(capsys, "verify", path)
    assert code == 3
    assert "precondition failed" in err


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
    code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
    one_line_error(code, out, err, 3)
    assert err.startswith("precondition failed:") and "commute" in err


def test_verify_non_psd_gram_block(capsys, tmp_path):
    code, out, err = run(capsys, "verify", write_instance(tmp_path, gram_doc([[1, 0], [0, -1]])))
    one_line_error(code, out, err, 3)
    assert err.startswith("precondition failed:") and "eigenvalue" in err


def test_verify_non_hermitian_gram_block(capsys, tmp_path):
    code, out, err = run(capsys, "verify", write_instance(tmp_path, gram_doc([[1, 1], [0, 1]])))
    one_line_error(code, out, err, 3)
    assert err.startswith("precondition failed:") and "not Hermitian" in err


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


def test_verify_solver_failure_is_not_a_precondition(capsys, tmp_path, monkeypatch):
    def no_convergence(*args):
        raise NoConvergenceError("Jacobi did not converge")

    # The registry looks the evaluator up in bounds when it runs.
    monkeypatch.setattr(bounds, "additive_matrix_bound", no_convergence)
    with pytest.raises(NoConvergenceError):
        cli.main(["verify", write_instance(tmp_path, matrix_doc())])
    assert "precondition failed" not in capsys.readouterr().err


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


def test_fuzz_unknown_id(capsys):
    code, _, err = run(capsys, "fuzz", "NO_SUCH_BOUND")
    assert code == 1
    assert "unknown inequality id" in err


def test_fuzz_invalid_trials(capsys):
    code, _, err = run(capsys, "fuzz", "ADD_MATRIX", "--trials", "-2")
    assert code == 1
    assert "nonnegative" in err


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

    # --replay uses the band too: the worst trial replays bit-equal, and a
    # trial whose instance fails a generator check exits 3 with one line.
    code, out, _ = run(capsys, *campaign, *strict, "--replay", str(tight["worst_seed"]))
    assert json.loads(out)["margin"] == tight["worst_margin"]
    failed = []
    for i in range(30):
        code, out, err = run(capsys, *campaign, *strict, "--replay", str(i))
        if code == 3 and out == "":
            assert err.count("\n") == 1 and "precondition failed" in err
            failed.append(i)
    assert failed
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
    [(("--dim", "0"), "--dim"), (("--dim", "17"), "--dim"), (("--omega", "nan"), "--omega")],
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
    code, _, err = run(capsys, "compare", "--n", "0")
    assert code == 1
    assert "--n" in err


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
    # Every outcome is an exit code with at most one line on stderr: a
    # usage error (1), a precondition failure (3), or a report (0, 2, 3).
    # An exception or a numpy warning escaping main fails the test.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path])
    assert code in {0, 1, 2, 3}
    err = err.getvalue()
    assert "Traceback" not in err
    assert err.count("\n") == (1 if code == 1 or not out.getvalue() else 0)
    if code == 1:
        assert err.startswith("rcsbounds: error: ") and "$" in err


def test_cli_import_does_not_load_jsonschema():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, rcsbounds.cli; print(sorted(m for m in sys.modules if 'jsonschema' in m))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
