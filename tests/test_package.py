"""The package surface: exported names and the documented id table."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np

import rcsbounds
from rcsbounds.bounds import _REGISTRY, INEQUALITY_IDS

SCHEMA_DOC = os.path.join(os.path.dirname(__file__), "..", "docs", "schema.md")
PACKAGE_DIR = os.path.dirname(rcsbounds.__file__)

# The names rcsbounds exported before __all__ was derived from its layers.
EXPORTED = """
    __version__ ADD_FUNCTIONAL ADD_MATRIX GREUB_RHEINBOLDT HOLDS INEQUALITY_IDS INT_ADD
    INT_MULT MULT_FUNCTIONAL MULT_MATRIX OP_PAIR_ADD OP_PAIR_MULT PRECONDITION_FAILED PS_ADD
    PS_IMPROVED PS_MULT VIOLATED WEIGHTED_ADD BoundReport DegenerateSpaceError
    DimMismatchError DimTooLargeError DEFAULT_TOL FormError FormInstance FuzzSummary
    GeneratorConfig ImprovedResult IntegralBoundsResult KernelError NoConvergenceError
    NonPositiveReOmegaError NotCommutingError NotHermitianError NotPositiveError
    NotStrictlyPositiveError OmegaPair OperatorPairResult PositiveFunctional
    PositivityReport PreconditionCheck RejectionCapExceededError ScalarWindow
    SharpnessResult SpectralDecomposition Tolerance WeightedSequences WindowCheckError
    WindowViolationError abs_element additive_matrix_bound adjoint as_element check_com
    check_re_condition check_star1 eig_hermitian eig_hermitian_stack form_eval frobenius
    functional_additive_bound functional_multiplicative_bound fuzz_run gen_argmin_families
    gen_bounded_sequences gen_commuting_positive_pair gen_random_unitary gen_re_valid_instance
    greub_rheinboldt integral_bounds is_normal loewner_leq multiplicative_matrix_bound
    omega_from_spectra operator_pair_bounds oracle_psd_minors polya_szego_additive
    polya_szego_improved polya_szego_multiplicative re_part run_trial run_trials
    sample_window sharpness_witness spectrum_bounds sqrt_psd stream validate_positivity
    weighted_additive
""".split()


def test_all_names_resolve():
    assert len(EXPORTED) == len(set(EXPORTED)) == 89
    assert set(EXPORTED) <= set(rcsbounds.__all__)
    assert len(rcsbounds.__all__) == len(set(rcsbounds.__all__))
    for name in rcsbounds.__all__:
        assert getattr(rcsbounds, name) is not None, name


def test_schema_doc_matches_registry():
    # docs/schema.md lists each target with the payload it requires.
    payload_doc = {
        "form": "form/x/y/omega_pair",
        "functional_form": "form/x/y/omega_pair (functional form)",
        "operator_pair": "operator_pair",
        "sequences": "sequences",
    }
    with open(SCHEMA_DOC, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \|", fh.read(), re.MULTILINE)
    documented = {target: payload.strip() for target, payload in rows}
    assert sorted(documented) == sorted(INEQUALITY_IDS)
    for target, entry in _REGISTRY.items():
        expected = payload_doc[entry.payload] + (" (unit weights)" if entry.unit_weights else "")
        assert documented[target] == expected, target


def test_no_catch_all_handlers():
    # Only HYPOTHESIS_ERRORS become reports: no handler in the package may
    # swallow every exception (a bare except, Exception or BaseException).
    catch_all = {"Exception", "BaseException"}
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in catch_all) for t in caught):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_what_a_traced_benchmark_run_needs():
    # perfbench's tracer imports these layers by name and wraps every plain
    # function in each __all__; its layer probe calls run_trial(config, id,
    # i) and eig_hermitian(a).eigenvalues, and reads the numpy and
    # rcsbounds.cli lines of `python -X importtime -c "import rcsbounds.cli"`.
    layers = {}
    for layer in ("rng", "matalg", "forms", "bounds", "harness", "jsonio", "cli"):
        layers[layer] = module = importlib.import_module(f"rcsbounds.{layer}")
        assert len(module.__all__) == len(set(module.__all__)), layer
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{layer}.{name}"
    assert inspect.isfunction(layers["harness"].run_trial)
    assert inspect.isfunction(layers["matalg"].eig_hermitian)
    config = layers["harness"].GeneratorConfig(seed=0, trials=1, dims=(2,))
    assert layers["harness"].run_trial(config, "ADD_MATRIX", 0).verdict
    eigenvalues = layers["matalg"].eig_hermitian(np.diag([2.0, 1.0])).eigenvalues
    assert sorted(eigenvalues.tolist()) == [1.0, 2.0]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = [sys.executable, "-X", "importtime", "-c", "import rcsbounds.cli"]
    result = subprocess.run(probe, env=env, capture_output=True, text=True, check=True)
    imported = {line.split("|")[-1].strip() for line in result.stderr.splitlines()}
    assert {"numpy", "rcsbounds.cli"} <= imported


def _fresh_python(*args: str) -> str:
    """The stdout of a fresh interpreter run with args, the package's src first on its path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return result.stdout


def test_cli_import_leaves_numpy_random_unloaded():
    # Only rng.stream builds a Generator, and campaigns draw through
    # rng._words: importing the CLI loads neither numpy.random nor the
    # secrets, hmac and hashlib modules it pulls in.
    assert _fresh_python("-c", "import sys, rcsbounds.cli; print('numpy.random' in sys.modules)") == "False\n"


# A replay of one id of each payload kind, a small campaign and each
# sharpness kind: every window, one trial or five, draws from rng._words.
DRAWING_COMMANDS = [
    *(["fuzz", i, "--replay", "7"] for i in ("ADD_MATRIX", "ADD_FUNCTIONAL", "OP_PAIR_ADD", "INT_ADD")),
    ["fuzz", "ADD_MATRIX", "--trials", "5"],
    *(["sharpness", "--kind", k] for k in ("vector_state", "trace", "weighted_sum")),
]


def test_commands_leave_numpy_random_unloaded():
    # A Generator is built on a command path only for a rejected word 0 or
    # a restart, and these commands meet neither: after each, numpy.random
    # is still not loaded, and each exits 0, so none stopped before its draws.
    probe = (
        "import contextlib, io, json, sys\n"
        "from rcsbounds import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(code, 'numpy.random' in sys.modules)\n"
    )
    lines = _fresh_python("-c", probe, json.dumps(DRAWING_COMMANDS)).splitlines()
    assert lines == ["0 False"] * len(DRAWING_COMMANDS)
