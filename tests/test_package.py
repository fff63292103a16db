"""The package surface: exported names and the documented id table."""

import os
import re

import rcsbounds
from rcsbounds.bounds import _REGISTRY, INEQUALITY_IDS

SCHEMA_DOC = os.path.join(os.path.dirname(__file__), "..", "docs", "schema.md")

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
