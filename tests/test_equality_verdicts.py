"""Verdicts at equality: a lhs that cancels is judged at the size it cancels from.

The additive sequence bounds (INT_ADD, WEIGHTED_ADD, PS_ADD, PS_IMPROVED)
form their lhs as sum(w a^2) sum(w b^2) - (sum(w a b))^2, ADD_FUNCTIONAL
as phi(x*x) phi(y*y) - |phi(y*x)|^2, and ADD_MATRIX as
<y,y>^(1/2) <x,x> <y,y>^(1/2) - <x,y><y,x>.  Where the true lhs and rhs are
both 0, rounding leaves a lhs of about 1e-16 times those products, which
must not read as a violation; a rhs made 1% too small must still read as one.
"""

import json
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rcsbounds import bounds, cli, harness, jsonio
from rcsbounds.bounds import (
    HOLDS,
    VIOLATED,
    ScalarWindow,
    WeightedSequences,
    additive_matrix_bound,
    functional_additive_bound,
    integral_bounds,
    polya_szego_additive,
    polya_szego_improved,
    sharpness_witness,
    weighted_additive,
)
from rcsbounds.forms import FormInstance, OmegaPair, PositiveFunctional
from rcsbounds.harness import SPACE_DIMS, WINDOW_RANGE
from rcsbounds.matalg import DEFAULT_TOL, Tolerance, loewner_leq, re_part
from rcsbounds.rng import stream
from reference import sequence_sides

# Constant sequences on their point window: the true lhs and rhs are 0,
# and the lhs cancels from products of about 1.1e16.
A_VALUE = 5850.426338441873
B_VALUE = 4562.692111641243
POINT_SEQUENCES = {
    "a_seq": [A_VALUE] * 4,
    "b_seq": [B_VALUE] * 4,
    "w_seq": [1.0] * 4,
    "window": {"a": A_VALUE, "A": A_VALUE, "b": B_VALUE, "B": B_VALUE},
}
SEQUENCE_TARGETS = ("INT_ADD", "WEIGHTED_ADD", "PS_ADD", "PS_IMPROVED")
# A band of 0: a margin of exactly 0 sits at minus its band, where the
# verdict must still read as holding.
ZERO_BAND = Tolerance(0.0, 0.0)


@pytest.mark.parametrize("target", SEQUENCE_TARGETS)
def test_verify_point_window_equality_holds(capsys, tmp_path, target):
    # The lhs rounds to 2.0 and the margin to -2.0; they are reported as
    # computed, and judged at the size of the products the lhs cancels from.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"version": "1", "target": target, "sequences": POINT_SEQUENCES}))
    code = cli.main(["verify", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["verdict"]) == (0, HOLDS)
    assert (report["lhs"], report["rhs"], report["margin"]) == (2.0, 0.0, -2.0)


def _proportional_doc(form: FormInstance, y: np.ndarray, k: float) -> dict:
    """The ADD_MATRIX instance x = k y on the window omega = Omega = k, where
    the Re term and the true lhs and rhs are 0."""
    encode = jsonio.encode_matrix if y.ndim == 2 else jsonio.encode_vector
    window = {"omega": [k, 0.0], "Omega": [k, 0.0]}
    doc = {"version": "1", "target": "ADD_MATRIX", "form": form.to_dict(), "omega_pair": window}
    doc.update(x=encode(k * y), y=encode(y))
    return doc


# x = k y in the Gram-tensor form over C^2 with 2 x 2 blocks: the blocks
# of the positive 4 x 4 matrix b b*.
GRAM_ROOT = np.array([[1, 2j, 0, 1], [0, 1, 3, 1j], [2, 0, 1 - 1j, 1], [1j, 1, 0, 2]])
GRAM_FORM = FormInstance.gram_tensor(
    (GRAM_ROOT @ GRAM_ROOT.conj().T).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
)
PROPORTIONAL_MATRIX_DOCS = {
    # The module-form instance whose lhs rounds to entries of up to 1536
    # against products of size 4e18.
    "module": _proportional_doc(
        FormInstance.module_form(2),
        np.array([[34.2 - 0.3j, 1359.7 - 0.5j], [1224.7 + 0.6j, -510.3 - 0.1j]]),
        788.24,
    ),
    "gram_tensor": _proportional_doc(GRAM_FORM, np.array([1359.7 - 0.5j, -510.3 + 34.2j]), 41.3),
}


@pytest.mark.parametrize("name", sorted(PROPORTIONAL_MATRIX_DOCS))
def test_verify_proportional_matrix_instance_holds(capsys, tmp_path, name):
    # ADD_MATRIX judges its margin at the size of the products its lhs
    # cancels from, so the rounding of a 0 lhs is no violation: the module
    # instance's margin rounds to -41.5 on OpenBLAS's SkylakeX kernel and
    # to +397 on Prescott.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(PROPORTIONAL_MATRIX_DOCS[name]))
    code = cli.main(["verify", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["verdict"]) == (0, HOLDS)
    assert all(p["passed"] for p in report["preconditions"])


def _functional(kind: str, d: int, g) -> PositiveFunctional:
    if kind == "vector_state":
        s = g.standard_normal(d) + 1j * g.standard_normal(d)
        return PositiveFunctional.vector_state(s / np.linalg.norm(s))
    if kind == "trace":
        return PositiveFunctional.trace(d)
    return PositiveFunctional.weighted_sum(g.uniform(0.2, 2.0, size=d))


def test_functional_proportional_corpus_holds():
    # x = k y on the window omega = Omega = k: the Re term is exactly 0 and
    # the true lhs and rhs are 0, for every functional kind.  Entries up to
    # 1e4 and k up to 1e3 leave lhs rounding of up to about 1e-16 phi(x*x)
    # phi(y*y), far above 1e-9 max(|lhs|, 1).
    rounded = 0
    for i in range(600):
        g = stream(77, i)
        d = 1 + i % 3
        phi = _functional(("vector_state", "trace", "weighted_sum")[i // 3 % 3], d, g)
        scale = 10.0 ** g.uniform(0.0, 4.0)
        y = scale * (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)))
        k = 10.0 ** g.uniform(0.0, 3.0)
        report = functional_additive_bound(phi, k * y, y, OmegaPair(complex(k), complex(k)))
        assert report.verdict == HOLDS, (i, report.lhs, report.margin)
        assert report.rhs == 0.0 and report.margin == -report.lhs
        rounded += abs(report.lhs) > 1e-9
    assert rounded > 100


def _tight_reports():
    """Reports of interior instances that attain their bound: lhs = rhs > 0,
    and lhs of the size of the products it cancels from."""
    # w_1 A^2 = w_2 a^2 attains the first branch of the weighted additive
    # bound (lhs = rhs = 100); a = (2, 1), b = (1, 2) on [1, 2] x [1, 2]
    # attains the classical difference bound (lhs = rhs = 9).
    weighted = WeightedSequences(
        np.array([2.0, 1.0]), np.array([1.0, 3.0]), np.array([1.0, 4.0]), ScalarWindow(1.0, 2.0, 1.0, 3.0)
    )
    unit = WeightedSequences(
        np.array([2.0, 1.0]), np.array([1.0, 2.0]), np.ones(2), ScalarWindow(1.0, 2.0, 1.0, 2.0)
    )
    # The sharpness witness attains the additive functional bound (lhs = rhs = 4).
    y = np.diag([1.0, 2.0]).astype(complex)
    witness = sharpness_witness(PositiveFunctional.trace(2), y, OmegaPair(1.0, 5.0))
    # x = (20, 10), y = (10, 0) under the vector state of e_1 attain the
    # additive matrix bound in the functional form (lhs = rhs = 10^4).
    state = FormInstance.functional_form(PositiveFunctional.vector_state(np.array([1.0, 0.0])))
    sharp = additive_matrix_bound(state, [20.0, 10.0], [10.0, 0.0], OmegaPair(1.0, 3.0))
    return {
        "ADD_MATRIX": sharp,
        "INT_ADD": integral_bounds(weighted).additive,
        "WEIGHTED_ADD": weighted_additive(weighted),
        "PS_ADD": polya_szego_additive(unit),
        "PS_IMPROVED": polya_szego_improved(unit).report,
        "ADD_FUNCTIONAL": witness.report,
    }


def test_tight_interior_instances_hold():
    for name, report in _tight_reports().items():
        assert report.verdict == HOLDS, name
        assert report.lhs > 1.0 and abs(report.margin) <= 1e-12 * report.lhs, name


def test_rhs_scaled_by_099_is_violated(monkeypatch):
    # The one scalar verdict rule and ADD_MATRIX's Loewner margin, fed a
    # rhs 1% too small, read VIOLATED on every tight instance: the
    # operand-size band does not hide it.
    original, original_leq = bounds._scalar_reports, bounds.loewner_leq

    def shrunk(inequality_id, lhs, rhs, tol, *args, **kwargs):
        return original(inequality_id, lhs, 0.99 * rhs, tol, *args, **kwargs)

    def shrunk_leq(a, b, tol, **kwargs):
        return original_leq(a, 0.99 * b, tol, **kwargs)

    monkeypatch.setattr(bounds, "_scalar_reports", shrunk)
    monkeypatch.setattr(bounds, "loewner_leq", shrunk_leq)
    for name, report in _tight_reports().items():
        assert report.verdict == VIOLATED, name



def _sequence_corpus():
    """(instance, its unit-weights twin): 50 drawn instances, seeds 0-49 at
    n = 4, 8 and 16 in turn, then the point-window instance."""
    for seed in range(50):
        g = stream(seed, 0)
        window = harness.sample_window(g, WINDOW_RANGE)
        data = harness.gen_bounded_sequences(SPACE_DIMS[seed % 3], window, g)
        yield data, WeightedSequences(data.a_seq, data.b_seq, np.ones(data.n), window)
    point = WeightedSequences.from_dict(POINT_SEQUENCES)
    yield point, point


def test_sequence_sides_agree_with_exact_arithmetic():
    # Each side of each sequence id within 1e-12 of the size it is formed from.
    units = ("PS_MULT", "PS_ADD", "PS_IMPROVED")
    with localcontext() as context:
        context.prec = 50
        for k, (weighted, unit) in enumerate(_sequence_corpus()):
            for target in ("INT_ADD", "INT_MULT", "GREUB_RHEINBOLDT", "WEIGHTED_ADD", *units):
                data = unit if target in units else weighted
                report = bounds._evaluate_one(target, data, DEFAULT_TOL)
                lhs, rhs, size = sequence_sides(target, data)
                exact = Decimal if target == "INT_MULT" else Fraction
                assert abs(exact(report.lhs) - lhs) <= exact(1e-12) * size, (k, target, "lhs")
                assert abs(exact(report.rhs) - rhs) <= exact(1e-12) * rhs, (k, target, "rhs")


@pytest.mark.parametrize("d", [1, 3])
def test_loewner_equal_operands_hold_at_a_zero_band(d):
    # b - a is exactly 0, so the margin is 0.0, alone and in a stack.
    m = np.arange(d * d).reshape(d, d) + 1j * np.cos(np.arange(d * d)).reshape(d, d)
    a = re_part(m)
    assert loewner_leq(a, a, ZERO_BAND) == (True, 0.0)
    stack = np.stack([a, -2.0 * a])
    holds, margin = loewner_leq(stack, stack, ZERO_BAND)
    assert holds.tolist() == [True, True] and margin.tolist() == [0.0, 0.0]


def test_additive_matrix_equality_holds_at_a_zero_band():
    # x = y = I and omega = Omega = 1: the lhs, the rhs and the Re term are
    # all exactly 0, so every margin sits at minus its band of 0.
    eye = np.eye(2)
    report = additive_matrix_bound(FormInstance.module_form(2), eye, eye, OmegaPair(1, 1), ZERO_BAND)
    assert report.verdict == HOLDS and report.margin == 0.0
