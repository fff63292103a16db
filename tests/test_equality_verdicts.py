"""Verdicts at equality: a lhs that cancels is judged at the size it cancels from.

The additive sequence bounds (INT_ADD, WEIGHTED_ADD, PS_ADD, PS_IMPROVED)
form their lhs as sum(w a^2) sum(w b^2) - (sum(w a b))^2, and ADD_FUNCTIONAL
as phi(x*x) phi(y*y) - |phi(y*x)|^2.  Where the true lhs and rhs are both 0,
rounding leaves a lhs of about 1e-16 times those products, which must not
read as a violation; a rhs made 1% too small must still read as one.
"""

import json

import numpy as np
import pytest

from rcsbounds import bounds, cli
from rcsbounds.bounds import (
    HOLDS,
    VIOLATED,
    ScalarWindow,
    WeightedSequences,
    functional_additive_bound,
    integral_bounds,
    polya_szego_additive,
    polya_szego_improved,
    sharpness_witness,
    weighted_additive,
)
from rcsbounds.forms import OmegaPair, PositiveFunctional
from rcsbounds.rng import stream

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
    return {
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
    # The one scalar verdict rule, fed a rhs 1% too small, reads VIOLATED on
    # every tight instance: the operand-size band does not hide it.
    original = bounds._scalar_reports

    def shrunk(inequality_id, lhs, rhs, tol, *args, **kwargs):
        return original(inequality_id, lhs, 0.99 * rhs, tol, *args, **kwargs)

    monkeypatch.setattr(bounds, "_scalar_reports", shrunk)
    for name, report in _tight_reports().items():
        assert report.verdict == VIOLATED, name
