"""The functional ids against exact arithmetic (reference.functional_sides).

The corpus is 20 campaign trials of ADD_FUNCTIONAL and of MULT_FUNCTIONAL
at dims (1, 2, 4), each rebuilt by the public lone builder from its
stream, and the shipped functional instance files.  Each report's sides
lie within SIDE_ULPS units of double rounding of their size, its verdict
is the reference's wherever the reference margin is outside the verdict
band, and its window details are its instance's pair.
"""

import json
import os
from fractions import Fraction

import numpy as np

from rcsbounds import (
    DEFAULT_TOL,
    HOLDS,
    PRECONDITION_FAILED,
    VIOLATED,
    GeneratorConfig,
    OmegaPair,
    PositiveFunctional,
    functional_additive_bound,
    functional_multiplicative_bound,
    gen_re_valid_instance,
    run_trial,
)
from rcsbounds.rng import stream
from reference import functional_sides

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "docs", "instances")
BOUNDS = {
    "ADD_FUNCTIONAL": functional_additive_bound,
    "MULT_FUNCTIONAL": functional_multiplicative_bound,
}

# A side within SIDE_ULPS * eps of its size: phi(x*x) phi(y*y) for the
# additive lhs, |side| otherwise.  The largest seen is 7.1, over 1000
# trials of each id at dims (1, 2, 4) (seeds 0-49).
SIDE_ULPS = 32
EPS = Fraction(np.finfo(np.float64).eps)


def _campaign_corpus():
    """(label, report, instance) of 20 trials of each functional id, the
    instance rebuilt by gen_re_valid_instance from the trial's stream."""
    for target in BOUNDS:
        config = GeneratorConfig(seed=3, trials=20, dims=(1, 2, 4))
        for i in range(config.trials):
            g = stream(config.seed, i)
            d = config.dims[g.integers(len(config.dims))]
            form, x, y, pair = gen_re_valid_instance("functional", d, g)
            yield (target, i), run_trial(config, target, i), (form.functional, x, y, pair)


def _complex(node) -> np.ndarray:
    a = np.asarray(node, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _shipped_corpus():
    """(label, report, instance) of each shipped functional instance file."""
    for name in sorted(os.listdir(INSTANCES)):
        with open(os.path.join(INSTANCES, name), encoding="utf-8") as f:
            doc = json.load(f)
        if doc["target"] not in BOUNDS:
            continue
        phi = PositiveFunctional.from_dict(doc["form"]["functional"])
        pair = OmegaPair(*(complex(*doc["omega_pair"][k]) for k in ("omega", "Omega")))
        x, y = _complex(doc["x"]), _complex(doc["y"])
        yield (doc["target"], name), BOUNDS[doc["target"]](phi, x, y, pair), (phi, x, y, pair)


def test_functional_ids_agree_with_exact_arithmetic():
    shipped = 0
    for label, report, instance in [*_campaign_corpus(), *_shipped_corpus()]:
        target = label[0]
        lhs, rhs, size = functional_sides(target, *instance)
        assert abs(Fraction(report.lhs) - lhs) <= SIDE_ULPS * EPS * size, (label, "lhs")
        assert abs(Fraction(report.rhs) - rhs) <= SIDE_ULPS * EPS * abs(rhs), (label, "rhs")
        margin = rhs - lhs
        band = DEFAULT_TOL.band(float(max(abs(lhs), abs(rhs), size, 1)))
        if abs(margin) > band:
            if all(p.passed for p in report.preconditions):
                assert report.verdict == (HOLDS if margin > 0 else VIOLATED), label
            else:
                assert report.verdict == PRECONDITION_FAILED, label
                assert (report.margin > 0) == (margin > 0), label
        pair = instance[3]
        assert (report.details["omega"], report.details["Omega"]) == (pair.omega, pair.Omega), label
        shipped += isinstance(label[1], str)
    assert shipped == 5
