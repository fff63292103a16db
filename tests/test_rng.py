"""The stacked Philox draws of the windows against numpy's own Philox and
Generator: words, uniforms and bounded integers bit for bit, a rejected
row drawn by its lone builder on its restarted stream, and trials that do
not depend on the window they are drawn in.  The normals of the one draw
path: their law, their log against math.log, and no Generator method in
the package but random and integers."""

import ast
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from rcsbounds import GeneratorConfig, harness, rng, run_trial, run_trials
from rcsbounds.bounds import (
    ADD_FUNCTIONAL,
    ADD_MATRIX,
    GREUB_RHEINBOLDT,
    INT_ADD,
    MULT_FUNCTIONAL,
    OP_PAIR_ADD,
    PS_IMPROVED,
)
from rcsbounds.rng import stream

KEYS = (0, 1, 2**63, 2**64 - 1)
PACKAGE_DIR = Path(rng.__file__).parent


def _philox(seed, index):
    """numpy's Philox keyed as rng.stream keys it."""
    return np.random.Philox(key=np.array([seed, index], dtype=np.uint64))


@pytest.mark.parametrize("seed", KEYS)
def test_words_are_numpy_philox_words(seed):
    # Every word count from 1 to 60, so that the last block is cut at each
    # of its four words.
    for count in range(1, 61):
        words = rng._words(seed, KEYS, count)
        assert words.shape == (len(KEYS), count) and words.dtype == np.uint64
        for row, index in zip(words, KEYS):
            assert row.tolist() == _philox(seed, index).random_raw(count).tolist(), (index, count)


@pytest.mark.parametrize("size", [1, 255, 256, 257])
def test_windows_of_words_and_uniforms(size):
    # Windows around the wrap of the index at 2^64 and the keys' wrap in
    # the rounds (seed 2^64 - 1), and their uniforms as g.random draws them,
    # also when a pass holds one row at a time.
    seed = 2**64 - 1
    indices = [(2**64 - 1 - k) if k % 2 else k for k in range(size)]
    words = rng._words(seed, indices, 7)
    uniforms = rng._uniforms(seed, indices, 7)
    for k, index in enumerate(indices):
        assert words[k].tolist() == _philox(seed, index).random_raw(7).tolist(), index
        assert uniforms[k].tobytes() == stream(seed, index).random(7).tobytes(), index


def test_uniforms_in_passes_of_bounded_blocks(monkeypatch):
    monkeypatch.setattr(rng, "_PASS_BLOCKS", 3)
    for count in (1, 12, 13, 40):  # 1, 1, 1 and 0 rows per pass (at least 1)
        got = rng._uniforms(5, range(9), count)
        for i in range(9):
            assert got[i].tobytes() == stream(5, i).random(count).tobytes(), (count, i)


@pytest.mark.parametrize("seed", KEYS)
def test_integers_are_generator_integers(seed):
    # One or two bounded draws from word 0, each g.integers(k) of the
    # stream: a bound of 1 draws nothing, the first draw takes the low half
    # and the second the high half of the word, and every later word is
    # where g.random finds it.
    indices = list(range(200)) + [2**64 - 1 - k for k in range(56)]
    words = rng._words(seed, indices, 3)
    for bounds in [(k,) for k in (1, 2, 3, 4)] + [(4, 3), (1, 3), (3, 2), (2, 1)]:
        values, accepted = rng._integers(words[:, 0], bounds)
        assert accepted.all()
        for k, index in enumerate(indices):
            g = stream(seed, index)
            assert [int(v[k]) for v in values] == [int(g.integers(b)) for b in bounds]
            skipped = 0 if bounds == (1,) else 1
            assert g.random(2).tobytes() == rng._unit(words[k, skipped : skipped + 2]).tobytes()


def _generator_at(word):
    """A Generator whose next 64-bit word is word."""
    g = np.random.Generator(np.random.Philox(0))
    state = g.bit_generator.state
    state["buffer"][:] = word, 1, 2, 3
    state["buffer_pos"] = 0
    g.bit_generator.state = state
    return g


def test_a_rejected_half_is_a_rejected_row():
    # For k = 3 a 32-bit half of 0 leaves a remainder below (2^32 - 3) mod 3
    # = 1: Lemire's method draws again (numpy takes the next half), and
    # _integers marks the row as rejected.  Other halves, 0xAAAAAAAB whose
    # remainder is exactly 1 among them, are accepted and give numpy's value.
    edge = 0xAAAAAAAB  # 3 * edge = 2^33 + 1
    crafted = np.array([0, 5 << 32, 7, 2**64 - 1, edge, edge << 32], dtype=np.uint64)
    values, accepted = rng._integers(crafted, (3,))
    assert accepted.tolist() == [False, False, True, True, True, False]
    for k, word in enumerate(crafted.tolist()):
        g = _generator_at(word)
        value = int(g.integers(3))
        # numpy took the low half alone, and kept the high half, exactly
        # where _integers accepts the row.
        state = g.bit_generator.state
        one_half = state["buffer_pos"] == 1 and state["has_uint32"] == 1
        assert one_half == accepted[k], word
        if accepted[k]:
            assert value == int(values[0][k])
    # A second draw from a zero high half is rejected as well.
    _, accepted = rng._integers(crafted, (4, 3))
    assert accepted.tolist() == [False, True, False, True, False, True]


@pytest.mark.parametrize(
    "inequality_id, bounds, dims",
    [(INT_ADD, (3,), None), (PS_IMPROVED, (3,), None), (ADD_FUNCTIONAL, (2, 3), (1, 4))],
)
def test_rejected_row_is_drawn_from_its_own_stream(monkeypatch, inequality_id, bounds, dims):
    # Word 0 of a trial whose bounded draws are all nonzero is made one that
    # Lemire's method rejects, a zero half in place of each draw, which
    # would draw zeros: that trial is drawn by its lone builder on its
    # restarted stream, whose true word is accepted, so every report is
    # unchanged.
    config = GeneratorConfig(seed=2**64 - 1, trials=40, **({"dims": dims} if dims else {}))
    expected = [r.to_dict() for r in run_trials(config, inequality_id, range(config.trials))]
    target = next(i for i in range(config.trials) if all(stream(config.seed, i).integers(bounds)))
    original = rng._words
    drawn = []

    def crafted(seed, indices, count):
        words = original(seed, indices, count)
        indices = list(indices)
        if target in indices:
            k = indices.index(target)
            words[k, 0] &= np.uint64(0xFFFFFFFF << 32) if len(bounds) == 1 else np.uint64(0)
        return words

    def counted(values, bounds_):
        values, accepted = rng._integers(values, bounds_)
        drawn.append(int(np.count_nonzero(~accepted)))
        return values, accepted

    monkeypatch.setattr(harness, "_words", crafted)
    monkeypatch.setattr(harness, "_integers", counted)
    got = [r.to_dict() for r in run_trials(config, inequality_id, range(config.trials))]
    assert sum(drawn) == 1
    assert got == expected


@pytest.mark.parametrize(
    "inequality_id",
    [INT_ADD, GREUB_RHEINBOLDT, PS_IMPROVED, ADD_FUNCTIONAL, MULT_FUNCTIONAL, ADD_MATRIX, OP_PAIR_ADD],
)
def test_a_trial_does_not_depend_on_its_window(inequality_id):
    # The same trial drawn in windows of other compositions and sizes, one
    # trial to 17, and alone by run_trial, gives the campaign's report bit
    # for bit.
    config = GeneratorConfig(seed=2**63 + 5, trials=600)
    campaign = run_trials(config, inequality_id, range(config.trials))
    mixed = [599, 3, 256, 255, 0, 511, 300, 257]
    for i, report in zip(mixed, run_trials(config, inequality_id, mixed)):
        assert report.to_dict() == campaign[i].to_dict(), i
    for size in (1, 2, 15, 16, 17):
        window = [(37 * j + 11 * size) % config.trials for j in range(size)]
        for i, report in zip(window, run_trials(config, inequality_id, window)):
            assert report.to_dict() == campaign[i].to_dict(), (size, i)
    backwards = run_trials(config, inequality_id, range(config.trials - 1, -1, -1))
    assert [r.to_dict() for r in backwards[::-1]] == [r.to_dict() for r in campaign]
    for i in (0, 255, 256, 599):
        assert run_trial(config, inequality_id, i).to_dict() == campaign[i].to_dict(), i


def test_normals_follow_the_standard_normal_law():
    # 10^6 normals of stacked uniforms: mean, variance, skewness and excess
    # kurtosis within 5 standard errors of the standard normal's, and a
    # Kolmogorov-Smirnov distance below its 0.1% critical value.
    z = rng._normals(rng._uniforms(7, range(1000), 1000)).ravel()
    n = z.size
    centred = z - z.mean()
    var = np.mean(centred**2)
    moments = [
        (z.mean(), 0.0, 1.0),
        (var, 1.0, 2.0),
        (np.mean(centred**3) / var**1.5, 0.0, 6.0),
        (np.mean(centred**4) / var**2 - 3.0, 0.0, 24.0),
    ]
    for k, (value, expected, n_var) in enumerate(moments):
        assert abs(value - expected) <= 5.0 * math.sqrt(n_var / n), (k, value)
    cdf = np.fromiter(map(NormalDist().cdf, np.sort(z).tolist()), dtype=float, count=n)
    steps = np.arange(1, n + 1) / n
    distance = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n)))
    assert distance * math.sqrt(n) < 1.95, distance


def test_normals_are_a_function_of_their_pair():
    # Each normal depends on its pair of uniforms alone, whatever the shape
    # it is drawn in, and a pair (u, v) gives r cos and r sin of 2 pi v.
    u = rng._uniforms(9, range(40), 26)
    z = rng._normals(u)
    for k in range(0, 26, 2):
        assert z[:, k : k + 2].tobytes() == rng._normals(u[:, k : k + 2]).tobytes()
        assert z[3, k : k + 2].tobytes() == rng._normals(u[3, k : k + 2]).tobytes()
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    assert np.allclose(z[:, 0::2], r * np.cos(2 * np.pi * u[:, 1::2]), rtol=1e-14, atol=1e-14)
    assert rng._normals(np.zeros((1, 2))).tolist() == [[0.0, 0.0]]


def test_log_is_math_log():
    # Within 5e-16 of math.log, relative, on uniforms' complements and on
    # the ends of (0, 1]: 2^-53, the least one, and 1 - 2^-53 and 1.
    x = 1.0 - rng._uniforms(3, range(20), 1000).ravel()
    x = np.concatenate([x, [2.0**-53, 0.5, math.sqrt(0.5), 1.0 - 2.0**-53, 1.0]])
    reference = np.array([math.log(v) for v in x.tolist()])
    assert np.all(np.abs(rng._log(x) - reference) <= 5e-16 * np.abs(reference))


# The attributes of a Generator the package may not use: every public one
# but random and integers (bit_generator among them), and raw words.
FORBIDDEN = {name for name in dir(np.random.Generator) if not name.startswith("_")}
FORBIDDEN = FORBIDDEN - {"random", "integers"} | {"random_raw"}


def test_package_draws_only_uniforms_and_integers():
    # One draw path: no module of the package takes a Generator attribute
    # but random and integers (numpy's own functions, np.<name>, aside).
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
                if getattr(node.value, "id", None) != "np":
                    found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == []
