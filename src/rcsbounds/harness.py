"""Randomized instance generators, independent oracles, and the fuzz loop.

Determinism contract: every trial draws from a Philox stream keyed by
(seed, trial_index), so a trial's outcome depends only on the
configuration and its index, never on execution order.  Replaying one
trial reproduces its report bit for bit, and summaries aggregated over
trials are schedule-independent.

Batch invariant: run_trials draws each trial of a window once, groups the
drawn trials by the dimension each carries (d, or the sequence length n)
and passes each group to the id's one evaluator as a batch.  Every
evaluator works on the whole batch at once (stacked kernel calls and
form values, row reductions) and treats each instance on its own, so a
trial's outcome is also independent of which other trials share its
batch.  A group that fails a hypothesis is evaluated again member by
member from the same draws, and run_trial, a batch of one, replays a
trial bit for bit.

Module instances: a "form" trial's commuting pair x = U diag(lam_t) U*,
y = U diag(lam_s) U* comes with the Haar unitary U it was built in, and
its window's eigensolve of x starts in U (_module_instances), so it takes
a fraction of a sweep instead of a cold solve.  The window pair is part of
the instance, which gen_re_valid_instance("module") builds the same way.
The evaluators never see U: each report is a function of its instance
alone, as verify on an instance file computes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import (
    _REGISTRY,
    HOLDS,
    HYPOTHESIS_ERRORS,
    PRECONDITION_FAILED,
    BoundReport,
    ScalarWindow,
    WeightedSequences,
    _Inequality,
    precondition_failed_report,
)
from .forms import (
    FormError,
    FormInstance,
    OmegaPair,
    PositiveFunctional,
    _re_term,
    _spectral_window,
    _window_pairs,
)
from .matalg import (
    DEFAULT_TOL,
    NotHermitianError,
    Tolerance,
    as_element,
    frobenius,
    re_part,
)
from .rng import _check_key, stream, streams

__all__ = [
    "REJECTION_CAP",
    "RejectionCapExceededError",
    "DimTooLargeError",
    "GeneratorConfig",
    "FuzzSummary",
    "gen_random_unitary",
    "gen_commuting_positive_pair",
    "gen_bounded_sequences",
    "gen_re_valid_instance",
    "gen_argmin_families",
    "oracle_psd_minors",
    "sample_window",
    "run_trials",
    "run_trial",
    "fuzz_run",
]

REJECTION_CAP = 1000

# Trials evaluated together by run_trials: at most this many instances
# are held and stacked at once, whatever the campaign's trial count.
TRIAL_WINDOW = 64

# The sequence lengths, the range of the scalar windows' endpoints, and the
# range of the eigenvalues of the commuting positive pairs that trials draw.
SPACE_DIMS = (4, 8, 16)
WINDOW_RANGE = (0.1, 10.0)
SPECTRUM_RANGE = (0.1, 10.0)

RngLike = Union[int, np.random.Generator]


class RejectionCapExceededError(FormError):
    """Rejection sampling failed to produce an admissible instance."""


class DimTooLargeError(Exception):
    """The exact-minor oracle only supports d <= 4."""


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(int(rng), 0)


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration shared by all fuzz generators: dims feeds the
    matrix-algebra instances."""

    seed: int = 0
    trials: int = 1000
    dims: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self) -> None:
        _check_key("seed", self.seed)
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if not self.dims or any(not 1 <= d <= 16 for d in self.dims):
            raise ValueError("dims must be a nonempty tuple of values in 1..16")


def _gaussian(d: int, g: np.random.Generator) -> np.ndarray:
    """A d x d standard complex Gaussian matrix drawn from g."""
    return (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / np.sqrt(2.0)


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from an (N, d, d) stack of complex
    Gaussians: one stacked QR, with the phases of R's diagonal moved into
    Q so that the distribution is Haar."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    phases = np.where(np.abs(diag) > 0.0, diag / np.abs(diag), 1.0)
    return q * phases[:, None, :]


def gen_random_unitary(d: int, rng: RngLike = 0) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Gaussian matrix."""
    return _unitaries(_gaussian(d, _as_rng(rng))[None])[0]


def _pair_draw(d: int, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws from g behind one commuting positive pair of dimension
    d, in this order: the Gaussian of its eigenbasis and its two spectra."""
    z = _gaussian(d, g)
    return z, g.uniform(*SPECTRUM_RANGE, size=d), g.uniform(*SPECTRUM_RANGE, size=d)


def _commuting_pairs(
    z: np.ndarray, lam_t: np.ndarray, lam_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unitaries U = _unitaries(z) and the commuting pairs
    t = U diag(lam_t) U*, s = U diag(lam_s) U* built in them, from stacked
    _pair_draw draws: (N, d, d) Gaussians and (N, d) spectra.  Every
    operation is stacked and acts on each slice alone, so slice k equals
    the pair built from draw k alone."""
    u = _unitaries(z)
    uh = u.conj().swapaxes(1, 2)
    return u, re_part((u * lam_t[:, None, :]) @ uh), re_part((u * lam_s[:, None, :]) @ uh)


def _module_instances(
    z: np.ndarray, lam_t: np.ndarray, lam_s: np.ndarray, tol: Tolerance
) -> list:
    """The module-form instances of stacked _pair_draw draws, as the "form"
    batch columns (forms, x, y, pairs): x and y the commuting pairs of
    _commuting_pairs and the window pairs of their spectra at band tol,
    checked as omega_from_spectra checks them.  The window's eigensolve of
    x starts in the unitaries x and y were built in, which diagonalize
    both to roundoff, so it takes a fraction of a sweep; each slice is
    still decomposed, checked and decided on its own."""
    u, x, y = _commuting_pairs(z, lam_t, lam_s)
    pairs = _window_pairs(*_spectral_window(x, y, tol, start=u))
    return [[FormInstance.module_form(x.shape[-1])] * len(x), x, y, pairs]


def gen_commuting_positive_pair(d: int, rng: RngLike = 0) -> tuple[np.ndarray, np.ndarray]:
    """Commuting strictly positive pair sharing a random eigenbasis, with
    eigenvalues in SPECTRUM_RANGE: the pair of one _pair_draw."""
    _, t, s = _commuting_pairs(*(a[None] for a in _pair_draw(d, _as_rng(rng))))
    return t[0], s[0]


def gen_bounded_sequences(
    n: int, window: ScalarWindow, rng: RngLike = 0
) -> WeightedSequences:
    """Random sequences inside the window with weights in (0, 1].

    For n >= 4 the first four positions pin the window endpoints so each
    of a, A, b, B is attained.
    """
    return WeightedSequences(*_sequence_arrays(n, window, _as_rng(rng)), window)


def _sequence_arrays(n: int, window: ScalarWindow, g: np.random.Generator) -> tuple:
    """The unchecked (a_seq, b_seq, w_seq) of gen_bounded_sequences, drawn from g."""
    a_seq = g.uniform(window.a, window.A, size=n)
    b_seq = g.uniform(window.b, window.B, size=n)
    w_seq = 1.0 - g.uniform(0.0, 1.0, size=n)
    if n >= 4:
        a_seq[0] = window.a
        a_seq[1] = window.A
        b_seq[2] = window.b
        b_seq[3] = window.B
    return a_seq, b_seq, w_seq


def _random_functional(d: int, g: np.random.Generator) -> PositiveFunctional:
    kind = g.integers(0, 3)
    if kind == 0:
        x0 = g.standard_normal(d) + 1j * g.standard_normal(d)
        return PositiveFunctional.vector_state(x0 / np.linalg.norm(x0))
    if kind == 1:
        return PositiveFunctional.trace(d)
    return PositiveFunctional.weighted_sum(g.uniform(0.2, 2.0, size=d))


def gen_re_valid_instance(
    kind: str,
    d: int,
    rng: RngLike = 0,
    cap: int = REJECTION_CAP,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[FormInstance, np.ndarray, np.ndarray, OmegaPair]:
    """Instance (form, x, y, pair) satisfying the Re hypothesis.

    kind = "module": commuting strictly positive x, y over M_d with the
    window pair read off their spectra, built as a campaign builds its
    module instances (_module_instances).

    kind = "functional": a random positive functional with x sampled in
    the disk spanned by (omega, Omega) around y plus a small admissible
    perturbation, resampled until the Re check passes (cap attempts, then
    RejectionCapExceededError).  The window pair always satisfies
    Re(conj(omega) * Omega) > 0.

    tol is the band of the window and Re checks.
    """
    g = _as_rng(rng)
    if kind == "module":
        forms, x, y, pairs = _module_instances(*(a[None] for a in _pair_draw(d, g)), tol)
        return forms[0], x[0], y[0], pairs[0]
    if kind != "functional":
        raise ValueError(f"unknown instance kind {kind!r}")

    phi = _random_functional(d, g)
    form = FormInstance.functional_form(phi)

    def gaussian_matrix() -> np.ndarray:
        return g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))

    def phi_norm2(m: np.ndarray) -> float:
        return phi._value(m.conj().T @ m).real

    y = gaussian_matrix()
    while phi_norm2(y) < 1e-8:
        y = gaussian_matrix()
    fyy = phi_norm2(y)

    lam_mod = g.uniform(0.5, 2.0)
    lam = lam_mod * np.exp(1j * g.uniform(0.0, 2 * np.pi))
    radius = g.uniform(0.1, 0.9) * lam_mod
    c = radius * np.exp(1j * g.uniform(0.0, 2 * np.pi))
    pair = OmegaPair(omega=complex(lam - c), Omega=complex(lam + c))

    for _ in range(cap):
        p = gaussian_matrix()
        fpp = phi_norm2(p)
        if fpp < 1e-12:
            continue
        rho = g.uniform(0.0, 0.9)
        p = p * np.sqrt(rho * radius**2 * fyy / fpp)
        x = lam * y + p
        # check_re_condition on arrays built here: the 1 x 1 Re term holds
        # when its value is at least -band at the scale max(|value|, 1).
        re = _re_term([form], x[None], y[None], [pair])[0, 0, 0].real
        if re >= -tol.band(max(abs(re), 1.0)):
            return form, x, y, pair
    raise RejectionCapExceededError(
        f"no admissible x found in {cap} attempts (kind=functional, d={d})"
    )


def gen_argmin_families(n: int) -> list[tuple[str, WeightedSequences]]:
    """Three unweighted families, one per least constant of the refined bound.

    family_c2 pins every a_i at the top of [1, n] and every b_i at the
    degenerate window [1/n, 1/n]; family_c1 mirrors it; family_c3 pairs a
    rising ramp with its reversal so the balance condition
    sum(a^2)/(Aa) = sum(b^2)/(Bb) holds while the plain Cauchy-Schwarz
    inequality stays strict.
    """
    if n < 2:
        raise ValueError("families need n >= 2")
    ones = np.ones(n)
    inv = 1.0 / n
    fam_c2 = WeightedSequences(
        np.full(n, float(n)), np.full(n, inv), ones, ScalarWindow(1.0, float(n), inv, inv)
    )
    fam_c1 = WeightedSequences(
        np.full(n, inv), np.full(n, float(n)), ones, ScalarWindow(inv, inv, 1.0, float(n))
    )
    ramp = np.linspace(1.0, 2.0, n)
    fam_c3 = WeightedSequences(
        ramp, ramp[::-1].copy(), ones, ScalarWindow(1.0, 2.0, 1.0, 2.0)
    )
    return [("family_c2", fam_c2), ("family_c1", fam_c1), ("family_c3", fam_c3)]


def _det_cofactor(m: list[list[complex]]) -> complex:
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0 + 0j
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * _det_cofactor(minor)
    return total


def oracle_psd_minors(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact-minor positive-semidefiniteness oracle for d <= 4.

    Checks the real parts of all principal minors computed by cofactor
    expansion, allowing -1e-12 * max(1, ||a||_F)^k slack for a k x k
    minor.  Independent of the Jacobi eigensolver.
    """
    m = as_element(a)
    d = m.shape[0]
    if d > 4:
        raise DimTooLargeError(f"minor oracle supports d <= 4, got {d}")
    defect = float(np.linalg.norm(m - m.conj().T))
    if defect > tol.band(frobenius(m)):
        raise NotHermitianError("minor oracle requires a Hermitian matrix")
    base = max(1.0, frobenius(m))
    for k in range(1, d + 1):
        for subset in itertools.combinations(range(d), k):
            sub = [[complex(m[i, j]) for j in subset] for i in subset]
            det = _det_cofactor(sub).real
            if det < -1e-12 * base**k:
                return False
    return True


@dataclass(frozen=True)
class FuzzSummary:
    """Aggregate of one fuzz run.

    worst_seed is the trial index attaining the least margin; together
    with the configured seed it keys the Philox stream that reproduces
    the trial.
    """

    inequality_id: str
    seed: int
    trials_run: int
    holds: int
    violated: int
    precondition_failed: int
    worst_margin: Optional[float]
    worst_seed: Optional[int]

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "seed": self.seed,
            "trials_run": self.trials_run,
            "holds": self.holds,
            "violated": self.violated,
            "precondition_failed": self.precondition_failed,
            "worst_margin": self.worst_margin,
            "worst_seed": self.worst_seed,
        }


def sample_window(g: np.random.Generator, window_range: tuple[float, float]) -> ScalarWindow:
    """Random scalar window with both intervals inside window_range."""
    lo, hi = window_range
    a_lo, a_hi = sorted(g.uniform(lo, hi, size=2).tolist())
    b_lo, b_hi = sorted(g.uniform(lo, hi, size=2).tolist())
    return ScalarWindow(a_lo, a_hi, b_lo, b_hi)


def _entry(inequality_id: str) -> _Inequality:
    """The registry entry of inequality_id; ValueError for an unknown id."""
    if inequality_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown inequality id {inequality_id!r}; known: {known}")
    return _REGISTRY[inequality_id]


def _sequence_draw(g: np.random.Generator, n: int, unit_weights: bool) -> tuple:
    """Sequences of length n in a random window, drawn from g, as one row
    (a_seq, b_seq, w_seq, window) of a "sequences" batch; every weight 1
    when unit_weights.  The row is unchecked: the evaluator checks its
    whole batch at once."""
    window = sample_window(g, WINDOW_RANGE)
    a_seq, b_seq, w_seq = _sequence_arrays(n, window, g)
    return a_seq, b_seq, np.ones(n) if unit_weights else w_seq, window


def _draw(
    config: GeneratorConfig, entry: _Inequality, g: np.random.Generator, tol: Tolerance
) -> tuple:
    """One trial's instance for the payload kind of a registry entry, drawn
    from the trial's stream g: its dimension (d, or the sequence length n)
    and its row of the evaluator's batch.

    A "form" row is the _pair_draw of the commuting strictly positive
    pair (t, s) that is x and y of gen_re_valid_instance("module"); _batch
    builds the instances as that generator does (_module_instances).  An
    "operator_pair" row is that _pair_draw followed by the vector v.
    """
    if entry.payload == "sequences":
        n = int(SPACE_DIMS[g.integers(len(SPACE_DIMS))])
        return n, _sequence_draw(g, n, entry.unit_weights)
    d = int(config.dims[g.integers(len(config.dims))])
    if entry.payload == "functional_form":
        return d, gen_re_valid_instance("functional", d, g, tol=tol)
    pair = _pair_draw(d, g)
    if entry.payload == "form":
        return d, pair
    v = g.standard_normal(d) + 1j * g.standard_normal(d)
    while np.linalg.norm(v) < 1e-6:
        v = g.standard_normal(d) + 1j * g.standard_normal(d)
    return d, (*pair, v)


def _batch(entry: _Inequality, rows: Sequence, tol: Tolerance) -> list:
    """The evaluator's batch of drawn rows of one dimension: each column
    stacked into one array, or a list of its forms, windows or pairs.  A
    "form" or "operator_pair" batch builds its commuting pairs from their
    stacked draws at once; a "form" batch is its module instances
    (_module_instances)."""
    columns = [np.stack(c) if isinstance(c[0], np.ndarray) else list(c) for c in zip(*rows)]
    if entry.payload == "form":
        return _module_instances(*columns, tol)
    if entry.payload == "operator_pair":
        return [*_commuting_pairs(*columns[:3])[1:], columns[3]]
    return columns


def _group_reports(
    inequality_id: str, entry: _Inequality, rows: Sequence, tol: Tolerance
) -> list[BoundReport]:
    """The reports of a group of drawn rows of one dimension, evaluated as
    one batch.  A group of one that fails a hypothesis (one of
    HYPOTHESIS_ERRORS) gets its precondition_failed_report; a larger one
    evaluates each member alone from its row.  Any other exception
    propagates."""
    try:
        return list(entry.evaluate(_batch(entry, rows, tol), tol))
    except HYPOTHESIS_ERRORS as exc:
        if len(rows) == 1:
            return [precondition_failed_report(inequality_id, exc)]
    # Some member failed a hypothesis: each is evaluated alone.
    return [r for row in rows for r in _group_reports(inequality_id, entry, [row], tol)]


def run_trials(
    config: GeneratorConfig,
    inequality_id: str,
    indices,
    tol: Tolerance = DEFAULT_TOL,
) -> list[BoundReport]:
    """Evaluate the fuzz trials with the given indices, one report each, in order.

    A trial is a pure function of (config, id, trial_index, tol): it draws
    from the Philox stream keyed by (seed, trial_index), and tol is the
    band of the generators' window and Re checks and of the evaluator.  A
    trial whose instance fails a hypothesis at band tol (one of
    HYPOTHESIS_ERRORS, raised by its generator or its evaluator) gets its
    precondition_failed_report; any other exception propagates.  An index
    outside 0..config.trials - 1 is a ValueError.

    The indices are taken TRIAL_WINDOW at a time, and each trial of a window
    is drawn once.  The drawn trials are grouped by the dimension each
    carries, and each group is one batch of the id's evaluator; a group
    that fails a hypothesis evaluates its members alone from the same
    draws, and no other group is evaluated again.  The evaluators treat
    each instance of a batch on its own (see matalg for the stacked kernel
    calls), so a report is bit-equal whatever other indices share its
    window.
    """
    entry = _entry(inequality_id)
    indices = [int(i) for i in indices]
    for i in indices:
        if not 0 <= i < config.trials:
            raise ValueError(f"trial index {i} is outside the trials 0..{config.trials - 1}")
    reports: list[BoundReport] = []
    for start in range(0, len(indices), TRIAL_WINDOW):
        window = indices[start : start + TRIAL_WINDOW]
        out: list[BoundReport] = [None] * len(window)
        groups: dict[int, list] = {}  # by dimension
        for k, g in enumerate(streams(config.seed, window)):
            try:
                dim, row = _draw(config, entry, g, tol)
            except HYPOTHESIS_ERRORS as exc:
                out[k] = precondition_failed_report(inequality_id, exc)
                continue
            groups.setdefault(dim, []).append((k, row))
        for _, members in sorted(groups.items()):
            positions, rows = zip(*members)
            for k, report in zip(positions, _group_reports(inequality_id, entry, rows, tol)):
                out[k] = report
        reports += out
    return reports


def run_trial(
    config: GeneratorConfig,
    inequality_id: str,
    trial_index: int,
    tol: Tolerance = DEFAULT_TOL,
) -> BoundReport:
    """Evaluate one fuzz trial: run_trials for the single index."""
    return run_trials(config, inequality_id, [trial_index], tol)[0]


def fuzz_run(
    config: GeneratorConfig, inequality_id: str, tol: Tolerance = DEFAULT_TOL
) -> FuzzSummary:
    """Run config.trials independent trials at band tol and aggregate verdicts.

    The aggregation (counts, least margin, lowest tying trial index) is
    invariant under any reordering of the trials.  A trial whose instance
    fails a hypothesis at band tol (for example a generator reaching its
    rejection cap, or a pair failing its commutation or strict-positivity
    check) counts as a precondition failure.  Trials run through
    run_trials a window at a time, so memory does not grow with
    config.trials.
    """
    _entry(inequality_id)  # an unknown id is an error also when config.trials is 0
    holds = violated = precondition_failed = 0
    worst: Optional[tuple[float, int]] = None
    for start in range(0, config.trials, TRIAL_WINDOW):
        indices = range(start, min(start + TRIAL_WINDOW, config.trials))
        for i, report in zip(indices, run_trials(config, inequality_id, indices, tol)):
            if report.verdict == PRECONDITION_FAILED:
                precondition_failed += 1
                continue
            if report.verdict == HOLDS:
                holds += 1
            else:
                violated += 1
            candidate = (report.margin, i)
            if worst is None or candidate < worst:
                worst = candidate
    return FuzzSummary(
        inequality_id=inequality_id,
        seed=config.seed,
        trials_run=config.trials,
        holds=holds,
        violated=violated,
        precondition_failed=precondition_failed,
        worst_margin=None if worst is None else worst[0],
        worst_seed=None if worst is None else worst[1],
    )
