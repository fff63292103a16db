"""Randomized instance generators, independent oracles, and the fuzz loop.

Determinism contract: every trial draws from a Philox stream keyed by
(seed, trial_index), so a trial's outcome depends only on the
configuration and its index, never on execution order.  Replaying one
trial reproduces its report bit for bit, and summaries aggregated over
trials are schedule-independent.

Batch invariant: run_trials evaluates the matrix and operator-pair trials
of a window in stacked kernel calls, and every stacked call treats each
instance on its own, so a trial's outcome is also independent of which
other trials share its batch; run_trial, a batch of one, replays it bit
for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .bounds import (
    _REGISTRY,
    HOLDS,
    PRECONDITION_FAILED,
    BoundReport,
    ScalarWindow,
    WeightedSequences,
    _Inequality,
)
from .forms import (
    FormError,
    FormInstance,
    OmegaPair,
    PositiveFunctional,
    check_re_condition,
    omega_from_spectra,
)
from .matalg import (
    DEFAULT_TOL,
    NotHermitianError,
    Tolerance,
    as_element,
    frobenius,
    re_part,
)
from .rng import stream

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

RngLike = Union[int, np.random.Generator]


class RejectionCapExceededError(Exception):
    """Rejection sampling failed to produce an admissible instance."""


class DimTooLargeError(Exception):
    """The exact-minor oracle only supports d <= 4."""


# Raised by a generator that finds no instance meeting the hypotheses:
# the trial counts as a precondition failure.
_PRECONDITION_ERRORS = (RejectionCapExceededError, FormError)
TrialOutcome = Union[BoundReport, RejectionCapExceededError, FormError]


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(int(rng), 0)


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration shared by all fuzz generators.

    dims feeds the matrix-algebra instances, space_dims the sequence
    lengths, window_range the scalar windows, and spectrum_range the
    eigenvalue samples for commuting positive pairs.
    """

    seed: int = 0
    trials: int = 1000
    dims: tuple[int, ...] = (1, 2, 4, 8)
    space_dims: tuple[int, ...] = (4, 8, 16)
    window_range: tuple[float, float] = (0.1, 10.0)
    spectrum_range: tuple[float, float] = (0.1, 10.0)

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if not self.dims or any(not 1 <= d <= 16 for d in self.dims):
            raise ValueError("dims must be a nonempty tuple of values in 1..16")
        if not self.space_dims or any(n < 1 for n in self.space_dims):
            raise ValueError("space_dims must be a nonempty tuple of positive values")
        for name, rng_pair in (
            ("window_range", self.window_range),
            ("spectrum_range", self.spectrum_range),
        ):
            lo, hi = rng_pair
            if not 0.0 < lo <= hi:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi")


def gen_random_unitary(d: int, rng: RngLike = 0) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Gaussian matrix."""
    g = _as_rng(rng)
    z = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    phases = np.where(np.abs(diag) > 0.0, diag / np.abs(diag), 1.0)
    return q * phases


def gen_commuting_positive_pair(
    d: int,
    rng: RngLike = 0,
    spectrum_range: tuple[float, float] = (0.1, 10.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Commuting strictly positive pair sharing a random eigenbasis."""
    g = _as_rng(rng)
    u = gen_random_unitary(d, g)
    lam_t = g.uniform(spectrum_range[0], spectrum_range[1], size=d)
    lam_s = g.uniform(spectrum_range[0], spectrum_range[1], size=d)
    t = re_part((u * lam_t) @ u.conj().T)
    s = re_part((u * lam_s) @ u.conj().T)
    return t, s


def gen_bounded_sequences(
    n: int, window: ScalarWindow, rng: RngLike = 0
) -> WeightedSequences:
    """Random sequences inside the window with weights in (0, 1].

    For n >= 4 the first four positions pin the window endpoints so each
    of a, A, b, B is attained.
    """
    g = _as_rng(rng)
    a_seq = g.uniform(window.a, window.A, size=n)
    b_seq = g.uniform(window.b, window.B, size=n)
    w_seq = 1.0 - g.uniform(0.0, 1.0, size=n)
    if n >= 4:
        a_seq[0] = window.a
        a_seq[1] = window.A
        b_seq[2] = window.b
        b_seq[3] = window.B
    return WeightedSequences(a_seq, b_seq, w_seq, window)


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
    spectrum_range: tuple[float, float] = (0.1, 10.0),
    cap: int = REJECTION_CAP,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[FormInstance, np.ndarray, np.ndarray, OmegaPair]:
    """Instance (form, x, y, pair) satisfying the Re hypothesis.

    kind = "module": commuting strictly positive x, y over M_d with the
    window pair read off their spectra.

    kind = "functional": a random positive functional with x sampled in
    the disk spanned by (omega, Omega) around y plus a small admissible
    perturbation, resampled until the Re check passes (cap attempts, then
    RejectionCapExceededError).  The window pair always satisfies
    Re(conj(omega) * Omega) > 0.

    tol is the band of the window and Re checks.
    """
    g = _as_rng(rng)
    if kind == "module":
        t, s = gen_commuting_positive_pair(d, g, spectrum_range)
        form, pairs = _module_windows(t[None], s[None], tol)
        return form, t, s, pairs[0]
    if kind != "functional":
        raise ValueError(f"unknown instance kind {kind!r}")

    phi = _random_functional(d, g)
    form = FormInstance.functional_form(phi)

    def gaussian_matrix() -> np.ndarray:
        return g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))

    def phi_norm2(m: np.ndarray) -> float:
        return phi.value(m.conj().T @ m).real

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
        ok, _ = check_re_condition(form, x, y, pair, tol)
        if ok:
            return form, x, y, pair
    raise RejectionCapExceededError(
        f"no admissible x found in {cap} attempts (kind=functional, d={d})"
    )


def _module_windows(
    t: np.ndarray, s: np.ndarray, tol: Tolerance
) -> tuple[FormInstance, list[OmegaPair]]:
    """The window step of a module-form instance (x, y) = (t, s): for
    (N, d, d) stacks of commuting strictly positive pairs, the module form
    over M_d and each slice's window pair read off its spectra at band tol."""
    return FormInstance.module_form(t.shape[-1]), omega_from_spectra(t, s, tol)


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
    a_pair = np.sort(g.uniform(lo, hi, size=2))
    b_pair = np.sort(g.uniform(lo, hi, size=2))
    return ScalarWindow(float(a_pair[0]), float(a_pair[1]), float(b_pair[0]), float(b_pair[1]))


def _entry(inequality_id: str) -> _Inequality:
    """The registry entry of inequality_id; ValueError for an unknown id."""
    if inequality_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown inequality id {inequality_id!r}; known: {known}")
    return _REGISTRY[inequality_id]


def _draw(
    config: GeneratorConfig, entry: _Inequality, g: np.random.Generator, tol: Tolerance
):
    """One trial's instance for the payload kind of a registry entry, drawn
    from the trial's stream g.

    A functional or sequence instance is the evaluator's payload.  A "form"
    or "operator_pair" instance is (d, t, s), plus v for an operator pair:
    t and s form the commuting strictly positive pair, x and y of
    gen_re_valid_instance("module") for the form ids.
    """
    if entry.payload == "sequences":
        n = int(g.choice(np.asarray(config.space_dims)))
        data = gen_bounded_sequences(n, sample_window(g, config.window_range), g)
        return replace(data, w_seq=np.ones(n)) if entry.unit_weights else data
    d = int(g.choice(np.asarray(config.dims)))
    if entry.payload == "functional_form":
        return gen_re_valid_instance("functional", d, g, tol=tol)
    t, s = gen_commuting_positive_pair(d, g, config.spectrum_range)
    if entry.payload == "form":
        return d, t, s
    v = g.standard_normal(d) + 1j * g.standard_normal(d)
    while np.linalg.norm(v) < 1e-6:
        v = g.standard_normal(d) + 1j * g.standard_normal(d)
    return d, t, s, v


def _trials(
    config: GeneratorConfig, entry: _Inequality, window: list[int], tol: Tolerance
) -> list[BoundReport]:
    """The reports of the trials with the given indices, each drawn from its
    own stream.  For a stacked id the instances of each d are evaluated
    together.  Raises if any trial's generator checks or evaluator raise."""
    draws = [_draw(config, entry, stream(config.seed, i), tol) for i in window]
    if entry.stacked is None:
        return [entry.evaluate(draw, tol) for draw in draws]
    reports: list[BoundReport] = [None] * len(window)
    for d in sorted({draw[0] for draw in draws}):
        positions = [k for k, draw in enumerate(draws) if draw[0] == d]
        payload = [np.stack(column) for column in zip(*(draws[k][1:] for k in positions))]
        if entry.payload == "form":
            form, pairs = _module_windows(*payload, tol)
            payload = [form, *payload, pairs]
        for k, report in zip(positions, entry.stacked(payload, tol)):
            reports[k] = report
    return reports


def run_trials(
    config: GeneratorConfig,
    inequality_id: str,
    indices,
    tol: Tolerance = DEFAULT_TOL,
) -> list[TrialOutcome]:
    """Evaluate the fuzz trials with the given indices, one outcome each, in order.

    A trial is a pure function of (config, id, trial_index, tol): it draws
    from the Philox stream keyed by (seed, trial_index), and tol is the
    band of the generators' window and Re checks and of the evaluator.  Its
    outcome is its BoundReport, or the RejectionCapExceededError or
    FormError raised when its generator finds no instance meeting the
    hypotheses at band tol; any other exception propagates.

    The indices are taken TRIAL_WINDOW at a time.  For the matrix and
    operator-pair ids the trials of a window are grouped by d and each
    group is evaluated in stacked kernel calls; if a stacked stage raises,
    the window is evaluated again one trial at a time, so each failure
    is the trial's own.  Every stacked call treats each slice on its own
    (see matalg), so an outcome is bit-equal whatever other indices share
    its window.
    """
    entry = _entry(inequality_id)
    indices = [int(i) for i in indices]
    outcomes: list[TrialOutcome] = []
    for start in range(0, len(indices), TRIAL_WINDOW):
        window = indices[start : start + TRIAL_WINDOW]
        if entry.stacked:
            try:
                outcomes += _trials(config, entry, window, tol)
            except Exception:
                # Some trial of the window failed a stacked stage: one trial
                # at a time, so each failure is the trial's own.
                outcomes += [_trial_outcome(config, entry, i, tol) for i in window]
        else:
            outcomes += [_trial_outcome(config, entry, i, tol) for i in window]
    return outcomes


def _trial_outcome(
    config: GeneratorConfig, entry: _Inequality, trial_index: int, tol: Tolerance
) -> TrialOutcome:
    """One trial on its own: its report, or the precondition error its
    generator raised.  Any other exception propagates."""
    try:
        return _trials(config, entry, [trial_index], tol)[0]
    except _PRECONDITION_ERRORS as exc:
        return exc


def run_trial(
    config: GeneratorConfig,
    inequality_id: str,
    trial_index: int,
    tol: Tolerance = DEFAULT_TOL,
) -> BoundReport:
    """Evaluate one fuzz trial: run_trials for the single index.

    A generator that finds no instance meeting the hypotheses at band tol
    raises its RejectionCapExceededError or FormError here.
    """
    outcome = run_trials(config, inequality_id, [trial_index], tol)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fuzz_run(
    config: GeneratorConfig, inequality_id: str, tol: Tolerance = DEFAULT_TOL
) -> FuzzSummary:
    """Run config.trials independent trials at band tol and aggregate verdicts.

    The aggregation (counts, least margin, lowest tying trial index) is
    invariant under any reordering of the trials.  A trial whose generator
    finds no instance meeting the hypotheses at band tol (rejection cap
    reached, or a pair failing its commutation or strict-positivity
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
            if isinstance(report, Exception) or report.verdict == PRECONDITION_FAILED:
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
