"""Randomized instance generators, independent oracles, and the fuzz loop.

Determinism contract: every trial draws from a Philox stream keyed by
(seed, trial_index), so a trial's outcome depends only on the
configuration and its index, never on execution order.  Replaying one
trial reproduces its report bit for bit, and summaries aggregated over
trials are schedule-independent.

Batch invariant: run_trials draws each trial of a window once, groups the
drawn trials by the dimension each carries (d, or the sequence length n)
as columns and passes each group to the id's one evaluator as a batch.  Every
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

Scalar instances: a window of trials draws only values, in the order
each trial's generator draws them, with no per-trial object: a sequence
trial's n and 4 + 3n uniforms, and a functional trial's d and kind, come
from one stacked Philox pass (rng._words), and a functional trial's
Gaussians from its Generator past word 0.  Each group builds its
instances as one stack: the windows, pinned sequences and weights of a
"sequences" group (_sequence_batch), and the functionals as arrays,
phi(y* y), phi(p* p), x and the Re check of every functional instance's
first attempt (_functional_instances).  A functional slice whose first
attempt is rejected continues its own rejection loop from its own stream.
gen_bounded_sequences, sample_window and gen_re_valid_instance("functional")
are these builders for one instance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import (
    _REGISTRY,
    HYPOTHESIS_ERRORS,
    BoundReport,
    ScalarWindow,
    WeightedSequences,
    _check_sequences,
    _failed_reports,
    _Inequality,
    _pow2,
    _Reports,
    _window_edges,
)
from .forms import (
    _FUNCTIONAL_KINDS,
    FormError,
    FormInstance,
    OmegaPair,
    PositiveFunctional,
    _form_eval,
    _FunctionalForms,
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
from .rng import _check_key, _integers, _unit, _words, stream, streams

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
# are held and stacked at once, whatever the campaign's trial count.  The
# scalar-valued payloads ("functional_form", "sequences") cost mostly per
# batch, not per row, and take more; longer stacks of matrix instances do
# not pay (d = 16 ADD_MATRIX: 1.3x the time and 20 MB more at 256).
TRIAL_WINDOW = 64
SCALAR_WINDOW = 256

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
    """Random sequences inside the window with weights in (0, 1]: a_i, b_i
    and w_i drawn in that order, n of each (_sequences of one row).

    For n >= 4 the first four positions pin the window endpoints so each
    of a, A, b, B is attained.
    """
    a, b, w = _sequences(_window_edges([window]), _as_rng(rng).random((1, 3 * n)))
    return WeightedSequences(a[0], b[0], w[0], window)


def _uniform(u, lo, hi):
    """lo + (hi - lo) * u: what g.uniform(lo, hi) draws from the uniforms u
    in [0, 1) that g.random draws from the same stream, bit for bit."""
    return lo + (hi - lo) * u


def _windows(u: np.ndarray, window_range: tuple[float, float]) -> np.ndarray:
    """The (N, 4) edges (a, A, b, B) of N random scalar windows from (N, 4)
    uniforms in [0, 1): each interval the sorted pair of two uniforms in
    window_range, as g.uniform(lo, hi, size=2) draws it."""
    return np.sort(_uniform(u, *window_range).reshape(-1, 2, 2), axis=-1).reshape(-1, 4)


def _sequences(edges: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unchecked (N, n) stacks a_seq, b_seq, w_seq in the windows of
    (N, 4) edges from (N, 3n) uniforms in [0, 1): a_seq, b_seq and w_seq
    drawn in that order as g.uniform(a, A), g.uniform(b, B) and
    1 - g.uniform(0, 1) draw them from the same uniforms, and for n >= 4
    the window endpoints pinned at the first four positions."""
    n = u.shape[1] // 3
    lo_a, hi_a, lo_b, hi_b = (edges[:, j : j + 1] for j in range(4))
    a_seq = _uniform(u[:, :n], lo_a, hi_a)
    b_seq = _uniform(u[:, n : 2 * n], lo_b, hi_b)
    w_seq = 1.0 - u[:, 2 * n :]
    if n >= 4:
        a_seq[:, :2] = edges[:, :2]
        b_seq[:, 2:4] = edges[:, 2:]
    return a_seq, b_seq, w_seq


def _sequence_batch(u: np.ndarray, unit_weights: bool) -> list:
    """The "sequences" batch (a_seq, b_seq, w_seq, edges) of N trials from
    their (N, 4 + 3n) _sequence_draw rows: the window of sample_window(g,
    WINDOW_RANGE) and the sequences of gen_bounded_sequences(n, window, g),
    every weight 1 when unit_weights, checked at once as WeightedSequences
    checks one instance (bounds._check_sequences)."""
    edges = _windows(u[:, :4], WINDOW_RANGE)
    a_seq, b_seq, w_seq = _sequences(edges, u[:, 4:])
    batch = [a_seq, b_seq, np.ones_like(w_seq) if unit_weights else w_seq, edges]
    _check_sequences(*batch)
    return batch


# The range of a weighted sum's weights.
_WEIGHT_RANGE = (0.2, 2.0)


def _random_functional(d: int, g: np.random.Generator) -> PositiveFunctional:
    kind = g.integers(0, 3)
    if kind == 0:
        x0 = g.standard_normal(d) + 1j * g.standard_normal(d)
        return PositiveFunctional.vector_state(x0 / np.linalg.norm(x0))
    if kind == 1:
        return PositiveFunctional.trace(d)
    return PositiveFunctional.weighted_sum(g.uniform(*_WEIGHT_RANGE, size=d))


# The uniform ranges behind a functional instance's window pair, in the
# order they are drawn: |lambda|, arg(lambda), |c| / |lambda| and arg(c).
_PAIR_RANGES = ((0.5, 2.0), (0.0, 2 * np.pi), (0.1, 0.9), (0.0, 2 * np.pi))
# The range of rho, the share of the disk's radius^2 that p takes.
_RHO_RANGE = (0.0, 0.9)
# A drawn y or p is kept when phi(y* y) or phi(p* p) is at least this.
_Y_NORM2_MIN = 1e-8
_P_NORM2_MIN = 1e-12


def _complex_gaussians(z: np.ndarray) -> np.ndarray:
    """z[..., 0, :, :] + 1j z[..., 1, :, :] of (..., 2, d, d) standard normals:
    the complex Gaussian that g.standard_normal((d, d)) + 1j *
    g.standard_normal((d, d)) draws from the same normals."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _functional_rows(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed rows for n _functional_draw draws at dimension d."""
    return np.zeros((n, 2 * d + 4 * d * d)), np.zeros((n, d + 5))


def _functional_draw(kind: int, d: int, g: np.random.Generator, z: np.ndarray, u: np.ndarray):
    """Draw from g a functional instance's first attempt past its kind, in
    the order of _functional_rejections, into its rows z (the state's 2d
    normals, y's and p's 2d^2) and u (the weights' d uniforms, the window
    pair's 4, rho's 1), the state's normals and y's in one call."""
    y = 2 * d + 2 * d * d
    if kind == 0:
        g.standard_normal(out=z[:y])
    else:
        if kind == 2:
            g.random(out=u[:d])
        g.standard_normal(out=z[2 * d : y])
    g.random(out=u[d : d + 4])
    g.standard_normal(out=z[y:])
    g.random(out=u[d + 4 :])


def _functional_pairs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda, radius^2 and the (N, 2) window pairs (lambda - c, lambda + c)
    of N functional instances from (N, 4) uniforms (see _PAIR_RANGES)."""
    lam_mod, arg_lam, share, arg_c = (_uniform(u[:, j], *r) for j, r in enumerate(_PAIR_RANGES))
    lam = lam_mod * np.exp(1j * arg_lam)
    radius = share * lam_mod
    c = radius * np.exp(1j * arg_c)
    return lam, _pow2(radius), np.stack((lam - c, lam + c), axis=1)


def _phi_norms(forms, m: np.ndarray) -> np.ndarray:
    """The (N,) values phi_k(m[k]* m[k]) under N functional forms for an
    (N, d, d) stack m."""
    return _form_eval(forms, m, m)[:, 0, 0].real


def _functional_x(lam, radius_sq, y, fyy, p, fpp, rho) -> np.ndarray:
    """x = lambda y + p', with p' the multiple of p for which
    phi(p'* p') = rho radius^2 phi(y* y), as (N, d, d) stacks."""
    scale = np.sqrt(rho * radius_sq * fyy / fpp)
    return lam[:, None, None] * y + p * scale[:, None, None]


def _re_accepts(forms, x: np.ndarray, y: np.ndarray, pairs: np.ndarray, tol: Tolerance):
    """Which of N functional instances satisfy the Re hypothesis, as
    check_re_condition decides it: the 1 x 1 Re term is at least -band at
    the scale max(|value|, 1)."""
    re = _re_term(forms, x, y, pairs)[:, 0, 0].real
    return re >= -tol.band(np.maximum(np.abs(re), 1.0))


def _functional_instances(kinds, z, u, indices, tol: Tolerance, restart, cap=REJECTION_CAP) -> list:
    """The "functional_form" batch columns (forms, x, y, pairs) of N first
    attempts, their kinds (indices into _FUNCTIONAL_KINDS) and their rows z
    and u of _functional_draw; restart(indices[k]) returns slice k's stream
    as it was before its kind draw.  The functionals, phi(y* y), phi(p* p),
    x and the Re check are computed over the stack.  A slice whose first
    attempt the generator would not keep (a degenerate y or p, or a failed
    Re check) restarts its stream and runs the rejection loop on it
    (_functional_rejections), so every slice is the instance its draws
    alone give, whatever else is in the stack."""
    d = u.shape[1] - 5
    y0, p0 = 2 * d, 2 * d + 2 * d * d
    vector = kinds == 0
    # Each state is x0 / np.linalg.norm(x0), as _random_functional draws it.
    x0 = z[vector, :d] + 1j * z[vector, d:y0]
    states = np.zeros((len(kinds), d), dtype=np.complex128)
    states[vector] = x0 / np.array([np.linalg.norm(v) for v in x0]).reshape(-1, 1)
    forms = _FunctionalForms(kinds, states, _uniform(u[:, :d], *_WEIGHT_RANGE))
    y = _complex_gaussians(z[:, y0:p0].reshape(-1, 2, d, d))
    p = _complex_gaussians(z[:, p0:].reshape(-1, 2, d, d))
    lam, radius_sq, pairs = _functional_pairs(u[:, d : d + 4])
    fyy, fpp = _phi_norms(forms, y), _phi_norms(forms, p)
    kept = ~((fyy < _Y_NORM2_MIN) | (fpp < _P_NORM2_MIN))
    rho = _uniform(u[:, d + 4], *_RHO_RANGE)
    x = _functional_x(lam, radius_sq, y, fyy, p, np.where(kept, fpp, 1.0), rho)
    # The first attempt is one of the cap attempts.
    accepted = kept & _re_accepts(forms, x, y, pairs, tol) & (cap > 0)
    for k in np.flatnonzero(~accepted):
        x[k], y[k], pairs[k] = _functional_rejections(d, restart(indices[k]), tol, cap)
    return [forms, x, y, pairs]


def _functional_rejections(d: int, g: np.random.Generator, tol: Tolerance, cap: int) -> tuple:
    """x, y and the window pair of one functional instance drawn from g as
    the rejection loop draws it: the functional, y until phi(y* y) is not
    degenerate, the window pair, then up to cap attempts of p (redrawn
    while phi(p* p) is degenerate) and rho until the Re check passes, else
    RejectionCapExceededError.  g restarted at a trial's first attempt
    draws that attempt's functional again, so the batch keeps its form."""
    forms = _FunctionalForms.of([FormInstance.functional_form(_random_functional(d, g))])
    y = _complex_gaussians(g.standard_normal((1, 2, d, d)))
    fyy = _phi_norms(forms, y)
    while fyy[0] < _Y_NORM2_MIN:
        y = _complex_gaussians(g.standard_normal((1, 2, d, d)))
        fyy = _phi_norms(forms, y)
    lam, radius_sq, pairs = _functional_pairs(g.random((1, 4)))
    for _ in range(cap):
        p = _complex_gaussians(g.standard_normal((1, 2, d, d)))
        fpp = _phi_norms(forms, p)
        if fpp[0] < _P_NORM2_MIN:
            continue
        x = _functional_x(lam, radius_sq, y, fyy, p, fpp, _uniform(g.random(1), *_RHO_RANGE))
        if _re_accepts(forms, x, y, pairs, tol)[0]:
            return x[0], y[0], pairs[0]
    raise RejectionCapExceededError(
        f"no admissible x found in {cap} attempts (kind=functional, d={d})"
    )


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
    RejectionCapExceededError), built as a campaign builds its functional
    instances (_functional_instances).  The window pair always satisfies
    Re(conj(omega) * Omega) > 0.

    tol is the band of the window and Re checks.
    """
    g = _as_rng(rng)
    if kind == "module":
        forms, x, y, pairs = _module_instances(*(a[None] for a in _pair_draw(d, g)), tol)
        return forms[0], x[0], y[0], pairs[0]
    if kind != "functional":
        raise ValueError(f"unknown instance kind {kind!r}")
    start = g.bit_generator.state

    def restart(_) -> np.random.Generator:
        g.bit_generator.state = start
        return g

    kinds, (z, u) = np.array([g.integers(len(_FUNCTIONAL_KINDS))]), _functional_rows(1, d)
    _functional_draw(int(kinds[0]), d, g, z[0], u[0])
    forms, x, y, pairs = _functional_instances(kinds, z, u, [0], tol, restart, cap)
    return forms.form(0), x[0], y[0], OmegaPair(*pairs[0].tolist())


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
    """Random scalar window with both intervals inside window_range (_windows of one row)."""
    return ScalarWindow(*_windows(g.random((1, 4)), window_range)[0].tolist())


def _entry(inequality_id: str) -> _Inequality:
    """The registry entry of inequality_id; ValueError for an unknown id."""
    if inequality_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown inequality id {inequality_id!r}; known: {known}")
    return _REGISTRY[inequality_id]


def _sequence_draw(g: np.random.Generator, n: int) -> np.ndarray:
    """The row of a trial with sequences of length n, drawn from g: the
    4 + 3n uniforms behind its window and its a_seq, b_seq and w_seq, in
    the order sample_window and gen_bounded_sequences draw them
    (_sequence_batch)."""
    return g.random(4 + 3 * n)


def _dimension(config: GeneratorConfig, g: np.random.Generator) -> int:
    """A trial's matrix dimension, its first draw from its stream g."""
    return int(config.dims[g.integers(len(config.dims))])


def _restarted(config: GeneratorConfig, index: int) -> np.random.Generator:
    """The stream of trial index, past its dimension draw."""
    g = stream(config.seed, index)
    _dimension(config, g)
    return g


def _sequence_draws(config: GeneratorConfig, entry: _Inequality, window: list):
    """(members, columns) per length n of a window of sequence trials: their
    positions in window and (N, 4 + 3n) _sequence_draw rows, n from word 0
    and the row from word 1 on of one stacked Philox pass (rng._words)."""
    words = _words(config.seed, window, 1 + 4 + 3 * max(SPACE_DIMS))
    (choice,), drawn = _integers(words[:, 0], (len(SPACE_DIMS),))
    lengths, rows = np.array(SPACE_DIMS)[choice], _unit(words[:, 1:])
    for j in np.flatnonzero(~drawn).tolist():
        g = stream(config.seed, window[j])
        lengths[j] = SPACE_DIMS[g.integers(len(SPACE_DIMS))]
        rows[j, : 4 + 3 * lengths[j]] = _sequence_draw(g, lengths[j])
    for n in sorted(set(lengths.tolist())):
        members = np.flatnonzero(lengths == n)
        yield members, (rows[members, : 4 + 3 * n],)


def _functional_draws(config: GeneratorConfig, entry: _Inequality, window: list):
    """(members, columns) per dimension of a window of functional trials,
    the columns of _functional_instances: d and the kind from word 0 of one
    stacked Philox pass, the rest by _functional_draw past that word."""
    word = _words(config.seed, window, 1)[:, 0]
    (choice, kinds), drawn = _integers(word, (len(config.dims), len(_FUNCTIONAL_KINDS)))
    dims, own = np.array(config.dims)[choice], {}
    for j in np.flatnonzero(~drawn).tolist():
        g = own[j] = stream(config.seed, window[j])
        dims[j], kinds[j] = _dimension(config, g), g.integers(len(_FUNCTIONAL_KINDS))
    for d in sorted(set(dims.tolist())):
        members = np.flatnonzero(dims == d)
        indices = [window[j] for j in members]
        z, u = _functional_rows(len(members), d)
        for row, (j, g) in enumerate(zip(members.tolist(), streams(config.seed, indices))):
            if j not in own:
                g.bit_generator.random_raw()  # word 0
            _functional_draw(kinds[j], d, own.get(j, g), z[row], u[row])
        yield members, (kinds[members], z, u, indices)


def _matrix_draws(config: GeneratorConfig, entry: _Inequality, window: list):
    """(members, columns) per dimension of a window of "form" or
    "operator_pair" trials: the stacked _pair_draw draws, and for an
    "operator_pair" the vector v, redrawn while ||v|| < 1e-6."""
    dims, rows = [], []
    for g in streams(config.seed, window):
        dims.append(_dimension(config, g))
        rows.append(_pair_draw(dims[-1], g))
        if entry.payload == "operator_pair":
            v = g.standard_normal(dims[-1]) + 1j * g.standard_normal(dims[-1])
            while np.linalg.norm(v) < 1e-6:
                v = g.standard_normal(dims[-1]) + 1j * g.standard_normal(dims[-1])
            rows[-1] += (v,)
    dims = np.array(dims)
    for d in sorted(set(dims.tolist())):
        members = np.flatnonzero(dims == d)
        yield members, [np.stack(c) for c in zip(*(rows[j] for j in members))]


_DRAWS = {"sequences": _sequence_draws, "functional_form": _functional_draws}


def _batch(entry: _Inequality, columns: Sequence, tol: Tolerance, restart) -> list:
    """The evaluator's batch of a group's drawn columns, built at once (tol
    is the band of the generators' checks, restart as _functional_instances
    takes it)."""
    if entry.payload == "sequences":
        return _sequence_batch(columns[0], entry.unit_weights)
    if entry.payload == "functional_form":
        return _functional_instances(*columns, tol, restart)
    if entry.payload == "form":
        return _module_instances(*columns, tol)
    return [*_commuting_pairs(*columns[:3])[1:], columns[3]]


def _group_reports(inequality_id: str, entry, columns, tol: Tolerance, restart=None) -> list:
    """The _Reports of a group's drawn columns, in row order: one for the
    group, evaluated as one batch.  A group of one that fails a hypothesis
    (one of HYPOTHESIS_ERRORS) gets its precondition_failed_report's; a
    larger one evaluates each member alone from its rows.  Any other
    exception propagates."""
    try:
        return [entry.evaluate(_batch(entry, columns, tol, restart), tol)]
    except HYPOTHESIS_ERRORS as exc:
        if len(columns[0]) == 1:
            return [_failed_reports(inequality_id, exc)]
    # Some member failed a hypothesis: each is evaluated alone.
    members = ([c[k : k + 1] for c in columns] for k in range(len(columns[0])))
    return [part for m in members for part in _group_reports(inequality_id, entry, m, tol, restart)]


def _trial_reports(config: GeneratorConfig, inequality_id: str, indices: Sequence, tol: Tolerance):
    """Evaluate the trials at the given indices, as run_trials describes,
    yielding (positions, reports): the positions in indices of the trials
    that one _Reports covers, in its row order."""
    entry = _entry(inequality_id)
    indices = [int(i) for i in indices]
    for i in indices:
        if not 0 <= i < config.trials:
            raise ValueError(f"trial index {i} is outside the trials 0..{config.trials - 1}")
    size = TRIAL_WINDOW if entry.payload in ("form", "operator_pair") else SCALAR_WINDOW
    draws = _DRAWS.get(entry.payload, _matrix_draws)
    restart = functools.partial(_restarted, config)
    for start in range(0, len(indices), size):
        for members, columns in draws(config, entry, indices[start : start + size]):
            positions = (start + members).tolist()
            for part in _group_reports(inequality_id, entry, columns, tol, restart):
                yield positions[: len(part.holds)], part
                positions = positions[len(part.holds) :]


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

    The indices are taken TRIAL_WINDOW at a time (SCALAR_WINDOW for a
    scalar-valued payload), and each trial of a window
    is drawn once.  The drawn trials are grouped by the dimension each
    carries, and each group is one batch of the id's evaluator; a group
    that fails a hypothesis evaluates its members alone from the same
    draws, and no other group is evaluated again.  The evaluators treat
    each instance of a batch on its own (see matalg for the stacked kernel
    calls), so a report is bit-equal whatever other indices share its
    window.  The BoundReports are built here from the evaluators' columns.
    """
    indices = list(indices)
    reports: list = [None] * len(indices)
    for positions, part in _trial_reports(config, inequality_id, indices, tol):
        for k, report in zip(positions, part.reports()):
            reports[k] = report
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

    The aggregation (counts, and over the trials that did not fail a
    precondition the least margin and the lowest trial index attaining
    it, NaN margins last, None without such a trial) is invariant under
    any reordering of the trials.  A trial whose instance fails a
    hypothesis at band tol (for example a generator reaching its
    rejection cap, or a pair failing its commutation or strict-positivity
    check) counts as a precondition failure.  Trials run as in run_trials,
    a window at a time, so memory does not grow with config.trials; the
    passed, holds and margin columns of each batch are reduced, and no
    BoundReport is built.
    """
    _entry(inequality_id)  # an unknown id is an error also when config.trials is 0
    holds = judged = 0
    worst: Optional[tuple[float, int]] = None
    for trials, part in _trial_reports(config, inequality_id, range(config.trials), tol):
        passed = part.passed
        holds += int(np.count_nonzero(passed & part.holds))
        rows = np.flatnonzero(passed)
        if rows.size:
            judged += rows.size
            margins, indices = part.margin[rows], np.array(trials)[rows]
            if worst is not None:
                margins, indices = np.append(margins, worst[0]), np.append(indices, worst[1])
            k = np.lexsort((indices, margins))[0]
            worst = float(margins[k]), int(indices[k])
    return FuzzSummary(
        inequality_id=inequality_id,
        seed=config.seed,
        trials_run=config.trials,
        holds=holds,
        violated=judged - holds,
        precondition_failed=config.trials - judged,
        worst_margin=None if worst is None else worst[0],
        worst_seed=None if worst is None else worst[1],
    )
