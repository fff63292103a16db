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

Start bases: a "form" or "operator_pair" trial's commuting pair
x = U diag(lam_t) U*, y = U diag(lam_s) U* comes with the Haar unitary U
it was built in, which diagonalizes both to roundoff.  U is a column of
the trial's batch, and the first eigensolve of every report starts in it
(the module window's of x here, the evaluator's then, see bounds), so it
takes a fraction of a sweep instead of a cold solve.  The window pair is
part of a module instance, which gen_re_valid_instance("module") builds
the same way: every batch carries its pairs as one (N, 2) column
(forms._window), and an OmegaPair is made only for a returned instance.
A report is a function of its instance and U, as verify computes it on
an instance file that carries U as its basis.

Draws: a trial draws bounded integers and uniforms alone, and its
normals are rng._normals of uniforms: its size (d, or the sequence length
n), a functional trial's kind, then a row of uniforms (_lone_draw,
_ROW_WIDTHS).  A window holds at most as many trials as draw its
payload's word budget (_window_size), a replay one, and takes them from
stacked Philox passes (rng._words): word 0 of every trial, then one pass
per size, or one pass in all when every size draws one width (_draws).
Each group builds its instances from its rows as one stack (_sequence_batch,
_pair_draws, _vectors, _functional_instances).  One rule covers what a
row cannot finish, a word 0 that Lemire's method rejects, a rejected
first functional attempt or a degenerate operator-pair v: the trial's
lone builder finishes it on its restarted stream (_restarted), the only
Generator a campaign or a replay builds.
gen_bounded_sequences, sample_window, gen_commuting_positive_pair and
gen_re_valid_instance are these builders for one instance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

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
    _form_eval,
    _FunctionalForms,
    _re_term,
    _spectral_window,
    _window,
)
from .matalg import (
    DEFAULT_TOL,
    NotHermitianError,
    Tolerance,
    as_element,
    frobenius,
    re_part,
)
from .rng import _check_key, _complex_normals, _integers, _unit, _words, stream

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

# Trials evaluated together by run_trials, whatever the campaign's trial
# count: as many as draw their payload's word budget (_window_size).
# Scalar payloads cost mostly per batch, not per row: SCALAR_WINDOW_WORDS
# words hold a default campaign's trials.  MATRIX_WINDOW_WORDS words hold
# about 640 matrix trials at the default dims and 60 at d = 16, where
# longer stacks stop paying (1000 ADD_MATRIX trials at d = 16: 209 against
# 171 ms and 20 MB more peak memory at 240 trials a window than at 64).
SCALAR_WINDOW_WORDS = 1 << 17
MATRIX_WINDOW_WORDS = 1 << 15

# The sequence lengths, the range of the scalar windows' endpoints, and the
# range of the eigenvalues of the commuting positive pairs that trials draw.
SPACE_DIMS = (4, 8, 16)
WINDOW_RANGE = (0.1, 10.0)
SPECTRUM_RANGE = (0.1, 10.0)

if TYPE_CHECKING:  # numpy.random stays off the import path
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
    return _unitaries(_complex_normals(_as_rng(rng).random((1, 2 * d * d)), (d, d)))[0]


def _pair_draws(u: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws behind N commuting positive pairs of dimension d from the
    first 2d^2 + 2d uniforms of their rows, in this order: the complex
    Gaussians of their eigenbases and their two spectra in SPECTRUM_RANGE."""
    lam = _uniform(u[:, 2 * d * d : 2 * d * d + 2 * d], *SPECTRUM_RANGE)
    return _complex_normals(u[:, : 2 * d * d], (d, d)), lam[:, :d], lam[:, d:]


def _commuting_pairs(
    z: np.ndarray, lam_t: np.ndarray, lam_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unitaries U = _unitaries(z) and the commuting pairs
    t = U diag(lam_t) U*, s = U diag(lam_s) U* built in them, from
    _pair_draws: (N, d, d) Gaussians and (N, d) spectra.  Every
    operation is stacked and acts on each slice alone, so slice k equals
    the pair built from draw k alone."""
    u = _unitaries(z)
    uh = u.conj().swapaxes(1, 2)
    return u, re_part((u * lam_t[:, None, :]) @ uh), re_part((u * lam_s[:, None, :]) @ uh)


def _module_instances(
    z: np.ndarray, lam_t: np.ndarray, lam_s: np.ndarray, tol: Tolerance
) -> list:
    """The module-form instances of _pair_draws, as the "form"
    batch columns (forms, x, y, pairs, u): x and y the commuting pairs of
    _commuting_pairs, the window pairs of their spectra at band tol,
    checked as omega_from_spectra checks them, and the unitaries u x and y
    were built in, the start basis of each eigensolve that comes first.
    u diagonalizes x and y to roundoff, so the window's eigensolve of x
    takes a fraction of a sweep; each slice is still decomposed, checked
    and decided on its own."""
    u, x, y = _commuting_pairs(z, lam_t, lam_s)
    pairs = _window(*_spectral_window(x, y, tol, start=u))
    return [[FormInstance.module_form(x.shape[-1])] * len(x), x, y, pairs, u]


def gen_commuting_positive_pair(d: int, rng: RngLike = 0) -> tuple[np.ndarray, np.ndarray]:
    """Commuting strictly positive pair sharing a random eigenbasis, with
    eigenvalues in SPECTRUM_RANGE: the pair of one row of _pair_draws."""
    u = _as_rng(rng).random((1, _ROW_WIDTHS["form"](d)))
    return tuple(m[0] for m in _commuting_pairs(*_pair_draws(u, d))[1:])


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
    """lo + (hi - lo) * u: uniforms in [lo, hi) from uniforms u in [0, 1),
    bit for bit what numpy's Generator.uniform makes of the same u."""
    return lo + (hi - lo) * u


def _windows(u: np.ndarray, window_range: tuple[float, float]) -> np.ndarray:
    """The (N, 4) edges (a, A, b, B) of N random scalar windows from (N, 4)
    uniforms in [0, 1): each interval the sorted pair of two uniforms in
    window_range (_uniform)."""
    return np.sort(_uniform(u, *window_range).reshape(-1, 2, 2), axis=-1).reshape(-1, 4)


def _sequences(edges: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unchecked (N, n) stacks a_seq, b_seq, w_seq in the windows of
    (N, 4) edges from (N, 3n) uniforms in [0, 1): a_seq, b_seq and w_seq
    in that order, _uniform in [a, A], in [b, B] and 1 minus one in [0, 1),
    and for n >= 4 the window endpoints pinned at the first four positions."""
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
    their (N, 4 + 3n) uniforms (_lone_draw): the window of sample_window(g,
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
# The uniform ranges behind a functional instance's window pair, in the
# order they are drawn: |lambda|, arg(lambda), |c| / |lambda| and arg(c).
_PAIR_RANGES = ((0.5, 2.0), (0.0, 2 * np.pi), (0.1, 0.9), (0.0, 2 * np.pi))
# The range of rho, the share of the disk's radius^2 that p takes.
_RHO_RANGE = (0.0, 0.9)
# A drawn y or p is kept when phi(y* y) or phi(p* p) is at least this.
_Y_NORM2_MIN = 1e-8
_P_NORM2_MIN = 1e-12
# An operator pair's vector v is kept when ||v|| is at least this.
_V_NORM_MIN = 1e-6
# Attempts at a functional instance past its first, drawn and checked at once.
_ATTEMPT_BLOCK = 16


def _attempt_width(d: int) -> int:
    """Uniforms of one attempt at a functional instance (_functional_attempts)."""
    return 4 * d * d + 5


# The uniforms of a trial's row, by payload, at dimension (or sequence
# length) d: a sequence trial's window and a_seq, b_seq, w_seq, the first
# 4 + 3n of a row as long as the longest sequences need; a functional
# trial's functional and first attempt; a pair's eigenbasis and spectra,
# and an operator pair's vector v.
_ROW_WIDTHS = {
    "sequences": lambda n: 4 + 3 * max(SPACE_DIMS),
    "functional_form": lambda d: 3 * d + _attempt_width(d),
    "form": lambda d: 2 * d * d + 2 * d,
    "operator_pair": lambda d: 2 * d * d + 4 * d,
}


def _window_rows(words: float, matrix: bool = False) -> int:
    """Rows of a window at `words` words a row within the word budget of a
    scalar or a matrix payload: at least one."""
    return max(1, int((MATRIX_WINDOW_WORDS if matrix else SCALAR_WINDOW_WORDS) // words))


def _functionals(d: int, kinds: np.ndarray, u: np.ndarray) -> _FunctionalForms:
    """N functionals of dimension d from their kinds (indices into
    _FUNCTIONAL_KINDS) and (N, 3d) uniform rows: a vector state from the
    first 2d (_complex_normals), a weighted sum's weights in _WEIGHT_RANGE
    from the last d.  Every kind draws the whole row."""
    vector = kinds == 0
    x0 = _complex_normals(u[vector, : 2 * d], (d,))
    states = np.zeros((len(kinds), d), dtype=np.complex128)
    # Each state is x0 / np.linalg.norm(x0), as PositiveFunctional.vector_state takes it.
    states[vector] = x0 / np.array([np.linalg.norm(v) for v in x0]).reshape(-1, 1)
    return _FunctionalForms(kinds, states, _uniform(u[:, 2 * d :], *_WEIGHT_RANGE))


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


def _functional_attempts(forms: _FunctionalForms, u: np.ndarray, tol: Tolerance) -> tuple:
    """x, y, the window pairs and which are kept, of N attempts at
    functional instances under forms, from (N, _attempt_width(d)) uniform
    rows in this order: y (_complex_normals), the window pair
    (_PAIR_RANGES), p and rho.  An attempt is kept when neither phi(y* y)
    nor phi(p* p) is degenerate and x passes the Re check at band tol."""
    d = forms.states.shape[1]
    y0, p0 = 2 * d * d, 2 * d * d + 4
    y = _complex_normals(u[:, :y0], (d, d))
    lam, radius_sq, pairs = _functional_pairs(u[:, y0:p0])
    p = _complex_normals(u[:, p0:-1], (d, d))
    fyy, fpp = _phi_norms(forms, y), _phi_norms(forms, p)
    kept = ~((fyy < _Y_NORM2_MIN) | (fpp < _P_NORM2_MIN))
    rho = _uniform(u[:, -1], *_RHO_RANGE)
    x = _functional_x(lam, radius_sq, y, fyy, p, np.where(kept, fpp, 1.0), rho)
    return x, y, pairs, kept & _re_accepts(forms, x, y, pairs, tol)


def _functional_instances(
    d: int, kinds, u, indices, tol: Tolerance, restart, cap: int = REJECTION_CAP
) -> list:
    """The "functional_form" batch columns (forms, x, y, pairs) of N trials
    at dimension d from their kinds and (N, 3d + _attempt_width(d)) rows u: the
    functionals (_functionals) and the first attempts
    (_functional_attempts), built over the stack.  A trial whose first
    attempt is rejected continues on restart(indices[k]), its stream
    restarted past its row (_functional_rejections), so every slice is the
    instance its draws alone give, whatever else is in the stack."""
    forms = _functionals(d, kinds, u[:, : 3 * d])
    x, y, pairs, kept = _functional_attempts(forms, u[:, 3 * d :], tol)
    # The first attempt is one of the cap attempts.
    for k in np.flatnonzero(~kept | (cap < 1)):
        x[k], y[k], pairs[k] = _functional_rejections(forms, k, restart(indices[k]), tol, cap)
    return [forms, x, y, pairs]


def _functional_rejections(forms: _FunctionalForms, k: int, g: np.random.Generator, tol, cap):
    """x, y and the window pair of functional instance k of forms, whose
    first attempt was rejected: the first kept of attempts 2..cap, rows of
    _functional_attempts drawn from g in turn, else
    RejectionCapExceededError.  They are drawn and checked _ATTEMPT_BLOCK
    at a time, each on its own, so the block changes no instance."""
    d = forms.states.shape[1]
    for start in range(1, cap, _ATTEMPT_BLOCK):
        u = g.random((min(_ATTEMPT_BLOCK, cap - start), _attempt_width(d)))
        rows = (forms.kinds, forms.states, forms.weights)
        block = (np.repeat(a[k : k + 1], len(u), axis=0) for a in rows)
        x, y, pairs, kept = _functional_attempts(_FunctionalForms(*block), u, tol)
        if kept.any():
            k = np.argmax(kept)
            return x[k], y[k], pairs[k]
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

    kind = "functional": a random positive functional (its kind drawn by
    g.integers) with x sampled in the disk spanned by (omega, Omega) around
    y plus a small admissible perturbation, each attempt at y, the window,
    the perturbation and its share drawn anew until the Re check passes
    (cap attempts, then RejectionCapExceededError), built as a campaign
    builds its functional instances (_functional_instances).  The window
    pair always satisfies Re(conj(omega) * Omega) > 0.

    tol is the band of the window and Re checks.
    """
    g = _as_rng(rng)
    if kind == "module":
        u = g.random((1, _ROW_WIDTHS["form"](d)))
        forms, x, y, pairs, _ = _module_instances(*_pair_draws(u, d), tol)
        return forms[0], x[0], y[0], OmegaPair(*pairs[0].tolist())
    if kind != "functional":
        raise ValueError(f"unknown instance kind {kind!r}")
    kinds = np.array([g.integers(len(_FUNCTIONAL_KINDS))])
    u = g.random((1, _ROW_WIDTHS["functional_form"](d)))
    forms, x, y, pairs = _functional_instances(d, kinds, u, [None], tol, lambda _: g, cap)
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
        return asdict(self)


def sample_window(g: np.random.Generator, window_range: tuple[float, float]) -> ScalarWindow:
    """Random scalar window with both intervals inside window_range (_windows of one row)."""
    return ScalarWindow(*_windows(g.random((1, 4)), window_range)[0].tolist())


def _entry(inequality_id: str) -> _Inequality:
    """The registry entry of inequality_id; ValueError for an unknown id."""
    if inequality_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown inequality id {inequality_id!r}; known: {known}")
    return _REGISTRY[inequality_id]


def _choices(config: GeneratorConfig, payload: str) -> tuple[tuple[int, ...], int]:
    """The sizes a trial's first draw picks from (its d, or a sequence
    trial's length n) and how many kinds its second picks from: 1, which
    draws nothing, but for a functional trial."""
    sizes = SPACE_DIMS if payload == "sequences" else config.dims
    return sizes, len(_FUNCTIONAL_KINDS) if payload == "functional_form" else 1


def _lone_draw(config: GeneratorConfig, payload: str, g: np.random.Generator) -> tuple:
    """What a trial of payload draws from its stream g, in order: its size
    d and kind by g.integers (_choices), then its row of
    _ROW_WIDTHS[payload](d) uniforms: (d, kind, row)."""
    sizes, kinds = _choices(config, payload)
    d = sizes[g.integers(len(sizes))]
    return d, g.integers(kinds), g.random(_ROW_WIDTHS[payload](d))


def _restarted(config: GeneratorConfig, payload: str, index: int) -> np.random.Generator:
    """The stream of trial index, restarted and past its _lone_draw: where
    its lone builder goes on when the row alone does not finish the trial."""
    g = stream(config.seed, index)
    _lone_draw(config, payload, g)
    return g


def _window_size(config: GeneratorConfig, payload: str) -> int:
    """Trials per window of run_trials: _window_rows of a trial's words,
    word 0 and its row (its size is drawn uniformly: the mean over the
    sizes), in the budget of its payload."""
    sizes, _ = _choices(config, payload)
    words = 1 + np.mean([_ROW_WIDTHS[payload](d) for d in sizes])
    return _window_rows(words, payload in ("form", "operator_pair"))


def _draws(config: GeneratorConfig, payload: str, window: list):
    """(members, columns) per size d of a window of trials: their positions
    in window and the columns (rows, sizes, kinds, indices) of each trial's
    _lone_draw and its index.  One stacked Philox pass (rng._words) gives
    every trial's word 0, its size and kind, and its row too when every
    size draws one width; else one pass per size gives the rows.  A trial
    whose word 0 Lemire's method rejects is drawn by _lone_draw on its
    restarted stream, a group of its own."""
    sizes, count = _choices(config, payload)
    bounds = (len(sizes), count)
    skip = int(max(bounds) > 1)  # a bound of 1 draws nothing
    widths = {_ROW_WIDTHS[payload](d) for d in sizes}
    one_pass = len(widths) == 1
    words = _words(config.seed, window, skip + widths.pop() if one_pass else 1)
    (choice, kinds), drawn = _integers(words[:, 0], bounds)
    dims = np.array(sizes)[choice]
    for j in np.flatnonzero(~drawn).tolist():
        d, kind, row = _lone_draw(config, payload, stream(config.seed, window[j]))
        yield np.array([j]), (row[None], np.array([d]), np.array([kind]), [window[j]])
    for d in sorted(set(dims[drawn].tolist())):
        members = np.flatnonzero(drawn & (dims == d))
        indices = [window[j] for j in members]
        width = _ROW_WIDTHS[payload](d)
        group = words[members] if one_pass else _words(config.seed, indices, skip + width)
        yield members, (_unit(group[:, skip:]), dims[members], kinds[members], indices)


def _vectors(u: np.ndarray, d: int, indices, restart) -> np.ndarray:
    """The (N, d) vectors v of N operator pairs from (N, 2d) uniform rows
    (_complex_normals).  A v with ||v|| < _V_NORM_MIN is drawn again, 2d
    uniforms at a time, from the trial's restarted stream restart(indices[k])
    until it is not."""
    v = _complex_normals(u, (d,))
    for k in np.flatnonzero(np.linalg.norm(v, axis=1) < _V_NORM_MIN):
        g, v[k] = restart(indices[k]), 0.0
        while np.linalg.norm(v[k]) < _V_NORM_MIN:
            v[k] = _complex_normals(g.random((1, 2 * d)), (d,))[0]
    return v


def _batch(entry: _Inequality, columns: Sequence, tol: Tolerance, restart) -> list:
    """The evaluator's batch of a group's drawn columns (_draws), built at
    once (tol is the band of the generators' checks, restart the trials'
    restarted streams, _restarted), a pair's batch ending in the unitaries
    it was built in."""
    rows, (d, *_), *rest = columns
    if entry.payload == "sequences":
        return _sequence_batch(rows[:, : 4 + 3 * d], entry.unit_weights)
    kinds, indices = rest
    if entry.payload == "functional_form":
        return _functional_instances(d, kinds, rows, indices, tol, restart)
    pairs = _pair_draws(rows, d)
    if entry.payload == "form":
        return _module_instances(*pairs, tol)
    u, t, s = _commuting_pairs(*pairs)
    return [t, s, _vectors(rows[:, _ROW_WIDTHS["form"](d) :], d, indices, restart), u]


def _group_reports(inequality_id: str, entry, columns, tol: Tolerance, restart=None) -> list:
    """The _Reports of a group's drawn columns, in row order: one
    for the group, evaluated as one batch.  A group of one that fails a
    hypothesis (one of HYPOTHESIS_ERRORS) gets its precondition_failed_report's; a
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
    size = _window_size(config, entry.payload)
    restart = functools.partial(_restarted, config, entry.payload)
    for start in range(0, len(indices), size):
        for members, columns in _draws(config, entry.payload, indices[start : start + size]):
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

    The indices are taken a window at a time (_window_size), and each
    trial of a window is drawn once.  The drawn trials are grouped by the
    dimension each carries, and each group is one batch of the id's
    evaluator; a group that fails a hypothesis evaluates its members alone
    from the same draws, and no other group is evaluated again.  Each
    instance of a batch is evaluated on its own (see matalg for the stacked
    kernel calls), so a report is bit-equal whatever other indices share
    its window.  The BoundReports are built here from the evaluators' columns.
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
