"""Test-only references that do not go through the package's evaluators.

oracle_psd_minors decides positive semidefiniteness by cofactor minors,
independent of the Jacobi eigensolver.  sequence_sides and
functional_sides compute an id's lhs and rhs from the paper's formulas in
exact arithmetic on the float inputs: every double is a Fraction exactly,
and the square roots and |.| that exact arithmetic cannot take are taken
in Decimal at the caller's context precision (sequence_sides) or in
mpmath at 40 digits (functional_sides).  Near equality a float reference
cannot tell which rounding is right; these can.

This module imports nothing from rcsbounds.bounds, forms or harness, so
it checks them from outside; it reads matalg's Tolerance and helpers only.
"""

import itertools
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np

from rcsbounds.matalg import DEFAULT_TOL, NotHermitianError, Tolerance, as_element, frobenius

# Digits of the mpmath roots and absolute values.
MP_DIGITS = 40


class DimTooLargeError(Exception):
    """The exact-minor oracle only supports d <= 4."""


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


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def sequence_sides(target: str, data) -> tuple:
    """(lhs, rhs, lhs size) of a sequence id from the paper's formulas in
    exact arithmetic on the float inputs: Fractions, or for INT_MULT's
    roots Decimals at the context's precision.  data carries w_seq, a_seq,
    b_seq and a window with a, A, b and B, as WeightedSequences does.  The
    lhs size is that of the products a difference lhs is formed from, else
    |lhs|."""
    w, a, b = ([Fraction(v) for v in seq] for seq in (data.w_seq, data.a_seq, data.b_seq))
    window = data.window
    lo_a, hi_a, lo_b, hi_b = (Fraction(v) for v in (window.a, window.A, window.b, window.B))
    sff, sgg, sfg = (
        sum(wi * ui * vi for wi, ui, vi in zip(w, u, v)) for u, v in ((a, a), (b, b), (a, b))
    )
    if target == "INT_MULT":
        ratio = _decimal(lo_a * lo_b / (hi_a * hi_b))
        lhs = _decimal(sff).sqrt() * _decimal(sgg).sqrt()
        return lhs, (ratio.sqrt() + (1 / ratio).sqrt()) / 2 * _decimal(sfg), lhs
    gap = (hi_a * hi_b - lo_a * lo_b) ** 2 / 4
    c1 = gap * sff**2 / (hi_a * lo_a) ** 2
    c2 = gap * sgg**2 / (hi_b * lo_b) ** 2
    c3 = gap * sfg**2 / (lo_a * lo_b * hi_a * hi_b)
    if target in ("PS_MULT", "GREUB_RHEINBOLDT"):
        ab = lo_a * lo_b * hi_a * hi_b
        return sff * sgg, (hi_a * hi_b + lo_a * lo_b) ** 2 / (4 * ab) * sfg**2, sff * sgg
    rhs = {"PS_ADD": c3, "PS_IMPROVED": min(c1, c2, c3)}.get(target, min(c1, c2))
    return sff * sgg - sfg**2, rhs, sff * sgg


def _exact(z) -> tuple[Fraction, Fraction]:
    """A complex double as its exact (real, imaginary) Fractions."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _mul(p: tuple, q: tuple) -> tuple[Fraction, Fraction]:
    """p q of exact complex pairs."""
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _conj(p: tuple) -> tuple[Fraction, Fraction]:
    return p[0], -p[1]


def _phi(phi, u, v) -> tuple[Fraction, Fraction]:
    """phi(v* u) exactly, for a functional with the kind and the state or
    weights of a PositiveFunctional and matrix arguments u, v; a vector
    argument is its first-column matrix, so v* u is then <u, v> in the
    (0, 0) entry alone."""
    u, v = (np.asarray(a, dtype=np.complex128) for a in (u, v))
    u, v = (a[:, None] if a.ndim == 1 else a for a in (u, v))
    d, cols = u.shape[0], u.shape[1]
    uu = [[_exact(u[k, j]) for j in range(cols)] for k in range(d)]
    vv = [[_exact(v[k, j]) for j in range(cols)] for k in range(d)]

    def entry(i, j):  # (v* u)_ij
        return _sum(_mul(_conj(vv[k][i]), uu[k][j]) for k in range(d))

    if phi.kind == "vector_state":  # s* (v* u) s
        s = [_exact(c) for c in phi.state[:cols]]
        return _sum(
            _mul(_conj(s[i]), _mul(entry(i, j), s[j])) for i in range(cols) for j in range(cols)
        )
    weights = [1] * cols if phi.kind == "trace" else [Fraction(w) for w in phi.weights]
    return _sum(_mul((weights[i], 0), entry(i, i)) for i in range(cols))


def _sum(terms) -> tuple[Fraction, Fraction]:
    terms = list(terms)
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def _to_mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _to_fraction(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _abs(z: tuple) -> mpmath.mpf:
    return mpmath.sqrt(_to_mp(z[0] ** 2 + z[1] ** 2))


def functional_sides(target: str, phi, x, y, pair) -> tuple[Fraction, Fraction, Fraction]:
    """(lhs, rhs, lhs size) of ADD_FUNCTIONAL or MULT_FUNCTIONAL, from the
    formulas of functional_additive_bound and functional_multiplicative_bound:
    phi(x*x), phi(y*y) and phi(y*x) exact (_phi), and so the additive sides
    exact too; the multiplicative sides' roots and |.| at MP_DIGITS digits,
    returned as the Fractions of those mpf values.  phi has the kind and
    the state or weights of a PositiveFunctional, pair the omega and
    Omega of an OmegaPair.  The lhs size is phi(x*x) phi(y*y), the size
    the additive lhs cancels from, else |lhs|."""
    fxx, fyy, cross = _phi(phi, x, x)[0], _phi(phi, y, y)[0], _phi(phi, x, y)
    lo, hi = _exact(pair.omega), _exact(pair.Omega)
    if target == "ADD_FUNCTIONAL":
        size = fxx * fyy
        spread = (hi[0] - lo[0]) ** 2 + (hi[1] - lo[1]) ** 2
        return size - cross[0] ** 2 - cross[1] ** 2, spread / 4 * fyy**2, size
    if target != "MULT_FUNCTIONAL":
        raise ValueError(f"not a functional id: {target}")
    with mpmath.workdps(MP_DIGITS):
        re_cross = lo[0] * hi[0] + lo[1] * hi[1]
        coeff = (_abs(hi) + _abs(lo)) / (2 * mpmath.sqrt(_to_mp(re_cross)))
        lhs = _to_fraction(mpmath.sqrt(_to_mp(fxx)) * mpmath.sqrt(_to_mp(fyy)))
        rhs = _to_fraction(coeff * _abs(cross))
    return lhs, rhs, abs(lhs)
