"""Scalar information quantities on covariance matrices.

Entanglement is quantified by the contangle ``tau = g[m^2] = arccosh^2 m``;
total correlations by the mutual information built from the entropy kernel
``f``.  g and f are each written once, as kernels for floats and arrays.
All entropic quantities use the natural logarithm (this convention is
pinned by the acceptance suite: the classical-correlation deficit between
one and two accelerated observers saturates at exactly 1 only in base e).

Two-mode contangles come from one evaluator, :func:`two_mode_m`, which
reads the symplectic spectrum once and picks one of the two families that
occur in this package, for which closed forms exist:

* states saturating the uncertainty relation (minimum symplectic
  eigenvalue 1; Gaussian maximally entangled mixed states at fixed
  marginals, "GMEMMS", pure states among them), where
  ``m = (a + b) / (2 + |a - b|)`` in terms of the marginal determinant
  roots ``a, b``;
* nonsymmetric thermal squeezed states (:func:`squeezed_thermal_m`),
  recovered by inverting the covariance invariants to the three squeezing
  parameters that generate the family and evaluating the report kernel's
  Leo-Nadia m there (it is defined here, once, for both routes), so the
  thermal route checks the state and the inversion, not the m formula.

Every measure here reads its spectra through ``phase_space._state_spectrum``,
which alone decides that a matrix is no state ("state is not physical") or
that a value is lost to rounding ("<what> not resolvable at this squeezing").

The general Gaussian convex roof is intentionally not implemented.

Note that the contangle and the logarithmic negativity can order
nonsymmetric mixed two-mode states differently; the two are complementary
quantifiers here, not interchangeable ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .phase_space import (
    BONA_FIDE_TOL,
    MatrixLike,
    PURITY_TOL,
    _UNIT_ROUNDOFF,
    _pair_factor,
    _state_spectrum,
    _two_mode,
    check_mode_set,
    two_mode_marginals,
)
from .rindler_frames import _require_domain

M_CLAMP_TOL = 1e-9
GMEMMS_SPECTRUM_TOL = 1e-6
FAMILY_RTOL = 1e-6


class InconsistencyError(ValueError):
    """A closed form and a covariance-matrix route disagree beyond tolerance.

    Raised e.g. when an m-parameter lands below 1 - 1e-9, which signals an
    upstream inconsistency rather than a merely separable state.
    """


def _where(condition, if_true, if_false):
    """np.where, without its cost at a single point."""
    if isinstance(condition, (bool, np.bool_)):
        return if_true if condition else if_false
    return np.where(condition, if_true, if_false)


def _anywhere(mask) -> bool:  # mask.any(), without its cost at a single point
    return bool(mask) if isinstance(mask, (bool, np.bool_)) else bool(mask.any())


# g and f take numpy floats or arrays (in f, a Python float 1.0 would divide by zero);
# the warnings of the branch a mask discards are the caller's to silence.  Every square in
# the kernels is a product: a scalar's ** 2 goes through pow, which can round apart from
# an array's x * x, and a point would then differ from its sweep row.
def _above_one(x, value):
    """value where x > 1, 0 on [1 - M_CLAMP_TOL, 1], NaN below: the floor rule of g and f.

    A float x (np.float64 included) is decided by plain comparisons; a NaN x keeps value.
    """
    if isinstance(x, float):
        return value if not x <= 1.0 else 0.0 if x >= 1.0 - M_CLAMP_TOL else np.nan
    return _where(x <= 1.0, _where(x < 1.0 - M_CLAMP_TOL, np.nan, 0.0), value)


def _contangle(m):
    """g[m^2] = arccosh^2 m as (2 arcsinh sqrt((m - 1)/2))^2: no square of m, no cancellation, no overflow."""
    acosh_m = 2.0 * np.arcsinh(np.sqrt(0.5 * (m - 1.0)))
    return _above_one(m, acosh_m * acosh_m)


def _entropy_f(x):
    """f(x) as ln((x+1)/2) + (x-1)/2 log1p(2/(x-1)): differences of large arguments stay accurate."""
    return _above_one(x, np.log(0.5 * (x + 1.0)) + 0.5 * (x - 1.0) * np.log1p(2.0 / (x - 1.0)))


def _leo_nadia_death(tanh_s, shl, shn):
    """The one Leo-Nadia death mask tanh s - sinh l sinh n <= 0 (x - y <= 0 iff x <= y), and that margin."""
    margin = tanh_s - shl * shn
    return margin <= 0.0, margin


def _m_leo_nadia(s, l, n):
    """m of the thermal squeezed family in its parameters: the reports' Leo-Nadia m (m_AR at l = 0), 1 where dead."""
    shl, shn = np.sinh(l), np.sinh(n)
    chs, sh2s = np.cosh(s), np.sinh(2 * s)
    chs2 = chs * chs
    num = (2.0 * np.cosh(2 * l) * np.cosh(2 * n) * chs2 + 3.0 * np.cosh(2 * s)
           - 4.0 * shl * shn * sh2s - 1.0)
    # 2 cosh^2 s - 2 sinh^2 s written as 2: no cancellation at large s
    den = 2.0 * (2.0 + 2.0 * (shl * shl + shn * shn) * chs2 + 2.0 * shl * shn * sh2s)
    return _where(_leo_nadia_death(np.tanh(s), shl, shn)[0], 1.0, np.maximum(num / den, 1.0))


def _checked(kernel, x, name: str, below_floor):
    """kernel(x), a float for a float; a non-finite x raises ValueError, one below 1 - M_CLAMP_TOL below_floor(x)."""
    x = np.asarray(x, dtype=float)[()]  # a float becomes an np.float64: its tests cost far less than a 0-d array's
    ok = (x >= 1.0 - M_CLAMP_TOL) & (x < math.inf)
    if not (ok if isinstance(ok, np.bool_) else ok.all()):
        value = float(np.ravel(x)[np.argmin(ok)])
        raise below_floor(value) if math.isfinite(value) else ValueError(f"{name} must be finite, got {value!r}")
    above = x > 1.0
    if above if isinstance(above, np.bool_) else above.all():  # only the masked x <= 1 branch can warn
        out = kernel(x)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = kernel(x)
    return out if isinstance(out, np.ndarray) else float(out)


def contangle_from_m(m):
    """Contangle arccosh^2 m (a float or an array); m in [1 - 1e-9, 1] gives 0, a smaller m InconsistencyError."""
    return _checked(_contangle, m, "m-parameter",
                    lambda m: InconsistencyError(f"m-parameter {m!r} below the separability floor"))


def entropy_term_f(x):
    """Entropy kernel f(x) = (x+1)/2 ln((x+1)/2) - (x-1)/2 ln((x-1)/2) (a float or an array), 0 on [1 - 1e-9, 1]."""
    return _checked(_entropy_f, x, "entropy kernel argument",
                    lambda x: ValueError(f"entropy kernel needs x >= 1, got {x!r}"))


def von_neumann_entropy(sigma: MatrixLike) -> float:
    """Von Neumann entropy of a Gaussian state: sum of f over the symplectic spectrum, read as 1 near 1."""
    etas = _state_spectrum(sigma, "physicality", 100 * BONA_FIDE_TOL)
    return float(np.sum(entropy_term_f([max(eta, 1.0) for eta in etas])))


def mutual_information(sigma: MatrixLike, split: Iterable[int]) -> float:
    """Mutual information of a two-mode Gaussian state across the given split.

    ``I = f(sqrt det sigma_A) + f(sqrt det sigma_B) - f(eta-) - f(eta+)``
    with eta the symplectic eigenvalues of the global two-mode state.
    """
    cov = _two_mode(sigma, "mutual_information")
    modes = check_mode_set(split, 2)
    if len(modes) != 1:
        raise ValueError("split must select exactly one of the two modes")
    # first: an unphysical state has no marginals
    eta_minus, eta_plus = (max(eta, 1.0) for eta in _state_spectrum(cov, "physicality", 100 * BONA_FIDE_TOL))
    a, b, _ = two_mode_marginals(cov)
    return entropy_term_f(a) + entropy_term_f(b) - (entropy_term_f(eta_minus) + entropy_term_f(eta_plus))


def ppt_separable(sigma: MatrixLike, transposed: Iterable[int], tol: float = BONA_FIDE_TOL) -> bool:
    """PPT test for a 1 x (N-1) bipartition of a state: separable iff the partial transpose stays physical.

    It refuses a matrix that is no state (the criterion holds only for states)
    and a verdict that rounding could flip, as ``_state_spectrum`` decides.
    """
    return _state_spectrum(sigma, tol=tol, transposed=transposed)[0] >= 1.0 - tol


def log_negativity(sigma: MatrixLike, transposed: Iterable[int]) -> float:
    """Logarithmic negativity across a 1 x (N-1) bipartition of a state.

    Sum of -ln eta over the partially transposed symplectic eigenvalues that
    :func:`ppt_separable` reads below one, so 0.0 exactly where it answers True;
    it refuses what that refuses, and an eigenvalue that rounds to 0 ("log negativity not resolvable").
    """
    etas = _state_spectrum(sigma, "log negativity", transposed=transposed)
    return float(sum(-math.log(eta) for eta in etas if eta < 1.0 - BONA_FIDE_TOL))


def entropy_of_entanglement(s: float) -> float:
    """Entropy of entanglement f(cosh 2s) of a pure two-mode squeezed state.

    With y = sinh^2 s, f(cosh 2s) = ln(1 + y) + y ln(1 + 1/y).  Past s = 20 the
    second term is 1 to double precision and ln(1 + y) = ln cosh^2 s is taken
    as 2 (s + log1p(e^{-2s}) - ln 2), so cosh 2s is never formed: the value
    is finite until it passes the float range itself (s near 9e307).
    """
    _require_domain(s=s)
    if s > 20.0:
        return 2.0 * (s + math.log1p(math.exp(-2.0 * s)) - math.log(2.0)) + 1.0
    sh = math.sinh(s)
    y = sh * sh
    return math.log1p(y) + y * math.log1p(1.0 / y) if y else 0.0


def check_monogamy(tau_one_vs_rest: float, taus_pairwise: Iterable[float]) -> float:
    """Residual of the monogamy inequality: one-vs-rest tau minus the pairwise taus one by one, as the reports form it.

    A nonnegative residual (within numerical tolerance) certifies that the
    probe mode's entanglement with the rest bounds the total pairwise
    entanglement it shares with the individual modes.
    """
    pairwise = list(taus_pairwise)
    if tau_one_vs_rest < -1e-12 or any(t < -1e-12 for t in pairwise):
        raise ValueError("contangles must be nonnegative")
    residual = tau_one_vs_rest
    for tau in pairwise:
        residual = residual - tau
    return float(residual)


Source = Literal["closed_form", "numeric_cm"]


@dataclass(frozen=True)
class MeasureReport:
    """One bipartition's entanglement summary: m-parameter, contangle, provenance.

    Floats and a bool at a point; arrays of m's shape, element by element, for an array m.
    """

    m: float
    contangle: float
    separable: bool
    source: Source

    @classmethod
    def from_m(cls, m, source: Source) -> "MeasureReport":
        tau = contangle_from_m(m)
        return cls(m=_where(m > 1.0, m, 1.0), contangle=tau, separable=tau == 0.0, source=source)


# ---------------------------------------------------------------------------
# Closed-form contangle parameters from two-mode covariance matrices.
# ---------------------------------------------------------------------------

def squeezed_thermal_m(sigma: MatrixLike) -> float:
    """m-parameter of a (generally nonsymmetric) two-mode thermal squeezed state.

    The covariance invariants (a, b, c) with diagonal blocks a*I, b*I and
    off-diagonal c*Z are inverted to the unique squeezing parameters
    (s, l, n) that generate the state as a two-mode squeezed pair with both
    modes further squeezed against ancillas, and the family's m, the report
    kernel's Leo-Nadia m, is evaluated there.  Near the uncertainty-saturation
    boundary this inversion has a square-root sensitivity; :func:`two_mode_m`
    takes the GMEMMS form there.  An inversion that overflows (u is infinite where
    (a+1)(b+1) - c^2 rounds to 0) raises ValueError, and so does a determinant
    of the state or of the family, (ab - c^2)^2, that overflows.  A family test
    that fails within the rounding of det sigma names the rounding floor.
    """
    cov = _two_mode(sigma, "squeezed_thermal_m")
    if ppt_separable(cov, (0,)):
        return 1.0
    a, b, det_eps = two_mode_marginals(cov)
    if det_eps > 0:
        raise ValueError("entangled two-mode states need det eps < 0")
    c_sq = -det_eps
    pair = _pair_factor(cov)
    with np.errstate(all="ignore"):  # an overflow leaves det sigma or m non-finite, rejected below
        if pair is None:
            det_sigma = float(np.linalg.det(cov.mat))
            if not abs(det_sigma) < math.inf:
                raise ValueError(f"the determinant of the state overflows (det sigma = {det_sigma!r})")
            root_det = np.float64(a * b - c_sq)
            family_det = root_det * root_det
            if not abs(family_det) < math.inf:
                raise ValueError(f"the family determinant (ab - c^2)^2 overflows (ab - c^2 = {a * b - c_sq!r})")
            if abs(det_sigma - family_det) > FAMILY_RTOL * max(1.0, det_sigma):
                # within the rounding of a 4x4 determinant the test cannot tell the form apart
                _state_spectrum(cov, "thermal squeezed form", det_residual=abs(det_sigma - family_det))
                raise ValueError("state is not of thermal squeezed form (c+ != -c-)")
            prod = (a + 1.0) * (b + 1.0)
            u = np.float64(prod + c_sq) / (prod - c_sq)
        else:  # X (+) D X D with D's signs opposite has c+ = -c- exactly: no family test
            (a, b, c, det_x), _, rtols = pair
            prod = (a + 1.0) * (b + 1.0)
            # (a + 1)(b + 1) - c^2 = det X + a + b + 1, with det X a sum of squared minors: no cancellation
            u = np.float64(prod + c * c) / (det_x + a + b + 1.0)
        p = (a - u) / (u + 1.0)
        q = (b - u) / (u + 1.0)
        if min(p, q) < -FAMILY_RTOL:
            raise ValueError("invariants fall outside the thermal squeezed family")
        angles = 0.5 * math.acosh(max(u, 1.0)), math.asinh(math.sqrt(max(p, 0.0))), math.asinh(math.sqrt(max(q, 0.0)))
        m = float(_m_leo_nadia(*angles))
        # a bound that overflows is no bound: it refuses
        error = None if pair is None else _inversion_error(a, b, float(u), float(p), float(q), m, sum(angles), *rtols)
    if not math.isfinite(m):
        raise ValueError(f"the thermal squeezed inversion overflows (u = {float(u)!r})")
    if error is not None:
        _state_spectrum(cov, "thermal squeezed form", FAMILY_RTOL, rel_error=error / m)
    return m


def _inversion_error(a: float, b: float, u: float, p: float, q: float, m: float, angles: float, g: float,
                     r: float) -> float:
    """A bound on the absolute error of :func:`squeezed_thermal_m`'s m from a factor's invariants.

    a, b and c are within g of their values, relatively, det X within r, and each rounding within the unit
    roundoff U; the bound is first order in them but for two square roots.  u sums nonnegative terms only,
    so it is within e = 2g + max(g, r) + 8U relatively, du = e u.  p = (a - u) / (u + 1) cancels: it is
    within dp = (g a + du) / (u + 1) + (e + 3U) |p| absolutely, and q likewise with b.  The kernel reads
    m = N / D at C = (u + 1) / 2 = cosh^2 s, S = sqrt(u^2 - 1) = sinh 2s and W = sqrt(p q) = sinh l sinh n:

        N = 2 (1 + 2p)(1 + 2q) C + 3u - 4 W S - 1,    D = 4 + 4 (p + q) C + 4 W S.

    A square root sqrt(x) of a computed x is within |x - y| / sqrt(x) of sqrt(y), and within
    sqrt|x - y|, so S and W move by the smaller of the two, and N and D by dN and dD below; m then moves by
    (dN + m dD) / (D - dD).  Evaluating the kernel at the rounded (s, l, n) adds at most k U (T + m D),
    T the sum of the magnitudes of N's terms and k = 32 + 8 (s + l + n) (``angles``) for the angles'
    conditioning, with libm's acosh, asinh, cosh and sinh within an ulp.
    """
    unit = _UNIT_ROUNDOFF
    e = 2.0 * g + max(g, r) + 8.0 * unit
    du = e * u
    dp = (g * a + du) / (u + 1.0) + (e + 3.0 * unit) * abs(p)
    dq = (g * b + du) / (u + 1.0) + (e + 3.0 * unit) * abs(q)
    p, q, u = max(p, 0.0), max(q, 0.0), max(u, 1.0)
    big_c, big_s, w, x_p, x_q = 0.5 * (u + 1.0), math.sqrt(u * u - 1.0), math.sqrt(p * q), 1.0 + 2.0 * p, 1.0 + 2.0 * q
    dx = (2.0 * u + du) * du + 2.0 * unit * u * u  # of u^2 - 1
    d_s = math.sqrt(dx) if big_s == 0.0 else min(math.sqrt(dx), dx / big_s)
    dx = dp * q + dq * p + dp * dq + unit * p * q  # of p q
    d_w = math.sqrt(dx) if w == 0.0 else min(math.sqrt(dx), dx / w)
    d_ws = w * d_s + big_s * d_w + d_w * d_s
    d_num = 4.0 * (dp * x_q + dq * x_p) * big_c + (x_p * x_q + 3.0) * du + 4.0 * d_ws
    d_den = 4.0 * (dp + dq) * big_c + 2.0 * (p + q) * du + 4.0 * d_ws
    den = 4.0 + 4.0 * (p + q) * big_c + 4.0 * w * big_s
    terms = 2.0 * x_p * x_q * big_c + 3.0 * u + 4.0 * w * big_s + 1.0
    kernel = 8.0 * (4.0 + angles) * unit * (terms + m * den)
    return (d_num + m * d_den + kernel) / (den - d_den) if den > d_den else math.inf


def two_mode_m(sigma: MatrixLike) -> float:
    """m-parameter of a two-mode state of the two families of the module docstring, decided on its spectrum.

    A pure state (both eigenvalues within ``PURITY_TOL`` of 1) reads ``(a + b) / 2``, a saturating one
    (``eta-`` within ``GMEMMS_SPECTRUM_TOL`` of 1) 1 if it is PPT and ``(a + b) / (2 + |a - b|)`` if not,
    and any other state :func:`squeezed_thermal_m`.

    A state of the factor route (see ``phase_space.symplectic_eigenvalues``) is read with derived error
    bounds: the family refuses, "two-mode family not resolvable at this squeezing (...)", where an
    eigenvalue's bound could carry it across ``PURITY_TOL`` or ``GMEMMS_SPECTRUM_TOL``, and the GMEMMS m
    ("GMEMMS form ...") and the thermal one where m's bound exceeds ``FAMILY_RTOL`` relative; the pure m,
    a sum of two squared norms, is within 1e-13 of itself.
    """
    cov = _two_mode(sigma, "two_mode_m")
    eta_minus, eta_plus = _state_spectrum(cov, "two-mode family", margins=(PURITY_TOL, GMEMMS_SPECTRUM_TOL))
    if max(abs(eta_minus - 1.0), abs(eta_plus - 1.0)) <= PURITY_TOL:
        a, b, _ = two_mode_marginals(cov)
        return 0.5 * (a + b)
    if abs(eta_minus - 1.0) > GMEMMS_SPECTRUM_TOL:
        return squeezed_thermal_m(cov)
    if ppt_separable(cov, (0,)):
        return 1.0
    a, b, _ = two_mode_marginals(cov)
    m = (a + b) / (2.0 + abs(a - b))
    pair = _pair_factor(cov)
    if pair is not None:
        # a and b, read as sqrt(a^2) and sqrt(b^2), are within g + 2U of themselves, and |a - b| within
        # (g + 2U)(a + b) + U |a - b|: m is within (g + 2U)(1 + m) + 4U of itself
        g = pair[2][0] + 2.0 * _UNIT_ROUNDOFF
        _state_spectrum(cov, "GMEMMS form", FAMILY_RTOL, rel_error=g * (1.0 + m) + 4.0 * _UNIT_ROUNDOFF)
    return m


def contangle_from_cm(sigma: MatrixLike) -> MeasureReport:
    """Contangle of a two-mode state evaluated from its covariance matrix."""
    return MeasureReport.from_m(two_mode_m(sigma), source="numeric_cm")

