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


# g and f take numpy floats or arrays (in f, a Python float 1.0 would divide by zero);
# the warnings of the branch a mask discards are the caller's to silence.
def _above_one(x, value):
    """value where x > 1, 0 on [1 - M_CLAMP_TOL, 1], NaN below: the floor rule of g and f.

    A float x (np.float64 included) is decided by plain comparisons; a NaN x keeps value.
    """
    if isinstance(x, float):
        return value if not x <= 1.0 else 0.0 if x >= 1.0 - M_CLAMP_TOL else np.nan
    return _where(x <= 1.0, _where(x < 1.0 - M_CLAMP_TOL, np.nan, 0.0), value)


def _contangle(m):
    """g[m^2] = arccosh^2 m as (2 arcsinh sqrt((m - 1)/2))^2: no square, no cancellation, no overflow."""
    return _above_one(m, (2.0 * np.arcsinh(np.sqrt(0.5 * (m - 1.0)))) ** 2)


def _entropy_f(x):
    """f(x) as ln((x+1)/2) + (x-1)/2 log1p(2/(x-1)): differences of large arguments stay accurate."""
    return _above_one(x, np.log(0.5 * (x + 1.0)) + 0.5 * (x - 1.0) * np.log1p(2.0 / (x - 1.0)))


def _m_leo_nadia(s, l, n):
    """m of the thermal squeezed family in its squeezing parameters: the double report's Leo-Nadia m."""
    shl, shn = np.sinh(l), np.sinh(n)
    chs2, sh2s = np.cosh(s) ** 2, np.sinh(2 * s)
    num = (2.0 * np.cosh(2 * l) * np.cosh(2 * n) * chs2 + 3.0 * np.cosh(2 * s)
           - 4.0 * shl * shn * sh2s - 1.0)
    # 2 cosh^2 s - 2 sinh^2 s written as 2: no cancellation at large s
    den = 2.0 * (2.0 + 2.0 * (shl ** 2 + shn ** 2) * chs2 + 2.0 * shl * shn * sh2s)
    return _where(np.tanh(s) <= shl * shn, 1.0, np.maximum(num / den, 1.0))


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
    y = math.sinh(s) ** 2
    return math.log1p(y) + y * math.log1p(1.0 / y) if y else 0.0


def check_monogamy(tau_one_vs_rest: float, taus_pairwise: Iterable[float]) -> float:
    """Residual of the monogamy inequality: one-vs-rest tau minus the pairwise sum.

    A nonnegative residual (within numerical tolerance) certifies that the
    probe mode's entanglement with the rest bounds the total pairwise
    entanglement it shares with the individual modes.
    """
    pairwise = list(taus_pairwise)
    if tau_one_vs_rest < -1e-12 or any(t < -1e-12 for t in pairwise):
        raise ValueError("contangles must be nonnegative")
    return float(tau_one_vs_rest - sum(pairwise))


Source = Literal["closed_form", "numeric_cm"]


@dataclass(frozen=True)
class MeasureReport:
    """One bipartition's entanglement summary: m-parameter, contangle, provenance."""

    m: float
    contangle: float
    separable: bool
    source: Source

    @classmethod
    def from_m(cls, m: float, source: Source) -> "MeasureReport":
        tau = contangle_from_m(m)
        return cls(m=max(m, 1.0), contangle=tau, separable=(tau == 0.0), source=source)


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
    with np.errstate(all="ignore"):  # an overflow leaves det sigma or m non-finite, rejected below
        det_sigma = float(np.linalg.det(cov.mat))
        if not abs(det_sigma) < math.inf:
            raise ValueError(f"the determinant of the state overflows (det sigma = {det_sigma!r})")
        family_det = np.float64(a * b - c_sq) ** 2
        if not abs(family_det) < math.inf:
            raise ValueError(f"the family determinant (ab - c^2)^2 overflows (ab - c^2 = {a * b - c_sq!r})")
        if abs(det_sigma - family_det) > FAMILY_RTOL * max(1.0, det_sigma):
            # within the rounding of a 4x4 determinant the test cannot tell the form apart
            _state_spectrum(cov, "thermal squeezed form", det_residual=abs(det_sigma - family_det))
            raise ValueError("state is not of thermal squeezed form (c+ != -c-)")
        prod = (a + 1.0) * (b + 1.0)
        u = np.float64(prod + c_sq) / (prod - c_sq)
        p = (a - u) / (u + 1.0)
        q = (b - u) / (u + 1.0)
        if min(p, q) < -FAMILY_RTOL:
            raise ValueError("invariants fall outside the thermal squeezed family")
        m = float(_m_leo_nadia(0.5 * math.acosh(max(u, 1.0)), math.asinh(math.sqrt(max(p, 0.0))),
                               math.asinh(math.sqrt(max(q, 0.0)))))
    if not math.isfinite(m):
        raise ValueError(f"the thermal squeezed inversion overflows (u = {float(u)!r})")
    return m


def two_mode_m(sigma: MatrixLike) -> float:
    """m-parameter of a two-mode state of the two families of the module docstring, decided on its spectrum.

    A pure state (both eigenvalues within ``PURITY_TOL`` of 1) reads ``(a + b) / 2``, a saturating one
    (``eta-`` within ``GMEMMS_SPECTRUM_TOL`` of 1) 1 if it is PPT and ``(a + b) / (2 + |a - b|)`` if not,
    and any other state :func:`squeezed_thermal_m`.
    """
    cov = _two_mode(sigma, "two_mode_m")
    eta_minus, eta_plus = _state_spectrum(cov)
    if max(abs(eta_minus - 1.0), abs(eta_plus - 1.0)) <= PURITY_TOL:
        a, b, _ = two_mode_marginals(cov)
        return 0.5 * (a + b)
    if abs(eta_minus - 1.0) > GMEMMS_SPECTRUM_TOL:
        return squeezed_thermal_m(cov)
    if ppt_separable(cov, (0,)):
        return 1.0
    a, b, _ = two_mode_marginals(cov)
    return (a + b) / (2.0 + abs(a - b))


def contangle_from_cm(sigma: MatrixLike) -> MeasureReport:
    """Contangle of a two-mode state evaluated from its covariance matrix."""
    return MeasureReport.from_m(two_mode_m(sigma), source="numeric_cm")

