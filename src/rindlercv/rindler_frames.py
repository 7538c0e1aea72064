"""Acceleration-to-squeezing map and the accelerated-observer scenario states.

A uniformly accelerated observer describes each inertial field mode as a
two-mode squeezed pair spanning the two causally disconnected Rindler
wedges, with squeezing r fixed by ``cosh r = (1 - exp(-2 pi w / accel))^(-1/2)``.
Starting from an inertially two-mode-squeezed field (parameter s), one
accelerated observer therefore sees a pure three-mode state (inertial
Alice, Rob in wedge I, virtual anti-Rob in wedge II) and two accelerated
observers see a pure four-mode state (anti-Leo, Leo, Nadia, anti-Nadia).
The three-mode state is the four-mode one with Leo inertial (l = 0):
(A, R, anti-R) are its (L, N, anti-N), and the one-observer constructors
return that reduction.

The four-mode state is built two independent ways: numerically, by
composing two-mode squeezers on the vacuum, and analytically, from the
paper's closed-form entries, as its x-quadrature covariance X and its
p-quadrature covariance D X D.  The test suite holds the two routes to
entrywise agreement; each is the other's oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .phase_space import (PURITY_TOL, CovMatrix, MatrixLike, _as_cov, _read_only, _squeezed_vacuum, _state_spectrum,
                          reduce, two_mode_squeezer)

#: A symmetric 4x4 matrix from its ten distinct entries, the upper triangle row by row: X = upper[_SYMMETRIC].
_SYMMETRIC = _read_only(np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]]))
#: D X D = X times these signs, D = diag(1, -1, 1, -1): the four-mode state's p-quadrature covariance from its x one.
_MOMENTUM_SIGNS = _read_only(np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0]))


def _require_domain(positive: bool = False, **params) -> None:
    """Reject a parameter that is NaN, infinite or negative (zero too, if positive).

    The ValueError names the parameter and its first offending value.
    Floats take a plain comparison; arrays are checked element by element.
    """
    for name, value in params.items():
        if isinstance(value, (int, float)):
            if (value > 0 if positive else value >= 0) and value < math.inf:
                continue
        else:
            value = np.ravel(np.asarray(value, dtype=float))
            ok = (value > 0 if positive else value >= 0) & (value < math.inf)
            if ok.all():
                continue
            value = value[np.argmin(ok)]
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {float(value)!r}")


def accel_to_squeezing(acceleration, frequency):
    """Squeezing parameter r of the Rindler-wedge pair for a given proper acceleration.

    Inverts ``cosh r = (1 - q)^(-1/2)`` with ``q = exp(-2 pi frequency / acceleration)``
    as ``sinh r = sqrt(q) / sqrt(1 - q)``.  ``sqrt(q)`` and ``1 - q`` are each
    formed directly (the latter with expm1), so r stays accurate where q
    itself would be subnormal and where q is close to 1.  Takes broadcastable
    arrays as well as floats (for which it returns a float).
    """
    _require_domain(positive=True, acceleration=acceleration, frequency=frequency)
    with np.errstate(divide="ignore", over="ignore"):  # a ratio that under- or overflows gives r = inf or 0
        x = math.pi * np.divide(frequency, acceleration)
        r = np.arcsinh(np.exp(-x) / np.sqrt(-np.expm1(-2.0 * x)))
    return float(r) if np.ndim(r) == 0 else r


def squeezing_to_ratio(r: float) -> float:
    """Frequency-to-acceleration ratio producing squeezing r (inverse of the map above).

    -ln tanh r is taken as log1p(2 e^{-2r} / -expm1(-2r)): no cancellation at large r, and no overflow.
    """
    _require_domain(positive=True, squeezing=r)
    return math.log1p(2.0 * math.exp(-2.0 * r) / -math.expm1(-2.0 * r)) / math.pi


def unruh_temperature(acceleration: float) -> float:
    """Temperature accel / (2 pi) perceived by the accelerated observer (k_B = c = 1)."""
    _require_domain(positive=True, acceleration=acceleration)
    return acceleration / (2.0 * math.pi)


def build_single_observer_cm(s: float, r: float) -> CovMatrix:
    """Three-mode state seen with one accelerated observer, by squeezer composition.

    The (Leo, Nadia, anti-Nadia) reduction of :func:`build_double_observer_cm`
    with Leo inertial (l = 0): the inertial squeezer (s) entangles Alice with
    the wedge-I mode, then the acceleration squeezer (r) entangles the two
    Rindler wedges.
    """
    _require_domain(s=s, r=r)
    return reduce(build_double_observer_cm(s, 0.0, r), (1, 2, 3))


def single_observer_blocks(s: float, r: float) -> CovMatrix:
    """The same three-mode state, the matching reduction of :func:`double_observer_blocks`."""
    _require_domain(s=s, r=r)
    return reduce(double_observer_blocks(s, 0.0, r), (1, 2, 3))


def build_double_observer_cm(s: float, l: float, n: float) -> CovMatrix:
    """Four-mode state seen with two accelerated observers, by squeezer composition.

    Mode order anti-Leo, Leo, Nadia, anti-Nadia.  The inertial squeezer (s)
    acts on (Leo, Nadia); the acceleration squeezers (l, n) then couple each
    observer to the respective wedge-II partner.
    """
    _require_domain(s=s, l=l, n=n)
    inertial = two_mode_squeezer(s, 1, 2, 4)
    leo = two_mode_squeezer(l, 1, 0, 4)
    nadia = two_mode_squeezer(n, 2, 3, 4)
    return _squeezed_vacuum(inertial, nadia, leo)


def double_observer_blocks(s: float, l: float, n: float) -> CovMatrix:
    """The same four-mode state from its ten closed-form entries.

    Each 2x2 block of the paper is a multiple of I or Z = diag(1, -1), so the
    state is its symmetric 4x4 x-quadrature covariance X, whose upper triangle
    is written row by row, and the p-quadrature covariance D X D with
    D = diag(1, -1, 1, -1); x-p entries are 0.  An entry that overflows is
    refused as the builders refuse it, with a ValueError and no numpy warning.
    """
    _require_domain(s=s, l=l, n=n)
    try:  # past the float range math.cosh, math.sinh and ** raise; CovMatrix refuses a product that overflows
        ch2s, sh2s, chs2 = math.cosh(2 * s), math.sinh(2 * s), math.cosh(s) ** 2
        ch_l, sh_l, ch_n, sh_n = math.cosh(l), math.sinh(l), math.cosh(n), math.sinh(n)
        # X's upper triangle, rows anti-Leo, Leo, Nadia, anti-Nadia: each observer's own wedge pair at (0, 1), (2, 3)
        upper = [ch_l ** 2 + ch2s * sh_l ** 2, chs2 * math.sinh(2 * l), ch_n * sh2s * sh_l, sh2s * sh_l * sh_n,
                 ch_l ** 2 * ch2s + sh_l ** 2, ch_l * ch_n * sh2s, ch_l * sh2s * sh_n,
                 ch_n ** 2 * ch2s + sh_n ** 2, chs2 * math.sinh(2 * n),
                 ch_n ** 2 + ch2s * sh_n ** 2]
    except OverflowError:
        raise ValueError("covariance matrix entries must be finite") from None
    x = np.array(upper)[_SYMMETRIC]
    out = np.zeros((8, 8))
    out[0::2, 0::2] = x
    out[1::2, 1::2] = _MOMENTUM_SIGNS * x
    return CovMatrix(out)


def pure_one_vs_rest_m(sigma: MatrixLike, probe: int) -> float:
    """One-vs-rest m-parameter of a pure state: sqrt det of the probe's reduction.

    It takes the states ``is_pure`` takes; a spectrum off 1 within rounding raises "purity not resolvable".
    """
    cov = _as_cov(sigma)
    if probe < 0 or probe >= cov.n_modes:
        raise ValueError(f"probe mode {probe} out of range")
    _state_spectrum(cov)  # a matrix that is no state is refused as such
    if max(abs(eta - 1.0) for eta in _state_spectrum(cov, "purity", PURITY_TOL, pure=True)) > PURITY_TOL:
        raise ValueError("global state must be pure for the one-vs-rest determinant rule")
    return float(math.sqrt(np.linalg.det(cov.block(probe, probe))))
