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
closed-form 2x2 blocks.  The test suite holds the two routes to entrywise
agreement; each is the other's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .phase_space import (PURITY_TOL, CovMatrix, MatrixLike, _as_cov, _squeezed_vacuum, _state_spectrum, reduce,
                          two_mode_squeezer)

ACCEL_SPEC_RTOL = 1e-10

_Z2 = np.diag([1.0, -1.0])
_I2 = np.eye(2)


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


@dataclass(frozen=True)
class AccelSpec:
    """An observer's acceleration data and the derived squeezing parameter.

    Either built from physical data (proper acceleration and mode frequency,
    natural units) or directly from a squeezing parameter for dimensionless
    studies; in the latter case the physical fields stay None and
    frequency-aware operations must not be used.
    """

    squeezing: float
    acceleration: Optional[float] = None
    frequency: Optional[float] = None
    temperature: Optional[float] = None

    def __post_init__(self):
        _require_domain(squeezing=self.squeezing)
        if (self.acceleration is None) != (self.frequency is None):
            raise ValueError("acceleration and frequency must be given together")
        if self.acceleration is not None:
            r = accel_to_squeezing(self.acceleration, self.frequency)
            if abs(r - self.squeezing) > ACCEL_SPEC_RTOL * max(1.0, abs(r)):
                raise ValueError(
                    f"inconsistent spec: acceleration/frequency give r={r!r}, stored {self.squeezing!r}")
            t = unruh_temperature(self.acceleration)
            if self.temperature is not None and abs(t - self.temperature) > ACCEL_SPEC_RTOL * t:
                raise ValueError("stored temperature inconsistent with acceleration")
            object.__setattr__(self, "temperature", t)

    @classmethod
    def from_physical(cls, acceleration: float, frequency: float) -> "AccelSpec":
        return cls(squeezing=accel_to_squeezing(acceleration, frequency),
                   acceleration=acceleration, frequency=frequency)

    @classmethod
    def from_squeezing(cls, r: float) -> "AccelSpec":
        return cls(squeezing=r)


@dataclass(frozen=True)
class ScenarioLayout:
    """Fixed assignment of observer roles to mode indices of a scenario state."""

    roles: tuple[str, ...]

    def index(self, role: str) -> int:
        try:
            return self.roles.index(role)
        except ValueError:
            raise KeyError(f"unknown role {role!r}; expected one of {self.roles}") from None


#: One accelerated observer: inertial Alice, Rob (wedge I), anti-Rob (wedge II), the (L, N, Nbar) of the
#: two-observer state with Leo inertial.
SINGLE_LAYOUT = ScenarioLayout(("A", "R", "Rbar"))
#: Two accelerated observers, in block order anti-Leo, Leo, Nadia, anti-Nadia.
DOUBLE_LAYOUT = ScenarioLayout(("Lbar", "L", "N", "Nbar"))


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
    """The same four-mode state assembled from its closed-form 2x2 blocks.

    An entry that overflows is refused as the builders refuse it, with a ValueError and no numpy warning.
    """
    _require_domain(s=s, l=l, n=n)

    def local_bar(x):  # anti-observer marginal
        return (math.cosh(x) ** 2 + ch2s * math.sinh(x) ** 2) * _I2

    def local(x):  # observer marginal
        return (math.cosh(x) ** 2 * ch2s + math.sinh(x) ** 2) * _I2

    def wedge_pair(x):  # observer with own anti-observer
        return (chs2 * math.sinh(2 * x)) * _Z2

    def bar_cross(x, y):  # anti-observer of x with the other observer y
        return (math.cosh(y) * sh2s * math.sinh(x)) * _I2

    try:  # past the float range math.cosh, math.sinh and ** raise, and a product is inf (NaN times a 0 of I or Z)
        ch2s, sh2s, chs2 = math.cosh(2 * s), math.sinh(2 * s), math.cosh(s) ** 2
        with np.errstate(invalid="ignore"):  # a non-finite entry is refused by CovMatrix
            bars_cross = (sh2s * math.sinh(l) * math.sinh(n)) * _Z2  # the two anti-observers
            observers = (math.cosh(l) * math.cosh(n) * sh2s) * _Z2   # Leo with Nadia
            blocks = {
                (0, 0): local_bar(l), (1, 1): local(l), (2, 2): local(n), (3, 3): local_bar(n),
                (0, 1): wedge_pair(l), (0, 2): bar_cross(l, n), (0, 3): bars_cross,
                (1, 2): observers, (1, 3): bar_cross(n, l), (2, 3): wedge_pair(n),
            }
    except OverflowError:
        raise ValueError("covariance matrix entries must be finite") from None
    out = np.zeros((8, 8))
    for (i, j), blk in blocks.items():
        out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
        if i != j:
            out[2 * j:2 * j + 2, 2 * i:2 * i + 2] = blk.T
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
