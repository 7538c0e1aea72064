"""Acceleration-to-squeezing map and the accelerated-observer scenario states.

A uniformly accelerated observer describes each inertial field mode as a
two-mode squeezed pair spanning the two causally disconnected Rindler
wedges, with squeezing r fixed by ``cosh r = (1 - exp(-2 pi w / accel))^(-1/2)``.
Starting from an inertially two-mode-squeezed field (parameter s), one
accelerated observer therefore sees a pure three-mode state (inertial
Alice, Rob in wedge I, virtual anti-Rob in wedge II) and two accelerated
observers see a pure four-mode state (anti-Leo, Leo, Nadia, anti-Nadia).

Each scenario state is built two independent ways: numerically, by
composing two-mode squeezers on the vacuum, and analytically, from the
closed-form 2x2 blocks.  The test suite holds the two routes to entrywise
agreement; each is the other's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .phase_space import CovMatrix, MatrixLike, _as_cov, apply_congruence, is_pure, two_mode_squeezer, vacuum_cm

ACCEL_SPEC_RTOL = 1e-10

_Z2 = np.diag([1.0, -1.0])
_I2 = np.eye(2)


def _require_positive(message: str, *values) -> None:
    for value in values:
        if value <= 0 if isinstance(value, float) else np.any(np.less_equal(value, 0)):
            raise ValueError(message)


def accel_to_squeezing(acceleration, frequency):
    """Squeezing parameter r of the Rindler-wedge pair for a given proper acceleration.

    Inverts ``cosh r = (1 - q)^(-1/2)`` with ``q = exp(-2 pi frequency / acceleration)``
    as ``sinh r = sqrt(q) / sqrt(1 - q)``.  ``sqrt(q)`` and ``1 - q`` are each
    formed directly (the latter with expm1), so r stays accurate where q
    itself would be subnormal and where q is close to 1.  Takes broadcastable
    arrays as well as floats (for which it returns a float).
    """
    _require_positive("acceleration and mode frequency must be positive", acceleration, frequency)
    x = math.pi * np.divide(frequency, acceleration)
    r = np.arcsinh(np.exp(-x) / np.sqrt(-np.expm1(-2.0 * x)))
    return float(r) if np.ndim(r) == 0 else r


def squeezing_to_ratio(r: float) -> float:
    """Frequency-to-acceleration ratio producing squeezing r (inverse of the map above)."""
    if r <= 0:
        raise ValueError("squeezing must be positive to invert the acceleration map")
    return -math.log(math.tanh(r)) / math.pi


def unruh_temperature(acceleration: float) -> float:
    """Temperature accel / (2 pi) perceived by the accelerated observer (k_B = c = 1)."""
    if acceleration <= 0:
        raise ValueError("acceleration must be positive")
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
        if self.squeezing < 0:
            raise ValueError("squeezing must be nonnegative")
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


#: One accelerated observer: inertial Alice, Rob (wedge I), anti-Rob (wedge II).
SINGLE_LAYOUT = ScenarioLayout(("A", "R", "Rbar"))
#: Two accelerated observers, in block order anti-Leo, Leo, Nadia, anti-Nadia.
DOUBLE_LAYOUT = ScenarioLayout(("Lbar", "L", "N", "Nbar"))


def _check_nonnegative(**params: float) -> None:
    for name, value in params.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")


def build_single_observer_cm(s: float, r: float) -> CovMatrix:
    """Three-mode state seen with one accelerated observer, by squeezer composition.

    The inertial two-mode squeezer (s) entangles Alice with the wedge-I mode,
    then the acceleration squeezer (r) entangles the two Rindler wedges.
    """
    _check_nonnegative(s=s, r=r)
    inertial = two_mode_squeezer(s, 0, 1, 3)
    rindler = two_mode_squeezer(r, 1, 2, 3)
    return apply_congruence(rindler, apply_congruence(inertial, vacuum_cm(3)))


def single_observer_blocks(s: float, r: float) -> CovMatrix:
    """The same three-mode state assembled from its closed-form 2x2 blocks."""
    _check_nonnegative(s=s, r=r)
    ch2s, sh2s = math.cosh(2 * s), math.sinh(2 * s)
    chr2, shr2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    sig_a = ch2s * _I2
    sig_r = (ch2s * chr2 + shr2) * _I2
    sig_rbar = (chr2 + ch2s * shr2) * _I2
    eps_ar = (math.cosh(r) * sh2s) * _Z2
    eps_arbar = (math.sinh(r) * sh2s) * _I2
    eps_rrbar = (math.cosh(s) ** 2 * math.sinh(2 * r)) * _Z2
    out = np.zeros((6, 6))
    out[0:2, 0:2] = sig_a
    out[2:4, 2:4] = sig_r
    out[4:6, 4:6] = sig_rbar
    out[0:2, 2:4] = eps_ar
    out[2:4, 0:2] = eps_ar.T
    out[0:2, 4:6] = eps_arbar
    out[4:6, 0:2] = eps_arbar.T
    out[2:4, 4:6] = eps_rrbar
    out[4:6, 2:4] = eps_rrbar.T
    return CovMatrix(out)


def build_double_observer_cm(s: float, l: float, n: float) -> CovMatrix:
    """Four-mode state seen with two accelerated observers, by squeezer composition.

    Mode order anti-Leo, Leo, Nadia, anti-Nadia.  The inertial squeezer (s)
    acts on (Leo, Nadia); the acceleration squeezers (l, n) then couple each
    observer to the respective wedge-II partner.
    """
    _check_nonnegative(s=s, l=l, n=n)
    inertial = two_mode_squeezer(s, 1, 2, 4)
    leo = two_mode_squeezer(l, 1, 0, 4)
    nadia = two_mode_squeezer(n, 2, 3, 4)
    sigma = apply_congruence(inertial, vacuum_cm(4))
    return apply_congruence(leo, apply_congruence(nadia, sigma))


def double_observer_blocks(s: float, l: float, n: float) -> CovMatrix:
    """The same four-mode state assembled from its closed-form 2x2 blocks."""
    _check_nonnegative(s=s, l=l, n=n)
    ch2s, sh2s, chs2 = math.cosh(2 * s), math.sinh(2 * s), math.cosh(s) ** 2

    def local_bar(x):  # anti-observer marginal
        return (math.cosh(x) ** 2 + ch2s * math.sinh(x) ** 2) * _I2

    def local(x):  # observer marginal
        return (math.cosh(x) ** 2 * ch2s + math.sinh(x) ** 2) * _I2

    def wedge_pair(x):  # observer with own anti-observer
        return (chs2 * math.sinh(2 * x)) * _Z2

    def bar_cross(x, y):  # anti-observer of x with the other observer y
        return (math.cosh(y) * sh2s * math.sinh(x)) * _I2

    bars_cross = (sh2s * math.sinh(l) * math.sinh(n)) * _Z2  # the two anti-observers
    observers = (math.cosh(l) * math.cosh(n) * sh2s) * _Z2   # Leo with Nadia

    out = np.zeros((8, 8))
    blocks = {
        (0, 0): local_bar(l), (1, 1): local(l), (2, 2): local(n), (3, 3): local_bar(n),
        (0, 1): wedge_pair(l), (0, 2): bar_cross(l, n), (0, 3): bars_cross,
        (1, 2): observers, (1, 3): bar_cross(n, l), (2, 3): wedge_pair(n),
    }
    for (i, j), blk in blocks.items():
        out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
        if i != j:
            out[2 * j:2 * j + 2, 2 * i:2 * i + 2] = blk.T
    return CovMatrix(out)


def pure_one_vs_rest_m(sigma: MatrixLike, probe: int) -> float:
    """One-vs-rest m-parameter of a pure state: sqrt det of the probe's reduction."""
    cov = _as_cov(sigma)
    if probe < 0 or probe >= cov.n_modes:
        raise ValueError(f"probe mode {probe} out of range")
    if not is_pure(cov):
        raise ValueError("global state must be pure for the one-vs-rest determinant rule")
    return float(math.sqrt(np.linalg.det(cov.block(probe, probe))))
