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
entrywise agreement; each is the other's oracle.  Every squeezer acts on
adjacent modes of opposite sign in D = diag(1, -1, 1, -1), so the composed
state is X (+) D X D too, with X = S_x S_x^T for the product S_x of the
squeezers' 4x4 x-blocks: X is one 4x4 product of S_x's rows, written once
as products of the squeezers' entries, and the state keeps S_x.  Its pairs,
and those of the one-observer and ansatz states reduced from it, take their
spectra from two rows of S_x (see ``phase_space.symplectic_eigenvalues``);
the closed-form states carry no factor and take the general Cholesky and
SVD route, so each measure still compares two algorithms, and neither reads
the other's entries.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .phase_space import (_UNIT_ROUNDOFF, CovMatrix, MatrixLike, _as_cov, _read_only, _squeezer_verdict, _xp_state,
                          is_pure, reduce)

#: A symmetric 4x4 matrix from its ten distinct entries, the upper triangle row by row: X = upper[_SYMMETRIC].
_SYMMETRIC = _read_only(np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]]))
#: D = diag(1, -1, 1, -1): the four-mode state's p-quadrature covariance is D X D, X its x one.
_SIGNS = (1.0, -1.0, 1.0, -1.0)
#: D X D = X times these signs: the four-mode state's p-quadrature covariance from its x one.
_MOMENTUM_SIGNS = _read_only(np.outer(_SIGNS, _SIGNS))
#: The 2x2 minors of two rows of a 4x4 matrix, by column pair: the order of its second compound.
_MINORS = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
#: How far, in ulps, cosh r and sinh r may be from their values; the chain's error bounds start here.
_SQUEEZER_ULPS = 4


class _ChainFactor:
    """S_x = L_x N_x I_x, the x-quadrature factor of :func:`build_double_observer_cm`'s chain (X = S_x S_x^T),
    and the modes a state reduced from it keeps, in its order.  Treat it as immutable.

    ``entries`` are the checked (cosh r, sinh r) of the inertial, Nadia and Leo squeezers, in the order
    applied.  Each acts on two adjacent modes i, i + 1, and its second compound mixes the 2x2 minors: the
    minor on (i, i + 1) stays (its entry is cosh^2 r - sinh^2 r, the exact 1), and so does each minor on
    neither mode; for each other mode k the minors on {i, k} and {i + 1, k} mix as the two modes do.  With
    the modes adjacent no k lies between them, so no entry of S_x or of its second compound is negative.
    """

    #: The pairs of minors each squeezer's compound mixes, in the order applied: the inertial one's on
    #: modes (1, 2), Nadia's on (2, 3) and Leo's on (0, 1).
    MOVES = (((0, 1), (4, 5)), ((1, 2), (3, 4)), ((1, 3), (2, 4)))
    #: First-order bounds on the relative errors of a, b and c, and of det X_A, in :attr:`invariants`.  In
    #: units of u: cosh r and sinh r carry e = 2 _SQUEEZER_ULPS u each, 0 and 1 none.  An entry of S_x is a
    #: product of at most two of them, within 2e + u; a minor after k of the 3 compounds, each step a sum
    #: of two nonnegative products, within k e + 2 (k - 1) u.  a, b and c sum 4 products of two entries,
    #: det X_A the 6 squared minors: each adds twice an entry's error, at most 3e + 4u, and one u per term.
    rtols = tuple((2 * (3 * 2 * _SQUEEZER_ULPS + 2 * 2) + terms) * _UNIT_ROUNDOFF for terms in (4, 6))

    def __init__(self, entries: tuple[tuple[float, float], ...], modes: tuple[int, ...] = (0, 1, 2, 3),
                 rows: tuple[tuple[float, ...], ...] | None = None):
        self.entries, self.modes = entries, modes
        if rows is None:  # S_x's rows, each entry a product of at most two of the squeezers' entries
            (c_s, s_s), (c_n, s_n), (c_l, s_l) = entries
            rows = ((c_l, s_l * c_s, s_l * s_s, 0.0), (s_l, c_l * c_s, c_l * s_s, 0.0),
                    (0.0, c_n * s_s, c_n * c_s, s_n), (0.0, s_n * s_s, s_n * c_s, c_n))
        self.rows = rows

    def kept(self, keep: tuple[int, ...]) -> "_ChainFactor":
        return _ChainFactor(self.entries, tuple([self.modes[k] for k in keep]), self.rows)

    @functools.cached_property
    def invariants(self) -> tuple[float, float, float, float]:
        """(a, b, c, det X_A) of a kept pair: |u|^2, |v|^2 and u.v of its rows u and v of S_x, and the sum of
        the squared 2x2 minors of [u; v], the pair's row of the second compound of S_x (Cauchy-Binet).

        A value that overflows is returned as inf: ``phase_space._pair_spectrum`` refuses the pair's spectrum.
        """
        i, j = self.modes
        u, v = self.rows[i], self.rows[j]
        minors = [0.0] * 6
        minors[_MINORS[min(i, j), max(i, j)]] = 1.0
        # the pair's row of each compound in turn, the last one applied first: each pair of minors it
        # mixes mixes as [[c, s], [s, c]]
        for (c, s), moves in zip(reversed(self.entries), reversed(self.MOVES)):
            for k, m in moves:
                x, y = minors[k], minors[m]
                minors[k], minors[m] = c * x + s * y, s * x + c * y
        a, b = sum([x * x for x in u]), sum([x * x for x in v])
        c, det = sum([x * y for x, y in zip(u, v)]), sum([x * x for x in minors])
        return a, b, c, det


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
    # an overflow is rejected by a squeezer's check; only the finished state is validated: a product that
    # overflows leaves it non-finite too, and is rejected there, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        inertial, leo, nadia = entries = [(float(np.cosh(r)), float(np.sinh(r))) for r in (s, l, n)]
        for c, sh in entries:
            _squeezer_verdict(c, sh)
        factor = _ChainFactor((inertial, nadia, leo))
        s_x = np.array(factor.rows)
        x = s_x @ s_x.T
    return _xp_state(x, _MOMENTUM_SIGNS * x, (factor, _SIGNS))


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
    return _xp_state(x, _MOMENTUM_SIGNS * x)


def pure_one_vs_rest_m(sigma: MatrixLike, probe: int) -> float:
    """One-vs-rest m-parameter of a pure state: sqrt det of the probe's reduction.

    The probe is a mode index as ``CovMatrix.block`` takes it; the state is pure, mixed or refused as ``is_pure`` says.
    """
    cov = _as_cov(sigma)
    block = cov.block(probe, probe)
    if not is_pure(cov):
        raise ValueError("global state must be pure for the one-vs-rest determinant rule")
    return float(math.sqrt(np.linalg.det(block)))
