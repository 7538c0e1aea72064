"""Dense phase-space linear algebra for zero-mean Gaussian states.

Conventions used throughout the package:

* quadrature ordering ``(x_1, p_1, x_2, p_2, ...)``,
* commutation relations ``[X_i, X_j] = 2i Omega_ij``, so the vacuum
  covariance matrix is the identity and physical states satisfy
  ``sigma + i Omega >= 0`` (all symplectic eigenvalues >= 1),
* everything dimensionless, no hbar anywhere.

All containers are immutable and every operation is a pure function, so the
module is safe to use from any number of threads.  A :class:`CovMatrix` or
:class:`SympTransform` compares and hashes by identity, as any object does:
two instances built from equal matrices are not equal, and either can be a
set member or a dict key; compare values through ``.mat``.

A :class:`CovMatrix` computes its symplectic spectrum and each of its partial
transposes at most once and reuses them: :func:`symplectic_eigenvalues` and
:func:`partial_transpose` keep their results on the instance, out of sight of
its fields.  Those memo writes are idempotent (two threads that race store the
same value), and callers get a fresh copy of the spectrum, so the state stays
immutable and thread-safe.

The constants the operations need are built once and shared: per number of
modes the symplectic form and the vacuum of :func:`vacuum_cm`; per validated
mode set the +-1 mask of :func:`partial_transpose` and the quadrature indices
of :func:`reduce`; and the mode sets :func:`check_mode_set` has validated, for
tuples.  Each array is read-only (writing to one raises) and each cache is a
``functools`` cache, so the worst a race can do is build the same constant
twice and keep one of them: no caller can change what another one sees.  The
per-mode-set caches are bounded.

A state that a squeezer chain built on the vacuum
(``rindler_frames.build_double_observer_cm``) is X (+) D X D on (x, p),
X = S_x S_x^T, and keeps its x-quadrature factor S_x with D's signs;
:func:`reduce` keeps the factor's rows and :func:`partial_transpose` flips the
signs of D.  A two-mode state that carries it takes its spectrum and marginals
in closed form from two rows of S_x, each eigenvalue with a derived error
bound, or refuses them (:func:`symplectic_eigenvalues`); every other matrix, public
``CovMatrix(...)`` and closed-form states and states of more than two modes,
takes them from a Cholesky factorisation, an SVD and LAPACK determinants.
Neither route reads a closed-form entry of the paper.

Whether a matrix is a state, and whether a value read off its spectrum is
resolved at its squeezing, is decided in ``_state_spectrum`` alone, with one
factor ``FLOOR_FACTOR`` on the general route's rounding floors, and with the
factor route's derived bounds; every measure of the package reads spectra
through it.

Each covariance matrix is validated once, where it enters: a public
``CovMatrix(...)``, a raw array that any function turns into one, an
:func:`apply_congruence` result, and the state a squeezer chain built, formed
from its x-quadrature factor.  :func:`reduce` and
:func:`partial_transpose` return exact images of a validated matrix, a
principal submatrix and a product with a +-1 mask, which validation could
neither reject nor change, so they skip it.  Every public
``SympTransform(...)`` runs the full product test S^T Omega S = Omega.  A
:func:`two_mode_squeezer` is checked on its two entries instead, by the
identity cosh^2 r - sinh^2 r = 1 that makes it symplectic, through the same
verdict, tolerance and messages (``_symplectic_verdict``); on finite entries
the product test could not fail, so the squeezer skips it.  Those three
wrap their matrix with ``_Matrix._wrap``, the one unvalidated constructor.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np

SYMMETRY_ATOL = 1e-12
SYMPLECTIC_ATOL = 1e-10
PAIRING_RTOL = 1e-8
BONA_FIDE_TOL = 1e-9
PURITY_TOL = 1e-6
#: How many rounding floors :func:`_state_spectrum` allows a value: a symplectic eigenvalue moves by about
#: eps * max|sigma|^2 (eps * eta+ relative to the largest), an eigenvalue of sigma by eps * max|sigma|,
#: and a 4x4 determinant by eps * max|sigma|^4.
FLOOR_FACTOR = 32
_EPS = float(np.finfo(float).eps)
_UNIT_ROUNDOFF = _EPS / 2

#: Size of each per-mode-set cache: a library point uses about ten mode sets.
MODE_SET_CACHE = 256

ModeIndexSet = tuple[int, ...]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form, a direct sum of [[0,1],[-1,0]] blocks, as a fresh array."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return _omega(n_modes).copy()


@functools.cache
def _omega(n_modes: int) -> np.ndarray:
    """The symplectic form of n_modes >= 1 modes, built once per size and read-only."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return _read_only(omega)


def _mode_index(mode) -> int:
    """A mode index as a Python int: any Python or numpy integer; ValueError naming any other entry."""
    try:
        return operator.index(mode)
    except TypeError:
        raise ValueError(f"mode indices must be integers, got {mode!r}") from None


def _mode_set(modes: Iterable[int], n_modes: int) -> ModeIndexSet:
    out = tuple(map(_mode_index, modes))
    if not out:
        raise ValueError("mode index set must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError(f"mode indices must be distinct, got {out}")
    ordered = sorted(out)
    if ordered[0] < 0 or ordered[-1] >= n_modes:
        raise ValueError(f"mode indices {out} out of range for {n_modes} modes")
    return tuple(ordered)


@functools.lru_cache(maxsize=MODE_SET_CACHE, typed=True)
def _cached_mode_set(n_modes: int, *modes) -> ModeIndexSet:
    """:func:`_mode_set`, kept per entry types too: ``(1.0,)`` equals ``(1,)`` but is no mode set."""
    return _mode_set(modes, n_modes)


def check_mode_set(modes: Iterable[int], n_modes: int) -> ModeIndexSet:
    """Validate a set of mode indices: nonempty, distinct, inside [0, n_modes).

    Each entry must be a Python or numpy integer; any other one, even an
    integral float, raises ValueError naming it.  Returns them sorted, as
    Python ints.  A tuple's verdict is kept in a bounded cache, keyed on its
    entries and their types; errors are never kept, so a bad set raises on
    every call.
    """
    if type(modes) is tuple:
        try:
            return _cached_mode_set(n_modes, *modes)
        except TypeError:  # an unhashable entry: validate below, which names it
            pass
    return _mode_set(modes, n_modes)


@functools.lru_cache(maxsize=MODE_SET_CACHE)
def _quad_indices(modes: ModeIndexSet) -> np.ndarray:
    """Row/column indices of the quadratures of a validated mode set, built once and read-only."""
    return _read_only(np.array([q for m in modes for q in (2 * m, 2 * m + 1)]))


@functools.lru_cache(maxsize=MODE_SET_CACHE)
def _flip_mask(modes: ModeIndexSet, n_modes: int) -> np.ndarray:
    """The +-1 matrix whose product with sigma reverses the momenta of a validated mode set (read-only)."""
    flip = np.ones(2 * n_modes)
    for m in modes:
        flip[2 * m + 1] = -1.0
    return _read_only(np.outer(flip, flip))


def _symmetrize(arr: np.ndarray) -> np.ndarray:
    """The mean of a square array and its transpose, as validation stores it."""
    return 0.5 * arr + 0.5 * arr.T  # halve first: arr + arr.T overflows above about 9e307


@dataclass(frozen=True, eq=False)
class _Matrix:
    """A read-only 2N x 2N matrix of N modes: what a :class:`CovMatrix` and a :class:`SympTransform` share."""

    mat: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2

    @classmethod
    def _wrap(cls, arr: np.ndarray, factor: Optional[tuple] = None):
        """Wrap a new array, valid by construction, read-only and unvalidated: the one bypass of validation.

        Validation would pass an exact image of a validated covariance matrix (a submatrix, a +-1 mask product)
        unchanged: ``0.5 * x + 0.5 * x == x`` but for odd multiples of 2**-1074, held only where input was asymmetric.
        A state's x-quadrature factor and D's signs on its modes (see :func:`_xp_state`) are kept with it if given.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "mat", _read_only(arr))
        if factor is not None:
            out.__dict__["_factor"] = factor
        return out


@dataclass(frozen=True, eq=False)
class CovMatrix(_Matrix):
    """Covariance matrix of an N-mode zero-mean Gaussian state.

    The constructor enforces shape and symmetry (entries are symmetrized when
    the asymmetry is below ``SYMMETRY_ATOL`` and rejected otherwise).  It does
    *not* enforce the uncertainty relation: the same container also carries
    partially transposed matrices, whose symplectic spectrum may legitimately
    dip below one.  Use :func:`is_bona_fide` for the physicality check.
    """

    def __post_init__(self):
        arr = np.asarray(self.mat, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"covariance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[0] % 2:
            raise ValueError(f"covariance matrix must be 2Nx2N with N >= 1, got {arr.shape}")
        scale = abs(arr).max()  # NaN propagates through max, so this also tests finiteness
        if not scale < math.inf:
            raise ValueError("covariance matrix entries must be finite")
        asym = abs(arr - arr.T).max()
        if asym > SYMMETRY_ATOL * max(1.0, scale):
            raise ValueError(f"covariance matrix not symmetric (asymmetry {asym:.3e})")
        object.__setattr__(self, "mat", _read_only(_symmetrize(arr)))

    def block(self, i: int, j: int) -> np.ndarray:
        """The 2x2 block coupling mode i's quadratures with mode j's, each index as :func:`check_mode_set` takes it."""
        (i,), (j,) = check_mode_set((i,), self.n_modes), check_mode_set((j,), self.n_modes)
        return self.mat[2 * i:2 * i + 2, 2 * j:2 * j + 2]


def _symplectic_verdict(scale: float, defect: Callable[[float], float]) -> None:
    """The verdict of every symplectic check on a matrix S with scale = max|S|: ValueError unless S is symplectic.

    A scale that is not finite (NaN neither) fails first.  Then ``defect(k)``,
    the defect of S / k relative to k^2 with k = max(1, scale), so that no
    product overflows, must be at most ``SYMPLECTIC_ATOL`` (a NaN fails too).
    """
    if not scale < math.inf:
        raise ValueError("symplectic matrix entries must be finite")
    value = defect(max(1.0, float(scale)))
    if not value <= SYMPLECTIC_ATOL:
        raise ValueError(f"matrix does not preserve the symplectic form "
                         f"(defect {value:.3e} relative to max(1, max|S|)^2)")


@dataclass(frozen=True, eq=False)
class SympTransform(_Matrix):
    """A real symplectic matrix, i.e. the phase-space image of a Gaussian unitary."""

    def __post_init__(self):
        arr = np.asarray(self.mat, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 or arr.shape[0] == 0:
            raise ValueError(f"symplectic matrix must be 2Nx2N, got shape {arr.shape}")
        omega = _omega(arr.shape[0] // 2)

        def defect(k):
            unit = arr / k
            return abs(unit.T @ omega @ unit - omega / (k * k)).max()
        _symplectic_verdict(abs(arr).max(), defect)  # NaN propagates through max, so it fails the finite test
        object.__setattr__(self, "mat", _read_only(arr.copy()))


MatrixLike = Union[CovMatrix, np.ndarray]


def _as_cov(sigma: MatrixLike) -> CovMatrix:
    return sigma if isinstance(sigma, CovMatrix) else CovMatrix(np.asarray(sigma, dtype=float))


def _two_mode(sigma: MatrixLike, what: str) -> CovMatrix:
    """sigma as a CovMatrix; ValueError "<what> needs a two-mode state, got N modes" for any other size."""
    cov = _as_cov(sigma)
    if cov.n_modes != 2:
        raise ValueError(f"{what} needs a two-mode state, got {cov.n_modes} modes")
    return cov


@functools.cache
def vacuum_cm(n_modes: int) -> CovMatrix:
    """Covariance matrix of the N-mode vacuum: the 2N x 2N identity.

    Built and validated once per size: every caller shares the one
    (immutable) instance, and with it its memoised spectrum.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return CovMatrix(np.eye(2 * n_modes))


def two_mode_squeezer(r: float, i: int, j: int, n_modes: int) -> SympTransform:
    """Symplectic matrix of the two-mode squeezer with parameter r on modes (i, j).

    On the (i, j) subspace the transform is
    ``[[cosh r, 0, sinh r, 0], [0, cosh r, 0, -sinh r],
    [sinh r, 0, cosh r, 0], [0, -sinh r, 0, cosh r]]``
    and the identity everywhere else.

    It is checked on its two entries c = cosh r and s = sinh r, not by the
    product test of a public ``SympTransform(...)``: S^T Omega S = Omega
    holds exactly where c^2 - s^2 = 1, which finite c and s meet to
    rounding, so the product test cannot fail on them.  c and s must be
    finite, and the defect |(c/k)^2 - (s/k)^2 - 1/k^2|, k = max(1, |c|, |s|),
    at most ``SYMPLECTIC_ATOL``, with the product test's messages: a
    squeezing whose entries overflow is rejected with a ValueError, without
    a numpy warning.  The filled matrix is made read-only and wrapped by ``_wrap``, unvalidated.
    """
    i, j = check_mode_set((i, j), n_modes)  # the squeezer is symmetric in i and j
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by the check
        c, s = float(np.cosh(r)), float(np.sinh(r))
    _squeezer_verdict(c, s)
    out = np.eye(2 * n_modes)
    xi, pi, xj, pj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
    out[xi, xi] = out[pi, pi] = out[xj, xj] = out[pj, pj] = c
    out[xi, xj] = out[xj, xi] = s
    out[pi, pj] = out[pj, pi] = -s
    return SympTransform._wrap(out)


def _squeezer_verdict(c: float, s: float) -> None:
    """The check of a two-mode squeezer on its entries c = cosh r and s = sinh r (see :func:`two_mode_squeezer`)."""
    # max keeps its first NaN; cosh r and sinh r are NaN together
    _symplectic_verdict(max(abs(c), abs(s)), lambda k: abs((c / k) * (c / k) - (s / k) * (s / k) - 1.0 / k / k))


def apply_congruence(S: SympTransform, sigma: MatrixLike) -> CovMatrix:
    """Act with a symplectic transform on a state by congruence: sigma -> S sigma S^T."""
    cov = _as_cov(sigma)
    if S.n_modes != cov.n_modes:
        raise ValueError(f"dimension mismatch: transform has {S.n_modes} modes, state has {cov.n_modes}")
    return CovMatrix(S.mat @ cov.mat @ S.mat.T)


def _xp_state(x: np.ndarray, p: np.ndarray, factor: Optional[tuple] = None) -> CovMatrix:
    """The validated state with x-x entries x, p-p entries p and x-p entries 0, keeping factor if given.

    A factor is the state's x-quadrature factor S_x, X = S_x S_x^T, and the signs of D, P = D X D, on its
    modes.  S_x is an object whose ``kept(modes)`` is the factor of a reduction to modes, whose
    ``invariants`` are (a, b, c, det X_A) of a kept pair, and whose ``rtols`` bound their relative errors:
    those of a, b and c, and that of det X_A.  :func:`_pair_factor` alone reads them.
    """
    n_modes = len(x)
    out = np.zeros((2 * n_modes, 2 * n_modes))
    out[0::2, 0::2] = x
    out[1::2, 1::2] = p
    cov = CovMatrix(out)
    if factor is not None:
        cov.__dict__["_factor"] = factor
    return cov


def reduce(sigma: MatrixLike, keep: Iterable[int]) -> CovMatrix:
    """Reduced state of the kept modes (partial trace over the others)."""
    cov = _as_cov(sigma)
    modes = check_mode_set(keep, cov.n_modes)
    idx = _quad_indices(modes)
    factor = cov.__dict__.get("_factor")
    if factor is not None:
        rows, signs = factor
        factor = rows.kept(modes), tuple([signs[k] for k in modes])
    return CovMatrix._wrap(cov.mat.take(idx, 0).take(idx, 1), factor)


def _transposed_modes(modes: Iterable[int], n_modes: int) -> ModeIndexSet:
    """A mode set to transpose, validated by :func:`check_mode_set`: a proper subset of the n_modes modes."""
    if len(modes := check_mode_set(modes, n_modes)) >= n_modes:
        raise ValueError("cannot transpose every mode; pick a proper subset")
    return modes


def partial_transpose(sigma: MatrixLike, transposed: Iterable[int]) -> CovMatrix:
    """Partial transposition: momentum reversal (p -> -p) on the chosen modes.

    The result is kept on ``sigma`` per sorted mode set, so a second call
    returns the same (immutable) matrix, with its spectrum if one was taken.
    """
    cov = _as_cov(sigma)
    modes = _transposed_modes(transposed, cov.n_modes)
    memo = cov.__dict__.setdefault("_transposes", {})
    out = memo.get(modes)
    if out is None:
        factor = cov.__dict__.get("_factor")
        if factor is not None:
            rows, signs = factor
            factor = rows, tuple(-sign if k in modes else sign for k, sign in enumerate(signs))
        out = memo.setdefault(modes, CovMatrix._wrap(_flip_mask(modes, cov.n_modes) * cov.mat, factor))
    return out


def symplectic_eigenvalues(sigma: MatrixLike) -> np.ndarray:
    """Symplectic spectrum of a symmetric matrix, ascending.

    A two-mode state that a squeezer chain built (:func:`build_double_observer_cm
    <rindlercv.rindler_frames.build_double_observer_cm>` and its reductions and partial transposes) is
    X_A (+) D_A X_A D_A with X_A = [u; v] [u; v]^T, u and v two rows of the chain's x-quadrature factor S_x.
    Its spectrum is |eig(X_A D_A)|, taken in closed form from a = |u|^2, b = |v|^2, c = u.v and
    det X_A = ab - c^2, formed as the sum of the squared 2x2 minors of [u; v] (Cauchy-Binet, from the
    squeezers' second compounds), so no difference of large numbers forms it:

    * D_A's signs differ (a state): with d = |a - b|, eta+ = (d + sqrt(d^2 + 4 det X_A)) / 2 and
      eta- = det X_A / eta+;
    * they match (a partial transpose of one): the eigenvalues of X_A,
      eta+ = (a + b + sqrt((a - b)^2 + 4 c^2)) / 2 and eta- = det X_A / eta+.

    Each value carries a derived first-order error bound (see ``_pair_spectrum``), which
    :func:`_state_spectrum` reads; where an invariant or eta- overflows it raises "symplectic spectrum not
    resolvable at this squeezing".  No Cholesky factorisation, SVD or determinant is taken.

    Every other matrix (a public ``CovMatrix(...)``, the closed-form ``*_blocks`` states, and every state of
    other than two modes) takes the general route.  The eigenvalues of ``Omega sigma`` come in pairs
    ``+/- i eta``; the moduli are sorted, grouped in consecutive pairs and each pair is required to agree to
    ``PAIRING_RTOL``.  The moduli pair exactly for any symmetric sigma, so a pair that does not is rounding:
    it raises ValueError "symplectic spectrum not resolvable at this squeezing", with eps * max|sigma|^2 and
    the two moduli.  For positive definite input (every covariance matrix and every partial transpose of one)
    the moduli are the singular values of the exactly antisymmetric ``L^T Omega L`` with ``sigma = L L^T``
    the Cholesky factor, since ``eig(Omega L L^T) = eig(L^T Omega L)``; this keeps absolute errors near
    machine precision even for strongly squeezed states.  Indefinite symmetric input falls back to a general
    complex eigensolver on ``Omega sigma``.  The two routes are the oracles all closed-form spectra in the
    package are tested against; neither reads a closed-form entry of the paper.

    The spectrum of a :class:`CovMatrix` is computed once and kept on it;
    every call returns a fresh copy.  The fallback keeps sigma's smallest
    eigenvalue before it pairs the moduli, so :func:`_state_spectrum` decides
    whether sigma is positive definite even where they do not pair.
    """
    cov = _as_cov(sigma)
    memo = cov.__dict__.get("_spectrum")
    if memo is not None:
        return memo.copy()
    pair = _pair_spectrum(cov)
    if pair is not None:
        etas, bounds = pair
        cov.__dict__.setdefault("_bounds", bounds)  # set first: seen with the spectrum
        return cov.__dict__.setdefault("_spectrum", _read_only(np.array(etas))).copy()
    n = cov.n_modes
    omega = _omega(n)
    try:
        chol = np.linalg.cholesky(cov.mat)
    except np.linalg.LinAlgError:
        cov.__dict__["_lowest_eigenvalue"] = np.linalg.eigvalsh(cov.mat)[0]  # set first: seen with the spectrum
        mags = np.sort(np.abs(np.linalg.eigvals(omega @ cov.mat))).tolist()
    else:
        half = 0.5 * (chol.T @ omega @ chol)
        skew = half - half.T  # halve first: skew - skew.T overflows above about 9e307
        mags = np.linalg.svd(skew, compute_uv=False)[::-1].tolist()  # singular values come descending
    scale = max(1.0, mags[-1])
    etas = np.empty(n)
    for k in range(n):
        lo, hi = mags[2 * k], mags[2 * k + 1]
        if hi - lo > PAIRING_RTOL * max(scale, hi):
            raise _not_resolvable("symplectic spectrum", cov,
                                  f": could not pair symplectic eigenvalues {lo!r} vs {hi!r}", _Unpaired)
        etas[k] = 0.5 * lo + 0.5 * hi  # halve first: lo + hi overflows above about 9e307
    return cov.__dict__.setdefault("_spectrum", _read_only(etas)).copy()


def _spectrum(cov: CovMatrix) -> list[float]:
    """The spectrum kept on cov, as a list; :func:`symplectic_eigenvalues` computes it if there is none yet."""
    memo = cov.__dict__.get("_spectrum")
    return (symplectic_eigenvalues(cov) if memo is None else memo).tolist()


def _pair_factor(cov: CovMatrix) -> Optional[tuple]:
    """((a, b, c, det X_A), D's signs (D_1, D_2), the rtols (g, r)) of a two-mode state with a factor (see
    :func:`_xp_state`), None for any other state: the one reader of a factor's layout."""
    factor = cov.__dict__.get("_factor")
    if factor is None or cov.n_modes != 2:
        return None
    return factor[0].invariants, factor[1], factor[0].rtols


def _pair_spectrum(cov: CovMatrix) -> Optional[tuple[list[float], list[float]]]:
    """[eta-, eta+] of a two-mode state with a factor, and an absolute error bound on each; None for any other state.

    Such a pair never takes the general route: where a + b, det X_A or eta- overflows, it raises ``_Unpaired``.

    The bounds are first order in the unit roundoff u = eps / 2.  a, b and c are each within g of their
    value, relatively, and det X_A within r, (g, r) the factor's ``rtols`` (see :func:`_xp_state`).  Then:

    * signs differ: d = |a - b| is within (g + u)(a + b).  q = hypot(d, 2 sqrt(det X_A)) moves with d at
      slope d / q <= 1, and with det X_A by r det X_A / q <= r q / 4 (det X_A = eta+ eta- and
      q = eta+ + eta-), and rounds by 3u q; with q <= 2 eta+, eta+ = (d + q) / 2 is within
      (g + u)(a + b) + (r / 2 + 4u) eta+, and eta- = det X_A / eta+ within r + u + err(eta+) / eta+ of
      itself.  Where eta+ is far below a + b, d cancels, and the bound says so.
    * signs match: h = hypot(a - b, 2c) is within (2g + 3u)(a + b), since c <= (a + b) / 2 and
      h <= a + b; with a + b <= 2 eta+, eta+ = (a + b + h) / 2 is within (3g + 7u) eta+, and eta-
      within r + 3g + 8u of itself, both relative: no term cancels.
    """
    pair = _pair_factor(cov)
    if pair is None:
        return None
    (a, b, c, det), (sign_u, sign_v), (g, r) = pair
    if sign_u != sign_v:
        d = abs(a - b)
        plus = 0.5 * d + 0.5 * math.hypot(d, 2.0 * math.sqrt(det))
        err_plus = (g + _UNIT_ROUNDOFF) * (a + b) + (0.5 * r + 4.0 * _UNIT_ROUNDOFF) * plus
        err_minus = r + _UNIT_ROUNDOFF + err_plus / plus
    else:
        plus = 0.5 * (a + b) + 0.5 * math.hypot(a - b, 2.0 * c)
        err_plus = (3.0 * g + 7.0 * _UNIT_ROUNDOFF) * plus
        err_minus = r + 3.0 * g + 8.0 * _UNIT_ROUNDOFF
    minus = det / plus
    if not (err_plus < math.inf and minus < math.inf):  # NaN fails too
        raise _not_resolvable("symplectic spectrum", cov, error=_Unpaired)
    return [minus, plus], [err_minus * minus, err_plus]


def _not_resolvable(what: str, cov: CovMatrix, detail: str = "", error: type = ValueError) -> ValueError:
    """The error of a quantity that rounding swallows, with the floor eps * max|sigma|^2 of the state."""
    floor = _EPS * (scale := float(abs(cov.mat).max())) * scale  # about how far rounding moves an eta; no warning
    return error(f"{what} not resolvable at this squeezing (eps * max|sigma|^2 = {floor:.3g}){detail}")


class _NotPhysical(ValueError):
    """sigma is no state: raised by :func:`_state_spectrum`, False to :func:`is_bona_fide` and :func:`is_pure`."""


class _Unpaired(ValueError):
    """Rounding lost the spectrum (unpaired moduli, or a built pair's overflow): raised by symplectic_eigenvalues."""


def _state_spectrum(sigma: MatrixLike, what: Optional[str] = None, tol: float = BONA_FIDE_TOL, *,
                    pure: bool = False, det_residual: Optional[float] = None, rel_error: Optional[float] = None,
                    margins: tuple[float, ...] = (), transposed: Optional[Iterable[int]] = None) -> list[float]:
    """Ascending symplectic spectrum of a state: the numeric route's one physicality and resolution gate.

    Each test allows FLOOR_FACTOR rounding floors and refuses a verdict they could flip:

    * sigma is no state, ValueError "state is not physical (...)", where it is not positive definite (its
      Cholesky factorisation fails with an eigenvalue below -FLOOR_FACTOR eps max|sigma|) or eta- is below
      1 - max(tol, FLOOR_FACTOR eps eta+) by more than FLOOR_FACTOR eps max|sigma|^2.  Within that it is a
      state to float resolution, which a ``what`` read off this spectrum refuses: "<what> not resolvable
      at this squeezing (eps * max|sigma|^2 = ...)".
    * ``pure`` tests every eigenvalue's distance from 1 instead, and returns a surely mixed spectrum unrefused.
    * ``det_residual``, by how much a 4x4 determinant of sigma missed the caller's tolerance, refuses
      ``what`` within FLOOR_FACTOR eps max|sigma|^4.
    * ``rel_error``, a derived bound on the relative error of the caller's value of ``what``, refuses it
      where it exceeds tol (a NaN bound too), in place of the spectrum's own bounds.
    * ``margins``, the distances from 1 at which the caller tells eigenvalues apart: a ``what`` refuses
      where an eigenvalue's derived bound could carry its distance across one, in place of the test against
      tol.  Only the factor route's spectra have such bounds; a spectrum with floors is not tested.
    * ``transposed`` returns the partial transpose's spectrum across a 1 x (N-1) cut.  Where
      f = FLOOR_FACTOR eps eta+ > tol, an eta- in [1 - tol, 1 + f] raises "separability not resolvable at
      this squeezing (...)" unless a two-mode sigma has det eps >= 0 (Simon's criterion).  An eta- that
      reads 0 refuses ``what``.

    A spectrum of the factor route (see :func:`symplectic_eigenvalues`) carries a derived error bound per
    eigenvalue, which takes the place of both floors of eta-, FLOOR_FACTOR eps eta+ and FLOOR_FACTOR eps
    max|sigma|^2 (of every eigenvalue, for ``pure``), and of f; and a ``what`` read off the spectrum returned
    refuses wherever a bound exceeds tol relative to its eigenvalue.
    """
    cov = _as_cov(sigma)
    if transposed is not None:
        transposed = _transposed_modes(transposed, cov.n_modes)
        if len(transposed) != 1 and len(transposed) != cov.n_modes - 1:
            raise ValueError("PPT-based measures need a 1 x (N-1) bipartition")
    try:
        etas = _spectrum(cov)
    finally:  # decided even where the moduli did not pair: the eigenvalue is kept before they are paired
        lowest = cov.__dict__.get("_lowest_eigenvalue")  # kept only where the Cholesky factorisation failed
        if lowest is not None and lowest < -FLOOR_FACTOR * _EPS * abs(cov.mat).max():
            raise _NotPhysical("state is not physical (covariance matrix not positive definite)")
    off = max(1.0 - etas[0], etas[-1] - 1.0) if pure else 1.0 - etas[0]
    bounds = cov.__dict__.get("_bounds")  # kept only by the factor route
    # a derived bound: an eigenvalue off 1 by more than it is off 1 for certain
    slack = FLOOR_FACTOR * _EPS * etas[-1] if bounds is None else max(bounds) if pure else bounds[0]
    if off > max(tol, slack):
        if off <= (FLOOR_FACTOR * _EPS * abs(cov.mat).max() ** 2 if bounds is None else slack):
            if what is not None and transposed is None and det_residual is None and not margins:
                raise _not_resolvable(what, cov)
        elif not pure:
            raise _NotPhysical(f"state is not physical (min symplectic eigenvalue {etas[0]!r})")
        else:  # mixed for certain: a verdict that reads no eigenvalue's value, so no bound refuses it
            return etas
    if det_residual is not None:
        if det_residual <= FLOOR_FACTOR * _EPS * abs(cov.mat).max() ** 4:
            raise _not_resolvable(what, cov)
        return etas
    if rel_error is not None:
        if not rel_error <= tol:
            raise _not_resolvable(what, cov)
        return etas
    if transposed is None:
        if margins:
            for eta, bound in zip(etas, bounds or ()):
                off = abs(eta - 1.0)
                for margin in margins:
                    if abs(off - margin) <= bound:
                        raise _not_resolvable(what, cov)
            return etas
        return _bounded(etas, bounds, what, tol, cov)
    transpose = partial_transpose(cov, transposed)
    etas = _spectrum(transpose)
    bounds = transpose.__dict__.get("_bounds")
    floor, detail = ((FLOOR_FACTOR * _EPS * etas[-1], f"{FLOOR_FACTOR} eps eta+") if bounds is None
                     else (bounds[0], "error bound of eta-"))
    if floor > tol and 1.0 - tol <= etas[0] <= 1.0 + floor and not (
            cov.n_modes == 2 and two_mode_marginals(cov)[2] >= 0.0):
        raise ValueError(f"separability not resolvable at this squeezing ({detail} = {floor:.3g})")
    if what is not None and etas[0] <= 0.0:
        raise _not_resolvable(what, cov)
    return _bounded(etas, bounds, what, tol, cov)


def _bounded(etas: list[float], bounds: Optional[list[float]], what: Optional[str], tol: float,
             cov: CovMatrix) -> list[float]:
    """etas, which a ``what`` read off them refuses where an error bound of the factor route exceeds tol relative."""
    if what is not None and bounds is not None and any(bound > tol * eta for eta, bound in zip(etas, bounds)):
        raise _not_resolvable(what, cov)
    return etas


def is_bona_fide(sigma: MatrixLike, tol: float = BONA_FIDE_TOL) -> bool:
    """Whether sigma is a state to float resolution: :func:`_state_spectrum` at tol does not refuse it, also where
    rounding keeps its moduli from pairing, if the floor FLOOR_FACTOR eps max|sigma|^2 is at least 1 (else raises)."""
    cov = _as_cov(sigma)
    try:
        _state_spectrum(cov, tol=tol)  # decides positive definiteness first, whether or not the moduli pair
    except _NotPhysical:
        return False
    except _Unpaired:  # 1 - eta- <= 1 for every eta- >= 0: within a floor of 1, no eta- could show sigma no state
        if FLOOR_FACTOR * _EPS * (scale := float(abs(cov.mat).max())) * scale < 1.0:  # a float overflows unwarned
            raise
    return True


def is_pure(sigma: MatrixLike, tol: float = PURITY_TOL) -> bool:
    """Whether sigma describes a pure state: :func:`is_bona_fide`, and every symplectic eigenvalue == 1 within tol,
    as :func:`_state_spectrum` decides; where rounding could carry one across tol it raises "... not resolvable"."""
    cov = _as_cov(sigma)
    return is_bona_fide(cov) and max(abs(eta - 1.0) for eta in _state_spectrum(cov, "purity", tol, pure=True)) <= tol


def two_mode_marginals(sigma: MatrixLike) -> tuple[float, float, float]:
    """(sqrt det sigma_1, sqrt det sigma_2, det eps) of a two-mode state.

    A state with a factor (see :func:`symplectic_eigenvalues`) has sigma_1 = a I, sigma_2 = b I and
    eps = diag(c, D_1 D_2 c), so they are a^2, b^2 and D_1 D_2 c^2.  Any other state's 2x2 determinants come
    from one call on a view of sigma as its 2 x 2 grid of blocks (the same LAPACK routine per block, so the
    same bits as one call per block).  A determinant that overflows raises ValueError.
    """
    cov = _two_mode(sigma, "two_mode_marginals")
    pair = _pair_factor(cov)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        if pair is None:
            blocks = cov.mat.reshape(2, 2, 2, 2).swapaxes(1, 2)  # blocks[i, j] couples mode i with mode j
            (det_1, det_eps), (_, det_2) = np.linalg.det(blocks).tolist()
        else:
            (a, b, c, _), (sign_1, sign_2), _ = pair
            det_1, det_2, det_eps = a * a, b * b, sign_1 * sign_2 * c * c
    if not (abs(det_1) < math.inf and abs(det_2) < math.inf and abs(det_eps) < math.inf):  # NaN fails too
        raise ValueError(f"a 2x2 block determinant overflows (det sigma_1 = {det_1!r}, "
                         f"det sigma_2 = {det_2!r}, det eps = {det_eps!r})")
    return math.sqrt(det_1), math.sqrt(det_2), det_eps
