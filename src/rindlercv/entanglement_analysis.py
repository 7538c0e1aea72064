"""Closed-form correlation analysis of the accelerated-observer scenarios.

Everything here is an explicit function of the squeezing parameters: the
inertial entanglement s, the single observer's acceleration parameter r,
and the two observers' acceleration parameters l, n (a when equal).  The
covariance-matrix route of :mod:`rindlercv.rindler_frames` plus
:mod:`rindlercv.info_measures` recomputes each quantity independently;
the test suite holds the two routes together.

Every closed form takes broadcastable numpy arrays as well as floats (for
which it returns a float), and picks its branch per element by a mask on
the analytic condition, never on a computed m value.  The
``*_report_columns`` kernels evaluate a whole scenario over a grid in one
call and return its columns in report field order; the per-point reports
are their 0-d calls.

Diverging quantities (the maximal surviving contangle at zero acceleration,
the effective single-observer acceleration past the entanglement-death
threshold) return ``math.inf`` rather than any sentinel value.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .info_measures import M_CLAMP_TOL, InconsistencyError, MeasureReport, contangle_from_m
from .phase_space import CovMatrix, apply_congruence, two_mode_squeezer, vacuum_cm
from .rindler_frames import _require_positive, accel_to_squeezing

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9
_MIN_SLACK = 1e-12
# branch boundaries are decided on the analytic condition; an m landing
# within this window of 1 is the separable value up to roundoff
SEPARABLE_CLAMP = 1e-9


def _point_at(params: dict, shape: tuple, index: int) -> str:
    """'name=value, ...' of the parameters, broadcast to shape, at a flat index."""
    return ", ".join(f"{name}={float(np.broadcast_to(value, shape).flat[index])!r}"
                     for name, value in params.items())


def _require_nonnegative(**params) -> None:
    for name, value in params.items():
        if isinstance(value, float):
            negative = value < 0
        else:
            below = np.ravel(np.less(value, 0))
            negative = below.any()
            if negative:
                value = np.ravel(value)[np.argmax(below)]
        if negative:
            raise ValueError(f"{name} must be nonnegative, got {float(value)!r}")


def _where(condition, if_true, if_false):
    """np.where, without its cost at a single point."""
    if isinstance(condition, (bool, np.bool_)):
        return if_true if condition else if_false
    return np.where(condition, if_true, if_false)


def _piecewise(mask, if_true, if_false, *args):
    """The tuples if_true(*args) where mask holds and if_false(*args) elsewhere.

    Each function is evaluated only at the points it is chosen for.
    """
    if isinstance(mask, (bool, np.bool_)):
        return (if_true if mask else if_false)(*args)
    if mask.all():
        return if_true(*args)
    if not mask.any():
        return if_false(*args)
    left, right = if_true(*(a[mask] for a in args)), if_false(*(a[~mask] for a in args))
    out = tuple(np.empty(mask.shape) for _ in left)
    for column, x, y in zip(out, left, right):
        column[mask], column[~mask] = x, y
    return out


def _grid(*values) -> list:
    """The parameters as floats at a single point, else as fresh C-contiguous arrays of one shape.

    numpy's vectorized ufunc loops give the same bits for both, but fall
    back to other code (different in the last digits) for arrays with
    negative or irregular strides.
    """
    if all(isinstance(v, (int, float)) for v in values):
        return [float(v) for v in values]
    return [np.array(v) for v in np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))]


def _evaluate(kernel, **params):
    """Evaluate an array kernel at nonnegative, broadcastable parameters.

    Warnings from the branches the masks discard are silenced.  A NaN
    result is an inconsistency, reported at the first point that produced
    it; 0-d results come back as floats.
    """
    _require_nonnegative(**params)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = kernel(*_grid(*params.values()))
    values = tuple(v if isinstance(v, np.ndarray) and v.ndim else float(v)
                   for v in (out if isinstance(out, tuple) else (out,)))
    for value in values:
        nan = value != value
        if nan if isinstance(nan, bool) else nan.any():
            where = _point_at(params, np.shape(nan), int(np.argmax(nan)))
            raise InconsistencyError(f"{kernel.__name__.lstrip('_')} undefined at {where}")
    return values if isinstance(out, tuple) else values[0]


def _check_columns(columns: dict, point: tuple[str, ...], may_diverge: dict) -> dict:
    """Return a report grid's columns once no cell holds a value no closed form should give.

    Cells may be non-finite only in the fields of ``may_diverge`` (name ->
    where), masked (or None) cells are skipped, and no m-parameter may fall
    below the separability floor.  Otherwise InconsistencyError names the
    first grid point holding an offending cell.
    """
    floor = 1.0 - M_CLAMP_TOL
    single = isinstance(columns[point[0]], float)
    first = None
    for name, col in columns.items():
        if col is None or getattr(col, "dtype", None) == bool:
            continue
        allowed = may_diverge.get(name, False)
        mask = getattr(col, "mask", None)  # a masked array (np.ma stays unimported otherwise)
        if mask is not None:
            allowed, col = allowed | mask, col.data
        if single:  # plain float tests cost far less than numpy calls at one point
            value = float(col)
            if not (math.isfinite(value) or allowed) or (name.startswith("m_") and value < floor):
                first = (0, name, value)
                break
            continue
        wrong = ~(np.isfinite(col) | allowed)
        if name.startswith("m_"):
            wrong |= col < floor
        if wrong.any():
            index = int(np.argmax(wrong))
            if first is None or index < first[0]:
                first = (index, name, float(col.flat[index]))
    if first is not None:
        index, name, value = first
        where = _point_at({p: columns[p] for p in point}, np.shape(columns[name]), index)
        raise InconsistencyError(f"{name} = {value!r} at {where}")
    return columns


def _masked(values, mask):
    """values with the cells where mask holds undefined: None at a single point, else masked."""
    if isinstance(mask, np.bool_):
        return None if mask else values
    return np.ma.MaskedArray(values, mask=mask)


def _report_fields(columns: dict) -> dict:
    """The cells of a single-point report grid: floats, None where undefined."""
    return {name: None if col is None else float(col) for name, col in columns.items()}


def _contangle(m):
    """Array form of :func:`info_measures.contangle_from_m`: 0 for m <= 1, NaN below the floor."""
    tau = np.arcsinh(np.sqrt((m - 1.0) * (m + 1.0))) ** 2
    return _where(m <= 1.0, _where(m < 1.0 - M_CLAMP_TOL, np.nan, 0.0), tau)


def _entropy_f(x):
    """Array form of :func:`info_measures.entropy_term_f`: 0 for x <= 1, NaN below the floor."""
    f = np.log(0.5 * (x + 1.0)) + 0.5 * (x - 1.0) * np.log1p(2.0 / (x - 1.0))
    return _where(x <= 1.0, _where(x < 1.0 - M_CLAMP_TOL, np.nan, 0.0), f)


def _clamp_separable(m):
    return _where(m <= 1.0 + SEPARABLE_CLAMP, 1.0, m)


# ---------------------------------------------------------------------------
# One accelerated observer (Alice inertial, Rob accelerated).
# ---------------------------------------------------------------------------

def _m_alice_rob(s, r):
    shr2 = np.sinh(r) ** 2
    ch2r, ch2s = np.cosh(2 * r), np.cosh(2 * s)
    return (2.0 * shr2 + (ch2r + 3.0) * ch2s) / (2.0 * ch2s * shr2 + ch2r + 3.0)


def m_alice_rob(s, r):
    """m between Alice and Rob: [2 sinh^2 r + (cosh 2r + 3) cosh 2s] / [2 cosh 2s sinh^2 r + cosh 2r + 3]."""
    return _evaluate(_m_alice_rob, s=s, r=r)


def contangle_ar(s: float, r: float) -> MeasureReport:
    """Contangle between Alice and the accelerated Rob (closed form)."""
    return MeasureReport.from_m(m_alice_rob(s, r), source="closed_form")


def contangle_r_rbar(r: float) -> MeasureReport:
    """Contangle between the two Rindler wedges: m = cosh 2r, independent of s."""
    _require_nonnegative(r=r)
    return MeasureReport.from_m(math.cosh(2 * r), source="closed_form")


def _tau_max_ar(r):
    return _where(r == 0, np.inf, np.arcsinh(2.0 * np.cosh(r) / np.sinh(r) ** 2) ** 2)


def tau_max_ar(r):
    """Largest Alice-Rob contangle any inertial entanglement can leave at acceleration r.

    arcsinh^2[2 cosh r / sinh^2 r]; diverges (returns inf) at r = 0.
    """
    return _evaluate(_tau_max_ar, r=r)


def _r_star(s):
    return np.arcsinh(np.tanh(s))


def r_star(s):
    """Acceleration below which anti-Rob, not Alice, holds the smallest one-vs-rest m.

    arccosh sqrt(tanh^2 s + 1), evaluated as arcsinh(tanh s).
    """
    return _evaluate(_r_star, s=s)


def _one_vs_rest_m_single(s, r):
    ch2s, chr2, shr2 = np.cosh(2 * s), np.cosh(r) ** 2, np.sinh(r) ** 2
    return ch2s, ch2s * chr2 + shr2, chr2 + ch2s * shr2


def one_vs_rest_m_single(s, r):
    """Closed-form one-vs-rest m for probes (Alice, Rob, anti-Rob)."""
    return _evaluate(_one_vs_rest_m_single, s=s, r=r)


def _residual_tripartite(s, r):
    m_rbar = _one_vs_rest_m_single(s, r)[2]
    return _where(np.sinh(r) < np.tanh(s), _contangle(m_rbar) - 4.0 * r * r,
                    4.0 * s * s - _contangle(_m_alice_rob(s, r)))


def residual_tripartite(s, r):
    """Genuine tripartite contangle shared by Alice, Rob and anti-Rob.

    The minimizing probe switches at r*: below it the residual is
    g[m_{anti-Rob}^2] - 4r^2, above it 4s^2 - g[m_{Alice-Rob}^2].  The branch
    is chosen on the analytic condition sinh r < tanh s, not on the computed
    m values, to avoid chatter at the threshold.
    """
    return _evaluate(_residual_tripartite, s=s, r=r)


def _mutual_info_ar(s, r):
    m_a, m_r, m_rbar = _one_vs_rest_m_single(s, r)
    return _entropy_f(m_a) + _entropy_f(m_r) - _entropy_f(m_rbar)


def mutual_info_ar(s, r):
    """Mutual information between Alice and Rob: f(a) + f(b) - f(c) on the marginal roots."""
    return _evaluate(_mutual_info_ar, s=s, r=r)


# ---------------------------------------------------------------------------
# Two accelerated observers (Leo and Nadia).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairwiseDoubleM:
    """The six pairwise m-parameters of the four-mode scenario."""

    m_l_nbar: float
    m_n_lbar: float
    m_lbar_nbar: float
    m_l_lbar: float
    m_n_nbar: float
    m_l_n: float


def _m_leo_nadia(s, l, n):
    shl, shn = np.sinh(l), np.sinh(n)
    chs2, sh2s = np.cosh(s) ** 2, np.sinh(2 * s)
    num = (2.0 * np.cosh(2 * l) * np.cosh(2 * n) * chs2 + 3.0 * np.cosh(2 * s)
           - 4.0 * shl * shn * sh2s - 1.0)
    # 2 cosh^2 s - 2 sinh^2 s written as 2: no cancellation at large s
    den = 2.0 * (2.0 + 2.0 * (shl ** 2 + shn ** 2) * chs2 + 2.0 * shl * shn * sh2s)
    return _where(np.tanh(s) <= shl * shn, 1.0, _clamp_separable(num / den))


def m_leo_nadia(s, l, n):
    """m between Leo and Nadia; exactly 1 once tanh s <= sinh l sinh n."""
    return _evaluate(_m_leo_nadia, s=s, l=l, n=n)


def _pairwise_m_double(s, l, n):
    """The pairwise m values that are not always 1: (Leo-anti-Leo, Nadia-anti-Nadia, Leo-Nadia)."""
    return np.cosh(2 * l), np.cosh(2 * n), _m_leo_nadia(s, l, n)


def pairwise_m_double(s, l, n) -> PairwiseDoubleM:
    """All pairwise m values: three crossed pairs are always separable (m = 1),
    each observer with its own wedge partner has m = cosh 2x, and Leo-Nadia
    follows the piecewise closed form."""
    m_l_lbar, m_n_nbar, m_l_n = _evaluate(_pairwise_m_double, s=s, l=l, n=n)
    return PairwiseDoubleM(m_l_nbar=1.0, m_n_lbar=1.0, m_lbar_nbar=1.0,
                           m_l_lbar=m_l_lbar, m_n_nbar=m_n_nbar, m_l_n=m_l_n)


def _one_vs_rest_m_double(s, l, n):
    ch2s = np.cosh(2 * s)
    chl2, shl2 = np.cosh(l) ** 2, np.sinh(l) ** 2
    chn2, shn2 = np.cosh(n) ** 2, np.sinh(n) ** 2
    return chl2 + ch2s * shl2, shl2 + ch2s * chl2, shn2 + ch2s * chn2, chn2 + ch2s * shn2


def one_vs_rest_m_double(s, l, n):
    """Closed-form one-vs-rest m for probes (anti-Leo, Leo, Nadia, anti-Nadia)."""
    return _evaluate(_one_vs_rest_m_double, s=s, l=l, n=n)


def _r_effective(s, l, n):
    den = np.sinh(s) - np.cosh(s) * np.sinh(l) * np.sinh(n)
    ratio = np.cosh(l) * np.cosh(n) * np.sinh(s) / den
    return _where(den <= 0, np.inf, np.arccosh(np.maximum(ratio, 1.0)))  # den <= 0: tanh s <= sinh l sinh n


def r_effective(s, l, n):
    """Single-observer acceleration reproducing the Leo-Nadia entanglement loss.

    arccosh[cosh l cosh n sinh s / (sinh s - cosh s sinh l sinh n)] when the
    entanglement survives, inf past the death threshold.  Undefined at s = 0.
    """
    if np.any(np.less_equal(s, 0)):
        raise ValueError("r_effective needs s > 0 (any acceleration matches at s = 0)")
    return _evaluate(_r_effective, s=s, l=l, n=n)


def frequency_condition(freq_1, freq_2, acceleration):
    """The frequency-domain death condition of equally accelerated observers at infinite s.

    Returns (condition, margin, separable): the closed-form condition value
    e^{2 pi f1/accel} + e^{2 pi f2/accel} - e^{2 pi (f1+f2)/accel}, its
    overflow-free margin e^{-2 pi f1/accel} + e^{-2 pi f2/accel} - 1, and
    whether the margin is nonnegative, that is whether the two modes are
    seen separable.  Where the condition value overflows it is +-inf or nan.
    """
    _require_positive("frequencies and acceleration must be positive", freq_1, freq_2, acceleration)
    w = 2.0 * math.pi / acceleration
    decay = np.exp(-w * freq_1) + np.exp(-w * freq_2)
    with np.errstate(over="ignore", invalid="ignore"):
        condition = np.exp(w * freq_1) + np.exp(w * freq_2) - np.exp(w * (freq_1 + freq_2))
    return condition, decay - 1.0, decay >= 1.0


def frequency_separability(freq_1, freq_2, acceleration):
    """Whether equally accelerated observers see the two modes separable at infinite s.

    The closed-form condition e^{2 pi f1/accel} + e^{2 pi f2/accel}
    >= e^{2 pi (f1+f2)/accel} is evaluated in the overflow-free form
    e^{-2 pi f1/accel} + e^{-2 pi f2/accel} >= 1.
    """
    separable = frequency_condition(freq_1, freq_2, acceleration)[2]
    return bool(separable) if np.ndim(separable) == 0 else separable


def _m_ln_infinite_squeezing(l, n):
    shl, shn = np.sinh(l), np.sinh(n)
    num = np.cosh(2 * l) * np.cosh(2 * n) - 4.0 * shl * shn + 3.0
    den = 2.0 * (shl + shn) ** 2
    return _where(shl * shn >= 1.0, 1.0, _clamp_separable(num / den))


def m_ln_infinite_squeezing(l, n):
    """Leo-Nadia m in the infinitely entangled inertial limit.

    Exactly 1 once sinh l sinh n >= 1 (the death condition survives the
    limit); otherwise
    [cosh 2l cosh 2n - 4 sinh l sinh n + 3] / (2 [sinh l + sinh n]^2),
    which meets 1 on the boundary.
    """
    if np.any(np.equal(l, 0) & np.equal(n, 0)):
        raise ValueError("both accelerations zero: the ideal EPR limit diverges")
    return _evaluate(_m_ln_infinite_squeezing, l=l, n=n)


def _a_star(s):
    return np.arcsinh(np.sqrt(np.tanh(s)))


def a_star(s):
    """Acceleration parameter killing the Leo-Nadia entanglement: arcsinh sqrt(tanh s)."""
    return _evaluate(_a_star, s=s)


def _m_ln_equal_accel(s, a):
    sha2 = np.sinh(a) ** 2
    num = (2.0 * np.cosh(2 * a) ** 2 * np.cosh(s) ** 2 + 3.0 * np.cosh(2 * s)
           - 4.0 * sha2 * np.sinh(2 * s) - 1.0)
    den = 4.0 * (np.cosh(a) ** 2 + np.exp(2 * s) * sha2)
    return _where(sha2 >= np.tanh(s), 1.0, _clamp_separable(num / den))


def m_ln_equal_accel(s, a):
    """Leo-Nadia m at equal accelerations; exactly 1 for a >= a*(s).

    The branch is decided on the analytic condition sinh^2 a >= tanh s.
    """
    return _evaluate(_m_ln_equal_accel, s=s, a=a)


def _residual_multipartite(s, a):
    m_lbar, m_l, _, _ = _one_vs_rest_m_double(s, a, a)
    probe_lbar = _contangle(m_lbar) - 4.0 * a * a
    probe_l = _contangle(m_l) - 4.0 * a * a - _contangle(_m_ln_equal_accel(s, a))
    switched = probe_l < probe_lbar - _MIN_SLACK
    if np.any(switched):
        i = int(np.argmax(switched))
        logger.warning("probe Leo beat probe anti-Leo at %s (%r < %r); returning the true minimum",
                       _point_at({"s": s, "a": a}, np.shape(switched), i),
                       float(np.ravel(probe_l)[i]), float(np.ravel(probe_lbar)[i]))
    return _where(switched, probe_l, probe_lbar)


def residual_multipartite(s, a):
    """Residual contangle of the four-mode state not stored in pairwise form.

    For the minimizing probe (an anti-observer):
    arcsinh^2 sqrt([cosh^2 a + cosh 2s sinh^2 a]^2 - 1) - 4a^2.  The
    competing probe-Leo candidate is evaluated as well; the anti-observer
    one is expected minimal, and a violation is logged and honored.
    """
    return _evaluate(_residual_multipartite, s=s, a=a)


def _bound_ansatz_k(s, a):
    # (1 + x) / (1 - x) with x = tanh^2 s / cosh^2 a, the difference
    # cosh^2 a - tanh^2 s written as sinh^2 a + sech^2 s
    x = (np.tanh(s) / np.cosh(a)) ** 2
    return (1.0 + x) * np.cosh(a) ** 2 / (np.sinh(a) ** 2 + 1.0 / np.cosh(s) ** 2)


def tripartite_bound_ansatz_cm(s: float, a: float) -> CovMatrix:
    """Pure three-mode state majorized by the anti-Leo/Leo/Nadia reduction.

    Built by squeezing Leo against Nadia with the matching parameter
    t = arccosh(K)/2 and then Leo against anti-Leo with a; it bounds the
    mixed-state one-vs-two contangles of the reduction from above.
    """
    t = 0.5 * math.acosh(_evaluate(_bound_ansatz_k, s=s, a=a))
    inner = two_mode_squeezer(t, 1, 2, 3)
    outer = two_mode_squeezer(a, 1, 0, 3)
    return apply_congruence(outer, apply_congruence(inner, vacuum_cm(3)))


def _tripartite_upper_bound(s, a):
    k = _bound_ansatz_k(s, a)
    cand_lbar = _contangle(np.cosh(a) ** 2 + k * np.sinh(a) ** 2) - 4.0 * a * a
    cand_n = _contangle(k) - _contangle(_m_ln_equal_accel(s, a))
    return np.minimum(cand_lbar, cand_n)


def tripartite_upper_bound(s, a):
    """Upper bound on the tripartite contangle among anti-Leo, Leo and Nadia.

    Minimum of the two candidate differences built from the pure-ansatz
    one-vs-two parameters; the third conceivable candidate is provably
    larger and excluded.  Rises while the Leo-Nadia pair stays entangled,
    peaks near the death threshold a*(s), then decays to zero as a -> inf.
    """
    return _evaluate(_tripartite_upper_bound, s=s, a=a)


def _mutual_info_ln(s, a):
    ch2s, cha2, sha2 = np.cosh(2 * s), np.cosh(a) ** 2, np.sinh(a) ** 2
    d = ch2s * cha2 + sha2
    eta = np.sqrt(cha2 * cha2 + 2.0 * ch2s * cha2 * sha2 + sha2 * sha2)
    return 2.0 * _entropy_f(d) - 2.0 * _entropy_f(eta)


def mutual_info_ln(s, a):
    """Mutual information between Leo and Nadia at equal accelerations.

    f(d) + f(d) - 2 f((det sigma_LN)^(1/4)) with the degenerate symplectic
    eigenvalue computed from the cancellation-free determinant expansion
    cosh^4 a + 2 cosh 2s cosh^2 a sinh^2 a + sinh^4 a.
    """
    return _evaluate(_mutual_info_ln, s=s, a=a)


def _mutual_info_ln_general(s, l, n):
    ch2s = np.cosh(2 * s)
    chl, chn = np.cosh(l), np.cosh(n)
    chl2, shl2 = chl ** 2, np.sinh(l) ** 2
    chn2, shn2 = chn ** 2, np.sinh(n) ** 2
    da = ch2s * chl2 + shl2
    db = ch2s * chn2 + shn2
    c = np.sinh(2 * s) * chl * chn
    det_root = chl2 * chn2 + ch2s * (chl2 * shn2 + shl2 * chn2) + shl2 * shn2
    # seralian a^2 + b^2 - 2c^2 in factored form to survive large squeezing
    diff_a = chl * (ch2s * (chl - chn) + chn * np.exp(-2 * s)) + shl2
    diff_b = chn * (ch2s * (chn - chl) + chl * np.exp(-2 * s)) + shn2
    delta = diff_a * (da + c) + diff_b * (db + c)
    gap = np.maximum(delta * delta - 4.0 * det_root * det_root, 0.0)
    eta_minus_sq = 2.0 * det_root * det_root / (delta + np.sqrt(gap))
    eta_plus_sq = 0.5 * (delta + np.sqrt(gap))
    return (_entropy_f(da) + _entropy_f(db)
            - _entropy_f(np.sqrt(eta_minus_sq)) - _entropy_f(np.sqrt(eta_plus_sq)))


def mutual_info_ln_general(s, l, n):
    """Mutual information between Leo and Nadia for independent accelerations."""
    return _evaluate(_mutual_info_ln_general, s=s, l=l, n=n)


def _classical_deficit(a, s):
    return _mutual_info_ar(s, a) - _mutual_info_ln(s, a)


def classical_deficit(a, s):
    """Mutual-information deficit of two accelerated observers versus one.

    I(Alice|Rob) at r = a minus I(Leo|Nadia); nonnegative, bounded and
    saturating at exactly 1 (natural-log units) as s -> inf for any a > 0.
    """
    return _evaluate(_classical_deficit, a=a, s=s)


# ---------------------------------------------------------------------------
# Scenario reports: columnar kernels and their per-point dataclasses.
# ---------------------------------------------------------------------------

def single_report_columns(s, r) -> dict:
    """Every single-observer closed form over broadcast (s, r), in SingleObserverReport field order.

    Only ``tau_max_ar`` may diverge (at r = 0); any other non-finite cell,
    or an m-parameter below the separability floor, raises
    InconsistencyError at the first grid point holding one.
    """
    _require_nonnegative(s=s, r=r)
    s, r = _grid(s, r)
    with np.errstate(all="ignore"):
        m_a, m_r, m_rbar = _one_vs_rest_m_single(s, r)
        m_ar, m_r_rbar = _m_alice_rob(s, r), np.cosh(2 * r)
        columns = {
            "s": s, "r": r,
            "m_a_vs_rest": m_a, "m_r_vs_rest": m_r, "m_rbar_vs_rest": m_rbar,
            "m_ar": np.maximum(m_ar, 1.0), "m_r_rbar": np.maximum(m_r_rbar, 1.0),
            "tau_ar": _contangle(m_ar), "tau_r_rbar": _contangle(m_r_rbar),
            "residual_tripartite": _residual_tripartite(s, r),
            "mutual_info_ar": _mutual_info_ar(s, r),
            "r_star": _r_star(s),
            "tau_max_ar": _tau_max_ar(r),
        }
    return _check_columns(columns, ("s", "r"), {"tau_max_ar": True})


def _equal_accel_fields(s, l, n, *_):
    """(residual, tripartite bound, mutual information, deficit) where l = n.

    Takes the arguments of _unequal_accel_fields and needs only (s, l, n).
    """
    mutual_info = _mutual_info_ln(s, l)
    return (_residual_multipartite(s, l), _tripartite_upper_bound(s, l), mutual_info,
            _mutual_info_ar(s, l) - mutual_info)


def _unequal_accel_fields(s, l, n, m_lbar, m_l, m_n, m_nbar, tau_l_lbar, tau_n_nbar, tau_l_n):
    """The same fields where l != n; the bound and the deficit are undefined there.

    The residual is the smallest one-vs-rest residual over the probes
    anti-Leo, anti-Nadia, Leo and Nadia.
    """
    residual = np.minimum(
        np.minimum(_contangle(m_lbar) - tau_l_lbar, _contangle(m_nbar) - tau_n_nbar),
        np.minimum(_contangle(m_l) - tau_l_lbar - tau_l_n, _contangle(m_n) - tau_n_nbar - tau_l_n))
    undefined = np.full(np.shape(s), np.nan)
    return residual, undefined, _mutual_info_ln_general(s, l, n), undefined


def double_report_columns(s, l, n) -> dict:
    """Every double-observer closed form over broadcast (s, l, n), in DoubleObserverReport field order.

    ``tripartite_upper_bound`` and ``deficit`` are undefined where l != n:
    masked cells of a grid, None at a single point.
    Only ``r_eff`` may be non-finite (nan at s = 0, inf past the death
    threshold); any other non-finite cell, or an m-parameter below the
    separability floor, raises InconsistencyError at the first grid point
    holding one.
    """
    _require_nonnegative(s=s, l=l, n=n)
    s, l, n = _grid(s, l, n)
    equal = np.equal(l, n)
    with np.errstate(all="ignore"):
        m_lbar, m_l, m_n, m_nbar = _one_vs_rest_m_double(s, l, n)
        m_l_lbar, m_n_nbar, m_l_n = _pairwise_m_double(s, l, n)
        tau_l_lbar, tau_n_nbar, tau_l_n = _contangle(m_l_lbar), _contangle(m_n_nbar), _contangle(m_l_n)
        residual, bound, mutual_info, deficit = _piecewise(
            equal, _equal_accel_fields, _unequal_accel_fields,
            s, l, n, m_lbar, m_l, m_n, m_nbar, tau_l_lbar, tau_n_nbar, tau_l_n)
        ones = np.ones(np.shape(s))
        columns = {
            "s": s, "l": l, "n": n,
            "m_l_nbar": ones, "m_n_lbar": ones, "m_lbar_nbar": ones,
            "m_l_lbar": m_l_lbar, "m_n_nbar": m_n_nbar, "m_l_n": m_l_n,
            "m_lbar_vs_rest": m_lbar, "m_l_vs_rest": m_l, "m_n_vs_rest": m_n, "m_nbar_vs_rest": m_nbar,
            "tau_l_lbar": tau_l_lbar, "tau_n_nbar": tau_n_nbar, "tau_l_n": tau_l_n,
            "residual_multipartite": residual,
            "tripartite_upper_bound": _masked(bound, ~equal),
            "mutual_info_ln": mutual_info,
            "r_eff": _where(np.greater(s, 0), _r_effective(s, l, n), np.nan),
            "a_star": _a_star(s),
            "deficit": _masked(deficit, ~equal),
        }
    return _check_columns(columns, ("s", "l", "n"), {"r_eff": True})


def frequency_report_columns(lam, nu, accel, s=None) -> dict:
    """Frequency-domain quantities over broadcast (lam, nu, accel[, s]).

    Columns lam, nu, accel, the squeezing parameters l and n of the two
    modes, the death condition of :func:`frequency_condition`, the
    infinite-squeezing Leo-Nadia m and contangle (inf where l = n = 0), and
    with s also s, m_l_n and tau_l_n.  Any other non-finite cell, or an
    m-parameter below the separability floor, raises InconsistencyError at
    the first grid point holding one.
    """
    params = {"lam": lam, "nu": nu, "accel": accel} | ({} if s is None else {"s": s})
    if s is not None:
        _require_nonnegative(s=s)
    grid = dict(zip(params, _grid(*params.values())))
    lam, nu, accel = grid["lam"], grid["nu"], grid["accel"]
    with np.errstate(all="ignore"):
        l, n = accel_to_squeezing(accel, lam), accel_to_squeezing(accel, nu)
        condition, margin, separable = frequency_condition(lam, nu, accel)
        both_zero = np.equal(l, 0.0) & np.equal(n, 0.0)
        m_inf = _where(both_zero, np.inf, _m_ln_infinite_squeezing(l, n))
        columns = {
            "lam": lam, "nu": nu, "accel": accel, "l": l, "n": n,
            "condition_value": condition, "separability_margin": margin, "separable": separable,
            "m_ln_infinite": m_inf, "tau_ln_infinite": _contangle(m_inf),
        }
        if s is not None:
            m_l_n = _m_leo_nadia(grid["s"], l, n)
            columns.update(s=grid["s"], m_l_n=m_l_n, tau_l_n=_contangle(m_l_n))
    return _check_columns(columns, tuple(params),
                          {"m_ln_infinite": both_zero, "tau_ln_infinite": both_zero})


@dataclass(frozen=True)
class SingleObserverReport:
    """All single-observer quantities at one parameter point."""

    s: float
    r: float
    m_a_vs_rest: float
    m_r_vs_rest: float
    m_rbar_vs_rest: float
    m_ar: float
    m_r_rbar: float
    tau_ar: float
    tau_r_rbar: float
    residual_tripartite: float
    mutual_info_ar: float
    r_star: float
    tau_max_ar: float

    def to_dict(self) -> dict:
        return asdict(self)

    def monogamy_residuals(self) -> dict[str, float]:
        """Monogamy residual (one-vs-rest minus pairwise sum) per probe mode."""
        return {
            "A": contangle_from_m(self.m_a_vs_rest) - self.tau_ar,
            "R": contangle_from_m(self.m_r_vs_rest) - self.tau_ar - self.tau_r_rbar,
            "Rbar": contangle_from_m(self.m_rbar_vs_rest) - self.tau_r_rbar,
        }

    def validate(self, tol: float = RESIDUAL_TOL) -> None:
        """Raise InconsistencyError when an internal invariant fails."""
        for name in ("m_a_vs_rest", "m_r_vs_rest", "m_rbar_vs_rest", "m_ar", "m_r_rbar"):
            if getattr(self, name) < 1.0 - tol:
                raise InconsistencyError(f"{name} = {getattr(self, name)!r} below 1")
        if self.residual_tripartite < -tol:
            raise InconsistencyError(f"negative tripartite residual {self.residual_tripartite!r}")
        for probe, value in self.monogamy_residuals().items():
            if value < -tol:
                raise InconsistencyError(f"monogamy violated at probe {probe}: {value!r}")


def single_observer_report(s: float, r: float) -> SingleObserverReport:
    """Evaluate every single-observer closed form at (s, r)."""
    return SingleObserverReport(**_report_fields(single_report_columns(s, r)))


@dataclass(frozen=True)
class DoubleObserverReport:
    """All double-observer quantities at one parameter point.

    Fields defined only at equal accelerations (the tripartite bound and the
    classical deficit) are None when l != n.
    """

    s: float
    l: float
    n: float
    m_l_nbar: float
    m_n_lbar: float
    m_lbar_nbar: float
    m_l_lbar: float
    m_n_nbar: float
    m_l_n: float
    m_lbar_vs_rest: float
    m_l_vs_rest: float
    m_n_vs_rest: float
    m_nbar_vs_rest: float
    tau_l_lbar: float
    tau_n_nbar: float
    tau_l_n: float
    residual_multipartite: float
    tripartite_upper_bound: Optional[float]
    mutual_info_ln: float
    r_eff: float
    a_star: float
    deficit: Optional[float]

    def to_dict(self) -> dict:
        return asdict(self)

    def monogamy_residuals(self) -> dict[str, float]:
        """Monogamy residual per probe mode."""
        return {
            "Lbar": contangle_from_m(self.m_lbar_vs_rest) - self.tau_l_lbar,
            "L": contangle_from_m(self.m_l_vs_rest) - self.tau_l_lbar - self.tau_l_n,
            "N": contangle_from_m(self.m_n_vs_rest) - self.tau_n_nbar - self.tau_l_n,
            "Nbar": contangle_from_m(self.m_nbar_vs_rest) - self.tau_n_nbar,
        }

    def validate(self, tol: float = RESIDUAL_TOL) -> None:
        """Raise InconsistencyError when an internal invariant fails."""
        for name in ("m_l_nbar", "m_n_lbar", "m_lbar_nbar", "m_l_lbar",
                     "m_n_nbar", "m_l_n", "m_lbar_vs_rest", "m_l_vs_rest",
                     "m_n_vs_rest", "m_nbar_vs_rest"):
            if getattr(self, name) < 1.0 - tol:
                raise InconsistencyError(f"{name} = {getattr(self, name)!r} below 1")
        if self.residual_multipartite < -tol:
            raise InconsistencyError(f"negative multipartite residual {self.residual_multipartite!r}")
        if self.tripartite_upper_bound is not None and self.tripartite_upper_bound < -tol:
            raise InconsistencyError(f"negative tripartite bound {self.tripartite_upper_bound!r}")
        for probe, value in self.monogamy_residuals().items():
            if value < -tol:
                raise InconsistencyError(f"monogamy violated at probe {probe}: {value!r}")


def double_observer_report(s: float, l: float, n: float) -> DoubleObserverReport:
    """Evaluate every double-observer closed form at (s, l, n)."""
    return DoubleObserverReport(**_report_fields(double_report_columns(s, l, n)))
