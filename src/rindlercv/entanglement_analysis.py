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
are their 0-d calls, which come back as plain floats, bools and None after
one check pass over the cells.

Diverging quantities (the maximal surviving contangle at zero acceleration,
the effective single-observer acceleration past the entanglement-death
threshold) return ``math.inf`` rather than any sentinel value.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .info_measures import M_CLAMP_TOL, InconsistencyError, MeasureReport, _contangle, _entropy_f, _m_leo_nadia, _where
from .phase_space import CovMatrix, reduce
from .rindler_frames import _require_domain, accel_to_squeezing, build_double_observer_cm

RESIDUAL_TOL = 1e-9


def _point_at(params: dict, shape: tuple, index: int) -> str:
    """'name=value, ...' of the parameters, broadcast to shape, at a flat index."""
    return ", ".join(f"{name}={float(np.broadcast_to(value, shape).flat[index])!r}"
                     for name, value in params.items())


def _grid(*values) -> list:
    """The parameters as floats at a single point, else as fresh C-contiguous arrays of one shape.

    numpy's vectorized ufunc loops give the same bits for both, but fall
    back to other code (different in the last digits) for arrays with
    negative or irregular strides.
    """
    if all(isinstance(v, (int, float)) for v in values):
        return [float(v) for v in values]
    return [np.array(v) for v in np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))]


def _evaluate(kernel, name=None, /, **params):
    """Evaluate an array kernel at finite, nonnegative, broadcastable parameters.

    Warnings are silenced, as in the report kernels: those of the branches
    the masks discard, and overflow, which leaves an infinite value.  A NaN
    result is an inconsistency, reported under ``name`` (default: the
    kernel's) at the first point that produced it; 0-d results come back
    as floats.
    """
    _require_domain(**params)
    with np.errstate(all="ignore"):
        out = kernel(*_grid(*params.values()))
    values = tuple(v if isinstance(v, np.ndarray) and v.ndim else float(v)
                   for v in (out if isinstance(out, tuple) else (out,)))
    for value in values:
        nan = value != value
        if nan if isinstance(nan, bool) else nan.any():
            where = _point_at(params, np.shape(nan), int(np.argmax(nan)))
            raise InconsistencyError(f"{name or kernel.__name__.lstrip('_')} undefined at {where}")
    return values if isinstance(out, tuple) else values[0]


# Per scenario, probe mode -> (its one-vs-rest m, the pairwise contangles it holds); one-vs-rest
# minus pairwise contangle is nonnegative (Adesso & Illuminati, PRA 73, 032345 (2006)).
MONOGAMY_PROBES = {
    "single": {"A": ("m_a_vs_rest", ("tau_ar",)), "R": ("m_r_vs_rest", ("tau_ar", "tau_r_rbar")),
               "Rbar": ("m_rbar_vs_rest", ("tau_r_rbar",))},
    "double": {"Lbar": ("m_lbar_vs_rest", ("tau_l_lbar",)), "L": ("m_l_vs_rest", ("tau_l_lbar", "tau_l_n")),
               "N": ("m_n_vs_rest", ("tau_n_nbar", "tau_l_n")), "Nbar": ("m_nbar_vs_rest", ("tau_n_nbar",))},
}
# Per report: the point's parameters, the fields that may diverge to +-inf, those undefined (NaN) and
# where, and the probes (residual_multipartite is the double-observer probes' minimum: its sign covers them).
_REPORT_CHECKS = {"single": (("s", "r"), {"tau_max_ar": True}, {}, MONOGAMY_PROBES["single"]),
                  "double": (("s", "l", "n"), {"r_eff": True}, {"r_eff": lambda c: c["s"] == 0.0}, {})}
_NONNEGATIVE = ("residual_tripartite", "residual_multipartite", "tripartite_upper_bound")
_LEAST_FLOAT = -sys.float_info.max


def _monogamy_residuals(columns: dict, probes: dict) -> dict:
    """Each probe's one-vs-rest contangle minus, one by one, the pairwise contangles it holds."""
    residuals = {}
    with np.errstate(all="ignore"):  # as in the kernels; an m below 1 or overflowing is the check's to report
        for probe, (m, taus) in probes.items():
            residual = _contangle(columns[m])
            for tau in taus:
                residual = residual - columns[tau]
            residuals[probe] = residual
    return residuals


@functools.lru_cache(maxsize=64)
def _floors(names: tuple[str, ...], tol: float) -> tuple[float, ...]:
    """Each field's floor, the least value a finite cell of it may hold.

    1 - min(tol, M_CLAMP_TOL) for an m-parameter, -tol for a residual, the
    tripartite bound and a monogamy residual, and the least finite float for
    any other field, which has no floor.
    """
    m_floor = 1.0 - min(tol, M_CLAMP_TOL)
    return tuple(m_floor if name.startswith("m_") else -tol if name in _NONNEGATIVE or name.startswith("monogamy")
                 else _LEAST_FLOAT for name in names)


def _check_columns(columns: dict, point: tuple[str, ...], may_diverge: dict, undefined: dict, probes: dict,
                   tol: float = RESIDUAL_TOL) -> dict:
    """Return a report's columns, a grid's or one point's, once every report invariant holds.

    Cells may be +-inf only in the fields of ``may_diverge`` (name -> where),
    NaN only in those of ``undefined`` (name -> columns -> where), and -inf
    only in a field that has no floor or whose floor -tol is -inf (at
    tol = inf).  No m-parameter may fall below
    1 - min(tol, M_CLAMP_TOL), and no residual, tripartite bound or monogamy
    residual of ``probes`` below -tol.  Masked (or None) cells are skipped.
    Otherwise InconsistencyError names the field, its value and the first
    grid point holding an offending cell, the first such field on a tie.

    One pass over the cells: a float passes on floor <= value < inf, an array
    on that test of its least and greatest cells (masked cells read as their
    floor); only a failing cell goes on to the diagnosis.  A point's columns
    come back as floats, bools and None in field order, each converted once.
    """
    residuals = _monogamy_residuals(columns, probes) if probes else {}
    cells = {**columns, **{f"monogamy residual at probe {probe}": r for probe, r in residuals.items()}}
    values, first = [], None
    for (name, cell), floor in zip(cells.items(), _floors(tuple(cells), tol)):
        # isinstance(x, float), true of np.float64 too, costs far less than any dtype test
        if isinstance(cell, float):
            data = float(cell)
            values.append(data)
            if floor <= data < math.inf:
                continue
        elif cell is None or isinstance(cell, (bool, np.bool_)) or getattr(cell, "dtype", None) == bool:
            values.append(bool(cell) if isinstance(cell, np.bool_) else cell)
            continue
        else:  # an array or another number; a masked array (np.ma stays unimported otherwise) has a mask
            data = cell.filled(floor) if hasattr(cell, "mask") else np.asarray(cell, dtype=float)
            values.append(cell)
            if floor <= data.min(initial=math.inf) and data.max(initial=-math.inf) < math.inf:  # empty passes
                continue
        # operators that serve floats and arrays alike: +inf may stay where the field may diverge, -inf there
        # too if the field has no floor, NaN (the one value unequal to itself) where the field is undefined
        allowed = ((abs(data) if floor == _LEAST_FLOAT else data) == math.inf) & may_diverge.get(name, False)
        if name in undefined:
            allowed = allowed | (data != data) & undefined[name](columns)
        ok = np.ravel(allowed | (floor <= data) & (data < math.inf))
        index = int(ok.argmin())  # the first offending cell, if there is one
        if not ok[index] and (first is None or index < first[0]):
            first = (index, name, float(np.ravel(data)[index]))
    if first is not None:
        index, name, value = first
        where = _point_at({p: columns[p] for p in point}, np.shape(cells[name]), index)
        raise InconsistencyError(f"{name} = {value!r} at {where}")
    return dict(zip(columns, values))  # the cells open with the columns


def _masked(values, mask):
    """values with the cells where mask holds undefined: None at a single point, else masked."""
    if isinstance(mask, np.bool_):
        return None if mask else values
    return np.ma.MaskedArray(values, mask=mask)


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
    _require_domain(r=r)
    return MeasureReport.from_m(float(np.cosh(2 * r)), source="closed_form")  # the kernels' cosh


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
    shs, chs, shl_shn = np.sinh(s), np.cosh(s), np.sinh(l) * np.sinh(n)
    den = shs - chs * shl_shn
    # ratio - 1, with cosh l cosh n - 1 written as a sum of squares: no cancellation at small l, n
    delta = (shs * (np.sinh(0.5 * (l + n)) ** 2 + np.sinh(0.5 * (l - n)) ** 2) + chs * shl_shn) / den
    return _where(den <= 0, np.inf, 2.0 * np.arcsinh(np.sqrt(0.5 * delta)))  # den <= 0: tanh s <= sinh l sinh n


def r_effective(s, l, n):
    """Single-observer acceleration reproducing the Leo-Nadia entanglement loss.

    arccosh[cosh l cosh n sinh s / (sinh s - cosh s sinh l sinh n)] when the
    entanglement survives, inf past the death threshold.  Undefined at s = 0.
    Evaluated as 2 arcsinh sqrt(delta / 2), delta the ratio minus 1,
    [sinh s (sinh^2((l+n)/2) + sinh^2((l-n)/2)) + cosh s sinh l sinh n]
    over the same denominator, so it keeps its digits at small accelerations.
    """
    if np.any(np.less_equal(s, 0)):
        raise ValueError("r_effective needs s > 0 (any acceleration matches at s = 0)")
    return _evaluate(_r_effective, s=s, l=l, n=n)


def frequency_condition(freq_1, freq_2, acceleration):
    """The frequency-domain death condition of equally accelerated observers at infinite s.

    Returns (condition, margin, separable), with w = 2 pi / accel: the
    closed-form condition value e^{w f1} + e^{w f2} - e^{w (f1+f2)}, its
    margin e^{-w f1} + e^{-w f2} - 1 as e^{-w max(f1, f2)} + expm1(-w min(f1, f2))
    (no overflow, and no lost digits where w f1 or w f2 is tiny), and whether the
    margin is nonnegative (the modes seen separable).  The condition is e^{w (f1+f2)}
    times the margin (0 where the margin is), so it overflows to +-inf, never nan.
    At a point the three are a float, a float and a bool.
    """
    _require_domain(positive=True, freq_1=freq_1, freq_2=freq_2, acceleration=acceleration)
    w = 2.0 * math.pi / acceleration
    with np.errstate(over="ignore", invalid="ignore"):
        margin = np.exp(-w * np.maximum(freq_1, freq_2)) + np.expm1(-w * np.minimum(freq_1, freq_2))
        condition = _where(margin == 0.0, 0.0, np.exp(w * (freq_1 + freq_2)) * margin)
    if np.ndim(margin) == 0:
        return float(condition), float(margin), bool(margin >= 0.0)
    return condition, margin, margin >= 0.0


def frequency_separability(freq_1, freq_2, acceleration):
    """Whether equally accelerated observers see the two modes separable at infinite s.

    The closed-form condition e^{2 pi f1/accel} + e^{2 pi f2/accel}
    >= e^{2 pi (f1+f2)/accel}, decided on the margin of :func:`frequency_condition`.
    """
    return frequency_condition(freq_1, freq_2, acceleration)[2]


def _m_ln_infinite_squeezing(l, n):
    shl, shn = np.sinh(l), np.sinh(n)
    num = np.cosh(2 * l) * np.cosh(2 * n) - 4.0 * shl * shn + 3.0
    den = 2.0 * (shl + shn) ** 2
    return _where(shl * shn >= 1.0, 1.0, np.maximum(num / den, 1.0))


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


def m_ln_equal_accel(s, a):
    """Leo-Nadia m at equal accelerations, m_leo_nadia(s, a, a); exactly 1 for a >= a*(s).

    The branch is decided on the analytic condition sinh^2 a >= tanh s.
    """
    return _evaluate(lambda s, a: _m_leo_nadia(s, a, a), "m_ln_equal_accel", s=s, a=a)


def _double_cells(s, l, n) -> dict:
    """The double report's cells from s to tau_l_n, in field order: all its monogamy probes read."""
    m_l_lbar, m_n_nbar, m_l_n = _pairwise_m_double(s, l, n)
    m_lbar, m_l, m_n, m_nbar = _one_vs_rest_m_double(s, l, n)
    ones = 1.0 if isinstance(s, float) else np.ones(np.shape(s))
    return {"s": s, "l": l, "n": n, "m_l_nbar": ones, "m_n_lbar": ones, "m_lbar_nbar": ones,
            "m_l_lbar": m_l_lbar, "m_n_nbar": m_n_nbar, "m_l_n": m_l_n,
            "m_lbar_vs_rest": m_lbar, "m_l_vs_rest": m_l, "m_n_vs_rest": m_n, "m_nbar_vs_rest": m_nbar,
            "tau_l_lbar": _contangle(m_l_lbar), "tau_n_nbar": _contangle(m_n_nbar), "tau_l_n": _contangle(m_l_n)}


def _residual_multipartite(cells: dict):
    """The smallest residual of the double-observer probes of MONOGAMY_PROBES over the report cells."""
    probe = _monogamy_residuals(cells, MONOGAMY_PROBES["double"])
    return np.minimum(np.minimum(probe["Lbar"], probe["Nbar"]), np.minimum(probe["L"], probe["N"]))


def residual_multipartite(s, a):
    """Residual contangle of the four-mode state not stored in pairwise form, at l = n = a.

    The four-probe residual of the double-observer report evaluated at equal
    accelerations.  Its minimizing probe is an anti-observer, giving
    arcsinh^2 sqrt([cosh^2 a + cosh 2s sinh^2 a]^2 - 1) - 4a^2.  The observer
    probes are evaluated as well, and the smallest of the four is returned.
    """
    return _evaluate(lambda s, a: _residual_multipartite(_double_cells(s, a, a)), "residual_multipartite", s=s, a=a)


def _bound_ansatz_k(s, a):
    # (1 + x) / (1 - x) with x = tanh^2 s / cosh^2 a, the difference
    # cosh^2 a - tanh^2 s written as sinh^2 a + sech^2 s
    x = (np.tanh(s) / np.cosh(a)) ** 2
    return (1.0 + x) * np.cosh(a) ** 2 / (np.sinh(a) ** 2 + 1.0 / np.cosh(s) ** 2)


def _bound_ansatz_t(s, a):
    # arccosh(K) / 2 as arcsinh(tanh s / sqrt(sinh^2 a + sech^2 s)), from K - 1 = 2 tanh^2 s / (sinh^2 a
    # + sech^2 s) = 2 sinh^2 t: exactly 0 at s = 0, and no digits lost where K rounds to 1
    return np.arcsinh(np.tanh(s) / np.sqrt(np.sinh(a) ** 2 + 1.0 / np.cosh(s) ** 2))


def tripartite_bound_ansatz_cm(s: float, a: float) -> CovMatrix:
    """Pure three-mode state majorized by the anti-Leo/Leo/Nadia reduction.

    The two-observer state with Nadia inertial at inertial squeezing
    t = arccosh(K)/2, reduced to (anti-Leo, Leo, Nadia): Leo squeezed against
    Nadia with t and then against anti-Leo with a.  It bounds the mixed-state
    one-vs-two contangles of the reduction from above.
    """
    t = _evaluate(_bound_ansatz_t, s=s, a=a)
    if t == math.inf:  # sinh^2 a + sech^2 s underflows (s past 355, a below 1e-154): the squeezer overflows
        raise ValueError("symplectic matrix entries must be finite")
    return reduce(build_double_observer_cm(t, a, 0.0), (0, 1, 2))


def _tripartite_upper_bound(s, a):
    k = _bound_ansatz_k(s, a)
    cand_lbar = _contangle(np.cosh(a) ** 2 + k * np.sinh(a) ** 2) - 4.0 * a * a
    cand_n = _contangle(k) - _contangle(_m_leo_nadia(s, a, a))
    return np.minimum(cand_lbar, cand_n)


def tripartite_upper_bound(s, a):
    """Upper bound on the tripartite contangle among anti-Leo, Leo and Nadia.

    Minimum of the two candidate differences built from the pure-ansatz
    one-vs-two parameters; the third conceivable candidate is provably
    larger and excluded.  Rises while the Leo-Nadia pair stays entangled,
    peaks near the death threshold a*(s), then decays to zero as a -> inf.
    """
    return _evaluate(_tripartite_upper_bound, s=s, a=a)


def _mutual_info_ln_general(s, l, n):
    chs2, ch2s = np.cosh(s) ** 2, np.cosh(2 * s)
    chl, chn = np.cosh(l), np.cosh(n)
    chl2, shl2 = chl ** 2, np.sinh(l) ** 2
    chn2, shn2 = chn ** 2, np.sinh(n) ** 2
    a = ch2s * chl2 + shl2
    b = ch2s * chn2 + shn2
    c = np.sinh(2 * s) * chl * chn
    # a - b and a + b - 2c in factored form: no cancellation near l = n or at large s
    d = 2.0 * chs2 * np.sinh(l - n) * np.sinh(l + n)
    a_b_2c = (ch2s * (2.0 * np.sinh(0.5 * (l + n)) * np.sinh(0.5 * (l - n))) ** 2
              + 2.0 * np.exp(-2 * s) * chl * chn + shl2 + shn2)
    # sqrt det sigma_LN summed at scale 2^-512 and a + b + 2c at scale 1/4, so neither sum overflows before an
    # m column does; power-of-two scaling is exact, so wherever the unscaled sums are finite the bits are theirs
    tiny = 2.0 ** -512
    root = 2.0 ** 256 * np.sqrt(chl2 * chn2 * tiny + ch2s * tiny * (chl2 * shn2 + shl2 * chn2) + shl2 * shn2 * tiny)
    h, q = 0.5 * np.abs(d), np.sqrt(a_b_2c) * (2.0 * np.sqrt(0.25 * a + 0.25 * b + 0.5 * c))
    eta_plus = np.hypot(root, np.sqrt(h) * np.sqrt(2.0 * h + q))
    return _entropy_f(a) + _entropy_f(b) - _entropy_f(root * (root / eta_plus)) - _entropy_f(eta_plus)


def mutual_info_ln_general(s, l, n):
    """Mutual information between Leo and Nadia for independent accelerations.

    f(a) + f(b) - f(eta_-) - f(eta_+) on the marginal roots
    a = cosh 2s cosh^2 l + sinh^2 l, b likewise in n, and the symplectic
    eigenvalues of sigma_LN (correlation c = sinh 2s cosh l cosh n).  With
    h = |a - b|/2 = cosh^2 s |sinh(l - n) sinh(l + n)| and q = sqrt((a + b - 2c)(a + b + 2c)),
    eta_+ = hypot(sqrt(ab - c^2), sqrt(h (2h + q))) and eta_- = (ab - c^2) / eta_+,
    where ab - c^2 = sqrt(det sigma_LN) is a sum of positive terms, and a + b - 2c
    the factored cosh 2s (cosh l - cosh n)^2 + 2 e^{-2s} cosh l cosh n + sinh^2 l + sinh^2 n,
    so nothing cancels near l = n, at zero acceleration or at large s, and nothing is squared.
    The sums sqrt det sigma_LN and a + b + 2c are formed at exact power-of-two scales, so the
    value stays finite as long as a and b do.
    """
    return _evaluate(_mutual_info_ln_general, s=s, l=l, n=n)


def mutual_info_ln(s, a):
    """Mutual information between Leo and Nadia at equal accelerations: mutual_info_ln_general(s, a, a).

    There d = 0, and both symplectic eigenvalues equal the fourth root of
    det sigma_LN = (cosh^4 a + 2 cosh 2s cosh^2 a sinh^2 a + sinh^4 a)^2.
    """
    return _evaluate(lambda s, a: _mutual_info_ln_general(s, a, a), "mutual_info_ln", s=s, a=a)


def _classical_deficit(a, s):
    return _mutual_info_ar(s, a) - _mutual_info_ln_general(s, a, a)


def classical_deficit(a, s):
    """Mutual-information deficit of two accelerated observers versus one.

    I(Alice|Rob) at r = a minus I(Leo|Nadia); nonnegative, bounded and
    saturating at exactly 1 (natural-log units) as s -> inf for any a > 0.
    """
    return _evaluate(_classical_deficit, a=a, s=s)


# ---------------------------------------------------------------------------
# Scenario reports: columnar kernels and their per-point dataclasses.
# ---------------------------------------------------------------------------

def single_report_columns(s, r, tol: float = RESIDUAL_TOL) -> dict:
    """Every single-observer closed form over broadcast (s, r), in SingleObserverReport field order.

    Only ``tau_max_ar`` may diverge (at r = 0); a cell breaking an invariant
    of :func:`_check_columns` at ``tol`` raises InconsistencyError.
    """
    _require_domain(s=s, r=r)
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
    return _check_columns(columns, *_REPORT_CHECKS["single"], tol)


def _where_equal(equal, kernel, s, a):
    """kernel(s, a), evaluated only where equal holds; nan (to be masked) elsewhere."""
    if isinstance(equal, np.bool_):
        return kernel(s, a) if equal else math.nan
    out = np.full(equal.shape, np.nan)
    if equal.any():
        out[equal] = kernel(s[equal], a[equal])
    return out


def double_report_columns(s, l, n, tol: float = RESIDUAL_TOL) -> dict:
    """Every double-observer closed form over broadcast (s, l, n), in DoubleObserverReport field order.

    ``tripartite_upper_bound`` and ``deficit`` are undefined where l != n:
    masked cells of a grid, None at a single point.
    Only ``r_eff`` may be non-finite (nan at s = 0, inf past the death
    threshold); a cell breaking an invariant of :func:`_check_columns` at
    ``tol`` raises InconsistencyError.
    """
    _require_domain(s=s, l=l, n=n)
    s, l, n = _grid(s, l, n)
    equal = np.equal(l, n)
    with np.errstate(all="ignore"):
        cells = _double_cells(s, l, n)
        mutual_info = _mutual_info_ln_general(s, l, n)
        bound = _where_equal(equal, _tripartite_upper_bound, s, l)
        deficit = _where_equal(equal, _mutual_info_ar, s, l) - mutual_info
        columns = {
            **cells,
            "residual_multipartite": _residual_multipartite(cells),
            "tripartite_upper_bound": _masked(bound, ~equal),
            "mutual_info_ln": mutual_info,
            "r_eff": _where(np.greater(s, 0), _r_effective(s, l, n), np.nan),
            "a_star": _a_star(s),
            "deficit": _masked(deficit, ~equal),
        }
    return _check_columns(columns, *_REPORT_CHECKS["double"], tol)


def frequency_report_columns(lam, nu, accel, s=None, tol: float = RESIDUAL_TOL) -> dict:
    """Frequency-domain quantities over broadcast (lam, nu, accel[, s]).

    Columns lam, nu, accel, the squeezing parameters l and n of the two
    modes, the death condition of :func:`frequency_condition` (+-inf where
    it overflows), the infinite-squeezing Leo-Nadia m and contangle (inf
    where l = n = 0 and wherever it overflows), and with s also s, m_l_n
    and tau_l_n.  A cell breaking an invariant of :func:`_check_columns` at
    ``tol`` raises InconsistencyError, an infinite squeezing l or n
    ValueError.
    """
    params = {"lam": lam, "nu": nu, "accel": accel} | ({} if s is None else {"s": s})
    _require_domain(positive=True, lam=lam, nu=nu, accel=accel)
    if s is not None:
        _require_domain(s=s)
    grid = dict(zip(params, _grid(*params.values())))
    lam, nu, accel = grid["lam"], grid["nu"], grid["accel"]
    with np.errstate(all="ignore"):
        l, n = accel_to_squeezing(accel, lam), accel_to_squeezing(accel, nu)
        infinite = np.isinf(l) | np.isinf(n)
        if infinite if isinstance(infinite, np.bool_) else infinite.any():
            where = _point_at(params, np.shape(infinite), int(np.argmax(infinite)))
            raise ValueError(f"lam or nu / accel underflows to 0 (an infinite squeezing) at {where}")
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
    overflow = np.isinf(m_inf)  # at l = n = 0, and where 2 / (l + n)^2 passes the float range
    may_diverge = {"condition_value": True, "m_ln_infinite": overflow, "tau_ln_infinite": overflow}
    return _check_columns(columns, tuple(params), may_diverge, {}, {}, tol)


class _PointReport:
    """A report's fields at one point, checked as its kernel checks its columns."""

    def to_dict(self) -> dict:
        return dict(vars(self))

    def monogamy_residuals(self) -> dict[str, float]:
        """Monogamy residual (one-vs-rest minus pairwise contangles) per probe mode."""
        return _monogamy_residuals(vars(self), MONOGAMY_PROBES[self._scenario])

    def validate(self, tol: float = RESIDUAL_TOL) -> None:
        """Raise InconsistencyError when an invariant of :func:`_check_columns` fails."""
        _check_columns(vars(self), *_REPORT_CHECKS[self._scenario], tol)


@dataclass(frozen=True)
class SingleObserverReport(_PointReport):
    """All single-observer quantities at one parameter point."""

    _scenario = "single"

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


def single_observer_report(s: float, r: float) -> SingleObserverReport:
    """Evaluate every single-observer closed form at (s, r)."""
    return SingleObserverReport(**single_report_columns(s, r))


@dataclass(frozen=True)
class DoubleObserverReport(_PointReport):
    """All double-observer quantities at one parameter point.

    Fields defined only at equal accelerations (the tripartite bound and the
    classical deficit) are None when l != n.
    """

    _scenario = "double"

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


def double_observer_report(s: float, l: float, n: float) -> DoubleObserverReport:
    """Evaluate every double-observer closed form at (s, l, n)."""
    return DoubleObserverReport(**double_report_columns(s, l, n))
