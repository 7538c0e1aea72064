"""Built-in consistency suite: closed forms against the covariance-matrix route.

Every suite recomputes its quantity along two independent paths over a
parameter grid.  A suite is written once, as the stream of its
``(deviation, point)`` pairs, and one runner, :func:`_suite`, keeps the worst
deviation of each stream together with the grid point that produced it.  The
scenario states are built once and shared by every suite, and so are the
closed forms: the report columns of each grid, evaluated once.  The CLI's
``selftest`` verb wraps :func:`run`.

Suite 4 holds each closed-form m against the covariance-matrix route.  For
the Leo-Nadia m that route inverts the reduced state's invariants to the
squeezing parameters and evaluates the reports' own m kernel there, so it
checks the state's blocks and the invariant inversion, not the m formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import entanglement_analysis as ea
from . import info_measures as im
from . import rindler_frames as rf
from .phase_space import reduce, symplectic_eigenvalues

FULL_STEP = 0.25
QUICK_VALUES = (0.5, 1.5, 2.5)
# the unit symplectic eigenvalues are resolvable to 1e-8 only while eps * |sigma|^2
# stays below that, so the grid's corner beyond s + r = DEEP_CORNER gets its own suite
DEEP_CORNER = 5.25


@dataclass
class SuiteResult:
    name: str
    worst: float
    worst_at: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max deviation {self.worst:.3e} "
                f"(tol {self.tol:.1e}) at {self.worst_at}")


def _suite(name: str, tol: float, deviations: Iterable[tuple[float, tuple]]) -> SuiteResult:
    """The first strictly largest deviation of a stream and its point; 0.0 at () when none is positive."""
    worst, at = 0.0, ()
    for deviation, point in deviations:
        if deviation > worst:
            worst, at = deviation, point
    return SuiteResult(name, worst, at, tol)


def _block_duality(states: dict, blocks):
    """Each state, built by squeezer composition, against its printed blocks."""
    for point, sigma in states.items():
        yield float(np.max(np.abs(sigma.mat - blocks(*point).mat))), point


def _impurity(states: dict):
    """How far each state's symplectic eigenvalues stray from 1."""
    for point, sigma in states.items():
        yield float(np.max(np.abs(symplectic_eigenvalues(sigma) - 1))), point


def _closed(columns: dict, *names: str):
    """The named report columns as one tuple of floats per grid point, in the order of the states."""
    return zip(*(columns[name].ravel().tolist() for name in names))


def _m_duality(singles: dict, doubles: dict, single_columns: dict, double_columns: dict):
    """Each closed-form m against the covariance-matrix route."""
    closed = _closed(single_columns, "m_ar", "m_r_rbar", "m_a_vs_rest", "m_rbar_vs_rest")
    for ((s, r), sigma), ms in zip(singles.items(), closed):
        numeric = (im.two_mode_m(reduce(sigma, (0, 1))), im.two_mode_m(reduce(sigma, (1, 2))),
                   rf.pure_one_vs_rest_m(sigma, 0), rf.pure_one_vs_rest_m(sigma, 2))
        for m, numeric_m in zip(ms, numeric):
            yield abs(m - numeric_m), (s, r)
    closed = _closed(double_columns, "m_l_n", "m_l_lbar", "m_lbar_vs_rest")
    for ((s, l, n), sigma), ms in zip(doubles.items(), closed):
        numeric = (im.two_mode_m(reduce(sigma, (1, 2))), im.two_mode_m(reduce(sigma, (0, 1))),
                   rf.pure_one_vs_rest_m(sigma, 0))
        for m, numeric_m in zip(ms, numeric):
            yield abs(m - numeric_m), (s, l, n)


def _monogamy(single_columns: dict, double_columns: dict):
    """How far below 0 each probe's smallest residual falls; at tol = inf the kernel leaves them to this suite."""
    for scenario, columns, point in (("single", single_columns, "sr"), ("double", double_columns, "sln")):
        for probe, res in ea._monogamy_residuals(columns, ea.MONOGAMY_PROBES[scenario]).items():
            i = int(np.argmin(res))
            yield max(0.0, -float(res.flat[i])), (*(float(columns[p].flat[i]) for p in point), probe)


def _triangle_edge(singles: dict, single_columns: dict):
    """Saturation of the triangle inequality for the three-mode state."""
    closed = _closed(single_columns, "m_a_vs_rest", "m_r_vs_rest", "m_rbar_vs_rest")
    for (s, r), (m_a, m_r, m_rbar) in zip(singles, closed):
        yield abs(m_rbar - (m_r - m_a + 1.0)), (s, r)


def run(tol: float = ea.RESIDUAL_TOL, quick: bool = False) -> list[SuiteResult]:
    """Run all consistency suites in order; deviations must stay below tol."""
    grid = list(QUICK_VALUES) if quick else np.arange(FULL_STEP, 3.0 + FULL_STEP / 2, FULL_STEP).tolist()
    dgrid = grid if quick else grid[1::2]
    # each scenario state is built once; its spectrum is then computed once too
    singles = {(s, r): rf.build_single_observer_cm(s, r) for s in grid for r in grid}
    doubles = {(s, l, n): rf.build_double_observer_cm(s, l, n) for s in dgrid for l in dgrid for n in dgrid}
    shallow = {(s, r): sigma for (s, r), sigma in singles.items() if s + r <= DEEP_CORNER}
    deep = {(s, r): sigma for (s, r), sigma in singles.items() if s + r > DEEP_CORNER}
    # the closed forms once per grid, in the order of the states, at tol = inf: the kernels' check leaves
    # the monogamy residuals to their suite
    single_columns = ea.single_report_columns(*np.meshgrid(grid, grid, indexing="ij"), tol=math.inf)
    double_columns = ea.double_report_columns(*np.meshgrid(dgrid, dgrid, dgrid, indexing="ij"), tol=math.inf)
    suites = [
        ("single-observer block duality", tol, _block_duality(singles, rf.single_observer_blocks)),
        ("double-observer block duality", tol, _block_duality(doubles, rf.double_observer_blocks)),
        ("scenario purity", max(tol, 1e-8), _impurity(shallow)),
        *([("scenario purity (deep-squeezing corner)", max(tol, 1e-6), _impurity(deep))] if deep else []),
        ("closed-form vs numeric m duality", max(tol, 1e-8),
         _m_duality(singles, doubles, single_columns, double_columns)),
        ("monogamy residuals", tol, _monogamy(single_columns, double_columns)),
        ("triangle-edge saturation", tol, _triangle_edge(singles, single_columns)),
    ]
    return [_suite(*suite) for suite in suites]
