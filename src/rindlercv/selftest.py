"""Built-in consistency suite: closed forms against the covariance-matrix route.

Every suite walks a parameter grid, recomputes its quantity along two
independent paths and records the worst deviation together with the grid
point that produced it.  The CLI's ``selftest`` verb wraps :func:`run`.

Suite 4 holds each closed-form m against the covariance-matrix route.  For
the Leo-Nadia m that route inverts the reduced state's invariants to the
squeezing parameters and evaluates the reports' own m kernel there, so it
checks the state's blocks and the invariant inversion, not the m formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import entanglement_analysis as ea
from . import info_measures as im
from . import rindler_frames as rf
from .phase_space import reduce, symplectic_eigenvalues

FULL_STEP = 0.25
QUICK_VALUES = (0.5, 1.5, 2.5)


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


@dataclass
class SelftestReport:
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def worst_suite(self) -> SuiteResult:
        return max(self.suites, key=lambda s: s.worst / s.tol)


def _grid(quick: bool) -> np.ndarray:
    if quick:
        return np.array(QUICK_VALUES)
    return np.arange(FULL_STEP, 3.0 + FULL_STEP / 2, FULL_STEP)


def _track(worst, at, value, point):
    return (value, point) if value > worst else (worst, at)


def run(tol: float = 1e-9, quick: bool = False) -> SelftestReport:
    """Run all consistency suites; deviations must stay below tol."""
    grid = _grid(quick)
    dgrid = grid if quick else grid[1::2]
    report = SelftestReport()
    # each scenario state is built once; its spectrum is then computed once too
    singles = {(s, r): rf.build_single_observer_cm(s, r) for s in grid for r in grid}
    doubles = {(s, l, n): rf.build_double_observer_cm(s, l, n) for s in dgrid for l in dgrid for n in dgrid}

    # 1. single-observer state: squeezer composition vs printed blocks
    worst, at = 0.0, ()
    for s in grid:
        for r in grid:
            dev = float(np.max(np.abs(singles[s, r].mat - rf.single_observer_blocks(s, r).mat)))
            worst, at = _track(worst, at, dev, (float(s), float(r)))
    report.suites.append(SuiteResult("single-observer block duality", worst, at, tol))

    # 2. double-observer state: squeezer composition vs printed blocks
    worst, at = 0.0, ()
    for s in dgrid:
        for l in dgrid:
            for n in dgrid:
                dev = float(np.max(np.abs(doubles[s, l, n].mat - rf.double_observer_blocks(s, l, n).mat)))
                worst, at = _track(worst, at, dev, (float(s), float(l), float(n)))
    report.suites.append(SuiteResult("double-observer block duality", worst, at, tol))

    # 3. purity of the scenario states; the unit eigenvalues are resolvable to
    #    1e-8 only while eps * |sigma|^2 stays below that, so the deep corner
    #    of the grid gets its own resolution-limited suite
    worst, at = 0.0, ()
    worst_deep, at_deep = 0.0, ()
    for s in grid:
        for r in grid:
            etas = symplectic_eigenvalues(singles[s, r])
            dev = float(np.max(np.abs(etas - 1)))
            if s + r <= 5.25:
                worst, at = _track(worst, at, dev, (float(s), float(r)))
            else:
                worst_deep, at_deep = _track(worst_deep, at_deep, dev, (float(s), float(r)))
    report.suites.append(SuiteResult("scenario purity", worst, at, max(tol, 1e-8)))
    if at_deep:
        report.suites.append(SuiteResult("scenario purity (deep-squeezing corner)",
                                         worst_deep, at_deep, max(tol, 1e-6)))

    # 4. closed-form m values vs the covariance-matrix route
    worst, at = 0.0, ()
    for s in grid:
        for r in grid:
            sigma = singles[s, r]
            pairs = (
                (ea.m_alice_rob(s, r), im.two_mode_m(reduce(sigma, (0, 1)))),
                (math.cosh(2 * r), im.two_mode_m(reduce(sigma, (1, 2)))),
                (ea.one_vs_rest_m_single(s, r)[0], rf.pure_one_vs_rest_m(sigma, 0)),
                (ea.one_vs_rest_m_single(s, r)[2], rf.pure_one_vs_rest_m(sigma, 2)),
            )
            for closed, numeric in pairs:
                worst, at = _track(worst, at, abs(closed - numeric), (float(s), float(r)))
    for s in dgrid:
        for l in dgrid:
            for n in dgrid:
                sigma = doubles[s, l, n]
                pairs = (
                    (ea.m_leo_nadia(s, l, n), im.two_mode_m(reduce(sigma, (1, 2)))),
                    (math.cosh(2 * l), im.two_mode_m(reduce(sigma, (0, 1)))),
                    (ea.one_vs_rest_m_double(s, l, n)[0], rf.pure_one_vs_rest_m(sigma, 0)),
                )
                for closed, numeric in pairs:
                    worst, at = _track(worst, at, abs(closed - numeric), (float(s), float(l), float(n)))
    report.suites.append(SuiteResult("closed-form vs numeric m duality", worst, at, max(tol, 1e-8)))

    # 5. monogamy residuals must be nonnegative for every probe; at tol = inf the kernel leaves them to this suite
    worst, at = 0.0, ()
    single, double = np.meshgrid(grid, grid, indexing="ij"), np.meshgrid(dgrid, dgrid, dgrid, indexing="ij")
    for scenario, point, columns in (("single", single, ea.single_report_columns(*single, tol=math.inf)),
                                     ("double", double, ea.double_report_columns(*double, tol=math.inf))):
        for probe, res in ea._monogamy_residuals(columns, ea.MONOGAMY_PROBES[scenario]).items():
            i = int(np.argmin(res))
            worst, at = _track(worst, at, max(0.0, -float(res.flat[i])),
                               (*(float(x.flat[i]) for x in point), probe))
    report.suites.append(SuiteResult("monogamy residuals", worst, at, tol))

    # 6. triangle inequality saturation for the three-mode state
    worst, at = 0.0, ()
    for s in grid:
        for r in grid:
            m_a, m_r, m_rbar = ea.one_vs_rest_m_single(s, r)
            dev = abs(m_rbar - (m_r - m_a + 1.0))
            worst, at = _track(worst, at, dev, (float(s), float(r)))
    report.suites.append(SuiteResult("triangle-edge saturation", worst, at, tol))

    return report
