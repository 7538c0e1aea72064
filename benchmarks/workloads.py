"""The benchmark's workloads and the checks on their outputs.

Each workload turns a seed into a fixed list of operations and runs them as
one *pass* through the package's public entry points.  Every operation is
timed on its own, right after a reference kernel of ``refkernel`` that
measures how fast the host runs at that moment.  Outputs are checked
outside the timed region: on the
first pass each output is parsed and a seeded sample of its rows is
recomputed through the independent covariance-matrix route
(``rindler_frames`` builders -> ``phase_space.reduce`` -> ``info_measures``);
on later passes the output's sha256 must equal the first pass's, since the
CLI promises byte-identical output for identical input.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Callable, Optional

from refkernel import slowdown, threaded_slowdown
from rindlercv import cli
from rindlercv import entanglement_analysis as ea
from rindlercv import info_measures as im
from rindlercv import phase_space as ps
from rindlercv import rindler_frames as rf
from rindlercv import selftest as st

#: A sampled row fails when a closed form and the covariance-matrix route
#: differ by more than this, relative to max(1, |numeric value|).  On the
#: [0, 3] domain the two agree to about 1e-12; the numeric route's own floor,
#: eps * |sigma|^2, reaches about 1e-7 at s = r = 3.
TOL = 1e-6
#: Parameters above this are not recomputed: the double-precision numeric
#: route loses resolution as eps * |sigma|^2 grows with squeezing.
ORACLE_MAX = 3.0
#: Smallest nonzero acceleration the timed inputs draw, and the smallest
#: nonzero one recomputed.  Two known defects of the package lie below it or
#: beside it: ``info_measures.two_mode_m`` is off by up to 1e-3 when l or n is
#: nonzero but below about 1e-3 (it takes such a state for a GMEMMS one), and
#: the double-observer closed forms fail at exactly zero acceleration from
#: s = 6.34 up (exit 3, and ZeroDivisionError near s = 20).  Operations that
#: fail make no steady timings, so the timed inputs avoid both, and the
#: known-defect probes (POINT_DEFECT_PROBES, CROSSCHECK_DEFECT_PROBES) run
#: them once per run, outside the timed passes, and report what they find.
ACCEL_MIN = 0.01
#: Largest s drawn for exact-zero accelerations in a double-observer point.
DOUBLE_ZERO_S_MAX = 6.0
#: Failure class prefix for a CLI call that reported success with output that
#: is malformed, differs between identical invocations, or holds a value
#: outside TOL.  A crosscheck point whose two routes disagree is not a wrong
#: output but the check's finding, like the selftest's exit 5: it is counted
#: in ``failed`` only.
WRONG = "wrong output"

SINGLE_FIELDS = [f.name for f in dataclasses.fields(ea.SingleObserverReport)]
DOUBLE_FIELDS = [f.name for f in dataclasses.fields(ea.DoubleObserverReport)]
FREQUENCY_FIELDS = ["lam", "nu", "accel", "l", "n", "condition_value", "separability_margin",
                    "separable", "m_ln_infinite", "tau_ln_infinite"]
FREQUENCY_S_FIELDS = ["s", "m_l_n", "tau_l_n"]
SCENARIO_FIELDS = {"single": SINGLE_FIELDS, "double": DOUBLE_FIELDS,
                   "frequency": FREQUENCY_FIELDS + FREQUENCY_S_FIELDS}
# rows per preset: 61-point curves, or 61 x 61 surfaces
FIGURE_ROWS = {"fig2": 61, "fig3": 3721, "fig4": 61, "fig5": 3721, "fig6": 3721,
               "fig7": 3721, "fig8": 3721, "fig9": 3721, "fig10": 3721}


@dataclass
class Op:
    """One timed operation of a pass."""

    name: str  # stable within a workload, so passes can be compared
    kind: str
    points: int  # parameter points the operation evaluates
    seconds: float = 0.0
    slowdown: float = 0.0  # the host's slowdown just before the operation (see refkernel)
    failure: Optional[str] = None  # failure class; None when the operation succeeded
    failed: int = 0  # points that failed
    digest: str = ""  # sha256 of the emitted data
    nbytes: int = 0
    output: object = None  # what verify() needs; dropped after the check

    def fail(self, failure: str, failed: Optional[int] = None) -> None:
        self.failure = failure
        self.failed = self.points if failed is None else failed


def call_cli(op: Op, argv: list[str], host_slowdown: Callable[[], float] = slowdown) -> str:
    """Run and time ``cli.main(argv)`` as ``op``, with stdout and stderr captured.

    ``host_slowdown`` measures the host's speed just before the call.

    A nonzero exit (``"exit N"``) or an uncaught exception (its type) fails
    ``op``.  Returns the captured stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        op.slowdown = host_slowdown()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an uncaught exception fails the operation, not the harness
            code, failure = None, type(exc).__name__
        op.seconds = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit {code}"
    if failure:
        op.fail(failure)
    return out.getvalue()


def _sha256_files(paths) -> tuple[str, int]:
    digest, nbytes = hashlib.sha256(), 0
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                nbytes += len(chunk)
    return digest.hexdigest(), nbytes


def deviation(closed: float, numeric: float) -> float:
    return abs(closed - numeric) / max(1.0, abs(numeric))


def numeric_single(s: float, r: float) -> dict:
    """Single-observer quantities through the covariance-matrix route."""
    sigma = rf.build_single_observer_cm(s, r)
    ar = ps.reduce(sigma, (0, 1))
    m_ar = im.two_mode_m(ar)
    return {
        "m_ar": m_ar, "tau_ar": im.contangle_from_m(m_ar),
        "m_r_rbar": im.two_mode_m(ps.reduce(sigma, (1, 2))),
        "mutual_info_ar": im.mutual_information(ar, (0,)),
        "m_a_vs_rest": rf.pure_one_vs_rest_m(sigma, 0),
        "m_r_vs_rest": rf.pure_one_vs_rest_m(sigma, 1),
        "m_rbar_vs_rest": rf.pure_one_vs_rest_m(sigma, 2),
    }


def numeric_double(s: float, l: float, n: float) -> dict:
    """Double-observer quantities through the covariance-matrix route."""
    sigma = rf.build_double_observer_cm(s, l, n)
    ln = ps.reduce(sigma, (1, 2))
    m_ln = im.two_mode_m(ln)
    return {
        "m_l_n": m_ln, "tau_l_n": im.contangle_from_m(m_ln),
        "mutual_info_ln": im.mutual_information(ln, (0,)),
        "m_l_lbar": im.two_mode_m(ps.reduce(sigma, (0, 1))),
        "m_n_nbar": im.two_mode_m(ps.reduce(sigma, (2, 3))),
        "m_lbar_vs_rest": rf.pure_one_vs_rest_m(sigma, 0),
        "m_l_vs_rest": rf.pure_one_vs_rest_m(sigma, 1),
        "m_n_vs_rest": rf.pure_one_vs_rest_m(sigma, 2),
        "m_nbar_vs_rest": rf.pure_one_vs_rest_m(sigma, 3),
    }


def in_oracle_range(params: tuple) -> bool:
    """Whether the numeric route is a valid reference at (s, accelerations...)."""
    return max(params) <= ORACLE_MAX and not any(0.0 < a < ACCEL_MIN for a in params[1:])


def scenario_oracle(scenario: str, row: dict) -> Optional[dict]:
    """Numeric values for the quantities of one report row, or None when out of range."""
    if scenario == "single":
        params = (row["s"], row["r"])
        return numeric_single(*params) if in_oracle_range(params) else None
    if scenario == "double" or "m_l_n" in row:
        params = (row["s"], row["l"], row["n"])
        if not in_oracle_range(params):
            return None
        numeric = numeric_double(*params)
        return numeric if scenario == "double" else {k: numeric[k] for k in ("m_l_n", "tau_l_n")}
    return None  # frequency rows without s carry no quantity the numeric route computes


#: Numeric values for the figure presets whose quantities the numeric route computes.
FIGURE_ORACLES = {
    "fig2": lambda row: numeric_single(1.0, row["r"]),
    "fig3": lambda row: numeric_single(row["s"], row["r"]),
    "fig9": lambda row: {"tau_ln": numeric_double(row["s"], row["a"], row["a"])["tau_l_n"]},
    # the deficit is I(Alice|Rob) at r = a minus I(Leo|Nadia)
    "fig10": lambda row: {"deficit": numeric_single(row["s"], row["a"])["mutual_info_ar"]
                          - numeric_double(row["s"], row["a"], row["a"])["mutual_info_ln"]},
}


def _cell(text: str):
    """Parse one CSV cell back into the value the CLI formatted."""
    if text in ("true", "false"):
        return text == "true"
    if text == "":
        return None
    return float(text)


def _number(value):
    """JSON report value to float (non-finite values arrive as strings)."""
    if isinstance(value, str):
        return float(value)
    return value


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps - 1)] + [hi]


class Workload:
    """A seeded list of operations, run as repeated passes."""

    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.workdir = workdir
        self.reference: Optional[dict] = None
        self.worst = (0.0, "none")  # (deviation, where) over every recomputed row

    def run_pass(self, warmup: bool = False) -> list[Op]:
        """One pass; the warm-up pass, which is not timed, may add operations."""
        raise NotImplementedError

    def verify(self, op: Op) -> None:
        """Parse ``op``'s output and recompute sampled rows; mark failures on ``op``."""
        raise NotImplementedError

    def probe_defects(self) -> list[tuple[str, Optional[str]]]:
        """Run the known-defect probes once: (input, failure class or None) for each."""
        return []

    def check(self, ops: list[Op]) -> None:
        """Check a pass: verify every output on the first pass, compare digests after."""
        first = self.reference is None
        if first:
            self.reference = {}
        for op in ops:
            if op.failure is None:
                ref = self.reference.get(op.name)
                if first or ref is None:
                    self.verify(op)
                    self.reference[op.name] = (op.digest, op.failure, op.failed)
                elif op.digest != ref[0]:
                    op.fail(f"{WRONG}: output differs between passes")
                elif ref[1] is not None:
                    op.fail(ref[1], ref[2])
            op.output = None

    def track(self, dev: float, where: str) -> None:
        if dev > self.worst[0] or self.worst[1] == "none":
            self.worst = (dev, where)

    def recompute(self, oracle: Callable, row: dict, where: str) -> bool:
        """Whether every quantity of ``row`` the numeric route gives agrees within TOL."""
        try:
            numeric = oracle(row)
        except (ValueError, ArithmeticError) as exc:  # the library route failed on this point
            self.track(math.inf, f"{where}: numeric route raised {type(exc).__name__}")
            return False
        ok = True
        for key, value in (numeric or {}).items():
            if key in row:
                dev = deviation(_number(row[key]), value)
                self.track(dev, f"{where} {key}")
                ok = ok and dev <= TOL
        return ok


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass
class Sweep:
    name: str
    scenario: str
    axes: list  # (name, lo, hi, steps), outer axis first
    fixed: dict
    fmt: str

    def argv(self, path: str) -> list[str]:
        argv = ["--format", self.fmt, "--out", path, "sweep", "--scenario", self.scenario]
        for name, lo, hi, steps in self.axes:
            argv += ["--sweep", f"{name}={lo!r}:{hi!r}:{steps}"]
        for name, value in self.fixed.items():
            argv += ["--fix", f"{name}={value!r}"]
        return argv

    def columns(self) -> list[str]:
        axes = [a[0] for a in self.axes]
        fields = SCENARIO_FIELDS[self.scenario]
        if self.scenario == "frequency" and "s" not in self.fixed:
            fields = FREQUENCY_FIELDS
        return axes + [f for f in fields if f not in axes]

    def rows(self) -> int:
        return math.prod(a[3] for a in self.axes)


class Grid(Workload):
    name = "grid"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        # short operations: an operation's median time over the passes is
        # only steady when the run holds many repeats of it (see README.md)
        n = 5 if tiny else 16
        full = [("s", 0.0, 3.0, n), ("r", 0.0, 3.0, n)]
        freq = 5.0 / n  # frequencies range over (0, 5]
        rng = self.rng
        self.sweeps = [
            Sweep("sweep-single", "single", full, {}, "csv"),
            Sweep("sweep-single-json", "single", full[::-1], {}, "json"),
            Sweep("sweep-double-equal", "double", [full[0], ("a", 0.0, 3.0, n)], {}, "csv"),
            Sweep("sweep-double-unequal", "double", [full[0], ("l", 0.0, 3.0, n)],
                  {"n": round(rng.uniform(0.0, 3.0), 3)}, "csv"),
            Sweep("sweep-frequency", "frequency", [("lam", freq, 5.0, n), ("nu", freq, 5.0, n)],
                  {"accel": round(rng.uniform(2 * math.pi, 10 * math.pi), 3),
                   "s": round(rng.uniform(0.25, 3.0), 3)}, "csv"),
        ]
        self.samples = 8 if tiny else 25  # recomputed rows per output

    def run_pass(self, warmup: bool = False) -> list[Op]:
        ops = []
        for sweep in self.sweeps:
            path = os.path.join(self.workdir, f"{sweep.name}.{sweep.fmt}")
            op = Op(sweep.name, "sweep", sweep.rows())
            # the sweep hands its points to a thread pool
            call_cli(op, sweep.argv(path), threaded_slowdown)
            if not op.failure:
                op.digest, op.nbytes = _sha256_files([path])
                op.output = (sweep, path)
            ops.append(op)
        for preset in FIGURE_ROWS:
            op = Op(preset, "figure", FIGURE_ROWS[preset])
            stdout = call_cli(op, ["figure", preset, "--out-dir", self.workdir, "--plot-script"])
            if not op.failure:
                # the listing on stdout names the output directory, so only
                # the files count as the figure's data
                paths = [os.path.join(self.workdir, f"{preset}.{ext}") for ext in ("csv", "gp")]
                op.digest, op.nbytes = _sha256_files(paths)
                op.output = (paths, stdout)
            ops.append(op)
        return ops

    def verify(self, op: Op) -> None:
        if op.kind == "sweep":
            sweep, path = op.output
            self._verify_table(op, path, sweep.fmt, sweep.columns(), sweep.axes,
                               lambda row: scenario_oracle(sweep.scenario, row))
            return
        paths, stdout = op.output
        if stdout.splitlines() != paths:
            op.fail(f"{WRONG}: figure did not list the files it wrote")
            return
        with open(paths[1], encoding="utf-8") as fh:
            if os.path.basename(paths[0]) not in fh.read():
                op.fail(f"{WRONG}: plot script does not reference its data file")
                return
        columns = cli.FIGURE_PRESETS[op.name].columns
        self._verify_table(op, paths[0], "csv", columns, None, FIGURE_ORACLES.get(op.name))

    def _verify_table(self, op: Op, path: str, fmt: str, columns: list[str], axes,
                      oracle: Optional[Callable]) -> None:
        """Stream through one table: row count, columns, axis values, sampled rows."""
        sample = set(self.rng.sample(range(op.points), min(self.samples, op.points)))
        grids = [_linspace(lo, hi, steps) for _, lo, hi, steps in axes] if axes else None
        bad = count = 0
        with open(path, encoding="utf-8") as fh:
            lines = (line for line in fh if not line.startswith("#"))
            if fmt == "csv" and next(lines, "").rstrip("\n") != ",".join(columns):
                op.fail(f"{WRONG}: header is not {','.join(columns)}")
                return
            for line in lines:
                if count == op.points:
                    op.fail(f"{WRONG}: more than {op.points} rows")
                    return
                try:
                    if fmt == "csv":
                        cells = line.rstrip("\n").split(",")
                        row = {k: _cell(v) for k, v in zip(columns, cells)}
                    else:
                        cells = row = json.loads(line)
                    got = [_number(row[a[0]]) for a in axes or ()]
                except (ValueError, KeyError):
                    op.fail(f"{WRONG}: row {count} does not parse")
                    return
                if len(cells) != len(columns) or sorted(row) != sorted(columns):
                    op.fail(f"{WRONG}: row {count} does not have the columns {columns}")
                    return
                if grids:
                    inner = len(grids[-1])
                    want = ([grids[0][count]] if len(grids) == 1
                            else [grids[0][count // inner], grids[1][count % inner]])
                    if any(deviation(g, w) > 1e-15 for g, w in zip(got, want)):
                        op.fail(f"{WRONG}: row {count} is at {got}, expected {want}")
                        return
                if (count in sample and oracle is not None
                        and not self.recompute(oracle, row, f"{op.name} row {count}")):
                    bad += 1
                count += 1
        if count != op.points:
            op.fail(f"{WRONG}: {count} rows, expected {op.points}")
        elif bad:
            op.fail(f"{WRONG}: sampled rows outside tolerance", bad)


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

def selftest_points(quick: bool) -> int:
    """Parameter points the selftest checks: n x n single- and (n/2)^3 double-observer points."""
    n = len(st.QUICK_VALUES) if quick else round(3.0 / st.FULL_STEP)
    return n * n + (n if quick else (n + 1) // 2) ** 3


POINT_DEFECT_PROBES = [["point", "double", "--s", s] + accel
                       for s in ("8.0", "12.0", "16.0", "20.0")
                       for accel in (["--a", "0.0"], ["--l", "0.0", "--n", "0.0"])]
CROSSCHECK_DEFECT_PROBES = [(0.15772681167080083, 0.0006998457040698902, 0.45379479683828383),
                            (1.3978619660645102, 5.5969451527415615e-05, 1.4559765927087978),
                            (0.6851391650010767, 2.6489064560033384, 0.0002216006401328796),
                            (2.927093645777704, 0.00012241155086611943, 2.428470821369331)]


def library_point(name: str, params: tuple) -> Op:
    """Time one (s, l, n) point through the library route and the closed forms."""
    s, l, n = params
    op = Op(name, "library point", 1)
    op.slowdown = slowdown()
    start = time.perf_counter()
    try:
        sigma = rf.build_double_observer_cm(s, l, n)
        ln = ps.reduce(sigma, (1, 2))
        values = (im.two_mode_m(ln), im.mutual_information(ln, (0,)),
                  im.log_negativity(ln, (0,)),
                  ea.m_leo_nadia(s, l, n), ea.mutual_info_ln_general(s, l, n))
    except Exception as exc:  # a raising library call fails the point
        op.seconds = time.perf_counter() - start
        op.fail(type(exc).__name__)
    else:
        op.seconds = time.perf_counter() - start
        op.output = values
        op.digest = hashlib.sha256(",".join(f"{v:.17g}" for v in values).encode()).hexdigest()
    return op


def disagreement(params: tuple, values: tuple) -> tuple[bool, tuple[float, str]]:
    """Whether the two routes disagree at one point, and their worst deviation."""
    m_num, mi_num, neg, m_cf, mi_cf = values
    devs = [(deviation(m_cf, m_num), "m_l_n"), (deviation(mi_cf, mi_num), "mutual_info_ln")]
    worst = max(devs)
    # log-negativity and m must agree on entanglement.  Near the separability
    # boundary m - 1 grows as the square of the log-negativity, so a
    # log-negativity up to sqrt(TOL) is within TOL of a separable m = 1.
    split = m_cf > 1.0 + TOL and neg <= 0.0 or m_cf == 1.0 and neg > math.sqrt(TOL)
    return worst[0] > TOL or split, worst


_SUITE_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*): max deviation (\S+) \(tol (\S+)\)")


class Crosscheck(Workload):
    name = "crosscheck"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        # 1000 library points, so call_p99_ms has ten points beyond it
        rng = self.rng
        self.points = [(rng.uniform(0.0, 3.0), rng.uniform(ACCEL_MIN, 3.0),
                        rng.uniform(ACCEL_MIN, 3.0)) for _ in range(5 if tiny else 1000)]

    def _selftest(self, quick: bool) -> Op:
        op = Op("selftest-quick" if quick else "selftest", "selftest", selftest_points(quick))
        stdout = call_cli(op, ["selftest", "--quick"] if quick else ["selftest"])
        if not op.failure:
            data = stdout.encode()
            op.digest, op.nbytes, op.output = hashlib.sha256(data).hexdigest(), len(data), stdout
        return op

    def run_pass(self, warmup: bool = False) -> list[Op]:
        # the full selftest (0.3 s in one call) runs and is checked in the
        # warm-up pass only: a call that long has too few repeats in a run
        # for its time to be steady; timed passes run the quick one
        ops = [self._selftest(quick=True)]
        if warmup and not self.tiny:
            ops.append(self._selftest(quick=False))
        for k, params in enumerate(self.points):
            ops.append(library_point(f"point-{k}", params))
        return ops

    def probe_defects(self) -> list[tuple[str, Optional[str]]]:
        outcomes = []
        for k, params in enumerate(CROSSCHECK_DEFECT_PROBES):
            op = library_point(f"probe-{k}", params)
            if op.failure is None and disagreement(params, op.output)[0]:
                op.fail("closed form and covariance-matrix route disagree")
            outcomes.append(("(s, l, n) = ({:.6g}, {:.6g}, {:.6g})".format(*params), op.failure))
        return outcomes

    def verify(self, op: Op) -> None:
        if op.kind == "selftest":
            lines = op.output.splitlines()
            suites = [m for m in map(_SUITE_LINE.match, lines) if m]
            if (not suites or any(m.group(1) != "PASS" for m in suites)
                    or lines[-1] != f"selftest: all {len(suites)} suites passed"):
                op.fail(f"{WRONG}: selftest output does not report every suite passed")
                return
            for m in suites:
                self.track(float(m.group(3)), f"selftest {m.group(2)} (tol {m.group(4)})")
            return
        params = self.points[int(op.name.split("-")[1])]
        bad, (dev, key) = disagreement(params, op.output)
        self.track(dev, "(s, l, n) = ({:.6g}, {:.6g}, {:.6g}) {}".format(*params, key))
        if bad:
            op.fail("closed form and covariance-matrix route disagree")


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

#: The forms of ``point`` call, each (scenario, how its accelerations are
#: drawn), one entry per call of a block of 20; a quarter of the
#: accelerations is exactly zero, as the documented domain includes it.
POINT_FORMS = ([("single", "r")] * 4 + [("single", "r0"), ("single", "accel")]
               + [("double", "a")] * 4 + [("double", "a0")]
               + [("double", "ln")] * 3 + [("double", "l0"), ("double", "ln0")]
               + [("frequency", "")] * 2 + [("frequency", "s")] * 2)


def point_stream(rng: random.Random, calls: int) -> list[list[str]]:
    """Seeded ``point`` argument lists over the documented domain, s up to 20.

    Every block of 20 calls has the forms of POINT_FORMS, so the mix, and
    with it the time of a pass, is the same for every seed; the values and
    the order are seeded.
    """
    def accel() -> str:
        return repr(round(rng.uniform(ACCEL_MIN, 4.0), 2))

    stream = []
    for k in range(calls):
        scenario, form = POINT_FORMS[k % len(POINT_FORMS)]
        s_max = DOUBLE_ZERO_S_MAX if form in ("a0", "ln0") else 20.0
        s = repr(round(rng.uniform(0.0, s_max), 2))
        if form in ("r", "r0"):
            argv = ["--s", s, "--r", "0.0" if form == "r0" else accel()]
        elif form == "accel":
            argv = ["--s", s, "--accel", repr(round(rng.uniform(0.5, 40.0), 3)),
                    "--freq", repr(round(rng.uniform(0.05, 5.0), 3))]
        elif form in ("a", "a0"):
            argv = ["--s", s, "--a", "0.0" if form == "a0" else accel()]
        elif form in ("ln", "l0", "ln0"):
            argv = ["--s", s, "--l", accel() if form == "ln" else "0.0",
                    "--n", "0.0" if form == "ln0" else accel()]
        else:
            argv = ["--lam", repr(round(rng.uniform(0.05, 5.0), 3)),
                    "--nu", repr(round(rng.uniform(0.05, 5.0), 3)),
                    "--accel", repr(round(rng.uniform(0.5, 40.0), 3))]
            if form == "s":
                argv += ["--s", s]
        stream.append(["point", scenario] + argv)
    rng.shuffle(stream)
    return stream


class Point(Workload):
    name = "point"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        # 300 inputs make a pass of about 0.5 s, so a run repeats each input
        # some 50 times and each input's median time is steady
        self.stream = point_stream(self.rng, 20 if tiny else 300)
        self.sample_every = 1 if tiny else 5  # calls recomputed through the numeric route

    def run_pass(self, warmup: bool = False) -> list[Op]:
        ops = []
        for k, argv in enumerate(self.stream):
            op = Op(f"call-{k}", f"point {argv[1]}", 1)
            stdout = call_cli(op, argv)
            if not op.failure:
                data = stdout.encode()
                op.digest, op.nbytes, op.output = hashlib.sha256(data).hexdigest(), len(data), stdout
            ops.append(op)
        return ops

    def probe_defects(self) -> list[tuple[str, Optional[str]]]:
        outcomes = []
        for argv in POINT_DEFECT_PROBES:
            op = Op("probe", "point probe", 1)
            call_cli(op, argv)
            outcomes.append((" ".join(argv), op.failure))
        return outcomes

    def verify(self, op: Op) -> None:
        k = int(op.name.split("-")[1])
        argv = self.stream[k]
        scenario = argv[1]
        given = {argv[i][2:]: float(argv[i + 1]) for i in range(2, len(argv), 2)}
        lines = op.output.splitlines()
        try:
            payload = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            op.fail(f"{WRONG}: no JSON payload")
            return
        report = payload.get("report", {})
        expected = set(SCENARIO_FIELDS[scenario])
        if scenario == "single" and "accel" in given:
            expected |= {"accel", "freq", "unruh_temperature"}
        if scenario == "double" and "a" in given:
            given["l"] = given["n"] = given.pop("a")
        if scenario == "frequency" and "s" not in given:
            expected -= set(FREQUENCY_S_FIELDS)
        if (payload.get("scenario") != scenario or set(report) != expected
                or lines[0] != f"scenario: {scenario}" or len(lines) != len(report) + 2):
            op.fail(f"{WRONG}: report does not have the documented layout")
            return
        if any(_number(report[name]) != value for name, value in given.items()
               if name in report):
            op.fail(f"{WRONG}: report does not echo its parameters")
            return
        if k % self.sample_every == 0:
            row = {name: _number(v) for name, v in report.items()}
            if not self.recompute(lambda r: scenario_oracle(scenario, r), row, " ".join(argv)):
                op.fail(f"{WRONG}: report outside tolerance of the covariance-matrix route")


WORKLOADS = {w.name: w for w in (Grid, Crosscheck, Point)}
