"""Command-line front end: scenario reports, parameter sweeps, figure data, selftest.

Exit codes: 0 ok, 2 usage or invalid parameters, 3 internal inconsistency,
4 I/O failure, 5 selftest failure.  All emitted data files are deterministic:
identical invocations produce byte-identical bytes, metadata lives in '#'
comment lines and floats carry 17 significant digits.

Sweeps and figure presets evaluate their grids through the columnar report
kernels of :mod:`rindlercv.entanglement_analysis`, SWEEP_CHUNK points per
call, and write each chunk as it is done, so memory stays bounded whatever
the grid size.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
# not used by the sweep; benchmarks/tracing.py subclasses cli.ThreadPoolExecutor when it instruments a pass
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from . import entanglement_analysis as ea
from . import rindler_frames as rf
from . import selftest as st
from .info_measures import InconsistencyError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_IO = 4
EXIT_SELFTEST = 5

# grid points evaluated and written per kernel call: bounds a sweep's memory
SWEEP_CHUNK = 4096

SWEEP_PARAMS = {
    "single": ("s", "r"),
    "double": ("s", "l", "n", "a"),
    "frequency": ("lam", "nu", "accel"),
}


def _fmt(value) -> str:
    """Render one cell: booleans as true/false, floats with 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def _jsonable(value):
    """Map report values onto JSON-representable ones (inf/nan become strings)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(", ", ": "))


class _Output:
    """stdout or a file opened for writing; I/O errors surface as exit code 4.

    A file whose writing is cut short by an error is removed, so a failed
    sweep leaves no partial table behind.
    """

    def __init__(self, path: Optional[str]):
        self.path = path

    def __enter__(self):
        if self.path is None:
            return sys.stdout
        self._fh = open(self.path, "w", encoding="utf-8", newline="")
        return self._fh

    def __exit__(self, exc_type, *exc):
        if self.path is not None:
            self._fh.close()
            if exc_type is not None:
                os.remove(self.path)
        return False


def _cells(col: np.ndarray, fmt: str) -> tuple[str, list]:
    """One column's %-conversion and values, rendered as _fmt and _dump_json render cells.

    '%.17g' already prints inf, -inf, nan and -0 as _fmt does, and '%r' a
    finite float as JSON does; booleans, masked cells (empty in CSV, null in
    JSON) and non-finite JSON cells are rendered here.
    """
    if col.dtype == bool:
        return "%s", np.where(col, "true", "false").tolist()
    values = col.tolist()  # masked cells become None
    masked = np.any(getattr(col, "mask", False))
    if fmt == "csv":
        if masked:
            return "%s", ["" if v is None else "%.17g" % v for v in values]
        return "%.17g", values
    if not masked and np.isfinite(col).all():
        return "%r", values
    return "%s", ["null" if v is None else repr(v) if math.isfinite(v) else f'"{_fmt(v)}"'
                  for v in values]


def _write_table(stream, meta: list[str], columns: list[str], chunks: Iterable[dict], fmt: str) -> None:
    """Write '#' meta lines, then each chunk of columns as CSV rows or JSON lines, in row order."""
    for line in meta:
        stream.write(f"# {line}\n")
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
    else:  # json-lines, keys unique and sorted as _dump_json writes them
        columns = sorted(set(columns))
    for chunk in chunks:
        convs, cells = zip(*(_cells(chunk[c], fmt) for c in columns))
        if fmt == "csv":
            template = ",".join(convs) + "\n"
        else:
            template = "{" + ", ".join(f"{json.dumps(c)}: {v}" for c, v in zip(columns, convs)) + "}\n"
        stream.write("".join([template % row for row in zip(*cells)]))


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def _point_report(args) -> tuple[str, dict]:
    if args.scenario == "single":
        r = args.r
        extra = {}
        if r is None:
            if args.accel is None or args.freq is None:
                raise ValueError("point single needs --r, or --accel together with --freq")
            spec = rf.AccelSpec.from_physical(args.accel, args.freq)
            r = spec.squeezing
            extra = {"accel": args.accel, "freq": args.freq,
                     "unruh_temperature": spec.temperature}
        if args.s is None:
            raise ValueError("point single needs --s")
        rep = ea.single_observer_report(args.s, r)
        rep.validate(args.tol)
        return "single", {**rep.to_dict(), **extra}
    if args.scenario == "double":
        if args.s is None:
            raise ValueError("point double needs --s")
        if args.a is not None:
            if args.l is not None or args.n is not None:
                raise ValueError("give either --a or --l/--n, not both")
            l = n = args.a
        else:
            if args.l is None or args.n is None:
                raise ValueError("point double needs --a, or both --l and --n")
            l, n = args.l, args.n
        rep = ea.double_observer_report(args.s, l, n)
        rep.validate(args.tol)
        return "double", rep.to_dict()
    # frequency
    if args.lam is None or args.nu is None or args.accel is None:
        raise ValueError("point frequency needs --lam, --nu and --accel")
    columns = ea.frequency_report_columns(args.lam, args.nu, args.accel, args.s)
    return "frequency", {name: np.asarray(col).tolist() for name, col in columns.items()}


def _row_chunk(row: dict) -> dict:
    """One row of cells as a chunk of one-element columns, None as a masked cell."""
    return {name: np.ma.masked_array([0.0 if v is None else v], mask=[v is None])
            for name, v in row.items()}


def _cmd_point(args) -> int:
    scenario, report = _point_report(args)
    payload = {"scenario": scenario, "report": report}
    with _Output(args.out) as stream:
        if args.format == "json":
            stream.write(_dump_json(payload) + "\n")
        elif args.format == "csv":
            _write_table(stream, [f"rindlercv point {scenario}"], list(report), [_row_chunk(report)], "csv")
        else:  # default: human text followed by the JSON payload
            stream.write(f"scenario: {scenario}\n")
            for key in report:
                stream.write(f"  {key:>24s} = {_fmt(report[key])}\n")
            stream.write(_dump_json(payload) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepAxis:
    name: str
    lo: float
    hi: float
    steps: int

    def values(self, index: np.ndarray) -> np.ndarray:
        """np.linspace(lo, hi, steps)[index], computed without building the whole axis."""
        div = self.steps - 1
        delta = self.hi - self.lo
        step = delta / div
        grid = index / div * delta if step == 0 else index * step  # as linspace for denormal steps
        return np.where(index == div, self.hi, grid + self.lo)


def _parse_axis(text: str) -> SweepAxis:
    try:
        name, rng = text.split("=", 1)
        lo, hi, steps = rng.split(":")
        axis = SweepAxis(name.strip(), float(lo), float(hi), int(steps))
    except Exception as exc:
        raise ValueError(f"bad --sweep spec {text!r}; expected NAME=MIN:MAX:STEPS") from exc
    if axis.steps < 2:
        raise ValueError(f"sweep axis {axis.name!r} needs at least 2 steps")
    return axis


def _parse_fix(items: Sequence[str]) -> dict[str, float]:
    fixed = {}
    for item in items:
        try:
            name, value = item.split("=", 1)
            fixed[name.strip()] = float(value)
        except Exception as exc:
            raise ValueError(f"bad --fix spec {item!r}; expected NAME=VALUE") from exc
    return fixed


def _sweep_evaluator(scenario: str, params: dict) -> dict:
    """The scenario's report columns over one chunk of grid points (fixed values broadcast)."""
    if scenario == "single":
        return ea.single_report_columns(params["s"], params["r"])
    if scenario == "double":
        if "a" in params:
            l = n = params["a"]
        else:
            l, n = params["l"], params["n"]
        return ea.double_report_columns(params["s"], l, n)
    return ea.frequency_report_columns(params["lam"], params["nu"], params["accel"], params.get("s"))


def _sweep_chunks(scenario: str, axes: list[SweepAxis], fixed: dict):
    """Axis and report columns of the grid, outer axis major, SWEEP_CHUNK points at a time."""
    inner = axes[-1].steps
    total = math.prod(axis.steps for axis in axes)
    for start in range(0, total, SWEEP_CHUNK):
        index = np.arange(start, min(start + SWEEP_CHUNK, total))
        if len(axes) == 1:
            point = {axes[0].name: axes[0].values(index)}
        else:
            point = {axes[0].name: axes[0].values(index // inner),
                     axes[1].name: axes[1].values(index % inner)}
        yield {**point, **_sweep_evaluator(scenario, {**point, **fixed})}


def _cmd_sweep(args) -> int:
    if args.scenario is None:
        raise ValueError("sweep needs --scenario {single,double,frequency}")
    axes = [_parse_axis(a) for a in args.sweep or []]
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep needs one or two --sweep axes")
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ValueError(f"axis {axes[0].name!r} swept twice")
    fixed = _parse_fix(args.fix or [])
    allowed = set(SWEEP_PARAMS[args.scenario]) | ({"s"} if args.scenario == "frequency" else set())
    for name in [a.name for a in axes] + list(fixed):
        if name not in allowed:
            raise ValueError(f"parameter {name!r} not valid for scenario {args.scenario!r} "
                             f"(allowed: {sorted(allowed)})")
    swept = {a.name for a in axes}
    if swept & set(fixed):
        raise ValueError("a parameter cannot be both swept and fixed")
    if args.scenario == "double":
        have = swept | set(fixed)
        if "a" in have and ({"l", "n"} & have):
            raise ValueError("give either a, or l and n, not both")
        needed = {"s", "a"} if "a" in have else {"s", "l", "n"}
    elif args.scenario == "single":
        needed = {"s", "r"}
    else:
        needed = {"lam", "nu", "accel"}
    missing = needed - swept - set(fixed)
    if missing:
        raise ValueError(f"unswept parameters need --fix values: {sorted(missing)}")

    chunks = _sweep_chunks(args.scenario, axes, fixed)
    first = next(chunks)  # evaluated before the output opens, so its errors leave no file
    axis_cols = [a.name for a in axes]
    all_quantities = [k for k in first if k not in axis_cols]
    if args.quantities:
        wanted = [q.strip() for q in args.quantities.split(",")]
        unknown = [q for q in wanted if q not in first]
        if unknown:
            raise ValueError(f"unknown quantities {unknown}; available: {all_quantities}")
        quantities = wanted
    else:
        quantities = all_quantities
    columns = axis_cols + quantities
    meta = [
        f"rindlercv sweep scenario={args.scenario}",
        "axes: " + "; ".join(f"{a.name}={_fmt(a.lo)}:{_fmt(a.hi)}:{a.steps}" for a in axes),
        "fixed: " + (", ".join(f"{k}={_fmt(v)}" for k, v in sorted(fixed.items())) or "none"),
        "columns: " + ",".join(columns),
    ]
    with _Output(args.out) as stream:
        _write_table(stream, meta, columns, itertools.chain([first], chunks), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_AXIS61 = np.linspace(0.0, 3.0, 61)
_FREQ61 = np.linspace(5.0 / 61, 5.0, 61)


@dataclass
class FigurePreset:
    preset_id: str
    description: str
    columns: list[str]
    build: Callable[[], dict]  # the preset's columns, a superset of ``columns``
    plot: str  # gnuplot fragment; {data} is replaced with the csv filename


def _surface(outer: np.ndarray, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of every (outer, inner) grid point, outer axis major."""
    return np.repeat(outer, len(inner)), np.tile(inner, len(outer))


def _normalized(tau: np.ndarray, s: np.ndarray) -> np.ndarray:
    """tau / 4s^2, the share of the inertial contangle; nan at s = 0."""
    return tau / np.where(s > 0, 4 * s * s, np.nan)


def _fig2_rows():
    return ea.single_report_columns(1.0, _AXIS61)


def _fig3_rows():
    r, s = _surface(_AXIS61, _AXIS61)
    columns = ea.single_report_columns(s, r)
    return {**columns, "tau_ar_normalized": _normalized(columns["tau_ar"], s)}


def _fig4_rows():
    columns = {"r": _AXIS61, "sqrt_tau_r_rbar": 2.0 * _AXIS61}
    for s in (0.25, 0.5, 1.0, 2.0):
        columns[f"sqrt_tau_ar_s{_fmt(s)}"] = np.sqrt(ea.single_report_columns(s, _AXIS61)["tau_ar"])
    return columns


def _fig5_rows():
    r, s = _surface(_AXIS61, _AXIS61)
    return ea.single_report_columns(s, r)


def _fig6_rows():
    lam, nu = _surface(_FREQ61, _FREQ61)
    columns = {"lam": lam, "nu": nu}
    for label, accel in (("2pi", 2 * math.pi), ("10pi", 10 * math.pi)):
        condition, _, separable = ea.frequency_condition(lam, nu, accel)
        columns[f"condition_value_{label}"] = condition
        columns[f"separable_{label}"] = separable
    return columns


def _fig7_rows():
    lam, nu = _surface(_FREQ61, _FREQ61)
    return ea.frequency_report_columns(lam, nu, 2 * math.pi)


def _fig8_rows():
    s, a = _surface(_AXIS61, _AXIS61)
    return {**ea.double_report_columns(s, a, a), "a": a}


def _fig9_rows():
    a, s = _surface(_AXIS61, _AXIS61)
    columns = ea.double_report_columns(s, a, a)
    tau = columns["tau_l_n"]
    return {**columns, "a": a, "tau_ln": tau, "tau_ln_normalized": _normalized(tau, s)}


def _fig10_rows():
    a, s = _surface(_AXIS61, _AXIS61)
    return {**ea.double_report_columns(s, a, a), "a": a}


_SURFACE_PLOT = """set datafile separator ','
set datafile commentschars '#'
set key autotitle columnhead
set dgrid3d 61,61
set hidden3d
splot '{data}' using 1:2:3 with lines
"""

_CURVES_PLOT = """set datafile separator ','
set datafile commentschars '#'
set key autotitle columnhead
plot for [col=2:{ncols}] '{data}' using 1:col with lines
"""

FIGURE_PRESETS: dict[str, FigurePreset] = {}


def _register(preset: FigurePreset) -> None:
    FIGURE_PRESETS[preset.preset_id] = preset


_register(FigurePreset("fig2", "one-vs-rest m parameters vs acceleration r at s = 1",
                       ["r", "m_a_vs_rest", "m_r_vs_rest", "m_rbar_vs_rest"], _fig2_rows,
                       _CURVES_PLOT.replace("{ncols}", "4")))
_register(FigurePreset("fig3", "Alice-Rob contangle surface over (r, s), raw and normalized to 4s^2",
                       ["r", "s", "tau_ar", "tau_ar_normalized"], _fig3_rows, _SURFACE_PLOT))
_register(FigurePreset("fig4", "sqrt contangle curves vs r for s in {0.25,0.5,1,2} plus the 2r wedge line",
                       ["r", "sqrt_tau_ar_s0.25", "sqrt_tau_ar_s0.5", "sqrt_tau_ar_s1",
                        "sqrt_tau_ar_s2", "sqrt_tau_r_rbar"], _fig4_rows,
                       _CURVES_PLOT.replace("{ncols}", "6")))
_register(FigurePreset("fig5", "residual tripartite contangle surface over (r, s)",
                       ["r", "s", "residual_tripartite"], _fig5_rows, _SURFACE_PLOT))
_register(FigurePreset("fig6", "frequency-domain separability condition at accel = 2pi and 10pi",
                       ["lam", "nu", "condition_value_2pi", "separable_2pi",
                        "condition_value_10pi", "separable_10pi"], _fig6_rows, _SURFACE_PLOT))
_register(FigurePreset("fig7", "infinite-squeezing Leo-Nadia entanglement vs mode frequencies at accel = 2pi",
                       ["lam", "nu", "l", "n", "m_ln_infinite", "tau_ln_infinite"], _fig7_rows,
                       _SURFACE_PLOT.replace("1:2:3", "1:2:6")))
_register(FigurePreset("fig8", "residual multipartite contangle surface over (s, a)",
                       ["s", "a", "residual_multipartite"], _fig8_rows, _SURFACE_PLOT))
_register(FigurePreset("fig9", "Leo-Nadia contangle surface over (a, s) with the a*(s) death line",
                       ["a", "s", "tau_ln", "tau_ln_normalized", "a_star"], _fig9_rows, _SURFACE_PLOT))
_register(FigurePreset("fig10", "classical-correlation deficit surface over (a, s)",
                       ["a", "s", "deficit"], _fig10_rows, _SURFACE_PLOT))


def _cmd_figure(args) -> int:
    preset = FIGURE_PRESETS.get(args.preset)
    if preset is None:
        raise ValueError(f"unknown preset {args.preset!r}; available: {sorted(FIGURE_PRESETS)}")
    os.makedirs(args.out_dir, exist_ok=True)
    data_name = f"{preset.preset_id}.csv"
    columns = preset.build()
    meta = [
        f"rindlercv figure {preset.preset_id}: {preset.description}",
        "axis ranges follow the source captions where stated; otherwise [0, 3] "
        "(frequencies: (0, 5]) as documented in the README",
        "columns: " + ",".join(preset.columns),
    ]
    path = os.path.join(args.out_dir, data_name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_table(fh, meta, preset.columns, [columns], "csv")
    written = [path]
    if args.plot_script:
        script_path = os.path.join(args.out_dir, f"{preset.preset_id}.gp")
        with open(script_path, "w", encoding="utf-8") as fh:
            fh.write(f"# gnuplot commands for {preset.preset_id}; data: {data_name}\n")
            fh.write(preset.plot.replace("{data}", data_name))
        written.append(script_path)
    print("\n".join(written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _cmd_selftest(args) -> int:
    report = st.run(tol=args.tol, quick=args.quick)
    for suite in report.suites:
        print(suite.line())
    if report.passed:
        print(f"selftest: all {len(report.suites)} suites passed")
        return EXIT_OK
    worst = report.worst_suite()
    print(f"selftest: FAILED; worst offender {worst.name} at {worst.worst_at} "
          f"(deviation {worst.worst:.3e} > tol {worst.tol:.1e})")
    return EXIT_SELFTEST


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS,
                        help="output format for data payloads")
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output file (default stdout)")
    parser.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="numerical tolerance (default 1e-9)")
    parser.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility; has no effect (sweeps evaluate "
                             "whole chunks of the grid in one thread)")
    parser.add_argument("--quick", action="store_true", default=argparse.SUPPRESS,
                        help="coarse selftest grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rindlercv",
        description="Continuous-variable correlations between uniformly accelerated observers")
    parser.add_argument("--version", action="version", version=f"rindlercv {__version__}")
    _common_flags(parser)
    parser.set_defaults(format=None, out=None, tol=1e-9, threads=None, quick=False)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_point = sub.add_parser("point", help="full report at one parameter point")
    _common_flags(p_point)
    p_point.add_argument("scenario", choices=("single", "double", "frequency"))
    for flag in ("--s", "--r", "--l", "--n", "--a", "--lam", "--nu", "--accel", "--freq"):
        p_point.add_argument(flag, type=float)
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="tabulate report quantities over a parameter grid")
    _common_flags(p_sweep)
    p_sweep.add_argument("--scenario", choices=("single", "double", "frequency"))
    p_sweep.add_argument("--sweep", action="append", metavar="NAME=MIN:MAX:STEPS")
    p_sweep.add_argument("--fix", action="append", metavar="NAME=VALUE")
    p_sweep.add_argument("--quantities", help="comma-separated subset of report fields")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="write one figure preset's data (and plot script)")
    _common_flags(p_fig)
    p_fig.add_argument("preset")
    p_fig.add_argument("--out-dir", default=".")
    p_fig.add_argument("--plot-script", action="store_true",
                       help="also write a gnuplot script next to the data")
    p_fig.set_defaults(func=_cmd_figure)

    p_self = sub.add_parser("selftest", help="closed-form vs numeric consistency suite")
    _common_flags(p_self)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None and args.verb == "sweep":
        args.format = "csv"
    try:
        if args.threads is not None and args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
