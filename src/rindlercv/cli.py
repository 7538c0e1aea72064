"""Command-line front end: scenario reports, parameter sweeps, figure data, selftest.

Exit codes: 0 ok, 2 usage or invalid parameters, 3 internal inconsistency,
4 I/O failure, 5 selftest failure.  All emitted data files are deterministic:
identical invocations produce byte-identical bytes, metadata lives in '#'
comment lines and floats carry 17 significant digits.

Sweeps and figure presets evaluate their grids through the columnar report
kernels of :mod:`rindlercv.entanglement_analysis`.  A sweep hands them
SWEEP_CHUNK flat points per call and writes each chunk as it is done, so
memory stays bounded whatever the grid size.  A figure surface hands them its
two axes, the outer as a column and the inner as a row, so a kernel evaluates
what depends on one axis once per value of it; the grid's shape is first
materialised in the writer's gather.  The table writer reads each column
along the axes it varies on only, formats each distinct float of a chunk
once, gathers the texts into a row-major list of cells and writes the chunk
with one '%' of a row template; the bytes are those of rendering each cell
on its own with ``_fmt`` (CSV) or ``_dump_json`` (JSON).  A CSV float is
rendered by ``_fmt17``, a numpy kernel that writes the bytes of '%.17g':
it computes a fixed-notation text (decimal exponent -4..16, nearly every
value of a sweep or figure) exactly from the value's 17-digit integer, and
hands the rest (0, -0, inf, nan, exponent notation) to '%.17g' itself.  A
JSON float goes through one '%r' call.

Every output file (``--out`` tables, figure data and plot scripts) goes
through ``_Output``, one generator context manager: it rewrites an existing
regular file in place, cuts it to the written length, and on any failure
removes it in one place (through a symlink, the file the link resolves to).
Nothing is fsynced; a run killed mid-write can leave the new bytes followed
by the old file's tail.

Each verb reads only the global flags ``VERB_FLAGS`` names for it; ``main``
refuses any other with exit 2 before any output opens.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys
# not used by the sweep; benchmarks/tracing.py subclasses cli.ThreadPoolExecutor when it instruments a pass
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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


class Scenario(NamedTuple):
    """What a scenario takes, and its report kernel on ``ea`` by name (looked up when called)."""

    kernel: str  # columnar report kernel
    params: tuple[str, ...]  # its arguments, in kernel order
    optional: tuple[str, ...] = ()
    # a name standing for several parameters set equal, and those parameters
    alias: tuple[Optional[str], tuple[str, ...]] = (None, ())


SCENARIOS = {
    "single": Scenario("single_report_columns", ("s", "r")),
    "double": Scenario("double_report_columns", ("s", "l", "n"), alias=("a", ("l", "n"))),
    "frequency": Scenario("frequency_report_columns", ("lam", "nu", "accel", "s"), optional=("s",)),
}


def _kernel_args(scenario: str, given: dict, flag: str) -> dict:
    """The scenario kernel's keyword arguments from the parameters a user gave (name -> value).

    Rejects a name the scenario does not take, the alias together with a
    parameter it stands for, and a missing parameter (named as
    ``flag.format(name)``).  The alias value is validated under its own name
    before it stands for its parameters.
    """
    spec = SCENARIOS[scenario]
    alias, targets = spec.alias
    allowed = {*spec.params, alias} - {None}
    unknown = sorted(given.keys() - allowed)
    if unknown:
        raise ValueError(f"parameter {unknown[0]!r} not valid for scenario {scenario!r} "
                         f"(allowed: {sorted(allowed)})")
    if alias in given:
        if given.keys() & set(targets):
            raise ValueError(f"give either {alias}, or {' and '.join(targets)}, not both")
        rf._require_domain(**{alias: given[alias]})
        given = {**given, **dict.fromkeys(targets, given[alias])}
    missing = [p for p in spec.params if p not in given and p not in spec.optional]
    if missing:
        needs = " and ".join(flag.format(p) for p in missing)
        if alias and set(targets) <= set(missing):
            needs += f" (or {flag.format(alias)} for {' = '.join(targets)} = {alias})"
        raise ValueError(f"scenario {scenario!r} needs {needs}")
    return {p: given[p] for p in spec.params if p in given}


def _fmt(value) -> str:
    """Render one cell: booleans as true/false, floats with 17 significant digits."""
    if isinstance(value, float):  # '.17g' also prints inf, -inf, nan (of either sign) and -0
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _jsonable(value):
    """Map report values onto JSON-representable ones (inf/nan become strings), a dict's values in one pass."""
    if isinstance(value, dict):  # a nested dict recurses; any other value is mapped in place
        return {k: _jsonable(v) if isinstance(v, dict) else
                _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in value.items()}
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


# json.dumps(obj, sort_keys=True, separators=(", ", ": ")), without building an encoder per call
_JSON = json.JSONEncoder(sort_keys=True, separators=(", ", ": "))


def _dump_json(obj) -> str:
    return _JSON.encode(_jsonable(obj))


@contextlib.contextmanager
def _Output(path: Optional[str]):
    """stdout, or the file at path opened for writing; I/O errors surface as exit code 4.

    A regular file is rewritten in place: opened without truncating, written
    from its start and, where the old file was longer, cut to the written
    length at close, so it keeps its inode, mode bits and links, and a
    symlink is written through.  This spares the writeback that ext4 starts
    when a file truncated to zero is closed; a new file costs the same
    either way.  Until the cut the old file's tail stays in place, and
    nothing is fsynced: a concurrent reader, a crash or a run killed by a
    signal (timeout, SIGKILL, the OOM killer) can see or leave the new bytes
    followed by that tail, which reads as a whole table under the new '#'
    lines when the old one had the same shape.
    A regular file whose writing fails with an exception, in the final cut
    or close too, is removed, so a failed sweep leaves no partial table
    behind; written through a symlink, that is the file the link resolves
    to, and the link stays.  Anything else (a device such as /dev/null, a
    pipe) is written as opened, never cut, and left where it is.
    """
    if path is None:
        yield sys.stdout
        return
    # "w" without its O_TRUNC; open owns the descriptor as soon as the opener returns it
    fh = open(path, "w", encoding="utf-8", newline="",
              opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666))
    info = os.fstat(fh.fileno())
    regular = stat.S_ISREG(info.st_mode)
    try:
        with fh:  # tell() flushes; only an old file longer than what was written needs the cut
            yield fh
            if regular and (end := fh.tell()) < info.st_size:
                os.ftruncate(fh.fileno(), end)
    except BaseException:
        if regular:  # the file written: the one a symlink resolves to, not the link
            os.remove(os.path.realpath(path))
        raise


# _fmt17's byte row of one value, 7 uint32 words: the leading digit as "000d", four groups of 4 digits (the 17
# digits are bytes 3-19), then "-.0\0" and "\n\0\0\0"; a value left to '%.17g' has its text in bytes 0-23
_ROW_TAIL = np.frombuffer(b"-.0\0\n\0\0\0", np.uint32)
_NEG, _DOT, _ZERO, _NL, _NUL = 20, 21, 22, 24, 25  # byte offsets in the row
_TEXT = 25  # bytes of the widest text and its "\n": "-0.000" and 17 digits, or a '%.17g' text of at most 24
_GROUPS = np.array([[10 ** 16], [10 ** 12], [10 ** 8], [10 ** 4], [1]])  # n // _GROUPS % 10**4: n's 5 groups
_GROUP_BASE = 10 ** 4 * np.arange(5)[:, None]  # where each group's part of the flat table last starts
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's factor: a double's two 26-bit halves
_FMT17_BLOCK = 1024  # values per block: the temporary arrays, some 500 bytes a value, stay small


@functools.cache
def _fmt17_tables() -> tuple[np.ndarray, ...]:
    """_fmt17's tables, built on first use: bounds, powers, quads, last and layout.

    bounds[p + 4] is the least double at or above 10**p, p = -4..17, so a
    value v has the decimal exponent x where bounds[x + 4] <= |v| < bounds[x + 5].
    powers[:, x + 4] is 10**(16 - x), exact up to 10**20, and its two
    Veltkamp halves.  quads[g] is the text of g in 4 digits as one uint32
    word.  last[10**4 * j + g] is how many of the 17 digits run up to the
    last nonzero one of group j when that group holds g (0 if g is 0).
    Each row of layout lists the row bytes one text takes, padded with _NUL:
    one row per (x, digits kept, sign), then the row copying a '%.17g' text.
    """
    # the double nearest 10**p is 10**p from p = 0 on, and lies above it for p = -4..-1
    bounds = np.array([float(f"1e{p}") for p in range(-4, 18)])
    scale = np.array([float(10 ** k) for k in range(20, -1, -1)])
    high = scale * _SPLIT - (scale * _SPLIT - scale)
    chars = np.frombuffer(b"0123456789", np.uint8)  # the 4-char texts "0000".."9999" in order, as words
    quads = np.stack(np.meshgrid(chars, chars, chars, chars, indexing="ij"), axis=-1).view(np.uint32).ravel()
    g = np.arange(10 ** 4)
    digits = 4 - sum(g % 10 ** i == 0 for i in range(1, 4))  # the length of g's 4 digits, trailing 0s cut
    last = np.where(g > 0, 4 * np.arange(5)[:, None] - 3 + digits, 0).astype(np.uint8).ravel()
    digit = list(range(3, 20))
    layout = []
    for x in range(-4, 17):
        for kept in range(1, 18):
            if x < 0:
                body = [_ZERO, _DOT] + [_ZERO] * (-1 - x) + digit[:kept]
            else:
                body = digit[:x + 1] + ([_DOT, *digit[x + 1:kept]] if kept > x + 1 else [])
            for sign in ([], [_NEG]):
                row = [*sign, *body, _NL]
                layout.append(row + [_NUL] * (_TEXT - len(row)))
    layout.append([*range(24), _NL])
    return bounds, np.array([scale, high, scale - high]), quads, last, np.array(layout, np.int32)


def _fmt17(values: np.ndarray) -> str:
    """'%.17g\\n' * len(values) % tuple(values.tolist()), computed in numpy _FMT17_BLOCK values at a time.

    The text of every value with a decimal exponent x of -4..16, which
    '%.17g' writes in fixed notation, is put together from its 17-digit
    integer n: |v| * 10**(16 - x) lies in [1e16, 1e17), 10**(16 - x) is an
    exact double, and Dekker's product splits it into hi + lo without error.
    hi >= 1e16 > 2**53 is an even integer, so hi + rint(lo) is the product
    rounded to an integer, ties to even, as Python's dtoa rounds.  (No double
    lies within half a unit of the 17th digit below a power of ten, so n
    never carries to 10**17.)  The digits come from the 4-digit table, and one
    flat take through the layout row of (x, digits kept after the trailing
    zeros, sign) lays each text out in bytes, which a mask rids of their
    padding.  Every other value (0, -0, inf, nan and exponent notation) goes
    to '%.17g' itself, in one bulk call per block.
    """
    bounds, powers, quads, last, layout = _fmt17_tables()
    out = []
    for start in range(0, len(values), _FMT17_BLOCK):
        v = values[start:start + _FMT17_BLOCK]
        a = np.abs(v)
        e = np.searchsorted(bounds, a, side="right") - 1  # x + 4, nan included in the last bound's count
        other = (e < 0) | (e > 20)
        if fallback := other.any():
            a[other], e[other] = 1.0, 4  # computed without a warning; these rows are replaced below
        scale, high, low = powers[:, e]
        hi = a * scale
        a_high = a * _SPLIT - (a * _SPLIT - a)
        a_low = a - a_high
        lo = ((a_high * high - hi) + a_high * low + a_low * high) + a_low * low
        n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        groups = n // _GROUPS % 10 ** 4
        words = np.empty((len(v), 7), np.uint32)
        words[:, :5] = quads[groups.T]
        words[:, 5:] = _ROW_TAIL
        kept = last.take(groups + _GROUP_BASE).max(axis=0)
        key = (e * 17 + kept - 1) * 2 + np.signbit(v)
        if fallback:
            rest = v[other]
            texts = ("%.17g\n" * len(rest) % tuple(rest.tolist())).split("\n")[:-1]
            words[other, :6] = np.array(texts, dtype="S24").view(np.uint32).reshape(-1, 6)
            key[other] = len(layout) - 1
        index = layout.take(key, axis=0)
        index += 28 * np.arange(len(v), dtype=np.int32)[:, None]  # each row's first byte: 7 words of 4 bytes
        text = words.view(np.uint8).ravel().take(index)
        out.append(text[text != 0].tobytes())
    return b"".join(out).decode("ascii")


def _cells(chunk: dict, columns: list[str], fmt: str) -> list[str]:
    """The chunk's cells, row by row, as _fmt (CSV) or _dump_json (JSON) renders each on its own.

    The columns broadcast to the chunk's shape, whose cells are its rows in
    C order (a surface's outer axis major).  Each column is read only along
    the axes it varies on (nonzero strides): a broadcast axis contributes its
    first cell, which the gather repeats.  Each distinct float of the chunk,
    over all its float columns, is formatted once, by _fmt17 (CSV) or one
    '%r' call (JSON), and its text gathered into every cell that holds it.
    Floats are told apart by their bits, so -0.0 and 0.0 stay distinct.
    '%.17g', whose bytes _fmt17 writes, prints inf, -inf, nan and -0 as _fmt
    does, and '%r' a finite float as JSON does; a non-finite JSON cell is
    _fmt's text, quoted.  Booleans are false/true, and a masked cell is empty
    in CSV and null in JSON.
    """
    cols = [chunk[c] for c in columns]
    shape = np.broadcast_shapes(*{np.shape(col) for col in cols})
    data = []
    for col in cols:
        d = np.asarray(col)  # a masked array's data; its mask is read below
        if 0 in d.strides:  # a broadcast view: read along the axes it varies on only
            d = d[tuple(slice(None) if stride else slice(1) for stride in d.strides)]
        data.append(d)
    floats = [np.ascontiguousarray(d, dtype=float).view(np.int64).ravel() for d in data if d.dtype != bool]
    keys, inverse = np.unique(np.concatenate(floats or [np.empty(0, np.int64)]), return_inverse=True)
    values = keys.view(float)
    k = len(values)
    # the k texts, then the split's trailing "" (a masked cell), false and true
    texts = (_fmt17(values) if fmt == "csv" else "%r\n" * k % tuple(values.tolist())).split("\n")
    if fmt == "json":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = f'"{_fmt(values[i].item())}"'
        texts[k] = "null"
    texts += ["false", "true"]
    index = np.empty((len(cols), *shape), dtype=np.intp)
    start = 0
    for row, col, d in zip(index, cols, data):  # each row of index a column, its cells assigned broadcast
        if d.dtype == bool:
            row[...] = d
            row += k + 1
        else:
            row[...] = inverse[start:start + d.size].reshape(d.shape)
            start += d.size
        if isinstance(col, np.ma.MaskedArray):
            np.copyto(row, k, where=np.ma.getmaskarray(col))
    return np.array(texts, dtype=object)[index.reshape(len(cols), -1).T.ravel()].tolist()


def _write_table(stream, meta: list[str], columns: list[str], chunks: Iterable[dict], fmt: str) -> None:
    """Write '#' meta lines, then each chunk of columns as CSV rows or JSON lines, in row order.

    A chunk is one '%' of the row template repeated once per row.  JSON keys
    are sorted as _dump_json writes them, and a duplicated column stays
    duplicated, as in CSV.
    """
    for line in meta:
        stream.write(f"# {line}\n")
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        template = ",".join(["%s"] * len(columns)) + "\n"
    else:
        columns = sorted(columns)
        template = "{" + ", ".join(json.dumps(c).replace("%", "%%") + ": %s" for c in columns) + "}\n"
    for chunk in chunks:
        cells = _cells(chunk, columns, fmt)
        stream.write(template * (len(cells) // len(columns)) % tuple(cells))


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

# each scenario's parameters and alias, then the --accel/--freq form of the single scenario's r
POINT_FLAGS = tuple(dict.fromkeys(
    [name for spec in SCENARIOS.values() for name in (*spec.params, spec.alias[0]) if name] + ["accel", "freq"]))


def _point_report(args) -> tuple[str, dict]:
    given = {name: getattr(args, name) for name in POINT_FLAGS if getattr(args, name) is not None}
    extra = {}
    if args.scenario == "single" and "r" not in given and given.keys() & {"accel", "freq"}:
        if not {"accel", "freq"} <= given.keys():
            raise ValueError("point single needs --accel together with --freq")
        accel, freq = given.pop("accel"), given.pop("freq")
        rf._require_domain(positive=True, accel=accel, freq=freq)
        given["r"] = rf.accel_to_squeezing(accel, freq)
        if given["r"] == math.inf:
            raise ValueError(f"--accel {accel!r} and --freq {freq!r} give an infinite squeezing r "
                             "(freq / accel underflows to 0)")
        extra = {"accel": accel, "freq": freq, "unruh_temperature": rf.unruh_temperature(accel)}
    kwargs = _kernel_args(args.scenario, given, "--{}")
    columns = getattr(ea, SCENARIOS[args.scenario].kernel)(**kwargs, tol=args.tol)
    return args.scenario, {**columns, **extra}


def _cmd_point(args) -> int:
    scenario, report = _point_report(args)
    if args.format == "csv":  # the table _write_table would write for this one row
        text = f"# rindlercv point {scenario}\n{','.join(report)}\n{','.join(map(_fmt, report.values()))}\n"
    else:
        text = _dump_json({"scenario": scenario, "report": report}) + "\n"
        if args.format != "json":  # default: human text followed by the JSON payload
            text = "".join([f"scenario: {scenario}\n",
                            *[f"  {key:>24s} = {_fmt(value)}\n" for key, value in report.items()], text])
    with _Output(args.out) as stream:  # one write of the whole text
        stream.write(text)
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
        with np.errstate(invalid="ignore"):  # an infinite bound gives non-finite points, which exit 2
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
            name, value = name.strip(), float(value)
        except Exception as exc:
            raise ValueError(f"bad --fix spec {item!r}; expected NAME=VALUE") from exc
        if name in fixed:
            raise ValueError(f"parameter {name!r} fixed twice")
        fixed[name] = value
    return fixed


def _sweep_evaluator(scenario: str, params: dict, tol: float) -> dict:
    """The scenario's report columns over one chunk of grid points, from its kernel arguments."""
    return getattr(ea, SCENARIOS[scenario].kernel)(**params, tol=tol)


def _sweep_chunks(scenario: str, axes: list[SweepAxis], fixed: dict, tol: float):
    """Axis and report columns of the grid, outer axis major, SWEEP_CHUNK points at a time."""
    shape = [axis.steps for axis in axes]
    total = math.prod(shape)
    for start in range(0, total, SWEEP_CHUNK):
        indices = np.unravel_index(np.arange(start, min(start + SWEEP_CHUNK, total)), shape)
        point = {axis.name: axis.values(index) for axis, index in zip(axes, indices)}
        params = _kernel_args(scenario, {**point, **fixed}, "--fix {}=VALUE")
        yield {**point, **_sweep_evaluator(scenario, params, tol)}


def _cmd_sweep(args) -> int:
    if args.scenario is None:
        raise ValueError("sweep needs --scenario {single,double,frequency}")
    axes = [_parse_axis(a) for a in args.sweep or []]
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep needs one or two --sweep axes")
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ValueError(f"axis {axes[0].name!r} swept twice")
    fixed = _parse_fix(args.fix or [])
    if {a.name for a in axes} & set(fixed):
        raise ValueError("a parameter cannot be both swept and fixed")

    chunks = _sweep_chunks(args.scenario, axes, fixed, args.tol)
    first = next(chunks)  # checked and evaluated before the output opens, so its errors leave no file
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
    for i, column in enumerate(columns):
        if column in columns[:i]:
            raise ValueError(f"column {column!r} requested twice")
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
    """The (outer, inner) grid's axes, outer as a column and inner as a row: they broadcast to every point,
    outer axis major, and a kernel evaluates what depends on one axis once per value of it."""
    return outer[:, None], inner


def _normalized(tau: np.ndarray, s: np.ndarray) -> np.ndarray:
    """tau / 4s^2, the share of the inertial contangle; nan at s = 0."""
    return tau / np.where(s > 0, 4 * s * s, np.nan)


def _fig2_rows():
    return ea.single_report_columns(1.0, _AXIS61)


def _fig3_rows():
    r, s = _surface(_AXIS61, _AXIS61)
    columns = ea.single_report_columns(s, r)
    return {**columns, "tau_ar_normalized": _normalized(columns["tau_ar"], s)}


_FIG4_S = (0.25, 0.5, 1.0, 2.0)


def _fig4_rows():
    columns = {"r": _AXIS61, "sqrt_tau_r_rbar": 2.0 * _AXIS61}
    tau = ea.single_report_columns(np.array(_FIG4_S)[:, None], _AXIS61)["tau_ar"]  # one call, one row per s
    for s, row in zip(_FIG4_S, tau):
        columns[f"sqrt_tau_ar_s{_fmt(s)}"] = np.sqrt(row)
    return columns


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

FIGURE_PRESETS: dict[str, FigurePreset] = {preset.preset_id: preset for preset in (
    FigurePreset("fig2", "one-vs-rest m parameters vs acceleration r at s = 1",
                 ["r", "m_a_vs_rest", "m_r_vs_rest", "m_rbar_vs_rest"], _fig2_rows,
                 _CURVES_PLOT.replace("{ncols}", "4")),
    FigurePreset("fig3", "Alice-Rob contangle surface over (r, s), raw and normalized to 4s^2",
                 ["r", "s", "tau_ar", "tau_ar_normalized"], _fig3_rows, _SURFACE_PLOT),
    FigurePreset("fig4", "sqrt contangle curves vs r for s in {0.25,0.5,1,2} plus the 2r wedge line",
                 ["r", "sqrt_tau_ar_s0.25", "sqrt_tau_ar_s0.5", "sqrt_tau_ar_s1",
                  "sqrt_tau_ar_s2", "sqrt_tau_r_rbar"], _fig4_rows,
                 _CURVES_PLOT.replace("{ncols}", "6")),
    FigurePreset("fig5", "residual tripartite contangle surface over (r, s)",
                 ["r", "s", "residual_tripartite"], _fig3_rows, _SURFACE_PLOT),
    FigurePreset("fig6", "frequency-domain separability condition at accel = 2pi and 10pi",
                 ["lam", "nu", "condition_value_2pi", "separable_2pi",
                  "condition_value_10pi", "separable_10pi"], _fig6_rows, _SURFACE_PLOT),
    FigurePreset("fig7", "infinite-squeezing Leo-Nadia entanglement vs mode frequencies at accel = 2pi",
                 ["lam", "nu", "l", "n", "m_ln_infinite", "tau_ln_infinite"], _fig7_rows,
                 _SURFACE_PLOT.replace("1:2:3", "1:2:6")),
    FigurePreset("fig8", "residual multipartite contangle surface over (s, a)",
                 ["s", "a", "residual_multipartite"], _fig8_rows, _SURFACE_PLOT),
    FigurePreset("fig9", "Leo-Nadia contangle surface over (a, s) with the a*(s) death line",
                 ["a", "s", "tau_ln", "tau_ln_normalized", "a_star"], _fig9_rows, _SURFACE_PLOT),
    FigurePreset("fig10", "classical-correlation deficit surface over (a, s)",
                 ["a", "s", "deficit"], _fig9_rows, _SURFACE_PLOT),
)}


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
    with _Output(path) as fh:
        _write_table(fh, meta, preset.columns, [columns], "csv")
    written = [path]
    if args.plot_script:
        script_path = os.path.join(args.out_dir, f"{preset.preset_id}.gp")
        with _Output(script_path) as fh:
            fh.write(f"# gnuplot commands for {preset.preset_id}; data: {data_name}\n")
            fh.write(preset.plot.replace("{data}", data_name))
        written.append(script_path)
    print("\n".join(written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _cmd_selftest(args) -> int:
    suites = st.run(tol=args.tol, quick=args.quick)
    for suite in suites:
        print(suite.line())
    failed = [suite for suite in suites if not suite.passed]
    if not failed:
        print(f"selftest: all {len(suites)} suites passed")
        return EXIT_OK
    # the failing suite furthest past its tolerance, the first on a tie; past a tolerance of 0 is infinitely far
    worst = max(failed, key=lambda suite: suite.worst / suite.tol if suite.tol > 0 else math.inf)
    print(f"selftest: FAILED; worst offender {worst.name} at {worst.worst_at} "
          f"(deviation {worst.worst:.3e} > tol {worst.tol:.1e})")
    return EXIT_SELFTEST


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

GLOBAL_FLAGS = ("format", "out", "tol", "threads", "quick")

# the global flags each verb reads, with the only values it takes where it takes only some;
# main refuses any other global flag before any output opens, and --threads is a no-op everywhere
VERB_FLAGS: dict[str, dict[str, Optional[tuple]]] = {
    "point": {"format": None, "out": None, "tol": None, "threads": None},
    "sweep": {"format": None, "out": None, "tol": None, "threads": None},
    "figure": {"format": ("csv",), "threads": None},
    "selftest": {"tol": None, "quick": None, "threads": None},
}


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS,
                        help="output format for data payloads")
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output file (default stdout)")
    parser.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="invariant tolerance of point and sweep, selftest bound (default 1e-9)")
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
    parser.set_defaults(**dict.fromkeys(GLOBAL_FLAGS))  # None: not given
    sub = parser.add_subparsers(dest="verb", required=True)

    p_point = sub.add_parser("point", help="full report at one parameter point")
    _common_flags(p_point)
    p_point.add_argument("scenario", choices=tuple(SCENARIOS))
    for name in POINT_FLAGS:
        p_point.add_argument(f"--{name}", type=float)
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="tabulate report quantities over a parameter grid")
    _common_flags(p_sweep)
    p_sweep.add_argument("--scenario", choices=tuple(SCENARIOS))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for the life of the process.

    ``parse_args`` reads each call's defaults into a fresh namespace, so one
    call leaves nothing behind for the next.  ``build_parser`` itself stays
    uncached: each of its callers gets a parser of its own.
    """
    return build_parser()


def _args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The parsed argv, its global flags checked against VERB_FLAGS and their defaults filled in."""
    args = _parser().parse_args(argv)
    reads = VERB_FLAGS[args.verb]
    for flag in GLOBAL_FLAGS:
        value = getattr(args, flag)
        if value is None or flag in reads and (reads[flag] is None or value in reads[flag]):
            continue
        given = f"--{flag}" if value is True else f"--{flag} {value}"
        takes = ", ".join(f"--{name}" if values is None else f"--{name} {'|'.join(values)}"
                          for name, values in reads.items())
        raise ValueError(f"{args.verb} takes no {given}; it reads {takes}")
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    if args.tol is None:
        args.tol = ea.RESIDUAL_TOL
    args.quick = bool(args.quick)
    if args.format is None and args.verb == "sweep":
        args.format = "csv"
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _args(argv)
        rf._require_domain(tol=args.tol)
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
