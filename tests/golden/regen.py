"""Record the bytes the CLI writes, to pin them in tests/test_golden.py.

Regenerate ``writer.json`` and ``streams.json`` from the root of a checkout,
and only where a change to the output bytes is intended and announced:

    PYTHONPATH=src python tests/golden/regen.py

To see first what a regeneration would change, without writing anything:

    PYTHONPATH=src python tests/golden/regen.py --diff

which prints, per recorded output, whether its skeleton digest changed, how
many of its sampled numbers moved and by at most how many ulps, then one
summary line, "k of N outputs changed".  It exits 1 when any output's bytes,
or any run's exit code or stderr, differ from the recording, and 0 otherwise.

Each run is an argv of ``cli.main`` run in an empty directory: the five
sweeps of the benchmark's ``grid`` workload (four CSV, one JSON lines) at
fixed parameters, and every figure preset with its plot script.  For each
file written the record keeps its sha256, the sha256 of its skeleton (the
bytes with every number token, inf and nan replaced by a placeholder) and
every SAMPLE_EVERY-th token as ``float.hex``.  The environment the digests
were taken in is recorded with them: the exact digests only hold where
Python, numpy and the CPU features numpy dispatches on are the same.

``streams.json`` holds the runs that write to the terminal: ``selftest``
and ``selftest --quick``, a seeded stream of ``point`` calls in every
scenario form and output format, and the documented failing argvs, one per
nonzero exit code.  Their stdout is described as the file ``<stdout>``; their
stderr, at most one line, is kept as text.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import struct
import sys
import tempfile

import numpy as np

from rindlercv import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "writer.json")
STREAMS = os.path.join(HERE, "streams.json")
SAMPLE_EVERY = 97

# a number as _fmt and JSON write it, or inf/nan, standing alone: not part of a name such as s0.25 or fig2
TOKEN = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)(?![\w.])")
PLACEHOLDER = "\x00"

_AXIS = ("s", 0.0, 3.0, 16), ("r", 0.0, 3.0, 16)
_FREQ = 5.0 / 16
# the benchmark's grid sweeps: (scenario, axes, fixed, format)
SWEEPS = [
    ("single", _AXIS, {}, "csv"),
    ("single", _AXIS[::-1], {}, "json"),
    ("double", (_AXIS[0], ("a", 0.0, 3.0, 16)), {}, "csv"),
    ("double", (_AXIS[0], ("l", 0.0, 3.0, 16)), {"n": 1.234}, "csv"),
    ("frequency", (("lam", _FREQ, 5.0, 16), ("nu", _FREQ, 5.0, 16)), {"accel": 12.566, "s": 1.5}, "csv"),
]


def runs() -> list[list[str]]:
    """Every recorded argv; each writes its files into the working directory."""
    argvs = []
    for k, (scenario, axes, fixed, fmt) in enumerate(SWEEPS):
        argv = ["--format", fmt, "--out", f"sweep{k}.{fmt}", "sweep", "--scenario", scenario]
        for name, lo, hi, steps in axes:
            argv += ["--sweep", f"{name}={lo!r}:{hi!r}:{steps}"]
        for name, value in fixed.items():
            argv += ["--fix", f"{name}={value!r}"]
        argvs.append(argv)
    return argvs + [["figure", preset, "--out-dir", ".", "--plot-script"] for preset in cli.FIGURE_PRESETS]


POINT_SEED = 2007
POINT_DRAWS = 2
# each point form: scenario and the (flag, low, high) its parameters are drawn from
POINT_FORMS = [
    ("single", (("s", 0.0, 3.0), ("r", 0.0, 3.0))),
    ("single", (("s", 0.0, 3.0), ("accel", 0.5, 5.0), ("freq", 0.1, 2.0))),
    ("double", (("s", 0.0, 3.0), ("a", 0.0, 3.0))),
    ("double", (("s", 0.0, 3.0), ("l", 0.0, 3.0), ("n", 0.0, 3.0))),
    ("frequency", (("lam", 0.3, 5.0), ("nu", 0.3, 5.0), ("accel", 1.0, 13.0), ("s", 0.0, 3.0))),
]
# one argv per nonzero exit code: usage, inconsistency, i/o, selftest failure
FAILING = [
    ["point", "single", "--s", "1", "--r", "0.5", "--quick"],
    ["point", "single", "--s", "400", "--r", "0.5"],
    ["--out", "no_such_dir/x.csv", "point", "single", "--s", "1", "--r", "0.5"],
    ["selftest", "--tol", "0"],
]


def stream_runs() -> list[list[str]]:
    """Every argv recorded in streams.json; the point parameters are drawn from random.Random(POINT_SEED)."""
    rng = random.Random(POINT_SEED)
    points = []
    for scenario, params in POINT_FORMS:
        for fmt in ("text", "csv", "json"):
            for _ in range(POINT_DRAWS):
                argv = [] if fmt == "text" else ["--format", fmt]
                argv += ["point", scenario]
                for name, lo, hi in params:
                    argv += [f"--{name}", repr(round(rng.uniform(lo, hi), 6))]
                points.append(argv)
    return [["selftest"], ["selftest", "--quick"]] + points + FAILING


def environment() -> dict:
    """Python, numpy and the CPU features numpy dispatches its kernels on here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = sorted(name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name))
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu_features": features}


def describe(data: bytes) -> dict:
    """A file's digest, its skeleton's digest and its sampled number tokens."""
    tokens = []

    def hold(match):
        tokens.append(match.group())
        return PLACEHOLDER
    skeleton = TOKEN.sub(hold, data.decode("utf-8"))
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "skeleton_sha256": hashlib.sha256(skeleton.encode("utf-8")).hexdigest(),
            "floats": [float(token).hex() for token in tokens[::SAMPLE_EVERY]]}


def record(argv: list[str], streams: bool = False) -> dict:
    """Run ``argv`` in an empty directory: its exit code and a description of each file it wrote.

    With ``streams`` the record also describes stdout as the file ``<stdout>`` and keeps stderr as text.
    """
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as where:
        os.chdir(where)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            files = {}
            for name in sorted(os.listdir(where)):
                with open(name, "rb") as fh:
                    files[name] = describe(fh.read())
        finally:
            os.chdir(here)
    if not streams:
        return {"argv": argv, "exit": code, "files": files}
    files["<stdout>"] = describe(out.getvalue().encode("utf-8"))
    return {"argv": argv, "exit": code, "files": files, "stderr": err.getvalue()}


def _write(path: str, argvs: list[list[str]], streams: bool) -> None:
    golden = {"environment": environment(), "sample_every": SAMPLE_EVERY,
              "runs": [record(argv, streams) for argv in argvs]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden['runs'])} runs to {path}")


def _ordinal(x: float) -> int:
    """x's place among the floats: consecutive floats differ by 1, and -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(a: float, b: float) -> float:
    """How many floats apart a and b are: 0 if equal (NaN with NaN too), inf if just one is NaN."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return float(abs(_ordinal(a) - _ordinal(b)))


def _diff(path: str, argvs: list[list[str]], streams: bool) -> tuple[int, int]:
    """Print, per output of each argv, how a fresh recording differs from the one in path.

    Returns (changed, outputs).  An output counts as changed when its bytes differ, when it is new or
    gone, or when its run's exit code or stderr differ; an argv with no recording counts as one.
    """
    with open(path, encoding="utf-8") as fh:
        recorded = {json.dumps(run["argv"]): run for run in json.load(fh)["runs"]}
    changed = outputs = 0
    for argv in argvs:
        label = f"{os.path.basename(path)} {' '.join(argv)}"
        want = recorded.get(json.dumps(argv))
        if want is None:
            print(f"{label}: not recorded")
            changed, outputs = changed + 1, outputs + 1
            continue
        got = record(argv, streams)
        run_moved = got["exit"] != want["exit"] or got.get("stderr") != want.get("stderr")
        if run_moved:
            print(f"{label}: exit {want['exit']} -> {got['exit']}, "
                  f"stderr {want.get('stderr')!r} -> {got.get('stderr')!r}")
        for name in sorted(set(got["files"]) | set(want["files"])):
            outputs += 1
            new, old = got["files"].get(name), want["files"].get(name)
            if new is None or old is None:
                print(f"{label} {name}: {'gone' if new is None else 'new'}")
                changed += 1
                continue
            changed += run_moved or new != old
            skeleton = "changed" if new["skeleton_sha256"] != old["skeleton_sha256"] else "same"
            pairs = [(float.fromhex(g), float.fromhex(w)) for g, w in zip(new["floats"], old["floats"])]
            distances = [d for d in (ulps(g, w) for g, w in pairs) if d]
            counts = "" if len(new["floats"]) == len(old["floats"]) else f" (was {len(old['floats'])})"
            print(f"{label} {name}: skeleton {skeleton}, {len(distances)} of {len(pairs)}{counts} sampled numbers "
                  f"moved, at most {max(distances, default=0.0):g} ulp; bytes {'same' if new == old else 'changed'}")
    return changed, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record the CLI's output bytes in writer.json and streams.json.")
    parser.add_argument("--diff", action="store_true",
                        help="compare a fresh recording with the committed one and write nothing")
    args = parser.parse_args(argv)
    jobs = ((GOLDEN, runs(), False), (STREAMS, stream_runs(), True))
    if not args.diff:
        for job in jobs:
            _write(*job)
        return 0
    changed, outputs = map(sum, zip(*(_diff(*job) for job in jobs)))
    print(f"{changed} of {outputs} outputs changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
