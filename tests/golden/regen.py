"""Record the bytes the CLI writes for the benchmark's tables, to pin them in tests/test_golden.py.

Regenerate ``writer.json`` from the root of a checkout, and only where a
change to the output bytes is intended and announced:

    PYTHONPATH=src python tests/golden/regen.py

Each run is an argv of ``cli.main`` run in an empty directory: the five
sweeps of the benchmark's ``grid`` workload (four CSV, one JSON lines) at
fixed parameters, and every figure preset with its plot script.  For each
file written the record keeps its sha256, the sha256 of its skeleton (the
bytes with every number token, inf and nan replaced by a placeholder) and
every SAMPLE_EVERY-th token as ``float.hex``.  The environment the digests
were taken in is recorded with them: the exact digests only hold where
Python, numpy and the CPU features numpy dispatches on are the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile

import numpy as np

from rindlercv import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "writer.json")
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


def record(argv: list[str]) -> dict:
    """Run ``argv`` in an empty directory: its exit code and a description of each file it wrote."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as where:
        os.chdir(where)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            files = {}
            for name in sorted(os.listdir(where)):
                with open(name, "rb") as fh:
                    files[name] = describe(fh.read())
        finally:
            os.chdir(here)
    return {"argv": argv, "exit": code, "files": files}


def main() -> int:
    golden = {"environment": environment(), "sample_every": SAMPLE_EVERY,
              "runs": [record(argv) for argv in runs()]}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden['runs'])} runs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
