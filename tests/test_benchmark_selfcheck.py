"""The benchmark harness still runs against the package: its tiny self-check passes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck():
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--selfcheck"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "selfcheck: ok" in done.stdout
