"""The CLI keeps the bytes recorded in tests/golden: tables and figure files in writer.json, stdout and stderr in streams.json.

Where Python, numpy and numpy's dispatched CPU features are those of the
recording, every file's sha256 must match.  Elsewhere a kernel may round
differently, so each file's skeleton (its bytes with every number replaced)
must match and each sampled number must lie within a few ulps of the
recorded one.  Stderr must match as text everywhere.
"""

import importlib.util
import json
import math
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

with open(regen.GOLDEN, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)
with open(regen.STREAMS, encoding="utf-8") as _fh:
    STREAMS = json.load(_fh)
SAME_ENVIRONMENT = GOLDEN["environment"] == regen.environment()
STREAMS_SAME_ENVIRONMENT = STREAMS["environment"] == regen.environment()
ULPS = 4


def close(got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want) or want == 0.0:
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= ULPS * math.ulp(want)


def test_the_recording_covers_the_benchmark_tables():
    assert [run["argv"] for run in GOLDEN["runs"]] == regen.runs()
    assert GOLDEN["sample_every"] == regen.SAMPLE_EVERY


def test_the_recording_covers_the_terminal_runs():
    assert [run["argv"] for run in STREAMS["runs"]] == regen.stream_runs()
    assert STREAMS["sample_every"] == regen.SAMPLE_EVERY
    assert sorted({run["exit"] for run in STREAMS["runs"]}) == [0, 2, 3, 4, 5]
    for run in STREAMS["runs"]:
        assert run["stderr"].count("\n") == (run["exit"] in (2, 3, 4)), run["argv"]


def _assert_matches(got: dict, want: dict, same_environment: bool) -> None:
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"])
    for name, file in want["files"].items():
        if same_environment:
            assert got["files"][name] == file, name
            continue
        assert got["files"][name]["skeleton_sha256"] == file["skeleton_sha256"], name
        floats = got["files"][name]["floats"]
        assert len(floats) == len(file["floats"]), name
        for k, (g, w) in enumerate(zip(floats, file["floats"])):
            assert close(float.fromhex(g), float.fromhex(w)), (name, k * regen.SAMPLE_EVERY, g, w)


@pytest.mark.parametrize("want", GOLDEN["runs"], ids=[" ".join(run["argv"][:6]) for run in GOLDEN["runs"]])
def test_written_bytes_match_the_recording(want):
    _assert_matches(regen.record(want["argv"]), want, SAME_ENVIRONMENT)


@pytest.mark.parametrize("want", STREAMS["runs"], ids=[" ".join(run["argv"]) for run in STREAMS["runs"]])
def test_terminal_output_matches_the_recording(want):
    got = regen.record(want["argv"], streams=True)
    assert got["stderr"] == want["stderr"]
    _assert_matches(got, want, STREAMS_SAME_ENVIRONMENT)


def test_ulps_counts_the_floats_apart():
    assert regen.ulps(1.0, math.nextafter(1.0, 2.0)) == 1.0
    assert regen.ulps(-0.0, 0.0) == 0.0 and regen.ulps(-5e-324, 5e-324) == 2.0
    assert regen.ulps(math.nan, math.nan) == 0.0 and regen.ulps(math.nan, 1.0) == math.inf


def test_diff_reports_moved_numbers_and_writes_nothing(tmp_path, capsys):
    argv = ["point", "single", "--s", "1", "--r", "0.5"]
    run = regen.record(argv, streams=True)
    sampled = run["files"]["<stdout>"]["floats"]
    sampled[0] = math.nextafter(math.nextafter(float.fromhex(sampled[0]), 0.0), 0.0).hex()
    path = tmp_path / "streams.json"
    path.write_text(json.dumps({"runs": [run]}))
    before = path.read_bytes()
    regen._diff(str(path), [argv, ["selftest", "--tol", "0"]], streams=True)
    assert path.read_bytes() == before
    assert capsys.readouterr().out.splitlines() == [
        "streams.json point single --s 1 --r 0.5 <stdout>: skeleton same, 1 of 1 sampled numbers moved, "
        "at most 2 ulp; bytes changed",
        "streams.json selftest --tol 0: not recorded"]
