import contextlib
import decimal
import errno
import importlib
import io
import json
import math
import os
import random
import re
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rindlercv import cli
from rindlercv import entanglement_analysis as ea
from rindlercv import selftest
from rindlercv.cli import (EXIT_INCONSISTENT, EXIT_IO, EXIT_SELFTEST, EXIT_USAGE, FIGURE_PRESETS, SWEEP_CHUNK,
                           SweepAxis, _dump_json, _fmt, _FMT17_BLOCK, _jsonable, _write_table, main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv, timeout):
    """``python -m rindlercv`` with the source tree on PYTHONPATH, in a subprocess killed after timeout seconds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rindlercv", *argv], capture_output=True, env=env, timeout=timeout)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestPoint:
    def test_single_inertial_point(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "point", "single", "--s", "1", "--r", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "single"
        assert payload["report"]["tau_ar"] == pytest.approx(4.0)
        assert payload["report"]["residual_tripartite"] == 0.0

    def test_double_flagship_point(self, capsys):
        code, out, _ = run_cli(capsys, "point", "double", "--s", "2", "--a", "7", "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["residual_multipartite"] == pytest.approx(81.2, abs=0.05)
        assert rep["tau_l_lbar"] == 196.0

    def test_tau_max_reported_alongside(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "point", "single", "--s", "2", "--r", "0.5")
        rep = json.loads(out)["report"]
        assert rep["tau_max_ar"] == pytest.approx(7.9167, abs=1e-3)
        assert code == 0

    def test_python_dash_m_runs_the_cli(self, capsys):
        """``python -m rindlercv`` with the source tree on PYTHONPATH prints what cli.main prints."""
        argv = ["point", "single", "--s", "1", "--r", "0.5"]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        done = run_module(argv, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected.encode()

    @pytest.mark.parametrize("argv", ["point double --s 5e-324 --a 1", "point double --s 1e-320 --l 0.1 --n 0.2",
                                      "sweep --scenario double --sweep s=0:1e-320:3 --fix a=1"])
    def test_subnormal_squeezing_ends_in_a_report(self, argv):
        """Every double report evaluates a*(s), whose search stepped one ulp at a time and ran without end where
        tanh s is subnormal."""
        done = run_module(argv.split(), timeout=30)
        assert done.returncode == 0, done.stderr

    def test_human_output_contains_json_line(self, capsys):
        code, out, _ = run_cli(capsys, "point", "single", "--s", "1", "--r", "1")
        assert code == 0
        assert "scenario: single" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["report"]["s"] == 1.0

    def test_physical_acceleration_input(self, capsys):
        accel = 2 * math.pi / math.log(2.0)
        code, out, _ = run_cli(capsys, "--format", "json", "point", "single",
                               "--s", "1", "--accel", str(accel), "--freq", "1")
        rep = json.loads(out)["report"]
        assert code == 0
        assert rep["unruh_temperature"] == pytest.approx(accel / (2 * math.pi))

    def test_frequency_point(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "point", "frequency",
                               "--lam", "1.0", "--nu", "1.0", "--accel", str(2 * math.pi))
        rep = json.loads(out)["report"]
        assert code == 0
        assert rep["separable"] is False
        assert rep["tau_ln_infinite"] > 0

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "point", "single", "--s", "1")
        assert code == EXIT_USAGE
        assert "needs" in err

    def test_conflicting_parameters_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "point", "double", "--s", "1", "--a", "1", "--l", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", ["point double --s 1 --a 0.5 --r 2",
                                      "point single --s 1 --r 0.5 --accel 3",
                                      "point single --s 1 --r 1 --freq 1"])
    def test_parameter_of_another_scenario_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == "" and len(err.strip().splitlines()) == 1
        assert repr(argv.split()[-2].lstrip("-")) in err

    def test_negative_parameter_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "point", "single", "--s", "-1", "--r", "0")
        assert code == EXIT_USAGE

    def test_json_round_trip_idempotent(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "point", "double", "--s", "1", "--a", "0.5")
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, separators=(", ", ": ")) == out.strip()

    def test_internal_inconsistency_exit_3(self, capsys, monkeypatch):
        original = ea._one_vs_rest_m_double  # at l = 0 its Leo probe is the single report's Alice
        monkeypatch.setattr(ea, "_one_vs_rest_m_double", lambda s, l, n: (original(s, l, n)[0], 0.5,
                                                                          *original(s, l, n)[2:]))
        code, _, err = run_cli(capsys, "point", "single", "--s", "1", "--r", "1")
        assert code == EXIT_INCONSISTENT
        assert "inconsistency" in err

    @pytest.mark.parametrize("point,sweep", [
        ("point double --s 0 --a 1.55 --tol 0",
         "sweep --scenario double --sweep a=1.5:1.6:3 --fix s=0 --tol 0"),
        ("point single --s 0 --r 1.55 --tol 0",
         "sweep --scenario single --sweep r=1.5:1.6:3 --fix s=0 --tol 0"),
        ("point single --s 13.9 --r 0 --tol 1e-14",
         "sweep --scenario single --sweep r=0:1:2 --fix s=13.9 --tol 1e-14"),
        ("point double --s 0 --a 1.55", "sweep --scenario double --sweep a=1.5:1.6:3 --fix s=0"),
    ])
    def test_tolerance_means_the_same_for_point_and_sweep(self, capsys, point, sweep):
        """point and sweep run one check at --tol: the same row gets the same verdict and message."""
        point_code, _, point_err = run_cli(capsys, *point.split())
        sweep_code, _, sweep_err = run_cli(capsys, *sweep.split())
        assert point_code == sweep_code and point_err == sweep_err
        if point_code:
            assert point_code == EXIT_INCONSISTENT and len(point_err.strip().splitlines()) == 1
            assert "residual" in point_err and "at s=0.0, " in point_err


class TestInputDomain:
    """Non-finite inputs are usage errors; the Leo-Nadia forms hold near l = n = 0."""

    @pytest.mark.parametrize("argv", [
        "point single --s nan --r 0.5",
        "point single --s inf --r 0.5",
        "point single --s 1 --r nan",
        "point double --s 1 --a nan",
        "point frequency --lam nan --nu 1 --accel 1",
        "point frequency --lam 1 --nu 1 --accel inf",
        "point single --s 1 --accel nan --freq 1",
        "sweep --scenario single --sweep s=0:nan:3 --fix r=1",
        "sweep --scenario single --sweep s=0:1:3 --fix r=inf",
        "sweep --scenario double --sweep a=0:nan:3 --fix s=1",
        "point single --s 1 --r 0.5 --tol nan",
        "sweep --scenario single --sweep s=0:1:3 --fix r=1 --tol inf",
    ])
    def test_non_finite_input_exit_2(self, capsys, argv):
        """The message names the parameter as given: a, not the l and n it stands for."""
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "finite" in err and ("nan" in err or "inf" in err)
        given = re.search(r"(\w+)[ =][\d.:]*(nan|inf)", argv).group(1)  # the name given the bad value
        assert err.startswith(f"error: {given} must be finite")

    def test_unruh_map_underflow_exit_2(self, capsys):
        """freq / accel underflowing to 0 gives r = inf: a usage error naming accel, no warning."""
        code, out, err = run_cli(capsys, "point", "single", "--s", "1", "--accel", "1e300", "--freq", "1e-300")
        assert code == EXIT_USAGE
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "Warning" not in err and "--accel" in err and "--freq" in err

    def test_unruh_map_overflow_is_zero_squeezing(self, capsys):
        """freq / accel overflowing gives r = 0, the limit, without a numpy warning."""
        code, out, err = run_cli(capsys, "--format", "json", "point", "single",
                                 "--s", "1", "--accel", "1e-300", "--freq", "1e300")
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["r"] == 0.0

    def test_frequency_squeezing_underflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "point", "frequency", "--lam", "1e-300", "--nu", "354", "--accel", "1e300")
        assert code == EXIT_USAGE
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error: lam or nu / accel") and "lam=1e-300" in err and "accel=1e+300" in err

    @pytest.mark.parametrize("argv", ["--lam 1 --nu 1 --accel 0.01", "--lam 1 --nu 1 --accel 1e-300",
                                      "--lam 200 --nu 354 --accel 0.5"])
    def test_frequency_condition_overflow_is_minus_inf(self, capsys, argv):
        code, out, err = run_cli(capsys, "--format", "json", "point", "frequency", *argv.split())
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert report["condition_value"] == "-inf" and report["separable"] is False

    @pytest.mark.parametrize("argv", ["point frequency --lam 12.5875 --nu 1.325 --accel 0.01",
                                      "sweep --scenario frequency --sweep lam=12:13:3 --fix nu=1.325 --fix accel=0.01"])
    def test_overflowing_m_ln_infinite_is_inf(self, capsys, argv):
        """l = 0 and n = 1.66e-181: m_ln_infinite ~ 2/n^2 overflows, like the l = n = 0 limit."""
        code, out, err = run_cli(capsys, "--format", "json", *argv.split())
        assert code == 0 and err == ""
        rows = output_rows(["--format", "json", *argv.split()], out)
        assert len(rows) == (1 if argv.startswith("point") else 3)
        for row in rows:
            assert row["l"] == 0.0 and 0.0 < row["n"] < 1e-154
            assert row["m_ln_infinite"] == row["tau_ln_infinite"] == "inf"

    @pytest.mark.parametrize("argv", ["--s 200 --l 0.5 --n 0.6", "--s 300 --l 0 --n 1e-6", "--s 349 --a 4",
                                      "--s 351.5 --a 4"])
    def test_unequal_accelerations_far_past_s_20(self, capsys, argv):
        """The Leo-Nadia mutual information no longer overflows past s ~ 178 where l != n."""
        code, out, err = run_cli(capsys, "--format", "json", "point", "double", *argv.split())
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))

    def test_separability_margin_keeps_its_digits(self, capsys):
        """lam or nu tiny: the margin is -w min(lam, nu) + e^{-w max(lam, nu)}, not 0 - so not separable."""
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "frequency", "--sweep", "lam=1e-300:1e300:2",
                               "--sweep", "nu=1e300:1e-300:3", "--fix", "accel=20")
        assert code == 0
        rows = {(row["lam"], row["nu"]): row for row in parse_csv(out)[1]}
        for point in (("1e-300", "1.0000000000000001e+300"), ("1e-300", "5.0000000000000003e+299"),
                      ("1.0000000000000001e+300", "1e-300")):
            assert rows[point]["separable"] == "false"
            assert float(rows[point]["separability_margin"]) == pytest.approx(-math.pi * 1e-301, rel=1e-15)

    @pytest.mark.parametrize("target,argv,field", [
        ("_tau_max_ar", "point single --s 1 --r 1", "tau_max_ar"),
        ("_tau_max_ar", "sweep --scenario single --sweep r=0.5:1:3 --fix s=1", "tau_max_ar"),
        ("frequency_condition", "point frequency --lam 1 --nu 2 --accel 3", "condition_value"),
        ("frequency_condition", "sweep --scenario frequency --sweep lam=1:2:3 --fix nu=2 --fix accel=3",
         "condition_value"),
        ("_m_ln_infinite_squeezing", "point frequency --lam 1 --nu 2 --accel 3", "m_ln_infinite"),
        ("_m_ln_infinite_squeezing", "sweep --scenario frequency --sweep lam=1:2:3 --fix nu=2 --fix accel=3",
         "m_ln_infinite"),
    ])
    def test_nan_in_a_field_that_may_diverge_exit_3(self, capsys, monkeypatch, target, argv, field):
        """A field that may diverge may be +-inf, never NaN."""
        original = getattr(ea, target)
        if target in ("_tau_max_ar", "_m_ln_infinite_squeezing"):
            monkeypatch.setattr(ea, target, lambda *args: args[0] * math.nan)
        else:
            monkeypatch.setattr(ea, target, lambda *args: (args[0] * math.nan, *original(*args)[1:]))
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_INCONSISTENT and out == ""
        assert err.startswith(f"internal inconsistency: {field} = nan at ")

    def test_r_eff_undefined_at_zero_squeezing(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "point", "double", "--s", "0", "--a", "0.5")
        assert code == 0 and json.loads(out)["report"]["r_eff"] == "nan"

    def test_near_zero_unequal_accelerations_point(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "point", "double",
                               "--s", "3.75", "--l", "0", "--n", "1e-12")
        assert code == 0
        assert json.loads(out)["report"]["mutual_info_ln"] > 0

    def test_near_zero_unequal_accelerations_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "double", "--sweep", "s=0:20:41",
                               "--fix", "l=0", "--fix", "n=1e-6")
        assert code == 0
        assert len(parse_csv(out)[1]) == 41


FUZZ_VALUES = ("0", "1e-300", "1e-12", "0.5", "3", "20", "200", "354", "400", "1e300", "inf", "nan", "-1")
FUZZ_POINTS = ("single s r", "single s accel freq", "double s a", "double s l n",
               "frequency lam nu accel", "frequency lam nu accel s")
FUZZ_SWEEPS = ("single s r", "double s a", "double l n s", "frequency lam nu accel", "frequency lam nu accel s")


@st.composite
def fuzz_argv(draw):
    """A point form (scenario, then its flags), or a sweep form (scenario, two swept names, then the fixed)."""
    value = st.sampled_from(FUZZ_VALUES)
    argv = draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))
    if draw(st.booleans()):
        scenario, *names = draw(st.sampled_from(FUZZ_POINTS)).split()
        return argv + ["point", scenario] + [arg for name in names for arg in (f"--{name}", draw(value))]
    scenario, *names = draw(st.sampled_from(FUZZ_SWEEPS)).split()
    swept, fixed = names[:2], names[2:]
    argv += ["sweep", "--scenario", scenario]
    for name in swept:
        argv += ["--sweep", f"{name}={draw(value)}:{draw(value)}:{draw(st.integers(2, 3))}"]
    for name in fixed:
        argv += ["--fix", f"{name}={draw(value)}"]
    return argv


def output_rows(argv, out):
    """The report rows of a successful point or sweep call, as field -> CSV token or JSON value."""
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    if "csv" in argv or ("sweep" in argv and "json" not in argv):
        header, *rows = (ln.split(",") for ln in lines)
        return [dict(zip(header, row)) for row in rows]
    if "point" in argv:
        return [json.loads(lines[-1])["report"]]
    return [json.loads(ln) for ln in lines]


class TestArgvFuzz:
    """Every point and sweep input ends in a report or a documented exit code with one line."""

    @settings(max_examples=200, deadline=None)
    @given(argv=fuzz_argv())
    @example(argv="point single --s 1 --accel 1e-300 --freq 1e300".split())  # Unruh map overflow
    @example(argv="sweep --scenario single --sweep s=inf:0:2 --sweep r=0:inf:2".split())  # infinite axis bound
    # 1e-300 / 20 leaves a zero separability margin at an overflowing condition factor
    @example(argv="sweep --scenario frequency --sweep lam=1e-300:1e300:2 --sweep nu=1e300:1e-300:3 "
                  "--fix accel=20".split())
    # overflowed probes at s = 354: the check's one line
    @example(argv="sweep --scenario double --sweep l=20:1e-12:2 --sweep n=1e-12:3:3 --fix s=354".split())
    # l = 0, n = 1.66e-181: m_ln_infinite overflows to inf, as at l = n = 0
    @example(argv="point frequency --lam 12.5875 --nu 1.325 --accel 0.01".split())
    @example(argv="sweep --scenario frequency --sweep lam=12:13:3 --fix nu=1.325 --fix accel=0.01".split())
    def test_every_input_ends_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        assert code in (0, EXIT_USAGE, EXIT_INCONSISTENT), argv
        if code:
            assert len(err.getvalue().splitlines()) == 1, argv
            return
        assert err.getvalue() == "", argv
        for row in output_rows(argv, out.getvalue()):
            for name, value in row.items():
                if value == "nan":  # only r_eff at s = 0 may be undefined
                    assert name == "r_eff" and float(row["s"]) == 0.0, (argv, name)


class TestParserReuse:
    """main builds its parser once per process, and reusing it carries nothing from call to call."""

    SEQUENCE = [
        "--format json point double --s 1 --l 0.4 --n 1.7",
        "point double --s 1 --l 0.4 --n 1.7",
        "sweep --scenario frequency --sweep lam=0.5:2:3 --sweep nu=0.5:2:4 --fix accel=6.3 --fix s=1",
        "sweep --scenario frequency --sweep lam=0.5:2:3 --sweep nu=0.5:2:4 --fix accel=6.3 --fix s=1",
        "point single --s x",
        "point single --s 1 --r 0.5",
        "point double --s 1 --a 0.5 --r 2",
        "--version",
    ]

    @staticmethod
    def outcomes(capsys, sequence):
        results = []
        for line in sequence:
            try:
                code = main(line.split())
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        reused = self.outcomes(capsys, self.SEQUENCE)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(capsys, self.SEQUENCE)
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, EXIT_USAGE, 0, EXIT_USAGE, 0]
        for line, got, want in zip(self.SEQUENCE, reused, fresh):
            assert got == want, line

    def test_parser_built_at_most_once(self, capsys, monkeypatch):
        builds = []
        build_parser = cli.build_parser

        def counting_build_parser():
            builds.append(1)
            return build_parser()
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for argv in ("point single --s 1 --r 0.5", "--format json point double --s 1 --a 0.5",
                     "sweep --scenario single --sweep s=0:1:3 --fix r=1",
                     "sweep --scenario double --sweep s=0:1:3 --fix a=1", "selftest --quick",
                     "point frequency --lam 1 --nu 1 --accel 6.3"):
            assert run_cli(capsys, *argv.split())[0] == 0
        assert len(builds) <= 1

    @pytest.mark.parametrize("verb, usage", [
        ("point", "[--s S] [--r R] [--l L] [--n N] [--a A] [--lam LAM] [--nu NU] [--accel ACCEL] [--freq FREQ] "
                  "{single,double,frequency}"),
        ("sweep", "[--scenario {single,double,frequency}]"),
    ])
    def test_scenario_names_and_point_flags_in_usage(self, capsys, verb, usage):
        """The scenario choices and the point flags, derived from SCENARIOS, keep their order."""
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        assert usage in " ".join(capsys.readouterr().out.split())


class TestVerbFlags:
    """Each verb takes the global flags VERB_FLAGS names for it and exits 2 on any other, before any output."""

    @pytest.mark.parametrize("argv,flag", [
        ("point single --s 1 --r 0.5 --quick", "--quick"),
        ("sweep --scenario single --sweep s=0:1:3 --fix r=1 --quick", "--quick"),
        ("--tol 1e-3 figure fig2 --out-dir d", "--tol"),
    ], ids=["point", "sweep", "figure"])
    def test_a_flag_the_verb_does_not_read_exit_2(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_USAGE and out == ""
        assert len(err.strip().splitlines()) == 1 and flag in err
        assert list(tmp_path.iterdir()) == []

    VERBS = {"point": ["point", "single", "--s", "1", "--r", "0.5"],
             "sweep": ["sweep", "--scenario", "single", "--sweep", "s=0:1:3", "--fix", "r=1"],
             "figure": ["figure", "fig2"], "selftest": ["selftest"]}
    FLAGS = {"--format csv": ["--format", "csv"], "--format json": ["--format", "json"], "--out": ["--out", "t"],
             "--tol": ["--tol", "1e-3"], "--threads": ["--threads", "2"], "--quick": ["--quick"]}
    READS = {"point": {"--format csv", "--format json", "--out", "--tol", "--threads"},
             "sweep": {"--format csv", "--format json", "--out", "--tol", "--threads"},
             "figure": {"--format csv", "--threads"},
             "selftest": {"--tol", "--threads", "--quick"}}

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("before", [True, False], ids=["before-verb", "after-verb"])
    def test_every_verb_and_global_flag(self, verb, flag, before):
        argv = self.FLAGS[flag] + self.VERBS[verb] if before else self.VERBS[verb] + self.FLAGS[flag]
        if flag in self.READS[verb]:
            assert cli._args(argv).verb == verb
        else:
            with pytest.raises(ValueError, match=f"^{verb} takes no {flag.split()[0]}"):
                cli._args(argv)

    def test_defaults_are_filled_in_once_checked(self):
        args = cli._args(["sweep", "--scenario", "single"])
        assert (args.format, args.out, args.tol, args.threads, args.quick) == ("csv", None, 1e-9, None, False)
        assert cli._args(["--quick", "selftest"]).quick is True


class TestSweep:
    def test_single_axis_row_count_and_monotonicity(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "single",
                               "--sweep", "r=0:3:13", "--fix", "s=1",
                               "--quantities", "tau_ar,residual_tripartite")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "tau_ar", "residual_tripartite"]
        assert len(rows) == 13
        taus = [float(row["tau_ar"]) for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))

    def test_two_axis_cardinality_and_order(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "double",
                               "--sweep", "s=0.5:2:4", "--sweep", "a=0:3:5",
                               "--quantities", "residual_multipartite")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20
        # outer axis major: the first five rows share s
        assert len({row["s"] for row in rows[:5]}) == 1
        assert len({row["a"] for row in rows[:5]}) == 5

    def test_frequency_sweep_flips_at_log_two(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "frequency",
                               "--sweep", "lam=0.6:0.8:41", "--fix", f"nu={math.log(2.0)}",
                               "--fix", f"accel={2 * math.pi}",
                               "--quantities", "separable,separability_margin")
        assert code == 0
        _, rows = parse_csv(out)
        flips = [(float(r["lam"]), r["separable"]) for r in rows]
        below = [f for f in flips if f[0] < math.log(2.0) - 1e-9]
        above = [f for f in flips if f[0] > math.log(2.0) + 1e-9]
        assert all(f[1] == "true" for f in below)
        assert all(f[1] == "false" for f in above)

    def test_deterministic_bytes(self, capsys, tmp_path):
        args = ["sweep", "--scenario", "single", "--sweep", "r=0:2:7", "--fix", "s=0.8"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "sweep", "--scenario", "single",
                               "--sweep", "r=0:1:3", "--fix", "s=1",
                               "--quantities", "tau_ar")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 3
        for line in lines:
            parsed = json.loads(line)
            assert json.dumps(parsed, sort_keys=True, separators=(", ", ": ")) == line

    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "single",
                               "--sweep", "r=0:3:3", "--fix", "s=1", "--quantities", "m_ar")
        _, rows = parse_csv(out)
        value = rows[1]["m_ar"]
        assert float(value) == pytest.approx(1.2341737789980164, rel=1e-12)  # mpmath oracle at (s=1, r=1.5)
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra, message", [
        (("--quantities", "r"), "column 'r' requested twice"),
        (("--quantities", "tau_ar,tau_ar"), "column 'tau_ar' requested twice"),
        (("--fix", "s=2"), "parameter 's' fixed twice"),
        (("--sweep", "r=0:1:2"), "axis 'r' swept twice"),
        (("--sweep", "s=0:1:2"), "a parameter cannot be both swept and fixed"),
    ], ids=["axis-as-quantity", "quantity-twice", "fix-twice", "sweep-twice", "swept-and-fixed"])
    def test_rejects_a_column_or_parameter_given_twice(self, capsys, tmp_path, fmt, extra, message):
        out = tmp_path / "table"
        code, stdout, err = run_cli(capsys, "--format", fmt, "sweep", "--scenario", "single",
                                    "--sweep", "r=0:1:2", "--fix", "s=1", *extra, "--out", str(out))
        assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("point single --s 1 --accel 2", "point single needs --accel together with --freq"),
        ("point double --s 1", "scenario 'double' needs --l and --n (or --a for l = n = a)"),
        ("sweep --scenario single --sweep r=0:1:2 --fix s", "bad --fix spec 's'; expected NAME=VALUE"),
        ("sweep --sweep r=0:1:2 --fix s=1", "sweep needs --scenario {single,double,frequency}"),
        ("sweep --scenario single --fix s=1", "sweep needs one or two --sweep axes"),
    ], ids=["accel-without-freq", "double-without-accelerations", "fix-without-value", "no-scenario", "no-axis"])
    def test_rejects_an_incomplete_command(self, capsys, tmp_path, argv, message):
        out = tmp_path / "table"
        code, stdout, err = run_cli(capsys, *argv.split(), "--out", str(out))
        assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {message}\n")
        assert not out.exists()

    def test_rejects_bad_axis_spec(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--scenario", "single", "--sweep", "r=0:3")
        assert code == EXIT_USAGE

    def test_rejects_single_step_axis(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--scenario", "single",
                             "--sweep", "r=0:3:1", "--fix", "s=1")
        assert code == EXIT_USAGE

    def test_rejects_missing_fix(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--scenario", "single", "--sweep", "r=0:3:5")
        assert code == EXIT_USAGE
        assert "--fix" in err

    def test_rejects_unknown_parameter(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--scenario", "single",
                             "--sweep", "a=0:3:5", "--fix", "s=1")
        assert code == EXIT_USAGE

    def test_rejects_unknown_quantity(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--scenario", "single",
                             "--sweep", "r=0:3:5", "--fix", "s=1", "--quantities", "bogus")
        assert code == EXIT_USAGE

    def test_unwritable_output_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "--out", "/nonexistent-dir/out.csv", "sweep",
                             "--scenario", "single", "--sweep", "r=0:1:3", "--fix", "s=1")
        assert code == EXIT_IO

    def test_threads_do_not_change_output(self, capsys, tmp_path):
        args = ["sweep", "--scenario", "double", "--sweep", "a=0:2:9", "--fix", "s=1.5"]
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert main(args + ["--threads", "1", "--out", str(p1)]) == 0
        assert main(args + ["--threads", "4", "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_threads_below_one_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--scenario", "single", "--sweep", "r=0:1:3",
                                 "--fix", "s=1", "--threads", "0")
        assert code == EXIT_USAGE
        assert out == "" and len(err.strip().splitlines()) == 1 and "--threads" in err

    def test_zero_acceleration_out_to_s20(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "double", "--sweep", "s=0:20:81",
                               "--fix", "l=0", "--fix", "n=0")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 81
        for row in rows:
            assert float(row["m_l_n"]) == pytest.approx(math.cosh(2 * float(row["s"])), rel=1e-12)

    def test_non_finite_cell_exit_3_names_point(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--scenario", "single", "--sweep", "s=0:400:5001",
                               "--fix", "r=0.5", "--out", str(path))
        assert code == EXIT_INCONSISTENT
        assert len(err.strip().splitlines()) == 1 and "r=0.5" in err and "s=" in err
        assert not path.exists()  # the chunk that failed came after the first was written
        path.write_bytes(b"an older, longer table\n" * 1000)  # rewritten in place, then removed
        assert run_cli(capsys, "sweep", "--scenario", "single", "--sweep", "s=0:400:5001",
                       "--fix", "r=0.5", "--out", str(path))[0] == EXIT_INCONSISTENT
        assert not path.exists()

    def test_failed_write_leaves_a_device_alone(self, capsys, monkeypatch):
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        code, _, err = run_cli(capsys, "sweep", "--scenario", "single", "--sweep", "s=0:400:5001",
                               "--fix", "r=0.5", "--out", os.devnull)
        assert code == EXIT_INCONSISTENT and err.startswith("internal inconsistency: ")
        assert removed == []

    @pytest.mark.parametrize("failing,old", [(failing, old) for failing in ("tell", "ftruncate", "close")
                                             for old in (None, b"an older, longer table\n" * 1000)
                                             if failing != "ftruncate" or old],  # a new file is never cut
                             ids=["tell-new", "tell-existing", "ftruncate-existing", "close-new", "close-existing"])
    def test_failed_close_removes_the_table(self, capsys, monkeypatch, tmp_path, failing, old):
        """An error while the finished table is flushed (by tell), cut to length or closed exits 4 and leaves no file."""
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class Failing:
            def __init__(self, fh):
                self._fh = fh

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

            def tell(self):
                if failing == "tell":
                    full_disk()
                return self._fh.tell()

            def close(self):
                self._fh.close()
                if failing == "close":
                    full_disk()

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Failing(open(*args, **kwargs)), raising=False)
        if failing == "ftruncate":
            monkeypatch.setattr(os, "ftruncate", full_disk)
        path = tmp_path / "t.csv"
        if old is not None:
            path.write_bytes(old)
        code, out, err = run_cli(capsys, "--out", str(path), "sweep", "--scenario", "single",
                                 "--sweep", "r=0:1:3", "--fix", "s=1")
        assert code == EXIT_IO and out == "" and err.startswith("i/o error: ")
        assert not path.exists()

    REWRITES = [
        ("csv sweep", ["sweep", "--scenario", "double", "--sweep", "s=0:3:7", "--sweep", "a=0:3:5"], ["t.csv"]),
        ("json sweep", ["--format", "json", "sweep", "--scenario", "single", "--sweep", "r=0:3:9",
                        "--fix", "s=1.5"], ["t.json"]),
        ("figure", ["figure", "fig2", "--plot-script"], ["fig2.csv", "fig2.gp"]),
    ]

    @staticmethod
    def _write(capsys, argv, names, where):
        """Run ``argv`` with its output in directory ``where``; the bytes of each of ``names`` there."""
        where.mkdir(exist_ok=True)
        place = ["--out-dir", str(where)] if argv[0] == "figure" else ["--out", str(where / names[0])]
        code, _, _ = run_cli(capsys, *argv, *place)
        assert code == 0
        return [(where / name).read_bytes() for name in names]

    @pytest.mark.parametrize("what,argv,names", REWRITES, ids=[r[0] for r in REWRITES])
    def test_rewrite_leaves_the_bytes_of_a_fresh_write(self, capsys, tmp_path, what, argv, names):
        fresh = self._write(capsys, argv, names, tmp_path / "fresh")
        for old in ("longer", "shorter", "equal"):
            where = tmp_path / old
            where.mkdir()
            for name, data in zip(names, fresh):
                size = {"longer": len(data) + 4099, "shorter": len(data) // 3, "equal": len(data)}[old]
                (where / name).write_bytes(b"x" * size)
            assert self._write(capsys, argv, names, where) == fresh, old

    def test_rewrite_through_a_symlink(self, capsys, tmp_path):
        argv = self.REWRITES[0][1]
        fresh = self._write(capsys, argv, ["t.csv"], tmp_path / "fresh")
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"x" * (len(fresh[0]) + 4099))
        try:
            link.symlink_to(target)
        except (OSError, NotImplementedError):
            pytest.skip("symlinks are not available here")
        assert run_cli(capsys, "--out", str(link), *argv)[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh[0]

    def test_failed_write_through_a_symlink_removes_its_target(self, capsys, tmp_path):
        """The partial table goes, and the link stays where it was, pointing at the removed file."""
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"an older table\n")
        try:
            link.symlink_to(target)
        except (OSError, NotImplementedError):
            pytest.skip("symlinks are not available here")
        code, out, err = run_cli(capsys, "--out", str(link), "sweep", "--scenario", "single",
                                 "--sweep", "s=0:400:5001", "--fix", "r=0.5")
        assert code == EXIT_INCONSISTENT and out == "" and err.startswith("internal inconsistency: ")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert not target.exists()

    @pytest.mark.skipif(os.name != "posix", reason="mode bits are POSIX")
    def test_rewrite_keeps_the_mode_bits(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x" * 100000)
        path.chmod(0o640)
        assert run_cli(capsys, "--out", str(path), *self.REWRITES[0][1])[0] == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.skipif(not os.path.exists(os.devnull) or not stat.S_ISCHR(os.stat(os.devnull).st_mode),
                        reason="no character device at os.devnull")
    def test_device_is_written_as_opened(self, capsys, monkeypatch):
        """A device is never cut to length, and a finished write leaves it where it is."""
        calls = []
        monkeypatch.setattr(os, "ftruncate", lambda *args: calls.append(("ftruncate", args)))
        monkeypatch.setattr(os, "remove", lambda *args: calls.append(("remove", args)))
        code, out, err = run_cli(capsys, "--out", os.devnull, *self.REWRITES[0][1])
        assert (code, out, err, calls) == (0, "", "", [])
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_unopenable_file_exit_4_keeps_its_bytes(self, capsys, monkeypatch, tmp_path):
        """An existing file that cannot be opened for writing exits 4 and is neither cut nor removed."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"old table\n")
        real_open = os.open

        def denied(name, *args, **kwargs):
            if os.fspath(name) == str(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(name))
            return real_open(name, *args, **kwargs)

        monkeypatch.setattr(os, "open", denied)
        code, out, err = run_cli(capsys, "--out", str(path), *self.REWRITES[0][1])
        assert code == EXIT_IO and out == "" and err.startswith("i/o error: ")
        assert path.read_bytes() == b"old table\n"

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_killed_rewrite_leaves_the_old_tail(self, capsys, tmp_path):
        """A run killed mid-write never cuts the file: the new bytes are followed by the old table's tail.

        The old table has the new one's shape (another fixed n), so what is
        left reads as a whole table under the new '#' lines, its later rows
        the old run's.  The run kills itself with SIGKILL once its first
        chunk of 4096 rows is written.
        """
        argv = ["sweep", "--scenario", "double", "--sweep", "s=0:3:100", "--sweep", "l=0:3:100"]
        path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
        assert run_cli(capsys, *argv, "--fix", "n=1", "--out", str(path))[0] == 0
        assert run_cli(capsys, *argv, "--fix", "n=2", "--out", str(fresh))[0] == 0
        old, new = path.read_bytes(), fresh.read_bytes()
        killer = (
            "import os, signal, sys\n"
            "from rindlercv import cli\n"
            "write_table = cli._write_table\n"
            "def killed(stream, meta, columns, chunks, fmt):\n"
            "    def first_chunk_then_kill():\n"
            "        yield next(chunks)\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    write_table(stream, meta, columns, first_chunk_then_kill(), fmt)\n"
            "cli._write_table = killed\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", killer, *argv, "--fix", "n=2", "--out", str(path)],
                              capture_output=True, env=env, timeout=60)
        assert done.returncode == -signal.SIGKILL, done.stderr
        left = path.read_bytes()
        assert len(left) == len(old)  # nothing was cut
        # the '#' lines, the header and 4000 of the first chunk's rows are out of the write buffer
        head = sum(map(len, new.splitlines(keepends=True)[:5 + 4000]))
        assert left[:head] == new[:head] != old[:head]
        tail = sum(map(len, old.splitlines(keepends=True)[-3000:]))  # rows past what the new run wrote
        assert left[-tail:] == old[-tail:] != new[-tail:]

    def test_memory_stays_bounded(self, tmp_path):
        # one row dict per point would take some 90 MB for these 90 000 points
        tracemalloc.start()
        try:
            code = main(["sweep", "--scenario", "single", "--sweep", "s=0:3:300", "--sweep", "r=0:3:300",
                         "--out", str(tmp_path / "big.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16e6

    @pytest.mark.parametrize("lo,hi,steps", [(0.0, 3.0, 16), (0.1, 5.0, 50), (-1.0, 1.0, 7),
                                             (2.0, 2.0, 3), (0.0, 5e-324, 4), (1e-300, 3.0, 10001)])
    def test_axis_values_are_linspace(self, lo, hi, steps):
        axis = SweepAxis("s", lo, hi, steps)
        assert axis.values(np.arange(steps)).tolist() == np.linspace(lo, hi, steps).tolist()


def json_rows(out):
    return [json.loads(line) for line in out.splitlines() if line and not line.startswith("#")]


class TestSweepMatchesPointReports:
    """Every row of a grid sweep holds the bits of the per-point report at its grid point."""

    def check(self, capsys, scenario, axes, fixed, report_at):
        argv = ["--scenario", scenario]
        for name, lo, hi, steps in axes:
            argv += ["--sweep", f"{name}={lo}:{hi}:{steps}"]
        for name, value in fixed.items():
            argv += ["--fix", f"{name}={value}"]
        code, out, _ = run_cli(capsys, "--format", "json", "sweep", *argv)
        assert code == 0
        rows = json_rows(out)
        (outer, *outer_grid), (inner, *inner_grid) = axes
        assert [(row[outer], row[inner]) for row in rows] == [
            (x, y) for x in np.linspace(*outer_grid).tolist() for y in np.linspace(*inner_grid).tolist()]
        for row in rows:
            report = report_at(row)
            assert {k: row[k] for k in report} == {k: _jsonable(v) for k, v in report.items()}
        return rows

    def test_single(self, capsys):
        self.check(capsys, "single", [("s", 0, 3, 7), ("r", 0, 2.5, 6)], {},
                   lambda row: ea.single_observer_report(row["s"], row["r"]).to_dict())

    def test_double_equal(self, capsys):
        rows = self.check(capsys, "double", [("a", 0, 3, 7), ("s", 0, 4, 6)], {},
                          lambda row: ea.double_observer_report(row["s"], row["a"], row["a"]).to_dict())
        assert all(row["deficit"] is not None for row in rows)

    @pytest.mark.parametrize("n,equal_points", [(1.0, 4), (0.777, 0)])
    def test_double_unequal(self, capsys, n, equal_points):
        rows = self.check(capsys, "double", [("s", 0.5, 2, 4), ("l", 0, 3, 4)], {"n": n},
                          lambda row: ea.double_observer_report(row["s"], row["l"], n).to_dict())
        for row in rows:
            equal_only = (row["tripartite_upper_bound"], row["deficit"])
            if row["l"] == n:
                assert None not in equal_only
            else:
                assert equal_only == (None, None)
        assert sum(row["l"] == n for row in rows) == equal_points

    @pytest.mark.parametrize("fixed", [{"accel": 6.3}, {"accel": 6.3, "s": 1.2}])
    def test_frequency(self, capsys, fixed):
        def point_report(row):
            argv = ["--format", "json", "point", "frequency", "--lam", repr(row["lam"]),
                    "--nu", repr(row["nu"])] + [arg for k, v in fixed.items() for arg in (f"--{k}", str(v))]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            return json.loads(out)["report"]
        rows = self.check(capsys, "frequency", [("lam", 0.1, 3, 5), ("nu", 0.2, 4, 4)], fixed, point_report)
        assert ("m_l_n" in rows[0]) == ("s" in fixed)


def one_row_chunk(report):
    """One report as a chunk of one-element columns, None as a masked cell."""
    return {name: np.ma.masked_array([0.0 if v is None else v], mask=[v is None])
            for name, v in report.items()}


# where the '%.17g' kernel hands over to '%.17g' itself: 1e-4 and 1e16 are its ends, their outer neighbours and
# 1e17 fall back; the last is an exact tie at the 18th digit, rounded to even
SEAMS = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1.0000000000000002e16,
         1e17, 9.999999999999998e16, 1.0000000000000002e17, -36840961550141.9375]

WRITER_SPECIALS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                   1e-310, -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308, *SEAMS]


@st.composite
def writer_tables(draw):
    """Column names (some with % and "), and one to three chunks of 1-50 rows of float, bool and masked columns.

    Every float column, masked or not, draws from one pool of values, so a
    value recurs within and across columns.
    """
    pool = draw(st.lists(st.one_of(st.sampled_from(WRITER_SPECIALS), st.floats()), min_size=1, max_size=10))
    columns = draw(st.lists(st.text("ab%\"_ ", min_size=1, max_size=4), min_size=1, max_size=5, unique=True))
    kinds = draw(st.lists(st.sampled_from(["float", "bool", "masked", "masked bool"]),
                          min_size=len(columns), max_size=len(columns)))
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 50))
        cells = st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size)
        flags = st.lists(st.booleans(), min_size=size, max_size=size)
        chunk = {}
        for name, kind in zip(columns, kinds):
            data = np.array(draw(flags)) if "bool" in kind else np.array(pool)[draw(cells)]
            chunk[name] = np.ma.masked_array(data, mask=draw(flags)) if "masked" in kind else data
        chunks.append(chunk)
    return columns, chunks


def exact_ties(rng, count):
    """count exact ties m * 2**-j in fixed notation, each with 18 significant digits, the last a 5: for a decimal
    exponent x, j = 17 - x fractional bits give j decimals, and an odd m < 2**53 makes the last one a 5."""
    ties = []
    for i in range(count):
        x = -4 + i % 20  # -4..15: past 2**53 a double has no fraction left
        j = 17 - x
        lo = math.ceil(Fraction(10) ** x * 2 ** j)
        hi = min(math.ceil(Fraction(10) ** (x + 1) * 2 ** j), 2 ** 53)
        ties.append((int(rng.integers(lo, hi - 1)) | 1) / 2 ** j)
    return ties


class TestFmt17:
    """The writer's numpy kernel writes '%.17g' of every value, element by element, and raises no numpy warning."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=float)
        got = cli._fmt17(values)
        want = ["%.17g" % v for v in values.tolist()]
        if got != "".join(text + "\n" for text in want):
            texts = got.split("\n")[:-1]
            bad = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), texts, want) if g != w]
            pytest.fail(f"{len(texts)} texts for {len(want)} values; {len(bad)} differ, the first {bad[:5]}")

    def test_exponent_bounds_are_the_least_doubles_at_or_above_the_powers_of_ten(self):
        bounds, powers = cli._fmt17_tables()[:2]
        for p, bound in zip(range(-4, 18), bounds.tolist()):
            assert Fraction(math.nextafter(bound, 0.0)) < Fraction(10) ** p <= Fraction(bound)
        assert [Fraction(v) for v in powers[0].tolist()] == [Fraction(10) ** (16 - x) for x in range(-4, 17)]

    def test_seeded_bits_and_magnitudes(self):
        """Raw bit patterns, and magnitudes log-uniform from 1e-6 to 1e19, of either sign: 10**6 values."""
        rng = np.random.default_rng(27)
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 200_000, dtype=np.int64, endpoint=True)
        magnitudes = 10.0 ** rng.uniform(-6.0, 19.0, 800_000) * rng.choice([-1.0, 1.0], 800_000)
        self.check(np.concatenate([bits.view(float), magnitudes]))

    def test_exact_ties_round_to_even(self):
        ties = exact_ties(np.random.default_rng(28), 1000)
        for v in ties:
            digits = decimal.Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert "%.17g" % 36840961550141.9375 == "36840961550141.938"
        self.check(ties + [-v for v in ties])

    def test_powers_of_ten_and_their_neighbours(self):
        """10**-6..10**18 and 2 ulps either side; the kernel covers decimal exponents -4..16."""
        values = []
        for p in range(-6, 19):
            t = float(f"1e{p}")
            below, above = math.nextafter(t, 0.0), math.nextafter(t, math.inf)
            values += [math.nextafter(below, 0.0), below, t, above, math.nextafter(above, math.inf)]
        self.check(values + [-v for v in values])

    def test_nothing_rounds_up_to_a_power_of_ten(self):
        """The 8 doubles below each power of ten keep a 17-digit text below it: n never carries to 10**17."""
        values = []
        for p in range(-4, 18):
            v = float(f"1e{p}")
            for _ in range(8):
                v = math.nextafter(v, 0.0)
                values.append(v)
                assert float("%.17g" % v) < float(f"1e{p}")
        self.check(values + [-v for v in values])

    def test_special_values(self):
        self.check([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                    1.7976931348623157e308, -1.7976931348623157e308])
        assert np.signbit(np.array(-math.nan))  # both nan signs were checked

    @pytest.mark.parametrize("size", [0, 1, _FMT17_BLOCK - 1, _FMT17_BLOCK, _FMT17_BLOCK + 1, 2 * _FMT17_BLOCK + 3,
                                      SWEEP_CHUNK + 1])
    def test_sizes_around_the_block(self, size):
        """Blocks of _FMT17_BLOCK values, with values left to '%.17g' in each."""
        values = np.random.default_rng(size).normal(size=size) * 1e3
        values[::300] = np.resize([0.0, -0.0, 1e-300, math.inf, math.nan, -1e300], len(values[::300]))
        self.check(values)


class TestTableWriter:
    """The table writer renders every cell as _fmt (CSV) and _dump_json (JSON) render it alone."""

    SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1, 1 / 3, *SEAMS]

    @staticmethod
    def chunks():
        """Chunks of float, masked and bool columns; most values repeat within a column."""
        rng = np.random.default_rng(11)
        pool = np.array(TestTableWriter.SPECIAL + rng.normal(size=6).tolist())
        for size in (1, 2, 37, 300):
            yield {
                "x": pool[rng.integers(0, len(pool), size)],
                "axis": np.repeat(np.linspace(0.0, 3.0, 4), -(-size // 4))[:size],
                "unique": rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size),
                "held": np.ma.masked_array(pool[rng.integers(0, len(pool), size)],
                                           mask=rng.random(size) < 0.4),
                "flag": rng.random(size) < 0.5,
                "zeros": np.where(rng.random(size) < 0.5, 0.0, -0.0),
            }

    @staticmethod
    def rows(chunk):
        """The chunk's rows as the cells a report holds: floats and bools, None where masked."""
        columns = {name: col.tolist() for name, col in chunk.items()}  # masked cells become None
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    def test_fmt_of_a_float_is_17g(self):
        """'%.17g' prints inf, -inf, nan (of either sign) and -0 as _fmt does: no special case is needed."""
        for v in self.SPECIAL:
            assert _fmt(v) == "%.17g" % v
        specials = (math.inf, -math.inf, math.nan, -math.nan, -0.0)
        assert [_fmt(v) for v in specials] == ["inf", "-inf", "nan", "nan", "-0"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_match_the_per_cell_renderers(self, fmt):
        columns = ["x", "axis", "unique", "held", "flag", "zeros"]
        chunks = list(self.chunks())
        stream = io.StringIO()
        _write_table(stream, ["meta line"], columns, chunks, fmt)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "# meta line"
        if fmt == "csv":
            want = [",".join(columns)] + [",".join(map(_fmt, row.values()))
                                          for chunk in chunks for row in self.rows(chunk)]
        else:
            want = [_dump_json(row) for chunk in chunks for row in self.rows(chunk)]
        assert lines[1:] == want
        assert "-0" in stream.getvalue() and ("null" if fmt == "json" else ",,") in stream.getvalue()

    def test_a_duplicated_column_is_written_twice_in_either_format(self):
        """The writer does not drop a caller's duplicate: JSON repeats the key where CSV repeats the column."""
        chunk = {"x": np.array([0.5, 2.0]), "axis": np.array([1.0, -0.0])}
        written = {}
        for fmt in ("csv", "json"):
            stream = io.StringIO()
            _write_table(stream, [], ["x", "axis", "x"], [chunk], fmt)
            written[fmt] = stream.getvalue().splitlines()
        assert written["csv"] == ["x,axis,x", "0.5,1,0.5", "2,-0,2"]
        assert written["json"] == ['{"axis": 1.0, "x": 0.5, "x": 0.5}', '{"axis": -0.0, "x": 2.0, "x": 2.0}']

    @settings(max_examples=150, deadline=None)
    @given(table=writer_tables(), fmt=st.sampled_from(["csv", "json"]))
    def test_any_table_matches_the_per_cell_renderers(self, table, fmt):
        columns, chunks = table
        stream = io.StringIO()
        _write_table(stream, [], columns, chunks, fmt)
        rows = [row for chunk in chunks for row in self.rows(chunk)]
        if fmt == "csv":
            want = [",".join(columns)] + [",".join(map(_fmt, row.values())) for row in rows]
        else:
            want = [_dump_json(row) for row in rows]
        assert stream.getvalue() == "".join(line + "\n" for line in want)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_broadcast_columns_match_their_flat_copies(self, fmt):
        """Columns on the axes of a (4, 7) chunk, read-only broadcast views among them, give the cells of the same
        columns copied out to flat arrays of 28 cells: masked, bool and fixed (0-d) columns included."""
        rng = np.random.default_rng(12)
        pool = np.array(self.SPECIAL)
        shape = (4, 7)
        held = np.ma.MaskedArray(np.broadcast_to(pool[rng.integers(0, len(pool), (4, 1))], shape),
                                 mask=np.broadcast_to(rng.random(7) < 0.5, shape))
        chunk = {"outer": pool[rng.integers(0, len(pool), (4, 1))], "inner": pool[rng.integers(0, len(pool), 7)],
                 "full": pool[rng.integers(0, len(pool), shape)], "view": np.broadcast_to(pool[3:10], shape),
                 "fixed": np.float64(-0.0), "flag": rng.random((1, 7)) < 0.5, "held": held,
                 "masked": np.ma.MaskedArray(pool[rng.integers(0, len(pool), shape)], mask=rng.random(shape) < 0.3)}
        flat = {name: np.ma.MaskedArray(np.ravel(np.broadcast_to(col.data, shape)), mask=np.ravel(col.mask))
                if np.ma.isMaskedArray(col) else np.broadcast_to(col, shape).ravel() for name, col in chunk.items()}
        columns = list(chunk)
        assert cli._cells(chunk, columns, fmt) == cli._cells(flat, columns, fmt)
        assert len(cli._cells(chunk, columns, fmt)) == 28 * len(columns)

    @pytest.mark.parametrize("argv", [
        "single --s 1 --r 0.5", "single --s 0 --r 0", "single --s 1 --accel 2 --freq 0.3",
        "double --s 1 --a 0.5", "double --s 1 --l 0.4 --n 1.7", "double --s 0 --l 0 --n 1",
        "frequency --lam 1 --nu 2 --accel 6.3", "frequency --lam 1 --nu 2 --accel 6.3 --s 1.2",
        "frequency --lam 1 --nu 1 --accel 0.01"])
    def test_point_csv_is_the_report_rendered_by_fmt(self, capsys, argv):
        scenario, report = cli._point_report(cli._args(["point", *argv.split()]))
        code, out, err = run_cli(capsys, "point", *argv.split(), "--format", "csv")
        assert code == 0 and err == ""
        assert (None in report.values()) == (" --l " in f" {argv}")  # l != n leaves cells undefined
        assert out == (f"# rindlercv point {scenario}\n" + ",".join(report) + "\n"
                       + ",".join(map(_fmt, report.values())) + "\n")
        table = io.StringIO()  # the same bytes as the table writer's one-row table
        _write_table(table, [f"rindlercv point {scenario}"], list(report), [one_row_chunk(report)], "csv")
        assert out == table.getvalue()


class TestPointRendering:
    """point writes its report as rendered line by line: the text block, the JSON payload, the CSV row."""

    @staticmethod
    def seeded_argvs(monkeypatch) -> list[list[str]]:
        """Two seeded blocks of the benchmark's point calls: each holds every form of POINT_FORMS."""
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"))
        workloads = importlib.import_module("workloads")
        block = len(workloads.POINT_FORMS)
        return [argv for seed in (3, 4) for argv in workloads.point_stream(random.Random(seed), block)]

    def test_point_output_is_its_report_rendered_per_line(self, capsys, monkeypatch):
        for argv in self.seeded_argvs(monkeypatch):
            scenario, report = cli._point_report(cli._args(argv))
            assert {type(v) for v in report.values()} <= {float, bool, type(None)}
            payload = {"scenario": scenario, "report": report}
            line = _dump_json(payload)
            assert line == json.dumps(_jsonable(payload), sort_keys=True, separators=(", ", ": "))
            block = [f"scenario: {scenario}\n"] + [f"  {key:>24s} = {_fmt(value)}\n" for key, value in report.items()]
            assert run_cli(capsys, *argv) == (0, "".join(block) + line + "\n", "")
            assert run_cli(capsys, *argv, "--format", "json") == (0, line + "\n", "")
            csv = f"# rindlercv point {scenario}\n" + ",".join(report) + "\n" + ",".join(map(_fmt, report.values()))
            assert run_cli(capsys, *argv, "--format", "csv") == (0, csv + "\n", "")


class TestFigures:
    def test_all_presets_write_data(self, tmp_path, capsys):
        for preset in FIGURE_PRESETS:
            code, out, _ = run_cli(capsys, "figure", preset, "--out-dir", str(tmp_path))
            assert code == 0
            assert (tmp_path / f"{preset}.csv").exists()

    def test_unknown_preset_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "fig99", "--out-dir", "/tmp")
        assert code == EXIT_USAGE

    def test_plot_script_emitted(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "figure", "fig3", "--out-dir", str(tmp_path), "--plot-script")
        assert code == 0
        script = (tmp_path / "fig3.gp").read_text()
        assert "fig3.csv" in script

    def test_fig2_inertial_column(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig2", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig2.csv").read_text())
        first = rows[0]
        assert float(first["r"]) == 0.0
        assert float(first["m_a_vs_rest"]) == pytest.approx(math.cosh(2.0), rel=1e-12)
        assert float(first["m_rbar_vs_rest"]) == 1.0

    def test_surfaces_are_built_on_their_axes(self, monkeypatch):
        """A surface preset hands its kernel an outer column and an inner row; fig4 makes one kernel call."""
        outer, inner = cli._surface(np.arange(3.0), np.arange(5.0))
        assert outer.shape == (3, 1) and inner.shape == (5,)
        calls = []
        kernel = ea.single_report_columns
        monkeypatch.setattr(ea, "single_report_columns", lambda *args: calls.append(args) or kernel(*args))
        columns = FIGURE_PRESETS["fig4"].build()
        assert [tuple(np.shape(a) for a in args) for args in calls] == [((4, 1), (61,))]
        assert {np.shape(columns[name]) for name in FIGURE_PRESETS["fig4"].columns} == {(61,)}
        assert np.shape(FIGURE_PRESETS["fig9"].build()["a_star"]) == (61, 61)

    def test_fig4_wedge_diagonal(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig4", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig4.csv").read_text())
        for row in rows[:: 12]:
            assert float(row["sqrt_tau_r_rbar"]) == pytest.approx(2 * float(row["r"]), abs=1e-14)

    def test_fig8_zero_acceleration_column_vanishes(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig8", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig8.csv").read_text())
        zero_rows = [r for r in rows if float(r["a"]) == 0.0]
        assert len(zero_rows) == 61
        assert all(abs(float(r["residual_multipartite"])) < 1e-12 for r in zero_rows)

    def test_fig9_death_line(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig9", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig9.csv").read_text())
        for row in rows:
            a, s = float(row["a"]), float(row["s"])
            if s > 0 and a >= float(row["a_star"]):
                assert float(row["tau_ln"]) == 0.0

    def test_fig10_bounded_by_one(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig10", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig10.csv").read_text())
        assert all(float(r["deficit"]) <= 1.0 + 1e-9 for r in rows)
        zero_a = [r for r in rows if float(r["a"]) == 0.0]
        assert all(float(r["deficit"]) == 0.0 for r in zero_a)

    def test_fig3_inertial_column(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig3", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig3.csv").read_text())
        for row in rows:
            if float(row["r"]) == 0.0 and float(row["s"]) > 0:
                s = float(row["s"])
                assert float(row["tau_ar"]) == pytest.approx(4 * s * s, rel=1e-9)
                assert float(row["tau_ar_normalized"]) == pytest.approx(1.0, abs=1e-9)

    def test_fig5_inertial_column_vanishes(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig5", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig5.csv").read_text())
        zero_r = [r for r in rows if float(r["r"]) == 0.0]
        assert zero_r and all(float(r["residual_tripartite"]) == 0.0 for r in zero_r)

    def test_fig6_sign_flip_on_diagonal(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig6", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig6.csv").read_text())
        diag = [r for r in rows if r["lam"] == r["nu"]]
        signs = [(float(r["lam"]), r["separable_2pi"]) for r in diag]
        assert any(s == "true" for _, s in signs) and any(s == "false" for _, s in signs)
        for lam, sep in signs:
            assert sep == ("true" if lam <= math.log(2.0) else "false")

    def test_fig7_death_region_is_zero(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig7", "--out-dir", str(tmp_path))
        _, rows = parse_csv((tmp_path / "fig7.csv").read_text())
        saw_dead = saw_alive = False
        for row in rows:
            dead = math.sinh(float(row["l"])) * math.sinh(float(row["n"])) >= 1.0
            if dead:
                assert float(row["tau_ln_infinite"]) == 0.0
                saw_dead = True
            else:
                saw_alive = True
        assert saw_dead and saw_alive

    @pytest.mark.parametrize("flag,value", [("--out", "f.csv"), ("--format", "json")])
    def test_ignored_flag_exit_2(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(capsys, flag, str(tmp_path / value) if flag == "--out" else value,
                                 "figure", "fig2", "--out-dir", str(out_dir))
        assert code == EXIT_USAGE and out == ""
        assert len(err.strip().splitlines()) == 1 and flag in err
        assert list(tmp_path.iterdir()) == []  # checked before the output directory is made

    def test_format_csv_is_what_figure_writes(self, tmp_path, capsys):
        run_cli(capsys, "figure", "fig2", "--out-dir", str(tmp_path / "plain"))
        code, _, _ = run_cli(capsys, "--format", "csv", "figure", "fig2", "--out-dir", str(tmp_path / "csv"))
        assert code == 0
        assert (tmp_path / "csv" / "fig2.csv").read_bytes() == (tmp_path / "plain" / "fig2.csv").read_bytes()

    def test_figure_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run_cli(capsys, "figure", "fig5", "--out-dir", str(d1))
        run_cli(capsys, "figure", "fig5", "--out-dir", str(d2))
        assert (d1 / "fig5.csv").read_bytes() == (d2 / "fig5.csv").read_bytes()


class TestSelftest:
    def test_quick_passes_fast(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 5.0
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("flag,value", [("--out", "st.txt"), ("--format", "json"), ("--format", "csv")])
    def test_output_flag_exit_2(self, capsys, tmp_path, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, flag, value, "selftest", "--quick")
        assert code == EXIT_USAGE and out == ""
        assert len(err.strip().splitlines()) == 1 and flag in err
        assert list(tmp_path.iterdir()) == []

    def test_absurd_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick", "--tol", "1e-16")
        assert code == EXIT_SELFTEST
        assert "worst offender" in out

    def test_full_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0

    SUITES = [("single-observer block duality", 1e-9), ("double-observer block duality", 1e-9),
              ("scenario purity", 1e-8), ("scenario purity (deep-squeezing corner)", 1e-6),
              ("closed-form vs numeric m duality", 1e-8), ("monogamy residuals", 1e-9),
              ("triangle-edge saturation", 1e-9)]

    @pytest.mark.parametrize("quick", [False, True])
    def test_suites_in_order(self, quick):
        """The deep-squeezing corner (s + r > 5.25) is reached by the full grid only."""
        suites = selftest.run(quick=quick)
        assert type(suites) is list and all(type(suite) is selftest.SuiteResult for suite in suites)
        expected = [suite for suite in self.SUITES if not (quick and "deep" in suite[0])]
        assert [(suite.name, suite.tol) for suite in suites] == expected

    def test_suite_keeps_the_first_largest_deviation(self):
        assert selftest._suite("x", 1.0, [(0.0, (1.0,)), (0.0, (2.0,))]) == selftest.SuiteResult("x", 0.0, (), 1.0)
        assert selftest._suite("x", 1.0, iter([])) == selftest.SuiteResult("x", 0.0, (), 1.0)
        stream = [(1.0, (1.0,)), (3.0, (2.0,)), (2.0, (3.0,)), (3.0, (4.0,))]
        assert selftest._suite("x", 1.0, stream) == selftest.SuiteResult("x", 3.0, (2.0,), 1.0)

    @pytest.mark.parametrize("tol", ["0", "5e-324", "1e-16", "1e-9"])
    def test_any_tolerance_ends_in_one_summary_line(self, capsys, tol):
        code, out, err = run_cli(capsys, "selftest", "--quick", "--tol", tol)
        lines = out.splitlines()
        assert code in (0, EXIT_SELFTEST) and err == ""
        assert [line for line in lines if line.startswith("selftest: ")] == lines[-1:]
        assert lines[-1].startswith("selftest: all" if code == 0 else "selftest: FAILED; worst offender ")
        if tol == "0":
            assert re.fullmatch(r"selftest: FAILED; worst offender single-observer block duality at \(2\.5, 2\.5\) "
                                r"\(deviation \S+ > tol 0\.0e\+00\)", lines[-1])

    def test_worst_offender_is_furthest_past_its_tolerance(self, capsys, monkeypatch):
        """Past a tolerance of 0 is infinitely far; a tie goes to the first failing suite."""
        suites = [selftest.SuiteResult("a", 3e-9, (1.0,), 1e-9), selftest.SuiteResult("b", 4e-8, (2.0,), 1e-8),
                  selftest.SuiteResult("c", 0.0, (), 0.0), selftest.SuiteResult("d", 8e-9, (3.0,), 2e-9)]
        monkeypatch.setattr(selftest, "run", lambda tol, quick: suites)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_SELFTEST
        assert out.splitlines()[-1] == ("selftest: FAILED; worst offender b at (2.0,) "
                                        "(deviation 4.000e-08 > tol 1.0e-08)")
        suites.append(selftest.SuiteResult("e", 1e-300, (4.0,), 0.0))
        code, out, _ = run_cli(capsys, "selftest")
        assert out.splitlines()[-1] == ("selftest: FAILED; worst offender e at (4.0,) "
                                        "(deviation 1.000e-300 > tol 0.0e+00)")
