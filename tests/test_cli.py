import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from rindlercv import entanglement_analysis as ea
from rindlercv.cli import (EXIT_INCONSISTENT, EXIT_IO, EXIT_SELFTEST, EXIT_USAGE, FIGURE_PRESETS,
                           SweepAxis, _jsonable, main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_negative_parameter_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "point", "single", "--s", "-1", "--r", "0")
        assert code == EXIT_USAGE

    def test_json_round_trip_idempotent(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "point", "double", "--s", "1", "--a", "0.5")
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, separators=(", ", ": ")) == out.strip()

    def test_internal_inconsistency_exit_3(self, capsys, monkeypatch):
        import dataclasses
        import rindlercv.cli as cli_mod

        original = cli_mod.ea.single_observer_report
        monkeypatch.setattr(cli_mod.ea, "single_observer_report",
                            lambda s, r: dataclasses.replace(original(s, r), m_ar=0.5))
        code, _, err = run_cli(capsys, "point", "single", "--s", "1", "--r", "1")
        assert code == EXIT_INCONSISTENT
        assert "inconsistency" in err


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

    def test_absurd_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick", "--tol", "1e-16")
        assert code == EXIT_SELFTEST
        assert "worst offender" in out

    def test_full_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
