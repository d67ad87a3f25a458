import csv
import filecmp
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import gridcap
from gridcap.acopf import SolverOptions
from gridcap import cli, ipm
from gridcap.cli import _solver_options, main, make_parser
from gridcap.fixtures import fixture_path
from gridcap.reporting import read_rows

NET9 = str(fixture_path("microgrid9.grid"))
DEM9 = str(fixture_path("microgrid9_demand.csv"))
NET2 = str(fixture_path("two_bus.grid"))
DEM2 = str(fixture_path("two_bus_demand.csv"))


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    code = main(["study", "--network", NET9, "--demand", DEM9, "--out", str(out)])
    assert code == 0
    return str(out)


@pytest.mark.skipif(not ipm._bundled_openblas(), reason="numpy bundles no OpenBLAS: LAPACK is scipy's")
def test_cli_and_a_study_import_no_scipy(tmp_path):
    # a fresh interpreter: scipy is a test dependency only
    script = (
        "import sys\n"
        "import gridcap.cli\n"
        f"code = gridcap.cli.main(['study', '--network', {NET9!r}, '--demand', {DEM9!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(Path(gridcap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "case4_hourly.csv").is_file()


def rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", "--network", NET9, "--demand", DEM9]) == 0
        out = capsys.readouterr().out
        assert "9 buses" in out and "47 valid hours" in out

    def test_missing_file_names_path(self, capsys):
        code = main(["validate", "--network", "/nonexistent/net.grid"])
        assert code == 1
        assert "/nonexistent/net.grid" in capsys.readouterr().err

    def test_bad_number_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_text("SBASE 10\nBUS\n1 slack 0.95 1.05 x\nEND\n")
        assert main(["validate", "--network", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}, line 3: expected a number for base_kv, got 'x'\n"

    def test_invalid_network_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_text("SBASE 10\nBUS\n1 pq 0.95 1.05 12.47\nEND\n")
        assert main(["validate", "--network", str(bad)]) == 1
        assert "slack" in capsys.readouterr().err


class TestSolve:
    def test_economic_fixture_exits_zero_with_one_row_per_hour(self, tmp_path):
        out = tmp_path / "solve_out"
        code = main(
            ["solve", "--network", NET9, "--demand", DEM9, "--out", str(out)]
        )
        assert code == 0
        hourly = rows(out / "solve_hourly.csv")
        assert len(hourly) == 48  # every demand timestep, invalid hour included
        assert sum(1 for r in hourly if r["status"] == "invalid") == 1
        assert all(r["status"] in ("optimal", "invalid") for r in hourly)

    def test_stress_failures_exit_two(self, tmp_path):
        out = tmp_path / "stress_out"
        code = main(
            [
                "solve", "--network", NET9, "--demand", DEM9,
                "--stress-pf", "0.85", "--out", str(out),
            ]
        )
        assert code == 2
        hourly = rows(out / "solve_hourly.csv")
        assert any(r["status"] == "infeasible" for r in hourly)

    def test_missing_demand_file(self, tmp_path, capsys):
        code = main(
            ["solve", "--network", NET9, "--demand", "/missing/demand.csv",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "/missing/demand.csv" in capsys.readouterr().err

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "solver.conf"
        cfg.write_text("max_iter = 2\n")
        out = tmp_path / "limited"
        code = main(
            ["solve", "--network", NET2, "--demand", DEM2,
             "--config", str(cfg), "--out", str(out)]
        )
        assert code == 2  # iteration-starved hours are not optimal
        assert any(r["status"] == "max_iterations" for r in rows(out / "solve_hourly.csv"))

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--voll-rate", "-5", "voll_rate"), ("--max-iter", "0", "max_iter"),
         ("--feas-tol", "-1", "feas_tol"), ("--kkt-tol", "nan", "kkt_tol"),
         ("--eps-loss", "-0.5", "eps_loss")],
    )
    def test_bad_solver_flag_exits_1_naming_the_option(self, tmp_path, capsys, flag, value, name):
        # before, --voll-rate -5 shed load across the horizon and exited 0
        out = tmp_path / "never"
        code = main(["solve", "--case", "old", "--network", NET9, "--demand", DEM9,
                     flag, value, "--out", str(out)])
        assert code == 1
        assert f"error: solver option {name} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pf", ["nan", "1.5", "0"])
    def test_bad_stress_pf_exits_1_naming_the_option(self, tmp_path, capsys, pf):
        out = tmp_path / "never"
        code = main(["solve", "--network", NET9, "--demand", DEM9,
                     "--stress-pf", pf, "--out", str(out)])
        assert code == 1
        assert "error: stress_pf must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["0.5", "a,b", "0.2,0.3,0.5"])
    def test_malformed_weights_exit_1(self, tmp_path, capsys, weights):
        out = tmp_path / "never"
        code = main(["solve", "--network", NET2, "--demand", DEM2,
                     "--weights", weights, "--out", str(out)])
        assert code == 1
        assert f"--weights expects 'wq,wv', got {weights!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_exits_1_naming_the_option(self, tmp_path, capsys):
        cfg = tmp_path / "solver.conf"
        cfg.write_text("voll_rate = -5\n")
        code = main(["solve", "--network", NET2, "--demand", DEM2,
                     "--config", str(cfg), "--out", str(tmp_path / "never")])
        assert code == 1
        assert "error: solver option voll_rate must be finite and > 0" in capsys.readouterr().err

    def test_restoration_stays_within_max_iter(self, tmp_path):
        # stressed hours need restoration; it must not run past the cap
        cfg = tmp_path / "solver.conf"
        cfg.write_text("max_iter = 15\n")
        out = tmp_path / "capped"
        main(["solve", "--network", NET9, "--demand", DEM9, "--stress-pf", "0.85",
              "--config", str(cfg), "--out", str(out)])
        hourly = [r for r in rows(out / "solve_hourly.csv") if r["status"] != "invalid"]
        assert any(r["status"] == "max_iterations" for r in hourly)
        assert max(int(r["iterations"]) for r in hourly) <= 15


class TestStudy:
    def test_cross_case_has_four_rows(self, study_dir):
        cross = rows(os.path.join(study_dir, "cross_case.csv"))
        assert [r["case"] for r in cross] == ["1", "2", "3", "4"]
        header = list(cross[0].keys())
        assert header == [
            "case", "total_cost", "load_served", "load_shed", "avg_mismatch",
            "avg_vmin", "avg_vmax", "top_cap_buses",
        ]

    def test_expected_artifact_files(self, study_dir):
        for i in (1, 2, 3, 4):
            for kind in ("hourly", "bus", "sensitivity"):
                assert os.path.exists(os.path.join(study_dir, f"case{i}_{kind}.csv"))
        for name in ("cross_case.csv", "dispatch_long.csv", "meta.csv"):
            assert os.path.exists(os.path.join(study_dir, name))

    def test_sensitivity_columns_match_contract(self, study_dir):
        sens = rows(os.path.join(study_dir, "case1_sensitivity.csv"))
        assert list(sens[0].keys()) == [
            "hour", "bus_id", "os_q", "os_v", "s_score", "rank", "status",
        ]

    def test_rerun_is_byte_identical(self, study_dir, tmp_path):
        out2 = tmp_path / "study_again"
        assert main(["study", "--network", NET9, "--demand", DEM9, "--out", str(out2)]) == 0
        names = sorted(os.listdir(study_dir))
        assert names == sorted(os.listdir(out2))
        for name in names:
            a = os.path.join(study_dir, name)
            b = os.path.join(out2, name)
            assert filecmp.cmp(a, b, shallow=False), f"{name} differs"

    def test_top_m_zero_rejected(self, tmp_path, capsys):
        code = main(
            ["study", "--network", NET9, "--demand", DEM9,
             "--top-m", "0", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "top_m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--weights", "nan,0.5"], "weights"),
            (["--cap-mvar", "nan"], "cap_mvar"),
            (["--stress-pf", "nan"], "stress_pf"),
        ],
    )
    def test_non_finite_input_exits_1(self, tmp_path, capsys, flags, name):
        out = tmp_path / "x"
        assert main(["study", "--network", NET9, "--demand", DEM9, *flags, "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, stressed", [([], False), (["--case4-stressed"], True)])
    def test_case4_stressed_flag_reaches_the_study(self, study9, tmp_path, monkeypatch, flags, stressed):
        calls = []

        def recording_study(*args, **kwargs):
            calls.append(kwargs)
            return study9

        monkeypatch.setattr(cli, "run_four_case_study", recording_study)
        assert main(["study", "--network", NET9, "--demand", DEM9, *flags,
                     "--out", str(tmp_path / "x")]) == 0
        assert [c["case4_stressed"] for c in calls] == [stressed]

    def test_emitted_files_reparse(self, study_dir):
        # every artifact re-reads under the package's own readers
        for name in os.listdir(study_dir):
            if name.endswith(".csv"):
                assert read_rows(os.path.join(study_dir, name)) is not None

    def test_dispatch_long_format(self, study_dir):
        long_rows = rows(os.path.join(study_dir, "dispatch_long.csv"))
        assert list(long_rows[0].keys()) == ["case", "hour", "series", "value"]
        series = {r["series"] for r in long_rows}
        assert {"p_gen_mw", "q_gen_mvar", "loss_mw", "cost_usd", "shed_mw"} <= series


class TestPlan:
    def test_plan_writes_expected_columns(self, study_dir, tmp_path):
        out = tmp_path / "plan.csv"
        code = main(
            ["plan", "--case3", study_dir, "--cap-cost", "7=500,6=500,4=99999",
             "--voll", "1000", "--out", str(out)]
        )
        assert code == 0
        got = rows(out)
        assert list(got[0].keys()) == ["bus_id", "c_cap", "c_voll", "install", "s_score"]
        by_bus = {int(r["bus_id"]): r for r in got}
        assert by_bus[4]["install"] == "0"  # absurd price never pays off

    def test_unknown_candidate_rejected(self, study_dir, tmp_path, capsys):
        code = main(
            ["plan", "--case3", study_dir, "--cap-cost", "42=1",
             "--voll", "1000", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 1
        assert "42" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "cap_cost, voll, name",
        [("7=600,6=700", "nan", "voll_rate"), ("7=600,6=700", "inf", "voll_rate"),
         ("7=nan,6=700", "1000", "capacitor cost at bus 7")],
    )
    def test_non_finite_money_figure_exits_1(self, study_dir, tmp_path, capsys, cap_cost, voll, name):
        out = tmp_path / "p.csv"
        argv = ["plan", "--case3", study_dir, "--cap-cost", cap_cost, "--voll", voll, "--out", str(out)]
        assert main(argv) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_flat_cap_cost_applies_to_the_placement(self, study_dir, tmp_path):
        out = tmp_path / "plan.csv"
        argv = ["plan", "--case3", study_dir, "--cap-cost", "600", "--voll", "1000", "--out", str(out)]
        assert main(argv) == 0
        meta = {r["key"]: r["value"] for r in rows(os.path.join(study_dir, "meta.csv"))}
        got = rows(out)
        assert sorted(int(r["bus_id"]) for r in got) == sorted(int(b) for b in meta["placement"].split())
        assert {float(r["c_cap"]) for r in got} == {600.0}

    @pytest.mark.parametrize(
        "cap_cost, message",
        [("cheap", "--cap-cost expects 'bus=usd,...' or a flat usd figure, got 'cheap'"),
         ("7=600,six=700", "--cap-cost expects 'bus=usd,bus=usd,...', got 'six=700'")],
    )
    def test_malformed_cap_cost_exits_1(self, study_dir, tmp_path, capsys, cap_cost, message):
        out = tmp_path / "p.csv"
        argv = ["plan", "--case3", study_dir, "--cap-cost", cap_cost, "--voll", "1000", "--out", str(out)]
        assert main(argv) == 1
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def edited_copy(study_dir, tmp_path, name, edit):
        """A copy of the study directory with one file's rows passed through edit."""
        copy = tmp_path / "edited"
        shutil.copytree(study_dir, copy)
        path = copy / name
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(table))
        return copy

    def test_flat_cap_cost_without_placement_exits_1(self, study_dir, tmp_path, capsys):
        unplaced = self.edited_copy(study_dir, tmp_path, "meta.csv",
                                    lambda t: [r for r in t if r[0] != "placement"])
        out = tmp_path / "p.csv"
        argv = ["plan", "--case3", str(unplaced), "--cap-cost", "600", "--voll", "1000", "--out", str(out)]
        assert main(argv) == 1
        assert "flat --cap-cost given but the study recorded no placement" in capsys.readouterr().err
        assert not out.exists()

    def test_no_case3_shed_rows_exits_1(self, study_dir, tmp_path, capsys):
        # every hour non-optimal: nothing to price
        headless = self.edited_copy(study_dir, tmp_path, "case3_bus.csv", lambda t: t[:1])
        out = tmp_path / "p.csv"
        argv = ["plan", "--case3", str(headless), "--cap-cost", "7=600", "--voll", "1000", "--out", str(out)]
        assert main(argv) == 1
        assert f"no case-3 shed data found under {headless}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["-1", "0", "nan", "inf", "hourly"])
    def test_bad_meta_dt_exits_1_naming_meta_csv(self, study_dir, tmp_path, capsys, dt):
        edited = self.edited_copy(study_dir, tmp_path, "meta.csv",
                                  lambda t: [[k, dt if k == "dt" else v] for k, v in t])
        out = tmp_path / "p.csv"
        argv = ["plan", "--case3", str(edited), "--cap-cost", "7=600,6=700", "--voll", "1000", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"dt in {os.path.join(str(edited), 'meta.csv')}" in err
        assert "bus" not in err
        assert not out.exists()


    @pytest.mark.parametrize("name, edit, message", [
        ("case3_bus.csv", lambda t: [t[0]] + [r[:-1] if i == 3 else r for i, r in enumerate(t[1:], 2)],
         "line 3: 11 cells, header has 12"),
        ("case3_bus.csv", lambda t: [[c.replace("shed_mw", "shed") for c in t[0]]] + t[1:],
         "line 1: missing column shed_mw"),
        ("case3_bus.csv", lambda t: [t[0]] + [r[:9] + ["abc"] + r[10:] for r in t[1:]],
         "line 2: shed_mw is not a finite number: 'abc'"),
        ("case3_sensitivity.csv", lambda t: [t[0]] + [r[:4] + ["nan"] + r[5:] for r in t[1:]],
         "line 2: s_score is not a finite number: 'nan'"),
        ("cross_case.csv", lambda t: [t[0]] + [r[:1] + ["inf"] + r[2:] for r in t[1:]],
         "line 2: total_cost is not a finite number: 'inf'"),
    ])
    def test_corrupt_study_file_exits_1_naming_file_and_line(self, study_dir, tmp_path, capsys,
                                                             name, edit, message):
        edited = self.edited_copy(study_dir, tmp_path, name, edit)
        out = tmp_path / "p.csv"
        argv = ["plan", "--case3", str(edited), "--cap-cost", "7=600", "--voll", "1000", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {edited / name}, {message}\n"
        assert not out.exists()

    def test_repeated_cap_cost_bus_exits_1(self, study_dir, tmp_path, capsys):
        out = tmp_path / "p.csv"
        argv = ["plan", "--case3", study_dir, "--cap-cost", "1=5,1=7", "--voll", "1000", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --cap-cost gives bus 1 more than once\n"
        assert not out.exists()


class TestReport:
    def test_summary_contains_comparison_sentence(self, study_dir, capsys):
        assert main(["report", "--study", study_dir]) == 0
        out = capsys.readouterr().out
        assert "per MW of recovered demand" in out
        assert os.path.exists(os.path.join(study_dir, "summary.txt"))

    def test_missing_file_enumerated(self, study_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(study_dir, broken)
        os.remove(broken / "case3_hourly.csv")
        assert main(["report", "--study", str(broken)]) == 1
        assert "case3_hourly.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda t: [[c.replace("avg_vmin", "vmin") for c in t[0]]] + t[1:], "line 1: missing column avg_vmin"),
        (lambda t: t[:2] + [t[2][:-1]] + t[3:], "line 3: 7 cells, header has 8"),
        (lambda t: t[:4] + [["4", "x"] + t[4][2:]], "line 5: total_cost is not a finite number: 'x'"),
    ])
    def test_corrupt_cross_case_exits_1_naming_file_and_line(self, study_dir, tmp_path, capsys,
                                                             edit, message):
        edited = TestPlan.edited_copy(study_dir, tmp_path, "cross_case.csv", edit)
        assert main(["report", "--study", str(edited), "--out", str(tmp_path / "s.txt")]) == 1
        assert capsys.readouterr().err == f"error: {edited / 'cross_case.csv'}, {message}\n"

    def test_no_shed_study_reports_no_recovery(self, tmp_path, capsys):
        out = tmp_path / "calm"
        # nominal power factors: nothing fails, the OLD case sheds nothing
        assert main(
            ["study", "--network", NET9, "--demand", DEM9,
             "--stress-pf", "1.0", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--study", str(out)]) == 0
        assert "no load was recovered" in capsys.readouterr().out


def test_version_embeds_tolerance_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "feas_tol=1e-06" in out and "max_iter=300" in out


@pytest.mark.parametrize("command", ["solve", "study"])
def test_every_solver_option_has_a_flag(command):
    # each SolverOptions field parses from its --flag into _solver_options,
    # so a new field cannot lack one
    base = ["--network", "n.grid", "--demand", "d.csv", "--out", "out"]
    for f in fields(SolverOptions):
        value = f.default * 3 if isinstance(f.default, int) else f.default * 0.5
        args = make_parser().parse_args(
            [command, *base, "--" + f.name.replace("_", "-"), str(value)]
        )
        options = _solver_options(args)
        assert getattr(options, f.name) == value
        assert replace(options, **{f.name: f.default}) == SolverOptions()
