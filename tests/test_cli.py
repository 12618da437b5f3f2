"""Tests for the command-line interface: subcommands, config merging, exit codes."""

import argparse
import dataclasses
import json
import math
import subprocess
import sys

import pytest

from fermicloud import sigma_d
from fermicloud.cli import RunConfig, build_parser, load_config_file, main
from fermicloud.dynamics import TRAJECTORY_CSV_HEADER
from fermicloud.numerics import ConfigError, NumericsConfig

CURVE_ARGS = ["--rho-min", "1", "--rho-max", "10", "--points-per-decade", "4"]


class TestMassCurveCommand:
    def test_writes_csv_artifact(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(["mass-curve", *CURVE_ARGS, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("rho,mass\n")
        assert len(text.strip().split("\n")) == 6  # header + 5 grid points
        assert "points: 5 (0 failed)" in capsys.readouterr().out

    def test_artifact_to_stdout_without_out_flag(self, capsys):
        rc = main(["mass-curve", *CURVE_ARGS])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("rho,mass\n")
        assert "points:" not in captured.out  # no summary mixed into the artifact

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["mass-curve", *CURVE_ARGS, "--out", str(a)]) == 0
        assert main(["mass-curve", *CURVE_ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_artifact_echoes_config(self, tmp_path):
        out = tmp_path / "curve.json"
        rc = main(["mass-curve", *CURVE_ARGS, "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["model"]["kind"] == "mb"
        assert len(doc["points"]) == 5
        cfg = doc["config"]
        assert cfg["command"] == "mass-curve"
        assert cfg["rho_min"] == 1.0
        assert cfg["points_per_decade"] == 4
        assert cfg["numerics"]["max_steps"] == 1000000

    def test_target_mass_reported_in_summary(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        target = 2.0 * sigma_d(3)
        rc = main(
            ["mass-curve", "--rho-min", "1", "--rho-max", "100",
             "--points-per-decade", "8", "--mass", str(target), "--out", str(out)]
        )
        assert rc == 0
        assert "crossings of M=" in capsys.readouterr().out

    def test_target_mass_summary_to_stderr_beside_stdout_artifact(self, tmp_path, capsys):
        args = ["mass-curve", "--rho-min", "1", "--rho-max", "100",
                "--points-per-decade", "8", "--mass", str(2.0 * sigma_d(3))]
        out = tmp_path / "curve.csv"
        assert main([*args, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text()  # the artifact, unchanged
        assert "crossings of M=" in captured.err


class TestPhaseCommand:
    def test_classical_kind_gets_lyapunov_column(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["phase", "--rho", "1", "--out", str(out)])
        assert rc == 0
        header = out.read_text().split("\n", 1)[0]
        assert header == TRAJECTORY_CSV_HEADER + ",lyapunov"

    def test_degenerate_kind_has_no_lyapunov_column(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["phase", "--kind", "sfd", "--eta", "1e-2", "--rho", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().split("\n", 1)[0] == TRAJECTORY_CSV_HEADER

    def test_json_format_rejected(self, capsys):
        rc = main(["phase", "--rho", "1", "--format", "json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_summary_reports_end_state(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        main(["phase", "--rho", "1", "--s-end", "2", "--out", str(out)])
        assert "end state: s=2" in capsys.readouterr().out


class TestMultiplicityCommand:
    def test_counts_crossings(self, tmp_path):
        out = tmp_path / "mult.json"
        target = 2.0 * sigma_d(3)
        rc = main(
            ["multiplicity", "--rho-min", "1", "--rho-max", "100",
             "--points-per-decade", "8", "--mass", str(target), "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["multiplicity"] == 1
        assert doc["roots"][0] == pytest.approx(16.577086394517146, rel=1e-5)
        assert doc["M_target"] == pytest.approx(target)

    def test_mass_flag_required(self, capsys):
        rc = main(["multiplicity", *CURVE_ARGS])
        assert rc == 2
        assert "--mass" in capsys.readouterr().err


class TestConvergeCommand:
    def test_reports_structure(self, tmp_path):
        out = tmp_path / "conv.json"
        rc = main(["converge", "--kind", "sfd", "--rho", "1",
                   "--etas", "1e-2,1e-3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "sfd"
        assert doc["rho0"] == 1.0
        assert [r["eta"] for r in doc["reports"]] == [1e-2, 1e-3]
        for rep in doc["reports"]:
            assert set(rep) == {"eta", "A_eta", "B_eta", "kappa_emp", "sup_uniform_gap"}
        assert doc["config"]["etas"] == [1e-2, 1e-3]

    def test_etas_flag_required(self, capsys):
        rc = main(["converge", "--kind", "sfd", "--rho", "1"])
        assert rc == 2
        assert "--etas" in capsys.readouterr().err

    def test_classical_kind_rejected(self, capsys):
        rc = main(["converge", "--kind", "mb", "--rho", "1", "--etas", "1e-2"])
        assert rc == 2


class TestCrosscheckCommand:
    def test_routes_agree(self, capsys):
        rc = main(["crosscheck", "--rho", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rel_diff"] < 1e-6
        assert doc["x0"] == pytest.approx(doc["Q1"], rel=1e-6)

    def test_degenerate_kind(self, capsys):
        rc = main(["crosscheck", "--kind", "sfd", "--eta", "1e-2", "--rho", "1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["rel_diff"] < 1e-6


class TestConfigMerging:
    def test_json_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rho_min": 1.0, "rho_max": 10.0,
                                   "points_per_decade": 4}))
        out = tmp_path / "curve.csv"
        rc = main(["mass-curve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 6

    def test_key_value_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# scan window\nrho_min = 1\nrho_max = 10\npoints_per_decade = 4\n")
        parsed = load_config_file(str(cfg))
        assert parsed == {"rho_min": 1.0, "rho_max": 10.0, "points_per_decade": 4}

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho_min = 1\nrho_max = 10\npoints_per_decade = 4\n")
        out = tmp_path / "curve.csv"
        rc = main(["mass-curve", "--config", str(cfg), "--rho-min", "2",
                   "--out", str(out)])
        assert rc == 0
        first_rho = float(out.read_text().strip().split("\n")[1].split(",")[0])
        assert first_rho == pytest.approx(2.0, rel=1e-12)  # flag wins over file
        last_rho = float(out.read_text().strip().split("\n")[-1].split(",")[0])
        assert last_rho == pytest.approx(10.0, rel=1e-12)  # file wins over default

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho_mim = 1\n")
        rc = main(["mass-curve", "--config", str(cfg)])
        assert rc == 2
        assert "rho_mim" in capsys.readouterr().err

    def test_malformed_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho_min = fast\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))

    def test_missing_config_file_rejected(self, capsys):
        rc = main(["mass-curve", "--config", "/nonexistent/run.cfg"])
        assert rc == 2

    def test_etas_parsed_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("etas = 1e-2 1e-3\n")
        assert load_config_file(str(cfg))["etas"] == (1e-2, 1e-3)

    def test_numerics_overrides_applied(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"ode_rel_tol": 1e-6, "max_steps": 500}))
        parser_args = ["crosscheck", "--config", str(cfg), "--rho", "1"]
        run = RunConfig.from_args(build_parser().parse_args(parser_args))
        assert run.numerics.ode_rel_tol == 1e-6
        assert run.numerics.max_steps == 500
        assert run.numerics.root_tol == 1e-12  # untouched default


class TestKeyTable:
    COMMON = {"-h", "--help", "--kind", "--d", "--eta", "--s-start", "--out", "-o",
              "--format", "--config"}
    CURVE = {"--rho-min", "--rho-max", "--points-per-decade", "--mass"}

    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {o for action in sp._actions for o in action.option_strings}
            for name, sp in sub.choices.items()
        }
        assert options == {
            "mass-curve": self.COMMON | self.CURVE,
            "phase": self.COMMON | {"--rho", "--s-end"},
            "multiplicity": self.COMMON | self.CURVE,
            "converge": self.COMMON | {"--rho", "--etas"},
            "crosscheck": self.COMMON | {"--rho"},
        }

    def test_config_file_takes_run_and_numerics_keys(self, tmp_path):
        run_keys = {
            "kind": "sfd", "d": 5, "eta": 0.5, "rho": 2.0, "rho_min": 1.0, "rho_max": 9.0,
            "points_per_decade": 6, "mass": 3.0, "s_start": -10.0, "s_end": 1.0,
            "etas": [0.1, 0.01], "out": "a.csv", "format": "json",
        }
        numerics_keys = {f.name: f.default for f in dataclasses.fields(NumericsConfig)}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**run_keys, **numerics_keys}))
        loaded = load_config_file(str(cfg))
        assert set(loaded) == set(run_keys) | set(numerics_keys)
        assert loaded["etas"] == (0.1, 0.01)
        for extra in ("command", "config", "numerics", "help"):
            cfg.write_text(json.dumps({extra: "1"}))
            with pytest.raises(ConfigError, match=f"unknown config key '{extra}'"):
                load_config_file(str(cfg))

    def test_echo_omits_out_and_keeps_field_order(self, tmp_path):
        out = tmp_path / "conv.json"
        assert main(["converge", "--kind", "sfd", "--rho", "1", "--etas", "1e-2",
                     "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["config"]) == [
            "command", "kind", "d", "eta", "rho", "rho_min", "rho_max",
            "points_per_decade", "mass", "s_start", "s_end", "etas", "format", "numerics",
        ]


class TestExitCodes:
    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_steps": 40}))
        rc = main(["mass-curve", *CURVE_ARGS, "--config", str(cfg)])
        assert rc == 3
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["quad_rel_tol", "quad_split_margin"])
    def test_quadrature_key_is_exit_2(self, tmp_path, capsys, key):
        # the response layer's quadrature settings are fixed, not configurable
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 1e-8}))
        rc = main(["crosscheck", "--rho", "1", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_dimension_is_exit_2(self, capsys):
        rc = main(["mass-curve", *CURVE_ARGS, "--d", "10"])
        assert rc == 2
        assert "[3, 9]" in capsys.readouterr().err

    def test_missing_eta_is_exit_2(self, capsys):
        rc = main(["phase", "--kind", "sfd", "--rho", "1"])
        assert rc == 2
        assert "--eta" in capsys.readouterr().err

    def test_negative_density_is_exit_2(self, capsys):
        rc = main(["phase", "--rho", "-1"])
        assert rc == 2

    def test_unknown_flag_is_argparse_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["mass-curve", "--bogus", "1"])
        assert exc.value.code == 2

    def test_unknown_kind_is_argparse_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["phase", "--kind", "bose"])
        assert exc.value.code == 2


class TestInstalledEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fermicloud.cli", "crosscheck", "--rho", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["rel_diff"] < 1e-6
        assert math.isfinite(doc["x0"])
