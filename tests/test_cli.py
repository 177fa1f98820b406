import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermoscale
from thermoscale.cli import main
from thermoscale.rng import RngStream
from thermoscale.sweep import CSV_HEADER


def run_cli(*argv):
    return main(list(argv))


class TestStats:
    def test_key_value_output(self, capsys):
        assert run_cli("stats", "--epsilon", "1.0", "--beta", "0.0") == 0
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert set(values) == {
            "log_z",
            "mean_energy",
            "energy_variance",
            "eps_bar",
            "eps_prime",
            "fisher_info",
        }
        assert float(values["log_z"]) == pytest.approx(math.log(2.0))
        assert float(values["mean_energy"]) == pytest.approx(0.5)

    def test_ensemble_size_flag(self, capsys):
        assert run_cli("stats", "--epsilon", "1.0", "--beta", "0.0", "--n", "10") == 0
        values = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["mean_energy"]) == pytest.approx(5.0)
        assert float(values["energy_variance"]) == pytest.approx(2.5)

    def test_negative_beta_rejected(self, capsys):
        assert run_cli("stats", "--epsilon", "1.0", "--beta", "-1.0") == 2


class TestFig1:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert run_cli(
            "fig1", "--epsilon", "1.0", "--beta-max", "10", "--points", "21", "--out", str(out)
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta_eps,eps_bar_over_eps,sqrt_n_sigma_beta_eps"
        assert len(lines) == 22
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.5, 2.0]

    def test_unwritable_out(self, capsys):
        code = run_cli(
            "fig1", "--epsilon", "1", "--beta-max", "1", "--points", "3",
            "--out", "/nonexistent-dir/fig1.csv",
        )
        assert code == 4


class TestSweep:
    BASE = [
        "sweep", "--protocol", "thermalizing", "--n-values", "16,32,64,128",
        "--trials", "400", "--beta-true", "1.0", "--seed", "77",
    ]

    def test_csv_output_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*self.BASE, "--out", str(a)) == 0
        assert run_cli(*self.BASE, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[-1].startswith("#fit,")
        assert "slope=" in capsys.readouterr().out

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "a.jsonl"
        assert run_cli(*self.BASE, "--out", str(out), "--format", "jsonl") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert '"fit"' in lines[-1]

    def test_interferometric_sweep(self, tmp_path):
        out = tmp_path / "sn.csv"
        code = run_cli(
            "sweep", "--protocol", "sn", "--n-values", "50,100,200,400", "--trials", "100",
            "--bath-m", "100", "--alpha", "0.015", "--tau", "1.0", "--beta-true", "1.0",
            "--bath-mode", "sampled", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 6

    def test_phase_window_violation_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--protocol", "noon", "--n-values", "2,4,8,16", "--trials", "50",
            "--reps", "20", "--bath-m", "100", "--alpha", "0.01", "--tau", "1.0",
            "--beta-true", "1.0", "--seed", "3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "pi - 0.001" in err

    def test_missing_bath_flags_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--protocol", "sn", "--n-values", "10,20,40,80", "--trials", "50",
            "--seed", "3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--bath-m" in capsys.readouterr().err

    def test_all_invalid_exits_3(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--protocol", "thermalizing", "--n-values", "1,2,3,4",
            "--trials", "30", "--beta-true", "0.0", "--estimator", "raw",
            "--seed", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "n=1" in capsys.readouterr().err

    def test_unwritable_out_exits_4(self, capsys):
        code = run_cli(*self.BASE, "--out", "/nonexistent-dir/deep/x.csv")
        assert code == 4

    def test_unparseable_sizes_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--protocol", "thermalizing", "--n-values", "16,abc",
            "--trials", "50", "--beta-true", "1.0", "--seed", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("ok") for line in lines)


class TestDephasing:
    def test_closed_form_and_oracle_agree(self, capsys):
        code = run_cli(
            "dephasing", "--bath-m", "10", "--theta", "0.05", "--n", "3",
            "--beta-true", str(math.log(3.0)),
        )
        assert code == 0
        values = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert set(values) == {"visibility_closed_form", "visibility_oracle"}
        assert float(values["visibility_closed_form"]) == pytest.approx(
            float(values["visibility_oracle"]), abs=1e-14
        )

    def test_large_bath_skips_oracle(self, capsys):
        code = run_cli(
            "dephasing", "--bath-m", "100", "--theta", "0.01", "--n", "2", "--beta-true", "1.0"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "visibility_closed_form" in out
        assert "visibility_oracle" not in out


class TestConfigFile:
    def test_flags_come_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1.0\nbeta = 0.0\nn = 10\n")
        assert run_cli("stats", "--config", str(cfg)) == 0
        values = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["mean_energy"]) == pytest.approx(5.0)

    def test_explicit_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1.0\nbeta = 0.0\nn = 10\n# comment line\n")
        assert run_cli("stats", "--config", str(cfg), "--n", "1") == 0
        values = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["mean_energy"]) == pytest.approx(0.5)

    def test_sweep_from_config(self, tmp_path):
        out = tmp_path / "cfg.csv"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "protocol = thermalizing\n"
            "n-values = 16,32,64,128\n"
            "trials = 200\n"
            "beta_true = 1.0\n"  # underscores are accepted too
            f"out = {out}\n"
            "seed = 12\n"
        )
        assert run_cli("sweep", "--config", str(cfg)) == 0
        assert out.exists()

    def test_missing_config_file_exits_2(self, capsys):
        assert run_cli("stats", "--config", "/no/such/file.cfg") == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert run_cli("stats", "--config", str(cfg)) == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("explode")
        assert info.value.code == 2


class TestDegenerateSensitivity:
    """A configuration whose mean energy does not respond to beta is invalid input."""

    def test_sweep_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        streams = []
        generators = RngStream.generators

        def spy(self, count):
            streams.append(self)
            return generators(self, count)

        monkeypatch.setattr(RngStream, "generators", spy)
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--protocol", "noon", "--n-values", "2,4,8,16", "--trials", "20",
            "--reps", "10", "--bath-m", "100", "--alpha", "0.001", "--tau", "1",
            "--beta-true", "800", "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert streams == []
        assert not out.exists()

    def test_fig1_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = run_cli("fig1", "--epsilon", "1", "--beta-max", "800", "--points", "2", "--out", str(out))
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()


def test_every_public_name_resolves():
    assert [name for name in thermoscale.__all__ if not hasattr(thermoscale, name)] == []
    assert len(set(thermoscale.__all__)) == len(thermoscale.__all__)


def test_import_does_not_load_scipy():
    # a fresh interpreter, so modules imported by other tests cannot mask a regression
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, thermoscale, thermoscale.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
