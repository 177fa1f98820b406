import importlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import thermoscale
from thermoscale import cli
from thermoscale.cli import main
from thermoscale.rng import RngStream
from thermoscale.sweep import CSV_HEADER
from test_refusals import CLI_ARGV, ROWS


def run_cli(*argv):
    return main(list(argv))


def printed(capsys):
    """The ``key=value`` lines of standard output, as a dict."""
    return dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())


class TestStats:
    def test_key_value_output(self, capsys):
        assert run_cli("stats", "--epsilon", "1.0", "--beta", "0.0") == 0
        values = printed(capsys)
        assert set(values) == {"log_z", "mean_energy", "energy_variance", "eps_bar", "eps_prime", "fisher_info"}
        assert float(values["log_z"]) == pytest.approx(math.log(2.0))
        assert float(values["mean_energy"]) == pytest.approx(0.5)

    def test_ensemble_size_flag(self, capsys):
        assert run_cli("stats", "--epsilon", "1.0", "--beta", "0.0", "--n", "10") == 0
        values = printed(capsys)
        assert float(values["mean_energy"]) == pytest.approx(5.0)
        assert float(values["energy_variance"]) == pytest.approx(2.5)

    def test_negative_beta_rejected(self, capsys):
        assert run_cli("stats", "--epsilon", "1.0", "--beta", "-1.0") == 2


class TestFig1:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert run_cli("fig1", "--epsilon", "1.0", "--beta-max", "10", "--points", "21", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta_eps,eps_bar_over_eps,sqrt_n_sigma_beta_eps"
        assert len(lines) == 22
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.5, 2.0]

    def test_one_point_is_the_origin(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("fig1", "--epsilon", "1.0", "--beta-max", "10", "--points", "1", "--out", str(out)) == 0
        assert out.read_text().splitlines()[1:] == ["0,0.5,2"]

    def test_unwritable_out(self, capsys):
        out = "/nonexistent-dir/fig1.csv"
        assert run_cli("fig1", "--epsilon", "1", "--beta-max", "1", "--points", "3", "--out", out) == 4
        assert "/nonexistent-dir/fig1.csv" in capsys.readouterr().err

    def test_refused_write_leaves_existing_file_untouched(self, tmp_path, capsys):
        # the table is rendered in full before the file is opened
        out = tmp_path / "fig1.csv"
        out.write_bytes(b"old table\n")
        assert run_cli("fig1", "--epsilon", "1", "--beta-max", "800", "--points", "2", "--out", str(out)) == 2
        assert "underflowed to zero" in capsys.readouterr().err
        assert out.read_bytes() == b"old table\n"

    def test_huge_splitting_writes_its_table(self, tmp_path):
        # the rows depend on x = beta * epsilon alone, so epsilon**2 overflowing refuses none of them
        out = tmp_path / "fig1.csv"
        assert run_cli("fig1", "--epsilon", "1e200", "--beta-max", "1e-199", "--points", "3", "--out", str(out)) == 0
        assert out.read_text().splitlines()[1] == "0,0.5,2"


class TestSweep:
    BASE = "sweep --protocol thermalizing --n-values 16,32,64,128 --trials 400 --beta-true 1.0 --seed 77".split()
    # every trial of the first point is invalid, so the sweep aborts (exit 3)
    ABORTING = "sweep --protocol thermalizing --n-values 1,2,3,4 --trials 30 --beta-true 0.0 --estimator raw --seed 5"

    def test_csv_output_and_determinism(self, tmp_path, capsys):
        pytest.importorskip("numpy")  # runs trials
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*self.BASE, "--out", str(a)) == 0
        assert run_cli(*self.BASE, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[-1].startswith("#fit,")
        assert "slope=" in capsys.readouterr().out

    def test_jsonl_output(self, tmp_path):
        pytest.importorskip("numpy")  # runs trials
        out = tmp_path / "a.jsonl"
        assert run_cli(*self.BASE, "--out", str(out), "--format", "jsonl") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert '"fit"' in lines[-1]

    def test_interferometric_sweep(self, tmp_path):
        pytest.importorskip("numpy")  # runs trials
        out = tmp_path / "sn.csv"
        assert run_cli(*"sweep --protocol sn --n-values 50,100,200,400 --trials 100 --bath-m 100 --alpha 0.015 "
                        "--tau 1.0 --beta-true 1.0 --bath-mode sampled --seed 3".split(), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_phase_window_violation_exits_2(self, tmp_path, capsys):
        assert run_cli(*"sweep --protocol noon --n-values 2,4,8,16 --trials 50 --reps 20 --bath-m 100 --alpha 0.01 "
                        "--tau 1.0 --beta-true 1.0 --seed 3".split(), "--out", str(tmp_path / "x.csv")) == 2
        assert "pi - 0.001" in capsys.readouterr().err

    def test_missing_bath_flags_exit_2(self, tmp_path, capsys):
        argv = "sweep --protocol sn --n-values 10,20,40,80 --trials 50 --seed 3".split()
        assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert "--bath-m" in capsys.readouterr().err

    def test_all_invalid_exits_3(self, tmp_path, capsys):
        pytest.importorskip("numpy")  # runs trials
        assert run_cli(*self.ABORTING.split(), "--out", str(tmp_path / "x.csv")) == 3
        err = capsys.readouterr().err
        assert err.startswith("sweep aborted:") and "n=1" in err

    def test_zero_spread_exits_3_and_writes_nothing(self, tmp_path, capsys):
        pytest.importorskip("numpy")  # runs trials
        # the 12 valid estimates at n=10 all read -0.02000067: no log(sigma) to fit, where this exited 2
        out = tmp_path / "x.csv"
        assert run_cli(*"sweep --protocol sn --n-values 10,20,30,40 --trials 50 --bath-m 100 --alpha 0.001 --tau 1 "
                        "--beta-true 1 --seed 1".split(), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("sweep aborted:") and "n=10" in err and "zero spread" in err
        assert not out.exists()

    def test_unwritable_out_exits_4(self, capsys):
        pytest.importorskip("numpy")  # runs trials
        assert run_cli(*self.BASE, "--out", "/nonexistent-dir/deep/x.csv") == 4
        assert "/nonexistent-dir/deep/x.csv" in capsys.readouterr().err

    def test_refused_write_leaves_existing_file_untouched(self, tmp_path, monkeypatch, capsys):
        pytest.importorskip("numpy")  # runs trials
        # the records are rendered in full before the file is opened, so a value that neither format
        # can carry (exit 2), or an aborted sweep (exit 3), leaves the old file as it was
        out = tmp_path / "results.csv"
        out.write_bytes(b"old results\n")
        assert run_cli(*self.ABORTING.split(), "--out", str(out)) == 3
        assert out.read_bytes() == b"old results\n"
        fit = cli.fit_from_records
        monkeypatch.setattr(cli, "fit_from_records", lambda records: replace(fit(records), r_squared=math.nan))
        for fmt in ("csv", "jsonl"):
            assert run_cli(*self.BASE, "--out", str(out), "--format", fmt) == 2
            assert "r_squared is nan" in capsys.readouterr().err
            assert out.read_bytes() == b"old results\n"

    def test_unparseable_sizes_exit_2(self, tmp_path, capsys):
        argv = "sweep --protocol thermalizing --n-values 16,abc --trials 50 --beta-true 1.0 --seed 5".split()
        assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert run_cli("verify") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("ok") for line in lines)

    def test_failing_check_prints_fail_and_exits_1(self, monkeypatch, capsys):
        rows = [("agreeing row", True, "max err 0, tol 1"), ("disagreeing row", False, "max err 2, tol 1")]
        monkeypatch.setattr(cli, "_verify_checks", lambda: rows)
        assert run_cli("verify") == 1
        assert capsys.readouterr().out.splitlines() == [
            "ok   agreeing row (max err 0, tol 1)",
            "FAIL disagreeing row (max err 2, tol 1)",
        ]


class TestDephasing:
    def test_closed_form_and_oracle_agree(self, capsys):
        beta = str(math.log(3.0))
        assert run_cli("dephasing", "--bath-m", "10", "--theta", "0.05", "--n", "3", "--beta-true", beta) == 0
        values = printed(capsys)
        assert set(values) == {"visibility_closed_form", "visibility_oracle"}
        assert float(values["visibility_closed_form"]) == pytest.approx(float(values["visibility_oracle"]), abs=1e-14)

    def test_large_bath_skips_oracle(self, capsys):
        assert run_cli("dephasing", "--bath-m", "100", "--theta", "0.01", "--n", "2", "--beta-true", "1.0") == 0
        out = capsys.readouterr().out
        assert "visibility_closed_form" in out
        assert "visibility_oracle" not in out


class TestConfigFile:
    def test_flags_come_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1.0\nbeta = 0.0\nn = 10\n")
        assert run_cli("stats", "--config", str(cfg)) == 0
        values = printed(capsys)
        assert float(values["mean_energy"]) == pytest.approx(5.0)

    def test_explicit_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1.0\nbeta = 0.0\nn = 10\n# comment line\n")
        assert run_cli("stats", "--config", str(cfg), "--n", "1") == 0
        values = printed(capsys)
        assert float(values["mean_energy"]) == pytest.approx(0.5)

    def test_sweep_from_config(self, tmp_path):
        pytest.importorskip("numpy")  # runs trials
        out = tmp_path / "cfg.csv"
        cfg = tmp_path / "sweep.cfg"
        # underscores are accepted too
        cfg.write_text(f"protocol = thermalizing\nn-values = 16,32,64,128\ntrials = 200\n"
                       f"beta_true = 1.0\nout = {out}\nseed = 12\n")
        assert run_cli("sweep", "--config", str(cfg)) == 0
        assert out.exists()

    def test_missing_config_file_exits_2(self, capsys):
        assert run_cli("stats", "--config", "/no/such/file.cfg") == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert run_cli("stats", "--config", str(cfg)) == 2

    def test_empty_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon =\n")
        assert run_cli("stats", "--config", str(cfg)) == 2
        assert "bad.cfg:1: expected 'key = value', got 'epsilon ='" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spelling",
        [
            ["stats", "--config={}"],
            ["stats", "--conf", "{}"],
            ["stats", "--config", "{}.missing", "--config", "{}"],
            ["--config", "{}", "stats"],
        ],
        ids=["equals", "prefix", "last-of-two", "before-the-subcommand"],
    )
    def test_every_spelling_argparse_takes_is_read(self, spelling, tmp_path, capsys):
        # each spelling prints what the same flags print on the command line
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1.0\nbeta = 0.0\nn = 10\n")
        assert run_cli("stats", "--epsilon", "1.0", "--beta", "0.0", "--n", "10") == 0
        flags = capsys.readouterr().out
        assert run_cli(*(token.format(cfg) for token in spelling)) == 0
        assert capsys.readouterr().out == flags
        assert "\nmean_energy=5\n" in flags

    @pytest.mark.parametrize("argv", [["--config"], ["--config", "--n", "3"]], ids=["trailing", "before-a-flag"])
    def test_config_without_a_path_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("stats", "--epsilon", "1", "--beta", "1", *argv)
        assert info.value.code == 2
        assert "argument --config: expected one argument" in capsys.readouterr().err

    def test_config_without_a_subcommand_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1.0\nbeta = 0.0\n")
        with pytest.raises(SystemExit) as info:
            run_cli("--config", str(cfg))
        assert info.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # only a line whose first non-blank character is '#' is a comment
        out = tmp_path / "run#2.csv"
        cfg = tmp_path / "fig1.cfg"
        cfg.write_text(f"epsilon = 1.0\n  # an indented comment\nbeta_max = 10\npoints = 3\nout = {out}\n")
        assert run_cli("fig1", "--config", str(cfg)) == 0
        assert out.exists()
        assert not (tmp_path / "run").exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("explode")
        assert info.value.code == 2

    def test_config_line_naming_another_file_exits_2(self, tmp_path, capsys):
        # only the command line's --config is read: a file's own is a flag no subcommand knows
        cfg = tmp_path / "nested.cfg"
        cfg.write_text("epsilon = 1.0\nbeta = 0.0\nconfig = /no/such.cfg\n")
        with pytest.raises(SystemExit) as info:
            run_cli("stats", "--config", str(cfg))
        assert info.value.code == 2
        assert "unrecognized arguments: --config=/no/such.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["help", "h"])
    def test_config_help_line_exits_2(self, key, tmp_path, capsys):
        # a line is one --key=value token, so a flag that takes no value refuses it
        cfg = tmp_path / "help.cfg"
        cfg.write_text(f"epsilon = 1.0\nbeta = 1.0\n{key} = yes\n")
        with pytest.raises(SystemExit) as info:
            run_cli("stats", "--config", str(cfg))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument -h/--help: ignored explicit argument 'yes'" in captured.err


@pytest.fixture
def exits_2(tmp_path, capsys, monkeypatch):
    """Runs the command line of a refusal-table row where it would write its --out file, and checks that it
    exits 2 with the row's message before it draws a stream, prints a line or writes a file."""
    streams, generators, draw = [], RngStream.generators, RngStream._binomials
    # every draw path, the draw that a sweep takes all its fixed-bath points through included
    monkeypatch.setattr(RngStream, "generators", lambda self, count: streams.append(self) or generators(self, count))
    monkeypatch.setattr(RngStream, "_binomials", staticmethod(
        lambda count, draws: streams.extend(stream for stream, _, _ in draws) or draw(count, draws)))
    monkeypatch.chdir(tmp_path)

    def check(row):
        assert main(CLI_ARGV[row].split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid configuration") and re.search(ROWS[row][1], err)
        assert streams == [] and list(tmp_path.iterdir()) == []
    return check


class TestDegenerateSensitivity:
    """A configuration whose mean energy does not respond to beta, or whose closed form leaves the floats,
    is invalid input."""

    def test_sweep_exits_2_before_any_trial(self, exits_2):
        exits_2("plan-noon-no-response")

    def test_thermalizing_sweep_exits_2_before_any_trial(self, exits_2):
        exits_2("plan-thermalizing-no-response")

    def test_fig1_exits_2(self, exits_2):
        exits_2("fig1-no-response")

    @pytest.mark.parametrize("row", [
        "summary-variance-overflow", "summary-variance-nan", "plan-thermalizing-variance-overflow",
        "plan-sn-sigma-m-overflow", "dephasing-phase-overflow", "bath-coupling-underflow",
    ], ids=["stats", "stats-nan", "thermalizing sweep", "sn sweep", "dephasing", "noon sweep"])
    def test_overflow_exits_2_before_any_output_or_trial(self, row, exits_2):
        # each returned inf, NaN or 0.0 (or a bare "math domain error"); both sweeps ran every trial first
        exits_2(row)


class TestOversizedCounts:
    """A count that numpy's binomial or float() cannot take exits 2 before any trial or output."""

    @pytest.mark.parametrize("row", [
        "spec-atoms-beyond-float", "bath-atoms-beyond-float", "plan-thermalizing-size-beyond-int64",
    ], ids=["stats", "dephasing", "thermalizing sweep"])
    def test_exits_2_before_any_trial(self, row, exits_2):
        exits_2(row)


def test_every_public_name_resolves():
    assert [name for name in thermoscale.__all__ if not hasattr(thermoscale, name)] == []
    assert len(set(thermoscale.__all__)) == len(thermoscale.__all__)
    for name in thermoscale.__all__:  # the very object that its defining module binds to that name
        value = getattr(thermoscale, name)
        assert value.__module__.startswith("thermoscale.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def _fresh_python(code, *argv, cwd=None):
    """Run ``code`` in a fresh interpreter with ``src`` on the path, so modules
    imported by other tests cannot mask a regression."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, cwd=cwd, capture_output=True, text=True, timeout=60
    )


def test_import_does_not_load_scipy():
    probe = "import sys, thermoscale, thermoscale.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)"
    result = _fresh_python(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"


def test_plan_validation_does_not_load_numpy():
    # perfbench's setup probe times import plus validate() of these plans (A4, A5 and A9, new seeds)
    probe = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport plans\n"
             "for workload in plans.CAMPAIGNS:\n    plans.campaign_plan(workload, 1, 0).validate()\n"
             "print('numpy' in sys.modules)")
    result = _fresh_python(probe, str(Path(__file__).resolve().parents[1] / "perfbench"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


LOADED = "import sys\n{}\nprint(sorted(m for m in sys.modules if m.startswith('thermoscale.')))"


@pytest.mark.parametrize("statement, loaded", [
    ("import thermoscale", []),
    ("from thermoscale import thermal_summary", ["thermoscale.rng", "thermoscale.thermal"]),
], ids=["bare", "one-name"])
def test_a_name_loads_only_its_own_modules(statement, loaded):
    result = _fresh_python(LOADED.format(statement))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr(loaded)


@pytest.mark.parametrize("probe", [
    "from thermoscale import *\nimport thermoscale\n"
    "assert all(globals()[name] is getattr(thermoscale, name) for name in thermoscale.__all__)",
    "import thermoscale\nassert thermoscale.sweep is sys.modules['thermoscale.sweep']",
    "import thermoscale\nassert not hasattr(thermoscale, 'nope') and not hasattr(thermoscale, 'cli')\n"
    "from thermoscale import cli\nassert thermoscale.cli is cli",
    "import thermoscale\nassert set(thermoscale.__all__) <= set(dir(thermoscale))",
], ids=["star-import", "submodule", "missing-name", "dir"])
def test_lazy_package_behaves_as_a_plain_one(probe):
    result = _fresh_python("import sys\n" + probe)
    assert result.returncode == 0, result.stderr


# the real entry point, ``python -m thermoscale``, with numpy importable or not
ENTRY_POINT = (
    "import runpy, sys\n"
    "if sys.argv[1] == 'block': sys.modules['numpy'] = None\n"
    "sys.argv = ['thermoscale'] + sys.argv[2:]\n"
    "runpy.run_module('thermoscale', run_name='__main__')\n"
)

NUMPY_FREE_COMMANDS = {
    "stats": ["stats", "--epsilon", "1.3", "--beta", "0.7", "--n", "12"],
    "verify": ["verify"],
    "dephasing": ["dephasing", "--bath-m", "12", "--theta", "0.05", "--n", "3", "--beta-true", "1.0"],
    "fig1": ["fig1", "--epsilon", "1.0", "--beta-max", "10", "--points", "21", "--out", "fig1.csv"],
    # a bath of more than oracle.MAX_ENUM_ATOMS atoms prints no oracle line
    "dephasing-large-bath": ["dephasing", "--bath-m", "50", "--theta", "0.05", "--n", "3", "--beta-true", "1.0"],
    "fig1-200-points": ["fig1", "--epsilon", "1.0", "--beta-max", "10", "--points", "200", "--out", "fig1.csv"],
}


@pytest.mark.parametrize("command", sorted(NUMPY_FREE_COMMANDS))
def test_command_runs_without_numpy(command, tmp_path):
    outputs = []
    for mode in ("normal", "block"):
        (tmp_path / mode).mkdir()
        result = _fresh_python(ENTRY_POINT, mode, *NUMPY_FREE_COMMANDS[command], cwd=tmp_path / mode)
        assert result.returncode == 0, (mode, result.stderr)
        written = sorted((p.name, p.read_bytes()) for p in (tmp_path / mode).iterdir())
        outputs.append((result.stdout, written))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]


SWEEP_ARGV = ["sweep", "--protocol", "thermalizing", "--n-values", "16,32,64,128", "--trials", "20",
              "--beta-true", "1.0", "--seed", "7"]


def test_sweep_fails_without_numpy(tmp_path):
    # shows the block above is seen: a command that runs trials needs numpy
    result = _fresh_python(ENTRY_POINT, "block", *SWEEP_ARGV, "--out", "x.csv", cwd=tmp_path)
    assert result.returncode == 2
    assert "numpy" in result.stderr
    assert not (tmp_path / "x.csv").exists()


class TestMissingNumpy:
    """A sweep without numpy is a setup error (exit 2), not a failed verification."""

    def test_sweep_exits_2_and_names_numpy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "numpy", None)
        out = tmp_path / "x.csv"
        assert run_cli(*SWEEP_ARGV, "--out", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "numpy" in err[0]
        assert not out.exists()

    def test_other_missing_module_is_reraised(self, tmp_path, monkeypatch):
        def missing(plan):
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

        monkeypatch.setattr(thermoscale.cli, "collect_sweep_records", missing)
        with pytest.raises(ModuleNotFoundError):
            run_cli(*SWEEP_ARGV, "--out", str(tmp_path / "x.csv"))
