import hashlib
import io
import math

import pytest

from thermoscale.interferometry import BathSpec, PhaseWindowError, max_theta
from thermoscale.rng import RngStream
from thermoscale.sweep import (
    CSV_HEADER,
    ScalingFit,
    SweepAbortError,
    SweepConfigError,
    SweepPlan,
    SweepRecord,
    bath_intrinsic_sigma,
    collect_sweep_records,
    emit_results,
    fig1_curves,
    fit_from_records,
    fit_power_law,
    matched_thermometer_size,
    read_jsonl_results,
    write_results,
)
from thermoscale.thermal import TwoLevelSpec, excitation_probability, shot_noise_sigma_beta


class TestFitPowerLaw:
    @pytest.mark.parametrize("slope", [-1.0, -0.5, 0.0])
    def test_recovers_exact_power_laws(self, slope):
        points = [(n, 3.7 * n**slope) for n in (16, 32, 64, 128, 256)]
        fit = fit_power_law(points)
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.r_squared >= 1.0 - 1e-12
        assert fit.stderr_slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-10)

    def test_refuses_fewer_than_four_points(self):
        with pytest.raises(ValueError):
            fit_power_law([(1, 1.0), (2, 0.5), (4, 0.25)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_power_law([(1, 1.0), (2, 0.5), (4, 0.25), (8, -0.1)])
        # a NaN or infinite spread would give an all-NaN fit, and a fractional size be truncated
        for n, sigma, match in ((8, math.nan, "sigma"), (8, math.inf, "sigma"), (8.5, 0.1, "each n")):
            with pytest.raises(ValueError, match=match):
                fit_power_law([(1, 1.0), (2, 0.5), (4, 0.25), (n, sigma)])

    def test_refuses_equal_sizes(self):
        # no spread in log(n) leaves the slope undefined
        with pytest.raises(ValueError, match="two distinct sizes"):
            fit_power_law([(2, 1.0)] * 3 + [(2, 2.0)])

    def test_points_are_preserved(self):
        points = [(2, 1.0), (4, 0.5), (8, 0.25), (16, 0.125)]
        fit = fit_power_law(points)
        assert fit.points == tuple(points)


class TestPlanValidation:
    def test_unknown_protocol(self):
        with pytest.raises(SweepConfigError):
            SweepPlan("cooling", (1, 2, 3, 4), 10, 0, beta_true=1.0).validate()

    def test_too_few_points(self):
        with pytest.raises(SweepConfigError):
            SweepPlan("thermalizing", (16, 32, 64), 10, 0, beta_true=1.0).validate()

    def test_nonincreasing_points(self):
        with pytest.raises(SweepConfigError):
            SweepPlan("thermalizing", (16, 32, 32, 64), 10, 0, beta_true=1.0).validate()

    def test_missing_beta(self):
        with pytest.raises(SweepConfigError):
            SweepPlan("thermalizing", (16, 32, 64, 128), 10, 0).validate()

    def test_missing_bath(self):
        with pytest.raises(SweepConfigError):
            SweepPlan("sn", (16, 32, 64, 128), 10, 0).validate()

    def test_trials_fit_in_one_stream(self):
        # trial t draws substream t of its point's stream, which has 2^32 of them;
        # a sample spread needs at least two trials
        SweepPlan("thermalizing", (16, 32, 64, 128), 2**32, 0, beta_true=1.0).validate()
        with pytest.raises(SweepConfigError):
            SweepPlan("thermalizing", (16, 32, 64, 128), 1, 0, beta_true=1.0).validate()
        with pytest.raises(SweepConfigError):
            SweepPlan("thermalizing", (16, 32, 64, 128), 2**32 + 1, 0, beta_true=1.0).validate()

    def test_trials_must_be_an_integer(self):
        with pytest.raises(SweepConfigError):
            SweepPlan("thermalizing", (16, 32, 64, 128), 10.5, 0, beta_true=1.0).validate()

    def test_sizes_must_be_integers(self):
        bath = BathSpec(100, 1.0, 1.0, max_theta(100, 8), 1.0)
        with pytest.raises(SweepConfigError):
            SweepPlan("noon", (1.5, 2, 4, 8), 10, 0, bath=bath, repetitions=8).validate()

    def test_repetitions_must_be_an_integer(self):
        bath = BathSpec(100, 1.0, 1.0, max_theta(100, 8), 1.0)
        with pytest.raises(SweepConfigError):
            SweepPlan("noon", (1, 2, 4, 8), 10, 0, bath=bath, repetitions=2.5).validate()

    def test_master_seed_must_be_a_64_bit_integer(self):
        SweepPlan("thermalizing", (16, 32, 64, 128), 10, 2**64 - 1, beta_true=1.0).validate()
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(SweepConfigError):
                SweepPlan("thermalizing", (16, 32, 64, 128), 10, seed, beta_true=1.0).validate()

    def test_integer_like_values_are_accepted(self):
        # anything operator.index takes is an integer, numpy's integers included
        np = pytest.importorskip("numpy")
        bath = BathSpec(100, 1.0, 1.0, max_theta(100, 8), 1.0)
        sizes = tuple(np.int64(n) for n in (1, 2, 4, 8))
        seed = np.uint64(2**64 - 1)
        SweepPlan("noon", sizes, np.int64(10), seed, bath=bath, repetitions=np.int64(8)).validate()

    @pytest.mark.parametrize(
        "changes",
        [{"beta_true": math.nan}, {"beta_true": math.inf}, {"epsilon": math.inf}],
        ids=["beta_true=nan", "beta_true=inf", "epsilon=inf"],
    )
    def test_non_finite_reals_are_refused(self, changes):
        plan = SweepPlan("thermalizing", (16, 32, 64, 128), 10, 0, **{"beta_true": 1.0, **changes})
        with pytest.raises(SweepConfigError, match="must be a .* finite real"):
            plan.validate()

    def test_phase_window_checked_at_largest_size(self):
        bath = BathSpec(100, 1.0, 1.0, max_theta(100, 8), 1.0)
        SweepPlan("noon", (2, 4, 8), 10, 0, bath=bath, repetitions=8)  # no validate yet
        plan = SweepPlan("noon", (2, 4, 8, 16), 10, 0, bath=bath, repetitions=8)
        with pytest.raises(PhaseWindowError):
            plan.validate()


THERM_PLAN = SweepPlan(
    protocol="thermalizing",
    n_values=(16, 32, 64, 128),
    trials_per_n=2000,
    master_seed=1001,
    epsilon=1.0,
    beta_true=1.0,
)


class TestRunSweep:
    def test_thermalizing_scaling(self):
        fit = fit_from_records(collect_sweep_records(THERM_PLAN))
        assert -0.6 <= fit.slope <= -0.4
        assert fit.r_squared > 0.99

    def test_theory_overlay_within_band(self):
        for record in collect_sweep_records(THERM_PLAN):
            ratio = record.sigma_beta_empirical / record.sigma_beta_theory
            assert 0.85 <= ratio <= 1.15

    def test_sn_scaling_and_overlay(self):
        bath = BathSpec(100, 1.0, 1.0, max_theta(100), 1.0)
        plan = SweepPlan(
            protocol="sn",
            n_values=(100, 400, 1600, 6400),
            trials_per_n=500,
            master_seed=99,
            bath=bath,
        )
        records = collect_sweep_records(plan)
        fit = fit_from_records(records)
        assert -0.6 <= fit.slope <= -0.4
        for record in records:
            assert 0.85 <= record.sigma_beta_empirical / record.sigma_beta_theory <= 1.15

    def test_noon_scaling_at_high_repetition(self):
        # every sweep point operates mid fringe, so the 1/N law is clean
        bath = BathSpec(100, 1.0, 1.0, max_theta(100, 16), 1.0)
        plan = SweepPlan(
            protocol="noon",
            n_values=(2, 4, 8, 16),
            trials_per_n=800,
            master_seed=4242,
            bath=bath,
            repetitions=3000,
        )
        records = collect_sweep_records(plan)
        fit = fit_from_records(records)
        assert -1.08 <= fit.slope <= -0.92
        for record in records:
            assert 0.85 <= record.sigma_beta_empirical / record.sigma_beta_theory <= 1.15

    def test_abort_names_offending_size(self):
        plan = SweepPlan(
            protocol="thermalizing",
            n_values=(1, 2, 3, 4),
            trials_per_n=30,
            master_seed=7,
            beta_true=0.0,
            estimator="raw",
        )
        with pytest.raises(SweepAbortError) as info:
            collect_sweep_records(plan)
        assert info.value.n == 1
        assert "n=1" in str(info.value)

    def test_sampled_bath_abort_draws_no_later_point(self, monkeypatch):
        # one raw single-atom shot reads a port fraction of 0 or 1, both outside (0, M)
        streams, generators = [], RngStream.generators
        monkeypatch.setattr(RngStream, "generators", lambda self, count: streams.append(self) or generators(self, count))
        bath = BathSpec(100, 1.0, 1.0, max_theta(100), 1.0)
        plan = SweepPlan("sn", (1, 2, 4, 8), 50, 3, estimator="raw", bath=bath, bath_mode="sampled_m")
        with pytest.raises(SweepAbortError) as info:
            collect_sweep_records(plan)
        assert info.value.n == 1
        assert streams == [RngStream(3, 0)]

    def test_records_are_deterministic(self):
        assert collect_sweep_records(THERM_PLAN) == collect_sweep_records(THERM_PLAN)


class TestBathFloor:
    def test_single_atom_symmetry_point(self):
        assert bath_intrinsic_sigma(1, 1.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_inverse_sqrt_in_bath_size(self):
        assert bath_intrinsic_sigma(100, 1.0, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_equals_thermalizing_bound_at_matched_size(self):
        for m in (3, 10, 100):
            assert bath_intrinsic_sigma(m, 1.0, 1.3) == shot_noise_sigma_beta(
                TwoLevelSpec(m, 1.0), 1.3
            )


class TestMatchedThermometerSize:
    def test_shot_noise_matches_bath(self):
        assert matched_thermometer_size(100, "shot_noise") == 100

    def test_heisenberg_needs_square_root(self):
        assert matched_thermometer_size(100, "heisenberg") == 10

    def test_degenerate_bath(self):
        assert matched_thermometer_size(1, "shot_noise") == 1
        assert matched_thermometer_size(1, "heisenberg") == 1

    def test_rounds_up(self):
        assert matched_thermometer_size(101, "heisenberg") == 11

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            matched_thermometer_size(10, "quantum")

    @pytest.mark.parametrize("m_atoms", [2, 10, 16, 100, 177])
    def test_consistency_with_precision_formulas(self, m_atoms):
        # calibrate the coupling so that m_atoms single-atom shots reproduce the
        # thermalizing bound at matched size, then check both matching rules
        from thermoscale.interferometry import sigma_beta_h_theory, sigma_beta_sn_theory

        beta, eps = 1.0, 1.0
        p = excitation_probability(eps, beta)
        theta = 1.0 / (m_atoms * math.sqrt(p * (1.0 - p)))
        bath = BathSpec(m_atoms, eps, beta, theta, 1.0)
        floor = bath_intrinsic_sigma(m_atoms, eps, beta)
        assert sigma_beta_sn_theory(bath, m_atoms) == pytest.approx(floor, rel=1e-12)
        n_matched = matched_thermometer_size(m_atoms, "heisenberg")
        ratio = sigma_beta_h_theory(bath, n_matched) / floor
        assert 1.0 / math.sqrt(2.0) - 1e-12 <= ratio <= math.sqrt(2.0) + 1e-12


class TestFig1Curves:
    def test_symmetry_point_row(self):
        rows = fig1_curves(1.0, [0.0, 0.5, 1.0])
        x, frac, scaled = rows[0]
        assert x == 0.0
        assert frac == pytest.approx(0.5, abs=1e-15)
        assert scaled == pytest.approx(2.0, abs=1e-14)

    def test_energy_fraction_monotone_decreasing(self):
        rows = fig1_curves(2.0, [i * 0.1 for i in range(50)])
        fracs = [row[1] for row in rows]
        assert all(a > b for a, b in zip(fracs, fracs[1:]))

    def test_scaled_spread_minimized_nearest_origin(self):
        grid = [0.05 + i * 0.1 for i in range(40)]
        rows = fig1_curves(1.0, grid)
        scaled = [row[2] for row in rows]
        assert scaled.index(min(scaled)) == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fig1_curves(1.0, [])


# Small plans of each kind whose result bytes are pinned: a refactor of the
# engines or of the emitters must leave every byte of every file unchanged.
GOLDEN_PLANS = {
    "thermalizing": SweepPlan("thermalizing", (16, 32, 64, 128), 200, 1001, beta_true=1.0),
    "thermalizing-raw": SweepPlan("thermalizing", (4, 6, 8, 12), 200, 1002, beta_true=2.5, estimator="raw"),
    "noon-fixed": SweepPlan(
        "noon", (1, 2, 4, 8), 200, 1003,
        bath=BathSpec(100, 1.0, 1.0, max_theta(100, 8), 1.0), bath_mode="fixed_m", repetitions=50,
    ),
    "sn-sampled": SweepPlan(
        "sn", (10, 100, 1000, 10000), 200, 1004,
        bath=BathSpec(100, 1.0, 1.0, math.pi / 200.0, 1.0), bath_mode="sampled_m",
    ),
    "sn-fixed-raw": SweepPlan(
        "sn", (4, 8, 16, 32), 200, 1005,
        bath=BathSpec(100, 1.0, 1.0, math.pi / 200.0, 1.0), bath_mode="fixed_m", estimator="raw",
    ),
}

# sha256 of the written file per (format, with fit)
GOLDEN_SHA256 = {
    "thermalizing": {
        ("csv", True): "ebe7e4b1f624eef79c0b3610b940845455a4a69b4ee870dc4ccd0fa71d5f8706",
        ("csv", False): "2150dc93943df15e704c575d0561046a9b9c56c3d7239d463a7e50615cadbb7b",
        ("jsonl", True): "2137c444071b4c278d781b4f2bbe910d1b43776008120cde848928c2e44db3bd",
        ("jsonl", False): "6d6bd2c0a4ff04648b12232a1150e47e31d54f30bffc8bbe55e9429af4306fc5",
    },
    "thermalizing-raw": {
        ("csv", True): "4e483f81f0f06728415bd1466766ab6ed5ee0888844bdc8416e8d486bc658827",
        ("csv", False): "7fa12be8d5e09af733b6e272c5ced6d391807a8cd90fc71cb288b207a1d247fb",
        ("jsonl", True): "398c424efc2adbf22dc269a6ad4a8b146db6beab8968987cf85c029e4b925ec5",
        ("jsonl", False): "3de972e366952ef0074af33c9811349b03a9950a1241157db754ec4eaf5d2c12",
    },
    "noon-fixed": {
        ("csv", True): "e52cca6eef97dcedc06e623df4c084d56fa3dbe49e029ed6a1966a58e0361657",
        ("csv", False): "f2eb4b162f752ccd69028862031dc2d03e9e7442295a8559c2d9e5d276ec899f",
        ("jsonl", True): "6ba3b5a64d58e88376616b66dc56ad53a90cd95c40e3715c00d705370226970e",
        ("jsonl", False): "e82b8eff2aaf47a84a0de4f4d13a152a701bd8d45bd1ff1aa833ef930096d548",
    },
    "sn-sampled": {
        ("csv", True): "af8c09165404c14ec09595038fafaaa4640f3e2ec2614fa32545a5b14de9f28f",
        ("csv", False): "ddc31afc29d85dcef6351ffb2450d1fa632e37bec84353186ec6bb37e0a03d3b",
        ("jsonl", True): "f83825f63b8546ce10b9d8c79b934f6a9395d181095c1d587ad25b223567eb6f",
        ("jsonl", False): "7530c092dbd394740f25b553d2319e49a0a7aa00b493ff2e050023073f20b93f",
    },
    "sn-fixed-raw": {
        ("csv", True): "aea9669a027b9e8d7932782c60465d725c4f47f5e271770aa83cf3b9ed28cb58",
        ("csv", False): "17c37dd3ad93e8bf3afb7f60a85601869e280563cdd54f6c8d680ac7e4b482d5",
        ("jsonl", True): "3931894604e71e417b630905d33a2453c1976807efee325dcf717d96fd6a6be2",
        ("jsonl", False): "02184d33d5f98994124327cd83a55074de5f01250485880d3abef764625c114c",
    },
}


class TestResultFiles:
    def test_csv_bytes_are_deterministic(self, tmp_path):
        records = collect_sweep_records(THERM_PLAN)
        fit = fit_from_records(records)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(records, fit, "csv", str(a))
        emit_results(records, fit, "csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_schema(self, tmp_path):
        records = collect_sweep_records(THERM_PLAN)
        fit = fit_from_records(records)
        path = tmp_path / "out.csv"
        emit_results(records, fit, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records) + 1
        assert lines[-1].startswith("#fit,")
        assert len(lines[1].split(",")) == 5

    def test_empty_sweep_gives_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], None, "csv", str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_three_point_fit_structure(self, tmp_path):
        records = [SweepRecord(n, 1.0 / n, 1.0 / n, 0.0, 10) for n in (1, 2, 4)]
        fit = ScalingFit(-1.0, 0.0, 0.0, 1.0, tuple((r.n, r.sigma_beta_empirical) for r in records))
        path = tmp_path / "three.csv"
        emit_results(records, fit, "csv", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 5  # header, three data rows, summary row
        assert lines[-1].split(",")[0] == "#fit"

    def test_jsonl_round_trip_reproduces_fit(self, tmp_path):
        records = collect_sweep_records(THERM_PLAN)
        fit = fit_from_records(records)
        path = tmp_path / "out.jsonl"
        emit_results(records, fit, "jsonl", str(path))
        parsed_records, parsed_fit = read_jsonl_results(str(path))
        assert parsed_records == records
        assert parsed_fit == fit

    VALID_LINE = '{"n": 2, "sigma_beta_empirical": 0.5, "sigma_beta_theory": 0.5, "invalid_fraction": 0.0, "trials": 10}'

    @pytest.mark.parametrize(
        "line, match",
        [
            (VALID_LINE.replace("0.5,", "NaN,", 1), "NaN is not a finite number"),
            (VALID_LINE.replace("0.5,", "Infinity,", 1), "Infinity is not a finite number"),
            (VALID_LINE.replace("0.5,", "-Infinity,", 1), "-Infinity is not a finite number"),
            (VALID_LINE.replace('"trials": 10', '"trails": 10'), "missing field 'trials'"),
            ('{"fit": {"slope": -0.5, "intercept": 0.0, "stderr_slope": 0.0}}', "missing field 'r_squared'"),
            (
                '{"n": 2.5, "sigma_beta_empirical": "0.5", "sigma_beta_theory": -1, "invalid_fraction": 7, "trials": true}',
                "result values must be finite JSON numbers",
            ),
            (VALID_LINE.replace('"n": 2', '"n": 0'), "n must be at least 1"),
            (VALID_LINE.replace('"n": 2', '"n": true'), "result values must be finite JSON numbers"),
            (VALID_LINE.replace('"trials": 10', '"trials": 2.5'), "trials must be an integer"),
            (VALID_LINE.replace('"trials": 10', '"trials": 1'), "trials must be at least 2"),
            (VALID_LINE.replace("0.5,", '"0.5",', 1), "result values must be finite JSON numbers"),
            (VALID_LINE.replace("0.5,", "-0.5,", 1), "sigma_beta_empirical must be a nonnegative finite real"),
            (VALID_LINE.replace("0.5,", "1e400,", 1), "result values must be finite JSON numbers"),
            (VALID_LINE.replace('"sigma_beta_theory": 0.5', '"sigma_beta_theory": 0'), "sigma_beta_theory must be a positive"),
            (VALID_LINE.replace('"sigma_beta_theory": 0.5', '"sigma_beta_theory": true'), "result values must be finite"),
            (VALID_LINE.replace('"invalid_fraction": 0.0', '"invalid_fraction": 7'), "invalid_fraction must be at most 1"),
            (VALID_LINE.replace('"invalid_fraction": 0.0', '"invalid_fraction": -0.1'), "invalid_fraction must be a nonnegative"),
            ('{"fit": {"slope": "-0.5", "intercept": 0.0, "stderr_slope": 0.0, "r_squared": 1}}', "result values must be finite"),
            ('{"fit": {"slope": -0.5, "intercept": 0.0, "stderr_slope": 0.0, "r_squared": true}}', "result values must be finite"),
            ('{"fit": {"slope": -0.5, "intercept": 0.0, "stderr_slope": 1e400, "r_squared": 1}}', "result values must be finite"),
            ("[2, 0.5, 0.5, 0.0, 10]", ""),
        ],
        ids=[
            "nan", "inf", "-inf", "record-field", "fit-field", "every-field-wrong", "n-zero", "n-bool", "trials-fraction",
            "trials-one", "spread-string", "spread-negative", "spread-overflow", "theory-zero", "theory-bool",
            "invalid-above-one", "invalid-negative", "fit-string", "fit-bool", "fit-overflow", "not-an-object",
        ],
    )
    def test_jsonl_reader_refuses_what_the_writer_never_writes(self, tmp_path, line, match):
        # write_results never writes these, so a file holding them is not a result file
        path = tmp_path / "bad.jsonl"
        path.write_text(self.VALID_LINE + "\n" + line + "\n")
        with pytest.raises(ValueError, match=f"bad.jsonl:2: {match}"):
            read_jsonl_results(str(path))

    FIT_LINE = '{"fit": {"slope": -0.5, "intercept": 0.0, "stderr_slope": 0.0, "r_squared": 1.0}}'

    @pytest.mark.parametrize(
        "lines, bad_line",
        [([FIT_LINE, VALID_LINE], 2), ([VALID_LINE, FIT_LINE, FIT_LINE], 3), ([VALID_LINE, FIT_LINE, VALID_LINE], 3)],
        ids=["fit-first", "second-fit", "record-after-fit"],
    )
    def test_jsonl_reader_takes_the_fit_once_and_last(self, tmp_path, lines, bad_line):
        # write_results writes the fit once, after every record, and its points are those records
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=f"bad.jsonl:{bad_line}: a line after the fit line"):
            read_jsonl_results(str(path))

    def test_jsonl_reader_takes_a_zero_spread(self, tmp_path):
        # a point whose valid estimates are all equal writes sigma_beta_empirical 0
        path = tmp_path / "flat.jsonl"
        path.write_text(self.VALID_LINE.replace("0.5,", "0,", 1) + "\n")
        assert read_jsonl_results(str(path))[0] == [SweepRecord(2, 0.0, 0.5, 0.0, 10)]

    def test_unwritable_destination(self):
        with pytest.raises(OSError) as info:
            emit_results([], None, "csv", "/nonexistent-dir/deep/out.csv")
        assert "/nonexistent-dir/deep/out.csv" in str(info.value)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], None, "xml", str(tmp_path / "x"))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_non_finite_values_are_refused_before_any_byte(self, fmt):
        good = SweepRecord(2, 0.5, 0.5, 0.0, 10)
        bad = SweepRecord(4, math.nan, 0.25, 0.0, 10)
        fit = ScalingFit(-1.0, 0.0, math.inf, 1.0, ((2, 0.5),))
        for records, fit_arg, field in (([good, bad], None, "sigma_beta_empirical"), ([good], fit, "stderr_slope")):
            sink = io.StringIO()
            with pytest.raises(ValueError, match=field):
                write_results(records, fit_arg, fmt, sink)
            assert sink.getvalue() == ""

    def test_refused_write_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_bytes(b"old results\n")
        bad = SweepRecord(4, math.nan, 0.25, 0.0, 10)
        with pytest.raises(ValueError, match="sigma_beta_empirical"):
            emit_results([bad], None, "csv", str(path))
        assert path.read_bytes() == b"old results\n"
        with pytest.raises(ValueError, match="format"):
            emit_results([], None, "xml", str(path))
        assert path.read_bytes() == b"old results\n"

    @pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
    def test_golden_bytes(self, name):
        records = collect_sweep_records(GOLDEN_PLANS[name])
        if name in ("thermalizing-raw", "sn-fixed-raw"):
            assert all(r.invalid_fraction > 0 for r in records)
        fit = fit_from_records(records)
        for (fmt, with_fit), expected in GOLDEN_SHA256[name].items():
            sink = io.StringIO()
            write_results(records, fit if with_fit else None, fmt, sink)
            assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == expected, (fmt, with_fit)
