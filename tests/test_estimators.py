import math

import numpy as np
import pytest

from thermoscale.estimators import estimate_beta_from_count, run_thermalizing_trials
from thermoscale.interferometry import BathSpec, max_theta, run_interferometer_trials
from thermoscale.rng import RngStream
from thermoscale.sweep import SweepConfigError, SweepPlan
from thermoscale.thermal import TwoLevelSpec, shot_noise_sigma_beta, thermal_summary

# frozen guard for the deterministic 1/N part of the jeffreys estimator bias,
# calibrated once at 2e4 trials over (n, beta) in {16..1600} x {0.5..3}
BIAS_GUARD_C = 1.0


class TestEstimateBetaFromCount:
    def test_jeffreys_symmetry_point(self):
        # k = n/2 shrinks to exactly one half, so the estimate is exactly zero
        assert estimate_beta_from_count(5, 10, 1.0, "jeffreys") == 0.0
        assert estimate_beta_from_count(50, 100, 1.0) == 0.0

    def test_raw_boundary_is_invalid(self):
        assert math.isnan(estimate_beta_from_count(0, 10, 1.0, "raw"))
        assert math.isnan(estimate_beta_from_count(10, 10, 1.0, "raw"))

    def test_raw_hand_value(self):
        assert estimate_beta_from_count(25, 100, 1.0, "raw") == pytest.approx(
            math.log(3.0), rel=1e-14
        )

    def test_jeffreys_always_finite(self):
        for k in (0, 1, 50, 99, 100):
            value = estimate_beta_from_count(k, 100, 1.0, "jeffreys")
            assert math.isfinite(value)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            estimate_beta_from_count(11, 10, 1.0)
        with pytest.raises(ValueError):
            estimate_beta_from_count(-1, 10, 1.0)

    def test_count_must_be_integer(self):
        # a fractional count used to be read as a fraction of 2.5 / 10
        with pytest.raises(ValueError, match="count must be an integer"):
            estimate_beta_from_count(2.5, 10, 1.0)
        with pytest.raises(ValueError, match="n_atoms must be an integer"):
            estimate_beta_from_count(5, 10.5, 1.0)
        # numpy integers are integers
        assert estimate_beta_from_count(np.int64(5), np.int64(10), 1.0) == 0.0

    @pytest.mark.parametrize("mode", ["bogus", "JEFFREYS"])
    def test_unknown_mode_raises(self, mode):
        # modes are the lower-case strings exactly; nothing may fall back to a
        # default, in any entry point that takes a mode
        with pytest.raises(ValueError):
            estimate_beta_from_count(5, 10, 1.0, mode)
        with pytest.raises(ValueError):
            run_thermalizing_trials(TwoLevelSpec(10, 1.0), 1.0, 20, mode, RngStream(1))
        bath = BathSpec(100, 1.0, 1.0, max_theta(100), 1.0)
        with pytest.raises(ValueError):
            run_interferometer_trials(bath, 1, 10, 20, "fixed_m", RngStream(1), estimator=mode)
        sizes = (16, 32, 64, 128)
        plans = [
            SweepPlan("thermalizing", sizes, 20, 1, beta_true=1.0, estimator=mode),
            SweepPlan("sn", sizes, 20, 1, bath=bath, estimator=mode),
        ]
        for bath_mode in (mode, "FIXED_M"):
            with pytest.raises(ValueError):
                run_interferometer_trials(bath, 1, 10, 20, bath_mode, RngStream(1))
            plans.append(SweepPlan("sn", sizes, 20, 1, bath=bath, bath_mode=bath_mode))
        # validate runs no trial, so a plan is refused before its first point
        for plan in plans:
            with pytest.raises(SweepConfigError):
                plan.validate()


class TestRunThermalizingTrials:
    def test_spread_matches_shot_noise_prediction(self):
        spec = TwoLevelSpec(100, 1.0)
        betas = run_thermalizing_trials(spec, 1.0, 10**4, "jeffreys", RngStream(21))
        predicted = shot_noise_sigma_beta(spec, 1.0)
        assert np.std(betas, ddof=1) == pytest.approx(predicted, rel=0.05)

    def test_all_invalid_trials_are_nan(self):
        # one atom in raw mode: every count is 0 or 1, so every trial is invalid
        betas = run_thermalizing_trials(TwoLevelSpec(1, 1.0), 0.0, 50, "raw", RngStream(22))
        assert len(betas) == 50
        assert np.isnan(betas).all()

    def test_sqrt_scaling_between_sizes(self):
        big = run_thermalizing_trials(TwoLevelSpec(400, 1.0), 1.0, 10**4, "jeffreys", RngStream(23, 0))
        small = run_thermalizing_trials(TwoLevelSpec(100, 1.0), 1.0, 10**4, "jeffreys", RngStream(23, 1))
        assert np.std(big, ddof=1) / np.std(small, ddof=1) == pytest.approx(0.5, rel=0.10)

    def test_batch_bookkeeping(self):
        betas = run_thermalizing_trials(TwoLevelSpec(5, 1.0), 0.5, 500, "raw", RngStream(24))
        assert betas.dtype == np.float64 and betas.shape == (500,)
        assert np.isnan(betas).any()  # n=5 hits degenerate counts regularly
        assert np.isfinite(betas[~np.isnan(betas)]).all()


class TestEstimatorQuality:
    @pytest.mark.parametrize("n_atoms", [100, 400])
    @pytest.mark.parametrize("x", [0.2, 1.0, 3.0])
    def test_cramer_rao_compliance_and_near_saturation(self, n_atoms, x):
        # variance can dip at most 5 percent below the information bound, and
        # the spread stays within [0.95, 1.10] of the closed-form prediction
        spec = TwoLevelSpec(n_atoms, 1.0)
        betas = run_thermalizing_trials(
            spec, x, 10**4, "jeffreys", RngStream(77, n_atoms * 10 + int(x * 10))
        )
        std = np.std(betas, ddof=1)
        fisher = thermal_summary(spec, x).fisher_info
        assert std**2 * fisher >= 0.95
        ratio = std / shot_noise_sigma_beta(spec, x)
        assert 0.95 <= ratio <= 1.10

    @pytest.mark.parametrize(
        "n_atoms,beta", [(16, 1.0), (100, 1.0), (100, 3.0), (400, 1.0)]
    )
    def test_bias_guard(self, n_atoms, beta):
        betas = run_thermalizing_trials(
            TwoLevelSpec(n_atoms, 1.0), beta, 10**4, "jeffreys", RngStream(78, n_atoms)
        )
        stat_term = 3.0 * np.std(betas, ddof=1) / math.sqrt(len(betas))
        assert abs(np.mean(betas) - beta) <= stat_term + BIAS_GUARD_C / n_atoms


class TestReproducibility:
    def test_identical_seed_reproduces_batch_bitwise(self):
        spec = TwoLevelSpec(50, 1.0)
        a = run_thermalizing_trials(spec, 0.8, 300, "jeffreys", RngStream(31, 4))
        b = run_thermalizing_trials(spec, 0.8, 300, "jeffreys", RngStream(31, 4))
        assert np.array_equal(a, b)

    def test_trials_are_schedule_invariant(self):
        # reconstruct each trial independently, in scrambled order, from its
        # own substream; the batch must match element for element. N = 40 hits
        # numpy's inversion sampler; N = 4096 at beta = 1 (n*p ~ 1100, as in
        # the A4 sweep) hits BTPE, whose number of draws varies per trial; raw
        # N = 5 makes invalid trials, which must be NaN at their own places
        for n_atoms, beta, mode in ((40, 1.2, "jeffreys"), (4096, 1.0, "jeffreys"), (5, 0.5, "raw")):
            spec = TwoLevelSpec(n_atoms, 1.0)
            stream = RngStream(32, 9)
            betas = run_thermalizing_trials(spec, beta, 64, mode, stream)
            p = 1.0 / (1.0 + math.exp(beta))
            order = np.random.default_rng(0).permutation(64)
            replayed = {}
            for t in order:
                gen = stream.substream(int(t)).generator()
                k = int(gen.binomial(n_atoms, p))
                replayed[int(t)] = estimate_beta_from_count(k, n_atoms, 1.0, mode)
            expected = [replayed[t] for t in range(64)]
            assert np.array_equal(betas, expected, equal_nan=True), n_atoms
            assert np.isnan(betas).any() == (mode == "raw"), n_atoms

    def test_different_stream_different_batch(self):
        spec = TwoLevelSpec(50, 1.0)
        a = run_thermalizing_trials(spec, 0.8, 100, "jeffreys", RngStream(31, 4))
        b = run_thermalizing_trials(spec, 0.8, 100, "jeffreys", RngStream(31, 5))
        assert not np.array_equal(a, b)
