import math

import numpy as np
import pytest

from thermoscale.estimators import (
    EmptyBatchError,
    estimate_beta_from_count,
    make_batch,
    run_thermalizing_trials,
)
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
        assert estimate_beta_from_count(0, 10, 1.0, "raw") is None
        assert estimate_beta_from_count(10, 10, 1.0, "raw") is None

    def test_raw_hand_value(self):
        assert estimate_beta_from_count(25, 100, 1.0, "raw") == pytest.approx(
            math.log(3.0), rel=1e-14
        )

    def test_jeffreys_always_finite(self):
        for k in (0, 1, 50, 99, 100):
            value = estimate_beta_from_count(k, 100, 1.0, "jeffreys")
            assert value is not None and math.isfinite(value)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            estimate_beta_from_count(11, 10, 1.0)
        with pytest.raises(ValueError):
            estimate_beta_from_count(-1, 10, 1.0)

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
        batch = run_thermalizing_trials(spec, 1.0, 10**4, "jeffreys", RngStream(21))
        predicted = shot_noise_sigma_beta(spec, 1.0)
        assert batch.sample_std == pytest.approx(predicted, rel=0.05)

    def test_all_invalid_raises_empty_batch(self):
        # one atom in raw mode: every count is 0 or 1, so every trial is invalid
        with pytest.raises(EmptyBatchError) as info:
            run_thermalizing_trials(TwoLevelSpec(1, 1.0), 0.0, 50, "raw", RngStream(22))
        assert info.value.invalid_count == 50
        assert info.value.trials == 50

    def test_sqrt_scaling_between_sizes(self):
        big = run_thermalizing_trials(TwoLevelSpec(400, 1.0), 1.0, 10**4, "jeffreys", RngStream(23, 0))
        small = run_thermalizing_trials(TwoLevelSpec(100, 1.0), 1.0, 10**4, "jeffreys", RngStream(23, 1))
        assert big.sample_std / small.sample_std == pytest.approx(0.5, rel=0.10)

    def test_batch_bookkeeping(self):
        batch = run_thermalizing_trials(TwoLevelSpec(5, 1.0), 0.5, 500, "raw", RngStream(24))
        assert batch.trials == 500
        assert batch.invalid_count + len(batch.estimates) == 500
        assert batch.invalid_count > 0  # n=5 hits degenerate counts regularly
        assert batch.sample_std == pytest.approx(float(np.std(batch.estimates, ddof=1)), rel=1e-15)

    def test_batch_reads_none_as_nan(self):
        with_none = make_batch([1.0, None, 2.5, None, 4.0])
        with_nan = make_batch([1.0, math.nan, 2.5, math.nan, 4.0])
        assert with_none.invalid_count == with_nan.invalid_count == 2
        assert list(with_none.estimates) == list(with_nan.estimates) == [1.0, 2.5, 4.0]

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            run_thermalizing_trials(TwoLevelSpec(5, 1.0), 0.5, 1, "raw", RngStream(1))


class TestEstimatorQuality:
    @pytest.mark.parametrize("n_atoms", [100, 400])
    @pytest.mark.parametrize("x", [0.2, 1.0, 3.0])
    def test_cramer_rao_compliance_and_near_saturation(self, n_atoms, x):
        # variance can dip at most 5 percent below the information bound, and
        # the spread stays within [0.95, 1.10] of the closed-form prediction
        spec = TwoLevelSpec(n_atoms, 1.0)
        batch = run_thermalizing_trials(
            spec, x, 10**4, "jeffreys", RngStream(77, n_atoms * 10 + int(x * 10))
        )
        fisher = thermal_summary(spec, x).fisher_info
        assert batch.sample_std**2 * fisher >= 0.95
        ratio = batch.sample_std / shot_noise_sigma_beta(spec, x)
        assert 0.95 <= ratio <= 1.10

    @pytest.mark.parametrize(
        "n_atoms,beta", [(16, 1.0), (100, 1.0), (100, 3.0), (400, 1.0)]
    )
    def test_bias_guard(self, n_atoms, beta):
        batch = run_thermalizing_trials(
            TwoLevelSpec(n_atoms, 1.0), beta, 10**4, "jeffreys", RngStream(78, n_atoms)
        )
        stat_term = 3.0 * batch.sample_std / math.sqrt(batch.trials)
        assert abs(batch.sample_mean - beta) <= stat_term + BIAS_GUARD_C / n_atoms


class TestReproducibility:
    def test_identical_seed_reproduces_batch_bitwise(self):
        spec = TwoLevelSpec(50, 1.0)
        a = run_thermalizing_trials(spec, 0.8, 300, "jeffreys", RngStream(31, 4))
        b = run_thermalizing_trials(spec, 0.8, 300, "jeffreys", RngStream(31, 4))
        assert np.array_equal(a.estimates, b.estimates)
        assert a.sample_mean == b.sample_mean
        assert a.sample_std == b.sample_std

    def test_trials_are_schedule_invariant(self):
        # reconstruct each trial independently, in scrambled order, from its
        # own substream; the batch must match element for element. N = 40 hits
        # numpy's inversion sampler; N = 4096 at beta = 1 (n*p ~ 1100, as in
        # the A4 sweep) hits BTPE, whose number of draws varies per trial; raw
        # N = 5 makes invalid trials, which must drop out at their own places
        for n_atoms, beta, mode in ((40, 1.2, "jeffreys"), (4096, 1.0, "jeffreys"), (5, 0.5, "raw")):
            spec = TwoLevelSpec(n_atoms, 1.0)
            stream = RngStream(32, 9)
            batch = run_thermalizing_trials(spec, beta, 64, mode, stream)
            p = 1.0 / (1.0 + math.exp(beta))
            order = np.random.default_rng(0).permutation(64)
            replayed = {}
            for t in order:
                gen = stream.substream(int(t)).generator()
                k = int(gen.binomial(n_atoms, p))
                replayed[int(t)] = estimate_beta_from_count(k, n_atoms, 1.0, mode)
            expected = [replayed[t] for t in range(64)]
            assert batch.invalid_count == expected.count(None), n_atoms
            assert list(batch.estimates) == [b for b in expected if b is not None], n_atoms

    def test_different_stream_different_batch(self):
        spec = TwoLevelSpec(50, 1.0)
        a = run_thermalizing_trials(spec, 0.8, 100, "jeffreys", RngStream(31, 4))
        b = run_thermalizing_trials(spec, 0.8, 100, "jeffreys", RngStream(31, 5))
        assert not np.array_equal(a.estimates, b.estimates)
