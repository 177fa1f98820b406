import math

import numpy as np
import pytest

from thermoscale import _binomial
from thermoscale.estimators import ESTIMATORS, estimate_beta_from_count, run_thermalizing_trials
from thermoscale.rng import RngStream
from thermoscale.thermal import TwoLevelSpec, excitation_probability, shot_noise_sigma_beta, thermal_summary
from test_refusals import ROWS, refusal_cases, refusal_test
from test_rng import EDGE_STREAM_IDS, EDGE_STREAMS

# frozen guard for the deterministic 1/N part of the jeffreys estimator bias,
# calibrated once at 2e4 trials over (n, beta) in {16..1600} x {0.5..3}
BIAS_GUARD_C = 1.0


class TestEstimateBetaFromCount:
    def test_jeffreys_symmetry_point(self):
        # k = n/2 shrinks to exactly one half, so the estimate is exactly zero
        assert estimate_beta_from_count(5, 10, 1.0, "jeffreys") == 0.0
        assert estimate_beta_from_count(50, 100, 1.0) == 0.0
        assert estimate_beta_from_count(np.int64(5), np.int64(10), 1.0) == 0.0  # numpy integers are integers

    def test_raw_boundary_is_invalid(self):
        assert math.isnan(estimate_beta_from_count(0, 10, 1.0, "raw"))
        assert math.isnan(estimate_beta_from_count(10, 10, 1.0, "raw"))

    def test_raw_hand_value(self):
        assert estimate_beta_from_count(25, 100, 1.0, "raw") == pytest.approx(math.log(3.0), rel=1e-14)

    def test_jeffreys_always_finite(self):
        for k in (0, 1, 50, 99, 100):
            value = estimate_beta_from_count(k, 100, 1.0, "jeffreys")
            assert math.isfinite(value)

    # a fractional count used to be read as a fraction of 2.5 / 10
    test_count_must_be_integer = refusal_test("count-fractional", "count-fractional-atoms")
    test_count_validation = refusal_test("count-above-atoms", "count-negative")
    # modes are the lower-case strings exactly; nothing may fall back to a default, in any entry point that takes
    # a mode, and validate runs no trial, so a plan is refused before its first point
    test_unknown_mode_raises = refusal_cases(
        {mode: [row for row in ROWS if row.endswith((f"-{mode}", "-FIXED_M"))] for mode in ("bogus", "JEFFREYS")})


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


# (n_atoms, beta) at epsilon = 1: numpy inverts the CDF up to min(p, 1 - p) * n = 30 and runs BTPE above,
# so 111 atoms (n * p = 29.85) are the last size of the loop and 112 (30.1) the first of the kernel; beta = 0
# gives p = 1/2 exactly, the one p that BTPE does not reflect
ENGINE_CASES = {"16": (16, 1.0), "111": (111, 1.0), "112": (112, 1.0), "4096": (4096, 1.0),
                "16-p-half": (16, 0.0), "4096-p-half": (4096, 0.0)}


@pytest.mark.parametrize("n_atoms, beta", ENGINE_CASES.values(), ids=list(ENGINE_CASES))
@pytest.mark.parametrize("mode", ESTIMATORS)
@pytest.mark.parametrize("stream", EDGE_STREAMS, ids=EDGE_STREAM_IDS)
def test_engine_equals_the_per_trial_loop(stream, mode, n_atoms, beta):
    # 3000 trials make the kernel hand some back to numpy for a redraw
    p = excitation_probability(1.0, beta)
    loop = [estimate_beta_from_count(gen.binomial(n_atoms, p), n_atoms, 1.0, mode) for gen in stream.generators(3000)]
    betas = run_thermalizing_trials(TwoLevelSpec(n_atoms, 1.0), beta, 3000, mode, stream)
    assert betas.dtype == np.float64 and np.array_equal(betas, np.array(loop), equal_nan=True)


@pytest.mark.parametrize("n_atoms, steps, kernel_calls", [(16, 300, 1), (4096, 0, 1)], ids=["inversion", "btpe"])
def test_engine_steps_streams_only_where_numpy_inverts(n_atoms, steps, kernel_calls, monkeypatch):
    # the benchmark's tracer counts the steps of RngStream.generators, and its self-test pins one per trial
    # of the 16-atom engine call; a 4096-atom call draws through one kernel call and steps no generator
    counted, calls = [], []
    generators, kernel = RngStream.generators, _binomial.first_block_binomials

    def spy_generators(stream, count):
        for gen in generators(stream, count):
            counted.append(gen)
            yield gen

    def spy_kernel(key, count, groups):
        calls.append(groups)
        return kernel(key, count, groups)

    monkeypatch.setattr(RngStream, "generators", spy_generators)
    monkeypatch.setattr(_binomial, "first_block_binomials", spy_kernel)
    run_thermalizing_trials(TwoLevelSpec(n_atoms, 1.0), 1.0, 300, "jeffreys", RngStream(3))
    assert len(counted) == steps and len(calls) == kernel_calls
