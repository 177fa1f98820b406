import math

import pytest

from thermoscale.oracle import enumerate_thermal
from thermoscale.thermal import (
    DegenerateSensitivityError,
    TwoLevelSpec,
    UnboundedEstimateError,
    cr_bound_sigma,
    doppler_precision,
    excitation_probability,
    invert_mean_fraction,
    shot_noise_sigma_beta,
    thermal_summary,
)

# shared evaluation grid: x = beta * epsilon in [0.01, 10] for several splittings
EPSILONS = (0.5, 1.0, 2.0)
X_GRID = [0.01 + i * (10.0 - 0.01) / 39 for i in range(40)]


class TestExcitationProbability:
    def test_symmetry_point(self):
        assert excitation_probability(1.0, 0.0) == 0.5

    def test_frozen_ground_state(self):
        assert excitation_probability(1.0, 100.0) < 1e-12

    def test_hand_value(self):
        # exp(beta * eps) = 3 gives population 1 / (1 + 3)
        assert excitation_probability(1.0, math.log(3.0)) == pytest.approx(0.25, abs=1e-15)

    def test_monotone_decreasing_in_beta(self):
        for eps in EPSILONS:
            probs = [excitation_probability(eps, x / eps) for x in X_GRID]
            assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            excitation_probability(0.0, 1.0)
        with pytest.raises(ValueError):
            excitation_probability(1.0, -0.1)


class TestThermalSummary:
    def test_single_atom_symmetry_point(self):
        s = thermal_summary(TwoLevelSpec(1, 1.0), 0.0)
        assert s.log_z == pytest.approx(math.log(2.0), abs=1e-15)
        assert s.mean_energy == pytest.approx(0.5, abs=1e-15)
        assert s.energy_variance == pytest.approx(0.25, abs=1e-15)

    def test_extensivity_at_symmetry_point(self):
        s = thermal_summary(TwoLevelSpec(10, 1.0), 0.0)
        assert s.mean_energy == pytest.approx(5.0, abs=1e-14)
        assert s.energy_variance == pytest.approx(2.5, abs=1e-14)

    def test_matches_exhaustive_enumeration(self):
        z, mean, var = enumerate_thermal(3, 1.0, 0.7)
        s = thermal_summary(TwoLevelSpec(3, 1.0), 0.7)
        assert s.log_z == pytest.approx(math.log(z), rel=1e-12)
        assert s.mean_energy == pytest.approx(mean, rel=1e-12)
        assert s.energy_variance == pytest.approx(var, rel=1e-12)

    def test_stable_at_extreme_coldness(self):
        # beta * epsilon = 700 must not overflow anywhere
        for spec, beta in ((TwoLevelSpec(5, 1.0), 700.0), (TwoLevelSpec(5, 2.0), 350.0)):
            s = thermal_summary(spec, beta)
            assert math.isfinite(s.log_z) and s.log_z >= 0.0
            assert 0.0 < s.fisher_info < 1e-300
            assert math.isfinite(shot_noise_sigma_beta(spec, beta))

    def test_fisher_equals_energy_variance_by_construction(self):
        for eps in EPSILONS:
            for x in X_GRID:
                s = thermal_summary(TwoLevelSpec(4, eps), x / eps)
                assert s.fisher_info == s.energy_variance

    def test_eps_bar_range(self):
        for eps in EPSILONS:
            for x in X_GRID:
                s = thermal_summary(TwoLevelSpec(2, eps), x / eps)
                assert 0.0 < s.eps_bar <= eps / 2.0

    def test_variance_is_negative_energy_slope(self):
        # central difference of the mean energy, step 1e-5, relative 1e-6
        h = 1e-5
        for eps in EPSILONS:
            for x in X_GRID:
                beta = x / eps
                spec = TwoLevelSpec(1, eps)
                up = thermal_summary(spec, beta + h).mean_energy
                down = thermal_summary(spec, beta - h).mean_energy
                slope = (up - down) / (2.0 * h)
                var = thermal_summary(spec, beta).energy_variance
                assert -slope == pytest.approx(var, rel=1e-6)

    def test_extensivity_exact(self):
        for n in (1, 2, 7, 100):
            for x in (0.01, 0.5, 3.0):
                one = thermal_summary(TwoLevelSpec(1, 1.0), x)
                many = thermal_summary(TwoLevelSpec(n, 1.0), x)
                assert many.mean_energy == n * one.mean_energy
                assert many.energy_variance == n * one.energy_variance

    def test_mean_energy_strictly_decreasing_in_beta(self):
        for eps in EPSILONS:
            means = [thermal_summary(TwoLevelSpec(1, eps), x / eps).eps_bar for x in X_GRID]
            assert all(a > b for a, b in zip(means, means[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TwoLevelSpec(0, 1.0)
        with pytest.raises(ValueError):
            TwoLevelSpec(3, -1.0)
        with pytest.raises(ValueError):
            thermal_summary(TwoLevelSpec(1, 1.0), -0.5)
        # each of these would return a number (nan, 0.0 or a bound) instead of raising
        for call, match in (
            (lambda: cr_bound_sigma(4.0, 2.5), "repetitions must be an integer"),
            (lambda: cr_bound_sigma(4.0, True), "repetitions must be an integer"),
            (lambda: cr_bound_sigma(math.nan), "fisher_info must be a nonnegative finite real"),
            (lambda: cr_bound_sigma(math.inf), "fisher_info must be a nonnegative finite real"),
            (lambda: doppler_precision(math.inf, 1.0), "atom_rate must be a positive finite real"),
            (lambda: doppler_precision(1.0, math.inf), "integration_time must be a positive finite real"),
            (lambda: excitation_probability(math.inf, 0.0), "epsilon must be a positive finite real"),
            (lambda: invert_mean_fraction(0.3, math.inf), "epsilon must be a positive finite real"),
        ):
            with pytest.raises(ValueError, match=match):
                call()

    def test_spec_atom_count_is_an_integer(self):
        # a bool is an int subclass, but no atom count
        for n_atoms in (True, 2.0, 1.5):
            with pytest.raises(ValueError, match="n_atoms must be an integer"):
                TwoLevelSpec(n_atoms, 1.0)


class TestShotNoiseSigmaBeta:
    def test_single_atom_symmetry_point(self):
        assert shot_noise_sigma_beta(TwoLevelSpec(1, 1.0), 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_inverse_sqrt_scaling(self):
        assert shot_noise_sigma_beta(TwoLevelSpec(100, 1.0), 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_hand_value(self):
        # exp(beta * eps) = 3: p * (1 - p) = 3/16
        expected = 1.0 / math.sqrt(3.0 / 16.0)
        assert shot_noise_sigma_beta(TwoLevelSpec(1, 1.0), math.log(3.0)) == pytest.approx(
            expected, rel=1e-14
        )

    def test_equals_cr_bound_of_fisher_info(self):
        for eps in EPSILONS:
            for x in X_GRID:
                spec = TwoLevelSpec(7, eps)
                beta = x / eps
                fisher = thermal_summary(spec, beta).fisher_info
                assert shot_noise_sigma_beta(spec, beta) == pytest.approx(
                    cr_bound_sigma(fisher, 1), rel=1e-14
                )

    def test_scaled_spread_minimized_at_symmetry_point(self):
        # sqrt(N) * sigma_beta as a function of x: minimum 2/eps at x = 0, then increasing
        for eps in EPSILONS:
            spec = TwoLevelSpec(1, eps)
            assert math.sqrt(1) * shot_noise_sigma_beta(spec, 0.0) == pytest.approx(
                2.0 / eps, rel=1e-14
            )
            grid = [i * 10.0 / 200 for i in range(201)]
            values = [shot_noise_sigma_beta(spec, x / eps) for x in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_chains_to_shot_noise_form(self):
        # a per-atom energy spread sigma_eps = sqrt(eps_prime / N), carried onto
        # beta as sigma_eps / eps_prime, reproduces 1 / sqrt(N * eps_prime)
        spec = TwoLevelSpec(4, 1.0)
        s = thermal_summary(spec, 0.0)
        sigma_eps = math.sqrt(s.eps_prime / spec.n_atoms)
        assert sigma_eps / s.eps_prime == pytest.approx(1.0, rel=1e-14)
        assert sigma_eps / s.eps_prime == pytest.approx(shot_noise_sigma_beta(spec, 0.0), rel=1e-14)


class TestInvertMeanFraction:
    def test_symmetry_point(self):
        assert invert_mean_fraction(0.5, 1.0) == 0.0

    def test_hand_value(self):
        assert invert_mean_fraction(0.25, 1.0) == pytest.approx(math.log(3.0), rel=1e-15)

    def test_boundary_fractions_rejected(self):
        with pytest.raises(UnboundedEstimateError):
            invert_mean_fraction(0.0, 1.0)
        with pytest.raises(UnboundedEstimateError):
            invert_mean_fraction(1.0, 1.0)

    def test_round_trip(self):
        for eps in EPSILONS:
            for i in range(41):
                beta = 20.0 * i / 40
                p = excitation_probability(eps, beta)
                assert invert_mean_fraction(p, eps) == pytest.approx(beta, abs=1e-12)

    def test_negative_estimates_allowed(self):
        assert invert_mean_fraction(0.75, 1.0) == pytest.approx(-math.log(3.0), rel=1e-14)


class TestCrBoundSigma:
    def test_matches_shot_noise_at_symmetry_point(self):
        assert cr_bound_sigma(0.25, 1) == pytest.approx(2.0, abs=1e-15)

    def test_repetition_gain(self):
        assert cr_bound_sigma(0.25, 4) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_substitution(self):
        fisher = thermal_summary(TwoLevelSpec(50, 1.0), 1.0).fisher_info
        expected = 1.0 / math.sqrt(50.0 * math.e / (1.0 + math.e) ** 2)
        assert cr_bound_sigma(fisher, 1) == pytest.approx(expected, rel=1e-14)

    def test_degenerate_fisher(self):
        with pytest.raises(DegenerateSensitivityError):
            cr_bound_sigma(0.0, 10)


class TestDopplerPrecision:
    def test_beam_flux_value(self):
        assert doppler_precision(1e15, 1.0) == pytest.approx(10.0**-7.5, rel=1e-12)

    def test_unit_case(self):
        assert doppler_precision(1.0, 1.0) == 1.0

    def test_square_root_law(self):
        assert doppler_precision(4.0, 1.0) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            doppler_precision(0.0, 1.0)
        with pytest.raises(ValueError):
            doppler_precision(1.0, 0.0)
