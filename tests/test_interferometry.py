import cmath
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from thermoscale import interferometry
from thermoscale.interferometry import (
    BATH_MODES,
    BathSpec,
    _beta_from_phase,
    _phase_from_port_fraction,
    dephasing_visibility,
    max_theta,
    measure_fringe_visibility,
    noon_outcome_probability,
    noon_phase_estimates,
    reference_phase,
    require_phase_window,
    run_interferometer_trials,
    sigma_beta_h_theory,
    sigma_beta_sn_theory,
    sigma_m_sn_theory,
)
from thermoscale.oracle import noon_probs_exact
from thermoscale.rng import RngStream
from thermoscale.sweep import SweepAbortError, SweepPlan, collect_sweep_records
from test_refusals import refusal_cases, refusal_test

LN3 = math.log(3.0)


def make_bath(m_atoms=100, beta=LN3, theta=math.pi / 200.0, epsilon=1.0):
    return BathSpec(m_atoms=m_atoms, epsilon=epsilon, beta_true=beta, alpha=theta, tau=1.0)


def engine_bath_counts(bath, mode, trials, stream):
    """The excited bath count of each engine trial, read off one atom's phase
    estimate over 10**12 shots, whose spread (about 1e-6 rad) resolves it."""
    phases, _ = run_interferometer_trials(bath, 1, 10**12, trials, mode, stream)
    return [int(m) for m in np.rint(phases / bath.theta)]


def replay_trial(bath, n_atoms, shots, mode, gen, estimator="jeffreys"):
    """One trial rebuilt from public primitives, read at the reference phase:
    (m, counts, phase, beta or NaN). The bath count is drawn here as well: the
    rounded thermal mean for a fixed bath, a thermal binomial draw otherwise;
    the arccos -> m_hat -> beta chain is written out, sharing no engine code."""
    delta = reference_phase(bath, n_atoms)
    p = bath.excitation
    m = round(bath.m_atoms * p) if mode == "fixed_m" else int(gen.binomial(bath.m_atoms, p))
    counts = int(gen.binomial(shots, noon_outcome_probability(n_atoms, bath.theta * m + delta / n_atoms)))
    p_hat = counts / shots if estimator == "raw" else (counts + 0.5) / (shots + 1.0)
    phase = (2.0 * math.acos(math.sqrt(p_hat)) - delta) / n_atoms
    m_hat = phase / bath.theta
    beta = math.log(bath.m_atoms / m_hat - 1.0) / bath.epsilon if 0.0 < m_hat < bath.m_atoms else math.nan
    return m, counts, phase, beta


class TestBathExcitationDraw:
    # the engine's bath count, read off its phase estimates
    def test_fixed_symmetry_point(self):
        assert engine_bath_counts(make_bath(beta=0.0), "fixed_m", 3, RngStream(1)) == [50] * 3

    def test_fixed_quarter_population(self):
        assert engine_bath_counts(make_bath(beta=LN3), "fixed_m", 3, RngStream(1)) == [25] * 3

    def test_sampled_moments(self):
        draws = np.array(engine_bath_counts(make_bath(beta=0.0), "sampled_m", 10**4, RngStream(2)))
        assert abs(draws.mean() - 50.0) < 5 * 5.0 / 100.0
        assert abs(draws.var() - 25.0) < 0.1 * 25.0

    def test_fixed_draw_is_deterministic(self):
        bath = make_bath()
        values = {m for i in range(5) for m in engine_bath_counts(bath, "fixed_m", 2, RngStream(i))}
        assert values == {25}


class TestPortProbabilities:
    def test_constructive_and_destructive(self):
        assert noon_outcome_probability(1, 0.0) == 1.0
        assert noon_outcome_probability(1, math.pi) == pytest.approx(0.0, abs=1e-30)

    def test_balanced_point_matches_state_algebra(self):
        _, p4 = noon_probs_exact(1, math.pi / 2.0)
        assert noon_outcome_probability(1, math.pi / 2.0) == pytest.approx(0.5, abs=1e-15)
        assert noon_outcome_probability(1, math.pi / 2.0) == pytest.approx(p4, abs=1e-14)

    def test_noon_examples(self):
        assert noon_outcome_probability(5, 0.0) == 1.0
        assert noon_outcome_probability(2, math.pi / 2.0) == pytest.approx(0.0, abs=1e-30)
        assert noon_outcome_probability(3, 0.4) == pytest.approx(math.cos(0.6) ** 2, rel=1e-14)

    def test_single_atom_reduces_to_plain_fringe(self):
        for phi in (0.0, 0.3, 1.0, 2.7):
            assert noon_outcome_probability(1, phi) == math.cos(phi / 2.0) ** 2

    def test_ports_are_complementary(self):
        for n in (1, 2, 5):
            for phi in (0.1, 0.9, 2.2):
                total = noon_outcome_probability(n, phi) + math.sin(n * phi / 2.0) ** 2
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_matches_exact_oracle_on_grid(self):
        for n in (1, 2, 3, 4):
            for m in range(7):
                for theta in (0.1, 0.7, 2.9):
                    phi = theta * m
                    _, p4 = noon_probs_exact(n, phi)
                    assert noon_outcome_probability(n, phi) == pytest.approx(p4, abs=1e-10)


class TestPhaseWindow:
    test_rejects_wide_coupling = refusal_test("window-wide-coupling")  # theta * m_atoms = pi
    test_protocols_validate_before_running = refusal_test("engine-wide-coupling", "engine-noon-wide-coupling")

    def test_noon_window_scales_with_atom_number(self):
        bath = make_bath(theta=math.pi / 250.0)  # fine for one atom, not for four
        require_phase_window(bath, 1)
        with pytest.raises(ValueError, match="phase window violated"):
            require_phase_window(bath, 4)

    def test_max_theta_is_tight(self):
        # the quotient (pi - 1e-3) / (n * m) rounds one ulp high for some pairs,
        # e.g. (1, 17), (3, 7), (100, 7) and (10**4, 5)
        limit = math.pi - 1e-3
        for m_atoms in [*range(1, 201), 500, 10**3, 10**4, 10**5]:
            for n_atoms in range(1, 65):
                theta = max_theta(m_atoms, n_atoms)
                require_phase_window(make_bath(m_atoms=m_atoms, theta=theta), n_atoms)
                with pytest.raises(ValueError, match="phase window violated"):
                    require_phase_window(make_bath(m_atoms=m_atoms, theta=theta * 1.01), n_atoms)
                quotient = limit / (n_atoms * m_atoms)
                # an admissible quotient is returned unchanged
                assert theta == quotient or n_atoms * quotient * m_atoms > limit

class TestIntegerInputs:
    # numpy would draw Binomial(2, p) for 2.5 shots, and the fraction be divided by 2.5
    test_sampled_bath_refuses_fractional_shots = refusal_test("engine-fractional-shots")
    test_refuses_fractional_atom_number = refusal_cases(
        {"fixed_m": "engine-fractional-atoms-fixed", "sampled_m": "engine-fractional-atoms-sampled"})
    test_bath_atom_count_is_an_integer = refusal_test("bath-bool-atoms", "bath-float-atoms")


class TestInversionChain:
    @staticmethod
    def invert(p_hat, n_atoms, bath):
        """The engine's port fraction -> phase -> beta chain, at the reference phase."""
        phase = _phase_from_port_fraction(p_hat, n_atoms, reference_phase(bath, n_atoms))
        return _beta_from_phase(phase, bath)

    def test_sn_deterministic_round_trip(self):
        # m = 25 excited atoms, phi_b = pi/8 read at the reference phase,
        # exact port fraction fed back in
        bath = make_bath()
        p_true = 0.5 * (1.0 + math.cos(math.pi / 8.0 + reference_phase(bath, 1)))
        assert self.invert(p_true, 1, bath) == pytest.approx(LN3, abs=1e-9)

    def test_noon_deterministic_round_trip(self):
        bath = make_bath(theta=math.pi / 1600.0)
        p_true = noon_outcome_probability(4, bath.theta * 25 + reference_phase(bath, 4) / 4)
        assert self.invert(p_true, 4, bath) == pytest.approx(LN3, abs=1e-9)

    def test_fraction_one_maps_to_invalid(self):
        # a fringe pinned at its maximum implies zero excited atoms
        assert math.isnan(self.invert(1.0, 1, make_bath()))

    def test_fraction_zero_maps_to_invalid(self):
        # the opposite extremum implies a count at or beyond the whole bath
        assert math.isnan(self.invert(0.0, 1, make_bath()))


class TestReferencePhase:
    def test_zero_when_window_is_full(self):
        for m_atoms, n_atoms in ((100, 1), (100, 4), (10**4, 32)):
            bath = make_bath(m_atoms=m_atoms, theta=max_theta(m_atoms, n_atoms))
            assert reference_phase(bath, n_atoms) == 0.0

    def test_centres_accumulated_phase_in_window(self):
        bath = make_bath()  # theta * m_atoms = pi/2
        delta = reference_phase(bath, 1)
        upper_slack = math.pi - 1e-3 - (bath.theta * bath.m_atoms + delta)
        assert delta == pytest.approx(upper_slack, abs=1e-15)
        assert delta == pytest.approx((math.pi / 2.0 - 1e-3) / 2.0, rel=1e-14)

    def test_independent_of_true_temperature(self):
        assert reference_phase(make_bath(beta=0.1), 2) == reference_phase(make_bath(beta=5.0), 2)

    def test_weak_coupling_phase_spread_respects_information_floor(self):
        # accumulated phase 0.05 rad, far below the window: read at the bright
        # extremum, the counts would pin and the spread would undercut the floor
        n_atoms, reps = 2, 200
        bath = make_bath(beta=1.0, theta=max_theta(100, 32))
        phases = noon_phase_estimates(bath, n_atoms, reps, 1000, "fixed_m", RngStream(55))
        spread = float(np.std(phases, ddof=1))
        floor = 1.0 / (n_atoms * math.sqrt(reps))
        assert 0.95 * floor <= spread <= 1.25 * floor


class TestSnProtocol:
    def test_boundary_count_invalid_in_raw_mode(self):
        # frozen bath, one raw shot: the port fraction is 0 or 1, a fringe
        # extremum, which lies outside the readout window either way
        bath = make_bath(beta=50.0)
        assert engine_bath_counts(bath, "fixed_m", 1, RngStream(1)) == [0]
        _, betas = run_interferometer_trials(bath, 1, 1, 1, "fixed_m", RngStream(3), estimator="raw")
        assert math.isnan(betas[0])

    def test_spread_matches_delta_method_theory(self):
        bath = make_bath()
        _, betas = run_interferometer_trials(bath, 1, 10**4, 1000, "fixed_m", RngStream(40))
        predicted = sigma_beta_sn_theory(bath, 10**4)
        assert np.std(betas, ddof=1) == pytest.approx(predicted, rel=0.15)

    def test_mean_recovers_truth(self):
        bath = make_bath()
        _, betas = run_interferometer_trials(bath, 1, 10**4, 1000, "fixed_m", RngStream(41))
        assert np.mean(betas) == pytest.approx(LN3, abs=5 * np.std(betas, ddof=1) / math.sqrt(1000))

    def test_upper_boundary_invalids_are_recorded(self):
        # raw mode near the half fringe throws counts onto both extrema
        bath = make_bath(beta=0.0, theta=0.9 * math.pi / 100.0)
        _, betas = run_interferometer_trials(bath, 1, 2, 200, "fixed_m", RngStream(42), estimator="raw")
        assert len(betas) == 200
        assert np.isnan(betas).any()

    def test_all_invalid_raises(self):
        bath = make_bath(beta=50.0)
        # the first point has one raw shot per trial, so every count sits at an extremum
        plan = SweepPlan("sn", (1, 30, 40, 50), 50, 43, bath=bath, bath_mode="fixed_m", estimator="raw")
        with pytest.raises(SweepAbortError) as info:
            collect_sweep_records(plan)
        assert info.value.n == 1
        assert str(info.value) == "sweep point n=1 yielded 50/50 invalid trials"

    def test_one_valid_trial_aborts(self):
        # two raw shots of a frozen bath: only a count of 1 of 2 lands inside the
        # readout window, and at this seed one trial of the first point's ten
        # does; one valid estimate has no spread, so the sweep still aborts
        bath = make_bath(beta=50.0)
        _, betas = run_interferometer_trials(bath, 1, 2, 10, "fixed_m", RngStream(3, 0), estimator="raw")
        assert np.count_nonzero(~np.isnan(betas)) == 1
        plan = SweepPlan("sn", (2, 30, 40, 50), 10, 3, bath=bath, bath_mode="fixed_m", estimator="raw")
        with pytest.raises(SweepAbortError) as info:
            collect_sweep_records(plan)
        assert info.value.n == 2
        assert str(info.value) == "sweep point n=2 yielded 9/10 invalid trials"


class TestNoonProtocol:
    def test_single_atom_noon_is_bit_identical_to_sn(self):
        # a noon point with one atom and 64 repetitions is an sn point of 64 passes
        bath = make_bath(theta=max_theta(100, 4))
        common = dict(trials_per_n=100, master_seed=51, bath=bath, bath_mode="sampled_m")
        noon = collect_sweep_records(SweepPlan("noon", (1, 2, 3, 4), repetitions=64, **common))
        sn = collect_sweep_records(SweepPlan("sn", (64, 128, 256, 512), **common))
        assert noon[0].sigma_beta_empirical == sn[0].sigma_beta_empirical
        assert noon[0].invalid_fraction == sn[0].invalid_fraction

    def test_one_over_n_spread_ratio(self):
        # same bath and shot budget, four times the entangled atoms
        bath = make_bath(theta=max_theta(100, 8))
        _, small = run_interferometer_trials(bath, 2, 200, 2000, "fixed_m", RngStream(52, 0))
        _, big = run_interferometer_trials(bath, 8, 200, 2000, "fixed_m", RngStream(52, 1))
        # the small size loses a few weak-signal trials, which the spread skips
        assert np.nanstd(big, ddof=1) / np.nanstd(small, ddof=1) == pytest.approx(0.25, rel=0.15)

    def test_phase_estimates_align_with_beta_batch(self):
        bath = make_bath(theta=max_theta(100, 4))
        stream = RngStream(53)
        phases, betas = run_interferometer_trials(bath, 4, 100, 500, "fixed_m", stream)
        assert np.array_equal(noon_phase_estimates(bath, 4, 100, 500, "fixed_m", stream), phases)
        assert len(phases) == 500
        assert not np.isnan(betas).any()
        rebuilt = [
            math.log(bath.m_atoms / (phi / bath.theta) - 1.0) / bath.epsilon for phi in phases
        ]
        assert list(betas) == rebuilt

    def test_phase_spread_respects_information_floor(self):
        # mid fringe: spread of the phase estimate is 1/(n*sqrt(reps)) and may
        # undercut the floor by at most the 5 percent statistical slack
        n_atoms, reps = 4, 200
        bath = make_bath(beta=1.0, theta=max_theta(100, n_atoms))
        phases = noon_phase_estimates(bath, n_atoms, reps, 1000, "fixed_m", RngStream(54))
        spread = float(np.std(phases, ddof=1))
        floor = 1.0 / (n_atoms * math.sqrt(reps))
        assert spread >= 0.95 * floor
        assert spread <= 1.25 * floor

    test_repetitions_floor = refusal_test("sweep-one-repetition")

    def test_phase_estimates_finite_for_all_invalid_batch(self):
        # frozen bath, raw counts: every beta is invalid, every phase is still a number
        bath = make_bath(beta=50.0, theta=max_theta(100, 2))
        phases = noon_phase_estimates(bath, 2, 20, 50, "fixed_m", RngStream(44), "raw")
        _, betas = run_interferometer_trials(bath, 2, 20, 50, "fixed_m", RngStream(44), "raw")
        assert np.isnan(betas).all()
        assert len(phases) == 50 and np.isfinite(phases).all()


class TestPhaseHandoff:
    """A noon sweep point's phases go to the next identical noon_phase_estimates request."""

    BATH = make_bath(theta=max_theta(100, 8))
    PLAN = SweepPlan("noon", (1, 2, 4, 8), 200, 90, bath=BATH, repetitions=50)

    @pytest.fixture(autouse=True)
    def empty_store(self):
        interferometry._phase_store.clear()
        yield
        interferometry._phase_store.clear()

    def request(self, j, n, **changes):
        """Keyword arguments of point j's phase request, in the engine's parameter order."""
        args = dict(bath=self.BATH, n_atoms=n, repetitions=50, trials=200, mode="fixed_m",
                    rng=RngStream(90, j), estimator="jeffreys")
        return {**args, **changes}

    @staticmethod
    def fresh(args):
        return run_interferometer_trials(*args.values())[0]

    def test_sweep_phases_equal_fresh_simulation(self):
        for mode in BATH_MODES:  # the sampled bath draws its count in the same trial, before the shots
            collect_sweep_records(replace(self.PLAN, bath_mode=mode))
            for j, n in enumerate(self.PLAN.n_values):
                args = self.request(j, n, mode=mode)
                kept = len(interferometry._phase_store)
                phases = noon_phase_estimates(**args)
                assert len(interferometry._phase_store) == kept - 1, mode  # a hit, taken out
                assert phases.tobytes() == self.fresh(args).tobytes(), mode
                # a second identical request misses and simulates the same values
                assert noon_phase_estimates(**args).tobytes() == phases.tobytes(), mode
            assert not interferometry._phase_store, mode

    @pytest.mark.parametrize(
        "changes",
        [
            {"bath": make_bath(beta=1.0, theta=max_theta(100, 8))},
            {"n_atoms": 3},
            {"repetitions": 51},
            {"trials": 199},
            {"mode": "sampled_m"},
            {"estimator": "raw"},
            {"rng": RngStream(90, 2)},
        ],
        ids=lambda changes: next(iter(changes)),
    )
    def test_one_differing_argument_misses(self, changes):
        collect_sweep_records(self.PLAN)
        args = self.request(1, 2, **changes)
        phases = noon_phase_estimates(**args)
        assert len(interferometry._phase_store) == 4
        assert phases.tobytes() == self.fresh(args).tobytes()

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"n_atoms": True}, "n_atoms must be an integer"),
            ({"n_atoms": 2.0}, "n_atoms must be an integer"),
            ({"trials": 200.0}, "count must be an integer"),
            ({"mode": "bogus"}, "bath mode must be one of"),
        ],
    )
    def test_invalid_requests_still_raise(self, changes, match):
        # the sweep keeps points n=1 and n=2 under int keys equal to True and 2.0
        collect_sweep_records(self.PLAN)
        j, n = (0, 1) if changes.get("n_atoms") is True else (1, 2)
        with pytest.raises(ValueError, match=match):
            noon_phase_estimates(**self.request(j, n, **changes))
        assert len(interferometry._phase_store) == 4

    def test_sn_sweep_keeps_nothing(self):
        collect_sweep_records(SweepPlan("sn", (16, 32, 64, 128), 200, 91, bath=self.BATH))
        assert not interferometry._phase_store

    def test_point_above_limit_is_kept_nowhere(self, monkeypatch):
        monkeypatch.setattr(interferometry, "_PHASE_LIMIT", 800)  # the plan's 4 points x 200 trials: kept
        collect_sweep_records(self.PLAN)
        assert len(interferometry._phase_store) == 4
        monkeypatch.setattr(interferometry, "_PHASE_LIMIT", 799)  # one phase short: the sweep keeps none
        collect_sweep_records(self.PLAN)
        assert not interferometry._phase_store

    def test_later_noon_sweep_replaces_earlier_points(self):
        collect_sweep_records(self.PLAN)
        collect_sweep_records(SweepPlan("noon", (1, 2, 4, 8), 200, 95, bath=self.BATH, repetitions=50))
        noon_phase_estimates(**self.request(0, 1))  # the earlier sweep's point misses
        assert len(interferometry._phase_store) == 4
        noon_phase_estimates(**self.request(0, 1, rng=RngStream(95, 0)))  # the later one's hits
        assert len(interferometry._phase_store) == 3
        # an sn sweep, and a noon sweep that aborts at its last point, leave the store as it was
        collect_sweep_records(SweepPlan("sn", (16, 32, 64, 128), 200, 91, bath=self.BATH))
        cold = SweepPlan("noon", (1, 2, 4, 8), 20, 43, bath=make_bath(beta=20.0, theta=self.BATH.theta), estimator="raw")
        pytest.raises(SweepAbortError, collect_sweep_records, cold)  # point n=8 has no valid trial
        assert len(interferometry._phase_store) == 3

    def test_concurrent_sweeps_and_requests(self):
        # more threads than cores, switching often and sharing keys (seed 93 twice),
        # so that a hit races with other threads' sweeps replacing the kept phases
        seeds = (93, 94, 93)
        results, errors = {}, []

        def worker(name):
            try:
                for seed in seeds:
                    plan = SweepPlan("noon", (1, 2, 4, 8), 200, seed, bath=self.BATH, repetitions=50)
                    collect_sweep_records(plan)
                    results[name, seed] = [noon_phase_estimates(**self.request(j, n, rng=RngStream(seed, j)))
                                           for j, n in enumerate(plan.n_values)]
            except Exception as exc:  # reported below, from the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(name,)) for name in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(results) == 8
        for (_, seed), phases in results.items():
            for j, n in enumerate(self.PLAN.n_values):
                assert phases[j].tobytes() == self.fresh(self.request(j, n, rng=RngStream(seed, j))).tobytes()


class TestOutcomeSampling:
    def test_outcome_fields(self):
        bath = make_bath(theta=max_theta(100, 2))
        stream = RngStream(60)
        m, counts, phase, _ = replay_trial(bath, 2, 50, "fixed_m", stream.substream(0).generator())
        assert m == 25
        assert 0 <= counts <= 50
        phases, _ = run_interferometer_trials(bath, 2, 50, 1, "fixed_m", stream)
        assert phases[0] == phase

    def test_fixed_bath_rounds_the_mean_count(self):
        # M * p = 37.75 is no integer: a fixed bath holds m at round(M * p) = 38,
        # not at its floor, in the replay and in the engine alike
        bath = make_bath(beta=0.5)
        assert bath.m_atoms * bath.excitation == pytest.approx(37.75, abs=0.01)
        stream = RngStream(62)
        trials = [replay_trial(bath, 1, 10**4, "fixed_m", stream.substream(t).generator()) for t in range(20)]
        assert {m for m, _, _, _ in trials} == {38}
        phases, _ = run_interferometer_trials(bath, 1, 10**4, 20, "fixed_m", stream)
        assert list(phases) == [phase for _, _, phase, _ in trials]
        assert engine_bath_counts(bath, "fixed_m", 3, stream) == [38] * 3

    def test_sampled_mode_varies_m(self):
        bath = make_bath(beta=0.0)
        stream = RngStream(61)
        trials = [replay_trial(bath, 1, 5, "sampled_m", stream.substream(t).generator()) for t in range(20)]
        ms = {m for m, _, _, _ in trials}
        assert len(ms) > 1
        assert all(0 <= m <= bath.m_atoms for m in ms)
        phases, _ = run_interferometer_trials(bath, 1, 5, 20, "sampled_m", stream)
        assert list(phases) == [phase for _, _, phase, _ in trials]

    def test_sampled_bath_computes_each_port_probability_once(self, monkeypatch):
        # the port probability depends on the drawn bath count alone, of which M = 100 has 101
        calls, port = [], noon_outcome_probability
        monkeypatch.setattr(interferometry, "noon_outcome_probability", lambda *args: calls.append(args) or port(*args))
        run_interferometer_trials(make_bath(), 1, 100, 2000, "sampled_m", RngStream(63))
        assert 1 < len(calls) <= 101


class TestTheoryFormulas:
    def test_sigma_m_unit_case(self):
        assert sigma_m_sn_theory(1.0, 1) == 1.0

    def test_extreme_finite_inputs_still_evaluate(self):
        assert sigma_m_sn_theory(1e-300, 1) == pytest.approx(1e300, rel=1e-15)
        assert max_theta(10**150, 10**150) == pytest.approx((math.pi - 1e-3) / 1e300, rel=1e-15)
        assert 0.0 <= dephasing_visibility(make_bath(theta=1e308), 1) <= 1.0

    def test_sigma_m_cancellation(self):
        assert sigma_m_sn_theory(0.5, 4) == 1.0

    def test_sigma_m_value(self):
        assert sigma_m_sn_theory(math.pi / 200.0, 10**4) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_sigma_beta_sn_symmetry_point(self):
        bath = BathSpec(m_atoms=100, epsilon=1.0, beta_true=0.0, alpha=1.0, tau=1.0)
        # sensitivity of the mean count is 100/4 at the symmetry point
        assert sigma_beta_sn_theory(bath, 1) == pytest.approx(0.04, rel=1e-14)

    def test_sigma_beta_sn_shot_scaling(self):
        bath = make_bath()
        assert sigma_beta_sn_theory(bath, 400) / sigma_beta_sn_theory(bath, 100) == pytest.approx(0.5, rel=1e-14)

    def test_sigma_beta_sn_vanishes_for_huge_bath(self):
        small = sigma_beta_sn_theory(make_bath(m_atoms=100), 10)
        huge = sigma_beta_sn_theory(make_bath(m_atoms=10**9), 10)
        assert huge < small * 1e-6

    def test_heisenberg_vs_sn_quotient(self):
        bath = make_bath()
        for n in (1, 4, 25):
            ratio = sigma_beta_h_theory(bath, n) / sigma_beta_sn_theory(bath, n)
            assert ratio == pytest.approx(1.0 / math.sqrt(n), rel=1e-14)

    def test_heisenberg_equals_sn_for_one_atom(self):
        bath = make_bath()
        assert sigma_beta_h_theory(bath, 1) == pytest.approx(sigma_beta_sn_theory(bath, 1), rel=1e-14)

    def test_heisenberg_one_over_n(self):
        bath = make_bath()
        assert sigma_beta_h_theory(bath, 16) / sigma_beta_h_theory(bath, 4) == pytest.approx(0.25, rel=1e-14)


class TestDephasingVisibility:
    def test_full_turn_keeps_contrast(self):
        bath = make_bath(theta=math.pi / 8.0, m_atoms=10)
        assert dephasing_visibility(bath, 16) == pytest.approx(1.0, rel=1e-12)

    def test_tiny_coupling_keeps_contrast(self):
        bath = make_bath(theta=1e-12, m_atoms=10)
        assert dephasing_visibility(bath, 1) == pytest.approx(1.0, rel=1e-12)

    def test_single_atom_opposite_phasors(self):
        bath = BathSpec(m_atoms=1, epsilon=1.0, beta_true=0.0, alpha=math.pi, tau=1.0)
        assert dephasing_visibility(bath, 1) == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_probability_sum(self):
        # direct 101-term phasor sum at m_atoms=100, quarter population
        bath = make_bath(theta=0.1, beta=LN3)
        p = 0.25
        total = sum(
            math.comb(100, m) * p**m * (1 - p) ** (100 - m) * cmath.exp(1j * 0.1 * m)
            for m in range(101)
        )
        assert dephasing_visibility(bath, 1) == pytest.approx(abs(total), abs=1e-12)

    def test_bounded_and_below_one_when_phase_spreads(self):
        for n, theta in ((1, 0.03), (3, 0.05), (8, 0.01)):
            bath = make_bath(theta=theta)
            v = dephasing_visibility(bath, n)
            assert 0.0 <= v < 1.0

    def test_monotone_nonincreasing_in_bath_size(self):
        values = [
            dephasing_visibility(make_bath(m_atoms=m, theta=0.02), 3) for m in range(1, 60)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monte_carlo_fringe_agrees(self):
        # per-shot bath resampling, reference-phase scan, Fourier amplitude
        bath = make_bath(m_atoms=50, beta=LN3, theta=0.05)
        closed = dephasing_visibility(bath, 3)
        measured = measure_fringe_visibility(bath, 3, 10**5, 20, RngStream(70))
        assert measured == pytest.approx(closed, rel=0.02)


class TestReproducibility:
    def test_batches_reproduce_bitwise(self):
        bath = make_bath()
        a = run_interferometer_trials(bath, 1, 100, 200, "sampled_m", RngStream(80, 2))
        b = run_interferometer_trials(bath, 1, 100, 200, "sampled_m", RngStream(80, 2))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1], equal_nan=True)

    def test_trials_are_schedule_invariant(self):
        stream = RngStream(81)
        # trial t is a function of substream t only: replay in shuffled order,
        # for a resampled bath (with one atom, and with four at half the phase
        # window, whose reference phase delta > 0 enters each trial as
        # delta / n_atoms), for a fixed one (port probability computed once),
        # and for a fixed one read raw at few shots, where counts repeat and
        # some trials are invalid (estimates computed once per distinct count)
        cases = (
            (make_bath(), 1, 50, "sampled_m", "jeffreys"),
            (make_bath(theta=max_theta(100, 8)), 4, 200, "sampled_m", "jeffreys"),
            (make_bath(theta=max_theta(100, 4)), 4, 200, "fixed_m", "jeffreys"),
            (make_bath(), 1, 4, "fixed_m", "raw"),
        )
        for bath, n_atoms, shots, mode, estimator in cases:
            phases, betas = run_interferometer_trials(bath, n_atoms, shots, 64, mode, stream, estimator)
            order = np.random.default_rng(1).permutation(64)
            replay = {
                int(t): replay_trial(bath, n_atoms, shots, mode, stream.substream(int(t)).generator(), estimator)
                for t in order
            }
            assert list(phases) == [replay[t][2] for t in range(64)], (mode, estimator)
            expected = [replay[t][3] for t in range(64)]
            assert np.array_equal(betas, expected, equal_nan=True), (mode, estimator)
            if estimator == "raw":
                assert np.isnan(expected).any() and len({replay[t][1] for t in range(64)}) < 64

    def test_fringe_visibility_is_pinned(self):
        # phase point j draws from substream j of RngStream(2024, 7), so any change to how
        # the scan positions its streams or orders its draws moves this value
        measured = measure_fringe_visibility(make_bath(), 3, 3000, 6, RngStream(2024, 7))
        assert measured == 0.9579227526267448
