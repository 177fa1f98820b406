"""Every refused input of the library, one named row each, and the command lines that reach the same checks.

A row is ``(id, call, fragment)``: ``call()`` raises a ValueError whose message matches the regular
expression ``fragment``. ``CLI_ARGV`` maps a row's id to a command line that reaches the same check;
that command exits 2 with the same message before it draws a stream, prints a line or writes a file.
Rows are named, not numbered, so a row added anywhere renames no other. The rows in ``KEPT`` are checked
by tests in other files, which read them through ``refuses``, ``refusal_test`` and ``refusal_cases`` and keep
the names they had before this table; ``test_library_refuses`` checks every other row. The module imports no
numpy, and ``test_refused_before_numpy`` checks that the calls that import it refuse before they do.
"""

import math
import sys
from functools import partial

import pytest

from thermoscale.estimators import estimate_beta_from_count, run_thermalizing_trials
from thermoscale.interferometry import (
    BathSpec, dephasing_visibility, max_theta, measure_fringe_visibility, noon_outcome_probability, reference_phase,
    require_phase_window, run_interferometer_trials, sigma_beta_h_theory, sigma_beta_sn_theory, sigma_m_sn_theory,
)
from thermoscale.rng import RngStream
from thermoscale.sweep import (
    SweepPlan, bath_intrinsic_sigma, collect_sweep_records, fig1_curves, fit_power_law, matched_thermometer_size,
)
from thermoscale.thermal import (
    TwoLevelSpec, cr_bound_sigma, doppler_precision, excitation_probability, invert_mean_fraction,
    shot_noise_sigma_beta, thermal_summary,
)

LN3 = math.log(3.0)
BATH = BathSpec(100, 1.0, 1.0, math.pi / 200, 1.0)
SIZES = (16, 32, 64, 128)
NOON_BATH = BathSpec(100, 1.0, 1.0, max_theta(100, 8), 1.0)
SN_BATH = BathSpec(100, 1.0, 1.0, 0.01, 1.0)
HUGE_BATH = BathSpec(2**63, 1.0, 1.0, 1e-30, 1.0)
FIT_POINTS = [(1, 1.0), (2, 0.5), (4, 0.25)]
INT64 = r"must be below 2\*\*63, got 9223372036854775808"  # numpy's binomial takes its n as an int64


def make_bath(m_atoms=100, beta=LN3, theta=math.pi / 200.0):
    return BathSpec(m_atoms=m_atoms, epsilon=1.0, beta_true=beta, alpha=theta, tau=1.0)


def fringe(n_atoms=1, shots=1000, points=10):
    return measure_fringe_visibility(BATH, n_atoms, shots, points, RngStream(1))


def engine(n_atoms=1, shots=10, mode="sampled_m", bath=None, trials=10, estimator="jeffreys"):
    return run_interferometer_trials(bath or make_bath(), n_atoms, shots, trials, mode, RngStream(1), estimator)


def binomials(count):
    return RngStream._binomials(count, [(RngStream(9), 10, 0.5)])


def plan(protocol="thermalizing", n_values=SIZES, trials=10, seed=0, **fields):
    """``validate()`` of a plan; a thermalizing one has beta_true 1 and a noon one the noon bath and 8
    repetitions, unless ``fields`` say otherwise."""
    defaults = {"thermalizing": {"beta_true": 1.0}, "noon": {"bath": NOON_BATH, "repetitions": 8}}
    return SweepPlan(protocol, n_values, trials, seed, **{**defaults.get(protocol, {}), **fields}).validate()


REFUSALS = [
    # counts that are no integers: numpy would draw Binomial(2, p) for 2.5 shots, a fractional atom number would
    # give a visibility above 1 (1.012 for 1.5 atoms) or a port probability (0.866 for 2.5), a fractional bath size
    # would raise TypeError, and a count of 2.5 would be read as a fraction of 2.5 / 10; a bool is an int subclass but
    # no count, and would be returned as a size or give a probability (0.978 for True atoms)
    ("engine-fractional-shots", lambda: engine(shots=2.5), "shots must be an integer"),
    ("engine-fractional-atoms-fixed", lambda: engine(n_atoms=1.5, mode="fixed_m"), "n_atoms must be an integer"),
    ("engine-fractional-atoms-sampled", lambda: engine(n_atoms=1.5), "n_atoms must be an integer"),
    ("bath-bool-atoms", lambda: make_bath(m_atoms=True), "m_atoms must be an integer"),
    ("bath-float-atoms", lambda: make_bath(m_atoms=100.0), "m_atoms must be an integer"),
    ("fringe-fractional-atoms", lambda: fringe(n_atoms=1.5), "must be an integer"),
    ("fringe-bool-atoms", lambda: fringe(n_atoms=True), "must be an integer"),
    ("fringe-fractional-shots", lambda: fringe(shots=1000.5), "must be an integer"),
    ("fringe-fractional-points", lambda: fringe(points=10.5), "must be an integer"),
    ("dephasing-fractional-atoms", lambda: dephasing_visibility(BATH, 1.5), "must be an integer"),
    ("dephasing-bool-atoms", lambda: dephasing_visibility(BATH, True), "must be an integer"),
    ("max-theta-fractional-bath", lambda: max_theta(100.5, 1), "must be an integer"),
    ("max-theta-fractional-atoms", lambda: max_theta(100, 1.5), "must be an integer"),
    ("max-theta-bool-bath", lambda: max_theta(True, 2), "must be an integer"),
    ("reference-phase-fractional-atoms", lambda: reference_phase(BATH, 1.5), "must be an integer"),
    ("window-bool-atoms", lambda: require_phase_window(BATH, True), "must be an integer"),
    ("window-float-atoms", lambda: require_phase_window(BATH, 2.0), "must be an integer"),
    ("sigma-h-fractional-atoms", lambda: sigma_beta_h_theory(BATH, 2.5), "must be an integer"),
    ("sigma-m-fractional-shots", lambda: sigma_m_sn_theory(0.1, 10.5), "must be an integer"),
    ("sigma-m-bool-shots", lambda: sigma_m_sn_theory(0.1, True), "must be an integer"),
    ("matched-fractional-bath", lambda: matched_thermometer_size(2.5, "heisenberg"), "m_atoms must be an integer"),
    ("matched-bool-bath", lambda: matched_thermometer_size(True, "shot_noise"), "m_atoms must be an integer"),
    ("port-fractional-atoms", lambda: noon_outcome_probability(2.5, 0.3), "n_atoms must be an integer"),
    ("port-bool-atoms", lambda: noon_outcome_probability(True, 0.3), "n_atoms must be an integer"),
    ("spec-bool-atoms", lambda: TwoLevelSpec(True, 1.0), "n_atoms must be an integer"),
    ("spec-float-atoms", lambda: TwoLevelSpec(2.0, 1.0), "n_atoms must be an integer"),
    ("spec-fractional-atoms", lambda: TwoLevelSpec(1.5, 1.0), "n_atoms must be an integer"),
    ("cr-bound-fractional-repetitions", lambda: cr_bound_sigma(4.0, 2.5), "repetitions must be an integer"),
    ("cr-bound-bool-repetitions", lambda: cr_bound_sigma(4.0, True), "repetitions must be an integer"),
    ("count-fractional", lambda: estimate_beta_from_count(2.5, 10, 1.0), "count must be an integer"),
    ("count-fractional-atoms", lambda: estimate_beta_from_count(5, 10.5, 1.0), "n_atoms must be an integer"),
    ("fit-fractional-size", lambda: fit_power_law([*FIT_POINTS, (8.5, 0.1)]), "each n must be an integer"),
    ("stream-fractional-seed", lambda: RngStream(1.5), "master_seed must be an integer"),
    ("stream-bool-seed", lambda: RngStream(True), "master_seed must be an integer"),
    ("stream-string-seed", lambda: RngStream("1"), "master_seed must be an integer"),
    ("stream-fractional-index", lambda: RngStream(0, 1.5), "stream_index must be an integer"),
    ("stream-bool-index", lambda: RngStream(0, True), "stream_index must be an integer"),
    ("stream-string-index", lambda: RngStream(0, "1"), "stream_index must be an integer"),
    ("substream-fractional", lambda: RngStream(0).substream(1.5), "substream index must be an integer"),
    ("substream-bool", lambda: RngStream(0).substream(True), "substream index must be an integer"),
    ("substream-string", lambda: RngStream(0).substream("1"), "substream index must be an integer"),
    ("generators-fractional-count", lambda: RngStream(9, 0).generators(2.5), "count must be an integer, got 2.5"),
    ("binomials-fractional-count", lambda: binomials(2.5), "count must be an integer, got 2.5"),
    ("binomials-bool-count", lambda: binomials(True), "count must be an integer, got True"),
    # counts outside their range, refused at the call and not at the first next() or draw: an atom number below
    # 1 would give a visibility (0.964 for 0 and 0.989 for -2)
    ("fringe-zero-atoms", lambda: fringe(n_atoms=0), "n_atoms must be at least 1"),
    ("fringe-negative-atoms", lambda: fringe(n_atoms=-2), "n_atoms must be at least 1"),
    ("spec-zero-atoms", lambda: TwoLevelSpec(0, 1.0), "n_atoms must be at least 1"),
    ("count-above-atoms", lambda: estimate_beta_from_count(11, 10, 1.0), r"count 11 outside \[0, 10\]"),
    ("count-negative", lambda: estimate_beta_from_count(-1, 10, 1.0), r"count -1 outside \[0, 10\]"),
    ("stream-negative-seed", lambda: RngStream(-1), "master_seed must be a 64-bit unsigned integer, got -1"),
    ("stream-seed-beyond-64-bits", lambda: RngStream(2**64), "master_seed must be a 64-bit unsigned integer"),
    ("stream-index-beyond-128-bits", lambda: RngStream(0, 2**128), "stream_index must fit in 128 bits"),
    ("substream-beyond-32-bits", lambda: RngStream(0).substream(2**32), "substream index must fit in 32 bits"),
    ("substream-negative", lambda: RngStream(0).substream(-1), "substream index must fit in 32 bits, got -1"),
    # a range running past the last 128-bit index, and a count whose position 2**32 would be the next stream's
    ("generators-negative-count", lambda: RngStream(0).generators(-1), r"count must lie in \[0, 2\*\*32\], got -1"),
    ("generators-beyond-128-bits", lambda: RngStream(0, 2**96 - 1).generators(2**32 + 1), "got 4294967297"),
    ("generators-one-past-128-bits", lambda: RngStream(0, 2**96).generators(1), "exceeds the 128-bit index space"),
    ("generators-into-the-next-stream", lambda: RngStream(9, 0).generators(2**32 + 1), "got 4294967297"),
    ("binomials-negative-count", lambda: binomials(-1), r"count must lie in \[0, 2\*\*32\], got -1"),
    ("binomials-count-beyond-stream",
     lambda: binomials(2**32 + 1), r"count must lie in \[0, 2\*\*32\], got 4294967297"),
    # integers that float() refuses, and counts that numpy's binomial, which takes its n as an int64, would
    # refuse with an OverflowError at the first draw
    ("spec-atoms-beyond-float", lambda: TwoLevelSpec(10**400, 1.0), "n_atoms must convert to a float"),
    ("bath-atoms-beyond-float", lambda: BathSpec(10**400, 1.0, 1.0, 0.05, 1.0), "m_atoms must convert to a float"),
    ("max-theta-product-beyond-float",
     lambda: max_theta(10**200, 10**200), r"n_atoms \* m_atoms must convert to a float"),
    ("thermalizing-engine-size-beyond-int64",
     lambda: run_thermalizing_trials(TwoLevelSpec(2**63, 1.0), 1.0, 5, "jeffreys", RngStream(1)), INT64),
    ("engine-sampled-bath-beyond-int64", lambda: engine(bath=HUGE_BATH, trials=5), INT64),
    ("fringe-bath-beyond-int64", lambda: measure_fringe_visibility(HUGE_BATH, 1, 30, 3, RngStream(1)), INT64),
    ("engine-shots-beyond-int64", lambda: engine(shots=2**63, bath=SN_BATH, trials=5), INT64),
    # reals outside their domain: an infinite real would be accepted, or give a spread of 0.0; a NaN phase
    # would give NaN, and an infinite one a bare "math domain error"
    ("bath-infinite-epsilon",
     lambda: BathSpec(100, math.inf, 1.0, 0.01, 1.0), "epsilon must be a positive finite real"),
    ("bath-infinite-beta",
     lambda: BathSpec(100, 1.0, math.inf, 0.01, 1.0), "beta_true must be a nonnegative finite real"),
    ("bath-infinite-alpha", lambda: BathSpec(100, 1.0, 1.0, math.inf, 1.0), "alpha must be a positive finite real"),
    ("bath-infinite-tau", lambda: BathSpec(100, 1.0, 1.0, 0.01, math.inf), "tau must be a positive finite real"),
    ("sigma-m-infinite-theta", lambda: sigma_m_sn_theory(math.inf, 3), "theta must be a positive finite real"),
    ("port-nan-phase", lambda: noon_outcome_probability(2, math.nan), "finite phi_b"),
    ("port-infinite-phase", lambda: noon_outcome_probability(2, math.inf), "finite phi_b"),
    ("spec-negative-epsilon", lambda: TwoLevelSpec(3, -1.0), "epsilon must be a positive finite real"),
    ("summary-negative-beta", lambda: thermal_summary(TwoLevelSpec(1, 1.0), -0.5), "beta must be a nonnegative"),
    ("excitation-zero-epsilon", lambda: excitation_probability(0.0, 1.0), "epsilon must be a positive finite real"),
    ("excitation-infinite-epsilon",
     lambda: excitation_probability(math.inf, 0.0), "epsilon must be a positive finite real"),
    ("excitation-negative-beta", lambda: excitation_probability(1.0, -0.1), "beta must be a nonnegative finite real"),
    ("invert-infinite-epsilon", lambda: invert_mean_fraction(0.3, math.inf), "epsilon must be a positive finite real"),
    ("cr-bound-nan-fisher", lambda: cr_bound_sigma(math.nan), "fisher_info must be a nonnegative finite real"),
    ("cr-bound-infinite-fisher", lambda: cr_bound_sigma(math.inf), "fisher_info must be a nonnegative finite real"),
    ("doppler-zero-rate", lambda: doppler_precision(0.0, 1.0), "atom_rate must be a positive finite real"),
    ("doppler-infinite-rate", lambda: doppler_precision(math.inf, 1.0), "atom_rate must be a positive finite real"),
    ("doppler-zero-time", lambda: doppler_precision(1.0, 0.0), "integration_time must be a positive finite real"),
    ("doppler-infinite-time",
     lambda: doppler_precision(1.0, math.inf), "integration_time must be a positive finite real"),
    # a finite input whose closed form leaves the floats would give inf, NaN, 0.0 or an unnamed error: sigma_m
    # overflows, |d<m>/dbeta| overflows (a spread of 0.0), the product alpha * tau (a ZeroDivisionError in the
    # engine), eps_prime = epsilon**2 * p * (1 - p) overflows, or is inf * 0 once beta * epsilon is infinite
    ("sigma-m-overflow", lambda: sigma_m_sn_theory(5e-324, 1), "sigma_m must be a positive finite real, got inf"),
    ("sigma-sn-theta-underflow", lambda: sigma_beta_sn_theory(make_bath(theta=5e-324), 1), "sigma_m .* got inf"),
    ("sigma-h-theta-underflow", lambda: sigma_beta_h_theory(make_bath(theta=5e-324), 1), "sigma_beta .* got inf"),
    ("sigma-sn-huge-bath-overflow",
     lambda: sigma_beta_sn_theory(BathSpec(10**300, 1e10, 1e-310, 1e-310, 1.0), 1), "sigma_m .* got inf"),
    ("sigma-sn-no-response",
     lambda: sigma_beta_sn_theory(BathSpec(10**300, 1e10, 1e-310, 0.01, 1.0), 1), r"sigma_beta .* got 0\.0"),
    ("sigma-h-no-response",
     lambda: sigma_beta_h_theory(BathSpec(10**300, 1e10, 1e-310, 0.01, 1.0), 2), r"sigma_beta .* got 0\.0"),
    ("dephasing-phase-overflow",
     lambda: dephasing_visibility(make_bath(theta=1e308), 3), r"n_atoms \* theta must be a positive"),
    ("bath-coupling-underflow",
     lambda: BathSpec(100, 1.0, 1.0, 1e-200, 1e-200), r"alpha \* tau must be a positive finite real, got 0\.0"),
    ("bath-coupling-overflow",
     lambda: BathSpec(100, 1.0, 1.0, 1e200, 1e200), r"alpha \* tau must be a positive finite real, got inf"),
    ("summary-variance-overflow",
     lambda: thermal_summary(TwoLevelSpec(3, 1e200), 1e-300), "energy_variance .* got inf"),
    ("summary-variance-nan", lambda: thermal_summary(TwoLevelSpec(3, 1e308), 1e308), "energy_variance .* got nan"),
    ("summary-mean-overflow", lambda: thermal_summary(TwoLevelSpec(10**300, 1e10), 0.0), "mean_energy .* got inf"),
    ("shot-noise-variance-overflow",
     lambda: shot_noise_sigma_beta(TwoLevelSpec(3, 1e200), 1e-300), "energy_variance .* got inf"),
    ("bath-floor-variance-overflow", lambda: bath_intrinsic_sigma(3, 1e200, 1e-300), "energy_variance .* got inf"),
    ("cr-bound-product-overflow",
     lambda: cr_bound_sigma(1e308, 10), r"repetitions \* fisher_info must be a positive finite real"),
    ("doppler-product-underflow",
     lambda: doppler_precision(1e-200, 1e-200), r"atom_rate \* integration_time .* got 0\.0"),
    ("doppler-product-overflow", lambda: doppler_precision(1e200, 1e200), r"atom_rate \* integration_time .* got inf"),
    ("fig1-no-response", lambda: fig1_curves(1.0, [0.0, 800.0]), r"p \* \(1 - p\) underflowed to zero"),
    ("cr-bound-zero-fisher", lambda: cr_bound_sigma(0.0, 10), "fisher_info is zero"),
    # inputs that have no estimate: a port fraction at a fringe extremum, too few or equal sizes for a slope, and
    # a NaN or infinite spread, which would give an all-NaN fit
    ("invert-zero-fraction", lambda: invert_mean_fraction(0.0, 1.0), r"on or outside \(0, 1\)"),
    ("invert-unit-fraction", lambda: invert_mean_fraction(1.0, 1.0), r"on or outside \(0, 1\)"),
    ("invert-nan-fraction", lambda: invert_mean_fraction(math.nan, 1.0), r"on or outside \(0, 1\)"),
    ("fit-three-points", lambda: fit_power_law(FIT_POINTS), "need at least 4 points to fit, got 3"),
    ("fit-one-size", lambda: fit_power_law([(2, 1.0)] * 3 + [(2, 2.0)]), "two distinct sizes"),
    ("fit-negative-spread", lambda: fit_power_law([*FIT_POINTS, (8, -0.1)]), "each sigma must be a positive finite"),
    ("fit-nan-spread", lambda: fit_power_law([*FIT_POINTS, (8, math.nan)]), "sigma"),
    ("fit-infinite-spread", lambda: fit_power_law([*FIT_POINTS, (8, math.inf)]), "sigma"),
    ("matched-unknown-regime", lambda: matched_thermometer_size(10, "quantum"), "regime must be 'shot_noise' or"),
    ("fig1-empty-grid", lambda: fig1_curves(1.0, []), "beta_grid must be nonempty"),
    # the phase window: the worst-case accumulated phase must stay below pi - 1e-3
    ("window-wide-coupling",
     lambda: require_phase_window(make_bath(theta=math.pi / 100.0), 1), r"phase window violated.*pi - 0\.001"),
    ("engine-wide-coupling",
     lambda: engine(bath=make_bath(theta=math.pi / 100.0), mode="fixed_m", trials=2), "phase window violated"),
    ("engine-noon-wide-coupling",
     lambda: engine(4, bath=make_bath(theta=math.pi / 250.0), mode="fixed_m", trials=2), "phase window violated"),
    # sweep plans, refused by validate() before any trial
    ("plan-unknown-protocol", lambda: plan("cooling", (1, 2, 3, 4), beta_true=1.0), "unknown protocol 'cooling'"),
    ("plan-three-sizes", lambda: plan(n_values=(16, 32, 64)), "need at least 4 sweep sizes for a fit, got 3"),
    ("plan-repeated-size", lambda: plan(n_values=(16, 32, 32, 64)), "n_values must be strictly increasing"),
    ("plan-fractional-size", lambda: plan("noon", (1.5, 2, 4, 8)), "each of n_values must be an integer, got 1.5"),
    ("plan-missing-beta", lambda: plan(beta_true=None), "beta_true must be a nonnegative finite real, got None"),
    ("plan-nan-beta", lambda: plan(beta_true=math.nan), "must be a .* finite real"),
    ("plan-infinite-beta", lambda: plan(beta_true=math.inf), "must be a .* finite real"),
    ("plan-infinite-epsilon", lambda: plan(epsilon=math.inf), "must be a .* finite real"),
    ("plan-missing-bath", lambda: plan("sn"), "sn sweep needs a bath specification"),
    ("plan-unknown-estimator", lambda: plan(trials=20, seed=7, estimator="bogus"), "estimator must be one of"),
    ("plan-negative-seed", lambda: plan(seed=-1), "master_seed must be a 64-bit unsigned integer, got -1"),
    ("plan-seed-beyond-64-bits",
     lambda: plan(seed=2**64), f"master_seed must be a 64-bit unsigned integer, got {2**64}"),
    ("plan-fractional-seed", lambda: plan(seed=1.5), "master_seed must be an integer, got 1.5"),
    ("plan-bool-seed", lambda: plan(seed=True), "master_seed must be an integer, got True"),
    # trial t draws substream t of its point's stream, which has 2**32 of them; a spread needs two trials
    ("plan-one-trial", lambda: plan(trials=1), "trials_per_n must be at least 2, got 1"),
    ("plan-trials-beyond-stream",
     lambda: plan(trials=2**32 + 1), r"trials_per_n must lie in \[2, 2\*\*32\], got 4294967297"),
    ("plan-fractional-trials", lambda: plan(trials=10.5), "trials_per_n must be an integer, got 10.5"),
    ("plan-fractional-repetitions",
     lambda: plan("noon", (1, 2, 4, 8), repetitions=2.5), "repetitions must be an integer, got 2.5"),
    ("sweep-one-repetition", lambda: collect_sweep_records(SweepPlan(
        "noon", (1, 2, 3, 4), 10, 1, bath=make_bath(theta=max_theta(100, 4)), repetitions=1)),
     "repetitions must be at least 2, got 1"),
    # every count that a trial hands numpy's binomial as n
    ("plan-thermalizing-size-beyond-int64", lambda: plan(n_values=(16, 32, 64, 2**63)), r"each of n_values " + INT64),
    ("plan-sn-size-beyond-int64", lambda: plan("sn", (16, 32, 64, 2**63), bath=SN_BATH), INT64),
    ("plan-noon-repetitions-beyond-int64", lambda: plan("noon", (1, 2, 4, 8), repetitions=2**63), INT64),
    ("plan-sampled-bath-size-beyond-int64",
     lambda: plan("sn", bath=HUGE_BATH, bath_mode="sampled_m"), INT64),
    # validate computes every point's theory, so a closed form with no temperature response, or one that
    # leaves the floats, is refused there and not one call later
    ("plan-noon-no-response", lambda: plan("noon", (2, 4, 8, 16), 20, 1, bath=BathSpec(100, 1.0, 800.0, 0.001, 1.0),
                                           repetitions=10), r"d<m>/dbeta of the bath underflowed"),
    ("plan-thermalizing-no-response",
     lambda: plan(trials=20, seed=1, beta_true=800.0), "eps_prime underflowed to zero"),
    ("plan-thermalizing-variance-overflow",
     lambda: plan(trials=20, seed=1, epsilon=1e200, beta_true=1e-300), "energy_variance .* got inf"),
    ("plan-sn-sigma-m-overflow",
     lambda: plan("sn", (10, 20, 30, 40), 50, 1, bath=BathSpec(100, 1.0, 1.0, 5e-324, 1.0)), "sigma_m"),
    ("plan-phase-window-at-largest-size", lambda: plan("noon", (2, 4, 8, 16)), "phase window violated"),
]

# modes are the lower-case strings exactly; nothing may fall back to a default, in any entry point that takes one
MODE_BATH = BathSpec(100, 1.0, 1.0, max_theta(100), 1.0)
ESTIMATOR_TAKERS = {
    "count": lambda mode: estimate_beta_from_count(5, 10, 1.0, mode),
    "thermalizing-engine": lambda mode: run_thermalizing_trials(TwoLevelSpec(10, 1.0), 1.0, 20, mode, RngStream(1)),
    "engine": lambda mode: engine(bath=MODE_BATH, trials=20, mode="fixed_m", estimator=mode),
    "plan": lambda mode: plan(trials=20, seed=1, estimator=mode),
    "sn-plan": lambda mode: plan("sn", trials=20, seed=1, bath=MODE_BATH, estimator=mode),
}
BATH_MODE_TAKERS = {
    "engine": lambda mode: engine(bath=MODE_BATH, trials=20, mode=mode),
    "sn-plan": lambda mode: plan("sn", trials=20, seed=1, bath=MODE_BATH, bath_mode=mode),
}
REFUSALS += [(f"{where}-estimator-{mode}", partial(take, mode), "estimator must be one of")
             for where, take in ESTIMATOR_TAKERS.items() for mode in ("bogus", "JEFFREYS")]
REFUSALS += [(f"{where}-bath-mode-{mode}", partial(take, mode), "mode must be one of")
             for where, take in BATH_MODE_TAKERS.items() for mode in ("bogus", "JEFFREYS", "FIXED_M")]

# rows that a test in another file checks under the name it had before this table; the rest are checked here
KEPT = {
    # tests/test_interferometry.py
    "engine-fractional-shots", "engine-fractional-atoms-fixed", "engine-fractional-atoms-sampled", "bath-bool-atoms",
    "bath-float-atoms", "sweep-one-repetition", "window-wide-coupling", "engine-wide-coupling",
    "engine-noon-wide-coupling",
    # tests/test_estimators.py
    "count-fractional", "count-fractional-atoms", "count-above-atoms", "count-negative",
    *(f"{where}-estimator-{mode}" for where in ESTIMATOR_TAKERS for mode in ("bogus", "JEFFREYS")),
    *(f"{where}-bath-mode-{mode}" for where in BATH_MODE_TAKERS for mode in ("bogus", "JEFFREYS", "FIXED_M")),
    # tests/test_rng.py
    "stream-negative-seed", "stream-seed-beyond-64-bits", "stream-index-beyond-128-bits", "substream-beyond-32-bits",
    "substream-negative", "stream-fractional-seed", "stream-bool-seed", "stream-string-seed", "stream-fractional-index",
    "stream-bool-index", "stream-string-index", "substream-fractional", "substream-bool", "substream-string",
    "generators-negative-count", "generators-beyond-128-bits", "generators-one-past-128-bits",
    "generators-into-the-next-stream", "generators-fractional-count", "binomials-negative-count",
    "binomials-count-beyond-stream", "binomials-fractional-count", "binomials-bool-count",
    "thermalizing-engine-size-beyond-int64", "engine-sampled-bath-beyond-int64", "fringe-bath-beyond-int64",
    "engine-shots-beyond-int64",
    # tests/test_sweep.py
    "fit-three-points", "fit-negative-spread", "fit-nan-spread", "fit-infinite-spread", "fit-fractional-size",
    "fit-one-size", "matched-unknown-regime", "fig1-empty-grid", "plan-unknown-protocol", "plan-three-sizes",
    "plan-repeated-size", "plan-missing-beta", "plan-missing-bath", "plan-unknown-estimator", "plan-one-trial",
    "plan-trials-beyond-stream", "plan-fractional-trials", "plan-fractional-size", "plan-fractional-repetitions",
    "plan-negative-seed", "plan-seed-beyond-64-bits", "plan-fractional-seed", "plan-bool-seed", "plan-nan-beta",
    "plan-infinite-beta", "plan-infinite-epsilon", "plan-thermalizing-size-beyond-int64", "plan-sn-size-beyond-int64",
    "plan-noon-repetitions-beyond-int64", "plan-sampled-bath-size-beyond-int64", "plan-noon-no-response",
    "plan-thermalizing-no-response", "plan-sn-sigma-m-overflow", "plan-phase-window-at-largest-size",
    # tests/test_thermal.py
    "excitation-zero-epsilon", "excitation-negative-beta", "spec-zero-atoms", "spec-negative-epsilon",
    "summary-negative-beta", "cr-bound-fractional-repetitions", "cr-bound-bool-repetitions", "cr-bound-nan-fisher",
    "cr-bound-infinite-fisher", "doppler-infinite-rate", "doppler-infinite-time", "excitation-infinite-epsilon",
    "invert-infinite-epsilon", "summary-variance-overflow", "summary-variance-nan", "summary-mean-overflow",
    "shot-noise-variance-overflow", "bath-floor-variance-overflow", "cr-bound-product-overflow",
    "doppler-product-underflow", "doppler-product-overflow", "spec-bool-atoms", "spec-float-atoms",
    "spec-fractional-atoms", "invert-zero-fraction", "invert-unit-fraction", "invert-nan-fraction",
    "cr-bound-zero-fisher", "doppler-zero-rate", "doppler-zero-time",
}
ROWS = {name: (call, fragment) for name, call, fragment in REFUSALS}


def refuses(*names):
    """Checks that the call of each named row raises ValueError with the row's message fragment."""
    for name in names:
        call, fragment = ROWS[name]
        with pytest.raises(ValueError, match=fragment):
            call()


# The tests below are bound as methods in a test class or collected as functions of a test module; the
# positional-only parameter takes the test class instance, so pytest does not read it as a fixture.
def refusal_test(*names):
    """A test that checks the named rows."""
    def test(_=None, /):
        refuses(*names)
    return test


def refusal_cases(cases):
    """A test with one case per key of ``cases``, which checks the row, or the rows, that its value names."""
    @pytest.mark.parametrize("rows", [(rows,) if isinstance(rows, str) else rows for rows in cases.values()],
                             ids=list(cases))
    def test(_=None, /, *, rows):
        refuses(*rows)
    return test


@pytest.mark.parametrize("call, fragment", [
    pytest.param(call, fragment, id=name) for name, call, fragment in REFUSALS if name not in KEPT
])
def test_library_refuses(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


# the rows of the calls that import numpy once their arguments pass: the fit, the fringe scan and the
# thermalizing engine; with numpy blocked, a check made after the import would raise ModuleNotFoundError
@pytest.mark.parametrize("call, fragment", [
    pytest.param(call, fragment, id=name)
    for name, call, fragment in REFUSALS if name.startswith(("fit-", "fringe-", "thermalizing-engine-"))
])
def test_refused_before_numpy(call, fragment, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match=fragment):
        call()


# the command line of each row that one reaches, run where it would write its --out file; tests/test_cli.py runs them
CLI_ARGV = {
    "summary-variance-overflow": "stats --epsilon 1e200 --beta 1e-300 --n 3",
    "summary-variance-nan": "stats --epsilon 1e308 --beta 1e308 --n 3",
    "spec-atoms-beyond-float": f"stats --epsilon 1 --beta 1 --n {10**400}",
    "fig1-no-response": "fig1 --epsilon 1 --beta-max 800 --points 2 --out f.csv",
    "dephasing-phase-overflow": "dephasing --bath-m 100 --theta 1e308 --n 3 --beta-true 1",
    "bath-atoms-beyond-float": f"dephasing --bath-m {10**400} --theta 0.05 --n 3 --beta-true 1",
    "plan-thermalizing-no-response":
        "sweep --protocol thermalizing --n-values 16,32,64,128 --trials 20 --beta-true 800 --seed 1 --out x.csv",
    "plan-thermalizing-variance-overflow": "sweep --protocol thermalizing --n-values 16,32,64,128 --trials 20 "
                                           "--epsilon 1e200 --beta-true 1e-300 --seed 1 --out x.csv",
    "plan-thermalizing-size-beyond-int64":
        f"sweep --protocol thermalizing --n-values 16,32,64,{2**63} --trials 20 --beta-true 1 --seed 7 --out x.csv",
    "plan-sn-sigma-m-overflow": "sweep --protocol sn --n-values 10,20,30,40 --trials 50 --bath-m 100 --alpha 5e-324 "
                                "--tau 1 --beta-true 1 --seed 1 --out x.csv",
    "plan-noon-no-response": "sweep --protocol noon --n-values 2,4,8,16 --trials 20 --reps 10 --bath-m 100 "
                             "--alpha 0.001 --tau 1 --beta-true 800 --seed 1 --out x.csv",
    "bath-coupling-underflow": "sweep --protocol noon --n-values 2,4,8,16 --trials 20 --reps 10 --bath-m 100 "
                               "--alpha 1e-200 --tau 1e-200 --beta-true 1 --seed 1 --out x.csv",
}


def test_ids_are_names(request):
    # a positional id (pytest's "<lambda>3") changes when a row is inserted above it
    assert [item.nodeid for item in request.session.items if "<lambda>" in item.nodeid] == []
    names = [name for name, _, _ in REFUSALS]
    assert len(set(names)) == len(names) and set(CLI_ARGV) | KEPT <= set(names)
