"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see every line. The
statistical criteria use frozen master seeds; identical plans reproduce
identical numbers on any machine, so the pass/fail outcomes are stable.
"""

import io
import math
import time

import numpy as np
import pytest

from thermoscale.cli import _verify_checks
from thermoscale.estimators import run_thermalizing_trials
from thermoscale.interferometry import (
    BathSpec,
    dephasing_visibility,
    max_theta,
    measure_fringe_visibility,
    noon_phase_estimates,
    sigma_m_sn_theory,
)
from thermoscale.rng import RngStream
from thermoscale.sweep import (
    MIN_FIT_POINTS,
    SweepPlan,
    bath_intrinsic_sigma,
    collect_sweep_records,
    fit_from_records,
    matched_thermometer_size,
    write_results,
)
from thermoscale.thermal import TwoLevelSpec, doppler_precision, shot_noise_sigma_beta, thermal_summary

LN3 = math.log(3.0)


def check(criterion: str, passed: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_a1_analytic_identities():
    start = time.time()
    h = 1e-5
    worst_fd = worst_fisher = worst_sn = 0.0
    for eps in (0.5, 1.0, 2.0):
        spec = TwoLevelSpec(1, eps)
        for i in range(40):
            x = 0.01 + i * (10.0 - 0.01) / 39
            beta = x / eps
            s = thermal_summary(spec, beta)
            up, down = thermal_summary(spec, beta + h).mean_energy, thermal_summary(spec, beta - h).mean_energy
            slope = (up - down) / (2.0 * h)
            worst_fd = max(worst_fd, abs(-slope - s.energy_variance) / s.energy_variance)
            worst_fisher = max(worst_fisher, abs(s.fisher_info - s.energy_variance))
            for n in (1, 10):
                many = TwoLevelSpec(n, eps)
                product = shot_noise_sigma_beta(many, beta) * math.sqrt(n * s.eps_prime)
                worst_sn = max(worst_sn, abs(product - 1.0))
    elapsed = time.time() - start
    check(
        "A1",
        worst_fd <= 1e-6 and worst_fisher <= 1e-14 and worst_sn <= 1e-12 and elapsed < 1.0,
        f"fd rel {worst_fd:.2e}, fisher gap {worst_fisher:.2e}, "
        f"bound identity gap {worst_sn:.2e}, {elapsed:.2f}s",
    )


def test_a2_oracle_equivalence():
    # the suite `verify` prints: each brute-force oracle against the package's own closed form
    start = time.time()
    rows = _verify_checks()
    elapsed = time.time() - start
    check(
        "A2",
        len(rows) == 4 and all(passed for _, passed, _ in rows) and elapsed < 5.0,
        "; ".join(f"{name}: {'ok' if passed else 'FAIL'}, {detail}" for name, passed, detail in rows)
        + f"; {elapsed:.2f}s",
    )


def test_a3_shot_noise_saturation():
    start = time.time()
    spec = TwoLevelSpec(100, 1.0)
    betas = run_thermalizing_trials(spec, 1.0, 10**5, "jeffreys", RngStream(30301))
    std = float(np.std(betas, ddof=1))
    predicted = shot_noise_sigma_beta(spec, 1.0)
    fisher = thermal_summary(spec, 1.0).fisher_info
    ratio = std / predicted
    var_times_f = std**2 * fisher
    elapsed = time.time() - start
    check(
        "A3",
        abs(ratio - 1.0) <= 0.05 and var_times_f >= 0.95 and elapsed < 10.0,
        f"std/theory {ratio:.4f}, var*F {var_times_f:.4f}, {elapsed:.1f}s",
    )


def csv_bytes(records):
    """The CSV bytes that ``thermoscale sweep`` writes for these records and their fit."""
    sink = io.StringIO()
    write_results(records, fit_from_records(records), "csv", sink)
    return sink.getvalue().encode()


@pytest.fixture(scope="module")
def a4_setup():
    sizes = tuple(16 * 2**i for i in range(9))  # 16 .. 4096
    plan = SweepPlan("thermalizing", sizes, trials_per_n=10**4, master_seed=40404, epsilon=1.0, beta_true=1.0)
    start = time.time()
    records = collect_sweep_records(plan)
    elapsed = time.time() - start
    fit = fit_from_records(records)
    return plan, records, fit, csv_bytes(records), elapsed


def test_a4_thermalizing_scaling(a4_setup):
    _, _, fit, _, elapsed = a4_setup
    check(
        "A4",
        -0.55 <= fit.slope <= -0.45 and fit.r_squared > 0.99 and elapsed < 120.0,
        f"slope {fit.slope:.4f}, r2 {fit.r_squared:.5f}, {elapsed:.1f}s",
    )


def test_a5_heisenberg_scaling():
    # entangled-probe sweep at fixed coupling, the coupling chosen maximal
    # under the phase window at the largest swept size
    start = time.time()
    n_values = (2, 4, 8, 16, 32)
    reps = 200
    bath = BathSpec(m_atoms=10**4, epsilon=1.0, beta_true=1.0, alpha=max_theta(10**4, 32), tau=1.0)
    plan = SweepPlan("noon", n_values, 10**3, master_seed=50505, bath=bath, bath_mode="fixed_m", repetitions=reps)
    # the beta slope is fitted only where the delta-method theory holds: the
    # predicted count spread must stay inside the count's distance to either
    # end of (0, m_atoms). Outside it (weak signal) a count of 0 has
    # positive likelihood, so no unbiased beta estimator exists. Decided from
    # the plan alone, before any trial runs.
    m_fixed = round(bath.m_atoms * bath.excitation)
    headroom = min(m_fixed, bath.m_atoms - m_fixed)
    fit_sizes = [n for n in n_values if sigma_m_sn_theory(n * bath.theta, reps) < headroom]
    records = collect_sweep_records(plan)
    fit = fit_from_records([r for r in records if r.n in fit_sizes])
    excluded = [
        f"N={r.n} (sigma ratio {r.sigma_beta_empirical / r.sigma_beta_theory:.2f}, "
        f"invalid {r.invalid_fraction:.3f})"
        for r in records
        if r.n not in fit_sizes
    ]

    phase_ratios = []
    for j, n in enumerate(n_values):
        phases = noon_phase_estimates(bath, n, reps, 10**3, "fixed_m", RngStream(plan.master_seed, j))
        spread = float(np.std(phases, ddof=1))
        phase_ratios.append(spread * n * math.sqrt(reps))
    elapsed = time.time() - start

    slope_ok = len(fit_sizes) >= MIN_FIT_POINTS and -1.08 <= fit.slope <= -0.92
    phases_ok = all(0.95 <= r <= 1.25 for r in phase_ratios)
    check(
        "A5",
        slope_ok and phases_ok and elapsed < 120.0,
        f"slope {fit.slope:.4f} over N=" + "/".join(str(n) for n in fit_sizes)
        + ", weak-signal sizes excluded: " + (", ".join(excluded) or "none")
        + ", phase-spread ratios "
        + "/".join(f"{r:.2f}" for r in phase_ratios)
        + f", {elapsed:.1f}s",
    )


def test_a6_sn_interferometer_scaling():
    start = time.time()
    bath = BathSpec(m_atoms=10**4, epsilon=1.0, beta_true=1.0, alpha=max_theta(10**4), tau=1.0)
    plan = SweepPlan("sn", (10**2, 10**3, 10**4, 10**5), 10**3, master_seed=60606, bath=bath, bath_mode="fixed_m")
    records = collect_sweep_records(plan)
    fit = fit_from_records(records)
    ratios = [r.sigma_beta_empirical / r.sigma_beta_theory for r in records]
    elapsed = time.time() - start
    check(
        "A6",
        -0.55 <= fit.slope <= -0.45
        and all(abs(r - 1.0) <= 0.15 for r in ratios)
        and elapsed < 120.0,
        f"slope {fit.slope:.4f}, theory ratios "
        + "/".join(f"{r:.3f}" for r in ratios)
        + f", {elapsed:.1f}s",
    )


def test_a7_formula_level_numbers():
    doppler = doppler_precision(1e15, 1.0)
    doppler_ok = abs(doppler - 10.0**-7.5) / 10.0**-7.5 <= 1e-3
    matched = matched_thermometer_size(100, "heisenberg")
    check(
        "A7",
        doppler_ok and matched == 10,
        f"beam precision {doppler:.4e} vs 10^-7.5, matched size {matched}",
    )


def test_a8_dephasing_visibility():
    start = time.time()
    # quarter-populated bath of 50 atoms, accumulated phase step 0.15 per atom
    bath = BathSpec(m_atoms=50, epsilon=1.0, beta_true=LN3, alpha=0.05, tau=1.0)
    closed = dephasing_visibility(bath, 3)
    measured = measure_fringe_visibility(bath, 3, 10**5, 20, RngStream(80808))
    elapsed = time.time() - start
    check(
        "A8",
        abs(measured - closed) / closed <= 0.02 and closed < 1.0 and elapsed < 30.0,
        f"closed {closed:.4f}, measured {measured:.4f}, "
        f"rel err {abs(measured - closed) / closed:.4f}, {elapsed:.1f}s",
    )


def test_a9_bath_intrinsic_floor():
    start = time.time()
    bath = BathSpec(m_atoms=100, epsilon=1.0, beta_true=1.0, alpha=math.pi / 200.0, tau=1.0)
    plan = SweepPlan("sn", (10**2, 10**3, 10**4, 10**5), 2000, master_seed=90909, bath=bath, bath_mode="sampled_m")
    records = collect_sweep_records(plan)
    spreads = [r.sigma_beta_empirical for r in records]
    floor = bath_intrinsic_sigma(100, 1.0, 1.0)
    elapsed = time.time() - start
    check(
        "A9",
        0.5 <= spreads[-1] / floor <= 2.0 and spreads[-1] < 1.2 * spreads[-2] and elapsed < 60.0,
        f"spreads {'/'.join(f'{s:.4f}' for s in spreads)}, floor {floor:.4f}, "
        f"last/floor {spreads[-1] / floor:.3f}, last/prev {spreads[-1] / spreads[-2]:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_a10_determinism(a4_setup):
    plan, _, _, first_bytes, _ = a4_setup
    second_bytes = csv_bytes(collect_sweep_records(plan))  # full re-run, same plan
    check(
        "A10",
        first_bytes == second_bytes,
        f"csv bytes identical across reruns: {first_bytes == second_bytes}",
    )
