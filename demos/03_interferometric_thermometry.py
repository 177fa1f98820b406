"""Thermometry without thermalizing: read the bath through a phase.

A probe atom crossing the interferometer arm that holds the bath picks up a
phase proportional to the number of excited bath atoms. Counting detector
clicks over many single-atom shots estimates that phase, hence the excited
count, hence the inverse temperature. The demo shows the deterministic
inversion chain, the shot-noise scaling in the number of passes, and the
floor set by the bath's own finite size.
"""

import math

import numpy as np

from thermoscale import (
    BathSpec,
    RngStream,
    SweepPlan,
    bath_intrinsic_sigma,
    collect_sweep_records,
    fit_power_law,
    max_theta,
    noon_outcome_probability,
    reference_phase,
    run_interferometer_trials,
    sigma_beta_sn_theory,
)

LN3 = math.log(3.0)

print("=== The inversion chain, fed exact inputs ===")
bath = BathSpec(m_atoms=100, epsilon=1.0, beta_true=LN3, alpha=math.pi / 200.0, tau=1.0)
m_true = 25  # a quarter of the bath is excited at beta = ln 3
# the readout adds a known reference phase that centres every possible
# accumulated phase in the invertible window, so the fringe is read mid-slope
delta = reference_phase(bath, 1)
p_true = noon_outcome_probability(1, bath.theta * m_true + delta)
print(f"true excited count {m_true}, accumulated phase {bath.theta * m_true:.5f} rad")
print(f"reference phase {delta:.5f} rad, bright-port probability {p_true:.6f}")
# invert: the port fraction gives the phase, the phase the excited count, and
# the count's thermal mean relation the inverse temperature
phi_hat = 2.0 * math.acos(math.sqrt(p_true)) - delta
m_hat = phi_hat / bath.theta
beta_hat = math.log(bath.m_atoms / m_hat - 1.0) / bath.epsilon
print(f"recovered beta {beta_hat:.9f} (truth {LN3:.9f})")

print()
print("=== Isolated bath: spread falls with the number of passes ===")
bath = BathSpec(m_atoms=10**4, epsilon=1.0, beta_true=1.0, alpha=max_theta(10**4), tau=1.0)
plan = SweepPlan(
    protocol="sn",
    n_values=(100, 1000, 10000, 100000),
    trials_per_n=600,
    master_seed=303,
    bath=bath,
    bath_mode="fixed_m",
)
records = collect_sweep_records(plan)
print(f"{'passes':>7} {'empirical':>10} {'theory':>10}")
for r in records:
    print(f"{r.n:7d} {r.sigma_beta_empirical:10.6f} {r.sigma_beta_theory:10.6f}")
fit = fit_power_law([(r.n, r.sigma_beta_empirical) for r in records])
print(f"fitted exponent {fit.slope:+.4f} (shot-noise value is -0.5)")

print()
print("=== Fluctuating bath: the spread plateaus at the bath's own floor ===")
small_bath = BathSpec(m_atoms=100, epsilon=1.0, beta_true=1.0, alpha=math.pi / 200.0, tau=1.0)
floor = bath_intrinsic_sigma(100, 1.0, 1.0)
print(f"intrinsic floor of a 100-atom bath: {floor:.5f}")
print(f"{'passes':>7} {'empirical':>10} {'if isolated':>12}")
for i, shots in enumerate((100, 1000, 10000, 100000)):
    # the single-atom protocol is the engine with one atom and one shot per pass
    _, betas = run_interferometer_trials(small_bath, 1, shots, 1500, "sampled_m", RngStream(404, i))
    spread = np.nanstd(betas, ddof=1)
    print(f"{shots:7d} {spread:10.5f} {sigma_beta_sn_theory(small_bath, shots):12.5f}")
print("more passes stop helping once the bath's thermal fluctuations dominate")
