"""Entangled probes beat the shot-noise exponent: spread falls as 1/N.

Sending all N probe atoms through the interferometer together (a NOON state,
every atom in the same arm) multiplies the accumulated phase by N. At a fixed
per-trial shot budget the phase estimate keeps a constant spread while its
sensitivity grows linearly in N, so the inverse-temperature spread falls as
1/N instead of N^-0.5. The same budget of atoms, a quadratically better
thermometer, and a quadratically smaller matched size against a given bath.
"""

import math

from thermoscale import (
    BathSpec,
    RngStream,
    SweepPlan,
    bath_intrinsic_sigma,
    collect_sweep_records,
    fit_power_law,
    matched_thermometer_size,
    max_theta,
    noon_phase_estimates,
    sigma_beta_h_theory,
    sigma_beta_sn_theory,
)

bath = BathSpec(m_atoms=100, epsilon=1.0, beta_true=1.0, alpha=max_theta(100, 16), tau=1.0)
REPS = 3000

print("=== Entangled sweep, fixed coupling, fixed shot budget ===")
plan = SweepPlan(
    protocol="noon",
    n_values=(2, 4, 8, 16),
    trials_per_n=1000,
    master_seed=515,
    bath=bath,
    bath_mode="fixed_m",
    repetitions=REPS,
)
records = collect_sweep_records(plan)
print(f"{'N':>3} {'sigma_beta':>11} {'theory':>9} {'spread*N*sqrt(reps)':>20}")
for j, r in enumerate(records):
    # the phases of this point's own trials: the sweep hands them over, nothing is simulated again
    phases = noon_phase_estimates(
        bath, r.n, REPS, plan.trials_per_n, "fixed_m", RngStream(plan.master_seed, j)
    )
    spread = (sum((p - sum(phases) / len(phases)) ** 2 for p in phases) / (len(phases) - 1)) ** 0.5
    print(
        f"{r.n:3d} {r.sigma_beta_empirical:11.6f} {r.sigma_beta_theory:9.6f} "
        f"{spread * r.n * math.sqrt(REPS):20.3f}"
    )
fit = fit_power_law([(r.n, r.sigma_beta_empirical) for r in records])
print(f"fitted exponent {fit.slope:+.4f} +- {fit.stderr_slope:.4f}")
print("the scaled phase spread stays flat, so the full 1/N gain reaches beta")

print()
print("=== Theory comparison at equal atom number ===")
print(f"{'N':>3} {'single-atom':>12} {'entangled':>10} {'gain':>6}")
for n in (1, 4, 16, 64):
    sn = sigma_beta_sn_theory(bath, n)
    h = sigma_beta_h_theory(bath, n)
    print(f"{n:3d} {sn:12.6f} {h:10.6f} {sn / h:6.2f}")

print()
print("=== How big must the thermometer be to saturate the bath's floor? ===")
print(f"{'bath M':>7} {'floor':>8} {'shot-noise N':>13} {'entangled N':>12}")
for m in (16, 100, 1024, 10**4):
    print(
        f"{m:7d} {bath_intrinsic_sigma(m, 1.0, 1.0):8.4f} "
        f"{matched_thermometer_size(m, 'shot_noise'):13d} "
        f"{matched_thermometer_size(m, 'heisenberg'):12d}"
    )
print("an entangled probe matches the bath with the square root of its size")
