"""Monte Carlo demonstration that a thermalize-and-measure thermometer is
shot-noise limited.

Each trial thermalizes N independent two-level atoms, measures their total
energy (one exact binomial draw), and inverts the mean excited fraction into
an inverse-temperature estimate. Sweeping N shows the estimate spread falling
as N^-0.5 and sitting right on the closed-form prediction.
"""

import numpy as np

from thermoscale import (
    RngStream,
    SweepPlan,
    TwoLevelSpec,
    collect_sweep_records,
    fit_power_law,
    run_thermalizing_trials,
)

print("=== One ensemble size in detail (N = 100, beta = 1) ===")
# one beta estimate per trial, NaN where a trial is invalid
betas = run_thermalizing_trials(TwoLevelSpec(100, 1.0), 1.0, 20000, "jeffreys", RngStream(7))
valid = betas[~np.isnan(betas)]
print(f"trials {len(betas)}, invalid {len(betas) - len(valid)}")
print(f"mean estimate {valid.mean():.5f} (truth 1.0)")
print(f"spread        {valid.std(ddof=1):.5f}")

print()
print("=== Raw counting keeps degenerate outcomes visible ===")
raw = run_thermalizing_trials(TwoLevelSpec(8, 1.0), 2.5, 20000, "raw", RngStream(8))
print(
    f"N=8, beta=2.5, raw inversion: {np.isnan(raw).sum()} of {len(raw)} trials "
    "hit an all-ground or all-excited count and were recorded invalid"
)

print()
print("=== Sweep N and fit the scaling exponent ===")
plan = SweepPlan(
    protocol="thermalizing",
    n_values=(16, 32, 64, 128, 256, 512, 1024),
    trials_per_n=4000,
    master_seed=20240,
    epsilon=1.0,
    beta_true=1.0,
)
records = collect_sweep_records(plan)
print(f"{'N':>5} {'empirical':>10} {'theory':>10} {'ratio':>6}")
for r in records:
    print(
        f"{r.n:5d} {r.sigma_beta_empirical:10.5f} {r.sigma_beta_theory:10.5f} "
        f"{r.sigma_beta_empirical / r.sigma_beta_theory:6.3f}"
    )
fit = fit_power_law([(r.n, r.sigma_beta_empirical) for r in records])
print(f"fitted exponent {fit.slope:+.4f} +- {fit.stderr_slope:.4f}  (r^2 = {fit.r_squared:.5f})")
print("the spread falls as one over the square root of the atom count")
