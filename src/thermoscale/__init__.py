"""Precision scaling of two-level-ensemble thermometers.

Closed-form statistics, Monte Carlo measurement protocols (thermalize-and-
measure versus interferometric bath probing, with single-atom and entangled
variants), exact small-system oracles, and campaign orchestration with
power-law scaling fits.
"""

from .estimators import (
    estimate_beta_from_count,
    run_thermalizing_trials,
)
from .interferometry import (
    BathSpec,
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
from .oracle import (
    branch_phase,
    enumerate_thermal,
    mixed_bath_visibility_exact,
    noon_probs_exact,
)
from .rng import RngStream
from .sweep import (
    ScalingFit,
    SweepAbortError,
    SweepPlan,
    SweepRecord,
    bath_intrinsic_sigma,
    collect_sweep_records,
    emit_results,
    fig1_curves,
    fit_power_law,
    matched_thermometer_size,
    read_jsonl_results,
)
from .thermal import (
    ThermalSummary,
    TwoLevelSpec,
    cr_bound_sigma,
    doppler_precision,
    excitation_probability,
    invert_mean_fraction,
    shot_noise_sigma_beta,
    thermal_summary,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "RngStream",
    "ScalingFit",
    "SweepAbortError",
    "SweepPlan",
    "SweepRecord",
    "ThermalSummary",
    "TwoLevelSpec",
    "bath_intrinsic_sigma",
    "branch_phase",
    "collect_sweep_records",
    "cr_bound_sigma",
    "dephasing_visibility",
    "doppler_precision",
    "emit_results",
    "enumerate_thermal",
    "estimate_beta_from_count",
    "excitation_probability",
    "fig1_curves",
    "fit_power_law",
    "invert_mean_fraction",
    "matched_thermometer_size",
    "max_theta",
    "measure_fringe_visibility",
    "mixed_bath_visibility_exact",
    "noon_outcome_probability",
    "noon_phase_estimates",
    "noon_probs_exact",
    "read_jsonl_results",
    "reference_phase",
    "require_phase_window",
    "run_interferometer_trials",
    "run_thermalizing_trials",
    "shot_noise_sigma_beta",
    "sigma_beta_h_theory",
    "sigma_beta_sn_theory",
    "sigma_m_sn_theory",
    "thermal_summary",
]
