"""Precision scaling of two-level-ensemble thermometers.

Closed-form statistics, Monte Carlo measurement protocols (thermalize-and-
measure versus interferometric bath probing, with single-atom and entangled
variants), exact small-system oracles, and campaign orchestration with
power-law scaling fits.

Each public name imports its defining module on first use (PEP 562), so a
bare ``import thermoscale`` loads no submodule until a name is asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOME = {
    "BathSpec": "interferometry",
    "RngStream": "rng",
    "ScalingFit": "sweep",
    "SweepAbortError": "sweep",
    "SweepPlan": "sweep",
    "SweepRecord": "sweep",
    "TwoLevelSpec": "thermal",
    "bath_intrinsic_sigma": "sweep",
    "branch_phase": "oracle",
    "collect_sweep_records": "sweep",
    "cr_bound_sigma": "thermal",
    "dephasing_visibility": "interferometry",
    "doppler_precision": "thermal",
    "enumerate_thermal": "oracle",
    "estimate_beta_from_count": "estimators",
    "excitation_probability": "thermal",
    "fig1_curves": "sweep",
    "fit_power_law": "sweep",
    "invert_mean_fraction": "thermal",
    "matched_thermometer_size": "sweep",
    "max_theta": "interferometry",
    "measure_fringe_visibility": "interferometry",
    "mixed_bath_visibility_exact": "oracle",
    "noon_outcome_probability": "interferometry",
    "noon_phase_estimates": "interferometry",
    "noon_probs_exact": "oracle",
    "read_jsonl_results": "sweep",
    "reference_phase": "interferometry",
    "run_interferometer_trials": "interferometry",
    "run_thermalizing_trials": "estimators",
    "shot_noise_sigma_beta": "thermal",
    "sigma_beta_h_theory": "interferometry",
    "sigma_beta_sn_theory": "interferometry",
    "sigma_m_sn_theory": "interferometry",
    "thermal_summary": "thermal",
}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or a module defining one, imported when first asked for; other names (``cli`` too) raise."""
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _HOME.values():
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
