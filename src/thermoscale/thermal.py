"""Closed-form statistics and precision bounds for independent two-level ensembles.

Everything in this module reduces to the dimensionless combination
``x = beta * epsilon``. For one atom with level splitting ``epsilon`` held at
inverse temperature ``beta``, the excited-level population is
``p = 1 / (1 + exp(x))``, the mean energy per atom is ``epsilon * p`` and the
per-atom energy variance is ``epsilon**2 * p * (1 - p)``. An ensemble of
``n_atoms`` independent atoms scales both extensively. The classical Fisher
information of the ensemble's thermal state with respect to ``beta`` equals
the total energy variance, which yields the ensemble-size scaling of the
best-achievable spread of any inverse-temperature estimate.

All functions are pure and safe for concurrent use. ``beta`` must be
nonnegative everywhere; the internal forms stay finite for any such ``x``,
and the excited population underflows to 0 once ``exp(x)`` overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rng import _at_least, _real


class DegenerateSensitivityError(ValueError):
    """The mean energy does not respond to beta, so beta cannot be inferred."""


class UnboundedEstimateError(ValueError):
    """An observed fraction of exactly 0 or 1 maps to an infinite beta estimate."""


@dataclass(frozen=True)
class TwoLevelSpec:
    """An ensemble of ``n_atoms`` independent two-level atoms with splitting ``epsilon``."""

    n_atoms: int
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_atoms", _at_least("n_atoms", self.n_atoms))
        _real("epsilon", self.epsilon)


@dataclass(frozen=True)
class ThermalSummary:
    """Closed-form thermal statistics of a two-level ensemble at one ``(epsilon, beta)``.

    ``eps_bar`` and ``eps_prime`` are per-atom quantities (mean energy and the
    magnitude of its beta-derivative); ``mean_energy``, ``energy_variance``
    and ``fisher_info`` refer to the whole ensemble. ``energy_variance`` is
    ``n_atoms * eps_prime`` and ``fisher_info`` equals ``energy_variance``.
    """

    log_z: float
    mean_energy: float
    energy_variance: float
    eps_bar: float
    eps_prime: float
    fisher_info: float


def _logistic_tail(x: float) -> float:
    """``1 / (1 + exp(x))`` for ``x >= 0``, underflowing to 0 where ``exp(x)`` overflows."""
    try:
        return 1.0 / (1.0 + math.exp(x))
    except OverflowError:
        return 0.0


def excitation_probability(epsilon: float, beta: float) -> float:
    """Excited-level population ``1 / (1 + exp(beta * epsilon))`` of one atom.

    Decreases monotonically from 1/2 at ``beta = 0`` toward 0 as the atom
    freezes out. Evaluated through the logistic function, which is stable for
    any nonnegative ``beta * epsilon``.
    """
    if not 0 < epsilon < math.inf:  # inline, not _real: this runs once per trial
        raise ValueError(f"epsilon must be a positive finite real, got {epsilon}")
    _real("beta", beta, positive=False)
    return _logistic_tail(beta * epsilon)


def thermal_summary(spec: TwoLevelSpec, beta: float) -> ThermalSummary:
    """All closed-form thermal statistics of ``spec`` at inverse temperature ``beta``."""
    x = _real("beta", beta, positive=False) * spec.epsilon
    p = _logistic_tail(x)
    # log of the one-atom partition sum, 1 + exp(-x); exp(-x) <= 1 so this never overflows
    log_z = spec.n_atoms * math.log1p(math.exp(-x))
    eps_bar = spec.epsilon * p
    eps_prime = spec.epsilon * spec.epsilon * p * (1.0 - p)
    energy_variance = spec.n_atoms * eps_prime
    return ThermalSummary(
        log_z=log_z,
        mean_energy=spec.n_atoms * eps_bar,
        energy_variance=energy_variance,
        eps_bar=eps_bar,
        eps_prime=eps_prime,
        fisher_info=energy_variance,
    )


def shot_noise_sigma_beta(spec: TwoLevelSpec, beta: float) -> float:
    """Best-achievable spread of a beta estimate from one energy measurement.

    Equals ``1 / sqrt(n_atoms * eps_prime)``, i.e. the inverse square root of
    the ensemble Fisher information, and so falls off as ``n_atoms**-0.5``.
    """
    summary = thermal_summary(spec, beta)
    if summary.eps_prime == 0.0:
        raise DegenerateSensitivityError(
            "eps_prime underflowed to zero; the ensemble has no temperature response here"
        )
    return 1.0 / math.sqrt(spec.n_atoms * summary.eps_prime)


def invert_mean_fraction(p_hat: float, epsilon: float) -> float:
    """Invert an observed excited fraction to a beta estimate.

    Returns ``log(1 / p_hat - 1) / epsilon``, the exact inverse of
    :func:`excitation_probability`. Negative values are possible when
    ``p_hat > 1/2``; clamping is the caller's policy decision.
    """
    if not 0 < epsilon < math.inf:  # inline, not _real: this runs once per trial
        raise ValueError(f"epsilon must be a positive finite real, got {epsilon}")
    if p_hat <= 0.0 or p_hat >= 1.0:
        raise UnboundedEstimateError(
            f"fraction {p_hat} lies on or outside (0, 1); beta estimate is unbounded"
        )
    return math.log(1.0 / p_hat - 1.0) / epsilon


def cr_bound_sigma(fisher_info: float, repetitions: int = 1) -> float:
    """Cramér-Rao floor ``1 / sqrt(repetitions * fisher_info)`` on an estimator spread."""
    if _real("fisher_info", fisher_info, positive=False) == 0.0:
        raise DegenerateSensitivityError("fisher_info is zero; the bound is unbounded")
    return 1.0 / math.sqrt(_at_least("repetitions", repetitions) * fisher_info)


def doppler_precision(atom_rate: float, integration_time: float) -> float:
    """Shot-noise precision ``(atom_rate * integration_time) ** -0.5`` of a beam measurement."""
    return 1.0 / math.sqrt(_real("atom_rate", atom_rate) * _real("integration_time", integration_time))
