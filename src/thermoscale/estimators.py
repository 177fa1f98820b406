"""Monte Carlo simulation of the measure-after-thermalizing protocol.

A trial lets the ensemble equilibrate with a bath at the true inverse
temperature, isolates it, and measures its total energy. For independent
two-level atoms that energy is ``epsilon`` times a binomially distributed
excited count, so each trial reduces to one exact binomial draw followed by
inversion of the mean excited fraction. Batch statistics over many trials
exhibit the ``n_atoms**-0.5`` falloff of the estimate spread.

Trials are independent: trial ``t`` of a batch draws from
``rng.substream(t)``, so results are bit-reproducible for a given
``(master_seed, stream_index)`` regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .rng import RngStream
from .thermal import TwoLevelSpec, excitation_probability, invert_mean_fraction


class EstimatorMode(Enum):
    """Policy for turning an excited count into a fraction.

    RAW uses ``k / n`` and declares counts of 0 or n invalid (their beta
    estimate is unbounded). JEFFREYS uses ``(k + 1/2) / (n + 1)``, which keeps
    every trial finite at the cost of a small-sample bias of order ``1/n``.
    """

    RAW = "raw"
    JEFFREYS = "jeffreys"


ModeLike = Union[EstimatorMode, str]


class EmptyBatchError(RuntimeError):
    """Too few valid trials to form sample statistics."""

    def __init__(self, message: str, invalid_count: int = 0, trials: int = 0):
        super().__init__(message)
        self.invalid_count = invalid_count
        self.trials = trials


@dataclass(frozen=True)
class TrialBatch:
    """Estimates and sample statistics of one simulated thermometry campaign.

    ``sample_mean`` and ``sample_std`` (unbiased, divisor n-1) are computed
    over valid estimates only; ``invalid_count + len(estimates)`` equals the
    number of requested trials.
    """

    estimates: np.ndarray
    invalid_count: int
    sample_mean: float
    sample_std: float

    @property
    def trials(self) -> int:
        return self.invalid_count + len(self.estimates)


def make_batch(betas: "list[float] | np.ndarray") -> TrialBatch:
    """Assemble a :class:`TrialBatch` from per-trial beta estimates.

    ``betas`` holds one entry per trial, in trial order, with NaN marking an
    invalid trial. At least two valid estimates are required.
    """
    betas = np.asarray(betas, dtype=float)
    values = betas[~np.isnan(betas)]
    invalid_count = len(betas) - len(values)
    if len(values) < 2:
        raise EmptyBatchError(
            f"only {len(values)} valid trial(s) out of "
            f"{len(betas)}; cannot form sample statistics",
            invalid_count=invalid_count,
            trials=len(betas),
        )
    return TrialBatch(
        estimates=values,
        invalid_count=invalid_count,
        sample_mean=float(values.mean()),
        sample_std=float(values.std(ddof=1)),
    )


def estimate_beta_from_count(
    k: int,
    n_atoms: int,
    epsilon: float,
    mode: ModeLike = EstimatorMode.JEFFREYS,
) -> Optional[float]:
    """Invert an excited count into a beta estimate, or ``None`` when invalid.

    RAW mode is the plug-in inversion of ``k / n_atoms`` and returns ``None``
    for the degenerate counts 0 and n_atoms. JEFFREYS mode shrinks the
    fraction to ``(k + 1/2) / (n_atoms + 1)`` and always yields a finite
    estimate.
    """
    if not 0 <= k <= n_atoms:
        raise ValueError(f"count {k} outside [0, {n_atoms}]")
    # a member skips the Enum call, which runs per trial and is several times slower
    mode = mode if isinstance(mode, EstimatorMode) else EstimatorMode(mode)
    if mode is EstimatorMode.RAW:
        if k == 0 or k == n_atoms:
            return None
        p_hat = k / n_atoms
    else:
        p_hat = (k + 0.5) / (n_atoms + 1.0)
    return invert_mean_fraction(p_hat, epsilon)


def run_thermalizing_trials(
    spec: TwoLevelSpec,
    beta_true: float,
    trials: int,
    mode: ModeLike,
    rng: RngStream,
) -> TrialBatch:
    """Simulate ``trials`` thermalize-isolate-measure rounds and estimate beta in each.

    Trial ``t`` draws its excited count from ``rng.substream(t)``; invalid
    trials (possible in RAW mode) are counted, not thrown. Raises
    :class:`EmptyBatchError` if fewer than two trials survive.
    """
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    mode = EstimatorMode(mode)
    p = excitation_probability(spec.epsilon, beta_true)
    betas = []
    for gen in rng.generators(trials):
        k = int(gen.binomial(spec.n_atoms, p))
        beta_hat = estimate_beta_from_count(k, spec.n_atoms, spec.epsilon, mode)
        betas.append(math.nan if beta_hat is None else beta_hat)
    return make_batch(betas)
