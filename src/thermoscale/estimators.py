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


def _as_mode(mode: ModeLike) -> EstimatorMode:
    if isinstance(mode, EstimatorMode):
        return mode
    return EstimatorMode(mode)


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


def make_batch(estimates: "list[float] | np.ndarray", invalid_count: int) -> TrialBatch:
    """Assemble a :class:`TrialBatch`, requiring at least two valid estimates."""
    if len(estimates) < 2:
        raise EmptyBatchError(
            f"only {len(estimates)} valid trial(s) out of "
            f"{len(estimates) + invalid_count}; cannot form sample statistics",
            invalid_count=invalid_count,
            trials=len(estimates) + invalid_count,
        )
    values = np.asarray(estimates, dtype=float)
    return TrialBatch(
        estimates=values,
        invalid_count=invalid_count,
        sample_mean=float(values.mean()),
        sample_std=float(values.std(ddof=1)),
    )


def sample_excited_count(
    n_atoms: int,
    p: float,
    rng: Union[RngStream, np.random.Generator],
    size: Optional[int] = None,
):
    """Draw the excited count of ``n_atoms`` independent atoms, Binomial(n_atoms, p).

    The draw is exact (numpy's inversion / BTPE sampler), never a normal
    approximation. ``size=None`` returns a scalar int; an integer ``size``
    returns an array from the same stream.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    if size is None:
        return int(gen.binomial(n_atoms, p))
    return gen.binomial(n_atoms, p, size=size)


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
    mode = _as_mode(mode)
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
    mode = _as_mode(mode)
    p = excitation_probability(spec.epsilon, beta_true)
    estimates: list[float] = []
    invalid = 0
    for gen in rng.generators(trials):
        k = int(gen.binomial(spec.n_atoms, p))
        beta_hat = estimate_beta_from_count(k, spec.n_atoms, spec.epsilon, mode)
        if beta_hat is None:
            invalid += 1
        else:
            estimates.append(beta_hat)
    return make_batch(estimates, invalid)
