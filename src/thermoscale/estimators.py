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
from typing import TYPE_CHECKING, Optional

from .rng import RngStream
from .thermal import TwoLevelSpec, excitation_probability, invert_mean_fraction

if TYPE_CHECKING:
    import numpy as np

ESTIMATORS = ("raw", "jeffreys")


def check_mode(name: str, value: str, allowed: tuple[str, ...], error: type = ValueError) -> None:
    """Refuse a mode that is not one of the strings ``allowed``, spelled exactly."""
    if value not in allowed:
        raise error(f"{name} must be one of {allowed}, got {value!r}")


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

    ``betas`` holds one entry per trial, in trial order, with ``None`` or NaN
    marking an invalid trial. At least two valid estimates are required.
    """
    import numpy as np

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
    mode: str = "jeffreys",
) -> Optional[float]:
    """Invert an excited count into a beta estimate, or ``None`` when invalid.

    ``mode`` is the policy for turning the count into a fraction, and nothing
    but these two strings is accepted:

    * ``"jeffreys"`` shrinks the fraction to ``(k + 1/2) / (n_atoms + 1)``,
      which keeps every estimate finite at the cost of a small-sample bias of
      order ``1/n_atoms``;
    * ``"raw"`` is the plug-in inversion of ``k / n_atoms`` and returns
      ``None`` for the degenerate counts 0 and n_atoms, whose estimate is
      unbounded.
    """
    if not 0 <= k <= n_atoms:
        raise ValueError(f"count {k} outside [0, {n_atoms}]")
    if mode == "jeffreys":
        p_hat = (k + 0.5) / (n_atoms + 1.0)
    else:
        check_mode("estimator", mode, ESTIMATORS)
        if k == 0 or k == n_atoms:
            return None
        p_hat = k / n_atoms
    return invert_mean_fraction(p_hat, epsilon)


def run_thermalizing_trials(
    spec: TwoLevelSpec,
    beta_true: float,
    trials: int,
    mode: str,
    rng: RngStream,
) -> TrialBatch:
    """Simulate ``trials`` thermalize-isolate-measure rounds and estimate beta in each.

    Trial ``t`` draws its excited count from ``rng.substream(t)`` and inverts
    it with the estimator ``mode``, ``"raw"`` or ``"jeffreys"`` (see
    :func:`estimate_beta_from_count`); invalid trials (possible in raw mode)
    are counted, not thrown. Raises :class:`EmptyBatchError` if fewer than two
    trials survive.

    Each trial still makes one :func:`estimate_beta_from_count` call, and so
    one ``invert_mean_fraction`` call, although at most ``n_atoms + 1``
    distinct counts occur: ``perfbench/selftest.py`` requires one stream step,
    one estimator call and one inversion per thermalizing trial, and the
    array engine of ROADMAP.md open item 2 replaces this loop once the
    benchmark counts trials instead of calls.
    """
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    check_mode("estimator", mode, ESTIMATORS)
    n_atoms, epsilon = spec.n_atoms, spec.epsilon
    p = excitation_probability(epsilon, beta_true)
    # a scalar binomial draw is already a Python int, and make_batch reads None as NaN
    return make_batch(
        [
            estimate_beta_from_count(gen.binomial(n_atoms, p), n_atoms, epsilon, mode)
            for gen in rng.generators(trials)
        ]
    )
