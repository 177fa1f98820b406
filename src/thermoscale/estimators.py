"""Monte Carlo simulation of the measure-after-thermalizing protocol.

A trial lets the ensemble equilibrate with a bath at the true inverse
temperature, isolates it, and measures its total energy. For independent
two-level atoms that energy is ``epsilon`` times a binomially distributed
excited count, so each trial reduces to one exact binomial draw followed by
inversion of the mean excited fraction. :func:`run_thermalizing_trials` returns
one beta estimate per trial in a float64 array, NaN marking an invalid trial;
their spread over many trials falls as ``n_atoms**-0.5``.

Trials are independent: trial ``t`` of a batch draws from
``rng.substream(t)``, so results are bit-reproducible for a given
``(master_seed, stream_index)`` regardless of execution order.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .rng import RngStream, _index
from .thermal import TwoLevelSpec, excitation_probability, invert_mean_fraction

if TYPE_CHECKING:
    import numpy as np

ESTIMATORS = ("raw", "jeffreys")


def check_mode(name: str, value: str, allowed: tuple[str, ...]) -> None:
    """Refuse a mode that is not one of the strings ``allowed``, spelled exactly."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


def estimate_beta_from_count(
    k: int,
    n_atoms: int,
    epsilon: float,
    mode: str = "jeffreys",
) -> float:
    """Invert an excited count into a beta estimate, NaN when invalid.

    ``k`` and ``n_atoms`` must be integers (``operator.index`` takes them and
    neither is a bool). ``mode`` is the policy for turning the count into a
    fraction, and nothing but these two strings is accepted:

    * ``"jeffreys"`` shrinks the fraction to ``(k + 1/2) / (n_atoms + 1)``,
      which keeps every estimate finite at the cost of a small-sample bias of
      order ``1/n_atoms``;
    * ``"raw"`` is the plug-in inversion of ``k / n_atoms`` and returns NaN
      for the degenerate counts 0 and n_atoms, whose estimate is unbounded.
    """
    # a scalar binomial draw is an exact int, so only other types pay for the check
    if type(k) is not int or type(n_atoms) is not int:
        k, n_atoms = _index("count", k), _index("n_atoms", n_atoms)
    if not 0 <= k <= n_atoms:
        raise ValueError(f"count {k} outside [0, {n_atoms}]")
    if mode == "jeffreys":
        p_hat = (k + 0.5) / (n_atoms + 1.0)
    else:
        check_mode("estimator", mode, ESTIMATORS)
        if k == 0 or k == n_atoms:
            return math.nan
        p_hat = k / n_atoms
    return invert_mean_fraction(p_hat, epsilon)


def run_thermalizing_trials(
    spec: TwoLevelSpec,
    beta_true: float,
    trials: int,
    mode: str,
    rng: RngStream,
) -> np.ndarray:
    """Simulate ``trials`` thermalize-isolate-measure rounds and estimate beta in each.

    Trial ``t`` draws its excited count from ``rng.substream(t)`` and inverts
    it with the estimator ``mode``, ``"raw"`` or ``"jeffreys"`` (see
    :func:`estimate_beta_from_count`). Returns the per-trial beta estimates
    as a float64 array in trial order, NaN where a trial is invalid (possible
    in raw mode).

    Each trial still positions its own stream and makes one
    :func:`estimate_beta_from_count` call, and so one ``invert_mean_fraction``
    call, although at most ``n_atoms + 1`` distinct counts occur:
    ``perfbench/selftest.py`` requires one stream step, one estimator call and
    one inversion per thermalizing trial. The counts alone could come from
    :meth:`~thermoscale.rng.RngStream.binomials`, bit for bit the same, as the
    fixed-bath interferometric trials do; ROADMAP.md open item 2 moves this
    loop to it once the benchmark counts trials instead of calls.
    """
    import numpy as np

    check_mode("estimator", mode, ESTIMATORS)
    n_atoms, epsilon = spec.n_atoms, spec.epsilon
    p = excitation_probability(epsilon, beta_true)
    return np.array(
        [
            estimate_beta_from_count(gen.binomial(n_atoms, p), n_atoms, epsilon, mode)
            for gen in rng.generators(trials)
        ]
    )
