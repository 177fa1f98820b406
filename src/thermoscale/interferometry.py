"""Interferometric thermometry against a two-level bath, without thermalizing.

The bath sits in one arm of an atomic interferometer. Each excited bath atom
advances the phase of a probe atom in that arm by ``theta = alpha * tau``, so
a single probe picks up ``phi_b = theta * m`` where ``m`` is the excited bath
count. Two protocols estimate ``m`` (and through it beta) from detector
statistics:

* the single-atom protocol sends N independent probes through, giving the
  usual ``cos^2(phi/2)`` fringe and a phase spread falling as ``N**-0.5``;
* the entangled protocol sends all N atoms through one arm together
  (an all-or-nothing superposition), so the fringe oscillates in
  ``N * phi_b`` and the phase spread falls as ``1/N``.

One engine, :func:`run_interferometer_trials`, runs both: the single-atom
protocol is the entangled one with one atom and one shot per probe. With a
fixed bath the port probability is the same for every trial, so all port
counts come from one array draw, :meth:`~thermoscale.rng.RngStream.binomials`,
which equals numpy's binomial on each trial's substream bit for bit. With a
sampled bath each trial still positions its stream and draws ``m`` and then
the port count in a Python loop: ``perfbench/selftest.py`` requires one
stream step per trial on that workload. The phase and beta estimates are
computed once per distinct port count and gathered by index.

Both close the interferometer with the same splitter convention, modelled on
the two-dimensional subspace of "all atoms in arm 3" / "all atoms in arm 4"
as the unitary ``[[1, i], [i, 1]] / sqrt(2)``; a bare occupation measurement
on the open interferometer would be phase-blind, so recombination is forced.
Phase estimates use the principal branch of ``arccos``, which is unambiguous
only while the accumulated phase stays below pi; configurations must satisfy
``n_atoms * theta * m_atoms <= pi - 1e-3`` and are rejected otherwise.

The readout works at mid-fringe, not at the bright extremum. A known
reference phase ``delta = (pi - 1e-3 - n_atoms * theta * m_atoms) / 2``
(:func:`reference_phase`) is added to the accumulated phase before the port
count and subtracted again in the inversion, which centres every possible
accumulated phase ``[0, n_atoms * theta * m_atoms]`` inside the invertible
window. It depends on the bath specification and the atom number only, never
on the true temperature, and is 0 when the window is already full. Without
it a small accumulated phase leaves the port count pinned near the extremum,
where shrinkage pins the estimate and its spread falls below the 1/N floor.

The inversion from a phase to beta is the delta method's linearisation of
the mean-occupation relation. It breaks down in the weak-signal regime,
where the predicted count spread ``sigma_m`` reaches the distance from the
inferred count to either end of ``(0, m_atoms)``: a count of 0 then has
positive likelihood and maps to infinite beta, a share of trials is invalid,
and the beta spread of the valid trials leaves its delta-method value. The
invalid fraction of a sweep point says when that happens.

When the bath is resampled between shots the fringe contrast drops to the
magnitude of the characteristic function of ``m``; :func:`dephasing_visibility`
gives the closed form and :func:`measure_fringe_visibility` measures it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .estimators import ESTIMATORS, check_mode
from .rng import RngStream
from .thermal import DegenerateSensitivityError, excitation_probability

if TYPE_CHECKING:
    import numpy as np

PHASE_WINDOW_MARGIN = 1e-3
BATH_MODES = ("fixed_m", "sampled_m")


class PhaseWindowError(ValueError):
    """The configured phases leave the invertible branch of the fringe."""


@dataclass(frozen=True)
class BathSpec:
    """A bath of ``m_atoms`` two-level atoms probed through a phase coupling.

    ``alpha`` is the coupling rate and ``tau`` the interaction time; their
    product ``theta`` is the phase a probe atom acquires per excited bath
    atom. ``beta_true`` is the bath's actual inverse temperature, known only
    to the simulation.
    """

    m_atoms: int
    epsilon: float
    beta_true: float
    alpha: float
    tau: float

    def __post_init__(self) -> None:
        if int(self.m_atoms) != self.m_atoms or self.m_atoms < 1:
            raise ValueError(f"m_atoms must be a positive integer, got {self.m_atoms}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.beta_true >= 0:
            raise ValueError(f"beta_true must be nonnegative, got {self.beta_true}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def theta(self) -> float:
        """Phase per excited bath atom, ``alpha * tau``."""
        return self.alpha * self.tau

    @property
    def excitation(self) -> float:
        """Thermal excited-level population of one bath atom."""
        return excitation_probability(self.epsilon, self.beta_true)


def require_phase_window(bath: BathSpec, n_atoms: int = 1) -> None:
    """Reject configurations whose worst-case accumulated phase is ambiguous.

    The fringe inversion needs ``n_atoms * theta * m`` inside ``[0, pi)`` for
    every possible excited count ``m <= m_atoms``.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    limit = math.pi - PHASE_WINDOW_MARGIN
    accumulated = n_atoms * bath.theta * bath.m_atoms
    if accumulated > limit:
        raise PhaseWindowError(
            f"phase window violated: n_atoms * theta * m_atoms = {accumulated:.6g} "
            f"> pi - {PHASE_WINDOW_MARGIN:g} = {limit:.6g}"
        )


def max_theta(m_atoms: int, n_atoms: int = 1) -> float:
    """Largest coupling phase per excited atom allowed by the phase window."""
    if m_atoms < 1 or n_atoms < 1:
        raise ValueError("m_atoms and n_atoms must be at least 1")
    limit = math.pi - PHASE_WINDOW_MARGIN
    theta = limit / (n_atoms * m_atoms)
    # the quotient can round one ulp high; test it in require_phase_window's order
    if n_atoms * theta * m_atoms > limit:
        theta = math.nextafter(theta, 0.0)
    return theta


def noon_outcome_probability(n_atoms: int, phi_b: float) -> float:
    """Probability ``cos^2(n_atoms * phi_b / 2)`` of the all-atoms-at-port outcome.

    The complementary outcome has probability ``sin^2`` of the same argument.
    With one atom this is the plain fringe ``cos^2(phi_b / 2)``.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    return math.cos(n_atoms * phi_b / 2.0) ** 2


def reference_phase(bath: BathSpec, n_atoms: int) -> float:
    """Readout bias ``delta = (pi - 1e-3 - n_atoms * theta * m_atoms) / 2``.

    Added to the accumulated phase before the port count and subtracted in
    the inversion, it centres ``[0, n_atoms * theta * m_atoms]`` inside the
    invertible window ``[0, pi - 1e-3]``. It is a function of the
    configuration alone, and 0 when the window is full (or violated).
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    slack = math.pi - PHASE_WINDOW_MARGIN - n_atoms * bath.theta * bath.m_atoms
    return max(0.0, slack / 2.0)


def _phase_from_port_fraction(p_hat: float, n_atoms: int, delta: float) -> float:
    return (2.0 * math.acos(math.sqrt(p_hat)) - delta) / n_atoms


def _beta_from_phase(phi_b_hat: float, bath: BathSpec) -> float:
    """Beta from a phase estimate of ``theta * m``, NaN when the inferred count leaves ``(0, m_atoms)``."""
    m_hat = phi_b_hat / bath.theta
    if m_hat <= 0.0 or m_hat >= bath.m_atoms:
        return math.nan
    return math.log(bath.m_atoms / m_hat - 1.0) / bath.epsilon


def beta_from_port_fraction(p_hat: float, n_atoms: int, bath: BathSpec) -> Optional[float]:
    """Invert an observed port fraction to a beta estimate, or ``None`` when invalid.

    The port fraction is read at the reference phase ``delta`` of
    :func:`reference_phase`, so the chain is ``phi_hat = (2 * arccos(sqrt(p_hat))
    - delta) / n_atoms``, ``m_hat = phi_hat / theta`` and the mean-occupation
    relation ``beta_hat = log(m_atoms / m_hat - 1) / epsilon``. Inferred counts
    outside ``(0, m_atoms)`` cannot come from a thermal mean and are invalid;
    with ``delta > 0`` that includes the bright extremum ``p_hat = 1`` and the
    fractions near it, whose phase estimate is negative.
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must lie in [0, 1], got {p_hat}")
    phi_b_hat = _phase_from_port_fraction(p_hat, n_atoms, reference_phase(bath, n_atoms))
    beta_hat = _beta_from_phase(phi_b_hat, bath)
    return None if math.isnan(beta_hat) else beta_hat


def run_interferometer_trials(
    bath: BathSpec,
    n_atoms: int,
    shots: int,
    trials: int,
    mode: str,
    rng: RngStream,
    estimator: str = "jeffreys",
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``trials`` trials of either protocol, ``shots`` shots of ``n_atoms`` atoms each.

    Trial ``t`` draws from ``rng.substream(t)``: the excited bath count ``m``,
    held fixed over its shots, then the port count, with probability
    ``noon_outcome_probability(n_atoms, theta * m + delta / n_atoms)`` at the
    reference phase ``delta`` of :func:`reference_phase`. The bath ``mode``
    says where ``m`` comes from, and nothing but these two strings is accepted:

    * ``"fixed_m"`` holds it at the rounded mean ``round(m_atoms * p)`` of an
      isolated bath, for every trial, and draws nothing for it (so the port
      probability is computed once for the whole batch);
    * ``"sampled_m"`` redraws it each trial from the thermal binomial
      ``(m_atoms, p)``, reading ``bath.excitation`` anew.

    ``estimator`` is ``"jeffreys"`` or ``"raw"``, as in
    :func:`~thermoscale.estimators.estimate_beta_from_count`, applied to the
    port fraction. Returns the per-trial phase estimates of ``theta * m``,
    with ``delta`` subtracted again (always finite, and negative where the
    count lies beyond the reference point), and beta estimates, NaN where the
    inferred count leaves ``(0, m_atoms)``. A fixed bath draws every port
    count in one call of :meth:`~thermoscale.rng.RngStream.binomials`; a
    sampled bath loops over the substreams. Both estimates are then computed
    once per distinct port count, as the inversion depends on the count alone.
    """
    import numpy as np

    require_phase_window(bath, n_atoms)
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    check_mode("bath mode", mode, BATH_MODES)
    check_mode("estimator", estimator, ESTIMATORS)
    raw = estimator == "raw"
    delta = reference_phase(bath, n_atoms)
    offset = delta / n_atoms
    theta, m_atoms = bath.theta, bath.m_atoms
    if mode == "fixed_m":
        port = noon_outcome_probability(n_atoms, theta * round(m_atoms * bath.excitation) + offset)
        counts = rng.binomials(trials, shots, port)
    else:
        draws = []
        for gen in rng.generators(trials):
            m = gen.binomial(m_atoms, bath.excitation)
            draws.append(gen.binomial(shots, noon_outcome_probability(n_atoms, theta * m + offset)))
        counts = np.array(draws)
    distinct = sorted(set(counts.tolist()))
    phases, betas = np.empty((2, len(distinct)), dtype=float)
    for i, k in enumerate(distinct):
        phi = _phase_from_port_fraction(k / shots if raw else (k + 0.5) / (shots + 1.0), n_atoms, delta)
        phases[i], betas[i] = phi, _beta_from_phase(phi, bath)
    index = np.searchsorted(distinct, counts)
    return phases[index], betas[index]


def noon_phase_estimates(
    bath: BathSpec,
    n_atoms: int,
    repetitions: int,
    trials: int,
    mode: str,
    rng: RngStream,
    estimator: str = "jeffreys",
) -> np.ndarray:
    """Per-trial phase estimates of the entangled protocol: the phase half of
    :func:`run_interferometer_trials`, finite even where the beta estimate is invalid."""
    return run_interferometer_trials(bath, n_atoms, repetitions, trials, mode, rng, estimator)[0]


def sigma_m_sn_theory(theta: float, n_shots: int) -> float:
    """Predicted spread of the inferred bath count: ``1 / (theta * sqrt(n_shots))``."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if n_shots < 1:
        raise ValueError(f"n_shots must be at least 1, got {n_shots}")
    return 1.0 / (theta * math.sqrt(n_shots))


def _inverse_mean_slope(bath: BathSpec) -> float:
    """``1 / |d<m>/dbeta|`` for the thermal mean occupation of the bath."""
    p = bath.excitation
    slope = bath.m_atoms * bath.epsilon * p * (1.0 - p)
    if slope == 0.0:
        raise DegenerateSensitivityError("d<m>/dbeta of the bath underflowed to zero; no response")
    return 1.0 / slope


def sigma_beta_sn_theory(bath: BathSpec, n_shots: int) -> float:
    """Predicted beta spread of the single-atom protocol.

    The count spread ``sigma_m`` divided by the sensitivity ``|d<m>/dbeta| =
    m_atoms * epsilon * p * (1-p)``; falls as ``n_shots**-0.5``.
    """
    return sigma_m_sn_theory(bath.theta, n_shots) * _inverse_mean_slope(bath)


def sigma_beta_h_theory(bath: BathSpec, n_atoms: int) -> float:
    """Predicted beta spread of one entangled-probe shot: the same sensitivity
    quotient as the single-atom case with ``1/sqrt(N)`` replaced by ``1/N``."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    return (1.0 / (n_atoms * bath.theta)) * _inverse_mean_slope(bath)


def dephasing_visibility(bath: BathSpec, n_atoms: int) -> float:
    """Fringe visibility when the bath count is resampled every shot.

    The accumulated phase ``n_atoms * theta * m`` then fluctuates with ``m``,
    and the contrast is the magnitude of the binomial characteristic function:
    ``|1 - p + p * exp(1j * n_atoms * theta)| ** m_atoms``.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    p = bath.excitation
    phasor = (1.0 - p) + p * cmath.exp(1j * n_atoms * bath.theta)
    return abs(phasor) ** bath.m_atoms


def measure_fringe_visibility(
    bath: BathSpec,
    n_atoms: int,
    shots: int,
    phase_points: int,
    rng: RngStream,
) -> float:
    """Monte Carlo fringe visibility with per-shot bath resampling.

    Scans a reference phase over ``phase_points`` even steps of ``[0, 2*pi)``,
    estimates the port probability at each step from ``shots / phase_points``
    single shots (each with a freshly drawn bath count), and reads the fringe
    amplitude off the first Fourier coefficient, which is exact on an even
    grid of three or more points.
    """
    import numpy as np

    if phase_points < 3:
        raise ValueError(f"phase_points must be at least 3, got {phase_points}")
    shots_per_point = shots // phase_points
    if shots_per_point < 1:
        raise ValueError("need at least one shot per phase point")
    p = bath.excitation
    coefficient = 0.0 + 0.0j
    for j in range(phase_points):
        delta = 2.0 * math.pi * j / phase_points
        gen = rng.substream(j).generator()
        ms = gen.binomial(bath.m_atoms, p, size=shots_per_point)
        port_probs = np.cos((n_atoms * bath.theta * ms + delta) / 2.0) ** 2
        hits = gen.random(shots_per_point) < port_probs
        coefficient += hits.mean() * cmath.exp(-1j * delta)
    return 4.0 * abs(coefficient) / phase_points
