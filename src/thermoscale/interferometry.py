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
fixed bath the port probability is the same for every trial of a point, so
all port counts come from one array draw, ``RngStream._binomials``,
bit for bit numpy's binomial on each trial's substream; a sweep draws all its
fixed-bath points at once, in equal passes of at most 2**13 substreams. With a sampled
bath each trial still positions its stream and draws ``m`` and then the port count
in a Python loop (``perfbench/selftest.py`` requires one stream step per trial on
that workload), and the port probability is computed once per distinct ``m``.
The phase and beta estimates are computed once per distinct port count and
gathered into per-trial float64 arrays.

This module alone keeps the phases of the last ``noon`` sweep run to its end, until the next one,
if it drew at most 2**16 phases (512 KiB); a larger one keeps none. A point's phases go to the first
identical request of :func:`noon_phase_estimates`, bit for bit a fresh simulation (trial t is a function
of substream t alone); a repeated or different request misses and simulates, which only costs time.

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
from typing import TYPE_CHECKING, Iterator

from .estimators import ESTIMATORS
from .rng import RngStream, _at_least, _binomial_n, _index, _one_of, _real
from .thermal import excitation_probability

if TYPE_CHECKING:
    import numpy as np

PHASE_WINDOW_MARGIN = 1e-3
BATH_MODES = ("fixed_m", "sampled_m")
_PHASE_LIMIT = 2**16  # most phases a noon sweep keeps for noon_phase_estimates, 512 KiB of float64
_phase_store: dict[tuple, np.ndarray] = {}  # the last noon sweep's phases by request key


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
        object.__setattr__(self, "m_atoms", _at_least("m_atoms", self.m_atoms))
        for name in ("epsilon", "beta_true", "alpha", "tau"):
            _real(name, getattr(self, name), positive=name != "beta_true")
        _real("alpha * tau", self.theta)  # each finite, their product can still under- or overflow

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
    limit = math.pi - PHASE_WINDOW_MARGIN
    accumulated = _at_least("n_atoms", n_atoms) * bath.theta * bath.m_atoms
    if accumulated > limit:
        raise ValueError(
            f"phase window violated: n_atoms * theta * m_atoms = {accumulated:.6g} "
            f"> pi - {PHASE_WINDOW_MARGIN:g} = {limit:.6g}"
        )


def max_theta(m_atoms: int, n_atoms: int = 1) -> float:
    """Largest coupling phase per excited atom allowed by the phase window."""
    m_atoms, n_atoms = _at_least("m_atoms", m_atoms), _at_least("n_atoms", n_atoms)
    limit = math.pi - PHASE_WINDOW_MARGIN
    theta = limit / _at_least("n_atoms * m_atoms", n_atoms * m_atoms)  # a product float() takes
    # the quotient can round one ulp high; test it in require_phase_window's order
    if n_atoms * theta * m_atoms > limit:
        theta = math.nextafter(theta, 0.0)
    return theta


def noon_outcome_probability(n_atoms: int, phi_b: float) -> float:
    """Probability ``cos^2(n_atoms * phi_b / 2)`` of the all-atoms-at-port outcome.

    The complementary outcome has probability ``sin^2`` of the same argument.
    With one atom this is the plain fringe ``cos^2(phi_b / 2)``.
    """
    if type(n_atoms) is not int:  # inline, not _at_least/_real: called once per distinct bath count
        n_atoms = _index("n_atoms", n_atoms)
    if n_atoms < 1 or not math.isfinite(phi_b):
        raise ValueError(f"need an n_atoms of at least 1 and a finite phi_b, got {n_atoms} and {phi_b!r}")
    return math.cos(n_atoms * phi_b / 2.0) ** 2


def reference_phase(bath: BathSpec, n_atoms: int) -> float:
    """Readout bias ``delta = (pi - 1e-3 - n_atoms * theta * m_atoms) / 2``.

    Added to the accumulated phase before the port count and subtracted in
    the inversion, it centres ``[0, n_atoms * theta * m_atoms]`` inside the
    invertible window ``[0, pi - 1e-3]``. It is a function of the
    configuration alone, and 0 when the window is full (or violated).
    """
    slack = math.pi - PHASE_WINDOW_MARGIN - _at_least("n_atoms", n_atoms) * bath.theta * bath.m_atoms
    return max(0.0, slack / 2.0)


def _phase_from_port_fraction(p_hat: float, n_atoms: int, delta: float) -> float:
    return (2.0 * math.acos(math.sqrt(p_hat)) - delta) / n_atoms


def _beta_from_phase(phi_b_hat: float, bath: BathSpec) -> float:
    """Beta from a phase estimate of ``theta * m``, NaN when the inferred count leaves ``(0, m_atoms)``."""
    m_hat = phi_b_hat / bath.theta
    if m_hat <= 0.0 or m_hat >= bath.m_atoms:
        return math.nan
    return math.log(bath.m_atoms / m_hat - 1.0) / bath.epsilon


def _request(bath, n_atoms, shots, trials, mode, rng, estimator) -> tuple:
    """The engine's arguments once checked, with the counts as ints: the one check of a point, for the
    engine and a sweep plan alike, and the key under which a sweep keeps a noon point's phases for
    :func:`noon_phase_estimates`."""
    n_atoms, shots = _at_least("n_atoms", n_atoms), _binomial_n("shots", shots)
    require_phase_window(bath, n_atoms)
    _one_of("bath mode", mode, BATH_MODES)
    if mode == "sampled_m":  # the one mode that draws the bath count
        _binomial_n("bath.m_atoms", bath.m_atoms)
    _one_of("estimator", estimator, ESTIMATORS)
    return (bath, n_atoms, shots, _at_least("count", trials, low=0), mode, rng, estimator)


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
    port fraction. ``n_atoms`` and ``shots`` must be integers. Returns two
    float64 arrays in trial order, ``(phases, betas)``: the phase estimates of
    ``theta * m``, with ``delta`` subtracted again (always finite, and negative
    where the count lies beyond the reference point), and the beta estimates,
    NaN where the inferred count leaves ``(0, m_atoms)``. A fixed bath draws
    every port count in one ``RngStream._binomials`` call;
    a sampled bath loops over the substreams. Both estimates are then computed
    once per distinct port count, as the inversion depends on the count alone.
    """
    return next(_run_points([_request(bath, n_atoms, shots, trials, mode, rng, estimator)]))


def _run_points(requests: list, noon: bool = False) -> Iterator[tuple]:
    """Yield :func:`run_interferometer_trials` of each request that :func:`_request` checked; the requests
    share bath, trials, mode, estimator and master seed. A fixed bath draws all their counts in one call,
    a sampled bath each as it is taken. A ``noon`` sweep resumed past its last point replaces the kept
    phases with its own, each under the request it was handed (none above ``_PHASE_LIMIT``); one that
    aborts before that leaves them."""
    global _phase_store
    import numpy as np

    bath, _, _, trials, mode, _, estimator = requests[0]
    keep, kept = noon and len(requests) * trials <= _PHASE_LIMIT, {}
    raw, theta, m_atoms = estimator == "raw", bath.theta, bath.m_atoms
    deltas = [reference_phase(bath, n_atoms) for _, n_atoms, *_ in requests]
    if mode == "fixed_m":
        m = round(m_atoms * bath.excitation)
        ports = [noon_outcome_probability(n, theta * m + delta / n) for (_, n, *_), delta in zip(requests, deltas)]
        drawn = RngStream._binomials(trials, [(s, shots, p) for (_, _, shots, _, _, s, _), p in zip(requests, ports)])
    for j, (request, delta) in enumerate(zip(requests, deltas)):
        _, n_atoms, shots, _, _, stream, _ = request
        if mode == "fixed_m":
            counts = drawn[j]
        else:
            offset, draws, ports = delta / n_atoms, [], {}  # ports: the port probability of each bath count
            for gen in stream.generators(trials):
                m = gen.binomial(m_atoms, bath.excitation)
                if m not in ports:
                    ports[m] = noon_outcome_probability(n_atoms, theta * m + offset)
                draws.append(gen.binomial(shots, ports[m]))
            counts = np.array(draws)
        distinct, index = np.unique(counts, return_inverse=True)
        phases, betas = np.empty((2, len(distinct)), dtype=float)
        for i, k in enumerate(distinct.tolist()):
            phi = _phase_from_port_fraction(k / shots if raw else (k + 0.5) / (shots + 1.0), n_atoms, delta)
            phases[i], betas[i] = phi, _beta_from_phase(phi, bath)
        phases, betas = phases[index], betas[index]
        if keep:
            kept[request] = phases
        yield phases, betas
    if noon:
        _phase_store = kept  # one rebinding, so a concurrent request sees one sweep's phases or the other's


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
    :func:`run_interferometer_trials`, finite even where the beta estimate is invalid.

    The arguments are checked as the engine checks them. A request equal to a
    point of the last ``noon`` sweep takes that point's phases, bit for bit a
    fresh simulation; a second one, or any other, misses and simulates, which
    costs only time. A sweep of more than 2**16 phases keeps none, and the
    next ``noon`` sweep replaces what the last one kept.
    """
    request = (bath, n_atoms, repetitions, trials, mode, rng, estimator)
    phases = _phase_store.pop(_request(*request), None)
    return run_interferometer_trials(*request)[0] if phases is None else phases


def sigma_m_sn_theory(theta: float, n_shots: int) -> float:
    """Predicted spread of the inferred bath count: ``1 / (theta * sqrt(n_shots))``, refused once it overflows."""
    return _real("sigma_m", 1.0 / (_real("theta", theta) * math.sqrt(_at_least("n_shots", n_shots))))


def _inverse_mean_slope(bath: BathSpec) -> float:
    """``1 / |d<m>/dbeta|`` for the thermal mean occupation of the bath."""
    p = bath.excitation
    slope = bath.m_atoms * bath.epsilon * p * (1.0 - p)
    if slope == 0.0:
        raise ValueError("d<m>/dbeta of the bath underflowed to zero; no response")
    return 1.0 / slope


def sigma_beta_sn_theory(bath: BathSpec, n_shots: int) -> float:
    """Predicted beta spread of the single-atom protocol.

    The count spread ``sigma_m`` divided by the sensitivity ``|d<m>/dbeta| =
    m_atoms * epsilon * p * (1-p)``; falls as ``n_shots**-0.5``. A spread
    that leaves the floats (overflows to inf, underflows to 0 or is NaN) is refused.
    """
    return _real("sigma_beta", sigma_m_sn_theory(bath.theta, n_shots) * _inverse_mean_slope(bath))


def sigma_beta_h_theory(bath: BathSpec, n_atoms: int) -> float:
    """Predicted beta spread of one entangled-probe shot: the same sensitivity
    quotient as the single-atom case with ``1/sqrt(N)`` replaced by ``1/N``, and refused where it is."""
    sigma_m = 1.0 / (_at_least("n_atoms", n_atoms) * bath.theta)
    return _real("sigma_beta", sigma_m * _inverse_mean_slope(bath))


def dephasing_visibility(bath: BathSpec, n_atoms: int) -> float:
    """Fringe visibility when the bath count is resampled every shot.

    The accumulated phase ``n_atoms * theta * m`` then fluctuates with ``m``,
    and the contrast is the magnitude of the binomial characteristic function:
    ``|1 - p + p * exp(1j * n_atoms * theta)| ** m_atoms``.
    """
    n_atoms, p = _at_least("n_atoms", n_atoms), bath.excitation
    phase = _real("n_atoms * theta", n_atoms * bath.theta)  # cmath.exp refuses an infinite phase unnamed
    phasor = (1.0 - p) + p * cmath.exp(1j * phase)
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
    single shots (each with a freshly drawn bath count; phase point ``j`` draws
    from ``rng.substream(j)``, through :meth:`RngStream.generators`), and reads the fringe
    amplitude off the first Fourier coefficient, which is exact on an even
    grid of three or more points. The arguments are checked before numpy is imported.
    """
    n_atoms, phase_points = _at_least("n_atoms", n_atoms), _at_least("phase_points", phase_points, low=3)
    shots_per_point = _at_least("shots", shots, low=phase_points) // phase_points
    m_atoms, p = _binomial_n("bath.m_atoms", bath.m_atoms), bath.excitation
    import numpy as np

    coefficient = 0.0 + 0.0j
    for j, gen in enumerate(rng.generators(phase_points)):
        delta = 2.0 * math.pi * j / phase_points
        ms = gen.binomial(m_atoms, p, size=shots_per_point)
        port_probs = np.cos((n_atoms * bath.theta * ms + delta) / 2.0) ** 2
        hits = gen.random(shots_per_point) < port_probs
        coefficient += hits.mean() * cmath.exp(-1j * delta)
    return 4.0 * abs(coefficient) / phase_points
