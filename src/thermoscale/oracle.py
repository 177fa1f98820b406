"""Brute-force references for validating every closed form at small size.

Nothing here knows the closed forms it is checking. Thermal statistics are
literal sums over all 2**N configurations, interaction phases come from
counting excited pairs in an explicit configuration, interferometer
probabilities come from multiplying out small complex state vectors, and the
mixing visibility is a direct probability-weighted phasor sum. All of it is
plain Python arithmetic on floats and complex numbers; nothing here imports
numpy. Size guards fail loudly; an oracle must never silently degrade into
an approximation.
"""

from __future__ import annotations

import cmath
import math

MAX_ENUM_ATOMS = 16
MAX_NOON_ATOMS = 8
MAX_COMBINED_ATOMS = 24


def _guard(low: int, high: int, phase: float = 0.0, **counts: int) -> None:
    """Refuse a count that is not an int (a bool is not) in ``[low, high]``, or a phase that is not finite."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
            raise ValueError(f"{name}={value!r} outside the integers [{low}, {high}]")
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")


def enumerate_thermal(n_atoms: int, epsilon: float, beta: float) -> tuple[float, float, float]:
    """Partition sum, mean energy and energy variance by exhaustive enumeration.

    Sums over all 2**n_atoms configurations of the ensemble. Two passes keep
    the variance free of catastrophic cancellation.
    """
    _guard(1, MAX_ENUM_ATOMS, n_atoms=n_atoms)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")

    z = 0.0
    weighted_energy = 0.0
    for config in range(2**n_atoms):
        energy = config.bit_count() * epsilon
        weight = math.exp(-beta * energy)
        z += weight
        weighted_energy += weight * energy
    mean_energy = weighted_energy / z

    weighted_sq_dev = 0.0
    for config in range(2**n_atoms):
        energy = config.bit_count() * epsilon
        weight = math.exp(-beta * energy)
        weighted_sq_dev += weight * (energy - mean_energy) ** 2
    return z, mean_energy, weighted_sq_dev / z


def branch_phase(n_thermometer: int, m_excited_bath: int, theta: float) -> float:
    """Phase accumulated by an all-excited thermometer passing an excited bath.

    Builds the configuration explicitly (one occupation per atom: every
    thermometer atom excited, ``m_excited_bath`` bath atoms excited) and
    counts excited pairs under the pairwise diagonal coupling, instead of
    using the product formula. The result is ``theta`` per excited pair, i.e.
    ``n * m * theta``. Guards keep each subsystem within 16 atoms and the
    pair within 24.
    """
    _guard(0, MAX_ENUM_ATOMS, theta, n_thermometer=n_thermometer, m_excited_bath=m_excited_bath)
    if n_thermometer + m_excited_bath > MAX_COMBINED_ATOMS:
        raise ValueError(f"combined size {n_thermometer + m_excited_bath} exceeds {MAX_COMBINED_ATOMS}")
    thermometer = [1] * n_thermometer
    bath = [1] * m_excited_bath
    excited_pairs = 0
    for occ_j in thermometer:
        for occ_k in bath:
            excited_pairs += occ_j * occ_k
    return excited_pairs * theta


def noon_probs_exact(n_atoms: int, phi_b: float) -> tuple[float, float]:
    """Exact output-port probabilities of the all-atoms-one-arm interferometer.

    Works on the two-dimensional subspace spanned by "all N atoms in arm 3"
    and "all N atoms in arm 4". The state vector is built explicitly: the
    opening splitter, a phase of ``n_atoms * phi_b`` on the bath arm, and the
    closing splitter are successive 2x2 complex matrix-vector products. Returns
    the squared magnitudes ``(p_port3, p_port4)``.
    """
    _guard(1, MAX_NOON_ATOMS, phi_b, n_atoms=n_atoms)
    scale = 1.0 / math.sqrt(2.0)
    splitter = ((scale, 1j * scale), (1j * scale, scale))

    def split(state: tuple[complex, complex]) -> tuple[complex, complex]:
        return tuple(row[0] * state[0] + row[1] * state[1] for row in splitter)

    state = (1.0 + 0.0j, 0.0 + 0.0j)  # all atoms entering by one port
    state = split(state)
    state = (state[0], state[1] * cmath.exp(1j * n_atoms * phi_b))
    state = split(state)
    return abs(state[0]) ** 2, abs(state[1]) ** 2


def mixed_bath_visibility_exact(m_atoms: int, p: float, n_phase: float) -> float:
    """Fringe visibility under per-shot bath resampling, by direct phasor sum.

    Evaluates ``|sum_m Binom(m; M, p) * exp(1j * n_phase * m)|`` term by term.
    """
    _guard(1, MAX_ENUM_ATOMS, n_phase, m_atoms=m_atoms)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    total = 0.0 + 0.0j
    for m in range(m_atoms + 1):
        weight = math.comb(m_atoms, m) * p**m * (1.0 - p) ** (m_atoms - m)
        total += weight * cmath.exp(1j * n_phase * m)
    return abs(total)
