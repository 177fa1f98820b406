import cmath
import math

import pytest

from thermoscale.oracle import (
    branch_phase,
    enumerate_thermal,
    mixed_bath_visibility_exact,
    noon_probs_exact,
)
from thermoscale.thermal import TwoLevelSpec, thermal_summary


class TestEnumerateThermal:
    def test_two_equal_states(self):
        z, mean, var = enumerate_thermal(1, 1.0, 0.0)
        assert z == pytest.approx(2.0, rel=1e-15)
        assert mean == pytest.approx(0.5, rel=1e-15)
        assert var == pytest.approx(0.25, rel=1e-15)

    def test_ground_state_only_in_cold_limit(self):
        z, mean, var = enumerate_thermal(2, 1.0, 50.0)
        assert z == pytest.approx(1.0, abs=1e-20)
        assert mean < 1e-20
        assert var < 1e-20

    def test_epsilon_carries_through(self):
        z, mean, var = enumerate_thermal(4, 2.0, 0.35)
        s = thermal_summary(TwoLevelSpec(4, 2.0), 0.35)
        assert mean == pytest.approx(s.mean_energy, rel=1e-12)
        assert var == pytest.approx(s.energy_variance, rel=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError, match=r"n_atoms=17 outside the integers \[1, 16\]"):
            enumerate_thermal(17, 1.0, 1.0)

    @pytest.mark.parametrize(
        "n_atoms, epsilon, beta",
        [(3, math.inf, 1.0), (3, 1.0, math.inf), (True, 1.0, 1.0), (2.5, 1.0, 1.0), (3, 0.0, 1.0), (3, 1.0, -0.5)],
        ids=["infinite-epsilon", "infinite-beta", "bool-atoms", "fractional-atoms", "zero-epsilon", "negative-beta"],
    )
    def test_refuses_what_is_not_a_finite_ensemble(self, n_atoms, epsilon, beta):
        with pytest.raises(ValueError):
            enumerate_thermal(n_atoms, epsilon, beta)


class TestBranchPhase:
    def test_no_excited_bath_atoms(self):
        assert branch_phase(1, 0, 0.3) == 0.0

    def test_pair_counting(self):
        assert branch_phase(2, 3, 0.1) == (2 * 3) * 0.1

    def test_single_probe_matches_per_atom_phase(self):
        assert branch_phase(1, 3, 0.1) == 3 * 0.1

    def test_guards(self):
        with pytest.raises(ValueError, match=r"n_thermometer=17 outside the integers \[0, 16\]"):
            branch_phase(17, 1, 0.1)
        with pytest.raises(ValueError, match="combined size 32 exceeds 24"):
            branch_phase(16, 16, 0.1)  # combined size over the limit
        assert branch_phase(12, 12, 0.1) == 144 * 0.1

    def test_configuration_guards(self):
        assert branch_phase(16, 8, 0.1) == 128 * 0.1
        with pytest.raises(ValueError, match=r"n_thermometer=17 outside the integers \[0, 16\]"):
            branch_phase(17, 0, 0.1)
        with pytest.raises(ValueError, match=r"m_excited_bath=17 outside the integers \[0, 16\]"):
            branch_phase(0, 17, 0.1)
        with pytest.raises(ValueError, match="combined size 25 exceeds 24"):
            branch_phase(13, 12, 0.1)


class TestNoonProbsExact:
    def test_zero_phase(self):
        for n in range(1, 9):
            p3, p4 = noon_probs_exact(n, 0.0)
            assert p3 == pytest.approx(0.0, abs=1e-15)
            assert p4 == pytest.approx(1.0, abs=1e-15)

    def test_half_split(self):
        p3, p4 = noon_probs_exact(2, math.pi / 4.0)
        assert p3 == pytest.approx(0.5, abs=1e-14)
        assert p4 == pytest.approx(0.5, abs=1e-14)

    def test_three_atom_value(self):
        p3, p4 = noon_probs_exact(3, 0.4)
        assert p3 == pytest.approx(math.sin(0.6) ** 2, abs=1e-14)
        assert p4 == pytest.approx(math.cos(0.6) ** 2, abs=1e-14)

    def test_probabilities_sum_to_one(self):
        for n in range(1, 9):
            for k in range(20):
                phi = -1.0 + 5.0 * k / 19
                p3, p4 = noon_probs_exact(n, phi)
                assert abs(p3 + p4 - 1.0) <= 1e-14

    def test_size_guard(self):
        with pytest.raises(ValueError, match=r"n_atoms=9 outside the integers \[1, 8\]"):
            noon_probs_exact(9, 0.1)


class TestMixedBathVisibilityExact:
    def test_two_opposite_phasors(self):
        assert mixed_bath_visibility_exact(1, 0.5, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_no_excitation(self):
        for m in (1, 5, 16):
            assert mixed_bath_visibility_exact(m, 0.0, 1.7) == pytest.approx(1.0, abs=1e-15)

    def test_matches_characteristic_function_closed_form(self):
        # verify checks p <= 1/2 against dephasing_visibility; a bath with beta >= 0 cannot reach p = 0.9
        p = 0.9
        for m_atoms in range(1, 17):
            for phase in (0.05, 0.1, 0.7, 2.9):
                direct = mixed_bath_visibility_exact(m_atoms, p, phase)
                closed = abs((1.0 - p) + p * cmath.exp(1j * phase)) ** m_atoms
                assert direct == pytest.approx(closed, abs=1e-14)

    def test_size_guard(self):
        with pytest.raises(ValueError, match=r"m_atoms=17 outside the integers \[1, 16\]"):
            mixed_bath_visibility_exact(17, 0.5, 0.1)


@pytest.mark.parametrize(
    "oracle, args",
    [
        (noon_probs_exact, (2.5, 0.3)),
        (noon_probs_exact, (True, 0.3)),
        (noon_probs_exact, (2, math.inf)),
        (mixed_bath_visibility_exact, (3, 0.2, math.inf)),
        (mixed_bath_visibility_exact, (True, 0.2, 0.3)),
        (mixed_bath_visibility_exact, (2.5, 0.2, 0.3)),
        (branch_phase, (2, 2, math.nan)),
        (branch_phase, (True, 2, 0.1)),
        (branch_phase, (2, True, 0.1)),
        (branch_phase, (2.5, 2, 0.1)),
        (mixed_bath_visibility_exact, (3, 1.5, 0.1)),
    ],
    ids=[
        "noon-fractional-atoms", "noon-bool-atoms", "noon-infinite-phase",
        "visibility-infinite-phase", "visibility-bool-atoms", "visibility-fractional-atoms",
        "pair-nan-theta", "pair-bool-thermometer", "pair-bool-bath", "pair-fractional-thermometer",
        "visibility-p-above-one",
    ],
)
def test_oracles_refuse_what_is_not_a_finite_ensemble(oracle, args):
    # an oracle enumerates whole atoms at a finite phase; anything else would return NaN or a guess
    with pytest.raises(ValueError):
        oracle(*args)
