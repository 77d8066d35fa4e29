import numpy as np
import pytest

from teleportsim.channels import (
    _success_probability,
    average_fidelity_direct,
    combined_fidelity,
    direct_fidelity_state,
    horodecki_optimal_fidelity,
    optimize_combined,
    purification_fidelity_two_state,
    singlet_fraction,
    two_state_direct_fidelity,
    unknown_state_sweep,
)
from teleportsim.classical import fidelity_optimized
from teleportsim.ensembles import Channel, TwoStateEnsemble

PI4 = TwoStateEnsemble(np.pi / 4)
CH03 = Channel(np.sqrt(0.3))
CH02 = Channel(np.sqrt(0.2))
# three interior points each way, then a 50 x 50 grid with its edges;
# each theta set is one case, crossed with every alpha^2
ENDPOINT_THETAS = pytest.mark.parametrize(
    "thetas",
    [(0.2, np.pi / 4, 1.2), np.linspace(0, np.pi / 2, 50)],
    ids=["interior-thetas", "grid-50-thetas"],
)
ENDPOINT_ALPHA_SQS = (0.05, 0.2, 0.4, *np.linspace(0, 0.5, 50))


class TestDirectFidelity:
    def test_maximal_channel_is_perfect(self):
        for t in np.linspace(0, np.pi, 15):
            assert abs(direct_fidelity_state(t, Channel(1 / np.sqrt(2))) - 1.0) < 1e-12

    def test_never_rounds_above_one_at_the_maximal_channel(self):
        # the sum cos^4 + sin^4 + alpha beta sin^2 rounded to 1 + 2.2e-16 on
        # 6 of these angles, e.g. theta = 0.02575
        for t in np.linspace(0, np.pi / 2, 62):
            assert direct_fidelity_state(t, Channel(1 / np.sqrt(2))) <= 1.0

    def test_product_channel_equatorial_state(self):
        assert abs(direct_fidelity_state(np.pi / 2, Channel(0.0)) - 0.5) < 1e-15

    def test_value_at_pi4_alpha2_03(self):
        expected = 0.75 + np.sqrt(0.21) * 0.5
        assert abs(direct_fidelity_state(np.pi / 4, CH03) - expected) < 1e-14
        assert abs(direct_fidelity_state(np.pi / 4, CH03) - 0.979128784747792) < 1e-12


class TestAverageFidelity:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(1 / np.sqrt(2), 1.0), (0.0, 2 / 3), (np.sqrt(0.3), 0.972171712997056)],
    )
    def test_values(self, alpha, expected):
        assert abs(average_fidelity_direct(Channel(alpha)) - expected) < 1e-12

    def test_nondecreasing_in_alpha(self):
        vals = [average_fidelity_direct(Channel(np.sqrt(a2)))
                for a2 in np.linspace(0, 0.5, 101)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestSingletFraction:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(1 / np.sqrt(2), 1.0), (0.0, 0.5), (np.sqrt(0.3), 0.9582575694955839)],
    )
    def test_values(self, alpha, expected):
        assert abs(singlet_fraction(Channel(alpha)) - expected) < 1e-12

    def test_matches_overlap_definition(self):
        # |<bell| (alpha|00> + beta|11>)|^2 with bell = (|00>+|11>)/sqrt(2)
        for a2 in (0.0, 0.15, 0.3, 0.5):
            c = Channel(np.sqrt(a2))
            bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
            vec = np.array([c.alpha, 0, 0, c.beta])
            assert abs(singlet_fraction(c) - abs(bell @ vec) ** 2) < 1e-14


class TestHorodeckiRelation:
    def test_equals_average_direct_on_grid(self):
        for a2 in np.linspace(0, 0.5, 101):
            c = Channel(np.sqrt(a2))
            assert abs(horodecki_optimal_fidelity(c) - average_fidelity_direct(c)) < 1e-15

    def test_maximal_channel(self):
        assert abs(horodecki_optimal_fidelity(Channel(1 / np.sqrt(2))) - 1.0) < 1e-15


class TestTwoStateDirect:
    def test_strictly_below_one_for_partial_entanglement(self):
        for t in np.linspace(0.05, np.pi / 2 - 0.05, 12):
            for a in (0.0, 0.3, 0.6):
                assert two_state_direct_fidelity(TwoStateEnsemble(t), Channel(a)) < 1.0

    def test_orthogonal_states_teleport_exactly(self):
        for a in (0.0, 0.2, 0.5):
            assert abs(two_state_direct_fidelity(TwoStateEnsemble(0.0), Channel(a)) - 1.0) < 1e-15

    def test_value(self):
        assert abs(two_state_direct_fidelity(PI4, CH03) - 0.979128784747792) < 1e-12


class TestPurification:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(1 / np.sqrt(2), 1.0), (0.0, 2 / 3), (np.sqrt(0.3), 0.8666666666666667)],
    )
    def test_unknown_state_values(self, alpha, expected):
        assert abs(unknown_state_sweep(alpha)[1] - expected) < 1e-12

    def test_two_state_maximal_channel(self):
        assert abs(purification_fidelity_two_state(PI4, Channel(1 / np.sqrt(2))) - 1.0) < 1e-12

    def test_two_state_zero_entanglement_reduces_to_classical(self):
        for theta in (np.pi / 4, np.pi / 2):
            ens = TwoStateEnsemble(theta)
            expected = fidelity_optimized(ens).fidelity
            assert abs(purification_fidelity_two_state(ens, Channel(0.0)) - expected) < 1e-12
            # every alpha' > 0 filters with probability 0, so the combined optimum
            # is the purification strategy: always fail, then the classical fallback
            with np.errstate(divide="raise", invalid="raise"):
                report = optimize_combined(ens, Channel(0.0))
            assert report.fidelity == expected
            assert report.alpha_prime == 1 / np.sqrt(2)

    def test_two_state_value(self):
        assert abs(purification_fidelity_two_state(PI4, CH03) - 0.9732050807568877) < 1e-12

    def test_direct_dominates_purification_for_unknown_states(self):
        alphas = np.sqrt(np.linspace(0, 0.5, 101))
        for alpha, f_purif_unknown in zip(alphas, unknown_state_sweep(alphas)[1]):
            assert average_fidelity_direct(Channel(alpha)) >= f_purif_unknown - 1e-15


class TestCombined:
    @ENDPOINT_THETAS
    def test_endpoint_alpha_reduces_to_direct(self, thetas):
        for t in thetas:
            ens = TwoStateEnsemble(t)
            for a2 in ENDPOINT_ALPHA_SQS:
                c = Channel(np.sqrt(a2))
                assert abs(
                    combined_fidelity(ens, c, c.alpha) - two_state_direct_fidelity(ens, c)
                ) < 1e-15

    @ENDPOINT_THETAS
    def test_endpoint_max_reduces_to_purification(self, thetas):
        for t in thetas:
            ens = TwoStateEnsemble(t)
            for a2 in ENDPOINT_ALPHA_SQS:
                c = Channel(np.sqrt(a2))
                assert abs(
                    combined_fidelity(ens, c, 1 / np.sqrt(2))
                    - purification_fidelity_two_state(ens, c)
                ) < 1e-15

    def test_interior_value_is_branch_combination(self):
        ap = np.sqrt(0.35)
        p = _success_probability(CH02.alpha, ap)
        expected = p * two_state_direct_fidelity(PI4, Channel(ap)) + (1 - p) * (
            fidelity_optimized(PI4).fidelity
        )
        assert abs(combined_fidelity(PI4, CH02, ap) - expected) < 1e-15
        assert abs(p - 0.2 / 0.35) < 1e-14

    def test_continuous_in_alpha_prime(self):
        grid = np.linspace(CH02.alpha, 1 / np.sqrt(2), 400)
        vals = [combined_fidelity(PI4, CH02, x) for x in grid]
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 5e-3

    @pytest.mark.parametrize("alpha", [1e-6, 1e-9, 1e-11])
    def test_alpha_prime_just_below_alpha_is_clipped_to_it(self, alpha):
        # unclipped, (alpha/alpha')^2 exceeded 1: at alpha = 1e-11 the value
        # read 0.7071 where alpha' = alpha reads 0.75
        c = Channel(alpha)
        assert combined_fidelity(PI4, c, alpha - 1e-12) == combined_fidelity(PI4, c, alpha)
        top = 1 / np.sqrt(2)
        assert combined_fidelity(PI4, c, top + 1e-12) == combined_fidelity(PI4, c, top)

    def test_rejects_out_of_range_alpha_prime(self):
        with pytest.raises(ValueError):
            combined_fidelity(PI4, CH03, 0.1)
        with pytest.raises(ValueError):
            combined_fidelity(PI4, CH03, 0.9)


class TestOptimizeCombined:
    def test_maximal_channel(self):
        for theta in (0.0, np.pi / 4, np.pi / 2):
            with np.errstate(divide="raise", invalid="raise"):
                report = optimize_combined(TwoStateEnsemble(theta), Channel(1 / np.sqrt(2)))
            assert abs(report.fidelity - 1.0) < 1e-12
            assert abs(report.alpha_prime - 1 / np.sqrt(2)) < 1e-12

    def test_orthogonal_ensemble_stays_at_alpha(self):
        # theta = 0 makes s = K = 0, where the stationary point would be 0/0
        ens = TwoStateEnsemble(0.0)
        for alpha in (0.0, 0.3, 1 / np.sqrt(2)):
            c = Channel(alpha)
            with np.errstate(divide="raise", invalid="raise"):
                report = optimize_combined(ens, c)
            assert abs(report.fidelity - 1.0) < 1e-12
            assert abs(report.alpha_prime - c.alpha) < 1e-12

    def test_matches_dense_grid_oracle(self):
        report = optimize_combined(PI4, CH02)
        grid = np.linspace(CH02.alpha, 1 / np.sqrt(2), 100_001)
        vals = np.array([combined_fidelity(PI4, CH02, x) for x in grid])
        k = int(np.argmax(vals))
        assert abs(report.fidelity - vals[k]) < 1e-9
        assert abs(report.alpha_prime - grid[k]) < 1e-5
        assert abs(report.fidelity - 0.9647114317029972) < 1e-9

    @pytest.mark.parametrize("theta_steps", [15, 50], ids=["thetas-15", "thetas-50"])
    def test_dominates_both_pure_strategies(self, theta_steps):
        # each theta grid against a 15-point and verify's 50-point alpha^2 grid
        for t in np.linspace(0, np.pi / 2, theta_steps):
            ens = TwoStateEnsemble(t)
            for a2 in (*np.linspace(0, 0.5, 15), *np.linspace(0, 0.5, 50)):
                c = Channel(np.sqrt(a2))
                best = optimize_combined(ens, c).fidelity
                assert best >= two_state_direct_fidelity(ens, c) - 1e-12
                assert best >= purification_fidelity_two_state(ens, c) - 1e-12


class TestCrossover:
    def test_classical_beats_direct_at_low_entanglement(self):
        f_cl = fidelity_optimized(PI4).fidelity
        crossing = [
            a
            for a in np.linspace(0.01, 0.7, 140)
            if two_state_direct_fidelity(PI4, Channel(a)) < f_cl
        ]
        assert crossing, "no crossover found"
        # closed-form boundary: alpha^2 (1 - alpha^2) = (f_cl - 3/4)^2 / 0.25
        assert max(crossing) ** 2 < 0.16
