import re

import numpy as np
import pytest

from povm_strategies import min_error_strategy, optimized_strategy, unambiguous_strategy
from teleportsim import ensembles
from teleportsim.classical import (
    ClassicalStrategy,
    _biased_guess,
    classical_fidelity,
    classical_sweep,
    fidelity_biased_guess,
    fidelity_optimized,
    projective_guess_strategy,
    unknown_state_classical_fidelity,
)
from teleportsim.ensembles import TwoStateEnsemble, make_states, overlap
from teleportsim.states import PureState

PI4 = TwoStateEnsemble(np.pi / 4)


class TestClassicalFidelityEvaluator:
    def test_min_error_strategy_at_pi_over_4(self):
        # F1 = 0.927 for maximally non-orthogonal states
        assert abs(classical_fidelity(min_error_strategy(PI4), PI4) - 0.9267766952966369) < 1e-12

    def test_orthogonal_states_with_basis_guesses(self):
        ens = TwoStateEnsemble(0.0)
        strat = projective_guess_strategy(0.0)
        assert abs(classical_fidelity(strat, ens) - 1.0) < 1e-15

    def test_basis_guesses_at_pi_over_4(self):
        strat = projective_guess_strategy(0.0)
        assert abs(classical_fidelity(strat, PI4) - 0.75) < 1e-12

    def test_matches_closed_form_for_any_guess_angle(self):
        for t in np.linspace(0.05, np.pi / 2 - 0.05, 9):
            ens = TwoStateEnsemble(t)
            for g in np.linspace(0.0, np.pi / 2, 7):
                ev = classical_fidelity(projective_guess_strategy(g), ens)
                assert abs(ev - fidelity_biased_guess(ens, g)) < 1e-12

    def test_min_error_strategy_matches_closed_form(self):
        thetas = np.linspace(0.0, np.pi / 2, 25)
        f_min_error = classical_sweep(thetas)[0]
        for t, closed in zip(thetas, f_min_error):
            ens = TwoStateEnsemble(t)
            assert abs(classical_fidelity(min_error_strategy(ens), ens) - closed) < 1e-12


class TestMinErrorProbability:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 0.0), (np.pi / 2, 0.5), (np.pi / 4, 0.1464466094067262)],
    )
    def test_values(self, theta, expected):
        report = fidelity_optimized(TwoStateEnsemble(theta))
        assert abs(report.error_probability - expected) < 1e-12


class TestFidelityMinError:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 1.0), (np.pi / 4, 0.9267766952966369), (np.pi / 2, 1.0)],
    )
    def test_values(self, theta, expected):
        assert abs(classical_sweep(theta)[0] - expected) < 1e-12


class TestFidelityUnambiguous:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 1.0), (np.pi / 4, 0.8232233047033631), (np.pi / 2, 1.0)],
    )
    def test_values(self, theta, expected):
        assert abs(classical_sweep(theta)[1] - expected) < 1e-12

    def test_matches_three_outcome_povm_evaluation(self):
        thetas = np.linspace(0.0, np.pi / 2, 25)
        f_unambiguous = classical_sweep(thetas)[1]
        for t, closed in zip(thetas, f_unambiguous):
            ens = TwoStateEnsemble(t)
            via_povm = classical_fidelity(unambiguous_strategy(ens), ens)
            assert abs(via_povm - closed) < 1e-12

    def test_povm_never_misidentifies(self):
        for t in (0.2, np.pi / 4, 1.3):
            ens = TwoStateEnsemble(t)
            strat = unambiguous_strategy(ens)
            psi1, psi2 = make_states(ens)
            a1, a2 = strat.povm[0], strat.povm[1]
            assert abs(psi2.amplitudes.conj() @ a1 @ psi2.amplitudes) < 1e-14
            assert abs(psi1.amplitudes.conj() @ a2 @ psi1.amplitudes) < 1e-14

    def test_success_probability(self):
        for t in (0.0, 0.4, np.pi / 4):
            ens = TwoStateEnsemble(t)
            strat = unambiguous_strategy(ens)
            psi1, psi2 = make_states(ens)
            p_succ = np.real(
                psi1.amplitudes.conj() @ strat.povm[0] @ psi1.amplitudes
            )
            assert abs(p_succ - (1 - overlap(ens))) < 1e-12
            assert abs(p_succ - (1 - np.sin(t))) < 1e-12


def _guess_angle(ens):
    return fidelity_optimized(ens).guess_angle


class TestOptimalGuessAngle:
    def test_orthogonal_needs_no_bias(self):
        assert _guess_angle(TwoStateEnsemble(0.0)) == 0.0

    def test_arctan_sqrt2_at_pi_over_4(self):
        g = _guess_angle(PI4)
        assert abs(g - np.arctan(np.sqrt(2))) < 1e-15
        assert abs(g - 0.9553166181245093) < 1e-12

    def test_value_at_theta_0p3(self):
        assert abs(_guess_angle(TwoStateEnsemble(0.3)) - 0.3131445416765367) < 1e-12

    def test_grid_search_confirms_maximizer(self):
        for t in (0.3, np.pi / 4, 1.2):
            ens = TwoStateEnsemble(t)
            grid = np.linspace(0.0, np.pi / 2, 2_000_001)
            vals = _biased_guess(t, grid)
            assert abs(grid[np.argmax(vals)] - _guess_angle(ens)) < 1e-6

    @pytest.mark.parametrize("theta", [np.pi / 2, np.pi / 2 - 3e-8])
    def test_is_pi_over_2_where_the_states_coincide(self, theta):
        # cos^2 theta < 1e-15 leaves arctan(sin/cos^2) undefined; the unique
        # maximizer of cos^2(pi/4 - g/2) is pi/2, and the report gives it
        assert _guess_angle(TwoStateEnsemble(theta)) == np.pi / 2


class TestFidelityOptimized:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 1.0), (np.pi / 4, 0.9330127018922192), (np.pi / 2, 1.0)],
    )
    def test_values(self, theta, expected):
        assert abs(fidelity_optimized(TwoStateEnsemble(theta)).fidelity - expected) < 1e-9

    def test_report_fields(self):
        report = fidelity_optimized(PI4)
        t = PI4.theta
        assert abs(report.error_probability - 0.5 * (1.0 - np.cos(t))) < 1e-15
        assert abs(report.guess_angle - np.arctan(np.sin(t) / np.cos(t) ** 2)) < 1e-15

    @pytest.mark.parametrize(
        "thetas",
        [np.linspace(0.0, np.pi / 4, 40), np.linspace(0.0, np.pi / 2, 181)],
        ids=["half-grid-40", "fig-classical-grid-181"],
    )
    def test_symmetric_about_pi_over_4(self, thetas):
        for t in thetas:
            a = fidelity_optimized(TwoStateEnsemble(t)).fidelity
            b = fidelity_optimized(TwoStateEnsemble(np.pi / 2 - t)).fidelity
            assert abs(a - b) < 1e-9

    def test_coincides_with_fuchs_peres_on_grid(self):
        thetas = np.linspace(0.0, np.pi / 2, 200)
        f_fuchs_peres = classical_sweep(thetas)[3]
        for t, closed in zip(thetas, f_fuchs_peres):
            assert abs(fidelity_optimized(TwoStateEnsemble(t)).fidelity - closed) < 1e-9

    def test_stationary_at_optimum(self):
        h = 1e-5
        for t in np.linspace(0.05, np.pi / 2 - 0.05, 25):
            ens = TwoStateEnsemble(t)
            g = _guess_angle(ens)
            deriv = (
                fidelity_biased_guess(ens, g + h) - fidelity_biased_guess(ens, g - h)
            ) / (2 * h)
            assert abs(deriv) < 1e-8

    def test_strategy_ordering_on_grid(self):
        thetas = np.linspace(0.0, np.pi / 2, 181)
        f_min_error, f_unambiguous = classical_sweep(thetas)[:2]
        for t, f_m, f_u in zip(thetas, f_min_error, f_unambiguous):
            f_o = fidelity_optimized(TwoStateEnsemble(t)).fidelity
            assert f_u <= f_m + 1e-12
            assert f_m <= f_o + 1e-12


class TestFuchsPeres:
    @pytest.mark.parametrize("theta,expected", [(0.0, 1.0), (np.pi / 4, 0.9330127018922193)])
    def test_values(self, theta, expected):
        assert abs(classical_sweep(theta)[3] - expected) < 1e-12

    def test_symmetry_pi_8_vs_3pi_8(self):
        a = classical_sweep(np.pi / 8)[3]
        b = classical_sweep(3 * np.pi / 8)[3]
        assert abs(a - b) < 1e-14


class TestUnknownStateMC:
    def test_converges_to_two_thirds(self):
        est = unknown_state_classical_fidelity(1_000_000, seed=2024)
        assert abs(est - 2 / 3) < 0.002

    def test_deterministic_given_seed(self):
        a = unknown_state_classical_fidelity(50_000, seed=7)
        b = unknown_state_classical_fidelity(50_000, seed=7)
        assert a == b

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            unknown_state_classical_fidelity(0, seed=1)

    def test_equals_power_sum_reduction(self):
        # each chunk sums to n/2 + 2 sum w^2 over w = u - 1/2; scoring each
        # draw as 0.5 (1 + r_z^2) agrees to the last bit or two
        for seed in (1, 99, 7919):
            for samples in (100, 65_536, 65_537, 200_000):
                u = np.random.default_rng(seed).random(samples)
                total = 0.0
                start = 0
                for size in ensembles._chunks(samples, seed)[0]:
                    w = u[start : start + size] - 0.5
                    start += size
                    total += 0.5 * size + 2.0 * float((w * w).sum())
                got = unknown_state_classical_fidelity(samples, seed)
                assert got == total / samples
                per_sample = 0.5 * (1.0 + (1.0 - 2.0 * u) ** 2)
                assert abs(got - float(per_sample.mean())) <= 4.4e-16

    def test_fixed_input_basis_state_gives_one(self, monkeypatch):
        # every draw at |0> (r_z = 1, w = -1/2) or |1> (r_z = -1, w = 1/2) scores exactly 1
        for w in (-0.5, 0.5):
            monkeypatch.setattr(ensembles, "_half_z_chunks", _fixed_half_z(w))
            assert unknown_state_classical_fidelity(1000, seed=1) == 1.0

    def test_fixed_input_scores_its_bloch_z(self, monkeypatch):
        # every draw at one input: |<0|psi>|^4 + |<1|psi>|^4 through r_z alone
        psi = PureState(np.array([np.cos(0.4), np.exp(0.9j) * np.sin(0.4)]))
        p0, p1 = np.abs(psi.amplitudes) ** 2
        u = np.cos(0.4) ** 2
        monkeypatch.setattr(ensembles, "_half_z_chunks", _fixed_half_z(-0.5 * (p0 - p1)))
        got = unknown_state_classical_fidelity(1000, seed=1)
        assert abs(got - (u**2 + (1 - u) ** 2)) < 1e-15


def _fixed_half_z(w):
    """A stand-in for ``ensembles._half_z_chunks`` whose every draw is w = -r_z/2."""
    return lambda samples, seed: (np.full(n, w) for n in ensembles._chunks(samples, seed)[0])


class TestStrategyValidation:
    def test_rejects_povm_not_summing_to_identity(self):
        psi1, psi2 = make_states(PI4)
        with pytest.raises(ValueError):
            ClassicalStrategy(
                povm=(np.diag([1.0, 0.0]), np.diag([0.0, 0.5])), guesses=(psi1, psi2)
            )

    def test_rejects_negative_element(self):
        psi1, psi2 = make_states(PI4)
        with pytest.raises(ValueError):
            ClassicalStrategy(
                povm=(np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])), guesses=(psi1, psi2)
            )

    def test_povm_is_an_owned_read_only_stack(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        strategy = ClassicalStrategy((p0, p1), make_states(PI4))
        before = classical_fidelity(strategy, PI4)
        p0[0, 0] = 5.0
        assert classical_fidelity(strategy, PI4) == before
        for k in (0, 1):
            with pytest.raises(ValueError):
                strategy.povm[k][0, 0] = 0.0
            with pytest.raises(ValueError):
                strategy.povm[k] = np.eye(2)
        a = strategy.povm
        while a is not None:
            assert not a.flags.writeable
            a = a.base

    def test_rejects_guess_count_mismatch(self):
        psi1, _ = make_states(PI4)
        with pytest.raises(ValueError):
            ClassicalStrategy(
                povm=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), guesses=(psi1,)
            )

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.eye(3) / 3, "POVM elements must be 2x2, got (3, 3)"),
            (np.diag([np.nan, 0.0]), "POVM element has a non-finite entry"),
            (np.array([[0.5, 0.1], [0.0, 0.0]]), "POVM element not Hermitian"),
            (np.diag([1.5, -0.5]), "POVM element has a negative eigenvalue"),
            (np.diag([0.5, 0.5]), "POVM elements do not sum to the identity"),
        ],
        ids=["shape", "non-finite", "non-hermitian", "negative-eigenvalue", "sum"],
    )
    def test_names_the_defect_of_an_element_behind_valid_ones(self, bad, message):
        # the elements are checked as one stack, so the defect is in the middle
        psi1, psi2 = make_states(PI4)
        valid = (np.diag([0.5, 0.0]), np.diag([0.5, 0.0]), np.diag([0.0, 1.0]))
        ClassicalStrategy(povm=valid, guesses=(psi1, psi1, psi2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClassicalStrategy(povm=(valid[0], bad, valid[2]), guesses=(psi1, psi1, psi2))

    def test_optimized_strategy_reproduces_report(self):
        strat = optimized_strategy(PI4)
        assert abs(classical_fidelity(strat, PI4) - fidelity_optimized(PI4).fidelity) < 1e-12
