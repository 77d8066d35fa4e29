import numpy as np
import pytest

from teleportsim import ensembles
from teleportsim.ensembles import (
    Channel,
    TwoStateEnsemble,
    channel_state,
    ensemble_density,
    make_states,
    overlap,
    source_entropy,
)
from teleportsim.states import von_neumann_entropy


class TestMakeStates:
    def test_orthogonal_endpoint(self):
        psi1, psi2 = make_states(TwoStateEnsemble(0.0))
        assert np.allclose(psi1.amplitudes, [1, 0])
        assert np.allclose(psi2.amplitudes, [0, 1])

    def test_degenerate_endpoint(self):
        psi1, psi2 = make_states(TwoStateEnsemble(np.pi / 2))
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(psi1.amplitudes, plus)
        assert np.allclose(psi2.amplitudes, plus)

    def test_overlap_at_pi_over_4(self):
        psi1, psi2 = make_states(TwoStateEnsemble(np.pi / 4))
        inner = np.vdot(psi1.amplitudes, psi2.amplitudes).real
        assert abs(inner - np.sin(np.pi / 4)) < 1e-15


class TestOverlap:
    @pytest.mark.parametrize(
        "theta,expected", [(0.0, 0.0), (np.pi / 2, 1.0), (np.pi / 4, np.sin(np.pi / 4))]
    )
    def test_endpoints_and_middle(self, theta, expected):
        assert abs(overlap(TwoStateEnsemble(theta)) - expected) < 1e-15

    def test_matches_inner_product_on_grid(self):
        for t in np.linspace(0, np.pi / 2, 100):
            ens = TwoStateEnsemble(t)
            psi1, psi2 = make_states(ens)
            inner = abs(np.vdot(psi1.amplitudes, psi2.amplitudes))
            assert abs(inner - overlap(ens)) < 1e-12


class TestEnsembleDensity:
    def test_orthogonal_mixture_is_maximally_mixed(self):
        rho = ensemble_density(TwoStateEnsemble(0.0))
        assert np.allclose(rho.elements, np.eye(2) / 2)

    def test_degenerate_is_plus_projector(self):
        rho = ensemble_density(TwoStateEnsemble(np.pi / 2))
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(rho.elements, np.outer(plus, plus), atol=1e-15)

    def test_eigunvalues_at_pi_over_4(self):
        rho = ensemble_density(TwoStateEnsemble(np.pi / 4))
        eigs = np.sort(np.linalg.eigvalsh(rho.elements))
        assert np.allclose(eigs, [0.14644660940672627, 0.8535533905932737])

    def test_eigenvectors_are_plus_minus(self):
        for t in (0.2, 0.9):
            rho = ensemble_density(TwoStateEnsemble(t)).elements
            plus = np.array([1, 1]) / np.sqrt(2)
            expected = (1 + np.sin(t)) / 2
            assert abs((plus @ rho @ plus).real - expected) < 1e-14

    def test_x_symmetry(self):
        x = np.array([[0, 1], [1, 0]])
        for t in np.linspace(0, np.pi / 2, 20):
            rho = ensemble_density(TwoStateEnsemble(t)).elements
            assert np.abs(x @ rho @ x - rho).max() < 1e-15


class TestSourceEntropy:
    def test_orthogonal_states_give_one_bit(self):
        assert abs(source_entropy(TwoStateEnsemble(0.0)) - 1.0) < 1e-12

    def test_identical_states_give_zero(self):
        assert source_entropy(TwoStateEnsemble(np.pi / 2)) < 1e-12

    def test_computed_value_at_pi_over_4(self):
        # binary entropy of (1 + sin(pi/4))/2, *not* 0.907
        s = source_entropy(TwoStateEnsemble(np.pi / 4))
        lam = (1 + np.sin(np.pi / 4)) / 2
        h2 = -(lam * np.log2(lam) + (1 - lam) * np.log2(1 - lam))
        assert abs(s - h2) < 1e-12
        assert abs(s - 0.6008760366928562) < 1e-12
        assert abs(s - 0.907) > 0.05

    def test_matches_entropy_of_the_ensemble_density(self):
        # oracle: eigvalsh of the built mixture, against the closed-form spectrum
        grid = np.concatenate([np.linspace(0, np.pi / 2, 1001), [1e-8, np.pi / 2 - 1e-8]])
        for t in grid:
            ens = TwoStateEnsemble(t)
            expected = von_neumann_entropy(ensemble_density(ens))
            assert abs(source_entropy(ens) - expected) <= 1e-14

    def test_builds_no_density_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("source_entropy should use its closed-form spectrum")

        monkeypatch.setattr(ensembles, "DensityMatrix", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        s = source_entropy(TwoStateEnsemble(np.pi / 4))
        assert type(s) is float and abs(s - 0.6008760366928562) < 1e-12

    def test_strictly_decreasing(self):
        grid = np.linspace(1e-3, np.pi / 2 - 1e-3, 100)
        vals = [source_entropy(TwoStateEnsemble(t)) for t in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestEnsembleValidation:
    @pytest.mark.parametrize("theta", [-0.1, np.pi / 2 + 0.1, 3.0])
    def test_rejects_out_of_range_theta(self, theta):
        with pytest.raises(ValueError):
            TwoStateEnsemble(theta)

    def test_clamps_theta_within_tolerance(self):
        assert TwoStateEnsemble(np.pi / 2 + 1e-12).theta == np.pi / 2


class TestChannel:
    def test_beta_completes_normalization(self):
        c = Channel(0.3)
        assert abs(c.alpha**2 + c.beta**2 - 1.0) < 1e-15
        assert c.alpha <= c.beta

    def test_maximal(self):
        c = Channel(1 / np.sqrt(2))
        assert abs(c.alpha - c.beta) < 1e-15

    @pytest.mark.parametrize("alpha", [-0.1, 0.8, 1.0])
    def test_rejects_out_of_range_alpha(self, alpha):
        with pytest.raises(ValueError):
            Channel(alpha)

    def test_channel_state_amplitudes(self):
        c = Channel(np.sqrt(0.3))
        assert np.allclose(
            channel_state(c).amplitudes, [np.sqrt(0.3), 0, 0, np.sqrt(0.7)]
        )
