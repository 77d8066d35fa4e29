import numpy as np
import pytest

from povm_strategies import (
    enumerate_classical_strategy,
    guess_strategy,
    min_error_strategy,
    optimized_strategy,
    unambiguous_strategy,
)
from test_protocols import _mapped_half_z
from teleportsim import ensembles
from teleportsim.classical import (
    _biased_guess,
    classical_sweep,
    fidelity_biased_guess,
    fidelity_optimized,
    unknown_state_classical_fidelity,
)
from teleportsim.ensembles import TwoStateEnsemble, make_states, overlap
from teleportsim.protocols import _STANDARD_CORRECTIONS, enumerate_protocol_fidelity
from teleportsim.states import PureState
from teleportsim.verification import _guess_spec

PI4 = TwoStateEnsemble(np.pi / 4)


def _through_product_channel(ens, g):
    """The biased-guess fidelity at ``g``, enumerated through verify's product-resource protocol."""
    spec = _guess_spec(g)
    return 0.5 * sum(enumerate_protocol_fidelity(psi, spec) for psi in make_states(ens))


edges = pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2], ids=["0", "pi/4", "pi/2"])


class TestGuessSpec:
    """``verification._guess_spec`` at the edges of the (theta, g) square."""

    @edges
    def test_reproduces_the_biased_guess_closed_form(self, theta):
        ens = TwoStateEnsemble(theta)
        for g in (0.0, theta, fidelity_optimized(ens).guess_angle, np.pi / 2):
            got = _through_product_channel(ens, g)
            assert abs(got - fidelity_biased_guess(ens, g)) < 1e-12

    @edges
    def test_guessing_the_signal_states_is_the_min_error_column(self, theta):
        got = _through_product_channel(TwoStateEnsemble(theta), theta)
        assert abs(got - classical_sweep(theta)[0]) < 1e-12

    @edges
    def test_reproduces_the_optimum_at_its_own_guess_angle(self, theta):
        ens = TwoStateEnsemble(theta)
        report = fidelity_optimized(ens)
        got = _through_product_channel(ens, report.guess_angle)
        assert abs(got - report.fidelity) < 1e-12

    def test_basis_guesses_at_pi_over_4(self):
        assert abs(_through_product_channel(PI4, 0.0) - 0.75) < 1e-12

    def test_corrections_turn_the_held_state_into_the_guesses(self):
        # the guess sits in the resource |0> (x) (c|0> + s|1>), and every g
        # shares the standard set's own I (phi+-) and X (psi+-) objects
        i, x = _STANDARD_CORRECTIONS[1], _STANDARD_CORRECTIONS[3]
        for g in np.linspace(0.0, np.pi / 2, 7):
            spec = _guess_spec(g)
            c, s = np.cos(g / 2), np.sin(g / 2)
            assert np.array_equal(spec.resource_state.amplitudes, [c, s, 0, 0])
            assert all(spec.corrections[k] is op for k, op in zip((1, 2, 3, 4), (i, i, x, x)))
            held = spec.resource_state.amplitudes[:2]
            _, (g0, g1) = guess_strategy(g)
            for k, guess in ((1, g0), (2, g0), (3, g1), (4, g1)):
                out = spec.corrections[k].factors[0] @ held
                assert np.abs(out - guess.amplitudes).max() < 1e-15

    def test_matches_the_povm_oracle_for_any_guess_angle(self):
        # two routes that share nothing: Bell-outcome enumeration through the
        # product channel, and Tr(A_i rho_j) over the basis POVM
        for t in np.linspace(0.05, np.pi / 2 - 0.05, 9):
            ens = TwoStateEnsemble(t)
            for g in np.linspace(0.0, np.pi / 2, 7):
                via_povm = enumerate_classical_strategy(guess_strategy(g), ens)
                assert abs(_through_product_channel(ens, g) - via_povm) < 1e-12


class TestPovmOracles:
    """The strategies of ``povm_strategies`` are measurements: one guess per element,
    Hermitian positive elements summing to the identity."""

    @pytest.mark.parametrize(
        "strategy",
        [min_error_strategy, unambiguous_strategy, optimized_strategy],
        ids=["min-error", "unambiguous", "optimized"],
    )
    def test_is_a_povm(self, strategy):
        for t in np.linspace(0.0, np.pi / 2, 13):
            povm, guesses = strategy(TwoStateEnsemble(t))
            assert len(povm) == len(guesses)
            for m in povm:
                assert m.shape == (2, 2)
                assert np.abs(m - m.conj().T).max() < 1e-15
                assert np.linalg.eigvalsh(m).min() > -1e-12
            assert np.abs(sum(povm) - np.eye(2)).max() < 1e-12


class TestMinErrorProbability:
    """The min-error oracle attains the Helstrom bound (1 - cos theta)/2."""

    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 0.0), (np.pi / 2, 0.5), (np.pi / 4, 0.1464466094067262)],
    )
    def test_values(self, theta, expected):
        ens = TwoStateEnsemble(theta)
        povm, _ = min_error_strategy(ens)
        # element i identifies signal state i; the error is every other element's weight
        p_err = 0.0
        for j, psi in enumerate(make_states(ens)):
            rho = psi.density().elements
            p_err += 0.5 * sum(
                float(np.real(np.trace(m @ rho))) for i, m in enumerate(povm) if i != j
            )
        assert abs(p_err - expected) < 1e-12
        assert abs(p_err - 0.5 * (1.0 - np.cos(theta))) < 1e-12


class TestFidelityMinError:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 1.0), (np.pi / 4, 0.9267766952966369), (np.pi / 2, 1.0)],
    )
    def test_values(self, theta, expected):
        assert abs(classical_sweep(theta)[0] - expected) < 1e-12

    def test_matches_povm_enumeration(self):
        thetas = np.linspace(0.0, np.pi / 2, 25)
        f_min_error = classical_sweep(thetas)[0]
        for t, closed in zip(thetas, f_min_error):
            ens = TwoStateEnsemble(t)
            assert abs(enumerate_classical_strategy(min_error_strategy(ens), ens) - closed) < 1e-12


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
            via_povm = enumerate_classical_strategy(unambiguous_strategy(ens), ens)
            assert abs(via_povm - closed) < 1e-12

    def test_povm_never_misidentifies(self):
        for t in (0.2, np.pi / 4, 1.3):
            ens = TwoStateEnsemble(t)
            (a1, a2, _, _), _ = unambiguous_strategy(ens)
            psi1, psi2 = make_states(ens)
            assert abs(psi2.amplitudes.conj() @ a1 @ psi2.amplitudes) < 1e-14
            assert abs(psi1.amplitudes.conj() @ a2 @ psi1.amplitudes) < 1e-14

    def test_success_probability(self):
        for t in (0.0, 0.4, np.pi / 4):
            ens = TwoStateEnsemble(t)
            (a1, *_), _ = unambiguous_strategy(ens)
            psi1, _ = make_states(ens)
            p_succ = np.real(psi1.amplitudes.conj() @ a1 @ psi1.amplitudes)
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

    def test_optimized_strategy_reproduces_report(self):
        strat = optimized_strategy(PI4)
        assert abs(enumerate_classical_strategy(strat, PI4) - fidelity_optimized(PI4).fidelity) < 1e-12

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


def _within_four_stderr_of_two_thirds(samples, seed):
    """The estimate within 4 standard errors of 2/3: the score (1 + r_z^2)/2 has variance 1/45."""
    est = unknown_state_classical_fidelity(samples, seed)
    return abs(est - 2 / 3) <= 4 * np.sqrt(1 / (45 * samples))


class TestUnknownStateMC:
    def test_converges_to_two_thirds(self):
        est = unknown_state_classical_fidelity(1_000_000, seed=2024)
        assert abs(est - 2 / 3) < 0.002

    def test_within_four_standard_errors_at_a_million_samples(self):
        for seed in (42, 2024, 7919):
            assert _within_four_stderr_of_two_thirds(1_000_000, seed)

    def test_four_standard_errors_catch_a_compressed_draw(self, monkeypatch):
        # every w = -r_z/2 scaled by 0.995: a 1.7e-3 bias, 11 standard errors
        # at 10^6 samples, which a 0.002 tolerance lets through at seed 42
        _mapped_half_z(monkeypatch, lambda w: 0.995 * w)
        for seed in (42, 2024, 7919):
            assert not _within_four_stderr_of_two_thirds(1_000_000, seed)

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
