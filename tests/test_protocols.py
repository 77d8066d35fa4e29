import re

import numpy as np
import pytest

from povm_strategies import (
    enumerate_classical_strategy,
    guess_strategy,
    min_error_strategy,
    optimized_strategy,
    unambiguous_strategy,
)
from test_engine import random_qubit
from teleportsim.channels import (
    average_fidelity_direct,
    purification_fidelity_two_state,
    two_state_direct_fidelity,
    unknown_state_sweep,
)
from teleportsim.classical import (
    fidelity_biased_guess,
    fidelity_optimized,
    unknown_state_classical_fidelity,
)
from teleportsim import ensembles
from teleportsim.ensembles import Channel, TwoStateEnsemble, make_states
from teleportsim.protocols import (
    ProtocolSpec,
    _STANDARD_CORRECTIONS,
    _evaluation_view,
    enumerate_protocol_fidelity,
    mc_haar_average_fidelity,
    mc_protocol_fidelity,
    standard_teleportation,
)
from teleportsim.states import (
    PAULI_I,
    PAULI_Z,
    LocalOperator,
    PureState,
    apply_local,
    bell_measure,
    fidelity,
    tensor,
)
from teleportsim.telecloning import (
    CloneCoeffs,
    TelecloningSystem,
    apply_cloner,
    optimize_coeffs,
    protocol_spec,
    teleclone,
)

PI4 = TwoStateEnsemble(np.pi / 4)
# the bare 2x2 matrices I, Z, X, ZX of the standard corrections
STANDARD_MATRICES = {k: op.factors[0] for k, op in _STANDARD_CORRECTIONS.items()}


def simulate_purification_branch(ens, channel):
    """Expected fidelity of the purify-then-teleport strategy, by enumeration.

    Filtering succeeds with probability 2 alpha^2, after which teleportation
    through the maximal channel is enumerated exactly; on failure the
    optimized classical strategy is enumerated.
    """
    p_succ = min(2.0 * channel.alpha**2, 1.0)
    spec = standard_teleportation(Channel(1 / np.sqrt(2)))
    f_tele = 0.5 * sum(enumerate_protocol_fidelity(psi, spec) for psi in make_states(ens))
    f_cl = enumerate_classical_strategy(optimized_strategy(ens), ens)
    return p_succ * f_tele + (1.0 - p_succ) * f_cl


class TestEnumeration:
    def test_maximal_channel_is_exact_for_any_input(self):
        spec = standard_teleportation(Channel(1 / np.sqrt(2)))
        rng = np.random.default_rng(21)
        for _ in range(10):
            psi = random_qubit(rng)
            assert abs(enumerate_protocol_fidelity(psi, spec) - 1.0) < 1e-12

    def test_agrees_with_closed_form(self):
        c = Channel(np.sqrt(0.3))
        spec = standard_teleportation(c)
        psi1, psi2 = make_states(PI4)
        enum = 0.5 * (
            enumerate_protocol_fidelity(psi1, spec)
            + enumerate_protocol_fidelity(psi2, spec)
        )
        assert abs(enum - 0.979128784747792) < 1e-12
        assert abs(enum - two_state_direct_fidelity(PI4, c)) < 1e-12

    def test_oracle_agreement_over_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ens = TwoStateEnsemble(rng.uniform(0, np.pi / 2))
            c = Channel(rng.uniform(0, 1 / np.sqrt(2)))
            spec = standard_teleportation(c)
            psi1, psi2 = make_states(ens)
            enum = 0.5 * (
                enumerate_protocol_fidelity(psi1, spec)
                + enumerate_protocol_fidelity(psi2, spec)
            )
            assert abs(enum - two_state_direct_fidelity(ens, c)) < 1e-12

    def test_basis_input_any_channel_is_exact(self):
        zero = PureState(np.array([1.0, 0.0]))
        for a in (0.0, 0.3, 0.6):
            spec = standard_teleportation(Channel(a))
            assert abs(enumerate_protocol_fidelity(zero, spec) - 1.0) < 1e-12

    def test_phase_independence(self):
        # the input's azimuthal phase must not change the fidelity
        c = Channel(np.sqrt(0.2))
        spec = standard_teleportation(c)
        t = 0.9
        base = PureState(np.array([np.cos(t / 2), np.sin(t / 2)]))
        f0 = enumerate_protocol_fidelity(base, spec)
        for phi in (0.4, 1.7, 3.0):
            psi = PureState(np.array([np.cos(t / 2), np.sin(t / 2) * np.exp(1j * phi)]))
            assert abs(enumerate_protocol_fidelity(psi, spec) - f0) < 1e-12

    def test_clone_pair_is_scored_against_two_copies_in_either_order(self):
        # psi (x) psi does not change when the clones are swapped, so (2, 1)
        # and (1, 2) both score the clone pair the way teleclone's does, and
        # a full set scores the same in any order
        rng = np.random.default_rng(23)
        with np.errstate(divide="raise", invalid="raise"):
            for _ in range(6):
                u = np.abs(rng.standard_normal(3))
                u /= np.linalg.norm(u)
                system = TelecloningSystem(CloneCoeffs(u[0], u[1] / np.sqrt(2), u[2]))
                psi = random_qubit(rng)
                pair = fidelity(tensor(psi, psi), teleclone(psi, system).joint_clones)
                full = enumerate_protocol_fidelity(psi, protocol_spec(system, targets=(0, 1, 2)))
                for targets, expected in (
                    ((1, 2), pair), ((2, 1), pair), ((1, 0, 2), full), ((2, 1, 0), full)
                ):
                    got = enumerate_protocol_fidelity(psi, protocol_spec(system, targets=targets))
                    assert abs(got - expected) < 1e-12

    def test_missing_correction_rejected(self):
        spec = standard_teleportation(Channel(0.4))
        with pytest.raises(ValueError):
            ProtocolSpec(
                resource_state=spec.resource_state,
                corrections={1: LocalOperator.uniform(1, PAULI_I)},
                evaluation_targets=(0,),
            )

    def test_raw_matrix_correction_rejected_naming_its_outcome(self):
        # a bare 2x2 matrix (here a standard correction's factor) is not
        # a LocalOperator; the error names the first such outcome
        spec = standard_teleportation(Channel(0.4))
        for raw in (1, 3):
            corrections = {**_STANDARD_CORRECTIONS, raw: STANDARD_MATRICES[raw]}
            message = f"^correction {raw} must be a LocalOperator, got ndarray$"
            with pytest.raises(ValueError, match=message):
                ProtocolSpec(
                    resource_state=spec.resource_state,
                    corrections=corrections,
                    evaluation_targets=(0,),
                )
        with pytest.raises(ValueError, match="^correction 1 must be a LocalOperator"):
            ProtocolSpec(
                resource_state=spec.resource_state,
                corrections=STANDARD_MATRICES,
                evaluation_targets=(0,),
            )

    @pytest.mark.parametrize("targets,bad", [((0.6,), 0.6), ((0.0,), 0.0), ((True,), True)])
    def test_rejects_an_evaluation_target_that_is_not_an_integer(self, targets, bad):
        # int(0.6) would silently store (0,)
        spec = standard_teleportation(Channel(0.4))
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
            ProtocolSpec(
                resource_state=spec.resource_state,
                corrections=spec.corrections,
                evaluation_targets=targets,
            )

    def test_accepts_numpy_integer_evaluation_targets(self):
        spec = standard_teleportation(Channel(0.4))
        got = ProtocolSpec(
            resource_state=spec.resource_state,
            corrections=spec.corrections,
            evaluation_targets=(np.int64(0),),
        )
        assert got.evaluation_targets == (0,)
        assert type(got.evaluation_targets[0]) is int

    def test_corrections_are_a_read_only_copy(self):
        # transfer is built from the corrections once, so a write after
        # construction would split the enumeration from the Monte Carlo,
        # which reads the corrections at call time
        psi, _ = make_states(TwoStateEnsemble(0.7))
        given = dict(_STANDARD_CORRECTIONS)
        spec = ProtocolSpec(
            resource_state=standard_teleportation(Channel(0.3)).resource_state,
            corrections=given,
            evaluation_targets=(0,),
        )
        exact = enumerate_protocol_fidelity(psi, spec)
        mc = mc_protocol_fidelity(psi, spec, 10_000, seed=1)
        with pytest.raises(TypeError):
            spec.corrections[2] = spec.corrections[1]
        given[2] = given[1]
        assert spec.corrections[2] is not spec.corrections[1]
        assert enumerate_protocol_fidelity(psi, spec) == exact
        assert mc_protocol_fidelity(psi, spec, 10_000, seed=1) == mc
        assert abs(mc[0] - exact) <= 4 * mc[1]

    def test_density_matrix_input_or_resource_rejected(self):
        spec = standard_teleportation(Channel(0.4))
        psi, _ = make_states(PI4)
        message = "^protocol input must be a PureState, got DensityMatrix$"
        with pytest.raises(ValueError, match=message):
            enumerate_protocol_fidelity(psi.density(), spec)
        with pytest.raises(ValueError, match=message):
            mc_protocol_fidelity(psi.density(), spec, 1000, seed=1)
        with pytest.raises(ValueError, match="^resource must be a PureState, got DensityMatrix$"):
            ProtocolSpec(
                resource_state=spec.resource_state.density(),
                corrections=spec.corrections,
                evaluation_targets=(0,),
            )
        # every public function that reads amplitudes names its argument
        rho = psi.density()
        system = TelecloningSystem(optimize_coeffs(PI4))
        for name, call in [
            ("tensor factor", lambda: tensor(rho, psi)),
            ("tensor factor", lambda: tensor(psi, rho)),
            ("measured state", lambda: bell_measure(spec.resource_state.density(), (0, 1))),
            ("operand", lambda: apply_local(LocalOperator((PAULI_Z,)), rho)),
            ("psi", lambda: fidelity(rho, psi)),
            ("telecloning input", lambda: teleclone(rho, system)),
            ("cloner input", lambda: apply_cloner(rho, system.coeffs)),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be a PureState, got DensityMatrix$"):
                call()


class TestMonteCarlo:
    def test_maximal_channel_gives_mean_one_stderr_zero(self):
        spec = standard_teleportation(Channel(1 / np.sqrt(2)))
        psi1, _ = make_states(PI4)
        mean, stderr = mc_protocol_fidelity(psi1, spec, 10_000, seed=3)
        assert abs(mean - 1.0) < 1e-12
        assert stderr < 1e-12

    def test_agrees_with_enumeration_within_four_stderr(self):
        c = Channel(np.sqrt(0.3))
        spec = standard_teleportation(c)
        psi1, _ = make_states(PI4)
        exact = enumerate_protocol_fidelity(psi1, spec)
        mean, stderr = mc_protocol_fidelity(psi1, spec, 1_000_000, seed=11)
        assert abs(mean - exact) <= 4 * stderr

    def test_agrees_with_enumeration_at_edges_and_on_clone_targets(self):
        # both signal states at the theta and alpha edges through the channel,
        # and through the clone spec scored on one clone and on the clone
        # pair: a subset target needs nothing beyond the spec's evaluation_targets
        cases = []
        for theta in (0.0, np.pi / 4, np.pi / 2):
            ens = TwoStateEnsemble(theta)
            for alpha in (0.0, 1 / np.sqrt(2)):
                spec = standard_teleportation(Channel(alpha))
                cases += [(psi, spec) for psi in make_states(ens)]
            system = TelecloningSystem(optimize_coeffs(ens))
            for targets in ((1,), (2,), (1, 2)):
                spec = protocol_spec(system, targets=targets)
                cases += [(psi, spec) for psi in make_states(ens)]
        with np.errstate(divide="raise", invalid="raise"):
            for seed, (psi, spec) in enumerate(cases):
                exact = enumerate_protocol_fidelity(psi, spec)
                mean, stderr = mc_protocol_fidelity(psi, spec, 100_000, seed)
                assert abs(mean - exact) <= max(4 * stderr, 1e-12)

    def test_does_not_read_the_transfer_operators(self):
        # leaving phi- uncorrected in T moves the enumeration, while the
        # Monte Carlo, which Bell-measures the states themselves, must not move
        spec = standard_teleportation(Channel(np.sqrt(0.3)))
        psi1, _ = make_states(PI4)
        seeded = mc_protocol_fidelity(psi1, spec, 1_000_000, seed=11)
        t = spec.transfer.copy()
        t[1] = PAULI_Z @ t[1]
        t.setflags(write=False)
        object.__setattr__(spec, "transfer", t)
        # enumeration reads the evaluation view fixed at construction
        object.__setattr__(spec, "_view", _evaluation_view(t, spec.evaluation_targets))
        exact = enumerate_protocol_fidelity(psi1, spec)
        assert abs(exact - 0.8646) < 5e-5
        mean, stderr = mc_protocol_fidelity(psi1, spec, 1_000_000, seed=11)
        assert (mean, stderr) == seeded
        assert abs(mean - exact) > 100 * stderr

    def test_same_seed_identical_output(self):
        c = Channel(0.5)
        spec = standard_teleportation(c)
        psi1, _ = make_states(TwoStateEnsemble(0.8))
        assert mc_protocol_fidelity(psi1, spec, 40_000, seed=5) == mc_protocol_fidelity(
            psi1, spec, 40_000, seed=5
        )

    def test_rejects_tiny_sample_counts(self):
        spec = standard_teleportation(Channel(0.5))
        psi1, _ = make_states(PI4)
        with pytest.raises(ValueError):
            mc_protocol_fidelity(psi1, spec, 99, seed=0)

    def test_outcome_probabilities_sane(self):
        rng = np.random.default_rng(17)
        from teleportsim.ensembles import channel_state
        from teleportsim.states import bell_measure, tensor

        for _ in range(20):
            c = Channel(rng.uniform(0, 1 / np.sqrt(2)))
            outcomes = bell_measure(tensor(random_qubit(rng), channel_state(c)), (0, 1))
            assert all(o.probability >= -1e-15 for o in outcomes)
            assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12


class TestPurificationBranch:
    def test_maximal_channel(self):
        assert abs(simulate_purification_branch(PI4, Channel(1 / np.sqrt(2))) - 1.0) < 1e-12

    def test_no_entanglement_reduces_to_classical(self):
        expected = fidelity_optimized(PI4).fidelity
        assert abs(simulate_purification_branch(PI4, Channel(0.0)) - expected) < 1e-12

    def test_branch_arithmetic(self):
        got = simulate_purification_branch(PI4, Channel(np.sqrt(0.3)))
        assert abs(got - 0.9732050807568877) < 1e-12

    def test_matches_closed_form_over_grid(self):
        # the enumeration route is the independent check of the closed form
        thetas = np.linspace(0.0, np.pi / 2, 7)
        alphas = np.append(np.linspace(0.0, 1 / np.sqrt(2), 6), np.sqrt(0.3))
        with np.errstate(divide="raise", invalid="raise"):
            for theta in thetas:
                ens = TwoStateEnsemble(theta)
                for alpha in alphas:
                    channel = Channel(alpha)
                    closed = purification_fidelity_two_state(ens, channel)
                    assert abs(simulate_purification_branch(ens, channel) - closed) < 1e-12

    def test_unknown_state_variant_matches_six_state_enumeration(self):
        # every score here is quadratic in the input's Bloch vector, and the six
        # Pauli eigenstates are a spherical 3-design: their mean is the Haar average
        h = 1 / np.sqrt(2)
        inputs = [
            PureState(np.array(v, dtype=complex))
            for v in ([1, 0], [0, 1], [h, h], [h, -h], [h, 1j * h], [h, -1j * h])
        ]
        spec = standard_teleportation(Channel(1 / np.sqrt(2)))
        f_tele = np.mean([enumerate_protocol_fidelity(psi, spec) for psi in inputs])
        # on failure: measure in the computational basis, prepare the outcome
        basis = inputs[:2]
        f_cl = np.mean([sum(fidelity(b, psi) ** 2 for b in basis) for psi in inputs])
        alphas = np.sqrt(np.linspace(0.0, 0.5, 11))
        for alpha, closed in zip(alphas, unknown_state_sweep(alphas)[1]):
            p_succ = 2.0 * alpha**2
            assert abs(p_succ * f_tele + (1.0 - p_succ) * f_cl - closed) < 1e-12


class TestClassicalEnumeration:
    def test_min_error_strategy(self):
        got = enumerate_classical_strategy(min_error_strategy(PI4), PI4)
        assert abs(got - 0.9267766952966369) < 1e-12

    def test_unambiguous_povm(self):
        got = enumerate_classical_strategy(unambiguous_strategy(PI4), PI4)
        assert abs(got - 0.8232233047033631) < 1e-12

    def test_orthogonal_ensemble(self):
        ens = TwoStateEnsemble(0.0)
        assert abs(enumerate_classical_strategy(min_error_strategy(ens), ens) - 1.0) < 1e-15

    def test_agrees_with_the_biased_guess_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ens = TwoStateEnsemble(rng.uniform(0, np.pi / 2))
            g = rng.uniform(0, np.pi / 2)
            got = enumerate_classical_strategy(guess_strategy(g), ens)
            assert abs(got - fidelity_biased_guess(ens, g)) < 1e-12


def _haar_bounds(channel, samples, seed):
    """(estimate within 4 stderr of (2/3)(1 + ab), draws' mean r_z within 4 sigma of 0).

    The score is even in r_z, so only an odd moment of the draws tells a
    one-hemisphere draw from the sphere: E[r_z] = 0 and Var[r_z] = 1/3.
    The mean r_z is -2 sum(w) / n over the estimator's own draws w = -r_z/2.
    """
    mean, stderr = mc_haar_average_fidelity(channel, samples, seed)
    sum_w = sum(float(w.sum()) for w in ensembles._half_z_chunks(samples, seed))
    mean_z = -2.0 * sum_w / samples
    return (
        abs(mean - average_fidelity_direct(channel)) <= 4 * stderr,
        abs(mean_z) <= 4 * np.sqrt(1 / (3 * samples)),
    )


def _mapped_half_z(monkeypatch, g):
    """Patch ``ensembles._half_z_chunks`` so each chunk of draws w = u - 1/2 becomes g(w)."""
    chunks = ensembles._half_z_chunks
    monkeypatch.setattr(
        ensembles, "_half_z_chunks", lambda n, seed: (g(w) for w in chunks(n, seed))
    )


class TestHaarAverage:
    def test_reproduces_closed_form_within_four_stderr(self):
        c = Channel(np.sqrt(0.3))
        mean, stderr = mc_haar_average_fidelity(c, 1_000_000, seed=99)
        assert abs(mean - average_fidelity_direct(c)) <= 4 * stderr

    def test_draws_pass_both_bounds_at_a_million_samples(self):
        for seed in (42, 99, 7919):
            assert _haar_bounds(Channel(np.sqrt(0.3)), 1_000_000, seed) == (True, True)

    def test_four_stderr_catch_a_uniform_polar_angle(self, monkeypatch):
        # r_z = cos(pi u) piles up at the poles, where the score is 1
        _mapped_half_z(monkeypatch, lambda w: -0.5 * np.cos(np.pi * (w + 0.5)))
        for seed in (42, 99, 7919):
            assert not _haar_bounds(Channel(np.sqrt(0.3)), 1_000_000, seed)[0]

    def test_mean_r_z_catches_the_upper_hemisphere(self, monkeypatch):
        # r_z = u on [0, 1]: r_z^2 is distributed as on the sphere, so only
        # the mean r_z, 1/2 here, tells the draw apart
        _mapped_half_z(monkeypatch, lambda w: -0.5 * (w + 0.5))
        for seed in (42, 99, 7919):
            assert _haar_bounds(Channel(np.sqrt(0.3)), 1_000_000, seed) == (True, False)

    def test_maximal_channel(self):
        mean, stderr = mc_haar_average_fidelity(Channel(1 / np.sqrt(2)), 10_000, seed=1)
        assert abs(mean - 1.0) < 1e-12
        # per-sample fidelities are 1 up to roundoff, so the spread is pure noise
        assert stderr < 1e-9

    def test_deterministic(self):
        c = Channel(0.45)
        assert mc_haar_average_fidelity(c, 20_000, seed=8) == mc_haar_average_fidelity(
            c, 20_000, seed=8
        )

    def test_maximal_channel_stderr_is_free_of_cancellation(self):
        # every per-sample fidelity is 1 up to rounding, so a one-pass variance
        # (sum f^2 / n - mean^2) would leave cancellation noise of up to 1.8e-9
        for samples in (100, 10_000, 65_537):
            for seed in range(4):
                mean, stderr = mc_haar_average_fidelity(Channel(1 / np.sqrt(2)), samples, seed)
                assert abs(mean - 1.0) < 1e-12
                assert stderr < 1e-14

    def test_product_channel_is_the_classical_estimator(self):
        # at alpha = 0 teleportation measures and prepares in the computational
        # basis, and both estimators score the same Haar draws
        for seed in (3, 99, 7919):
            mean, _ = mc_haar_average_fidelity(Channel(0.0), 200_000, seed)
            assert abs(mean - unknown_state_classical_fidelity(200_000, seed)) < 1e-12

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            mc_haar_average_fidelity(Channel(0.5), 99, seed=0)


def _estimators(seed=0):
    spec = standard_teleportation(Channel(0.5))
    psi1, _ = make_states(PI4)
    return {
        "haar": lambda n: mc_haar_average_fidelity(Channel(0.5), n, seed),
        "protocol": lambda n: mc_protocol_fidelity(psi1, spec, n, seed),
        "unknown": lambda n: unknown_state_classical_fidelity(n, seed),
    }


def _chunk_sizes(samples):
    """The partition every estimator sums ``samples`` draws in."""
    return ensembles._chunks(samples, 0)[0]


class TestSampleCounts:
    @pytest.mark.parametrize("estimator", ["haar", "protocol", "unknown"])
    @pytest.mark.parametrize(
        "samples",
        [1e6, 1000.0, 1000.5, True, np.True_, "1000"],
        ids=["1e6", "1000.0", "1000.5", "True", "np.True_", "str"],
    )
    def test_rejects_non_integer_samples(self, estimator, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            _estimators()[estimator](samples)

    @pytest.mark.parametrize("estimator", ["haar", "protocol", "unknown"])
    def test_accepts_numpy_integers(self, estimator):
        run = _estimators()[estimator]
        assert run(np.int64(1000)) == run(1000)

    @pytest.mark.parametrize("estimator", ["haar", "protocol", "unknown"])
    @pytest.mark.parametrize(
        "seed",
        [True, np.True_, 1.5, 1.0, -1, np.int64(-1), "1"],
        ids=["True", "np.True_", "1.5", "1.0", "-1", "np.int64(-1)", "str"],
    )
    def test_rejects_invalid_seeds(self, estimator, seed):
        # one message for every estimator: no bool runs as seed 1 and no
        # numpy TypeError or "expected non-negative integer" leaks out
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            _estimators(seed)[estimator](1000)

    @pytest.mark.parametrize("estimator", ["haar", "protocol", "unknown"])
    def test_accepts_numpy_integer_seeds(self, estimator):
        assert _estimators(np.int64(7))[estimator](1000) == _estimators(7)[estimator](1000)

    @pytest.mark.parametrize("estimator", ["haar", "protocol", "unknown"])
    def test_sample_floor_is_100(self, estimator):
        run = _estimators()[estimator]
        # below 1 too: 100 is the one floor
        for samples in (99, 0, -1, np.int64(0)):
            with pytest.raises(ValueError, match=r"^samples must be >= 100$"):
                run(samples)
        run(100)

    def test_chunk_partition_is_unchanged(self):
        assert _chunk_sizes(100) == [100]
        assert _chunk_sizes(65_536) == [65_536]
        assert _chunk_sizes(200_000) == [65_536] * 3 + [3_392]


class TestOneStream:
    """Each call draws from one ``default_rng(seed)``; the chunks fix only the summation order."""

    SAMPLES = 200_000  # three full chunks and a partial one

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_protocol_mc_does_not_depend_on_the_chunk_size(self, seed, monkeypatch):
        run = _estimators(seed)["protocol"]
        default = run(self.SAMPLES)
        monkeypatch.setattr(ensembles, "DEFAULT_CHUNK", 1000)
        assert run(self.SAMPLES) == default

    @pytest.mark.parametrize("estimator", ["haar", "unknown"])
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_haar_means_depend_on_the_chunk_size_only_through_rounding(
        self, estimator, seed, monkeypatch
    ):
        run = _estimators(seed)[estimator]
        # the Haar protocol estimator returns (mean, stderr)
        default = np.ravel(run(self.SAMPLES))[0]
        monkeypatch.setattr(ensembles, "DEFAULT_CHUNK", 1000)
        small = np.ravel(run(self.SAMPLES))[0]
        assert abs(small - default) <= 1e-15 * abs(default)

    @pytest.mark.parametrize("estimator", ["haar", "unknown"])
    @pytest.mark.parametrize("samples", [100, 65_537, 200_000])
    def test_haar_draws_are_one_stream_cut_into_chunks(self, estimator, samples, monkeypatch):
        expected = np.random.default_rng(99).random(samples)
        drawn = []

        def recorded(n, seed, f=ensembles._half_z_chunks):
            for w in f(n, seed):
                drawn.append(w.copy())  # the next chunk overwrites w
                yield w

        monkeypatch.setattr(ensembles, "_half_z_chunks", recorded)
        _estimators(99)[estimator](samples)
        assert [len(w) for w in drawn] == _chunk_sizes(samples)
        assert np.array_equal(np.concatenate(drawn) + 0.5, expected)

    @pytest.mark.parametrize("estimator", ["haar", "protocol", "unknown"])
    def test_each_call_builds_one_generator(self, estimator, monkeypatch):
        built = []

        def counted(*args, f=np.random.default_rng):
            built.append(args)
            return f(*args)

        run = _estimators(5)[estimator]
        monkeypatch.setattr(np.random, "default_rng", counted)
        run(self.SAMPLES)
        assert built == [(5,)]


class TestCorrectionsTable:
    def test_standard_set(self):
        i, z, x, zx = (STANDARD_MATRICES[k] for k in (1, 2, 3, 4))
        assert np.allclose(i, np.eye(2))
        assert np.allclose(z, np.diag([1, -1]))
        assert np.allclose(x, [[0, 1], [1, 0]])
        assert np.allclose(zx, np.array([[1, 0], [0, -1]]) @ np.array([[0, 1], [1, 0]]))

    def test_corrections_reproduce_input_exactly_on_maximal_channel(self):
        # every corrected branch equals the input state itself, no phase
        from teleportsim.ensembles import channel_state
        from teleportsim.states import apply_local, bell_measure, tensor

        rng = np.random.default_rng(30)
        for _ in range(10):
            psi = random_qubit(rng)
            joint = tensor(psi, channel_state(Channel(1 / np.sqrt(2))))
            for o in bell_measure(joint, (0, 1)):
                corrected = apply_local(_STANDARD_CORRECTIONS[o.index], o.post_state)
                assert np.abs(corrected.amplitudes - psi.amplitudes).max() < 1e-12
