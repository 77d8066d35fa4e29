import re
from functools import reduce

import numpy as np
import pytest

from teleportsim.states import (
    BELL_VECTORS,
    DensityMatrix,
    LocalOperator,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    PureState,
    apply_local,
    bell_measure,
    fidelity,
    partial_trace,
    spectrum_entropy,
    tensor,
    von_neumann_entropy,
)

ZERO = PureState(np.array([1.0, 0.0]))
ONE = PureState(np.array([0.0, 1.0]))
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
MINUS = PureState(np.array([1.0, -1.0]) / np.sqrt(2))
# scaled identities just inside the per-factor unitarity check
STRETCHED = (1 + 4e-13) * np.eye(2)
SHRUNK = (1 - 4e-13) * np.eye(2)


def random_state(rng, n):
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(z / np.linalg.norm(z))


def random_local_unitary(rng, n):
    # one QR per 2x2 factor: the reference that verify's stacked draw must match bit for bit
    factors = []
    for _ in range(n):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        factors.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return LocalOperator(tuple(factors))


def universal_telecloning_amplitudes():
    # built by hand so this file stays independent of the telecloning module
    a, b = np.sqrt(2 / 3), np.sqrt(1 / 6)
    phi0 = np.zeros(8)
    phi0[0b000], phi0[0b101], phi0[0b110] = a, b, b
    phi1 = np.zeros(8)
    phi1[0b111], phi1[0b001], phi1[0b010] = a, b, b
    return np.concatenate([phi0, phi1]) / np.sqrt(2)


class TestTensor:
    def test_basis_product(self):
        assert np.allclose(tensor(ZERO, ZERO).amplitudes, [1, 0, 0, 0])

    def test_big_endian_convention(self):
        # qubit 0 is the most significant index bit
        assert np.allclose(tensor(ONE, ZERO).amplitudes, [0, 0, 1, 0])

    def test_ensemble_state_with_ancilla(self):
        psi1 = PureState(np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)]))
        out = tensor(psi1, ZERO)
        assert np.allclose(out.amplitudes, [np.cos(np.pi / 8), 0, np.sin(np.pi / 8), 0])


class TestPartialTrace:
    def test_bell_pair_reduces_to_maximally_mixed(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell.density(), (0,))
        assert np.allclose(reduced.elements, np.eye(2) / 2)

    def test_product_state(self):
        rho = tensor(ZERO, PLUS).density()
        reduced = partial_trace(rho, (0,))
        assert np.allclose(reduced.elements, np.diag([1.0, 0.0]))

    def test_universal_telecloning_clone_pair_spectrum(self):
        rho = PureState(universal_telecloning_amplitudes()).density()
        reduced = partial_trace(rho, (2, 3))
        eigs = np.sort(np.linalg.eigvalsh(reduced.elements))
        assert np.allclose(eigs, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_rejects_empty_and_full_keep(self):
        rho = tensor(ZERO, ZERO).density()
        with pytest.raises(ValueError):
            partial_trace(rho, ())
        with pytest.raises(ValueError):
            partial_trace(rho, (0, 1))

    @pytest.mark.parametrize("keep,repeated", [((0, 0), [0]), ((1, 0, 1), [1])])
    def test_rejects_a_repeated_qubit_naming_it(self, keep, repeated):
        psi = tensor(ZERO, tensor(PLUS, ONE))
        for state in (psi, psi.density()):
            with pytest.raises(ValueError, match=re.escape(f"repeat qubits {repeated}")):
                partial_trace(state, keep)

    @pytest.mark.parametrize("q", [0.9, 1.0, True])
    def test_rejects_a_qubit_index_that_is_not_an_integer(self, q):
        # int(0.9) would silently trace to qubit 0
        psi = tensor(ZERO, tensor(PLUS, ONE))
        for state in (psi, psi.density()):
            with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {q!r}")):
                partial_trace(state, (q,))

    def test_accepts_numpy_integer_indices(self):
        psi = tensor(ZERO, tensor(PLUS, ONE))
        got = partial_trace(psi, (np.int64(1), np.int32(2)))
        assert np.array_equal(got.elements, partial_trace(psi, (1, 2)).elements)

    def test_two_step_equals_one_step(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_state(rng, 4).density()
            direct = partial_trace(rho, (1, 3))
            stepped = partial_trace(partial_trace(rho, (0, 1, 3)), (1, 2))
            assert np.abs(direct.elements - stepped.elements).max() < 1e-13


class TestEntropy:
    def test_pure_state_projector(self):
        assert abs(von_neumann_entropy(PLUS.density())) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) - 1.0) < 1e-15

    def test_three_flat_eigenvalues(self):
        rho = DensityMatrix(np.diag([1 / 3, 1 / 3, 1 / 3, 0.0]))
        assert abs(von_neumann_entropy(rho) - np.log2(3)) < 1e-12

    def test_bounds_and_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = partial_trace(random_state(rng, 3).density(), (0, 2))
            s = von_neumann_entropy(rho)
            assert 0.0 <= s <= 2.0 + 1e-12
            u = random_local_unitary(rng, 2).matrix()
            rotated = DensityMatrix(u @ rho.elements @ u.conj().T)
            assert abs(von_neumann_entropy(rotated) - s) < 1e-9


def stored_spectrum_cases():
    """Random 1-4 qubit density matrices: reduced pure states, mixtures, rotated states."""
    rng = np.random.default_rng(6)
    cases = []
    for n in (1, 2, 3, 4):
        rho = partial_trace(random_state(rng, n + 2), range(n))
        weights = rng.dirichlet(np.ones(3))
        vectors = [random_state(rng, n).amplitudes for _ in weights]
        mixture = DensityMatrix(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors)))
        u = random_local_unitary(rng, n).matrix()
        rotated = DensityMatrix(u @ rho.elements @ u.conj().T)
        cases += [
            pytest.param(rho, id=f"reduced-{n}"),
            pytest.param(mixture, id=f"mixture-{n}"),
            pytest.param(rotated, id=f"rotated-{n}"),
        ]
    return cases + [
        pytest.param(PLUS.density(), id="pure-1"),
        pytest.param(DensityMatrix(np.eye(4) / 4), id="diagonal-2"),
    ]


STORED_SPECTRUM_CASES = pytest.mark.parametrize("rho", stored_spectrum_cases())


class TestStoredSpectrum:
    @STORED_SPECTRUM_CASES
    def test_entropy_equals_a_fresh_eigendecomposition_bit_for_bit(self, rho):
        e = rho.elements
        fresh = float(spectrum_entropy(np.linalg.eigvalsh((e + e.conj().T) / 2)))
        assert von_neumann_entropy(rho) == fresh

    @STORED_SPECTRUM_CASES
    def test_spectrum_and_elements_are_read_only_to_the_base(self, rho):
        assert rho.spectrum.shape == (rho.elements.shape[0],)
        for a in (rho.spectrum, rho.elements):
            while a is not None:
                assert not a.flags.writeable
                a = a.base
        with pytest.raises(ValueError):
            rho.spectrum[0] = 1.0

    def test_elements_are_an_owned_copy(self):
        source = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(source)
        source[0, 0] = 1.0
        assert rho.elements[0, 0] == 0.5
        assert rho.elements.base is None


class TestBellMeasure:
    def test_basis_input_through_channel(self):
        alpha, beta = np.sqrt(0.3), np.sqrt(0.7)
        channel = PureState(np.array([alpha, 0, 0, beta]))
        outcomes = bell_measure(tensor(ZERO, channel), (0, 1))
        probs = [o.probability for o in outcomes]
        assert np.allclose(probs, [0.3 / 2, 0.3 / 2, 0.7 / 2, 0.7 / 2])

    def test_probabilities_match_closed_form(self):
        # p(phi+) = p(phi-) = (alpha^2 cos^2 + beta^2 sin^2)/2 for the
        # two-state input at angle theta
        theta, a2 = np.pi / 4, 0.3
        alpha, beta = np.sqrt(a2), np.sqrt(1 - a2)
        psi = PureState(np.array([np.cos(theta / 2), np.sin(theta / 2)]))
        channel = PureState(np.array([alpha, 0, 0, beta]))
        outcomes = bell_measure(tensor(psi, channel), (0, 1))
        expected = 0.5 * (a2 * np.cos(theta / 2) ** 2 + (1 - a2) * np.sin(theta / 2) ** 2)
        assert abs(outcomes[0].probability - expected) < 1e-12
        assert abs(outcomes[1].probability - expected) < 1e-12

    def test_probabilities_sum_to_one_and_posts_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            state = random_state(rng, 4)
            outcomes = bell_measure(state, (1, 3))
            assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12
            for o in outcomes:
                if o.post_state is not None and o.probability > 1e-12:
                    norm = np.vdot(o.post_state.amplitudes, o.post_state.amplitudes).real
                    assert abs(norm - 1.0) < 1e-12

    def test_remainder_mixture_matches_reduced_state(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 4)
        outcomes = bell_measure(state, (1, 2))
        mix = sum(
            o.probability * o.post_state.density().elements
            for o in outcomes
            if o.post_state is not None
        )
        reduced = partial_trace(state.density(), (0, 3)).elements
        assert np.abs(mix - reduced).max() < 1e-12

    def test_two_qubit_state_yields_empty_posts(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        outcomes = bell_measure(bell, (0, 1))
        assert [o.post_state for o in outcomes] == [None] * 4
        assert abs(outcomes[0].probability - 1.0) < 1e-12

    def test_rejects_coincident_indices(self):
        with pytest.raises(ValueError):
            bell_measure(tensor(ZERO, tensor(ZERO, ZERO)), (1, 1))

    @pytest.mark.parametrize("pair,bad", [((0, 1.7), 1.7), ((0.0, 1), 0.0), ((False, 1), False)])
    def test_rejects_a_qubit_index_that_is_not_an_integer(self, pair, bad):
        # int(1.7) would silently measure (0, 1)
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
            bell_measure(tensor(ZERO, tensor(PLUS, ONE)), pair)

    def test_accepts_numpy_integer_indices(self):
        psi = tensor(ZERO, tensor(PLUS, ONE))
        got = bell_measure(psi, (np.int64(0), np.int32(1)))
        for o, ref in zip(got, bell_measure(psi, (0, 1))):
            assert o.probability == ref.probability
            assert np.array_equal(o.post_state.amplitudes, ref.post_state.amplitudes)

    @pytest.mark.parametrize("pair", [(), (0,), (0, 1, 2)])
    def test_rejects_a_pair_that_is_not_two_indices(self, pair):
        with pytest.raises(ValueError, match="must be two qubit indices"):
            bell_measure(tensor(ZERO, tensor(ZERO, ZERO)), pair)


class TestApplyLocal:
    def test_x_flips_basis(self):
        out = apply_local(LocalOperator((PAULI_X,)), ZERO)
        assert np.allclose(out.amplitudes, ONE.amplitudes)

    def test_z_flips_plus_to_minus(self):
        out = apply_local(LocalOperator((PAULI_Z,)), PLUS)
        assert np.allclose(out.amplitudes, MINUS.amplitudes)

    def test_xxx_mirrors_clone_branch(self):
        amp = universal_telecloning_amplitudes()
        phi0 = PureState(amp[:8] * np.sqrt(2))
        phi1 = PureState(amp[8:] * np.sqrt(2))
        out = apply_local(LocalOperator.uniform(3, PAULI_X), phi0)
        assert np.abs(out.amplitudes - phi1.amplitudes).max() < 1e-15

    def test_norm_preserved_under_random_unitaries(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            psi = random_state(rng, 3)
            out = apply_local(random_local_unitary(rng, 3), psi)
            assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_local(LocalOperator.uniform(2, PAULI_I), ZERO)


class TestFidelity:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(2)
        psi = random_state(rng, 2)
        assert abs(fidelity(psi, psi.density()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(fidelity(ZERO, DensityMatrix(np.eye(2) / 2)) - 0.5) < 1e-15

    def test_ensemble_pair_overlap(self):
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        psi1 = PureState(np.array([c, s]))
        psi2 = PureState(np.array([s, c]))
        assert abs(fidelity(psi1, psi2.density()) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(ZERO, DensityMatrix(np.eye(4) / 4))


class TestValidation:
    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_non_unitary_factor(self):
        with pytest.raises(ValueError):
            LocalOperator((np.array([[1.0, 0.0], [0.0, 2.0]]),))

    def test_local_operator_matrix_is_read_only_kron_chain(self):
        # the cached matrix is shared by every protocol run, so writes must fail
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            op = random_local_unitary(rng, n)
            chain = np.array([[1.0 + 0j]])
            for f in op.factors:
                chain = np.kron(chain, f)
            m = op.matrix()
            assert m is op.matrix()
            assert np.array_equal(m, chain)
            assert m.tobytes() == reduce(np.kron, op.factors).tobytes()
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
            for a in (m, *op.factors):
                while a is not None:
                    assert not a.flags.writeable
                    a = a.base

    def test_factors_are_an_owned_copy(self):
        source = PAULI_X.copy()
        op = LocalOperator((source, PAULI_Z))
        source[0, 1] = 2.0
        assert np.array_equal(op.factors[0], PAULI_X)
        assert np.array_equal(op.matrix(), np.kron(PAULI_X, PAULI_Z))

    @pytest.mark.parametrize(
        "factors,message",
        [
            ((PAULI_I, np.eye(3), PAULI_Z), "factor must be 2x2, got (3, 3)"),
            ((PAULI_I, np.diag([np.nan, 1.0]), PAULI_Z), "factor has a non-finite entry"),
            ((PAULI_I, np.diag([np.inf, 1.0]), PAULI_Z), "factor has a non-finite entry"),
            ((PAULI_I, np.diag([1.0, 2.0]), PAULI_Z), "factor is not unitary within 1e-12"),
            ((), "LocalOperator needs at least one factor"),
            # each factor passes the 1e-12 unitarity check (its gram is off by
            # 8e-13), but three of them change a squared norm by 2.4e-12
            ((STRETCHED,) * 3, "operator is not norm-preserving within 1e-12"),
            ((SHRUNK,) * 3, "operator is not norm-preserving within 1e-12"),
        ],
        ids=["shape", "nan", "inf", "non-unitary", "no-factors", "stretched", "shrunk"],
    )
    def test_local_operator_names_its_single_fault(self, factors, message):
        # the faulty factor sits between valid ones, as the stack is checked whole
        with pytest.raises(ValueError) as err:
            LocalOperator(factors)
        assert str(err.value) == message

    @pytest.mark.parametrize("factor", [STRETCHED, SHRUNK], ids=["stretched", "shrunk"])
    def test_one_near_unitary_factor_is_accepted(self, factor):
        # on one qubit the same factor changes a norm by 8e-13, within 1e-12
        op = LocalOperator((factor,))
        assert np.array_equal(op.matrix(), factor)

    def test_states_are_immutable(self):
        with pytest.raises((ValueError, RuntimeError)):
            ZERO.amplitudes[0] = 0.0

    def test_bell_vectors_are_orthonormal(self):
        gram = BELL_VECTORS.conj() @ BELL_VECTORS.T
        assert np.abs(gram - np.eye(4)).max() < 1e-15
