"""The shared measure-and-correct kernel against the per-outcome loop it replaced.

``reference_bell_measure`` and ``reference_branch_table`` are the loops that
``states.bell_measure`` and ``protocols._branch_table`` ran before the kernel:
one Bell vector at a time, a validated post-state per outcome, then
``apply_local`` and ``fidelity``/``partial_trace``.  ``reference_teleclone``
is the matching loop of ``telecloning.teleclone``.  ``_mc_haar_reference`` is
the per-outcome einsum loop, with its one-pass variance, that
``protocols.mc_haar_average_fidelity`` ran before the transfer operators.
``reference_global_clone_fidelity`` is the density-matrix route that
``telecloning.global_clone_fidelity`` took before it scored branches on
their amplitudes: ``teleclone``, its ``joint_clones`` and ``fidelity``.
"""

import numpy as np
import pytest

from teleportsim import rng as rngmod
from teleportsim import states, telecloning
from teleportsim.ensembles import Channel, TwoStateEnsemble, channel_state, make_states
from teleportsim.protocols import (
    STANDARD_CORRECTION_MATRICES,
    _branch_table,
    _transfer_operators,
    enumerate_protocol_fidelity,
    mc_haar_average_fidelity,
    standard_teleportation,
)
from teleportsim.states import (
    BELL_VECTORS,
    DensityMatrix,
    LocalOperator,
    PureState,
    apply_local,
    bell_measure,
    fidelity,
    partial_trace,
    tensor,
)
from teleportsim.telecloning import (
    CloneCoeffs,
    TelecloningSystem,
    _qubit_marginals,
    build_telecloning_state,
    global_clone_fidelity,
    protocol_spec,
    teleclone,
    universal_coeffs,
)

THETAS = (0.0, np.pi / 4, np.pi / 2)
ALPHAS = (0.0, 0.3, 1 / np.sqrt(2))
ZERO = PureState(np.array([1.0, 0.0]))
ONE = PureState(np.array([0.0, 1.0]))


def random_qubit(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState(z / np.linalg.norm(z))


def random_coeffs(rng):
    u = np.abs(rng.standard_normal(3))
    u /= np.sqrt(u[0] ** 2 + 2 * u[1] ** 2 + u[2] ** 2)
    return CloneCoeffs(u[0], u[1], u[2])


def inputs_for(theta, rng):
    """Signal states at theta, both basis states and two seeded random qubits."""
    psi1, psi2 = make_states(TwoStateEnsemble(theta))
    return [psi1, psi2, ZERO, ONE, random_qubit(rng), random_qubit(rng)]


def reference_tensor(a, b):
    return PureState(np.kron(a.amplitudes, b.amplitudes))


def reference_bell_measure(state, pair):
    """(probability, post-state) per outcome, one Bell vector at a time."""
    n = state.n_qubits
    t = np.moveaxis(state.amplitudes.reshape([2] * n), pair, (0, 1)).reshape(4, -1)
    rows = []
    for k in range(4):
        residual = BELL_VECTORS[k].conj() @ t
        p = float(np.vdot(residual, residual).real)
        post = PureState(residual / np.sqrt(p)) if n > 2 and p > 1e-30 else None
        rows.append((p, post))
    return rows


def reference_branch_table(input_state, spec, target):
    joint = reference_tensor(input_state, spec.resource_state)
    n_rem = joint.n_qubits - 2
    rows = []
    for k, (p, post) in enumerate(reference_bell_measure(joint, spec.measured_pair)):
        if post is None:
            rows.append((p, 0.0))
            continue
        corrected = apply_local(spec.corrections[k + 1], post)
        if spec.evaluation_targets == tuple(range(n_rem)):
            f = fidelity(target, corrected)
        else:
            f = fidelity(target, partial_trace(corrected.density(), spec.evaluation_targets))
        rows.append((p, f))
    return rows


def reference_teleclone(input_state, system):
    """Per-outcome (probability, corrected amplitudes) and the averaged 8x8 state."""
    joint = reference_tensor(input_state, system.state)
    per = []
    averaged = np.zeros((8, 8), dtype=complex)
    for k, (p, post) in enumerate(reference_bell_measure(joint, (0, 1))):
        op = LocalOperator.uniform(3, STANDARD_CORRECTION_MATRICES[k + 1])
        amp = apply_local(op, post).amplitudes
        per.append((p, amp))
        averaged += p * np.outer(amp, amp.conj())
    return per, DensityMatrix(averaged)


def reference_global_clone_fidelity(ens, coeffs):
    """(1/2) sum_j <psi_j psi_j| rho_BC^(j) |psi_j psi_j> through teleclone's joint state."""
    system = build_telecloning_state(coeffs)
    total = 0.0
    for psi in make_states(ens):
        result = teleclone(psi, system)
        total += 0.5 * fidelity(tensor(psi, psi), result.joint_clones)
    return total


def _mc_haar_reference(channel, samples, seed):
    """(mean, stderr) of Haar-input teleportation, one Bell vector at a time."""
    resource = channel_state(channel).amplitudes
    corrs = [STANDARD_CORRECTION_MATRICES[k] for k in (1, 2, 3, 4)]
    sizes = rngmod.chunk_sizes(samples)
    total = 0.0
    total_sq = 0.0
    for size, gen in zip(sizes, rngmod.substreams(seed, len(sizes))):
        z = rngmod.haar_qubits(gen, size)
        # joint index = 4*b0 + 2*b1 + b2; reshape exposes the (b0,b1) pair
        joint = (z[:, :, None] * resource[None, None, :]).reshape(size, 4, 2)
        f = np.zeros(size)
        for k in range(4):
            residual = np.einsum("p,mpj->mj", BELL_VECTORS[k].conj(), joint)
            corrected = residual @ corrs[k].T
            f += np.abs(np.einsum("mj,mj->m", z.conj(), corrected)) ** 2
        total += float(f.sum())
        total_sq += float((f**2).sum())
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0) * samples / max(samples - 1, 1)
    return mean, float(np.sqrt(var / samples))


def assert_rows_match(got, expected):
    assert len(got) == len(expected) == 4
    for (p, f), (p_ref, f_ref) in zip(got, expected):
        assert abs(p - p_ref) < 1e-12
        assert abs(f - f_ref) < 1e-12


class TestBranchTable:
    def test_matches_reference_loop_over_grid(self):
        rng = np.random.default_rng(101)
        with np.errstate(divide="raise", invalid="raise"):
            for alpha in ALPHAS:
                spec = standard_teleportation(Channel(alpha))
                for theta in THETAS:
                    for psi in inputs_for(theta, rng):
                        got = _branch_table(psi, spec, psi)
                        expected = reference_branch_table(psi, spec, psi)
                        assert_rows_match(got, expected)
                        total = sum(p * f for p, f in expected)
                        assert abs(enumerate_protocol_fidelity(psi, spec) - total) < 1e-12

    def test_zero_weight_branches_at_alpha_zero(self):
        # |0> (x) |11> has no phi+/phi- weight and |1> (x) |11> no psi+/psi- weight
        spec = standard_teleportation(Channel(0.0))
        with np.errstate(divide="raise", invalid="raise"):
            for psi, empty in ((ZERO, (0, 1)), (ONE, (2, 3))):
                rows = _branch_table(psi, spec, psi)
                outcomes = bell_measure(reference_tensor(psi, spec.resource_state), (0, 1))
                for k in empty:
                    assert rows[k] == (0.0, 0.0)
                    assert outcomes[k].probability == 0.0
                    assert outcomes[k].post_state is None
                assert abs(sum(p * f for p, f in rows) - 1.0) < 1e-12

    def test_bell_measure_matches_reference_loop(self):
        rng = np.random.default_rng(102)
        for n, pair in ((3, (0, 1)), (4, (1, 3)), (4, (2, 0)), (5, (3, 1))):
            z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            state = PureState(z / np.linalg.norm(z))
            got = bell_measure(state, pair)
            for k, (o, (p, post)) in enumerate(zip(got, reference_bell_measure(state, pair))):
                assert o.index == k + 1
                assert abs(o.probability - p) < 1e-12
                assert np.abs(o.post_state.amplitudes - post.amplitudes).max() < 1e-12

    def test_telecloning_spec_matches_reference_loop(self):
        rng = np.random.default_rng(103)
        system = build_telecloning_state(random_coeffs(rng))
        for targets in ((0, 1, 2), (1,), (1, 2)):
            spec = protocol_spec(system, targets=targets)
            for psi in inputs_for(np.pi / 4, rng):
                target = psi
                for _ in targets[1:]:
                    target = reference_tensor(target, psi)
                got = _branch_table(psi, spec, target)
                assert_rows_match(got, reference_branch_table(psi, spec, target))

    def test_rejects_bad_evaluation_targets(self):
        system = build_telecloning_state(universal_coeffs())
        psi = ZERO
        pair = reference_tensor(psi, psi)
        for targets, target, message in (
            ((3,), psi, "out of range"),
            ((1, 0, 2), reference_tensor(pair, psi), "proper subset"),
            ((1, 1), pair, "dimension mismatch"),
        ):
            with pytest.raises(ValueError, match=message):
                _branch_table(psi, protocol_spec(system, targets=targets), target)

    def test_correction_constants_are_read_only(self):
        spec = standard_teleportation(Channel(0.3))
        for k in (1, 2, 3, 4):
            with pytest.raises(ValueError):
                spec.corrections[k].matrix()[0, 0] = 2.0


class TestTeleclone:
    def test_matches_reference_loop_over_grid(self):
        rng = np.random.default_rng(104)
        coeff_sets = [
            universal_coeffs(),
            CloneCoeffs(1.0, 0.0, 0.0),
            CloneCoeffs(0.5, 0.5, 0.5),
            CloneCoeffs(0.0, 1 / np.sqrt(2), 0.0),
            random_coeffs(rng),
        ]
        with np.errstate(divide="raise", invalid="raise"):
            for coeffs in coeff_sets:
                system = build_telecloning_state(coeffs)
                for theta in THETAS:
                    for psi in inputs_for(theta, rng):
                        result = teleclone(psi, system)
                        per_ref, rho_ref = reference_teleclone(psi, system)
                        for (p, branch), (p_ref, amp_ref) in zip(result.per_outcome, per_ref):
                            assert abs(p - p_ref) < 1e-12
                            assert np.abs(branch.amplitudes - amp_ref).max() < 1e-12
                        for got, keep in (
                            (result.clone_b, (1,)),
                            (result.clone_c, (2,)),
                            (result.joint_clones, (1, 2)),
                        ):
                            expected = partial_trace(rho_ref, keep).elements
                            assert np.abs(got.elements - expected).max() < 1e-12


class TestGlobalCloneFidelity:
    THETAS = (0.0, np.pi / 4, np.nextafter(np.pi / 2, 0.0), np.pi / 2)

    def test_matches_density_matrix_route(self):
        rng = np.random.default_rng(108)
        # the oracle workload's edge sets, then seeded random coefficients
        coeff_sets = [
            universal_coeffs(),
            CloneCoeffs(1.0, 0.0, 0.0),
            CloneCoeffs(0.5, 0.5, 0.5),
            CloneCoeffs(0.0, 1 / np.sqrt(2), 0.0),
        ] + [random_coeffs(rng) for _ in range(6)]
        with np.errstate(divide="raise", invalid="raise"):
            for coeffs in coeff_sets:
                for theta in self.THETAS:
                    ens = TwoStateEnsemble(theta)
                    got = global_clone_fidelity(ens, coeffs)
                    assert abs(got - reference_global_clone_fidelity(ens, coeffs)) < 1e-12

    def test_builds_no_density_matrix(self, monkeypatch):
        counts = {"DensityMatrix": 0, "partial_trace": 0}
        post_init = DensityMatrix.__post_init__

        def counting_post_init(self):
            counts["DensityMatrix"] += 1
            post_init(self)

        def counting_partial_trace(rho, keep):
            counts["partial_trace"] += 1
            return partial_trace(rho, keep)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
        for module in (states, telecloning):
            monkeypatch.setattr(module, "partial_trace", counting_partial_trace)
        ens = TwoStateEnsemble(np.pi / 4)
        coeffs = universal_coeffs()
        system = build_telecloning_state(coeffs)
        psi, _ = make_states(ens)
        global_clone_fidelity(ens, coeffs)
        _branch_table(psi, protocol_spec(system, targets=(1,)), psi)
        assert counts == {"DensityMatrix": 0, "partial_trace": 0}
        # the counters do see the density-matrix route
        teleclone(psi, system)
        assert counts == {"DensityMatrix": 4, "partial_trace": 3}


class TestMarginalCheck:
    def test_equals_partial_trace(self):
        rng = np.random.default_rng(105)
        for coeffs in [universal_coeffs()] + [random_coeffs(rng) for _ in range(10)]:
            state = build_telecloning_state(coeffs).state
            rho = state.density()
            for q, reduced in enumerate(_qubit_marginals(state.amplitudes)):
                assert np.abs(reduced - partial_trace(rho, (q,)).elements).max() < 1e-14

    def test_equals_partial_trace_off_the_telecloning_family(self):
        # a generic 4-qubit state, whose marginals are far from I/2
        rng = np.random.default_rng(106)
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = PureState(z / np.linalg.norm(z))
        rho = state.density()
        for q, reduced in enumerate(_qubit_marginals(state.amplitudes)):
            assert np.abs(reduced - partial_trace(rho, (q,)).elements).max() < 1e-14

    def test_check_still_rejects_non_maximally_mixed_marginals(self, monkeypatch):
        # every coefficient-matched state has I/2 marginals, so reaching the
        # check needs the coefficient match bypassed
        rng = np.random.default_rng(107)
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = PureState(z / np.linalg.norm(z))
        monkeypatch.setattr(telecloning, "_telecloning_amplitudes", lambda _: state.amplitudes)
        with pytest.raises(ValueError, match="is not I/2"):
            TelecloningSystem(state=state, coeffs=universal_coeffs())


class TestHaarTransferOperators:
    HAAR_ALPHAS = (0.0, 0.3, np.sqrt(0.3), 1 / np.sqrt(2))

    def test_matches_reference_loop(self):
        with np.errstate(divide="raise", invalid="raise"):
            for alpha in self.HAAR_ALPHAS:
                channel = Channel(alpha)
                for seed in (1, 99, 7919):
                    for samples in (100, 65_536, 65_537, 200_000):
                        mean, stderr = mc_haar_average_fidelity(channel, samples, seed)
                        mean_ref, stderr_ref = _mc_haar_reference(channel, samples, seed)
                        assert abs(mean - mean_ref) < 1e-12
                        # at the maximal channel the reference's one-pass
                        # variance is cancellation noise (up to 1e-9)
                        if alpha != 1 / np.sqrt(2):
                            assert abs(stderr - stderr_ref) < 1e-12

    def test_repeat_is_bit_identical(self):
        for alpha in self.HAAR_ALPHAS:
            for samples, seed in ((100, 1), (65_537, 99)):
                first = mc_haar_average_fidelity(Channel(alpha), samples, seed)
                assert mc_haar_average_fidelity(Channel(alpha), samples, seed) == first

    def test_operators_are_complete(self):
        with np.errstate(divide="raise", invalid="raise"):
            for alpha in ALPHAS:
                t = _transfer_operators(Channel(alpha))
                assert t.shape == (4, 2, 2)
                total = sum(tk.conj().T @ tk for tk in t)
                assert np.abs(total - np.eye(2)).max() < 1e-14

    def test_maximal_channel_operators_are_half_identity(self):
        for tk in _transfer_operators(Channel.maximal()):
            assert np.abs(tk - np.eye(2) / 2).max() < 1e-15

    def test_zero_columns_for_empty_branches_at_alpha_zero(self):
        # |0> (x) |11> has no phi+/phi- weight and |1> (x) |11> no psi+/psi- weight
        t = _transfer_operators(Channel(0.0))
        for k, b in ((0, 0), (1, 0), (2, 1), (3, 1)):
            assert np.all(t[k, :, b] == 0)
