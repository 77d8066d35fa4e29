"""The transfer-operator routes against the per-outcome loops they replaced.

``_branch_table`` is the per-outcome (probability, branch fidelity) view of
the (v, s) that ``protocols._scored`` returns: p_k = ||v_k||^2,
w_k = ||s_k||^2 and the branch fidelity w_k / p_k.
``reference_bell_measure`` and ``reference_branch_table`` are the loops
that ``states.bell_measure`` and that view ran before the shared kernel:
one Bell vector at a time, a validated post-state per outcome, then
``apply_local`` and ``fidelity``/``partial_trace``.  ``reference_teleclone``
is the matching loop that ``telecloning.teleclone`` ran before it read the
transfer operators T.  ``_mc_haar_reference`` is the per-outcome einsum loop,
with its one-pass variance, that ``protocols.mc_haar_average_fidelity`` ran
before the transfer operators; it rebuilds each input's amplitudes from the
full-sphere draws of the test-side ``haar_bloch`` (test_rng.py).
``_mc_haar_full_sphere`` is the loop the estimator ran before it drew r_z
alone: it scores (1, r) Q (1, r)^T on the same full-sphere draws, one
sample at a time.  ``_mc_haar_power_sums`` is the estimator's own per-chunk
reduction to sums of w^2 and w^4, written out over the r_z of those draws.
``reference_global_clone_fidelity`` is a density-matrix oracle for the
closed form ``telecloning.global_clone_fidelity``,
built on ``reference_teleclone`` so that it shares no T with the protocol
enumeration it is also compared with.
"""

import numpy as np
import pytest
from test_rng import haar_bloch
from test_states import random_local_unitary

from teleportsim import ensembles, protocols, states, telecloning
from teleportsim.ensembles import Channel, TwoStateEnsemble, channel_state, make_states
from teleportsim.protocols import (
    ProtocolSpec,
    enumerate_protocol_fidelity,
    mc_haar_average_fidelity,
    mc_protocol_fidelity,
    standard_teleportation,
)
from teleportsim.states import (
    BELL_VECTORS,
    DensityMatrix,
    LocalOperator,
    PAULI_I,
    PureState,
    apply_local,
    bell_measure,
    fidelity,
    partial_trace,
    tensor,
    von_neumann_entropy,
)
from teleportsim.telecloning import (
    CloneCoeffs,
    TelecloningSystem,
    alice_receivers_entanglement,
    global_clone_fidelity,
    optimize_coeffs,
    protocol_spec,
    teleclone,
    universal_coeffs,
)


def _transfer_operators(channel):
    return standard_teleportation(channel).transfer


def _branch_table(input_state, spec):
    """(p_k, w_k / p_k) per Bell outcome, with 0.0 for a branch of p_k <= 1e-30."""
    v, s = protocols._scored(spec, input_state.amplitudes)
    p, w = (np.abs(v) ** 2).sum(axis=(1, 2)), (np.abs(s) ** 2).sum(axis=1)
    return [(float(pk), float(wk / pk) if pk > 1e-30 else 0.0) for pk, wk in zip(p, w)]


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
    for k, (p, post) in enumerate(reference_bell_measure(joint, (0, 1))):
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
        op = LocalOperator.uniform(3, protocols._STANDARD_CORRECTIONS[k + 1].factors[0])
        amp = apply_local(op, post).amplitudes
        per.append((p, amp))
        averaged += p * np.outer(amp, amp.conj())
    return per, DensityMatrix(averaged)


def reference_global_clone_fidelity(ens, coeffs):
    """(1/2) sum_j <psi_j psi_j| rho_BC^(j) |psi_j psi_j> through the reference joint state."""
    system = TelecloningSystem(coeffs)
    total = 0.0
    for psi in make_states(ens):
        _, rho = reference_teleclone(psi, system)
        total += 0.5 * fidelity(tensor(psi, psi), partial_trace(rho, (1, 2)))
    return total


def _mc_haar_reference(channel, samples, seed):
    """(mean, stderr) of Haar-input teleportation, one Bell vector at a time."""
    resource = channel_state(channel).amplitudes
    corrs = [protocols._STANDARD_CORRECTIONS[k].factors[0] for k in (1, 2, 3, 4)]
    # every r_z first, then the azimuths: the estimator's r_z draws are the
    # first ``samples`` uniforms of the same generator
    draws = haar_bloch(np.random.default_rng(seed), samples)
    total = 0.0
    total_sq = 0.0
    start = 0
    for size in ensembles._chunks(samples, seed)[0]:
        # the amplitudes of the same Bloch-vector draws the estimator scores
        r = draws[start : start + size]
        start += size
        phase = np.exp(1j * np.arctan2(r[:, 1], r[:, 0]))
        z = np.stack(
            [np.sqrt((1 + r[:, 2]) / 2), phase * np.sqrt((1 - r[:, 2]) / 2)], axis=1
        )
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


def _mc_haar_full_sphere(channel, samples, seed):
    """(mean, stderr) scoring (1, r) Q (1, r)^T on whole Bloch vectors r."""
    q = protocols._bloch_quadratic_form(_transfer_operators(channel))
    q00, lin, quad = q[0, 0], 2.0 * q[0, 1:], q[1:, 1:]
    draws = haar_bloch(np.random.default_rng(seed), samples)
    total = 0.0
    m2 = 0.0
    done = 0
    for size in ensembles._chunks(samples, seed)[0]:
        r = draws[done : done + size].T
        # f = q00 + r . (2 q_0 + Q_rr r), with Q_rr = q[1:, 1:]
        f = q00 + np.einsum("jm,jm->m", r, quad @ r + lin[:, None])
        s = float(f.sum())
        if done:
            delta = s / size - total / done
            m2 += delta**2 * done * size / (done + size)
        m2 += float(((f - s / size) ** 2).sum())
        total += s
        done += size
    mean = total / samples
    var = m2 / max(samples - 1, 1)
    return mean, float(np.sqrt(var / samples))


def _mc_haar_power_sums(channel, samples, seed):
    """(mean, stderr) from per-chunk sums of w^2 and w^4, w = -r_z/2 of the full-sphere draws."""
    q = protocols._bloch_quadratic_form(_transfer_operators(channel))
    a0, a2 = float(q[0, 0]), 4.0 * float(q[3, 3])
    draws = haar_bloch(np.random.default_rng(seed), samples)
    total = s2 = s4 = 0.0
    done = 0
    for n in ensembles._chunks(samples, seed)[0]:
        w2 = np.square(-0.5 * draws[done : done + n, 2])
        sum_w2 = float(w2.sum())
        total += a0 * n + a2 * sum_w2
        s2 += sum_w2
        s4 += float(np.einsum("i,i", w2, w2))
        done += n
    mean = total / samples
    var = a2 * a2 * (s4 - s2 * s2 / samples) / max(samples - 1, 1)
    return mean, float(np.sqrt(var / samples))


def assert_read_only_to_the_base(a):
    """Neither ``a`` nor any array it views through ``.base`` is writeable."""
    while a is not None:
        assert not a.flags.writeable
        a = a.base


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
                        got = _branch_table(psi, spec)
                        expected = reference_branch_table(psi, spec, psi)
                        assert_rows_match(got, expected)
                        total = sum(p * f for p, f in expected)
                        assert abs(enumerate_protocol_fidelity(psi, spec) - total) < 1e-12

    def test_enumeration_is_the_sum_of_branch_weights_at_the_corners(self):
        # one contraction for the total, a per-outcome reduction for the table
        with np.errstate(divide="raise", invalid="raise"):
            for alpha in (0.0, 1 / np.sqrt(2)):
                spec = standard_teleportation(Channel(alpha))
                for theta in (0.0, np.pi / 2):
                    for psi in make_states(TwoStateEnsemble(theta)):
                        s = protocols._scored(spec, psi.amplitudes)[1]
                        w = (np.abs(s) ** 2).sum(axis=1)
                        assert abs(enumerate_protocol_fidelity(psi, spec) - w.sum()) < 1e-15

    def test_zero_weight_branches_at_alpha_zero(self):
        # |0> (x) |11> has no phi+/phi- weight and |1> (x) |11> no psi+/psi- weight
        spec = standard_teleportation(Channel(0.0))
        with np.errstate(divide="raise", invalid="raise"):
            for psi, empty in ((ZERO, (0, 1)), (ONE, (2, 3))):
                rows = _branch_table(psi, spec)
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
        # all seven nonempty target subsets: (0,), (2,), (0, 1) and (0, 2)
        # bring the unscored qubits after a target, so the view transposes
        rng = np.random.default_rng(103)
        system = TelecloningSystem(random_coeffs(rng))
        for targets in ((0, 1, 2), (1,), (1, 2), (0,), (2,), (0, 1), (0, 2)):
            spec = protocol_spec(system, targets=targets)
            for psi in inputs_for(np.pi / 4, rng):
                target = psi
                for _ in targets[1:]:
                    target = reference_tensor(target, psi)
                got = _branch_table(psi, spec)
                assert_rows_match(got, reference_branch_table(psi, spec, target))

    def test_rejects_bad_evaluation_targets(self):
        system = TelecloningSystem(universal_coeffs())
        for targets, message in (
            ((3,), "out of range"),
            ((), "nonempty"),
            ((1, 1), "dimension mismatch"),
            ((0, 1, 1, 2), "repeat a qubit"),
        ):
            with pytest.raises(ValueError, match=message):
                protocol_spec(system, targets=targets)

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
                system = TelecloningSystem(coeffs)
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
        # the closed forms against the density-matrix route, the protocol
        # enumeration and the partial trace of the resource
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
                system = TelecloningSystem(coeffs)
                traced = von_neumann_entropy(partial_trace(system.state.density(), (2, 3)))
                assert abs(alice_receivers_entanglement(coeffs) - traced) < 1e-12
                spec = protocol_spec(system)
                for theta in self.THETAS:
                    ens = TwoStateEnsemble(theta)
                    got = global_clone_fidelity(ens, coeffs)
                    assert abs(got - reference_global_clone_fidelity(ens, coeffs)) < 1e-12
                    enum = sum(
                        0.5 * enumerate_protocol_fidelity(psi, spec) for psi in make_states(ens)
                    )
                    assert abs(got - enum) < 1e-12

    def test_matches_density_matrix_route_on_complex_inputs(self):
        # on the real signal states the ancilla (the anti-clone) scores the
        # same as a clone, so only complex inputs tell (B, C) from (ancilla, B)
        rng = np.random.default_rng(109)
        coeff_sets = [universal_coeffs(), CloneCoeffs(0.5, 0.5, 0.5)] + [
            random_coeffs(rng) for _ in range(4)
        ]
        with np.errstate(divide="raise", invalid="raise"):
            for coeffs in coeff_sets:
                system = TelecloningSystem(coeffs)
                spec = protocol_spec(system)
                for _ in range(8):
                    psi = random_qubit(rng)
                    expected = fidelity(tensor(psi, psi), teleclone(psi, system).joint_clones)
                    assert abs(enumerate_protocol_fidelity(psi, spec) - expected) < 1e-12

    def test_builds_no_density_matrix(self, monkeypatch):
        counts = {"DensityMatrix": 0, "partial_trace": 0}
        density_init = DensityMatrix.__init__

        def counting_density_init(self, elements):
            counts["DensityMatrix"] += 1
            density_init(self, elements)

        def counting_partial_trace(rho, keep):
            counts["partial_trace"] += 1
            return partial_trace(rho, keep)

        monkeypatch.setattr(DensityMatrix, "__init__", counting_density_init)
        for module in (states, telecloning):
            monkeypatch.setattr(module, "partial_trace", counting_partial_trace)
        ens = TwoStateEnsemble(np.pi / 4)
        coeffs = universal_coeffs()
        system = TelecloningSystem(coeffs)
        psi, _ = make_states(ens)
        global_clone_fidelity(ens, coeffs)
        _branch_table(psi, protocol_spec(system, targets=(1,)))
        assert counts == {"DensityMatrix": 0, "partial_trace": 0}
        # a teleclone whose clones are never read builds none of them
        result = teleclone(psi, system)
        assert counts == {"DensityMatrix": 0, "partial_trace": 0}
        # the counters do see teleclone's reduced states once read: the clone
        # pair, traced from the outcome-purified branches, and each clone from the pair
        result.joint_clones, result.clone_b, result.clone_c
        assert counts == {"DensityMatrix": 3, "partial_trace": 3}


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

    def test_r_z_alone_equals_full_sphere_scoring(self):
        # the estimator's sums of w^2 and w^4, w = -r_z/2, reduced the same way over
        # the r_z of the full-sphere draws, give the same bits; scoring each
        # full-sphere draw agrees to rounding
        for alpha in self.HAAR_ALPHAS:
            channel = Channel(alpha)
            for seed in (1, 99, 7919):
                for samples in (100, 65_536, 65_537, 200_000):
                    got = mc_haar_average_fidelity(channel, samples, seed)
                    assert [type(x) for x in got] == [float, float]
                    assert got == _mc_haar_power_sums(channel, samples, seed)
                    mean, stderr = _mc_haar_full_sphere(channel, samples, seed)
                    assert abs(got[0] - mean) <= 4.4e-16
                    if alpha == 1 / np.sqrt(2):
                        # the score is 1 to rounding: both stderrs are noise
                        assert max(got[1], stderr) < 1e-19
                    else:
                        assert abs(got[1] - stderr) <= 2e-13 * stderr

    def test_odd_part_of_the_form_is_not_scored(self, monkeypatch):
        # w = -r_z/2 is uniform on [-1/2, 1/2), so a term odd in r_z has Haar
        # mean 0: a form with a real linear term scores as its even part, and
        # that still estimates the form's Haar mean q00 + q33/3
        def form(q03):
            q = np.zeros((4, 4))
            q[0, 0], q[0, 3], q[3, 0], q[3, 3] = 0.5, q03, q03, 0.3
            return lambda t: q

        channel = Channel(0.3)
        for seed in (1, 7919):
            for samples in (100, 65_537, 1_000_000):
                monkeypatch.setattr(protocols, "_bloch_quadratic_form", form(0.2))
                got = mc_haar_average_fidelity(channel, samples, seed)
                monkeypatch.setattr(protocols, "_bloch_quadratic_form", form(0.0))
                assert got == mc_haar_average_fidelity(channel, samples, seed)
            mean, stderr = got
            assert abs(mean - (0.5 + 0.3 / 3)) <= 4 * stderr

    def test_transverse_entries_are_exactly_zero(self):
        # every corrected T[k] is diagonal, so Q has no x or y row or column
        for alpha in ALPHAS + self.HAAR_ALPHAS:
            q = protocols._bloch_quadratic_form(_transfer_operators(Channel(alpha)))
            assert np.all(q[1:3] == 0) and np.all(q[:, 1:3] == 0)

    @pytest.mark.parametrize("entry", [(1, 0), (0, 2), (1, 1), (3, 2), (2, 3)])
    def test_transverse_entry_raises_before_any_draw(self, entry, monkeypatch):
        real = protocols._bloch_quadratic_form

        def with_transverse_entry(t):
            q = real(t).copy()
            q[entry] = 1e-300
            return q

        class NoDraw:
            def random(self, *_, **__):
                raise AssertionError("drew before the guard")

        # the seeded generator every draw comes from, swapped for one that
        # cannot draw; without the transverse entry the estimator reaches it
        def no_draw_chunks(n, seed, f=ensembles._chunks):
            return f(n, seed)[0], NoDraw()

        monkeypatch.setattr(ensembles, "_chunks", no_draw_chunks)
        with pytest.raises(AssertionError, match="drew before the guard"):
            mc_haar_average_fidelity(Channel(0.3), 1000, seed=1)
        monkeypatch.setattr(protocols, "_bloch_quadratic_form", with_transverse_entry)
        with pytest.raises(RuntimeError, match="depends on r_x or r_y"):
            mc_haar_average_fidelity(Channel(0.3), 1000, seed=1)

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
        for tk in _transfer_operators(Channel(1 / np.sqrt(2))):
            assert np.abs(tk - np.eye(2) / 2).max() < 1e-15

    def test_zero_columns_for_empty_branches_at_alpha_zero(self):
        # |0> (x) |11> has no phi+/phi- weight and |1> (x) |11> no psi+/psi- weight
        t = _transfer_operators(Channel(0.0))
        for k, b in ((0, 0), (1, 0), (2, 1), (3, 1)):
            assert np.all(t[k, :, b] == 0)


class TestProtocolTransferOperators:
    """Scoring as contractions on each spec's transfer operators T."""

    COEFF_SETS = (universal_coeffs(), CloneCoeffs(0.5, 0.5, 0.5), CloneCoeffs(1.0, 0.0, 0.0))

    def test_clone_spec_subset_targets_match_reference_loop(self):
        rng = np.random.default_rng(111)
        coeff_sets = self.COEFF_SETS + (random_coeffs(rng),)
        with np.errstate(divide="raise", invalid="raise"):
            for coeffs in coeff_sets:
                system = TelecloningSystem(coeffs)
                for targets in ((1,), (0, 2)):
                    spec = protocol_spec(system, targets=targets)
                    for theta in THETAS:
                        for psi in inputs_for(theta, rng):
                            target = psi if len(targets) == 1 else reference_tensor(psi, psi)
                            expected = reference_branch_table(psi, spec, target)
                            assert_rows_match(_branch_table(psi, spec), expected)
                            total = sum(p * f for p, f in expected)
                            got = enumerate_protocol_fidelity(psi, spec)
                            assert abs(got - total) < 1e-12

    def test_operators_are_complete_and_read_only(self):
        specs = [standard_teleportation(Channel(alpha)) for alpha in ALPHAS]
        specs += [protocol_spec(TelecloningSystem(c)) for c in self.COEFF_SETS]
        with np.errstate(divide="raise", invalid="raise"):
            for spec in specs:
                t = spec.transfer
                assert t.shape == (4, 2 ** (spec.resource_state.n_qubits - 1), 2)
                total = sum(tk.conj().T @ tk for tk in t)
                assert np.abs(total - np.eye(2)).max() < 1e-14
                with pytest.raises(ValueError):
                    t[0, 0, 0] = 1.0
                assert_read_only_to_the_base(t)

    @pytest.mark.parametrize("name", ["standard", "clone", "identity", "random-1", "random-3"])
    def test_transfer_map_matches_two_step_contraction(self, name):
        # the residuals from the Bell vectors first, then the stacked corrections
        rng = np.random.default_rng(113)
        corrections = {
            "standard": protocols._STANDARD_CORRECTIONS,
            "clone": telecloning._CLONE_CORRECTIONS,
            "identity": {k: LocalOperator.uniform(1, PAULI_I) for k in (1, 2, 3, 4)},
            "random-1": {k: random_local_unitary(rng, 1) for k in (1, 2, 3, 4)},
            "random-3": {k: random_local_unitary(rng, 3) for k in (1, 2, 3, 4)},
        }[name]
        ops = tuple(corrections[k] for k in (1, 2, 3, 4))
        m = states._transfer_map(ops)
        d = ops[0].matrix().shape[0]
        assert m.shape == (8 * d, 2 * d)
        assert_read_only_to_the_base(m)
        bras = BELL_VECTORS.conj().reshape(4, 2, 2)  # (k, b, j)
        for _ in range(3):
            a = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
            a /= np.linalg.norm(a)
            residuals = np.einsum("kbj,jo->kob", bras, a.reshape(2, d))
            t = np.array([op.matrix() for op in ops]) @ residuals
            assert np.abs((m @ a).reshape(4, d, 2) - t).max() < 1e-15

    def test_same_corrections_reuse_the_cached_map(self):
        for build in (
            lambda: standard_teleportation(Channel(0.3)),
            lambda: protocol_spec(TelecloningSystem(universal_coeffs())),
        ):
            build()
            before = states._transfer_map.cache_info()
            build()
            after = states._transfer_map.cache_info()
            assert after.hits == before.hits + 1
            assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_operators_follow_the_spec_corrections(self):
        # identity corrections: a different protocol, still matched branch by branch
        channel_spec = standard_teleportation(Channel(0.3))
        bare = ProtocolSpec(
            resource_state=channel_spec.resource_state,
            corrections={k: LocalOperator.uniform(1, PAULI_I) for k in (1, 2, 3, 4)},
            evaluation_targets=(0,),
        )
        rng = np.random.default_rng(112)
        with np.errstate(divide="raise", invalid="raise"):
            for psi in inputs_for(np.pi / 4, rng):
                assert_rows_match(
                    _branch_table(psi, bare), reference_branch_table(psi, bare, psi)
                )
            psi, _ = make_states(TwoStateEnsemble(np.pi / 4))
            gap = enumerate_protocol_fidelity(psi, channel_spec) - enumerate_protocol_fidelity(
                psi, bare
            )
            assert gap > 0.1

    def test_built_once_per_spec(self, monkeypatch):
        calls = []
        build = protocols._bell_transfer

        def counting_build(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(protocols, "_bell_transfer", counting_build)
        spec = standard_teleportation(Channel(0.3))
        assert len(calls) == 1
        psi, psi2 = make_states(TwoStateEnsemble(np.pi / 4))
        for _ in range(3):
            enumerate_protocol_fidelity(psi, spec)
            enumerate_protocol_fidelity(psi2, spec)
            _branch_table(psi, spec)
        mc_protocol_fidelity(psi, spec, 1000, seed=1)
        assert len(calls) == 1
        # the closed-form clone fidelity builds no spec
        global_clone_fidelity(TwoStateEnsemble(np.pi / 4), universal_coeffs())
        assert len(calls) == 1

    def test_evaluation_builds_no_per_branch_objects(self, monkeypatch):
        # one spec and two enumerations: one transfer build, the resource as
        # the only state, no Bell measurement and no density matrix
        counts = {"_bell_transfer": 0, "PureState": 0, "DensityMatrix": 0, "bell_measure": 0}
        build = protocols._bell_transfer
        pure_init = PureState.__init__
        density_init = DensityMatrix.__init__

        def counting_build(*args):
            counts["_bell_transfer"] += 1
            return build(*args)

        def counting_pure_init(self, amplitudes):
            counts["PureState"] += 1
            pure_init(self, amplitudes)

        def counting_density_init(self, elements):
            counts["DensityMatrix"] += 1
            density_init(self, elements)

        def counting_bell_measure(*args):
            counts["bell_measure"] += 1
            return bell_measure(*args)

        psi1, psi2 = make_states(TwoStateEnsemble(np.pi / 4))
        monkeypatch.setattr(protocols, "_bell_transfer", counting_build)
        monkeypatch.setattr(PureState, "__init__", counting_pure_init)
        monkeypatch.setattr(DensityMatrix, "__init__", counting_density_init)
        for module in (states, protocols):
            monkeypatch.setattr(module, "bell_measure", counting_bell_measure)
        spec = standard_teleportation(Channel(0.3))
        enumerate_protocol_fidelity(psi1, spec)
        enumerate_protocol_fidelity(psi2, spec)
        assert counts == {
            "_bell_transfer": 1, "PureState": 1, "DensityMatrix": 0, "bell_measure": 0
        }
        # the counters do see the per-branch route of the Monte Carlo
        mc_protocol_fidelity(psi1, spec, 1000, seed=1)
        assert counts["bell_measure"] == 1 and counts["PureState"] > 1

    def test_clone_spec_built_once_per_system(self, monkeypatch):
        calls = []
        build = protocols._bell_transfer

        def counting_build(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(protocols, "_bell_transfer", counting_build)
        ens = TwoStateEnsemble(np.pi / 4)
        system = TelecloningSystem(optimize_coeffs(ens))
        assert len(calls) == 0
        psi, _ = make_states(ens)
        for _ in range(10):
            teleclone(psi, system)
        assert len(calls) == 1

    def test_rejects_malformed_inputs_and_corrections(self):
        spec = standard_teleportation(Channel(0.3))
        # a PureState is normalised within 1e-12; bypass it to reach the check
        scaled = np.array([1.0 + 1e-9, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            protocols._scored(spec, scaled)
        pair = reference_tensor(ZERO, ZERO)
        with pytest.raises(ValueError, match="single qubit"):
            enumerate_protocol_fidelity(pair, spec)
        with pytest.raises(ValueError, match="single qubit"):
            mc_protocol_fidelity(pair, spec, 1000, seed=1)
        with pytest.raises(ValueError, match="1 remain"):
            ProtocolSpec(
                resource_state=spec.resource_state,
                corrections={k: LocalOperator.uniform(2, PAULI_I) for k in (1, 2, 3, 4)},
                evaluation_targets=(0,),
            )

    def test_width_check_names_the_first_correction_off_the_resource(self):
        # the one-qubit output of Channel(0.3)'s resource; each set is tried
        # twice, and no map is built for it, so both tries name the same correction
        resource = channel_state(Channel(0.3))
        one, two, three = (LocalOperator.uniform(n, PAULI_I) for n in (1, 2, 3))
        sets = {
            "correction 3 acts on 2 qubits, 1 remain": (one, one, two, one),
            "correction 1 acts on 3 qubits, 1 remain": (three, two, two, two),
        }
        for message, ops in sets.items():
            corrections = dict(zip((1, 2, 3, 4), ops))
            for _ in range(2):
                with pytest.raises(ValueError) as caught:
                    ProtocolSpec(resource, corrections, (0,))
                assert str(caught.value) == message
