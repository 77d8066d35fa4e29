"""The shared measure-and-correct kernel against the per-outcome loop it replaced.

``reference_bell_measure`` and ``reference_branch_table`` are the loops that
``states.bell_measure`` and ``protocols._branch_table`` ran before the kernel:
one Bell vector at a time, a validated post-state per outcome, then
``apply_local`` and ``fidelity``/``partial_trace``.  ``reference_teleclone``
is the matching loop of ``telecloning.teleclone``.
"""

import numpy as np
import pytest

from teleportsim import telecloning
from teleportsim.ensembles import Channel, TwoStateEnsemble, make_states
from teleportsim.protocols import (
    STANDARD_CORRECTION_MATRICES,
    _branch_table,
    enumerate_protocol_fidelity,
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
)
from teleportsim.telecloning import (
    CloneCoeffs,
    TelecloningSystem,
    _qubit_marginals,
    build_telecloning_state,
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
