import numpy as np
import pytest
from scipy.optimize import minimize
from test_engine import random_coeffs, random_qubit

from teleportsim import telecloning
from teleportsim.ensembles import TwoStateEnsemble, make_states
from teleportsim.protocols import enumerate_protocol_fidelity
from teleportsim.states import (
    DensityMatrix,
    PureState,
    fidelity,
    partial_trace,
    tensor,
    von_neumann_entropy,
)
from teleportsim.telecloning import (
    CloneCoeffs,
    TelecloningSystem,
    alice_receivers_entanglement,
    apply_cloner,
    global_clone_fidelity,
    optimal_global_fidelity,
    optimize_coeffs,
    protocol_spec,
    teleclone,
    telecloning_sweep,
    universal_coeffs,
)

LOG2_3 = np.log2(3.0)
ZERO = PureState(np.array([1.0, 0.0]))
ONE = PureState(np.array([0.0, 1.0]))
# a 20-point grid, then verify's 50-point teleclone-two-state-sweep grid
SWEEP_THETAS = pytest.mark.parametrize(
    "theta_steps", [20, 50], ids=["thetas-20", "teleclone-two-state-sweep-50"]
)


def clone_states(coeffs):
    """The branch states (phi0, phi1): the cloner's images of |0> and |1>."""
    return apply_cloner(ZERO, coeffs), apply_cloner(ONE, coeffs)


def family_global_fidelity(theta, a, b, c):
    """Global clone fidelity of the family via the direct cloner map on raw
    arrays: the clones' joint state is the branch traced over the ancilla."""
    phi0 = np.zeros(8)
    phi0[0b000], phi0[0b101], phi0[0b110], phi0[0b011] = a, b, b, c
    phi1 = np.zeros(8)
    phi1[0b100], phi1[0b001], phi1[0b010], phi1[0b111] = c, b, b, a
    total = 0.0
    x, y = np.cos(theta / 2), np.sin(theta / 2)
    for xx, yy in ((x, y), (y, x)):
        branch = (xx * phi0 + yy * phi1).reshape(2, 4)
        rho_bc = branch.T @ branch
        target = np.kron([xx, yy], [xx, yy])
        total += 0.5 * float(target @ rho_bc @ target)
    return total


def optimize_coeffs_slsqp(theta):
    """Independent oracle for optimize_coeffs: SLSQP from nine fixed starts
    over the two sphere angles of the surface a^2 + 2b^2 + c^2 = 1."""

    def coeffs_at(p):
        t, q = p
        return np.cos(t), np.sin(t) * np.cos(q) / np.sqrt(2), np.sin(t) * np.sin(q)

    best = None
    for start in [(t, q) for t in (0.12, 0.75, 1.42) for q in (0.12, 0.75, 1.42)]:
        res = minimize(
            lambda p: -family_global_fidelity(theta, *coeffs_at(p)),
            start,
            method="SLSQP",
            bounds=((0.0, np.pi / 2), (0.0, np.pi / 2)),
            options={"ftol": 1e-14, "maxiter": 300},
        )
        if best is None or res.fun < best.fun:
            best = res
    u = np.clip(coeffs_at(best.x), 0.0, None)
    u /= np.sqrt(u[0] ** 2 + 2 * u[1] ** 2 + u[2] ** 2)
    return CloneCoeffs(*u)


def optimal_global_slsqp(theta):
    """Independent oracle for the optimal cloner: 6-variable constrained
    optimization over both output vectors in the symmetric subspace."""
    x, y = np.cos(theta / 2), np.sin(theta / 2)
    k = np.sin(theta)
    t1 = np.array([x * x, np.sqrt(2) * x * y, y * y])
    t2 = t1[::-1]
    cons = [
        {"type": "eq", "fun": lambda v: v[:3] @ v[:3] - 1},
        {"type": "eq", "fun": lambda v: v[3:] @ v[3:] - 1},
        {"type": "eq", "fun": lambda v: v[:3] @ v[3:] - k},
    ]
    best = None
    rng = np.random.default_rng(0)
    for _ in range(10):
        v0 = rng.standard_normal(6)
        v0[:3] /= np.linalg.norm(v0[:3])
        v0[3:] /= np.linalg.norm(v0[3:])
        res = minimize(
            lambda v: -0.5 * ((t1 @ v[:3]) ** 2 + (t2 @ v[3:]) ** 2),
            v0,
            method="SLSQP",
            constraints=cons,
            options={"ftol": 1e-14, "maxiter": 500},
        )
        if res.success and (best is None or res.fun < best.fun):
            best = res
    return -best.fun


class TestUniversalCoeffs:
    def test_normalization(self):
        c = universal_coeffs()
        assert abs(c.a**2 + 2 * c.b**2 + c.c**2 - 1.0) < 1e-14
        assert abs(c.a**2 - 2 / 3) < 1e-14 and abs(c.b**2 - 1 / 6) < 1e-14

    def test_basis_clone_fidelity_is_five_sixths(self):
        system = TelecloningSystem(universal_coeffs())
        for target_qubit in (1, 2):
            spec = protocol_spec(system, targets=(target_qubit,))
            for basis in (ZERO, ONE):
                f = enumerate_protocol_fidelity(basis, spec)
                assert abs(f - 5 / 6) < 1e-9

    def test_entanglement_is_log2_3(self):
        assert abs(alice_receivers_entanglement(universal_coeffs()) - LOG2_3) < 1e-9


class TestBuildCloneStates:
    def test_universal_amplitudes(self):
        phi0, phi1 = clone_states(universal_coeffs())
        a, b = np.sqrt(2 / 3), np.sqrt(1 / 6)
        exp0 = np.zeros(8)
        exp0[0b000], exp0[0b101], exp0[0b110] = a, b, b
        exp1 = np.zeros(8)
        exp1[0b111], exp1[0b001], exp1[0b010] = a, b, b
        assert np.allclose(phi0.amplitudes, exp0)
        assert np.allclose(phi1.amplitudes, exp1)

    def test_branches_exactly_orthogonal(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            phi0, phi1 = clone_states(random_coeffs(rng))
            assert np.vdot(phi0.amplitudes, phi1.amplitudes) == 0

    def test_degenerate_coeffs_give_ghz_like_state(self):
        phi0, phi1 = clone_states(CloneCoeffs(1.0, 0.0, 0.0))
        assert np.allclose(phi0.amplitudes, np.eye(8)[0])
        assert np.allclose(phi1.amplitudes, np.eye(8)[7])


def marginal_test_coeffs():
    """The edge sets, the universal set and 50 seeded random sets."""
    rng = np.random.default_rng(8)
    edges = [(1, 0, 0), (0, 1 / np.sqrt(2), 0), (0, 0, 1), (0.5, 0.5, 0.5)]
    return (
        [CloneCoeffs(*abc) for abc in edges]
        + [universal_coeffs()]
        + [random_coeffs(rng) for _ in range(50)]
    )


class TestTelecloningSystem:
    def test_single_qubit_marginals_maximally_mixed(self):
        # the constructor does not check this: parity makes each marginal
        # diagonal and the 0<->1 mirror makes its two entries equal
        for coeffs in marginal_test_coeffs():
            state = TelecloningSystem(coeffs).state
            for route in (state, state.density()):  # amplitude and density traces
                for q in range(4):
                    reduced = partial_trace(route, (q,)).elements
                    assert np.abs(reduced - np.eye(2) / 2).max() <= 1e-14, (coeffs, q)

    def test_resource_lies_in_the_even_parity_sector(self):
        # Z x Z x Z x Z = +1: every basis state of odd weight has amplitude 0,
        # which makes each one-qubit marginal diagonal
        odd = np.array([bin(i).count("1") % 2 == 1 for i in range(16)])
        for coeffs in marginal_test_coeffs():
            amplitudes = TelecloningSystem(coeffs).state.amplitudes
            assert np.all(amplitudes[odd] == 0), coeffs
            assert np.any(amplitudes[~odd] != 0), coeffs

    def test_resource_is_fixed_by_the_global_bit_flip(self):
        # X x X x X x X maps basis index i to 15 - i and leaves the state
        # unchanged, which makes each marginal's two diagonal entries equal
        for coeffs in marginal_test_coeffs():
            amplitudes = TelecloningSystem(coeffs).state.amplitudes
            assert np.array_equal(amplitudes[::-1], amplitudes), coeffs

    def test_single_qubit_vs_rest_entanglement_is_one(self):
        rng = np.random.default_rng(12)
        system = TelecloningSystem(random_coeffs(rng))
        rho = system.state.density()
        for q in range(4):
            assert abs(von_neumann_entropy(partial_trace(rho, (q,))) - 1.0) < 1e-10

    def test_state_is_built_from_the_coefficients(self):
        # the state is derived, so it cannot disagree with the coefficients
        system = TelecloningSystem(CloneCoeffs(1.0, 0.0, 0.0))
        ghz = np.zeros(16)
        ghz[0], ghz[15] = 1 / np.sqrt(2), 1 / np.sqrt(2)
        assert np.array_equal(system.state.amplitudes, ghz)

    def test_state_is_built_once_per_system(self, monkeypatch):
        calls = []
        build = telecloning._telecloning_amplitudes

        def counting_build(coeffs):
            calls.append(coeffs)
            return build(coeffs)

        monkeypatch.setattr(telecloning, "_telecloning_amplitudes", counting_build)
        rng = np.random.default_rng(110)
        for n, coeffs in enumerate([universal_coeffs()] + [random_coeffs(rng) for _ in range(3)]):
            system = TelecloningSystem(coeffs)
            assert len(calls) == n + 1
            assert system.coeffs is coeffs


class TestTeleclone:
    def test_clones_of_zero_input_universal(self):
        system = TelecloningSystem(universal_coeffs())
        result = teleclone(ZERO, system)
        expected = np.diag([5 / 6, 1 / 6])
        assert np.abs(result.clone_b.elements - expected).max() < 1e-12
        assert np.abs(result.clone_c.elements - expected).max() < 1e-12

    def test_outcome_probabilities_quarter_independent_of_input(self):
        rng = np.random.default_rng(14)
        system = TelecloningSystem(random_coeffs(rng))
        for _ in range(5):
            result = teleclone(random_qubit(rng), system)
            for p, _ in result.per_outcome:
                assert abs(p - 0.25) < 1e-12

    def test_degenerate_coeffs_copy_basis_states(self):
        system = TelecloningSystem(CloneCoeffs(1.0, 0.0, 0.0))
        result = teleclone(ONE, system)
        assert np.abs(result.clone_b.elements - np.diag([0.0, 1.0])).max() < 1e-12
        assert np.abs(result.clone_c.elements - np.diag([0.0, 1.0])).max() < 1e-12

    def test_corrected_branches_equal_cloner_output(self):
        # every Bell outcome, after P x P x P, is exactly x*phi0 + y*phi1
        rng = np.random.default_rng(15)
        pi4 = optimize_coeffs(TwoStateEnsemble(np.pi / 4))
        for coeffs in (universal_coeffs(), random_coeffs(rng), pi4):
            system = TelecloningSystem(coeffs)
            for _ in range(20):
                psi = random_qubit(rng)
                target = apply_cloner(psi, coeffs).amplitudes
                for _, corrected in teleclone(psi, system).per_outcome:
                    assert np.abs(corrected.amplitudes - target).max() < 1e-12

    def test_clone_symmetry(self):
        rng = np.random.default_rng(16)
        system = TelecloningSystem(random_coeffs(rng))
        for _ in range(5):
            result = teleclone(random_qubit(rng), system)
            assert np.abs(result.clone_b.elements - result.clone_c.elements).max() < 1e-12


# the universal cloner, the edge sets and seeded random coefficients
LAZY_CLONE_COEFFS = {
    "universal": universal_coeffs(),
    "a": CloneCoeffs(1.0, 0.0, 0.0),
    "abc": CloneCoeffs(0.5, 0.5, 0.5),
    "b": CloneCoeffs(0.0, 1 / np.sqrt(2), 0.0),
    "random-17": random_coeffs(np.random.default_rng(17)),
    "random-18": random_coeffs(np.random.default_rng(18)),
}


class TestLazyCloneStates:
    @pytest.mark.parametrize("name", LAZY_CLONE_COEFFS)
    def test_match_the_eager_construction_bit_for_bit(self, name):
        system = TelecloningSystem(LAZY_CLONE_COEFFS[name])
        transfer = protocol_spec(system).transfer
        rng = np.random.default_rng(19)
        for psi in [ZERO, ONE] + [random_qubit(rng) for _ in range(6)]:
            result = teleclone(psi, system)
            assert not result.branches.flags.writeable
            pair = partial_trace(PureState(transfer @ psi.amplitudes), (3, 4))
            eager = (pair, partial_trace(pair, (0,)), partial_trace(pair, (1,)))
            lazy = (result.joint_clones, result.clone_b, result.clone_c)
            for got, expected in zip(lazy, eager):
                assert got.elements.tobytes() == expected.elements.tobytes()
            assert np.array_equal(result.clone_b.elements, result.clone_c.elements)
            # a second read returns the state built on the first
            assert result.joint_clones is lazy[0]
            assert result.clone_b is lazy[1]
            assert result.clone_c is lazy[2]


# the oracle workload's edge coefficient sets, with their fidelity at theta = 0 and pi/2
EDGE_FIDELITIES = {
    "universal": ((np.sqrt(2 / 3), np.sqrt(1 / 6), 0.0), 2 / 3, 2 / 3),
    "no-cloning": ((1.0, 0.0, 0.0), 1.0, 0.25),
    "half-pi-optimum": ((0.5, 0.5, 0.5), 0.25, 1.0),
    "pure-b": ((0.0, 1 / np.sqrt(2), 0.0), 0.0, 0.5),
}


class TestGlobalCloneFidelity:
    @pytest.mark.parametrize("theta", [0.0, np.pi / 2], ids=["theta-0", "theta-half-pi"])
    @pytest.mark.parametrize("name", EDGE_FIDELITIES)
    def test_edges_match_their_values_and_u_m_u(self, name, theta):
        abc, at_zero, at_half_pi = EDGE_FIDELITIES[name]
        coeffs = CloneCoeffs(*abc)
        u = np.array([coeffs.a, np.sqrt(2) * coeffs.b, coeffs.c])
        with np.errstate(divide="raise", invalid="raise"):
            got = global_clone_fidelity(TwoStateEnsemble(theta), coeffs)
        assert type(got) is float
        assert abs(got - (at_zero if theta == 0 else at_half_pi)) <= 1e-15
        assert abs(got - u @ telecloning._fidelity_matrix(theta) @ u) <= 1e-15

    def test_universal_coeffs_at_pi_over_4(self):
        ens = TwoStateEnsemble(np.pi / 4)
        assert abs(global_clone_fidelity(ens, universal_coeffs()) - 2 / 3) < 1e-12

    def test_protocol_equals_direct_cloner_application(self):
        rng = np.random.default_rng(18)
        for t in (0.3, np.pi / 4, 1.2):
            ens = TwoStateEnsemble(t)
            coeffs = random_coeffs(rng)
            via_protocol = global_clone_fidelity(ens, coeffs)
            direct = 0.0
            for psi in make_states(ens):
                joint = partial_trace(apply_cloner(psi, coeffs).density(), (1, 2))
                direct += 0.5 * fidelity(tensor(psi, psi), joint)
            assert abs(via_protocol - direct) < 1e-12


class TestOptimizeCoeffs:
    def test_orthogonal_ensemble(self):
        # the end points theta = 0 (orthogonal) and pi/2 (identical states)
        for theta, expected in ((0.0, (1.0, 0.0, 0.0)), (np.pi / 2, (0.5, 0.5, 0.5))):
            with np.errstate(divide="raise", invalid="raise"):
                coeffs = optimize_coeffs(TwoStateEnsemble(theta))
            got = np.array([coeffs.a, coeffs.b, coeffs.c])
            assert np.all(np.isfinite(got))
            assert np.abs(got - expected).max() < 1e-12

    def test_closed_form_matches_the_eigh_oracle(self):
        # M(theta) has rank 2, so the production path takes its top eigenpair
        # from the 2x2 Gram matrix; eigh on the full 3x3 stack checks it on a
        # grid one point finer than the --theta-steps cap
        grid = np.linspace(0, np.pi / 2, 100_001)
        values, vectors = np.linalg.eigh(telecloning._fidelity_matrix(grid))
        top = np.abs(vectors[..., -1])  # an eigenvector's sign is arbitrary
        a, b, c, f = telecloning._optimum(grid)
        assert np.abs(f - values[..., -1]).max() <= 1e-14
        expected = (top[..., 0], top[..., 1] / np.sqrt(2), top[..., 2])
        for got, want in zip((a, b, c), expected):
            assert np.abs(got - want).max() <= 1e-14
        # the endpoints exactly, as optimize_coeffs and the sweep give them
        a, b, c = telecloning_sweep(np.array([0.0, np.pi / 2]))[:3]
        for k, (theta, want) in enumerate(((0.0, (1.0, 0.0, 0.0)), (np.pi / 2, (0.5, 0.5, 0.5)))):
            coeffs = optimize_coeffs(TwoStateEnsemble(theta))
            assert (coeffs.a, coeffs.b, coeffs.c) == want
            assert (a[k], b[k], c[k]) == want

    def test_matches_slsqp_oracle_over_grid(self):
        for t in np.linspace(0.0, np.pi / 2, 16):
            ens = TwoStateEnsemble(t)
            best = global_clone_fidelity(ens, optimize_coeffs_slsqp(t))
            got = global_clone_fidelity(ens, optimize_coeffs(ens))
            assert got >= best - 1e-12
            assert abs(got - best) < 1e-8

    def test_pi_over_4_values(self):
        coeffs = optimize_coeffs(TwoStateEnsemble(np.pi / 4))
        assert abs(coeffs.a - np.sqrt(3) / 2) < 1e-6
        assert abs(coeffs.b - 0.5 / np.sqrt(3)) < 1e-6
        assert abs(coeffs.c - 0.5 / np.sqrt(3)) < 1e-6
        got = global_clone_fidelity(TwoStateEnsemble(np.pi / 4), coeffs)
        assert abs(got - 0.75) < 1e-8

    def test_dense_grid_confirms_refined_optimum(self):
        theta = np.pi / 4
        ens = TwoStateEnsemble(theta)
        refined = global_clone_fidelity(ens, optimize_coeffs(ens))
        # brute force over the two sphere angles of the constraint surface
        ts = np.linspace(0, np.pi / 2, 1500)
        qs = np.linspace(0, np.pi / 2, 1500)
        tt, qq = np.meshgrid(ts, qs, indexing="ij")
        a = np.cos(tt)
        b = np.sin(tt) * np.cos(qq) / np.sqrt(2)
        c = np.sin(tt) * np.sin(qq)
        x, y = np.cos(theta / 2), np.sin(theta / 2)
        best_grid = 0.0
        for xx, yy in ((x, y), (y, x)):
            t1 = xx**3 * a + 2 * xx * yy**2 * b + xx * yy**2 * c
            t2 = xx**2 * yy * c + 2 * xx**2 * yy * b + yy**3 * a
            vals = t1**2 + t2**2  # same for both ensemble members by symmetry
            best_grid = max(best_grid, float(vals.max()))
        assert abs(refined - best_grid) < 1e-6
        assert refined >= best_grid - 1e-9

    def test_never_exceeds_optimal_cloner(self):
        ens = TwoStateEnsemble(np.pi / 4)
        fam = global_clone_fidelity(ens, optimize_coeffs(ens))
        assert fam <= optimal_global_fidelity(ens) + 1e-9


class TestOptimalGlobalFidelity:
    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_endpoints_are_one(self, theta):
        with np.errstate(divide="raise", invalid="raise"):
            got = optimal_global_fidelity(TwoStateEnsemble(theta))
        assert np.isfinite(got)
        assert abs(got - 1.0) < 1e-9

    def test_agrees_with_independent_constrained_optimizer(self):
        for t in (0.4, np.pi / 4, 1.1):
            a = optimal_global_fidelity(TwoStateEnsemble(t))
            b = optimal_global_slsqp(t)
            assert abs(a - b) < 1e-6

    def test_value_at_pi_over_4(self):
        got = optimal_global_fidelity(TwoStateEnsemble(np.pi / 4))
        k = np.sin(np.pi / 4)
        closed = (1 + k) / 4 * (np.sqrt(1 + k**2) + 1 - k) ** 2
        assert abs(got - closed) < 1e-9


class TestEntanglement:
    def test_universal_is_log2_3(self):
        assert abs(alice_receivers_entanglement(universal_coeffs()) - LOG2_3) < 1e-12

    def test_ghz_like_state_is_one_ebit(self):
        assert abs(alice_receivers_entanglement(CloneCoeffs(1.0, 0.0, 0.0)) - 1.0) < 1e-12

    @SWEEP_THETAS
    def test_optimized_family_stays_below_log2_3(self, theta_steps):
        for t in np.linspace(0.0, np.pi / 2, theta_steps):
            coeffs = optimize_coeffs(TwoStateEnsemble(t))
            ent = alice_receivers_entanglement(coeffs)
            assert ent < LOG2_3 - 1e-6


class TestSandwich:
    @SWEEP_THETAS
    def test_teleclone_below_optimal_with_strict_gap(self, theta_steps):
        max_gap = 0.0
        for t in np.linspace(0.0, np.pi / 2, theta_steps):
            ens = TwoStateEnsemble(t)
            f_tc = global_clone_fidelity(ens, optimize_coeffs(ens))
            f_opt = optimal_global_fidelity(ens)
            assert f_tc <= f_opt + 1e-9
            max_gap = max(max_gap, f_opt - f_tc)
        assert max_gap > 1e-3


def joint_clones_closed_form(coeffs):
    """A misquoted 4x4 candidate for the clones' joint reduced state.

    Diagonal (a^2+b^2+c^2)/2 on the |00>/|11> entries and b^2/2 in the
    middle block, with corner a(b+c).  It does NOT agree with the partial
    trace of the telecloning state, the ground truth, whose closed-form
    spectrum is the one ``alice_receivers_entanglement`` uses.  For some
    coefficient choices (e.g. a = b = c = 1/2) it is not even positive
    semidefinite, and building the DensityMatrix raises.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    d = (a * a + b * b + c * c) / 2.0
    corner = a * (b + c)
    m = np.array(
        [
            [d, 0, 0, corner],
            [0, b * b / 2.0, 0, 0],
            [0, 0, b * b / 2.0, 0],
            [corner, 0, 0, d],
        ]
    )
    return DensityMatrix(m)


class TestJointClonesClosedForm:
    def test_universal_entries(self):
        m = joint_clones_closed_form(universal_coeffs()).elements
        assert np.allclose(np.diag(m).real, [5 / 12, 1 / 12, 1 / 12, 5 / 12])
        assert abs(m[0, 3] - 1 / 3) < 1e-14
        assert abs(np.trace(m) - 1.0) < 1e-14

    def test_entropy_disagrees_with_numeric_partial_trace(self):
        closed = joint_clones_closed_form(universal_coeffs())
        s_closed = von_neumann_entropy(closed)
        assert abs(s_closed - 1.2075187496394215) < 1e-9
        system = TelecloningSystem(universal_coeffs())
        s_traced = von_neumann_entropy(partial_trace(system.state.density(), (2, 3)))
        assert abs(s_traced - LOG2_3) < 1e-9
        assert abs(s_closed - s_traced) > 0.3

    def test_numeric_trace_spectrum(self):
        # ground truth eigenvalues {(a+c)^2/2, (a-c)^2/2, 2 b^2, 0}
        rng = np.random.default_rng(19)
        for _ in range(5):
            coeffs = random_coeffs(rng)
            system = TelecloningSystem(coeffs)
            rho = partial_trace(system.state.density(), (2, 3)).elements
            eigs = np.sort(np.linalg.eigvalsh(rho))
            expected = np.sort(
                [
                    (coeffs.a + coeffs.c) ** 2 / 2,
                    (coeffs.a - coeffs.c) ** 2 / 2,
                    2 * coeffs.b**2,
                    0.0,
                ]
            )
            assert np.abs(eigs - expected).max() < 1e-12

    def test_not_positive_for_some_coeffs(self):
        with pytest.raises(ValueError):
            joint_clones_closed_form(CloneCoeffs(0.5, 0.5, 0.5))


class TestCoeffValidation:
    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            CloneCoeffs(1.0, 1.0, 0.0)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            CloneCoeffs(-np.sqrt(2 / 3), np.sqrt(1 / 6), 0.0)

    def test_accepted_coefficients_build_every_state(self):
        # norm errors up to 1e-10 are accepted; every state built from the
        # coefficients checks its norm within 1e-12
        ens = TwoStateEnsemble(np.pi / 4)
        for scale in (1 + 2e-11, 1 - 2e-11, 1 + 4.9e-11):
            coeffs = CloneCoeffs(np.sqrt(2 / 3) * scale, np.sqrt(1 / 6), 0.0)
            norm = coeffs.a**2 + 2 * coeffs.b**2 + coeffs.c**2
            assert abs(norm - 1.0) < 1e-15
            system = TelecloningSystem(coeffs)
            assert abs(global_clone_fidelity(ens, coeffs) - 2 / 3) < 1e-10
            for psi in make_states(ens):
                assert apply_cloner(psi, coeffs).n_qubits == 3
                assert len(teleclone(psi, system).per_outcome) == 4

    def test_rejects_multi_qubit_input(self):
        system = TelecloningSystem(universal_coeffs())
        two = PureState(np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            teleclone(two, system)
