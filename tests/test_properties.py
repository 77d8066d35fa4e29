"""Property tests over theta in [0, pi/2] and alpha in [0, 1/sqrt(2)].

The classical and channel closed forms, the telecloning closed forms
against the protocol, the resource's partial trace and u^T M u, and the partial
trace of a pure state from its amplitudes against its density matrix,
and the norm bound of every LocalOperator that is accepted.  Hypothesis
runs derandomized, so every run draws the same examples.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teleportsim import telecloning
from teleportsim.channels import (
    average_fidelity_direct,
    direct_fidelity_state,
    horodecki_optimal_fidelity,
    optimize_combined,
    purification_fidelity_two_state,
    two_state_direct_fidelity,
    unknown_state_sweep,
)
from teleportsim.classical import classical_sweep, fidelity_optimized
from teleportsim.ensembles import Channel, TwoStateEnsemble, make_states
from teleportsim.protocols import enumerate_protocol_fidelity
from teleportsim.states import (
    LocalOperator,
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
)

HALF_PI = np.pi / 2
INV_SQRT2 = 1 / np.sqrt(2)
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)

thetas = st.floats(0.0, HALF_PI)
angles = st.floats(0.0, HALF_PI)
alphas = st.floats(0.0, INV_SQRT2)


@PROPERTY_SETTINGS
@given(theta=thetas, alpha=alphas)
@example(theta=0.0, alpha=0.0)
@example(theta=0.0, alpha=INV_SQRT2)
@example(theta=np.nextafter(HALF_PI, 0.0), alpha=0.0)
@example(theta=np.nextafter(HALF_PI, 0.0), alpha=INV_SQRT2)
@example(theta=HALF_PI, alpha=0.0)
@example(theta=HALF_PI, alpha=INV_SQRT2)
def test_classical_and_channel_fidelities_are_ordered(theta, alpha):
    ens, channel = TwoStateEnsemble(theta), Channel(alpha)
    with np.errstate(divide="raise", invalid="raise"):
        f_min_error, f_unambiguous, _, f_fuchs_peres = classical_sweep(theta)
        ordered = [
            f_unambiguous,
            f_min_error,
            fidelity_optimized(ens).fidelity,
            optimize_combined(ens, channel).fidelity,
        ]
        others = [
            f_fuchs_peres,
            direct_fidelity_state(theta, channel),
            two_state_direct_fidelity(ens, channel),
            purification_fidelity_two_state(ens, channel),
            average_fidelity_direct(channel),
            horodecki_optimal_fidelity(channel),
            unknown_state_sweep(alpha)[1],
        ]
    for f in ordered + others:
        assert np.isfinite(f)
        assert 0.0 <= f <= 1.0
    # unambiguous <= min-error <= optimised <= optimize_combined
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))


def direct_global_fidelity(ens, coeffs):
    """The same average through the direct cloner map, with no teleportation."""
    total = 0.0
    for psi in make_states(ens):
        joint = partial_trace(apply_cloner(psi, coeffs).density(), (1, 2))
        total += 0.5 * fidelity(tensor(psi, psi), joint)
    return total


@PROPERTY_SETTINGS
@given(theta=thetas)
@example(theta=0.0)
@example(theta=np.nextafter(HALF_PI, 0.0))
@example(theta=HALF_PI)
def test_optimized_fidelity_between_universal_and_optimal_cloner(theta):
    ens = TwoStateEnsemble(theta)
    with np.errstate(divide="raise", invalid="raise"):
        f = global_clone_fidelity(ens, optimize_coeffs(ens))
    assert np.isfinite(f)
    assert 2 / 3 - 1e-12 <= f <= optimal_global_fidelity(ens) + 1e-12


@PROPERTY_SETTINGS
@given(theta=thetas, phi=angles, chi=angles)
@example(theta=0.0, phi=0.0, chi=0.0)
@example(theta=np.nextafter(HALF_PI, 0.0), phi=HALF_PI, chi=0.0)
@example(theta=HALF_PI, phi=HALF_PI, chi=HALF_PI)
@example(theta=HALF_PI, phi=np.pi / 3, chi=np.arccos(np.sqrt(2 / 3)))  # (1/2, 1/2, 1/2)
@example(theta=np.pi / 4, phi=np.arccos(np.sqrt(2 / 3)), chi=0.0)  # universal
def test_any_coefficients_match_direct_cloner(theta, phi, chi):
    # (a, sqrt(2) b, c) is a unit vector in the nonnegative octant
    coeffs = CloneCoeffs(
        np.cos(phi), np.sin(phi) * np.cos(chi) / np.sqrt(2), np.sin(phi) * np.sin(chi)
    )
    ens = TwoStateEnsemble(theta)
    with np.errstate(divide="raise", invalid="raise"):
        f = global_clone_fidelity(ens, coeffs)
        ent = alice_receivers_entanglement(coeffs)
    assert 0.0 <= f <= 1.0
    # the two-overlap kernel against u^T M u, the same quadratic form summed another way
    u = np.array([coeffs.a, np.sqrt(2.0) * coeffs.b, coeffs.c])
    assert abs(f - u @ telecloning._fidelity_matrix(ens.theta) @ u) <= 1e-15
    assert abs(f - direct_global_fidelity(ens, coeffs)) < 1e-12
    # the protocol and the resource's partial trace, the closed forms' oracles
    system = TelecloningSystem(coeffs)
    spec = protocol_spec(system)
    enum = sum(0.5 * enumerate_protocol_fidelity(psi, spec) for psi in make_states(ens))
    assert abs(f - enum) < 1e-12
    traced = von_neumann_entropy(partial_trace(system.state.density(), (2, 3)))
    assert abs(ent - traced) < 1e-12


@PROPERTY_SETTINGS
@given(n=st.integers(2, 5), support=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
@example(n=2, support=1, seed=0)  # a product state, rank-one reductions
@example(n=5, support=32, seed=0)
def test_pure_state_reduces_as_its_density_matrix(n, support, seed):
    # complex amplitudes on the first ``support`` basis states
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    z[support:] = 0.0
    psi = PureState(z / np.linalg.norm(z))
    rho = psi.density()
    for size in range(1, n):
        for kept in combinations(range(n), size):
            for keep in (kept, kept[::-1], tuple(rng.permutation(kept))):
                pure, dense = partial_trace(psi, keep), partial_trace(rho, keep)
                assert np.abs(pure.elements - dense.elements).max() <= 1e-12


@PROPERTY_SETTINGS
@given(n=st.integers(2, 5), keep=st.lists(st.integers(-1, 5), max_size=6))
@example(n=2, keep=[])
@example(n=3, keep=[2, 0, 1])
@example(n=3, keep=[3])
@example(n=2, keep=[-1, 0])
def test_invalid_keep_raises_the_same_error_for_both_inputs(n, keep):
    assume(not (0 < len(set(keep)) < n and all(0 <= q < n for q in keep)))
    psi = PureState(np.full(2**n, 2 ** (-n / 2)))
    with pytest.raises(ValueError) as pure:
        partial_trace(psi, keep)
    with pytest.raises(ValueError) as dense:
        partial_trace(psi.density(), keep)
    assert str(pure.value) == str(dense.value)


def _near_unitary(rng, spread):
    """V diag(1 + e) W with V, W Haar-random unitaries and e uniform in [-spread, spread]."""
    v, w = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            for _ in range(2))
    return v @ np.diag(1.0 + rng.uniform(-spread, spread, 2)) @ w


@PROPERTY_SETTINGS
@given(n=st.integers(1, 5), spread=st.floats(0.0, 4.5e-13), seed=st.integers(0, 2**32 - 1))
@example(n=1, spread=0.0, seed=0)
@example(n=5, spread=4.5e-13, seed=0)
@example(n=2, spread=3e-13, seed=1)
def test_an_accepted_local_operator_preserves_every_norm(n, spread, seed):
    # each factor's gram is off by at most about 2 * spread <= 9e-13, so the
    # per-factor check passes every one, and only the bound on the product decides
    rng = np.random.default_rng(seed)
    try:
        op = LocalOperator(tuple(_near_unitary(rng, spread) for _ in range(n)))
    except ValueError as err:
        assert str(err) == "operator is not norm-preserving within 1e-12"
        return
    x = rng.standard_normal((2**n, 8)) + 1j * rng.standard_normal((2**n, 8))
    x /= np.linalg.norm(x, axis=0)
    y = op.matrix() @ x
    assert np.abs(np.einsum("ij,ij->j", y.conj(), y).real - 1.0).max() <= 1e-12
