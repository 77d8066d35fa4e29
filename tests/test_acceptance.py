"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failed assert marks the corresponding criterion as failed.
"""

import numpy as np

from teleportsim.channels import (
    average_fidelity_direct,
    combined_fidelity,
    horodecki_optimal_fidelity,
    optimize_combined,
    purification_fidelity_two_state,
    two_state_direct_fidelity,
)
from teleportsim.classical import classical_sweep, fidelity_optimized
from teleportsim.ensembles import Channel, TwoStateEnsemble, make_states, source_entropy
from teleportsim.protocols import (
    enumerate_protocol_fidelity,
    mc_protocol_fidelity,
    standard_teleportation,
)
from teleportsim.states import DensityMatrix, PureState, partial_trace, von_neumann_entropy
from teleportsim.telecloning import (
    TelecloningSystem,
    alice_receivers_entanglement,
    apply_cloner,
    global_clone_fidelity,
    optimal_global_fidelity,
    optimize_coeffs,
    protocol_spec,
    teleclone,
    universal_coeffs,
)

LOG2_3 = np.log2(3.0)
PI4 = TwoStateEnsemble(np.pi / 4)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_min_error_fidelity():
    value = classical_sweep(np.pi / 4)[0]
    assert abs(value - 0.9268) <= 5e-4
    report(1, f"f_min_error(pi/4) = {value:.6f} = 0.9268 +- 0.0005")


def test_criterion_02_ordering_and_symmetry():
    grid = np.linspace(0.0, np.pi / 2, 181)
    max_sym = 0.0
    max_coin = 0.0
    for t, f_m, f_u, _, f_fp in zip(grid, *classical_sweep(grid)):
        f_o = fidelity_optimized(TwoStateEnsemble(t)).fidelity
        assert f_u <= f_m + 1e-12 and f_m <= f_o + 1e-12
        mirror = fidelity_optimized(TwoStateEnsemble(np.pi / 2 - t)).fidelity
        max_sym = max(max_sym, abs(f_o - mirror))
        max_coin = max(max_coin, abs(f_o - f_fp))
    assert max_sym <= 1e-9
    assert max_coin <= 1e-9
    report(2, f"ordering holds; symmetry dev {max_sym:.1e}; coincidence dev {max_coin:.1e}")


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        ens = TwoStateEnsemble(rng.uniform(0.0, np.pi / 2))
        channel = Channel(rng.uniform(0.0, 1 / np.sqrt(2)))
        spec = standard_teleportation(channel)
        psi1, psi2 = make_states(ens)
        enum = 0.5 * (
            enumerate_protocol_fidelity(psi1, spec)
            + enumerate_protocol_fidelity(psi2, spec)
        )
        worst = max(worst, abs(enum - two_state_direct_fidelity(ens, channel)))
    assert worst <= 1e-12
    channel = Channel(np.sqrt(0.3))
    spec = standard_teleportation(channel)
    psi1, _ = make_states(PI4)
    exact = enumerate_protocol_fidelity(psi1, spec)
    mean, stderr = mc_protocol_fidelity(psi1, spec, 1_000_000, seed=42)
    assert abs(mean - exact) <= 4 * stderr
    report(3, f"enumeration dev {worst:.1e} <= 1e-12; MC dev {abs(mean - exact):.1e} <= 4*stderr")


def test_criterion_04_horodecki_identity():
    worst = 0.0
    for a2 in np.linspace(0.0, 0.5, 101):
        c = Channel(np.sqrt(a2))
        worst = max(worst, abs(horodecki_optimal_fidelity(c) - average_fidelity_direct(c)))
    assert worst <= 1e-15
    report(4, f"(2f+1)/3 == (2/3)(1+ab) to {worst:.1e} on 101-point grid")


def test_criterion_05_combined_dominance():
    worst = -np.inf
    worst_end = 0.0
    for t in np.linspace(0.0, np.pi / 2, 50):
        ens = TwoStateEnsemble(t)
        for a2 in np.linspace(0.0, 0.5, 50):
            c = Channel(np.sqrt(a2))
            f_dir = two_state_direct_fidelity(ens, c)
            f_pur = purification_fidelity_two_state(ens, c)
            best = optimize_combined(ens, c).fidelity
            worst = max(worst, max(f_dir, f_pur) - best)
            worst_end = max(
                worst_end,
                abs(combined_fidelity(ens, c, c.alpha) - f_dir),
                abs(combined_fidelity(ens, c, 1 / np.sqrt(2)) - f_pur),
            )
    assert worst <= 1e-12
    assert worst_end <= 1e-12
    report(5, f"dominance slack {worst:.1e}; endpoint reduction dev {worst_end:.1e}")


def test_criterion_06_crossover():
    f_cl = fidelity_optimized(PI4).fidelity
    winning = [
        a
        for a in np.linspace(0.01, 0.7, 140)
        if f_cl > two_state_direct_fidelity(PI4, Channel(a))
    ]
    assert winning
    report(6, f"classical beats direct teleportation for alpha up to {max(winning):.3f}")


def test_criterion_07_universal_telecloning():
    system = TelecloningSystem(universal_coeffs())
    ent = alice_receivers_entanglement(system.coeffs)
    assert abs(ent - LOG2_3) <= 1e-9
    for basis in (PureState(np.array([1.0, 0.0])), PureState(np.array([0.0, 1.0]))):
        for q in (1, 2):
            f = enumerate_protocol_fidelity(basis, protocol_spec(system, targets=(q,)))
            assert abs(f - 5.0 / 6.0) <= 1e-9
    rho = system.state.density()
    worst = max(
        float(np.abs(partial_trace(rho, (q,)).elements - np.eye(2) / 2).max())
        for q in range(4)
    )
    assert worst <= 1e-10
    report(7, f"entanglement log2(3) dev {abs(ent - LOG2_3):.1e}; clones 5/6; marginals I/2")


def test_criterion_08_two_state_telecloning_sweep():
    max_ent = -np.inf
    max_gap = -np.inf
    for t in np.linspace(0.0, np.pi / 2, 50):
        ens = TwoStateEnsemble(t)
        coeffs = optimize_coeffs(ens)
        ent = alice_receivers_entanglement(coeffs)
        f_tc = global_clone_fidelity(ens, coeffs)
        f_opt = optimal_global_fidelity(ens)
        assert ent < LOG2_3
        assert f_tc <= f_opt + 1e-9
        max_ent = max(max_ent, ent)
        max_gap = max(max_gap, f_opt - f_tc)
    assert max_gap > 1e-3
    report(8, f"max entanglement {max_ent:.4f} < log2(3); strict gap up to {max_gap:.4f}")


def test_criterion_09_correction_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for coeffs in (universal_coeffs(), optimize_coeffs(PI4)):
        system = TelecloningSystem(coeffs)
        for _ in range(20):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z /= np.linalg.norm(z)
            psi = PureState(z)
            target = apply_cloner(psi, coeffs).amplitudes
            for _, corrected in teleclone(psi, system).per_outcome:
                worst = max(worst, float(np.abs(corrected.amplitudes - target).max()))
    assert worst <= 1e-12
    report(9, f"all corrected branches equal x*phi0 + y*phi1, dev {worst:.1e}")


def test_criterion_10_documented_discrepancies():
    s = source_entropy(PI4)
    assert abs(s - 0.6008760366928562) <= 1e-9
    assert abs(s - 0.907) > 0.05
    # the misquoted candidate at the universal coefficients, as verify holds it
    closed = DensityMatrix(
        np.array(
            [
                [5 / 12, 0, 0, 1 / 3],
                [0, 1 / 12, 0, 0],
                [0, 0, 1 / 12, 0],
                [1 / 3, 0, 0, 5 / 12],
            ]
        )
    )
    s_closed = von_neumann_entropy(closed)
    assert abs(s_closed - 1.2075187496394215) <= 1e-9
    system = TelecloningSystem(universal_coeffs())
    s_traced = von_neumann_entropy(partial_trace(system.state.density(), (2, 3)))
    assert abs(s_traced - LOG2_3) <= 1e-9
    assert abs(s_closed - s_traced) > 0.3
    report(
        10,
        f"source entropy {s:.4f} (not 0.907); closed-form matrix entropy "
        f"{s_closed:.4f} vs traced {s_traced:.4f}",
    )
