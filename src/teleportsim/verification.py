"""Named self-checks behind the ``verify`` CLI subcommand.

Each check recomputes one documented invariant of the package at its stated
tolerance and reports the measured deviation.  The registry deliberately
pairs closed forms with independent routes (protocol enumeration, Monte
Carlo, partial traces, finite differences, and exact Haar averages as means
over the six Pauli eigenstates, a spherical 3-design) so a regression in
either side is caught.  A check over a theta or alpha grid reads the
broadcast sweep that the ``fig-*`` commands print (``classical_sweep``,
``channel_sweep``, ``unknown_state_sweep``, ``telecloning_sweep``) and
states its invariant as one array comparison.
"""

from __future__ import annotations

import time

import numpy as np

from . import channels as ch
from . import classical as cl
from . import ensembles
from . import protocols as pr
from . import telecloning as tc
from .ensembles import (
    Channel,
    TwoStateEnsemble,
    ensemble_density,
    make_states,
    overlap,
    source_entropy,
)
from .states import (
    DensityMatrix,
    LocalOperator,
    PureState,
    _Value,
    bell_measure,
    fidelity,
    partial_trace,
    tensor,
    von_neumann_entropy,
)

LOG2_3 = float(np.log2(3.0))


class CheckResult(_Value):
    """One check's verdict and its report line; ``elapsed_s`` is its wall time.

    The time is data only: it is not printed, and two results that differ
    only in it compare equal.
    """

    _fields = ("name", "passed", "detail", "elapsed_s")

    def __init__(self, name: str, passed: bool, detail: str, elapsed_s: float = 0.0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "elapsed_s", elapsed_s)

    def _key(self) -> tuple:
        return (self.name, self.passed, self.detail)


def _random_state(rng, n_qubits: int) -> PureState:
    z = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return PureState(z / np.linalg.norm(z))


def _random_local_unitary(rng, n_qubits: int) -> LocalOperator:
    # per factor, the real and then the imaginary 2x2 draw, as one draw
    g = rng.standard_normal((n_qubits, 2, 2, 2))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return LocalOperator(q * (d / np.abs(d))[:, None, :])


def _pauli_eigenstates():
    """|0>, |1>, |+>, |->, |+i>, |-i>: the Bloch vectors +-z, +-x and +-y.

    Built on each call, so importing the package allocates nothing for them.
    """
    h = np.sqrt(0.5)
    amplitudes = ((1.0, 0.0), (0.0, 1.0), (h, h), (h, -h), (h, 1j * h), (h, -1j * h))
    return tuple(PureState(a) for a in amplitudes)


def _design_average(spec) -> float:
    """The Haar average of ``spec``'s fidelity, exactly: its mean over the six Pauli eigenstates.

    For a spec that scores one output qubit, the fidelity on a pure input z
    is sum_k ||s_k||^2 with s_k = (I_rest (x) <z|) T_k z.  That is linear in
    |z><z| (x) |z><z|, and each entry of |z><z| = (I + r.sigma)/2 is affine
    in the Bloch vector r, so the fidelity is a polynomial of degree 2 in r.
    The six eigenstates of X, Y and Z, the points +-x, +-y and +-z, form a
    spherical 3-design: their mean of any polynomial of degree at most 3 in
    r equals its mean over the sphere, which is the Haar average over pure
    inputs.  For degree 2 that is two facts: each r_i and each r_i r_j
    (i != j) averages to 0 on both, and each r_i^2 averages to 1/3 on both.
    So the mean is the Haar average up to rounding, with no sampling error
    to allow for.
    """
    inputs = _pauli_eigenstates()
    return sum(pr.enumerate_protocol_fidelity(psi, spec) for psi in inputs) / len(inputs)


# --- core linear algebra -----------------------------------------------------


def check_norm_preservation(cfg):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(20):
        psi = _random_state(rng, 3)
        # the bare product: a PureState would reject a norm off by 1e-12 itself
        out = _random_local_unitary(rng, 3).matrix() @ psi.amplitudes
        worst = max(worst, abs(float(np.vdot(out, out).real) - 1.0))
    return worst <= 1e-12, f"max |norm-1| = {worst:.2e} (tol 1e-12)"


def check_partial_trace_consistency(cfg):
    rng = np.random.default_rng(cfg.seed + 1)
    worst = 0.0
    for _ in range(10):
        psi = _random_state(rng, 4)
        direct = partial_trace(psi, (0, 2))
        stepped = partial_trace(partial_trace(psi.density(), (0, 2, 3)), (0, 1))
        worst = max(worst, float(np.abs(direct.elements - stepped.elements).max()))
    return worst <= 1e-12, f"amplitudes vs two steps of the density, max dev = {worst:.2e}"


def check_entropy_bounds(cfg):
    rng = np.random.default_rng(cfg.seed + 2)
    worst_inv = 0.0
    for _ in range(10):
        psi = _random_state(rng, 3)
        rho = partial_trace(psi, (0, 1))
        s = von_neumann_entropy(rho)
        if not (0.0 <= s <= 2.0 + 1e-12):
            return False, f"entropy {s} outside [0, 2]"
        u = _random_local_unitary(rng, 2).matrix()
        rotated = DensityMatrix(u @ rho.elements @ u.conj().T)
        worst_inv = max(worst_inv, abs(von_neumann_entropy(rotated) - s))
    return worst_inv <= 1e-9, f"entropy unitary-invariance dev = {worst_inv:.2e}"


def check_bell_completeness(cfg):
    rng = np.random.default_rng(cfg.seed + 3)
    worst_p, worst_r = 0.0, 0.0
    for _ in range(10):
        psi = _random_state(rng, 4)
        outcomes = bell_measure(psi, (1, 2))
        worst_p = max(worst_p, abs(sum(o.probability for o in outcomes) - 1.0))
        mix = sum(
            o.probability * np.outer(o.post_state.amplitudes, o.post_state.amplitudes.conj())
            for o in outcomes
            if o.post_state is not None
        )
        reduced = partial_trace(psi, (0, 3)).elements
        worst_r = max(worst_r, float(np.abs(mix - reduced).max()))
    ok = worst_p <= 1e-12 and worst_r <= 1e-10
    return ok, f"prob-sum dev = {worst_p:.2e}, remainder-mix dev = {worst_r:.2e}"


# --- ensemble -----------------------------------------------------------------


def check_entropy_decreasing(cfg):
    grid = np.linspace(1e-3, np.pi / 2 - 1e-3, 60)
    vals = [source_entropy(TwoStateEnsemble(t)) for t in grid]
    ok = all(b < a for a, b in zip(vals, vals[1:]))
    return ok, "source entropy strictly decreasing on (0, pi/2)"


def check_ensemble_symmetry(cfg):
    x = np.array([[0, 1], [1, 0]])
    worst = 0.0
    for t in np.linspace(0, np.pi / 2, 25):
        rho = ensemble_density(TwoStateEnsemble(t)).elements
        worst = max(worst, float(np.abs(x @ rho @ x - rho).max()))
    return worst <= 1e-12, f"X rho X = rho, max dev = {worst:.2e}"


def check_overlap_grid(cfg):
    worst = 0.0
    for t in np.linspace(0, np.pi / 2, 100):
        ens = TwoStateEnsemble(t)
        p1, p2 = make_states(ens)
        inner = abs(np.vdot(p1.amplitudes, p2.amplitudes))
        worst = max(worst, abs(inner - overlap(ens)))
    return worst <= 1e-12, f"overlap vs inner product, max dev = {worst:.2e}"


# --- classical strategies -------------------------------------------------------


def check_classical_ordering(cfg):
    thetas = np.linspace(0, np.pi / 2, 181)
    f_m, f_u, f_o, _ = cl.classical_sweep(thetas)
    broken = ~((f_u <= f_m + 1e-12) & (f_m <= f_o + 1e-12))
    if broken.any():
        return False, f"ordering broken at theta = {thetas[np.argmax(broken)]}"
    return True, "unambiguous <= min-error <= optimized on 181-point grid"


def check_classical_symmetry(cfg):
    t = np.linspace(0, np.pi / 4, 90)
    a, b = cl.classical_sweep(np.stack([t, np.pi / 2 - t]))[2]
    worst = np.abs(a - b).max()
    return worst <= 1e-9, f"optimized(theta) vs optimized(pi/2-theta) dev = {worst:.2e}"


def check_fuchs_peres_coincidence(cfg):
    _, _, f_o, f_fp = cl.classical_sweep(np.linspace(0, np.pi / 2, 200))
    worst = np.abs(f_o - f_fp).max()
    return worst <= 1e-9, f"optimized vs Fuchs-Peres closed form dev = {worst:.2e}"


# I, I, X, X: the standard set's own I and X, one set for every guess angle
_GUESS_CORRECTIONS = {k: pr._STANDARD_CORRECTIONS[1 if k < 3 else 3] for k in (1, 2, 3, 4)}


def _guess_spec(g):
    """The computational-basis measurement with guesses at ``g``, as a protocol.

    The resource is |0> (x) (c|0> + s|1>), c, s = cos(g/2), sin(g/2), and the
    corrections are I, I, X, X.  Bell-measuring the input z against |0> gives
    phi+- the amplitude z0/sqrt(2): they report input 0, and the receiver keeps the
    guess c|0> + s|1>.  psi+- get +-z1/sqrt(2): they report input 1, and X turns
    the guess into s|0> + c|1>.  That is ``classical.fidelity_biased_guess``.
    """
    c, s = np.cos(g / 2), np.sin(g / 2)
    return pr.ProtocolSpec(PureState(np.array([c, s, 0.0, 0.0])), _GUESS_CORRECTIONS, (0,))


def check_evaluator_consistency(cfg):
    # one spec per guess angle, all on the one correction set
    specs = [(g, _guess_spec(g)) for g in np.linspace(0, np.pi / 2, 7)]
    worst = 0.0
    for t in np.linspace(0.05, np.pi / 2 - 0.05, 12):
        ens = TwoStateEnsemble(t)
        psi1, psi2 = make_states(ens)
        for g, spec in specs:
            f = 0.5 * (
                pr.enumerate_protocol_fidelity(psi1, spec)
                + pr.enumerate_protocol_fidelity(psi2, spec)
            )
            worst = max(worst, abs(f - cl.fidelity_biased_guess(ens, g)))
    return worst <= 1e-12, f"product-channel enumeration vs closed form dev = {worst:.2e}"


def check_stationarity(cfg):
    worst = 0.0
    h = 1e-5
    for t in np.linspace(0.05, np.pi / 2 - 0.05, 30):
        ens = TwoStateEnsemble(t)
        g = cl.fidelity_optimized(ens).guess_angle
        deriv = (
            cl.fidelity_biased_guess(ens, g + h) - cl.fidelity_biased_guess(ens, g - h)
        ) / (2 * h)
        worst = max(worst, abs(deriv))
    return worst <= 1e-8, f"dF/dg at optimum (central diff) = {worst:.2e}"


def check_unknown_state_mc(cfg):
    # g = 0 guesses |0> on input 0 and |1> on input 1: the basis measurement
    mean = _design_average(_guess_spec(0.0))
    dev = abs(mean - 2.0 / 3.0)
    return dev <= 1e-12, f"six-state mean {mean:.12f}, |dev from 2/3| = {dev:.2e} (tol 1e-12)"


# --- channel strategies ----------------------------------------------------------


def check_horodecki_identity(cfg):
    worst = 0.0
    for a2 in np.linspace(0, 0.5, 101):
        c = Channel(np.sqrt(a2))
        worst = max(worst, abs(ch.horodecki_optimal_fidelity(c) - ch.average_fidelity_direct(c)))
    return worst <= 1e-15, f"(2f+1)/3 vs (2/3)(1+ab), max dev = {worst:.2e}"


def check_combined_dominance(cfg):
    thetas = np.linspace(0, np.pi / 2, 50)
    alphas = ensembles.checked_alphas(np.sqrt(np.linspace(0, 0.5, 50)))
    f_comb = ch.channel_sweep(thetas[:, None], alphas)[2]
    # an independent route to the optimum: a 17-point alpha' scan of the
    # combined fidelity from alpha to 1/sqrt(2), both endpoints included
    scan = np.linspace(alphas, ch._INV_SQRT2, 17)[:, None, :]
    f_cl = cl.classical_sweep(thetas)[2][:, None]
    worst = (ch._combined(thetas[:, None], alphas, scan, f_cl).max(axis=0) - f_comb).max()
    return worst <= 1e-12, f"17-point alpha' scan of combined - swept combined = {worst:.2e}"


def check_crossover(cfg):
    f_cl = cl.classical_sweep(np.pi / 4)[2]
    f_dir = ch.channel_sweep(np.pi / 4, np.linspace(0.05, 0.65, 61))[0]
    count = int(np.count_nonzero(f_dir < f_cl))
    return count > 0, f"classical beats direct for {count} sampled alpha > 0 values"


def check_endpoint_reductions(cfg):
    worst = 0.0
    for t in (0.2, np.pi / 4, 1.2):
        ens = TwoStateEnsemble(t)
        for a2 in (0.05, 0.2, 0.4):
            c = Channel(np.sqrt(a2))
            lo = abs(
                ch.combined_fidelity(ens, c, c.alpha)
                - ch.two_state_direct_fidelity(ens, c)
            )
            hi = abs(
                ch.combined_fidelity(ens, c, 1 / np.sqrt(2))
                - ch.purification_fidelity_two_state(ens, c)
            )
            worst = max(worst, lo, hi)
    return worst <= 1e-12, f"endpoint reductions, max dev = {worst:.2e}"


def check_monotonicity(cfg):
    avg, pur = ch.unknown_state_sweep(np.sqrt(np.linspace(0, 0.5, 101)))
    ok = (
        (avg[1:] >= avg[:-1] - 1e-15).all()
        and (pur[1:] >= pur[:-1] - 1e-15).all()
        and (avg >= pur - 1e-15).all()
    )
    return ok, "average-direct and purification nondecreasing; direct dominates"


# --- protocol oracle ---------------------------------------------------------------


def check_oracle_agreement(cfg):
    rng = np.random.default_rng(cfg.seed + 10)
    worst = 0.0
    for _ in range(50):
        t = rng.uniform(0, np.pi / 2)
        c = Channel(rng.uniform(0, 1 / np.sqrt(2)))
        ens = TwoStateEnsemble(t)
        spec = pr.standard_teleportation(c)
        psi1, psi2 = make_states(ens)
        enum = 0.5 * (
            pr.enumerate_protocol_fidelity(psi1, spec)
            + pr.enumerate_protocol_fidelity(psi2, spec)
        )
        worst = max(worst, abs(enum - ch.two_state_direct_fidelity(ens, c)))
    return worst <= 1e-12, f"enumeration vs closed form over 50 pairs, dev = {worst:.2e}"


def check_mc_agreement(cfg):
    ens = TwoStateEnsemble(np.pi / 4)
    c = Channel(np.sqrt(0.3))
    spec = pr.standard_teleportation(c)
    psi1, _ = make_states(ens)
    exact = pr.enumerate_protocol_fidelity(psi1, spec)
    # enumeration reads the Bell bras the MC route measures with, so a wrong
    # Bell basis moves both alike; the closed form reads neither
    closed = ch.direct_fidelity_state(ens.theta, c)
    mean, stderr = pr.mc_protocol_fidelity(psi1, spec, cfg.samples, cfg.seed)
    dev, dev_closed = abs(mean - exact), abs(mean - closed)
    ok = all(d <= 4 * stderr or d <= 1e-12 for d in (dev, dev_closed))
    return ok, (
        f"Bell-measure MC vs transfer-operator enumeration, dev = {dev:.2e},"
        f" vs closed form, dev = {dev_closed:.2e}; 4*stderr = {4 * stderr:.2e}"
    )


def check_haar_average(cfg):
    worst = 0.0
    for a2 in (0.0, 0.3, 0.5):
        c = Channel(np.sqrt(a2))
        mean = _design_average(pr.standard_teleportation(c))
        worst = max(worst, abs(mean - ch.average_fidelity_direct(c)))
    return worst <= 1e-12, (
        f"six-state mean vs (2/3)(1 + ab) at alpha^2 = 0, 0.3, 0.5, max dev = {worst:.2e}"
    )


def check_reproducibility(cfg):
    ens = TwoStateEnsemble(0.9)
    c = Channel(0.4)
    spec = pr.standard_teleportation(c)
    psi1, _ = make_states(ens)
    a = pr.mc_protocol_fidelity(psi1, spec, 10_000, cfg.seed)
    b = pr.mc_protocol_fidelity(psi1, spec, 10_000, cfg.seed)
    haar_a = pr.mc_haar_average_fidelity(c, 10_000, cfg.seed)
    haar_b = pr.mc_haar_average_fidelity(c, 10_000, cfg.seed)
    ok = a == b and haar_a == haar_b
    return ok, "identical (spec, samples, seed) gives bit-identical results"


def check_probability_sanity(cfg):
    rng = np.random.default_rng(cfg.seed + 11)
    worst = 0.0
    for _ in range(20):
        # a generic resource: through a Schmidt-diagonal channel p(phi+) =
        # p(phi-) for every input, which hides a mistyped phi-/phi+ pair
        psi = _random_state(rng, 1)
        outcomes = bell_measure(tensor(psi, _random_state(rng, 2)), (0, 1))
        if any(o.probability < -1e-15 for o in outcomes):
            return False, "negative outcome probability"
        worst = max(worst, abs(sum(o.probability for o in outcomes) - 1.0))
    return worst <= 1e-12, f"outcome probabilities sum to 1, dev = {worst:.2e}"


# --- telecloning ----------------------------------------------------------------


def check_universal_telecloning(cfg):
    system = tc.TelecloningSystem(tc.universal_coeffs())
    ent = tc.alice_receivers_entanglement(system.coeffs)
    if abs(ent - LOG2_3) > 1e-9:
        return False, f"closed-form entanglement {ent} != log2(3)"
    spec = tc.protocol_spec(system, targets=(1,))
    for bits in ([1, 0], [0, 1]):
        psi = PureState(np.array(bits, dtype=float))
        f = pr.enumerate_protocol_fidelity(psi, spec)
        if abs(f - 5.0 / 6.0) > 1e-9:
            return False, f"basis clone fidelity {f} != 5/6"
    worst = max(
        float(np.abs(partial_trace(system.state, (q,)).elements - np.eye(2) / 2).max())
        for q in range(4)
    )
    ok = worst <= 1e-10
    return ok, f"closed-form log2(3), enumerated 5/6 clones, traced I/2 marginals ({worst:.2e})"


def check_correction_exactness(cfg):
    rng = np.random.default_rng(cfg.seed + 12)
    system = tc.TelecloningSystem(tc.universal_coeffs())
    worst = 0.0
    for _ in range(20):
        psi = _random_state(rng, 1)
        target = tc.apply_cloner(psi, system.coeffs).amplitudes
        result = tc.teleclone(psi, system)
        for p, corrected in result.per_outcome:
            worst = max(worst, float(np.abs(corrected.amplitudes - target).max()))
            worst = max(worst, abs(p - 0.25))
    return worst <= 1e-12, f"teleclone vs direct cloner map x*phi0 + y*phi1, dev = {worst:.2e}"


def check_clone_symmetry(cfg):
    rng = np.random.default_rng(cfg.seed + 13)
    system = tc.TelecloningSystem(tc.optimize_coeffs(TwoStateEnsemble(0.6)))
    worst = 0.0
    for _ in range(10):
        result = tc.teleclone(_random_state(rng, 1), system)
        worst = max(
            worst, float(np.abs(result.clone_b.elements - result.clone_c.elements).max())
        )
    return worst <= 1e-12, f"teleclone's traced clone B vs clone C, max dev = {worst:.2e}"


def check_teleclone_faithfulness(cfg):
    worst_enum = worst_direct = 0.0
    for t in (0.3, np.pi / 4, 1.2):
        ens = TwoStateEnsemble(t)
        coeffs = tc.optimize_coeffs(ens)
        closed = tc.global_clone_fidelity(ens, coeffs)
        spec = tc.protocol_spec(tc.TelecloningSystem(coeffs))
        enum = direct = 0.0
        for psi in make_states(ens):
            enum += 0.5 * pr.enumerate_protocol_fidelity(psi, spec)
            out = tc.apply_cloner(psi, coeffs)
            joint = partial_trace(out, (1, 2))
            direct += 0.5 * fidelity(tensor(psi, psi), joint)
        worst_enum = max(worst_enum, abs(closed - enum))
        worst_direct = max(worst_direct, abs(closed - direct))
    return max(worst_enum, worst_direct) <= 1e-12, (
        f"closed form vs enumeration dev = {worst_enum:.2e}, vs cloner map {worst_direct:.2e}"
    )


def check_two_state_sweep(cfg):
    thetas = np.linspace(0, np.pi / 2, 50)
    a, b, c, f_tc, f_opt, ent = tc.telecloning_sweep(thetas)
    above = f_tc > f_opt + 1e-9
    if above.any():
        k = int(np.argmax(above))
        return False, f"sandwich violated at theta = {thetas[k]}: {f_tc[k]} > {f_opt[k]}"
    # the closed-form optimum's F against u^T M u at the sweep's own coefficients
    u = np.stack([a, np.sqrt(2.0) * b, c], axis=-1)
    worst_f = np.abs(f_tc - np.einsum("ni,nij,nj->n", u, tc._fidelity_matrix(thetas), u)).max()
    worst = 0.0
    for coeffs, e in zip(map(tc.CloneCoeffs, a, b, c), ent):
        state = tc.TelecloningSystem(coeffs).state
        worst = max(worst, abs(e - von_neumann_entropy(partial_trace(state, (2, 3)))))
    max_ent, max_gap = float(ent.max()), float((f_opt - f_tc).max())
    ok = worst_f <= 1e-12 and worst <= 1e-12 and max_ent < LOG2_3 and max_gap > 1e-3
    detail = f"closed-form F vs u^T M u dev = {worst_f:.2e}, entanglement vs traced"
    detail = f"{detail} dev = {worst:.2e}, max {max_ent:.4f} < log2(3)"
    return ok, f"{detail}, max fidelity gap to the Bruss bound {max_gap:.4f}"


def check_source_entropy_value(cfg):
    s = source_entropy(TwoStateEnsemble(np.pi / 4))
    expected = 0.6008760366928562  # binary entropy of (1 + sin(pi/4))/2
    ok = abs(s - expected) <= 1e-9 and abs(s - 0.907) > 0.05
    return ok, f"entropy at pi/4 computes to {s:.6f} (binary entropy), not 0.907"


# A misquoted candidate for the clones' joint state at the universal coefficients:
# (a^2+b^2+c^2)/2 on |00>, |11>; b^2/2 on |01>, |10>; corner a(b+c).
_MISQUOTED_JOINT_CLONES = np.array(
    [[5 / 12, 0, 0, 1 / 3], [0, 1 / 12, 0, 0], [0, 0, 1 / 12, 0], [1 / 3, 0, 0, 5 / 12]]
)


def check_joint_clones_matrix(cfg):
    s_closed = von_neumann_entropy(DensityMatrix(_MISQUOTED_JOINT_CLONES))
    system = tc.TelecloningSystem(tc.universal_coeffs())
    s_traced = von_neumann_entropy(partial_trace(system.state, (2, 3)))
    ok = (
        abs(s_closed - 1.2075187496394215) <= 1e-9
        and abs(s_traced - LOG2_3) <= 1e-9
        and abs(s_closed - s_traced) > 0.3
    )
    return ok, (
        f"closed form entropy {s_closed:.4f} vs numeric trace {s_traced:.4f};"
        " the partial trace is the ground truth"
    )


CHECKS = (
    ("core-norm-preservation", check_norm_preservation),
    ("core-partial-trace-consistency", check_partial_trace_consistency),
    ("core-entropy-bounds", check_entropy_bounds),
    ("core-bell-completeness", check_bell_completeness),
    ("ensemble-entropy-decreasing", check_entropy_decreasing),
    ("ensemble-x-symmetry", check_ensemble_symmetry),
    ("ensemble-overlap-grid", check_overlap_grid),
    ("classical-strategy-ordering", check_classical_ordering),
    ("classical-optimized-symmetry", check_classical_symmetry),
    ("classical-fuchs-peres-coincidence", check_fuchs_peres_coincidence),
    ("classical-evaluator-consistency", check_evaluator_consistency),
    ("classical-guess-stationarity", check_stationarity),
    ("classical-unknown-state-mc", check_unknown_state_mc),
    ("channel-horodecki-identity", check_horodecki_identity),
    ("channel-combined-dominance", check_combined_dominance),
    ("channel-classical-crossover", check_crossover),
    ("channel-endpoint-reductions", check_endpoint_reductions),
    ("channel-monotonicity", check_monotonicity),
    ("protocol-oracle-agreement", check_oracle_agreement),
    ("protocol-mc-agreement", check_mc_agreement),
    ("protocol-haar-average", check_haar_average),
    ("protocol-reproducibility", check_reproducibility),
    ("protocol-probability-sanity", check_probability_sanity),
    ("teleclone-universal-values", check_universal_telecloning),
    ("teleclone-correction-exactness", check_correction_exactness),
    ("teleclone-clone-symmetry", check_clone_symmetry),
    ("teleclone-faithfulness", check_teleclone_faithfulness),
    ("teleclone-two-state-sweep", check_two_state_sweep),
    ("discrepancy-source-entropy", check_source_entropy_value),
    ("discrepancy-joint-clones-matrix", check_joint_clones_matrix),
)


def run_checks(cfg):
    """Run every registered check, timing each; returns a list of CheckResult.

    ``cfg`` is the run's ``cli.RunConfig``; the checks read its ``samples``
    and ``seed``.
    """
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn(cfg)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name=name, passed=bool(ok), detail=detail, elapsed_s=elapsed))
    return results
