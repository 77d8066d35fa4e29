"""Protocol execution by exact outcome enumeration or seeded Monte Carlo.

This module is the independent verification oracle for the closed-form
fidelities elsewhere in the package: it runs measure-and-correct protocols
by projecting onto the Bell basis and averaging branch fidelities, with no
reference to any closed form.

The standard correction table is phi+ -> I, phi- -> Z, psi+ -> X,
psi- -> ZX (apply X, then Z); with this convention every corrected branch
of the standard protocol reproduces the transmitted state without even a
global phase on a maximally entangled channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import rng as rngmod
from .classical import ClassicalStrategy
from .ensembles import Channel, TwoStateEnsemble, channel_state, make_states
from .states import (
    BELL_VECTORS,
    LocalOperator,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    PureState,
    apply_local,
    bell_measure,
    fidelity,
    partial_trace,
    tensor,
)

STANDARD_CORRECTION_MATRICES = {
    1: PAULI_I,
    2: PAULI_Z,
    3: PAULI_X,
    4: PAULI_Z @ PAULI_X,
}


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """A measure-and-correct protocol over ``input (x) resource_state``.

    ``measured_pair`` indexes the combined system (input qubits first);
    ``corrections`` maps each Bell outcome 1..4 to a LocalOperator on the
    qubits that survive the measurement; ``evaluation_targets`` selects the
    output qubits (post-measurement indexing) whose state is scored.
    """

    resource_state: PureState
    measured_pair: tuple
    corrections: Mapping[int, LocalOperator]
    evaluation_targets: tuple

    def __post_init__(self):
        missing = {1, 2, 3, 4} - set(self.corrections)
        if missing:
            raise ValueError(f"corrections missing for outcomes {sorted(missing)}")
        object.__setattr__(self, "measured_pair", tuple(int(q) for q in self.measured_pair))
        object.__setattr__(
            self, "evaluation_targets", tuple(int(q) for q in self.evaluation_targets)
        )
        object.__setattr__(self, "corrections", dict(self.corrections))


def standard_teleportation(channel: Channel) -> ProtocolSpec:
    """One-qubit teleportation through ``channel`` with standard corrections."""
    corrections = {
        k: LocalOperator((m,)) for k, m in STANDARD_CORRECTION_MATRICES.items()
    }
    return ProtocolSpec(
        resource_state=channel_state(channel),
        measured_pair=(0, 1),
        corrections=corrections,
        evaluation_targets=(0,),
    )


def _branch_table(input_state: PureState, spec: ProtocolSpec, target: PureState):
    """(probability, branch fidelity) for each of the four Bell outcomes."""
    joint = tensor(input_state, spec.resource_state)
    n_rem = joint.n_qubits - 2
    if len(target.amplitudes) != 2 ** len(spec.evaluation_targets):
        raise ValueError("target dimension does not match evaluation_targets")
    rows = []
    for outcome in bell_measure(joint, spec.measured_pair):
        if outcome.post_state is None:
            rows.append((outcome.probability, 0.0))
            continue
        corrected = apply_local(spec.corrections[outcome.index], outcome.post_state)
        if spec.evaluation_targets == tuple(range(n_rem)):
            f = fidelity(target, corrected)
        else:
            reduced = partial_trace(corrected.density(), spec.evaluation_targets)
            f = fidelity(target, reduced)
        rows.append((outcome.probability, f))
    return rows


def enumerate_protocol_fidelity(
    input_state: PureState, spec: ProtocolSpec, target: Optional[PureState] = None
) -> float:
    """Exact protocol fidelity: sum of probability * branch fidelity.

    ``target`` defaults to the input state itself (teleportation); pass an
    explicit target when the evaluated output has a different size, e.g. a
    two-clone target.
    """
    target = input_state if target is None else target
    return float(sum(p * f for p, f in _branch_table(input_state, spec, target)))


def mc_protocol_fidelity(
    input_state: PureState,
    spec: ProtocolSpec,
    samples: int,
    seed: int,
    target: Optional[PureState] = None,
):
    """Monte Carlo protocol fidelity: (mean, standard error).

    Bell outcomes are sampled from their exact distribution in fixed-size
    chunks with split seeds, so results are bit-identical for a given
    (samples, seed) pair.
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    target = input_state if target is None else target
    rows = _branch_table(input_state, spec, target)
    probs = np.array([p for p, _ in rows])
    fids = np.array([f for _, f in rows])
    probs = probs / probs.sum()
    sizes = rngmod.chunk_sizes(samples)
    counts = np.zeros(4, dtype=np.int64)
    for size, gen in zip(sizes, rngmod.substreams(seed, len(sizes))):
        counts += gen.multinomial(size, probs)
    mean = float(counts @ fids) / samples
    var = float(counts @ (fids - mean) ** 2) / max(samples - 1, 1)
    return mean, float(np.sqrt(var / samples))


def enumerate_classical_strategy(
    strategy: ClassicalStrategy, ens: TwoStateEnsemble
) -> float:
    """Exact measure-and-prepare fidelity by summing over outcomes and states.

    Outcome probabilities are taken as Tr(A_i rho_j) on the signal-state
    projectors, a deliberately different route from the amplitude quadratic
    forms used by the classical module's evaluator.
    """
    f = 0.0
    for psi in make_states(ens):
        rho = psi.density().elements
        for m, g in zip(strategy.povm, strategy.guesses):
            p = float(np.real(np.trace(m @ rho)))
            f += 0.5 * p * fidelity(g, psi)
    return f


def simulate_purification_branch(ens: TwoStateEnsemble, channel: Channel) -> float:
    """Expected fidelity of the purify-then-teleport strategy, by enumeration.

    Filtering succeeds with probability 2 alpha^2, after which teleportation
    through the maximal channel is enumerated exactly; on failure the
    optimized classical strategy is enumerated.
    """
    from .classical import optimized_strategy

    p_succ = min(2.0 * channel.alpha**2, 1.0)
    spec = standard_teleportation(Channel.maximal())
    f_tele = 0.5 * sum(
        enumerate_protocol_fidelity(psi, spec) for psi in make_states(ens)
    )
    f_cl = enumerate_classical_strategy(optimized_strategy(ens), ens)
    return p_succ * f_tele + (1.0 - p_succ) * f_cl


def mc_haar_average_fidelity(channel: Channel, samples: int, seed: int):
    """Monte Carlo average of direct-teleportation fidelity over Haar inputs.

    Executes the standard protocol in vectorized form for each sampled
    input: project onto Bell vectors on the measured pair, apply the
    standard correction, score against the input.  Returns (mean, stderr).
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
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
