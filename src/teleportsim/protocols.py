"""Protocol execution by exact outcome enumeration or seeded Monte Carlo.

This module is the independent verification oracle for the closed-form
fidelities elsewhere in the package: it runs measure-and-correct protocols
by projecting onto the Bell basis and averaging branch fidelities, with no
reference to any closed form.  Every protocol goes through the one shared
measure-and-correct kernel, ``states._measure_and_correct``.  The Haar Monte
Carlo runs it once per call, on the basis inputs |0> and |1>, to get the
transfer operators T[k] of the standard protocol (the corrected, unnormalised
output of outcome k is T[k] z for any input z), and then scores every sampled
input z as sum_k |<z|T[k]|z>|^2.

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
    LocalOperator,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    PureState,
    _marginal_fidelity,
    _measure_and_correct,
    fidelity,
    tensor,
)

STANDARD_CORRECTION_MATRICES = {
    1: PAULI_I,
    2: PAULI_Z,
    3: PAULI_X,
    4: PAULI_Z @ PAULI_X,
}
_STANDARD_CORRECTIONS = {k: LocalOperator((m,)) for k, m in STANDARD_CORRECTION_MATRICES.items()}


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
    return ProtocolSpec(
        resource_state=channel_state(channel),
        measured_pair=(0, 1),
        corrections=_STANDARD_CORRECTIONS,
        evaluation_targets=(0,),
    )


def _branch_table(input_state: PureState, spec: ProtocolSpec, target: PureState):
    """(probability, branch fidelity) for each of the four Bell outcomes."""
    joint = tensor(input_state, spec.resource_state)
    n_rem = joint.n_qubits - 2
    if len(target.amplitudes) != 2 ** len(spec.evaluation_targets):
        raise ValueError("target dimension does not match evaluation_targets")
    rows = []
    for p, corrected in _measure_and_correct(joint, spec.measured_pair, spec.corrections):
        if corrected is None:
            f = 0.0
        elif spec.evaluation_targets == tuple(range(n_rem)):
            f = fidelity(target, corrected)
        else:
            f = _marginal_fidelity(
                corrected.amplitudes, target.amplitudes, spec.evaluation_targets
            )
        rows.append((p, f))
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
    sizes = rngmod.chunk_sizes(samples)
    if samples < 100:
        raise ValueError("samples must be >= 100")
    target = input_state if target is None else target
    rows = _branch_table(input_state, spec, target)
    probs = np.array([p for p, _ in rows])
    fids = np.array([f for _, f in rows])
    probs = probs / probs.sum()
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


def _transfer_operators(channel: Channel) -> np.ndarray:
    """(4, 2, 2) transfer operators of standard teleportation through ``channel``.

    The protocol is linear in its input, so for outcome k the corrected,
    unnormalised output of input z is ``T[k] @ z``.  Column b of ``T[k]`` is
    sqrt(p) times the corrected post-state of the basis input |b>, from the
    shared measure-and-correct kernel; a branch with no weight leaves a zero
    column.
    """
    spec = standard_teleportation(channel)
    t = np.zeros((4, 2, 2), dtype=complex)
    for b in (0, 1):
        basis = PureState(np.eye(2)[b])
        rows = _measure_and_correct(
            tensor(basis, spec.resource_state), spec.measured_pair, spec.corrections
        )
        for k, (p, post) in enumerate(rows):
            if post is not None:
                t[k, :, b] = np.sqrt(p) * post.amplitudes
    return t


def mc_haar_average_fidelity(channel: Channel, samples: int, seed: int):
    """Monte Carlo average of direct-teleportation fidelity over Haar inputs.

    The standard protocol runs once per call, on the two basis inputs, to
    give its transfer operators T[k] (see ``_transfer_operators``); each
    sampled input z then scores sum_k |<z|T[k]|z>|^2 in one contraction per
    chunk.  Like the rest of the module it uses no closed form.  The mean is
    the sum of chunk sums over ``samples``; the variance merges each chunk's
    centred sum of squares in fixed chunk order (Chan-Golub-LeVeque), so a
    near-constant fidelity gives a stderr near zero rather than cancellation
    noise.  Returns (mean, stderr).
    """
    sizes = rngmod.chunk_sizes(samples)
    if samples < 100:
        raise ValueError("samples must be >= 100")
    t = _transfer_operators(channel).reshape(4, 4).T
    total = 0.0
    m2 = 0.0
    done = 0
    for size, gen in zip(sizes, rngmod.substreams(seed, len(sizes))):
        z = rngmod.haar_qubits(gen, size)
        # amp[m, k] = <z_m|T[k]|z_m> = sum_ab conj(z_a) z_b T[k, a, b]
        amp = (z.conj()[:, :, None] * z[:, None, :]).reshape(size, 4) @ t
        v = amp.view(np.float64)  # (re, im) pairs: f = sum_k |amp[m, k]|^2
        f = np.einsum("ij,ij->i", v, v)
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
