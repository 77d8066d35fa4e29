"""Protocol execution by exact outcome enumeration or seeded Monte Carlo.

This module is the independent verification oracle for the closed-form
fidelities elsewhere in the package: it runs measure-and-correct protocols
by projecting onto the Bell basis and averaging branch fidelities, with no
reference to any closed form.

Every protocol here has one shape: the sender Bell-measures the one-qubit
input together with the resource's first qubit, and the receivers correct
the resource's other qubits, the output.  The protocol is linear in its
input, so four transfer operators describe it completely: outcome k maps
the input z to the corrected, unnormalised output v_k = T[k] z, with
probability p_k = ||v_k||^2.  A ``ProtocolSpec`` builds its T
(4 x d_out x 2, read-only) once, at construction, in one product of the
resource's amplitudes with the (corrections o Bell bras) map of its
correction set (``states._bell_transfer``).  That map is built once per
correction set and cached, so a spec on a set seen before repeats no work
that depends on the corrections alone.  Every evaluated qubit is scored
against a copy of the input.  An evaluation reads T at call time as a
(4, 2^rest, 2^kept, 2) view, the output qubits split into the unscored
rest and the n_t evaluated ones (a reshape, plus a transpose only when a
rest qubit follows an evaluated one), and contracts it twice:

    v = view @ z,    s = v @ conj(z)^{(x) n_t},

so v_k = T[k] z and s_k = (I_rest (x) <z|^{(x) n_t}) v_k for all four
outcomes at once.  ||v||^2 = sum_k p_k is checked to be 1 within 1e-12,
and the protocol fidelity sum_k w_k, with w_k = ||s_k||^2 (which is
|<z|^{(x) n_t} v_k|^2 when every output qubit is evaluated), is ||s||^2,
one ``vdot``.  No branch is renormalised and no per-branch state is
built.  The Haar Monte Carlo scores every sampled input z as
sum_k |<z|T[k]|z>|^2, a quadratic form in its Bloch vector that, for the
standard protocol, depends on r_z alone.

The protocol Monte Carlo (``mc_protocol_fidelity``) reads no T: it
Bell-measures input (x) resource state by state, corrects each post-state
and scores it with ``states.fidelity``, so it checks the enumeration
through a route that shares no transfer operator with it.

The standard correction table is phi+ -> I, phi- -> Z, psi+ -> X,
psi- -> ZX (apply X, then Z); with this convention every corrected branch
of the standard protocol reproduces the transmitted state without even a
global phase on a maximally entangled channel.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import rng as rngmod
from .ensembles import Channel, channel_state
from .states import (
    LocalOperator,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    _Frozen,
    _bell_transfer,
    _kept_qubits,
    _n_qubits_for,
    _qubit_index,
    _read_only,
    _require_pure,
    apply_local,
    bell_measure,
    fidelity,
    partial_trace,
    tensor,
)

# read-only, like the Paulis it holds
STANDARD_CORRECTION_MATRICES = MappingProxyType(
    {
        1: PAULI_I,
        2: PAULI_Z,
        3: PAULI_X,
        4: _read_only(PAULI_Z @ PAULI_X),
    }
)
_STANDARD_CORRECTIONS = {k: LocalOperator((m,)) for k, m in STANDARD_CORRECTION_MATRICES.items()}
# (sigma_0, sigma_x, sigma_y, sigma_z), the basis ``_bloch_quadratic_form`` reads
_PAULIS = _read_only(np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]))


class ProtocolSpec(_Frozen):
    """A measure-and-correct protocol over ``input (x) resource_state``.

    The input is one qubit, Bell-measured together with the resource's first
    qubit.  ``resource_state`` must be a PureState.  ``corrections`` maps
    each Bell outcome 1..4 to a LocalOperator on the resource's other
    qubits, the output (a bare matrix is rejected with an error naming its
    outcome), and is stored as a read-only copy, so the corrections cannot
    drift from the ``transfer`` built from them; ``evaluation_targets``
    selects the output qubits (integers, indexed from 0) that are scored,
    all of them or a proper subset, given in any order and stored in
    ascending order.  Each evaluated qubit is scored against the input
    itself, so the order of ``evaluation_targets`` cannot change a score.
    ``transfer`` holds the read-only transfer operators T (4 x d_out x 2),
    built at construction.
    """

    _fields = ("resource_state", "corrections", "evaluation_targets")

    def __init__(
        self,
        resource_state: PureState,
        corrections: Mapping[int, LocalOperator],
        evaluation_targets: tuple,
    ):
        missing = {1, 2, 3, 4} - set(corrections)
        if missing:
            raise ValueError(f"corrections missing for outcomes {sorted(missing)}")
        corrections = MappingProxyType(dict(corrections))
        _require_pure(resource_state, "resource")
        t = _bell_transfer(resource_state, corrections)
        n = _n_qubits_for(t.shape[1])
        targets = tuple(sorted(map(_qubit_index, evaluation_targets)))
        # every output qubit once is valid, so only other targets are checked
        if targets != tuple(range(n)):
            if len(set(targets)) != len(targets):
                raise ValueError(
                    f"dimension mismatch: evaluation_targets {targets} repeat a qubit"
                )
            _kept_qubits(targets, n)
        object.__setattr__(self, "resource_state", resource_state)
        object.__setattr__(self, "corrections", corrections)
        object.__setattr__(self, "evaluation_targets", targets)
        object.__setattr__(self, "transfer", t)


def standard_teleportation(channel: Channel) -> ProtocolSpec:
    """One-qubit teleportation through ``channel`` with standard corrections."""
    return ProtocolSpec(
        resource_state=channel_state(channel),
        corrections=_STANDARD_CORRECTIONS,
        evaluation_targets=(0,),
    )


def _scored(spec: ProtocolSpec, z: np.ndarray):
    """(v, s) for the one-qubit input amplitudes ``z``: v_k = T[k] z and its score s_k.

    ``spec.transfer`` is read as a (4, 2^rest, 2^kept, 2) view, the output
    qubits split into the unscored rest and the evaluation targets (a
    reshape, plus a transpose when a rest qubit follows a target), so
    v = view @ z is (4, 2^rest, 2^kept) and s_k = (I_rest (x) <z|^{(x) n_t}) v_k
    is (4, 2^rest).  The input's total probability ||v||^2 must be 1 within
    1e-12.
    """
    if z.shape != (2,):
        raise ValueError("protocol input must be a single qubit")
    t = spec.transfer
    kept = spec.evaluation_targets
    d = t.shape[1]
    n = d.bit_length() - 1
    if kept[0] != n - len(kept):
        rest = [q for q in range(n) if q not in kept]
        axes = [q + 1 for q in rest + list(kept)]
        t = t.reshape([4] + [2] * n + [2]).transpose([0] + axes + [n + 1])
    v = t.reshape(4, d >> len(kept), 1 << len(kept), 2) @ z
    total = float(np.vdot(v, v).real)
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"state not normalized: sum |a|^2 = {total!r}")
    bra = z.conj()
    copies = bra
    for _ in kept[1:]:
        copies = (copies[:, None] * bra).ravel()
    return v, v @ copies


def enumerate_protocol_fidelity(input_state: PureState, spec: ProtocolSpec) -> float:
    """Exact protocol fidelity: sum of probability * branch fidelity, i.e. sum_k w_k.

    Each of the spec's evaluated qubits is scored against the input: the
    received qubit against psi for teleportation, the clone pair against
    psi (x) psi for ``telecloning.protocol_spec``.  The sum is taken in one
    step as ||s||^2 over the scores s of ``_scored``.
    """
    _require_pure(input_state, "protocol input")
    s = _scored(spec, input_state.amplitudes)[1]
    return float(np.vdot(s, s).real)


def mc_protocol_fidelity(input_state: PureState, spec: ProtocolSpec, samples: int, seed: int):
    """Monte Carlo protocol fidelity: (mean, standard error).

    This route reads no transfer operator, so it checks
    ``enumerate_protocol_fidelity`` independently: it Bell-measures
    ``input (x) resource`` on qubits (0, 1) with ``states.bell_measure``,
    applies ``spec.corrections[k]`` to each post-state and scores it with
    ``states.fidelity`` against the input copied onto each of the spec's
    evaluation targets, after a ``partial_trace`` onto them when they are a
    proper subset; a branch with no post-state scores 0.  The ``samples``
    Bell outcomes are then drawn from their distribution in one multinomial
    draw from the seeded generator, so results are bit-identical for a given
    (samples, seed) pair.
    """
    _, gen = rngmod._chunks(samples, seed)
    _require_pure(input_state, "protocol input")
    if input_state.n_qubits != 1:
        raise ValueError("protocol input must be a single qubit")
    kept = spec.evaluation_targets
    full = kept == tuple(range(spec.resource_state.n_qubits - 1))
    target = input_state
    for _ in kept[1:]:
        target = tensor(target, input_state)
    outcomes = bell_measure(tensor(input_state, spec.resource_state), (0, 1))
    probs = np.array([o.probability for o in outcomes])
    fids = np.zeros(4)
    for k, o in enumerate(outcomes):
        if o.post_state is not None:
            out = apply_local(spec.corrections[o.index], o.post_state)
            fids[k] = fidelity(target, out if full else partial_trace(out, kept))
    probs = probs / probs.sum()
    counts = gen.multinomial(samples, probs)
    mean = float(counts @ fids) / samples
    var = float(counts @ (fids - mean) ** 2) / max(samples - 1, 1)
    return mean, float(np.sqrt(var / samples))


def _bloch_quadratic_form(t: np.ndarray) -> np.ndarray:
    """Real symmetric 4x4 Q with sum_k |<z|T[k]|z>|^2 = (1, r) Q (1, r)^T.

    For a pure input with Bloch vector r, |z><z| = (I + r . sigma)/2, so
    <z|T[k]|z> = C[k] . (1, r) with C[k, j] = Tr(T[k] sigma_j)/2 (sigma_0 = I),
    and Q = Re(C^dagger C).
    """
    c = 0.5 * np.einsum("kab,jba->kj", t, _PAULIS)
    return (c.conj().T @ c).real


def mc_haar_average_fidelity(channel: Channel, samples: int, seed: int):
    """Monte Carlo average of direct-teleportation fidelity over Haar inputs.

    The transfer operators T[k] of ``standard_teleportation(channel)`` are
    rewritten in the Pauli basis as the quadratic form of
    ``_bloch_quadratic_form``, so an input with Bloch vector r scores
    f = sum_k |<z|T[k]|z>|^2 = (1, r) Q (1, r)^T; no amplitude vector is
    built.  Through the Schmidt-diagonal channel every corrected T[k] is
    diagonal, so Q has exactly zero x and y rows and columns and
    f = q00 + r_z (2 q03 + q33 r_z) does not depend on the azimuth: only r_z
    is drawn.  A guard checks before any draw that those transverse entries
    are exactly zero and raises RuntimeError if one is not, so no dependence
    on r_x or r_y is dropped.  Like the rest of the module it uses no closed
    form for the average, and at alpha = 0 it scores the same r_z draws as
    ``classical.unknown_state_classical_fidelity``.

    The draws come from ``rng._half_z_chunks`` as w = u - 1/2 = -r_z/2, so
    f = a0 + a1 w + a2 w^2 with a0 = q00, a1 = -4 q03 and a2 = 4 q33.  w is
    uniform on [-1/2, 1/2), so the odd part a1 w has Haar mean exactly 0 for
    any form, and only the even part a0 + a2 w^2 is summed: it has the same
    Haar mean and no larger variance (for the standard protocol q03 is
    rounding residue anyway), so q03 is not read.  Each chunk is squared in
    place and reduced to S2 = sum w^2 and S4 = sum w^4; the mean is
    (a0 N + a2 S2)/N, summed chunk by chunk, and the centred sum of squares
    is a2^2 (S4 - S2^2/N), in which a0 drops out exactly, so a near-constant
    fidelity gives a stderr near zero rather than cancellation noise.
    Returns (mean, stderr).
    """
    chunks = rngmod._half_z_chunks(samples, seed)
    q = _bloch_quadratic_form(standard_teleportation(channel).transfer)
    if np.any(q[1:3]) or np.any(q[:, 1:3]):
        raise RuntimeError("the Haar score depends on r_x or r_y, but only r_z is drawn")
    a0, a2 = float(q[0, 0]), 4.0 * float(q[3, 3])
    total = s2 = s4 = 0.0
    for w in chunks:
        w2 = np.square(w, out=w)
        sum_w2 = float(w2.sum())
        total += a0 * w2.size + a2 * sum_w2
        s2 += sum_w2
        s4 += float(np.einsum("i,i", w2, w2))
    mean = total / samples
    var = a2 * a2 * (s4 - s2 * s2 / samples) / max(samples - 1, 1)
    return mean, float(np.sqrt(var / samples))
