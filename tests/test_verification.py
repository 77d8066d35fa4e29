"""The verify checks fail when the code they guard is corrupted.

The checks over theta and alpha grids read the broadcast sweeps: each states
its invariant on the columns of one sweep call, so it builds no ensemble or
channel per grid point.  Every registered check has a row in the table
below: corrupting the production code behind the check makes it fail.
"""

from collections import Counter

import numpy as np
import pytest

from teleportsim import channels, classical, ensembles, protocols, rng, states, telecloning
from teleportsim import verification as v
from teleportsim.cli import RunConfig

CFG = RunConfig(command="verify")
REGISTRY = dict(v.CHECKS)

SWEPT_CHECKS = {
    "classical-strategy-ordering": v.check_classical_ordering,
    "classical-optimized-symmetry": v.check_classical_symmetry,
    "classical-fuchs-peres-coincidence": v.check_fuchs_peres_coincidence,
    "channel-combined-dominance": v.check_combined_dominance,
    "channel-classical-crossover": v.check_crossover,
    "channel-monotonicity": v.check_monotonicity,
}


def test_swept_checks_are_registered_under_their_names():
    assert len(v.CHECKS) == 30
    for name, fn in SWEPT_CHECKS.items():
        assert REGISTRY[name] is fn


@pytest.mark.parametrize("name", SWEPT_CHECKS)
def test_builds_at_most_one_value_object(name, monkeypatch):
    built = []
    for cls in (ensembles.TwoStateEnsemble, ensembles.Channel):
        original = cls.__post_init__

        def counted(self, original=original):
            built.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    ok, _ = SWEPT_CHECKS[name](CFG)
    assert ok
    assert len(built) <= 1


def _shift_first(fn, delta):
    """``fn`` with ``delta(theta, ...)`` added to the first of the values it returns."""

    def shifted(*args):
        f, rest = fn(*args)
        return f + delta(*args), rest

    return shifted


def _mistyped_bell_bras(k):
    """The Bell bras with bra ``k`` mistyped as phi+: no longer a complete basis."""
    bras = states._BELL_BRAS.copy()
    bras[k] = bras[0]
    return bras


def _diagonal_entropy(rho):
    """Entropy of the diagonal, not the spectrum: no longer unitarily invariant."""
    return float(states.spectrum_entropy(np.diag(rho.elements).real))


def _swapped_three_qubit_trace(rho, keep, f=v.partial_trace):
    """``partial_trace``, except that a 3-qubit result has its first two qubits swapped."""
    out = f(rho, keep)
    if len(keep) != 3:
        return out
    swapped = out.elements.reshape((2,) * 6).transpose(1, 0, 2, 4, 3, 5).reshape(8, 8)
    return states.DensityMatrix(swapped)


def _transposed_pure_trace(state, keep, f=v.partial_trace):
    """``partial_trace``, except that a pure state is reduced as conj(M) M^T, the transpose."""
    if isinstance(state, states.PureState):
        return f(states.PureState(state.amplitudes.conj()), keep)
    return f(state, keep)


def _unbalanced_resource(coeffs):
    """sqrt(0.6)|0>phi0 + sqrt(0.4)|1>phi1: normalised, but its port marginal is diag(0.6, 0.4)."""
    phi0, phi1 = telecloning._phi_pair(coeffs)
    return np.concatenate([np.sqrt(0.6) * phi0, np.sqrt(0.4) * phi1])


def _mutations():
    cl_opt, ch_opt, tc_opt = classical._optimum, channels._optimum, telecloning._optimum
    fp = classical._fuchs_peres
    pur, trace = channels._purification, v.partial_trace
    matrix, ent = telecloning._fidelity_matrix, telecloning._entanglement
    paulis = protocols.STANDARD_CORRECTION_MATRICES
    swapped = {2: 3, 3: 2}
    return {
        "core-norm-preservation": [
            # every LocalOperator's matrix scaled off unitary by 1e-9
            (states, "reduce", lambda f, xs, r=states.reduce: r(f, xs) * (1 + 1e-9)),
        ],
        "core-partial-trace-consistency": [
            (v, "partial_trace", _swapped_three_qubit_trace),  # the density route only
            (v, "partial_trace", _transposed_pure_trace),  # the amplitude route only
        ],
        "core-entropy-bounds": [
            (v, "von_neumann_entropy", _diagonal_entropy),
        ],
        "core-bell-completeness": [
            (states, "_BELL_BRAS", _mistyped_bell_bras(1)),  # phi- as phi+
        ],
        "ensemble-entropy-decreasing": [
            (ensembles, "spectrum_entropy", lambda p: 0.5),
        ],
        "ensemble-x-symmetry": [
            # psi1 twice, so the mixture is no longer X-symmetric
            (ensembles, "make_states", lambda ens, f=ensembles.make_states: (f(ens)[0],) * 2),
        ],
        "ensemble-overlap-grid": [
            (v, "overlap", lambda ens, f=v.overlap: f(ens) + 1e-9),
        ],
        "classical-strategy-ordering": [
            (classical, "_optimum", _shift_first(cl_opt, lambda t: -1e-9)),
            (classical, "_unambiguous", lambda t, f=classical._unambiguous: f(t) + 1e-9),
        ],
        "classical-optimized-symmetry": [
            (classical, "_optimum", _shift_first(cl_opt, lambda t: 1e-8 * t)),
        ],
        "classical-fuchs-peres-coincidence": [
            (classical, "_fuchs_peres", lambda t, kappa, f=fp: f(t, kappa) + 1e-8),
        ],
        "classical-evaluator-consistency": [
            (classical, "_biased_guess", lambda t, g, f=classical._biased_guess: f(t, g) + 1e-9),
        ],
        "classical-guess-stationarity": [
            (classical, "_guess_angle", _shift_first(classical._guess_angle, lambda t: 1e-3)),
        ],
        "classical-unknown-state-mc": [
            # a 1.7e-3 bias, 11 standard errors at verify's default 10^6 samples
            (rng, "haar_bloch_z", lambda gen, n, f=rng.haar_bloch_z: 0.995 * f(gen, n)),
        ],
        "channel-horodecki-identity": [
            (channels, "singlet_fraction", lambda c, f=channels.singlet_fraction: f(c) + 1e-6),
        ],
        "channel-combined-dominance": [
            (channels, "_optimum", _shift_first(ch_opt, lambda t, a, f_cl: -1e-9)),
        ],
        "channel-classical-crossover": [
            (channels, "_direct", lambda t, a: np.ones(np.broadcast(t, a).shape)),
        ],
        "channel-endpoint-reductions": [
            (channels, "_purification", lambda a, f_cl, f=pur: f(a, f_cl) + 1e-9),
        ],
        "channel-monotonicity": [
            (channels, "_purification_unknown", lambda a: 2.0 / 3.0 - a),
            (channels, "_average_direct", lambda a: 1.0 - a),
        ],
        "protocol-oracle-agreement": [
            (channels, "_direct", lambda t, a, f=channels._direct: f(t, a) + 1e-9),
        ],
        "protocol-mc-agreement": [
            # every Bell outcome left uncorrected
            (protocols, "apply_local", lambda op, state: state),
            # enumeration reads the same bras, so only the closed form catches it
            (states, "_BELL_BRAS", _mistyped_bell_bras(1)),  # phi- as phi+
        ],
        "protocol-haar-average": [
            # polar angle drawn uniformly: r_z = cos(theta) piles up at the poles
            (rng, "haar_bloch_z", lambda gen, n: np.cos(np.pi * gen.random(n))),
            # the upper hemisphere only: the score is even in r_z, E[r_z] is not
            (rng, "haar_bloch_z", lambda gen, n: gen.random(n)),
        ],
        "protocol-reproducibility": [
            # the generator seeded from fresh OS entropy instead of the seed
            (rng, "_chunks",
             lambda n, seed, f=rng._chunks: (f(n, seed)[0], np.random.default_rng())),
        ],
        "protocol-probability-sanity": [
            (states, "_BELL_BRAS", _mistyped_bell_bras(2)),  # psi+ as phi+
            (states, "_BELL_BRAS", _mistyped_bell_bras(1)),  # phi- as phi+
        ],
        "teleclone-universal-values": [
            (telecloning, "_entanglement", lambda a, b, c, f=ent: f(a, b, c) + 1e-8),
            # the constructor does not check the marginals, so this check must
            (telecloning, "_telecloning_amplitudes", _unbalanced_resource),
        ],
        "teleclone-correction-exactness": [
            # outcomes 2 and 3 corrected by each other's Pauli
            (telecloning, "_CLONE_CORRECTIONS", {
                k: states.LocalOperator.uniform(3, paulis[swapped.get(k, k)]) for k in paulis
            }),
        ],
        "teleclone-clone-symmetry": [
            # clone C left uncorrected
            (telecloning, "_CLONE_CORRECTIONS", {
                k: states.LocalOperator((m, m, states.PAULI_I)) for k, m in paulis.items()
            }),
        ],
        "teleclone-faithfulness": [
            (telecloning, "_fidelity_matrix", lambda t, f=matrix: f(t) * (1 + 1e-9)),
        ],
        "teleclone-two-state-sweep": [
            (telecloning, "_entanglement", lambda a, b, c, f=ent: f(a, b, c) + 1e-9),
            # the closed-form F off u^T M u at the same coefficients
            (telecloning, "_optimum", lambda t, f=tc_opt: (*f(t)[:3], f(t)[3] + 1e-9)),
        ],
        "discrepancy-source-entropy": [
            (ensembles, "spectrum_entropy", lambda p, f=ensembles.spectrum_entropy: f(p) + 1e-8),
        ],
        "discrepancy-joint-clones-matrix": [
            # the ancilla and clone B instead of the clone pair
            (v, "partial_trace", lambda rho, keep: trace(rho, (1, 2))),
        ],
    }


def test_every_registered_check_has_a_corruption_row():
    assert list(_mutations()) == [name for name, _ in v.CHECKS]


@pytest.mark.parametrize(
    "name,module,attr,mutant",
    [(name, *m) for name, ms in _mutations().items() for m in ms],
    ids=[f"{name}-{m[1]}" for name, ms in _mutations().items() for m in ms],
)
def test_fails_when_the_kernel_it_reads_is_corrupted(name, module, attr, mutant, monkeypatch):
    assert REGISTRY[name](CFG)[0]
    monkeypatch.setattr(module, attr, mutant)
    assert not REGISTRY[name](CFG)[0]


def test_only_the_partial_trace_check_builds_three_or_four_qubit_density_matrices(monkeypatch):
    # every other reduction starts from amplitudes, so no 8x8 or 16x16 is built
    running, built = [None], []
    post_init = states.DensityMatrix.__post_init__

    def counted(self):
        post_init(self)
        built.append((running[0], self.elements.shape[0]))

    def entered(name, fn):
        def check(cfg):
            running[0] = name
            return fn(cfg)

        return check

    monkeypatch.setattr(states.DensityMatrix, "__post_init__", counted)
    monkeypatch.setattr(v, "CHECKS", tuple((name, entered(name, fn)) for name, fn in v.CHECKS))
    assert all(result.passed for result in v.run_checks(CFG))
    # only the density route of core-partial-trace-consistency: ten 4-qubit
    # states, each traced to 3 qubits
    large = Counter((name, dim) for name, dim in built if dim >= 8)
    assert large == {
        ("core-partial-trace-consistency", 16): 10,
        ("core-partial-trace-consistency", 8): 10,
    }
