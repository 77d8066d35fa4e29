"""The verify checks fail when the code they guard is corrupted.

The checks over theta and alpha grids read the broadcast sweeps: each states
its invariant on the columns of one sweep call, so it builds no ensemble or
channel per grid point.  Every registered check has a row in the table
below: corrupting the production code behind the check makes
``teleportsim verify`` exit 1 with that check among its FAIL lines.
"""

import time
from collections import Counter

import numpy as np
import pytest

from teleportsim import channels, classical, cli, ensembles, protocols, states, telecloning
from teleportsim import verification as v
from teleportsim.cli import RunConfig
from test_states import random_local_unitary

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
        original = cls.__init__

        def counted(self, value, original=original):
            built.append(self)
            original(self, value)

        monkeypatch.setattr(cls, "__init__", counted)
    ok, _ = SWEPT_CHECKS[name](CFG)
    assert ok
    assert len(built) <= 1


def _shift_first(fn, delta):
    """``fn`` with ``delta(theta, ...)`` added to the first of the values it returns."""

    def shifted(*args):
        f, rest = fn(*args)
        return f + delta(*args), rest

    return shifted


def _mistyped_bell_bras(k, bras=states._BELL_BRAS):
    """``bras`` with bra ``k`` mistyped as phi+: no longer a complete basis.

    ``states._BELL_BRAS`` is what ``bell_measure`` reads; ``states._BELL_BRAS_JB``,
    the same bras indexed (k, j, b) and built at import, is what the cached
    transfer maps of the protocol enumeration read.
    """
    bras = bras.copy()
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


def _poles_only(f=v._pauli_eigenstates):
    """The six-state set cut to |0> and |1>: no longer a 3-design."""
    return f()[:2]


def _endpoints_only(theta, alpha, f_cl):
    """``channels._optimum`` without its stationary candidate: alpha and 1/sqrt(2) only."""
    a = np.broadcast_to(alpha, np.broadcast(theta, alpha).shape)
    candidates = np.array([a, np.full_like(a, channels._INV_SQRT2)])
    values = channels._combined(theta, alpha, candidates, f_cl)
    return values.max(axis=0), np.choose(values.argmax(axis=0), candidates)


def _mutations():
    """{check: [(label, module, attr, mutant)]}; each test id is ``{check}-{label}``.

    A row that is its check's only one patching its attribute is labelled
    with the attribute, and rows that share an attribute get labels of their
    own, so adding a row renames no existing test.
    """
    cl_opt, ch_opt, tc_opt = classical._optimum, channels._optimum, telecloning._optimum
    fp, unamb, biased = classical._fuchs_peres, classical._unambiguous, classical._biased_guess
    pur, trace = channels._purification, v.partial_trace
    matrix, ent = telecloning._fidelity_matrix, telecloning._entanglement
    overlaps = telecloning._pair_overlaps
    kron, entropy, chunks = states._kron_chain, ensembles.spectrum_entropy, ensembles._chunks
    paulis = {k: op.factors[0] for k, op in protocols._STANDARD_CORRECTIONS.items()}
    swapped = {2: 3, 3: 2}
    return {
        "core-norm-preservation": [
            # every LocalOperator's matrix scaled off unitary by 1e-9
            ("_kron_chain", states, "_kron_chain", lambda fs, f=kron: f(fs) * (1 + 1e-9)),
        ],
        "core-partial-trace-consistency": [
            ("density-route", v, "partial_trace", _swapped_three_qubit_trace),
            ("amplitude-route", v, "partial_trace", _transposed_pure_trace),
        ],
        "core-entropy-bounds": [
            ("von_neumann_entropy", v, "von_neumann_entropy", _diagonal_entropy),
        ],
        "core-bell-completeness": [
            ("_BELL_BRAS", states, "_BELL_BRAS", _mistyped_bell_bras(1)),  # phi- as phi+
        ],
        "ensemble-entropy-decreasing": [
            ("spectrum_entropy", ensembles, "spectrum_entropy", lambda p: 0.5),
        ],
        "ensemble-x-symmetry": [
            # psi1 twice, so the mixture is no longer X-symmetric
            ("make_states", ensembles, "make_states",
             lambda ens, f=ensembles.make_states: (f(ens)[0],) * 2),
        ],
        "ensemble-overlap-grid": [
            ("overlap", v, "overlap", lambda ens, f=v.overlap: f(ens) + 1e-9),
        ],
        "classical-strategy-ordering": [
            ("_optimum", classical, "_optimum", _shift_first(cl_opt, lambda t: -1e-9)),
            ("_unambiguous", classical, "_unambiguous", lambda t, f=unamb: f(t) + 1e-9),
        ],
        "classical-optimized-symmetry": [
            ("_optimum", classical, "_optimum", _shift_first(cl_opt, lambda t: 1e-8 * t)),
        ],
        "classical-fuchs-peres-coincidence": [
            ("_fuchs_peres", classical, "_fuchs_peres", lambda t, kappa, f=fp: f(t, kappa) + 1e-8),
        ],
        "classical-evaluator-consistency": [
            ("_biased_guess", classical, "_biased_guess", lambda t, g, f=biased: f(t, g) + 1e-9),
        ],
        "classical-guess-stationarity": [
            ("_guess_angle", classical, "_guess_angle",
             _shift_first(classical._guess_angle, lambda t: 1e-3)),
        ],
        "classical-unknown-state-mc": [
            # the basis measurement sends both poles exactly: mean 1, not 2/3
            ("_pauli_eigenstates", v, "_pauli_eigenstates", _poles_only),
        ],
        "channel-horodecki-identity": [
            ("singlet_fraction", channels, "singlet_fraction",
             lambda c, f=channels.singlet_fraction: f(c) + 1e-6),
        ],
        "channel-combined-dominance": [
            ("shifted-optimum", channels, "_optimum",
             _shift_first(ch_opt, lambda t, a, f_cl: -1e-9)),
            # still dominates both endpoints, but misses the interior optimum
            ("endpoints-only", channels, "_optimum", _endpoints_only),
        ],
        "channel-classical-crossover": [
            ("_direct", channels, "_direct", lambda t, a: np.ones(np.broadcast(t, a).shape)),
        ],
        "channel-endpoint-reductions": [
            ("_purification", channels, "_purification", lambda a, f_cl, f=pur: f(a, f_cl) + 1e-9),
        ],
        "channel-monotonicity": [
            ("_purification_unknown", channels, "_purification_unknown", lambda a: 2.0 / 3.0 - a),
            ("_average_direct", channels, "_average_direct", lambda a: 1.0 - a),
        ],
        "protocol-oracle-agreement": [
            ("_direct", channels, "_direct", lambda t, a, f=channels._direct: f(t, a) + 1e-9),
            # phi- as phi+ in the bras the transfer maps read; the Monte Carlo's
            # Bell measurement reads _BELL_BRAS and is untouched
            ("_BELL_BRAS_JB", states, "_BELL_BRAS_JB",
             _mistyped_bell_bras(1, states._BELL_BRAS_JB)),
        ],
        "protocol-mc-agreement": [
            # every Bell outcome left uncorrected
            ("apply_local", protocols, "apply_local", lambda op, state: state),
            # the Monte Carlo's Bell measurement only: the enumeration reads
            # _BELL_BRAS_JB, so MC disagrees with both it and the closed form
            ("_BELL_BRAS", states, "_BELL_BRAS", _mistyped_bell_bras(1)),  # phi- as phi+
        ],
        "protocol-haar-average": [
            # teleportation scores 1 at either pole at every alpha: mean 1, not (2/3)(1 + ab)
            ("_pauli_eigenstates", v, "_pauli_eigenstates", _poles_only),
            ("_average_direct", channels, "_average_direct",
             lambda a, f=channels._average_direct: f(a) + 1e-9),
        ],
        "protocol-reproducibility": [
            # the generator seeded from fresh OS entropy instead of the seed
            ("_chunks", ensembles, "_chunks",
             lambda n, seed, f=chunks: (f(n, seed)[0], np.random.default_rng())),
        ],
        "protocol-probability-sanity": [
            ("psi-plus-as-phi-plus", states, "_BELL_BRAS", _mistyped_bell_bras(2)),
            ("phi-minus-as-phi-plus", states, "_BELL_BRAS", _mistyped_bell_bras(1)),
        ],
        "teleclone-universal-values": [
            ("_entanglement", telecloning, "_entanglement",
             lambda a, b, c, f=ent: f(a, b, c) + 1e-8),
            # the constructor does not check the marginals, so this check must
            ("_telecloning_amplitudes", telecloning, "_telecloning_amplitudes",
             _unbalanced_resource),
        ],
        "teleclone-correction-exactness": [
            # outcomes 2 and 3 corrected by each other's Pauli
            ("_CLONE_CORRECTIONS", telecloning, "_CLONE_CORRECTIONS", {
                k: states.LocalOperator.uniform(3, paulis[swapped.get(k, k)]) for k in paulis
            }),
        ],
        "teleclone-clone-symmetry": [
            # clone C left uncorrected
            ("_CLONE_CORRECTIONS", telecloning, "_CLONE_CORRECTIONS", {
                k: states.LocalOperator((m, m, states.PAULI_I)) for k, m in paulis.items()
            }),
        ],
        "teleclone-faithfulness": [
            # both overlaps scaled by 1 + 1e-9, the closed form by about 1 + 2e-9
            ("_pair_overlaps", telecloning, "_pair_overlaps",
             lambda t, u, f=overlaps: tuple(m * (1 + 1e-9) for m in f(t, u))),
        ],
        "teleclone-two-state-sweep": [
            ("_entanglement", telecloning, "_entanglement",
             lambda a, b, c, f=ent: f(a, b, c) + 1e-9),
            # the u^T M u route the closed-form optimum is checked against
            ("_fidelity_matrix", telecloning, "_fidelity_matrix",
             lambda t, f=matrix: f(t) * (1 + 1e-9)),
            # the closed-form F off u^T M u at the same coefficients
            ("_optimum", telecloning, "_optimum", lambda t, f=tc_opt: (*f(t)[:3], f(t)[3] + 1e-9)),
        ],
        "discrepancy-source-entropy": [
            ("spectrum_entropy", ensembles, "spectrum_entropy", lambda p, f=entropy: f(p) + 1e-8),
        ],
        "discrepancy-joint-clones-matrix": [
            # the ancilla and clone B instead of the clone pair
            ("partial_trace", v, "partial_trace", lambda rho, keep: trace(rho, (1, 2))),
        ],
    }


@pytest.mark.parametrize("seed", [0, 1, 42, 7919])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_local_unitary_matches_a_per_factor_qr_bit_for_bit(n, seed):
    # one stacked QR and phase fix gives what one QR per 2x2 factor gives,
    # and leaves the generator where the per-factor draws leave it
    rng_got, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = v._random_local_unitary(rng_got, n)
    ref = random_local_unitary(rng_ref, n)
    assert got.n_qubits == n
    for a, b in zip(got.factors, ref.factors):
        assert a.tobytes() == b.tobytes()
    assert got.matrix().tobytes() == ref.matrix().tobytes()
    assert rng_got.random() == rng_ref.random()


def test_every_registered_check_has_a_corruption_row():
    assert list(_mutations()) == [name for name, _ in v.CHECKS]
    # one label per row, so no test id is numbered by its row's position
    for rows in _mutations().values():
        labels = [label for label, *_ in rows]
        assert len(set(labels)) == len(labels), labels


# Six rows pin their whole fail set.  Four corrupt what no other check
# catches, so verify fails exactly their own check; the six-state set is read
# by the two Haar-average checks and nothing else.  The other rows' fail
# sets are not pinned, because some cross-catches sit at their tolerance and
# may flip with libm rounding.
HAAR_AVERAGE_CHECKS = {"classical-unknown-state-mc", "protocol-haar-average"}
PINNED_FAIL_SETS = {
    "channel-horodecki-identity-singlet_fraction": {"channel-horodecki-identity"},
    "teleclone-faithfulness-_pair_overlaps": {"teleclone-faithfulness"},
    "teleclone-two-state-sweep-_fidelity_matrix": {"teleclone-two-state-sweep"},
    "teleclone-two-state-sweep-_optimum": {"teleclone-two-state-sweep"},
    "classical-unknown-state-mc-_pauli_eigenstates": HAAR_AVERAGE_CHECKS,
    "protocol-haar-average-_pauli_eigenstates": HAAR_AVERAGE_CHECKS,
}


@pytest.fixture
def fresh_transfer_maps():
    """No cached transfer map before or after: a map cached earlier would hide a
    patched ``_BELL_BRAS_JB``, and one built from it must not reach a later test."""
    states._transfer_map.cache_clear()
    yield
    states._transfer_map.cache_clear()


@pytest.mark.parametrize(
    "name,label,module,attr,mutant",
    [(name, *m) for name, ms in _mutations().items() for m in ms],
    ids=[f"{name}-{m[0]}" for name, ms in _mutations().items() for m in ms],
)
def test_verify_fails_when_the_kernel_it_reads_is_corrupted(
    name, label, module, attr, mutant, fresh_transfer_maps, monkeypatch, tmp_path, capsys
):
    # through the command users run, at its default settings; that every
    # check passes there is TestVerifyCommand's test in test_cli.py
    monkeypatch.setattr(module, attr, mutant)
    out = tmp_path / "verify.txt"
    assert cli.main(["verify", "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    *lines, summary = out.read_text().splitlines()
    failed = {line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")}
    assert name in failed
    # k/30 with k < 30, as name failed
    assert len(lines) == 30 and summary == f"{30 - len(failed)}/30 checks passed"
    if f"{name}-{label}" in PINNED_FAIL_SETS:
        assert failed == PINNED_FAIL_SETS[f"{name}-{label}"]


def test_one_run_builds_each_transfer_map_once(fresh_transfer_maps, monkeypatch):
    # every spec verify builds reads one of three module-constant correction
    # sets, the guess, standard and clone set, so a cold run builds three
    # maps and a second run in the same process builds none
    built = set()
    build = protocols._bell_transfer

    def recorded(resource, corrections):
        # the operators themselves, held here, so no id is reused
        built.add(tuple(corrections[k] for k in (1, 2, 3, 4)))
        return build(resource, corrections)

    monkeypatch.setattr(protocols, "_bell_transfer", recorded)
    assert all(result.passed for result in v.run_checks(CFG))
    assert states._transfer_map.cache_info().misses == len(built) == 3
    assert all(result.passed for result in v.run_checks(CFG))
    assert states._transfer_map.cache_info().misses == len(built) == 3


def test_run_checks_records_each_check_time_as_data(monkeypatch):
    def slow(cfg):
        time.sleep(0.02)
        return True, "slept"

    def crash(cfg):
        raise ValueError("boom")

    monkeypatch.setattr(v, "CHECKS", (("slow", slow), ("crash", crash)))
    slow_result, crash_result = v.run_checks(CFG)
    assert slow_result.elapsed_s >= 0.02
    assert 0.0 < crash_result.elapsed_s < slow_result.elapsed_s
    # the time is not part of the verdict
    assert crash_result == v.CheckResult("crash", False, "raised ValueError: boom")


def test_only_the_partial_trace_check_builds_three_or_four_qubit_density_matrices(monkeypatch):
    # every other reduction starts from amplitudes, so no 8x8 or 16x16 is built
    running, built = [None], []
    init = states.DensityMatrix.__init__

    def counted(self, elements):
        init(self, elements)
        built.append((running[0], self.elements.shape[0]))

    def entered(name, fn):
        def check(cfg):
            running[0] = name
            return fn(cfg)

        return check

    monkeypatch.setattr(states.DensityMatrix, "__init__", counted)
    monkeypatch.setattr(v, "CHECKS", tuple((name, entered(name, fn)) for name, fn in v.CHECKS))
    assert all(result.passed for result in v.run_checks(CFG))
    # only the density route of core-partial-trace-consistency: ten 4-qubit
    # states, each traced to 3 qubits
    large = Counter((name, dim) for name, dim in built if dim >= 8)
    assert large == {
        ("core-partial-trace-consistency", 16): 10,
        ("core-partial-trace-consistency", 8): 10,
    }
