"""The names ``teleportsim`` re-exports, pinned, and the benchmark's use of them.

The surface is the four sweeps, the scalars the README and the benchmark
call, the protocol engine, and the oracles verify calls.  A deletion that
removes a name the benchmark's workloads or gates read fails here, not
first in a benchmark run.  The public constants, and every array a public
object holds, are read-only.
"""

import functools
import re
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import teleportsim

PUBLIC = frozenset(
    {
        # states
        "BELL_VECTORS",
        "BellOutcome",
        "DensityMatrix",
        "LocalOperator",
        "PAULI_I",
        "PAULI_X",
        "PAULI_Y",
        "PAULI_Z",
        "PureState",
        "apply_local",
        "bell_measure",
        "fidelity",
        "partial_trace",
        "spectrum_entropy",
        "tensor",
        "von_neumann_entropy",
        # ensembles
        "Channel",
        "TwoStateEnsemble",
        "channel_state",
        "ensemble_density",
        "make_states",
        "overlap",
        "source_entropy",
        # classical
        "ClassicalStrategy",
        "StrategyReport",
        "classical_fidelity",
        "classical_sweep",
        "fidelity_biased_guess",
        "fidelity_optimized",
        "min_error_probability",
        "optimal_guess_angle",
        "projective_guess_strategy",
        "unknown_state_classical_fidelity",
        # channels
        "ChannelStrategyReport",
        "average_fidelity_direct",
        "channel_sweep",
        "combined_fidelity",
        "direct_fidelity_state",
        "horodecki_optimal_fidelity",
        "optimize_combined",
        "purification_fidelity_two_state",
        "singlet_fraction",
        "two_state_direct_fidelity",
        "unknown_state_sweep",
        # protocols
        "ProtocolSpec",
        "STANDARD_CORRECTION_MATRICES",
        "enumerate_protocol_fidelity",
        "mc_haar_average_fidelity",
        "mc_protocol_fidelity",
        "standard_teleportation",
        # telecloning
        "CloneCoeffs",
        "TelecloneResult",
        "TelecloningSystem",
        "alice_receivers_entanglement",
        "apply_cloner",
        "global_clone_fidelity",
        "optimal_global_fidelity",
        "optimize_coeffs",
        "teleclone",
        "telecloning_sweep",
        "universal_coeffs",
    }
)

BENCHMARK_FILES = ("workloads.py", "gates.py")


def test_reexports_exactly_the_agreed_names():
    exported = {
        name
        for name, value in vars(teleportsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_every_name_the_benchmark_reads_is_public():
    root = Path(__file__).resolve().parents[1] / "perfbench"
    used = set()
    for name in BENCHMARK_FILES:
        used |= set(re.findall(r"\btp\.([A-Za-z_]\w*)", (root / name).read_text()))
    assert used, "no tp.<name> found: the benchmark no longer imports teleportsim as tp"
    assert used <= PUBLIC, sorted(used - PUBLIC)


def test_public_constants_are_read_only():
    # every protocol reads them: a write to PAULI_Z once made
    # mc_haar_average_fidelity read 1.157, a fidelity above 1
    tp = teleportsim
    corrections = tp.STANDARD_CORRECTION_MATRICES
    paulis = (tp.PAULI_I, tp.PAULI_X, tp.PAULI_Y, tp.PAULI_Z)
    for a in (*paulis, tp.BELL_VECTORS, *corrections.values()):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tp.PAULI_Z[1, 1] = 0.5
    with pytest.raises(TypeError):
        corrections[1] = tp.PAULI_Z
    with pytest.raises(TypeError):
        del corrections[4]
    assert np.array_equal(tp.PAULI_Z, np.diag([1, -1]))
    assert sorted(corrections) == [1, 2, 3, 4]


def _held_arrays(obj, path, seen):
    """(path, array) for every ndarray reachable from ``obj``.

    The walk goes through tuples, lists, mapping values and the instance
    attributes of package objects, with every ``cached_property`` built
    first so that lazily held arrays are reached too.
    """
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, x in enumerate(obj):
            yield from _held_arrays(x, f"{path}[{i}]", seen)
    elif isinstance(obj, Mapping):
        for k, x in obj.items():
            yield from _held_arrays(x, f"{path}[{k!r}]", seen)
    elif type(obj).__module__.startswith("teleportsim."):
        cls = type(obj)
        for name in dir(cls):
            if isinstance(getattr(cls, name), functools.cached_property):
                getattr(obj, name)
        for k, x in vars(obj).items():
            yield from _held_arrays(x, f"{path}.{k}", seen)


def test_no_reachable_public_array_is_writable():
    # one rule behind every setflags(write=False) in the package: a caller
    # can change no array a constant or a public object holds, nor the
    # array it views; the objects are built from arrays the caller owns
    tp = teleportsim
    ens = tp.TwoStateEnsemble(0.7)
    psi, _ = tp.make_states(ens)
    system = tp.TelecloningSystem(tp.universal_coeffs())
    objects = {
        "PureState": tp.PureState(np.array([0.6, 0.8])),
        "DensityMatrix": tp.DensityMatrix(np.diag([0.25, 0.75])),
        "LocalOperator": tp.LocalOperator((np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))),
        "ClassicalStrategy": tp.ClassicalStrategy(
            povm=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), guesses=tp.make_states(ens)
        ),
        "ProtocolSpec": tp.standard_teleportation(tp.Channel(0.3)),
        "TelecloningSystem": system,
        "TelecloneResult": tp.teleclone(psi, system),
        "BellOutcome": tp.bell_measure(tp.tensor(psi, tp.channel_state(tp.Channel(0.3))), (0, 1)),
    }
    constants = {name: getattr(tp, name) for name in sorted(PUBLIC)}
    seen = set()
    found = {}
    for root, obj in {**constants, **objects}.items():
        for path, a in _held_arrays(obj, root, seen):
            found.setdefault(root, []).append(path)
            base = a
            while base is not None:
                assert not base.flags.writeable, path
                base = base.base
    expected = {"PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z", "BELL_VECTORS", *objects}
    assert expected <= set(found), sorted(expected - set(found))
    assert len(found["STANDARD_CORRECTION_MATRICES"]) == 1  # Z X; the rest are the Paulis
