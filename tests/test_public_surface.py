"""The names ``teleportsim`` re-exports, pinned, and the benchmark's use of them.

The surface is the four sweeps, the scalars the README and the benchmark
call, the protocol engine, and the oracles verify calls.  A deletion that
removes a name the benchmark's workloads or gates read fails here, not
first in a benchmark run.  The public constants, and every array a public
object holds, are read-only.  Every object the package builds is immutable:
the value types compare and hash by their fields, the array-holding types by
identity, and importing the CLI loads no ``dataclasses``.
"""

import functools
import re
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import teleportsim
from teleportsim import (
    Channel,
    ChannelStrategyReport,
    CloneCoeffs,
    PureState,
    StrategyReport,
    TwoStateEnsemble,
)
from teleportsim.cli import RunConfig
from teleportsim.verification import CheckResult
from test_cli import _cli_in_new_process

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


def _one_of_each():
    """{class name: (instance, one of its fields)} for every immutable type, public or not."""
    tp = teleportsim
    ens = tp.TwoStateEnsemble(0.7)
    psi, _ = tp.make_states(ens)
    system = tp.TelecloningSystem(tp.universal_coeffs())
    return {
        "PureState": (psi, "amplitudes"),
        "DensityMatrix": (psi.density(), "spectrum"),
        "LocalOperator": (tp.LocalOperator((tp.PAULI_X,)), "factors"),
        "BellOutcome": (tp.bell_measure(tp.tensor(psi, psi), (0, 1))[0], "probability"),
        "TwoStateEnsemble": (ens, "theta"),
        "Channel": (tp.Channel(0.3), "alpha"),
        "ClassicalStrategy": (tp.projective_guess_strategy(ens, 0.2), "guesses"),
        "StrategyReport": (tp.fidelity_optimized(ens), "fidelity"),
        "ChannelStrategyReport": (tp.optimize_combined(ens, tp.Channel(0.3)), "alpha_prime"),
        "ProtocolSpec": (tp.standard_teleportation(tp.Channel(0.3)), "transfer"),
        "CloneCoeffs": (tp.universal_coeffs(), "b"),
        "TelecloningSystem": (system, "state"),
        "TelecloneResult": (tp.teleclone(psi, system), "branches"),
        "CheckResult": (CheckResult("a", True, "ok", 0.5), "elapsed_s"),
        "RunConfig": (RunConfig(command="verify"), "seed"),
    }


def test_one_of_each_covers_every_public_class():
    public_classes = {name for name in PUBLIC if isinstance(getattr(teleportsim, name), type)}
    assert public_classes | {"CheckResult", "RunConfig"} == set(_one_of_each())


@pytest.mark.parametrize("name", sorted(_one_of_each()))
def test_fields_cannot_be_assigned_or_deleted(name):
    obj, field = _one_of_each()[name]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, field) is before


# each value type with two argument tuples that differ in one field
VALUE_TYPES = {
    TwoStateEnsemble: ((0.7,), (0.8,)),
    Channel: ((0.3,), (0.4,)),
    CloneCoeffs: ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    StrategyReport: ((0.9, 0.1, 0.2), (0.9, 0.1, 0.3)),
    ChannelStrategyReport: ((0.9, 0.2), (0.8, 0.2)),
    RunConfig: (("verify",), ("verify", 181, 101, 1_000_000, 7)),
    CheckResult: (("a", True, "ok"), ("a", False, "ok")),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_types_compare_and_hash_by_their_fields(cls):
    args, other = VALUE_TYPES[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert a != cls(*other)
    assert len({a, b, cls(*other)}) == 2


def test_check_result_ignores_its_time():
    fast, slow = CheckResult("a", True, "ok", 0.1), CheckResult("a", True, "ok", 2.5)
    assert fast == slow and hash(fast) == hash(slow)
    assert repr(slow) == "CheckResult(name='a', passed=True, detail='ok', elapsed_s=2.5)"


def test_value_types_of_different_classes_are_not_equal():
    assert TwoStateEnsemble(0.3) != Channel(0.3)
    assert TwoStateEnsemble(0.3) != (0.3,)


def test_array_holding_types_compare_by_identity():
    amplitudes = np.array([0.6, 0.8])
    a, b = PureState(amplitudes), PureState(amplitudes)
    assert a == a and a != b
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert len({a, b}) == 2
    twins = _one_of_each()
    for name, (obj, _) in _one_of_each().items():
        if type(obj) not in VALUE_TYPES:
            assert obj == obj and obj != twins[name][0], name


def test_repr_shows_the_fields():
    assert repr(Channel(0.3)) == "Channel(alpha=0.3)"
    assert repr(CloneCoeffs(1.0, 0.0, 0.0)) == "CloneCoeffs(a=1.0, b=0.0, c=0.0)"
    rho = teleportsim.DensityMatrix(np.diag([0.25, 0.75]))
    assert repr(rho) == f"DensityMatrix(elements={rho.elements!r})"


def test_importing_the_cli_loads_no_dataclasses():
    # numpy's own imports are the baseline, so a numpy that loads dataclasses
    # itself does not fail this
    added = _cli_in_new_process(
        "-c",
        "import sys, numpy; before = set(sys.modules); import teleportsim.cli; "
        "print(*sorted(set(sys.modules) - before))",
    ).split()
    assert "teleportsim.cli" in added
    assert "dataclasses" not in added
