"""Constructors and closed forms reject NaN and infinite values, and text, bool or complex scalars.

Each check is written ``if not deviation <= tolerance: raise``, so a NaN
deviation, for which every comparison is false, fails it too.  Matrices
and factors are checked finite before any arithmetic, so an inf entry
raises ``ValueError`` with no ``RuntimeWarning`` from inf - inf first (a
warning is an error in this suite).
"""

import numpy as np
import pytest

from teleportsim.channels import combined_fidelity
from teleportsim.classical import fidelity_biased_guess
from teleportsim.ensembles import Channel, TwoStateEnsemble
from teleportsim.states import DensityMatrix, LocalOperator, PureState
from teleportsim.telecloning import CloneCoeffs

CONSTRUCTORS = {
    "PureState": lambda bad: PureState(np.array([bad, 0.0])),
    "PureState-second-entry": lambda bad: PureState(np.array([1.0, bad])),
    "CloneCoeffs": lambda bad: CloneCoeffs(bad, 0.5, 0.5),
    "CloneCoeffs-b": lambda bad: CloneCoeffs(0.5, bad, 0.5),
    "LocalOperator": lambda bad: LocalOperator((np.array([[bad, 0.0], [0.0, 1.0]]),)),
    "DensityMatrix": lambda bad: DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]])),
    "DensityMatrix-coherence": lambda bad: DensityMatrix(np.array([[0.5, bad], [bad, 0.5]])),
    # scalar arguments of closed forms: a NaN guess angle used to score as NaN
    "combined_fidelity": lambda bad: combined_fidelity(TwoStateEnsemble(0.7), Channel(0.0), bad),
    "fidelity_biased_guess": lambda bad: fidelity_biased_guess(TwoStateEnsemble(0.7), bad),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_reject_non_finite_entries(name, bad):
    with pytest.raises(ValueError):
        CONSTRUCTORS[name](bad)


# each takes one value, at which 0 is valid, so the int and numpy zeros must
# give what 0.0 gives; a bool guess angle used to score as 1 rad
SCALAR_CONSTRUCTORS = {
    "TwoStateEnsemble": TwoStateEnsemble,
    "Channel": Channel,
    "CloneCoeffs-a": lambda x: CloneCoeffs(x, 0.0, 1.0),
    "CloneCoeffs-c": lambda x: CloneCoeffs(1.0, 0.0, x),
    "combined_fidelity-alpha_prime": lambda x: combined_fidelity(
        TwoStateEnsemble(0.7), Channel(0.0), x
    ),
    "fidelity_biased_guess": lambda g: fidelity_biased_guess(TwoStateEnsemble(0.7), g),
}


@pytest.mark.parametrize(
    "bad",
    ["0.5", b"0.5", True, np.True_,
     complex(0.5, 0.3), np.complex128(0.5 + 0.3j), np.complex64(0.5)],
    ids=["str", "bytes", "bool", "numpy-bool", "complex", "numpy-complex128", "numpy-complex64"],
)
@pytest.mark.parametrize("name", sorted(SCALAR_CONSTRUCTORS))
def test_scalar_values_reject_strings_and_bools(name, bad):
    # float() would read each of these as a number, or raise TypeError on a
    # Python complex and drop a numpy complex's imaginary part; the error names the type
    make = SCALAR_CONSTRUCTORS[name]
    with pytest.raises(ValueError, match=f"must be a real number, got {type(bad).__name__} "):
        make(bad)
    for zero in (0, np.int64(0), np.float32(0.0), np.float64(0.0)):
        assert make(zero) == make(0.0)

