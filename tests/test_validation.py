"""Validating constructors reject NaN and infinite entries.

Each check is written ``if not deviation <= tolerance: raise``, so a NaN
deviation, for which every comparison is false, fails it too.  Matrices
and factors are checked finite before any arithmetic, so an inf entry
raises ``ValueError`` with no ``RuntimeWarning`` from inf - inf first (a
warning is an error in this suite).
"""

import numpy as np
import pytest

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
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_reject_non_finite_entries(name, bad):
    with pytest.raises(ValueError):
        CONSTRUCTORS[name](bad)
