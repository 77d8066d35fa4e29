"""Property tests of the telecloning global fidelity over theta in [0, pi/2].

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleportsim.ensembles import TwoStateEnsemble, make_states
from teleportsim.states import fidelity, partial_trace, tensor
from teleportsim.telecloning import (
    CloneCoeffs,
    apply_cloner,
    global_clone_fidelity,
    optimal_global_fidelity,
    optimize_coeffs,
)

HALF_PI = np.pi / 2
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)

thetas = st.floats(0.0, HALF_PI)
angles = st.floats(0.0, HALF_PI)


def direct_global_fidelity(ens, coeffs):
    """The same average through the direct cloner map, with no teleportation."""
    total = 0.0
    for psi in make_states(ens):
        joint = partial_trace(apply_cloner(psi, coeffs).density(), (1, 2))
        total += 0.5 * fidelity(tensor(psi, psi), joint)
    return total


@PROPERTY_SETTINGS
@given(theta=thetas)
@example(theta=0.0)
@example(theta=np.nextafter(HALF_PI, 0.0))
@example(theta=HALF_PI)
def test_optimized_fidelity_between_universal_and_optimal_cloner(theta):
    ens = TwoStateEnsemble(theta)
    with np.errstate(divide="raise", invalid="raise"):
        f = global_clone_fidelity(ens, optimize_coeffs(ens))
    assert np.isfinite(f)
    assert 2 / 3 - 1e-12 <= f <= optimal_global_fidelity(ens) + 1e-12


@PROPERTY_SETTINGS
@given(theta=thetas, phi=angles, chi=angles)
@example(theta=0.0, phi=0.0, chi=0.0)
@example(theta=np.nextafter(HALF_PI, 0.0), phi=HALF_PI, chi=0.0)
@example(theta=HALF_PI, phi=HALF_PI, chi=HALF_PI)
@example(theta=HALF_PI, phi=np.pi / 3, chi=np.arccos(np.sqrt(2 / 3)))  # (1/2, 1/2, 1/2)
def test_any_coefficients_match_direct_cloner(theta, phi, chi):
    # (a, sqrt(2) b, c) is a unit vector in the nonnegative octant
    coeffs = CloneCoeffs(
        np.cos(phi), np.sin(phi) * np.cos(chi) / np.sqrt(2), np.sin(phi) * np.sin(chi)
    )
    ens = TwoStateEnsemble(theta)
    with np.errstate(divide="raise", invalid="raise"):
        f = global_clone_fidelity(ens, coeffs)
    assert 0.0 <= f <= 1.0
    assert abs(f - direct_global_fidelity(ens, coeffs)) < 1e-12
