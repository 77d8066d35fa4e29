"""Each array sweep against its scalar public functions, point by point.

The fig-* commands take every CSV column in one broadcast call on the whole
grid; the scalar functions take one TwoStateEnsemble, Channel or CloneCoeffs
and call the same closed form, so the two agree exactly.  A column with no
scalar function (the min-error, unambiguous, Fuchs-Peres and unknown-state
purification fidelities) has its value and oracle tests in the module of
its closed form.  The grids are the
commands' defaults and their smallest (two-point) grids, so the edges
theta in {0, pi/2} and alpha in {0, 1/sqrt(2)} are always included.  Every
test runs with numpy's divide and invalid warnings raised, so a masked
branch that still evaluates 0/0 fails.
"""

import numpy as np
import pytest

from teleportsim import (
    Channel,
    CloneCoeffs,
    DensityMatrix,
    TwoStateEnsemble,
    alice_receivers_entanglement,
    average_fidelity_direct,
    channel_sweep,
    classical_sweep,
    fidelity_optimized,
    global_clone_fidelity,
    optimal_global_fidelity,
    optimize_combined,
    optimize_coeffs,
    purification_fidelity_two_state,
    spectrum_entropy,
    telecloning,
    telecloning_sweep,
    two_state_direct_fidelity,
    unknown_state_sweep,
    von_neumann_entropy,
)

THETA_GRIDS = (np.linspace(0, np.pi / 2, 181), np.linspace(0, np.pi / 2, 2))
ALPHA_GRIDS = (np.sqrt(np.linspace(0, 0.5, 101)), np.sqrt(np.linspace(0, 0.5, 2)))
# fig-channel's default pi/4, the theta edges and two interior angles
CHANNEL_THETAS = (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2)


@pytest.fixture(autouse=True)
def raise_on_float_errors():
    with np.errstate(divide="raise", invalid="raise"):
        yield


@pytest.mark.parametrize("grid", THETA_GRIDS, ids=len)
def test_classical_sweep_equals_scalar_functions(grid):
    f_optimized = classical_sweep(grid)[2]
    for k, t in enumerate(grid):
        assert f_optimized[k] == fidelity_optimized(TwoStateEnsemble(t)).fidelity, t


@pytest.mark.parametrize("grid", ALPHA_GRIDS, ids=len)
@pytest.mark.parametrize("theta", CHANNEL_THETAS)
def test_channel_sweep_equals_scalar_functions(theta, grid):
    f_direct, f_purification, f_combined, alpha_prime = channel_sweep(theta, grid)
    ens = TwoStateEnsemble(theta)
    for k, alpha in enumerate(grid):
        c = Channel(alpha)
        report = optimize_combined(ens, c)
        assert f_direct[k] == two_state_direct_fidelity(ens, c)
        assert f_purification[k] == purification_fidelity_two_state(ens, c)
        # the reported alpha' row by row, not only its fidelity
        assert (f_combined[k], alpha_prime[k]) == (report.fidelity, report.alpha_prime)


def test_channel_sweep_broadcasts_over_theta_and_alpha():
    thetas = np.array(CHANNEL_THETAS)
    alphas = ALPHA_GRIDS[0]
    swept = channel_sweep(thetas[:, np.newaxis], alphas)
    for j, t in enumerate(thetas):
        for col, row_sweep in zip(swept, channel_sweep(t, alphas)):
            assert col.shape == (len(thetas), len(alphas))
            assert np.array_equal(col[j], row_sweep)


@pytest.mark.parametrize("grid", ALPHA_GRIDS, ids=len)
def test_unknown_state_sweep_equals_scalar_functions(grid):
    f_direct_avg = unknown_state_sweep(grid)[0]
    for k, alpha in enumerate(grid):
        assert f_direct_avg[k] == average_fidelity_direct(Channel(alpha))


@pytest.mark.parametrize("grid", THETA_GRIDS, ids=len)
def test_telecloning_sweep_equals_scalar_functions(grid):
    a, b, c, f_tc, f_opt, ent = telecloning_sweep(grid)
    for k, t in enumerate(grid):
        ens = TwoStateEnsemble(t)
        coeffs = optimize_coeffs(ens)
        assert (a[k], b[k], c[k]) == (coeffs.a, coeffs.b, coeffs.c), t
        # two formulas by design: the closed-form optimum and u^T M u
        assert abs(f_tc[k] - global_clone_fidelity(ens, coeffs)) <= 1e-14, t
        assert f_opt[k] == optimal_global_fidelity(ens)
        assert ent[k] == alice_receivers_entanglement(coeffs)


def test_sweep_coefficients_need_no_check():
    # the closed-form optimum on a grid one point finer than the --theta-steps
    # cap is nonnegative and on a^2 + 2b^2 + c^2 = 1, so the sweep only
    # rescales it, as CloneCoeffs does, and stays bit-identical to it
    grid = np.linspace(0, np.pi / 2, 100_001)
    a, b, c = telecloning._optimum(grid)[:3]
    assert min(a.min(), b.min(), c.min()) >= 0.0
    assert np.abs(a * a + 2 * b * b + c * c - 1.0).max() <= 1e-12
    a, b, c = telecloning_sweep(grid)[:3]
    for k in range(0, grid.size, 1000):
        coeffs = optimize_coeffs(TwoStateEnsemble(grid[k]))
        assert (a[k], b[k], c[k]) == (coeffs.a, coeffs.b, coeffs.c), grid[k]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classical_sweep([0.1, -0.1]), r"theta must lie in \[0, pi/2\], got -0.1"),
        (lambda: telecloning_sweep(np.nan), r"theta must lie in \[0, pi/2\], got nan"),
        (lambda: channel_sweep(2.0, [0.1]), r"theta must lie in \[0, pi/2\], got 2.0"),
        (lambda: channel_sweep(0.3, [0.1, 0.8]), r"alpha must lie in \[0, 1/sqrt\(2\)\], got 0.8"),
        (lambda: unknown_state_sweep([-1e-9]), r"alpha must lie in \[0, 1/sqrt\(2\)\], got -1e-09"),
    ],
)
def test_sweeps_check_the_grid_as_the_dataclasses_do(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sweeps_clip_the_grid_as_the_dataclasses_do():
    # within 1e-12 above the range is accepted and clipped, as one value is
    theta = np.pi / 2 + 1e-13
    assert classical_sweep(theta)[2] == fidelity_optimized(TwoStateEnsemble(theta)).fidelity
    alpha = np.sqrt(0.5)  # one ulp above 1/sqrt(2)
    assert unknown_state_sweep(alpha)[0] == average_fidelity_direct(Channel(alpha))


def test_spectrum_entropy_matches_von_neumann_entropy():
    rng = np.random.default_rng(5)
    spectra = rng.dirichlet(np.ones(4), size=20)
    spectra[:5, 0] = 0.0
    spectra[5:10, 1] = 1e-13  # below the cutoff: counts as 0
    spectra /= spectra.sum(axis=1, keepdims=True)
    swept = spectrum_entropy(spectra)
    assert swept.shape == (20,)
    for w, s in zip(spectra, swept):
        assert abs(s - von_neumann_entropy(DensityMatrix(np.diag(w)))) <= 1e-12
    assert spectrum_entropy([1.0, 0.0]) == 0.0
    assert spectrum_entropy([0.5, 0.5]) == 1.0


def test_entanglement_builds_no_density_matrix(monkeypatch):
    built = []
    init = DensityMatrix.__init__
    monkeypatch.setattr(
        DensityMatrix, "__init__", lambda self, elements: (built.append(self), init(self, elements))
    )
    value = alice_receivers_entanglement(CloneCoeffs(np.sqrt(2 / 3), np.sqrt(1 / 6), 0.0))
    assert abs(value - np.log2(3.0)) <= 1e-12
    assert built == []
