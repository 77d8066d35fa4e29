"""Simulation and verification of qubit teleportation for a two-state ensemble.

The package covers classical (no-entanglement) transmission strategies,
teleportation through a partially entangled channel, protocol verification
by exact outcome enumeration and seeded Monte Carlo, and symmetric
telecloning with ensemble-optimized coefficients.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelStrategyReport,
    average_fidelity_direct,
    channel_sweep,
    combined_fidelity,
    direct_fidelity_state,
    horodecki_optimal_fidelity,
    optimize_combined,
    purification_fidelity_two_state,
    two_state_direct_fidelity,
    unknown_state_sweep,
)
from .classical import (
    StrategyReport,
    classical_sweep,
    fidelity_biased_guess,
    fidelity_optimized,
    unknown_state_classical_fidelity,
)
from .ensembles import (
    Channel,
    TwoStateEnsemble,
    ensemble_density,
    make_states,
    overlap,
    source_entropy,
)
from .protocols import (
    ProtocolSpec,
    enumerate_protocol_fidelity,
    mc_haar_average_fidelity,
    mc_protocol_fidelity,
    standard_teleportation,
)
from .states import (
    BellOutcome,
    DensityMatrix,
    LocalOperator,
    PureState,
    apply_local,
    bell_measure,
    fidelity,
    partial_trace,
    spectrum_entropy,
    tensor,
    von_neumann_entropy,
)
from .telecloning import (
    CloneCoeffs,
    TelecloneResult,
    TelecloningSystem,
    alice_receivers_entanglement,
    apply_cloner,
    global_clone_fidelity,
    optimal_global_fidelity,
    optimize_coeffs,
    teleclone,
    telecloning_sweep,
    universal_coeffs,
)
