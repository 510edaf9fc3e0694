"""Optimal 1-to-2 mirror phase-covariant qubit cloning.

Closed-form machines and fidelities, score-operator construction with an
independent quadrature route, optimality certificates, a fixed-point
channel optimizer, and two three-qubit circuit realizations.
"""

from .qcore import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_vector,
    fidelity_pure,
    haar_random_state,
    ket_from_angles,
    partial_trace,
)
from .fidelity import (
    PriorDistribution,
    average_fidelity,
    average_fidelity_direct,
    r_theta,
    score_operator,
    score_operator_quadrature,
)
from .cloners import (
    FIDELITY_MINIMUM_ANGLE,
    MpccParams,
    check_choi,
    choi_from_weights,
    clone,
    fidelity_for_amplitude,
    mpcc_choi,
    mpcc_clone_bloch,
    mpcc_fidelity,
    mpcc_isometry_apply,
    mpcc_params,
    pcc_clone_bloch,
    pcc_fidelity,
    uc_choi,
    uc_clone_bloch,
    uc_fidelity,
)
from .optimality import (
    OptimalityCertificate,
    OptimizeResult,
    certificate,
    optimize_batch,
    optimize_map,
)
from .circuits import (
    Circuit,
    Gate,
    circuit_matrix,
    circuit_mpcc_v1,
    circuit_mpcc_v2,
    decompose_ccr,
    eqneighbor_hamiltonian,
    eqneighbor_propagator,
    equal_up_to_global_phase,
    gate_matrix,
    interaction_time,
    parse_circuit,
    propagator_coefficients,
    serialize_circuit,
)

__version__ = "0.1.0"
