"""One-shot entropic criteria for memory loss in closed quantum dynamics."""

from .assignment import (
    AbsenceReport,
    AssignmentResult,
    coupling_for_delta,
    delta_best_match,
    delta_phi,
    delta_phi_exhaustive,
    memory_bound,
    overlap_matrix,
    spec_delta_phi,
    verify_absence,
)
from .channels import Channel, ChoiState, depolarizing, iid_threshold
from .decoupling import (
    ConcentrationResult,
    ConverseResult,
    DecouplingBound,
    DecouplingReport,
    avg_output_distance,
    concentration_check,
    converse_check,
    convexity_gap,
    decoupling_bound,
    decoupling_report,
)
from .dynamics import (
    CriterionVerdict,
    HamiltonianSpec,
    LightconeScan,
    RecurrenceScan,
    dimension_certificates,
    env_criteria,
    lightcone_scan,
    recurrence_scan,
    spec_from_dict,
    spec_to_dict,
    system_criteria,
    system_criteria_scan,
    tau_SE,
    tilde_tau_SE,
)
from .entropy import (
    SdpResult,
    chain_bounds,
    cq_ansatz_optimum,
    h_max,
    h_max_smooth,
    h_min,
    h_min_cond,
    h_min_cond_cq,
    h_min_smooth,
    min_entropy_sdp,
    shannon,
    von_neumann,
)
from .linalg import (
    DensityMatrix,
    Evolver,
    SubsystemLayout,
    fidelity,
    haar_state,
    haar_states,
    haar_unitary,
    kron,
    max_entangled,
    maximally_mixed,
    partial_trace,
    purified_distance,
    random_density,
    trace_distance,
    trace_distances,
    trace_norm,
)

__version__ = "0.1.0"
