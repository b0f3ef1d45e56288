"""Numerical toolkit for quantum reference-frame asymmetry.

Measures how well a quantum state stands in for a missing reference frame:
group twirling for finite groups, U(1) and collective SU(2); the asymmetry
A_G(rho) = S(G(rho)) - S(rho) and its identity with the relative-entropy
distance to the invariant states; the unital-idempotent channel calculus
behind that identity; many-copy scaling laws; Holevo-bound estimation
experiments; and dephasing-based upper bounds on the relative entropy of
entanglement.
"""

__version__ = "0.1.0"

from .asymmetry import (
    AsymmetryResult,
    ClosedFormInapplicableError,
    TwirlOperation,
    g_asymmetry,
    max_su2_asymmetry_value,
    max_u1_asymmetry_value,
    maximal_asymmetry_state,
    su2_pure_asymmetry_closed_form,
    u1_asymmetry_closed_form,
)
from .channels import (
    BlockProjection,
    ChannelPreconditionError,
    ImageFixReport,
    KrausChannel,
    conditional_expectation_channel,
    dephasing_channel,
    image_fix_equivalence_check,
    pinching_channel,
    random_unital_idempotent_channel,
    relative_entropy_to_image,
    twirl_channel,
)
from .entanglement import (
    BipartiteState,
    BoundReport,
    bell_diagonal_state,
    dephasing_upper_bound,
    hashing_lower_bound,
    lifted_dephasing_channel,
    optimize_dephasing_bound,
    optimize_two_qubit_bound,
    optimize_two_qubit_bounds,
    two_qubit_parameterized_unitary,
)
from .estimation import (
    DiscretePOVM,
    HolevoReport,
    OrbitEnsemble,
    coarse_grain_povm,
    holevo_bound_check,
    mutual_information,
    orbit_ensemble,
    random_povm,
    square_root_measurement,
)
from .groups import (
    ChargeGrading,
    CollectiveSpinRep,
    FiniteGroupRep,
    RepresentationError,
    ValidationReport,
    build_collective_spin_rep,
    charge_grading_from_json,
    charge_grading_to_json,
    cyclic_phase_rep,
    finite_group_from_unitaries,
    finite_rep_from_json,
    finite_rep_to_json,
    hamming_weight_grading,
    multiplicity_dimension,
    quaternion_rep,
    symmetric_subspace_dimension,
    validate_finite_rep,
    z2_phase_flip_rep,
)
from .sampling import (
    haar_unitary,
    random_density_operator,
    random_hermitian,
    random_pure_state,
)
from .scaling import (
    GAUSSIAN_CONSTANT_BITS,
    GAUSSIAN_CONSTANT_HALF,
    FiniteGroupBoundReport,
    LieGroupBound,
    NumberDistributionProfile,
    RelinearizationReport,
    ScalingReport,
    Su2BoundReport,
    WitnessReport,
    convolve_copies,
    finite_group_bound_check,
    gaussian_entropy_model,
    lie_group_log_bound,
    number_variance,
    regularized_asymmetry_table,
    relinearized_monotone,
    su2_bound_check,
    u1_ncopy_asymmetry,
    variance_discontinuity_witness,
    variance_witness_pair,
)
from .states import (
    DensityOperator,
    FramenessError,
    InvalidDistributionError,
    InvalidStateError,
    ProbabilityDistribution,
    PureState,
    ResourceLimitError,
    ShapeMismatchError,
    binary_entropy,
    density_from_json,
    density_to_json,
    max_dim,
    partial_trace,
    pure_state_from_json,
    pure_state_to_json,
    relative_entropy,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)
