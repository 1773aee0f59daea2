"""Gradient Gibbs random surfaces: sampling, cluster swapping, verification."""

__version__ = "0.1.0"

from .cluster_swap import (
    DerivedCoords,
    SwappableSet,
    Triplet,
    cluster_swap_at,
    edge_coupling_constant,
    from_derived,
    shifted_analysis,
    swappable_set,
    swendsen_wang_update,
    synchronized_domination_coupling,
    to_derived,
)
from .errors import GradsurfError
from .feasibility import (
    FeasibilityGraph,
    IncrementBounds,
    SlopePolytope,
    allowed_slope_polytope,
    extend_boundary,
    extend_boundary_min,
    ground_state_energy,
    increment_bounds,
    shortest_distances,
    torus_slope_feasible,
)
from .heights import HeightConfig, TorusInfo
from .observables import (
    EmpiricalGradientMeasure,
    SigmaEstimate,
    VarianceProfile,
    convexity_margin,
    empirical_gradient_measure,
    fkg_check,
    height_offset_estimate,
    log_concavity_check,
    log_partition_exact,
    sigma_estimate,
    variance_profile,
)
from .potential import (
    PeriodicPotential,
    PiecewiseLinearPotential,
    QuadraticPotential,
    TablePotential,
    WedgePotential,
    convex_interpolation,
    domino_potential,
    edge_energy,
    hamiltonian_interior,
    lipschitz_truncate,
    sos_abs_potential,
    validate_sap,
    wedge_normalize,
)
from .rng import RngStream
from .sampler import (
    cftp_sample,
    cftp_samples,
    checkerboard_order,
    heat_bath_sweep,
    random_round,
    site_conditional,
    torus_sample,
)
from .tilings import (
    DominoMatching,
    count_tilings_bruteforce,
    count_tilings_kasteleyn,
    height_to_matching,
    matching_to_height,
    symmetric_difference_cycles,
    uniform_tiling_sample,
    uniform_tiling_samples,
)
