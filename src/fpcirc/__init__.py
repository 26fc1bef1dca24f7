"""Steady circulation control for overdamped diffusions in a box.

Design time-dependent controls that steer the density of a reflected
drift-diffusion process back to its uncontrolled stationary state while
imposing a prescribed steady probability-flux vorticity.  The pipeline:
spectral reduction onto the generator's leading eigenfunctions, adjoint
gradient optimization of the reduced dynamics, then validation against
a conservative finite-volume solve and a particle ensemble.
"""

__version__ = "0.1.0"

from .fields import (
    Grid2D,
    QuadratureWeights,
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    integrate,
    laplacian,
    make_grid,
    perp_gradient,
    read_scalar_csv,
    trapezoid_weights,
    weighted_inner,
    weighted_norm,
    write_scalar_csv,
)
from .problem import (
    CostWeights,
    ExperimentConfig,
    GaussianComponent,
    InitialDensitySpec,
    QuadraticPotential,
    ReferenceProblem,
    ShapeFunctions,
    TabulatedPotential,
    build_initial_density,
    desired_vorticity,
    reference_problem,
    reference_shapes,
    tabulated_shapes,
    validate_shape_bcs,
)
from .operators import (
    DiscreteGenerator,
    EigensolverError,
    SpectralBasis,
    assemble_control_operators,
    assemble_generator,
    eigenbasis,
    stationary_density,
)
from .reduction import (
    ReducedModel,
    assemble_reduced_model,
    flux_from_coefficients,
    project,
    reconstruct,
    reduced_rhs,
    vorticity_from_coefficients,
)
from .control import (
    ControlTrajectory,
    LineSearchError,
    OptimizationReport,
    RolloutBlowupError,
    check_gradient,
    multi_start,
    objective,
    objective_and_gradient,
    optimize,
    rollout_state,
    stationarity_residual,
)
from .pde import (
    ControlledOperator,
    DiagnosticsSeries,
    ImplicitStepper,
    IntegrationResult,
    compute_flux,
    compute_vorticity,
    controlled_operator,
    integrate_fpe,
)
from .particles import (
    AngularMomentumStat,
    FluxEstimate,
    ParticleEnsemble,
    VelocityRecord,
    angular_momentum,
    draw_noise,
    em_step,
    estimate_flux,
    histogram_tv_distance,
    sample_initial,
    simulate,
)

__all__ = [
    "__version__",
    "Grid2D", "QuadratureWeights", "ScalarField", "VectorField",
    "curl", "divergence", "gradient", "integrate", "laplacian",
    "make_grid", "perp_gradient", "read_scalar_csv",
    "trapezoid_weights", "weighted_inner", "weighted_norm",
    "write_scalar_csv",
    "CostWeights", "ExperimentConfig", "GaussianComponent",
    "InitialDensitySpec", "QuadraticPotential", "ReferenceProblem",
    "ShapeFunctions", "TabulatedPotential", "build_initial_density",
    "desired_vorticity", "reference_problem", "reference_shapes",
    "tabulated_shapes", "validate_shape_bcs",
    "DiscreteGenerator", "EigensolverError", "SpectralBasis",
    "assemble_control_operators", "assemble_generator", "eigenbasis",
    "stationary_density",
    "ReducedModel", "assemble_reduced_model", "flux_from_coefficients",
    "project", "reconstruct", "reduced_rhs", "vorticity_from_coefficients",
    "ControlTrajectory", "LineSearchError", "OptimizationReport",
    "RolloutBlowupError", "check_gradient", "multi_start", "objective",
    "objective_and_gradient", "optimize", "rollout_state",
    "stationarity_residual",
    "ControlledOperator", "DiagnosticsSeries", "ImplicitStepper",
    "IntegrationResult", "compute_flux", "compute_vorticity",
    "controlled_operator", "integrate_fpe",
    "AngularMomentumStat", "FluxEstimate", "ParticleEnsemble",
    "VelocityRecord", "angular_momentum", "draw_noise", "em_step", "estimate_flux",
    "histogram_tv_distance", "sample_initial", "simulate",
]
