"""Many-body acoustic scattering by small particles.

Solves wave scattering by clouds of small impedance or acoustically hard
particles in an inhomogeneous background, the continuum equations those
clouds converge to as the particles shrink and multiply, and the inverse
recipe that realizes a prescribed refraction coefficient by choosing the
particle density and boundary impedances.
"""

from .convergence import ScaleStudy, counting_measure_check, run_hard_study, run_impedance_study
from .designer import (
    DesignResult,
    DesignSpec,
    choose_h_N,
    realize,
    target_to_potential,
    verify_design,
)
from .directions import DirectionGrid, FarField
from .errors import (
    InfeasibleDesign,
    InvariantViolation,
    SingularEvaluationError,
    SmallBodyError,
    SolverFailure,
)
from .foldy_impedance import (
    FoldySolveResult,
    charge_from_effective_field,
    evaluate_field,
    far_field,
    solve_cloud,
)
from .foldy_neumann import ball_polarizability
from .limit_solver import (
    LimitProblem,
    hard_born_approximation,
    limit_field_at,
    limiting_amplitude,
    potential_from_h_N,
    solve_limit,
)
from .medium import (
    BackgroundMedium,
    ComplexField,
    Grid,
    background_green,
    background_green_grad,
    free_kernel,
    incident_field,
    lemma_bounds_check,
)
from .particles import (
    CountingMeasure,
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
    validate_cloud,
)

__version__ = "0.1.0"
