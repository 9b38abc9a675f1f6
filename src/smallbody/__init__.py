"""Many-body acoustic scattering by small particles.

Solves wave scattering by clouds of small impedance or acoustically hard
particles in an inhomogeneous background, the continuum equations those
clouds converge to as the particles shrink and multiply, and the inverse
recipe that realizes a prescribed refraction coefficient by choosing the
particle density and boundary impedances.
"""

from .convergence import ScaleStudy, run_hard_study, run_impedance_study, verify_design
from .designer import choose_h_N, target_to_potential
from .directions import DirectionGrid, FarField
from .errors import (
    InfeasibleDesign,
    InvariantViolation,
    SingularEvaluationError,
    SmallBodyError,
    SolverFailure,
)
from .foldy_impedance import solve_cloud
from .foldy_neumann import ball_polarizability
from .limit_solver import LimitProblem, potential_from_h_N, solve_limit
from .medium import BackgroundMedium, Grid, Solution, Sources
from .particles import (
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
    validate_cloud,
)

__version__ = "0.1.0"
