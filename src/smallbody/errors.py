"""Exception hierarchy shared across the package."""


class SmallBodyError(Exception):
    """Base class for all package errors."""


class SingularEvaluationError(SmallBodyError):
    """Kernel evaluated at coincident (or node-coincident) points."""


class InvariantViolation(SmallBodyError):
    """A physical invariant (passivity, spacing, size regime) is broken."""


class SolverFailure(SmallBodyError):
    """A linear solve did not converge or is ill-conditioned.

    ``residual`` is the relative residual a solve reached; ``spectral_radius``
    estimates rho(A - I) for a GMRES solve of A x = b that stopped early.
    """

    def __init__(self, message, residual=None, spectral_radius=None):
        super().__init__(message)
        self.residual = residual
        self.spectral_radius = spectral_radius


class InfeasibleDesign(SmallBodyError):
    """A requested particle density cannot be realized under d >= 10a."""
