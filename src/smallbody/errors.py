"""Exception hierarchy shared across the package."""


class SmallBodyError(Exception):
    """Base class for all package errors."""


class SingularEvaluationError(SmallBodyError):
    """Kernel evaluated at coincident (or node-coincident) points."""


class InvariantViolation(SmallBodyError):
    """A physical invariant (passivity, spacing, size regime) is broken."""


class SolverFailure(SmallBodyError):
    """A linear solve did not converge.

    ``spectral_radius`` estimates rho(A - I) for the GMRES solve of A x = b
    that stopped early.
    """

    def __init__(self, message, spectral_radius=None):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class InfeasibleDesign(SmallBodyError):
    """A requested particle density cannot be realized under d >= 10a."""
