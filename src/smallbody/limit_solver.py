"""Continuum-limit solvers for dense clouds of small particles.

Impedance clouds homogenize into a second-kind volume equation

    u = u0 - integral_D G(x,y) p(y) u(y) dy,
    p = 4 pi c1^2 N h / (c2 (1 + h)),

solved here by Nystrom collocation.  Hard clouds homogenize into an
integro-differential equation whose unknown enters through Lap U and grad U;
it is solved by fixed-point iteration in the perturbative (small nu) regime,
with the derivative terms formed by centered finite differences on the grid.
Because nu vanishes on a collar near the boundary, the gradient-kernel term
is evaluated in its integrated-by-parts form: the iteration applies the G
kernel to  Lap U * nu + div(beta grad U nu),  whose first step from u0 is the
one-shot Born correction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .directions import DirectionGrid, FarField
from .errors import InvariantViolation, SolverFailure
from .medium import BackgroundMedium, ComplexField, _node_field, _solve_checked, _unit
from .particles import BALL_SHAPE_CONSTANTS

logger = logging.getLogger(__name__)

COLLAR_CELLS = 2
HARD_MAX_ITER = 80
HARD_TOL = 1e-12


def potential_from_h_N(h_field, N_field, shape_constants=BALL_SHAPE_CONSTANTS) -> np.ndarray:
    """Homogenized potential p = 4 pi c1^2 N h / (c2 (1 + h)) node-wise."""
    c1, c2, _ = shape_constants
    h = np.asarray(h_field, dtype=complex).reshape(-1)
    n = np.asarray(N_field, dtype=float).reshape(-1)
    h, n = np.broadcast_arrays(h, n)
    active = n > 0
    if np.any(np.abs(1.0 + h[active]) < 1e-14):
        raise InvariantViolation("h = -1 where N > 0: singular potential")
    out = np.zeros(h.shape, dtype=complex)
    out[active] = 4.0 * np.pi * c1 ** 2 / c2 * n[active] * h[active] / (1.0 + h[active])
    return out


@dataclass
class LimitProblem:
    """Continuum problem: either a potential p or a hard pair (nu, beta)."""

    medium: BackgroundMedium
    p: np.ndarray | None = None
    nu: np.ndarray | None = None
    beta_field: np.ndarray | None = None

    def __post_init__(self):
        size = self.medium.grid.size
        if (self.p is None) == (self.nu is None):
            raise InvariantViolation("provide exactly one of p (impedance) or nu (hard)")
        if self.p is not None:
            self.p = _node_field(self.p, size, complex)
        else:
            self.nu = _node_field(self.nu, size, float)
            if np.any(self.nu < 0):
                raise InvariantViolation("nu must be nonnegative")
            if self.beta_field is None:
                raise InvariantViolation("hard problem requires a polarizability field")
            b = np.asarray(self.beta_field, dtype=float)
            if b.shape not in ((3, 3), (size, 3, 3)):
                raise InvariantViolation("beta field must be (3,3) or per-node (N,3,3)")
            self.beta_field = b
            self._check_collar()

    @property
    def is_hard(self) -> bool:
        return self.nu is not None

    def _check_collar(self):
        shape = self.medium.grid.shape
        nu = self.nu.reshape(shape)
        c = COLLAR_CELLS
        interior = np.zeros(shape, dtype=bool)
        interior[c:-c or None, c:-c or None, c:-c or None] = True
        if np.any(nu[~interior] != 0.0):
            raise InvariantViolation(
                f"nu must vanish on a {c}-cell collar near the box boundary")


# ---------------------------------------------------------------------------
# impedance limit
# ---------------------------------------------------------------------------

def solve_impedance_limit(problem: LimitProblem, alpha) -> ComplexField:
    """Grid solution of u = u0 - integral G p u (second-kind Nystrom solve).

    GMRES on I + Kw diag(q0 + p) with the FFT-applied kernel; the returned
    field carries the relative residual and the GMRES iteration count.
    """
    if problem.is_hard:
        raise InvariantViolation("impedance limit requires a potential p")
    medium = problem.medium
    alpha = _unit(alpha)
    total = medium.q0 + problem.p
    # with the shared quadrature, the G-kernel equation collapses to the
    # flat-kernel system (I + Kw diag(q0 + p)) u = plane wave
    plane = np.exp(1j * medium.k * medium.grid.nodes @ alpha)

    def matvec(v):
        return v + medium._apply_weighted_kernel(total * v)

    u, resid, iterations = _solve_checked(matvec, plane, "impedance limit")
    return ComplexField(points=medium.grid.nodes, values=u, incident_direction=alpha,
                        residual=resid, iterations=iterations)


def _impedance_density(problem: LimitProblem, field: ComplexField) -> np.ndarray:
    """Grid sources -(q0 + p) u delta^3 of the limit field; no background solve."""
    return -((problem.medium.q0 + problem.p) * field.values * problem.medium.weight)


def impedance_limit_field_at(problem: LimitProblem, field: ComplexField, points) -> ComplexField:
    """Evaluate the limit solution off the grid via its volume representation."""
    alpha = field.incident_direction
    values = problem.medium.radiate(points, alpha, _impedance_density(problem, field))
    return ComplexField(points=points, values=values, incident_direction=alpha)


def limiting_amplitude(problem: LimitProblem, field: ComplexField,
                       directions: DirectionGrid | None = None) -> FarField:
    """A(beta,alpha) = A0(beta,alpha) - (1/4pi) integral u0(y,-beta) p(y) u(y) dy."""
    if problem.is_hard:
        raise InvariantViolation("limiting_amplitude applies to the impedance limit")
    grid = directions or DirectionGrid()
    values = problem.medium.amplitude(grid.vectors(), _impedance_density(problem, field))
    return FarField(grid=grid, values=values, alpha=field.incident_direction)


# ---------------------------------------------------------------------------
# hard limit (fixed point)
# ---------------------------------------------------------------------------

def _fd_gradient(values, shape, delta):
    """Centered differences with periodic wrap; valid wherever nu vanishes
    on the boundary collar, which kills every wrapped stencil."""
    v = values.reshape(shape)
    comps = [(np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) / (2.0 * delta)
             for ax in range(3)]
    return np.stack([c.reshape(-1) for c in comps])


def _fd_laplacian(values, shape, delta):
    v = values.reshape(shape)
    out = np.zeros_like(v)
    for ax in range(3):
        out += np.roll(v, 1, axis=ax) + np.roll(v, -1, axis=ax) - 2.0 * v
    return (out / delta ** 2).reshape(-1)


def _fd_divergence(comps, shape, delta):
    out = np.zeros(shape, dtype=complex)
    for ax in range(3):
        c = comps[ax].reshape(shape)
        out += (np.roll(c, -1, axis=ax) - np.roll(c, 1, axis=ax)) / (2.0 * delta)
    return out.reshape(-1)


def _beta_contract(beta_field, grad):
    """flux_p = sum_q beta_pq grad_q, for constant or per-node beta."""
    if beta_field.ndim == 2:
        return np.einsum("pq,qn->pn", beta_field, grad)
    return np.einsum("npq,qn->pn", beta_field, grad)


def _hard_source(problem: LimitProblem, values: np.ndarray) -> np.ndarray:
    """Lap U * nu + div(beta grad U nu) on the grid nodes."""
    grid = problem.medium.grid
    lap = _fd_laplacian(values, grid.shape, grid.delta)
    grad = _fd_gradient(values, grid.shape, grid.delta)
    flux = _beta_contract(problem.beta_field, grad) * problem.nu[None, :]
    return lap * problem.nu + _fd_divergence(flux, grid.shape, grid.delta)


def solve_hard_limit(problem: LimitProblem, alpha, max_iter: int = HARD_MAX_ITER,
                     tol: float = HARD_TOL) -> ComplexField:
    """Fixed-point solve of the hard-cloud limit equation on the grid.

    Iterates U <- u0 + G[Lap U nu + div(beta grad U nu)]; the first step from
    u0 is exactly the one-shot Born correction.  Raises when the successive
    change grows three times in a row (non-contraction: nu too large).
    """
    if not problem.is_hard:
        raise InvariantViolation("solve_hard_limit requires a hard problem")
    medium = problem.medium
    alpha = _unit(alpha)
    u0 = medium.u0_grid(alpha)
    u = u0.copy()
    prev_change = np.inf
    growth = 0
    for it in range(max_iter):
        source = _hard_source(problem, u)
        u_next = u0 + medium.green_potential_grid(source)
        change = np.linalg.norm(u_next - u) / max(np.linalg.norm(u), 1e-300)
        u = u_next
        if change <= tol:
            logger.debug("hard limit converged in %d iterations (change %.2e)", it + 1, change)
            return ComplexField(points=medium.grid.nodes, values=u, incident_direction=alpha,
                                residual=float(change), iterations=it + 1)
        if change > prev_change:
            growth += 1
            if growth >= 3:
                raise SolverFailure(
                    f"hard-limit iteration is non-contractive (change {change:.2e}); "
                    "reduce nu")
        else:
            growth = 0
        prev_change = change
    raise SolverFailure(f"hard limit did not reach tol {tol:.1e} in {max_iter} iterations",
                        residual=prev_change)


def hard_born_approximation(problem: LimitProblem, alpha) -> ComplexField:
    """One-shot correction from the unperturbed field:

    U = u0 + integral G [Lap u0 nu + sum_pq d/dy_p (du0/dy_q beta_pq nu)] dy,
    with the same grid derivatives and quadrature as the fixed-point step.
    """
    if not problem.is_hard:
        raise InvariantViolation("hard_born_approximation requires a hard problem")
    medium = problem.medium
    alpha = _unit(alpha)
    u0 = medium.u0_grid(alpha)
    values = u0 + medium.green_potential_grid(_hard_source(problem, u0))
    return ComplexField(points=medium.grid.nodes, values=values, incident_direction=alpha)


def hard_limit_field_at(problem: LimitProblem, field: ComplexField, points) -> ComplexField:
    """Evaluate the hard-limit solution off the grid via its representation:
    U = u0 + G f radiates from the grid sources (f - q0 (u0 + G f)) delta^3."""
    medium = problem.medium
    alpha = field.incident_direction
    source = _hard_source(problem, field.values)
    if not medium.is_free:
        source = source - medium.q0 * (medium.u0_grid(alpha) + medium.green_potential_grid(source))
    values = medium.radiate(points, alpha, source * medium.weight)
    return ComplexField(points=points, values=values, incident_direction=alpha)
