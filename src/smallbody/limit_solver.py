"""Continuum-limit solvers for dense clouds of small particles.

Impedance clouds homogenize into a second-kind volume equation

    u = u0 - integral_D G(x,y) p(y) u(y) dy,
    p = 4 pi c1^2 N h / (c2 (1 + h)),

and hard clouds into an integro-differential one,

    U = u0 + integral_D G(x,y) [Lap U nu + div(beta grad U nu)](y) dy,

whose derivative terms are centered finite differences on the grid.  Because
nu vanishes on a collar near the boundary, the gradient-kernel term is taken
in this integrated-by-parts form.  On the shared Nystrom grid, G is
(I + Kw diag q0)^-1 Kw and u0 is (I + Kw diag q0)^-1 of the plane wave, so
both equations are one second-kind system for the node values,

    v + Kw src(v) = exp(ik alpha.x),
    src(v) = (q0 + p) v                                 (potential p),
    src(v) = q0 v - [Lap v nu + div(beta grad v nu)]    (hard pair),

solved by GMRES with the FFT-applied kernel.  The solution radiates from the
grid density -src(v) delta^3 through the free kernel: no background solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import DirectionGrid, FarField
from .errors import InvariantViolation
from .medium import BackgroundMedium, ComplexField, _node_field, _solve_checked, _unit
from .particles import BALL_SHAPE_CONSTANTS, CountingMeasure

COLLAR_CELLS = 2


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
    """Continuum problem: either a potential p or a hard pair (nu, beta).

    nu obeys the bound of the clouds that realize it (CountingMeasure,
    per volume): nonnegative, with (nu/c3)^(1/3) <= 0.1.
    """

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
            CountingMeasure(mode="per_volume", density=self.nu)
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

    def source(self, values) -> np.ndarray:
        """src(v) of the grid system v + Kw src(v) = plane wave, at the nodes."""
        if self.is_hard:
            return self.medium.q0 * values - _hard_source(self, values)
        return (self.medium.q0 + self.p) * values


# ---------------------------------------------------------------------------
# both limits
# ---------------------------------------------------------------------------

def solve_limit(problem: LimitProblem, alpha) -> ComplexField:
    """Grid solution of the limit equation: GMRES on v + Kw src(v) = plane wave.

    The returned field carries the relative residual and the GMRES
    iteration count.
    """
    medium = problem.medium
    alpha = _unit(alpha)

    def matvec(v):
        return v + medium._apply_weighted_kernel(problem.source(v))

    what = "hard limit" if problem.is_hard else "impedance limit"
    u, resid, iterations = _solve_checked(matvec, medium._plane_wave(alpha), what)
    return ComplexField(points=medium.grid.nodes, values=u, incident_direction=alpha,
                        residual=resid, iterations=iterations)


def _density(problem: LimitProblem, field: ComplexField) -> np.ndarray:
    """Grid sources -src(u) delta^3 of the limit field; no background solve."""
    return -(problem.source(field.values) * problem.medium.weight)


def limit_field_at(problem: LimitProblem, field: ComplexField, points) -> ComplexField:
    """Evaluate the limit solution off the grid via its volume representation."""
    alpha = field.incident_direction
    values = problem.medium.radiate(points, alpha, _density(problem, field))
    return ComplexField(points=points, values=values, incident_direction=alpha)


def limiting_amplitude(problem: LimitProblem, field: ComplexField,
                       directions: DirectionGrid | None = None) -> FarField:
    """Far field of either limit: the amplitude of the grid density -src(u) delta^3;
    for a potential p, A0(beta,alpha) - (1/4pi) integral u0(y,-beta) p(y) u(y) dy."""
    grid = directions or DirectionGrid()
    values = problem.medium.amplitude(grid.vectors(), _density(problem, field))
    return FarField(grid=grid, values=values, alpha=field.incident_direction)


# ---------------------------------------------------------------------------
# hard-limit source terms
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


def hard_born_approximation(problem: LimitProblem, alpha) -> ComplexField:
    """One-shot correction from the unperturbed field:

    U = u0 + integral G [Lap u0 nu + sum_pq d/dy_p (du0/dy_q beta_pq nu)] dy,
    with the same grid derivatives and quadrature as solve_limit.
    """
    if not problem.is_hard:
        raise InvariantViolation("hard_born_approximation requires a hard problem")
    medium = problem.medium
    alpha = _unit(alpha)
    u0 = medium.u0_grid(alpha)
    values = u0 + medium.green_potential_grid(_hard_source(problem, u0))
    return ComplexField(points=medium.grid.nodes, values=values, incident_direction=alpha)
