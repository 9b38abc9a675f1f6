"""Continuum-limit solvers for dense clouds of small particles.

Impedance clouds homogenize into a second-kind volume equation

    u = u0 - integral_D G(x,y) p(y) u(y) dy,
    p = gamma N h / (1 + h),   gamma = 4 pi c1^2 / c2 = 4 pi for balls,

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

solved by GMRES with the FFT-applied kernel.  The solution (medium.Solution:
the node values v) radiates from the grid density -src(v) delta^3 through
the free kernel: no background solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .medium import BackgroundMedium, Solution, Sources, _node_field, _solve_checked, _unit
from .particles import _check_volume_density, _point_law

COLLAR_CELLS = 2


def potential_from_h_N(h_field, N_field) -> np.ndarray:
    """Homogenized potential p = gamma N h / (1 + h) node-wise."""
    h = np.asarray(h_field, dtype=complex).reshape(-1)
    n = np.asarray(N_field, dtype=float).reshape(-1)
    h, n = np.broadcast_arrays(h, n)
    active = n > 0
    out = np.zeros(h.shape, dtype=complex)
    out[active] = _point_law(n[active], h[active])
    return out


@dataclass
class LimitProblem:
    """Continuum problem: either a potential p or a hard pair (nu, beta),
    beta one 3x3 polarizability tensor, as a hard cloud has.

    nu obeys the bound of the clouds that realize it: nonnegative, with
    (nu/c3)^(1/3) <= 0.1.
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
            _check_volume_density(self.nu)
            if self.beta_field is None:
                raise InvariantViolation("hard problem requires a polarizability field")
            self.beta_field = np.asarray(self.beta_field, dtype=float)
            if self.beta_field.shape != (3, 3):
                raise InvariantViolation("beta field must be one 3x3 tensor")
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

def solve_limit(problem: LimitProblem, alpha) -> Solution:
    """Grid solution of the limit equation: GMRES on v + Kw src(v) = plane wave.

    Returns the node values v with the relative residual, the GMRES
    iteration count and their Sources: the grid density -src(v) delta^3.
    """
    medium = problem.medium
    alpha = _unit(alpha)

    def matvec(v):
        return v + medium._apply_weighted_kernel(problem.source(v))

    what = "hard limit" if problem.is_hard else "impedance limit"
    u, resid, iterations = _solve_checked(matvec, medium._plane_wave(alpha), what)
    sources = Sources(medium, alpha, -(problem.source(u) * medium.weight))
    return Solution(u, resid, sources, iterations)


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


def _hard_source(problem: LimitProblem, values: np.ndarray) -> np.ndarray:
    """Lap U * nu + div(beta grad U nu) on the grid nodes."""
    grid = problem.medium.grid
    lap = _fd_laplacian(values, grid.shape, grid.delta)
    grad = _fd_gradient(values, grid.shape, grid.delta)
    flux = np.einsum("pq,qn->pn", problem.beta_field, grad) * problem.nu[None, :]
    return lap * problem.nu + _fd_divergence(flux, grid.shape, grid.delta)
