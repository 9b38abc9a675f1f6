"""Many-body Foldy system and pipeline of both particle species.

Both species reduce to one linear system in per-particle unknowns whose
coefficients are the background Green function and its derivatives; only
the local map from a particle's field to its sources differs (FoldySystem).
The pipeline here -- validate, incident data, GMRES on the system's one
operator (free pairs by lattice FFT, by the stored free kernel or by row
chunks, plus the grid's low-rank volume correction in a non-free
background), far-zone guard, field, amplitudes -- serves both;
foldy_neumann holds the physics of the hard species.

The impedance species collocates the self-consistent field at the particle centers: particle j
feels the incident field plus the monopole fields of all other particles,

    u_e(x_j) = u0(x_j) - sum_{m != j} G(x_j, x_m) c_m u_e(x_m),

with coupling c_m = gamma a h_m / (1 + h_m), gamma = 4 pi c1^2 / c2 = 4 pi
for balls, and charge Q_m = -c_m u_e(x_m).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .directions import DirectionGrid, FarField
from .errors import InvariantViolation, SolverFailure
from .medium import (DENSE_GRID_CAP, BackgroundMedium, ComplexField, _kernel_matrix, _kernel_sum,
                     _solve_checked, _unit, lattice_of)
from .particles import (ParticleCloud, _point_law, impedance_to_h, nearest_distances,
                        validate_cloud)

logger = logging.getLogger(__name__)

# path sizing of the system of either species, counted in unknowns
# M (1 + 3 order) (measured crossovers; README "Numerical choices")
DENSE_MAX_UNKNOWNS = 4000    # the stored free kernel up to this many
LATTICE_MIN_UNKNOWNS = 100   # lattice clouds take the lattice FFT operator from here


@dataclass
class FoldySolveResult:
    """Per-particle effective fields and sources of a solve, with its statistics.

    Impedance solves fill ``coupling``; hard solves fill the gradients and
    dipole moments; non-free solves fill ``background_density``, and of a
    nonempty cloud ``volume_weights``.
    """

    effective_values: np.ndarray   # u_e(x_m)
    charges: np.ndarray            # Q_m: -c_m u_e (impedance), V_m (q0 - k^2) u_e (hard)
    residual: float
    alpha: np.ndarray
    iterations: int = 0
    solver: str | None = None      # "dense", "gmres" or "lattice_fft" (None: empty cloud)
    coupling: np.ndarray | None = None              # c_m
    effective_gradients: np.ndarray | None = None   # grad u_e(x_m), shape (M, 3)
    dipole_moments: np.ndarray | None = None        # P_m = -V_m beta grad u_e(x_m)
    volume_weights: np.ndarray | None = None        # W of the volume factors (T, W)
    background_density: np.ndarray | None = None    # -q0 delta^3 u0 at the grid nodes


def coupling_constants(cloud: ParticleCloud) -> np.ndarray:
    """c_m = gamma a h_m / (1 + h_m) for every particle."""
    return _point_law(cloud.a, impedance_to_h(cloud.zeta, cloud.a))


class FoldySystem:
    """The M-body system of either species, in its per-particle unknowns.

    Particle m radiates Q_m = q_m u_e(x_m) and P_m = -vb grad u_e(x_m), and
    [u_e; grad u_e](x_j) = [u0; grad u0](x_j) + sum_{m != j} K(x_j, x_m) [Q_m; P_m]
    with K = [[G, grad_y G], [grad_x G, d^2 G / dx dy]].  Impedance particles:
    q = -c (coupling_constants), unknowns u_e (order 0; vb is 0 x 0).  Hard
    particles: q = V (q0(x_m) - k^2), vb = V beta, unknowns [u_e (M),
    grad u_e (M,3) row-major] (order 1).  Order 0 truncates K to G.
    """

    def __init__(self, medium: BackgroundMedium, cloud: ParticleCloud):
        self.medium, self.centers, self.kind = medium, cloud.centers, cloud.kind
        if cloud.kind == "hard":
            self.order = 1  # incident data: values and gradients
            self.q = (medium.q0_at(cloud.centers) - medium.k ** 2) * cloud.volume_per_particle
            self.vb = cloud.volume_per_particle * cloud.beta
        else:
            self.order, self.q, self.vb = 0, -coupling_constants(cloud), np.zeros((0, 0))

    @cached_property
    def factors(self):
        """(T, W) of the background's volume correction over the centres
        (BackgroundMedium.volume_factors), formed once, which factors the
        grid; None in a free background."""
        return self.medium.volume_factors(self.centers, self.order)

    def incident(self, alpha):
        """([u0; grad u0 (order 1)](x_m, alpha) at the centres, the system's
        right-hand side, and u0's node density (source_density; None in a
        free background)).  The node sources are summed over the centres'
        support table T, whose factors are formed first, so that u0's grid
        solve reuses the grid LU."""
        u = self.medium.radiate(self.centers, alpha, None, order=self.order)
        if self.factors is None:
            return u, None
        density = self.medium.source_density(alpha)
        return u + density[self.medium._support] @ self.factors[0], density

    def operator(self, lattice=None, stored=False):
        """v -> v - K s for the sources s = [q u; -vb grad u], K the
        background pair kernel with the paper's zero diagonal.  The free
        pairs K s run by one of three engines: by FFT for centres on
        ``lattice`` (Lattice.pair_kernel), by the free kernel stored once when
        ``stored`` (medium._kernel_matrix), else a row chunk at a time
        (medium._kernel_sum); the last two give the same bits.  A non-free
        background adds its volume correction V s = T^T (W s), (T, W) the
        system's factors, less the exact per-particle blocks (1 x 1, or
        4 x 4 at order 1) that the zero diagonal drops."""
        k, m, order = self.medium.k, len(self.centers), self.order
        factors = self.factors
        if factors is not None:
            t, w = factors
            # the stacked index of component a of particle j, (M, 1 + 3 order)
            at = np.column_stack([np.arange(m), m + np.arange(3 * m).reshape(m, 3)])
            at = at[:, :1 + 3 * order]
            blocks = np.einsum("zja,zjb->jab", t[:, at], w[:, at])
        conv = None if lattice is None else lattice.pair_kernel(k, order)
        table = _kernel_matrix(self.centers, k, (order, order)) if stored and conv is None else None

        def apply(vec):
            dipoles = self.vb @ vec[m:].reshape(m, 3 * order).T  # (3 order, M)
            s = np.concatenate([self.q * vec[:m], -dipoles.T.reshape(-1)])
            if conv is not None:  # -K s, component-major
                pairs = lattice.gather(conv(lattice.scatter(np.vstack([s[:m], dipoles]))))
                out = vec + np.concatenate([pairs[0], pairs[1:].T.reshape(-1)])
            elif table is not None:
                out = vec - table @ s
            else:
                out = vec - _kernel_sum(self.centers, k, (order, order), s)
            if factors is not None:  # K = free kernel - V: -K s gains V s
                v = t.T @ (w @ s)
                v[at] -= np.einsum("jab,jb->ja", blocks, s[at])
                out += v
            return out

        return apply

    def result(self, sol, **stats) -> FoldySolveResult:
        m = len(self.centers)
        if m and self.factors is not None:  # an empty cloud forms no factors
            stats.update(volume_weights=self.factors[1])
        ue, due = sol[:m], sol[m:].reshape(m, 3 * self.order)
        if self.order:
            stats.update(effective_gradients=due, dipole_moments=-(due @ self.vb.T))
        else:
            stats.update(coupling=-self.q)
        return FoldySolveResult(effective_values=ue, charges=self.q * ue, **stats)


def solve_cloud(medium: BackgroundMedium, cloud: ParticleCloud, alpha) -> FoldySolveResult:
    """Solve the M-body system of a cloud of either species."""
    report = validate_cloud(cloud, medium)
    if not report.ok:
        raise InvariantViolation("invalid cloud: " + "; ".join(report.flags))
    alpha = _unit(alpha)
    system = FoldySystem(medium, cloud)
    if len(cloud) == 0:
        return system.result(np.zeros(0, dtype=complex), alpha=alpha, residual=0.0,
                             background_density=medium.source_density(alpha))
    incident = []  # the right-hand side and u0's node density, formed after the cap check
    sol, residual, iterations, solver = _solve_system(
        system, lambda: incident.extend(system.incident(alpha)) or incident[0])
    return system.result(sol, alpha=alpha, residual=residual, iterations=iterations,
                         solver=solver, background_density=incident[1])


def _solve_system(system, incident):
    """Solve the system for the right-hand side incident() by GMRES.

    Sized in unknowns n = M (1 + 3 order): a cloud on one lattice with
    n >= LATTICE_MIN_UNKNOWNS is applied by the operator's lattice FFT
    ("lattice_fft"), any other by its stored free kernel while
    n <= DENSE_MAX_UNKNOWNS ("dense") and by its row chunks beyond
    ("gmres"); the last two give the same bits.  Past DENSE_MAX_UNKNOWNS,
    |supp q0| must fit the grid LU (DENSE_GRID_CAP) that the volume
    correction solves with, which is checked before incident() is called.
    Returns (solution, residual, iterations, solver).
    """
    what = f"{system.kind} system"
    m = len(system.centers)
    n = m * (1 + 3 * system.order)
    support = len(system.medium._support)
    if support > DENSE_GRID_CAP and n > DENSE_MAX_UNKNOWNS:
        raise SolverFailure(
            f"{what}: M = {m} ({n} unknowns) exceeds the dense cap of {DENSE_MAX_UNKNOWNS} "
            f"unknowns, and |supp q0| = {support} grid nodes exceeds the {DENSE_GRID_CAP} "
            "that a matrix-free solve factors")
    lattice = lattice_of(system.centers) if n >= LATTICE_MIN_UNKNOWNS else None
    stored = lattice is None and n <= DENSE_MAX_UNKNOWNS
    solver = "lattice_fft" if lattice is not None else "dense" if stored else "gmres"
    apply = system.operator(lattice, stored)
    logger.debug("%s: GMRES (%s), M = %d", what, solver, m)
    return (*_solve_checked(apply, incident(), what), solver)


def evaluate_field(result: FoldySolveResult, medium: BackgroundMedium, cloud: ParticleCloud,
                   points) -> ComplexField:
    """u_M(x) = u0 + sum_m [G(x,x_m) Q_m + grad_y G(x,x_m) . P_m] at far-zone points.

    Impedance particles carry no dipole P.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    density = _node_density(result, medium, result.background_density)
    # a probe whose distance overflows gets a NaN field, which ComplexField refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if len(cloud):
            dist = nearest_distances(pts, cloud.centers)
            limit = cloud.d if np.isfinite(cloud.d) else 10.0 * cloud.a
            if np.any(dist < limit * (1 - 1e-12)):
                raise InvariantViolation(
                    f"evaluation point within d = {limit:.3g} of a particle center; "
                    "the point-particle reduction is not valid there")
        values = medium.radiate(pts, result.alpha, density, cloud.centers, result.charges,
                                result.dipole_moments)
    return ComplexField(points=pts, values=values, incident_direction=result.alpha)


def _node_density(result: FoldySolveResult, medium: BackgroundMedium, density):
    """The node density ``density`` less that of the particles' grid field
    u_p (None in a free background).

    u_p = B^-1 T s for the stacked sources s = [Q; P], so its density
    -q0 delta^3 u_p is -W s, W of the solve's volume factors: no grid solve.
    """
    if result.volume_weights is None:
        return density
    dipoles = [] if result.dipole_moments is None else [result.dipole_moments.reshape(-1)]
    density = density.copy()
    density[medium._support] -= result.volume_weights @ np.concatenate([result.charges, *dipoles])
    return density


def amplitudes(result: FoldySolveResult, medium: BackgroundMedium, cloud: ParticleCloud,
               betas) -> np.ndarray:
    """A(beta,alpha) = A0 + (1/4pi) sum_m [u0(x_m,-b) Q_m + grad u0(x_m,-b) . P_m].

    The particle part is the far field of the particle sources plus the
    background's response to them, kept apart from A0 so that it is not
    formed as a small difference.  For a homogeneous background it reduces
    to (1/4pi) sum_m e^{-ik b.x_m} [Q_m - ik b . P_m].
    """
    background = result.background_density
    particles = None if background is None else np.zeros_like(background)
    return medium.amplitude(betas, background) + medium.amplitude(
        betas, _node_density(result, medium, particles), cloud.centers, result.charges,
        result.dipole_moments)


def far_field(result: FoldySolveResult, medium: BackgroundMedium, cloud: ParticleCloud,
              directions: DirectionGrid | None = None) -> FarField:
    """Far-field amplitudes on a direction grid (default 32 x 64)."""
    grid = directions or DirectionGrid()
    vals = amplitudes(result, medium, cloud, grid.vectors())
    return FarField(grid=grid, values=vals, alpha=result.alpha)
