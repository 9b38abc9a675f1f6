"""Many-body Foldy system and pipeline of both particle species.

Both species reduce to one linear system in per-particle unknowns whose
coefficients are the free Green function and its derivatives; only the
local map from a particle's field to its sources differs (FoldySystem).  In
a non-free background the particles' grid field on supp q0 joins the
unknowns, so the background's response to the particles is solved with
them (FoldySystem.operator).  The pipeline here -- validate, incident data,
GMRES on the system's one operator (free pairs by lattice FFT, by the
stored free kernel or by row chunks), the result's radiating Sources --
serves both; foldy_neumann holds the physics of the hard species.

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

from .errors import InvariantViolation
from .medium import BackgroundMedium, Sources, _KernelSlabs, _solve_checked, _unit, lattice_of
from .particles import ParticleCloud, _point_law, impedance_to_h, validate_cloud

logger = logging.getLogger(__name__)

# lattice clouds of either species take the lattice FFT operator from this
# many unknowns M (1 + 3 order) (measured; README "Numerical choices")
LATTICE_MIN_UNKNOWNS = 100


@dataclass
class FoldySolveResult:
    """Per-particle effective fields and sources of a solve, with its statistics.

    Impedance solves fill ``coupling``; hard solves fill the gradients and
    dipole moments; ``sources`` radiate the field and the far field.
    """

    effective_values: np.ndarray   # u_e(x_m)
    charges: np.ndarray            # Q_m: -c_m u_e (impedance), V_m (q0 - k^2) u_e (hard)
    residual: float
    sources: Sources
    iterations: int = 0
    solver: str | None = None      # "dense", "gmres" or "lattice_fft" (None: empty cloud)
    coupling: np.ndarray | None = None              # c_m
    effective_gradients: np.ndarray | None = None   # grad u_e(x_m), shape (M, 3)
    dipole_moments: np.ndarray | None = None        # P_m = -V_m beta grad u_e(x_m)


def coupling_constants(cloud: ParticleCloud) -> np.ndarray:
    """c_m = gamma a h_m / (1 + h_m) for every particle."""
    return _point_law(cloud.a, impedance_to_h(cloud.zeta, cloud.a))


class FoldySystem:
    """The M-body system of either species, in its per-particle unknowns.

    Particle m radiates Q_m = q_m u_e(x_m) and P_m = -vb grad u_e(x_m), and
    [u_e; grad u_e](x_j) = [u0; grad u0](x_j) + sum_{m != j} K(x_j, x_m) [Q_m; P_m]
    + [v_j; grad v_j] with K = [[g, grad_y g], [grad_x g, d^2 g / dx dy]]
    the free pair kernel and v the background's response to all particle
    sources, particle j's own included (none in a free background).
    Impedance particles: q = -c (coupling_constants), unknowns u_e (order 0;
    vb is 0 x 0).  Hard particles: q = V (q0(x_m) - k^2), vb = V beta,
    unknowns [u_e (M), grad u_e (M,3) row-major] (order 1).  Order 0
    truncates K to g.  In a non-free background the |S| values of the
    particles' grid field on S = supp q0 come first (operator).
    """

    def __init__(self, medium: BackgroundMedium, cloud: ParticleCloud):
        self.medium, self.centers, self.kind = medium, cloud.centers, cloud.kind
        self.guard = cloud.d if np.isfinite(cloud.d) else 10.0 * cloud.a
        self.grid_unknowns = len(medium._support)
        if cloud.kind == "hard":
            self.order = 1  # incident data: values and gradients
            self.q = (medium.q0_at(cloud.centers) - medium.k ** 2) * cloud.volume_per_particle
            self.vb = cloud.volume_per_particle * cloud.beta
        else:
            self.order, self.q, self.vb = 0, -coupling_constants(cloud), np.zeros((0, 0))
        # the grid unknowns are v / scale (operator)
        sizes = np.abs(np.concatenate([self.q, self.vb.reshape(-1)]))
        self.scale = float(sizes.max()) if sizes.any() else 1.0
        # the pair engine (solver): the lattice FFT from LATTICE_MIN_UNKNOWNS
        n = len(self.centers) * (1 + 3 * self.order)
        self.lattice = lattice_of(self.centers) if n >= LATTICE_MIN_UNKNOWNS else None

    @cached_property
    def _pairs(self):  # the free pair kernel K, off a lattice
        return _KernelSlabs(self.centers, self.medium.k, (self.order, self.order))

    @cached_property
    def _nodes(self):  # the node-row slabs of T, (|S|, M (1 + 3 order))
        nodes = self.medium.grid.nodes[self.medium._support]
        return _KernelSlabs(nodes, self.medium.k, (0, self.order), self.centers)

    @property
    def solver(self) -> str:  # the pair engine, "dense" while K is stored
        return ("lattice_fft" if self.lattice is not None else
                "dense" if self._pairs.table is not None else "gmres")

    def _node_sums(self, s, x):
        """(T s, T^T x): the field at the nodes of S of the particle sources
        s, and the [value; gradient] at the centres of the node sources x, in
        one walk of T's node-row slabs (_nodes), T^T x summed slab by slab:
        stored or formed, the same products of slabs of the same shape."""
        ts, ttx = np.empty(self.grid_unknowns, dtype=complex), np.zeros(len(s), dtype=complex)
        for rows, slab in self._nodes:
            ts[rows] = slab @ s
            ttx += x[rows] @ slab
        return ts, ttx

    def incident(self, alpha, density):
        """The right-hand side: [u0; grad u0 (order 1)](x_m, alpha) at the
        centres, after |S| zeros in a non-free background, where u0's node
        density ``density`` (source_density) is summed over T^T."""
        u = self.medium.radiate(self.centers, Sources(self.medium, alpha), order=self.order)
        if density is None:
            return u
        u += self._node_sums(np.zeros(len(u), dtype=complex), density[self.medium._support])[1]
        return np.concatenate([np.zeros(self.grid_unknowns, dtype=complex), u])

    def operator(self):
        """w -> w - K s for the sources s = [q u; -vb grad u], K the free
        pair kernel with the paper's zero diagonal, by the system's engine
        (``solver``): by FFT for centres on ``lattice`` (Lattice.pair_kernel),
        else by K stored once or formed a row chunk at a time (_pairs); the
        last two give the same bits on a BLAS whose matrix-vector product
        sums a row in one order whatever the matrix's row count.

        A non-free background couples the particles' grid field v on S,
        ahead of w, as a volume-integral grid holds point scatterers
        (Martin, Multiple Scattering, CUP 2006, ch. 8): [v; w] ->
        [v + (Kw (q0 v))_S - T s; w - K s + T^T (q0 delta^3 v)], T the
        free kernel from the centres to the nodes of S (_node_sums, one walk
        of its node-row slabs for both products).  So each particle
        also feels its own reflection from the background, which the
        paper's sum over m != j of the background Green function drops: a
        change of relative order a, that of the point reduction itself.
        The unknowns are v / scale, the largest |q| or |vb| (a similarity,
        which leaves the spectrum alone): v is of the size of the sources
        while w is of that of u0, and GMRES's residual bound, relative to
        u0, would otherwise bound v's error by u0's size, not v's.
        """
        medium, m, order, ns = self.medium, len(self.centers), self.order, self.grid_unknowns
        lattice = self.lattice
        pairs = self._pairs if lattice is None else lattice.pair_kernel(medium.k, order)
        dq0 = medium.q0[medium._support] * medium.weight * self.scale

        def apply(x):
            vec = x[ns:]
            dipoles = self.vb @ vec[m:].reshape(m, 3 * order).T  # (3 order, M)
            s = np.concatenate([self.q * vec[:m], -dipoles.T.reshape(-1)])
            if lattice is not None:  # -K s, component-major
                ks = lattice.gather(pairs(lattice.scatter(np.vstack([s[:m], dipoles]))))
                out = vec + np.concatenate([ks[0], ks[1:].T.reshape(-1)])
            else:
                out = vec - pairs @ s
            if not ns:
                return out
            v = x[:ns]
            ts, ttx = self._node_sums(s, dq0 * v)
            return np.concatenate([medium._apply_grid_operator(v) - ts / self.scale, out + ttx])

        return apply

    def result(self, sol, alpha, background, **stats) -> FoldySolveResult:
        m, ns = len(self.centers), self.grid_unknowns
        density = None
        if m and ns:
            density = self.medium._support_density(sol[:ns] * self.scale)
            sol = sol[ns:]
        ue, due = sol[:m], sol[m:].reshape(m, 3 * self.order)
        if self.order:
            stats.update(effective_gradients=due, dipole_moments=-(due @ self.vb.T))
        else:
            stats.update(coupling=-self.q)
        charges = self.q * ue
        sources = Sources(self.medium, alpha, density, self.centers, charges,
                          stats.get("dipole_moments"), self.guard, background)
        return FoldySolveResult(effective_values=ue, charges=charges, sources=sources, **stats)


def solve_cloud(medium: BackgroundMedium, cloud: ParticleCloud, alpha) -> FoldySolveResult:
    """Solve the M-body system of a cloud of either species."""
    report = validate_cloud(cloud, medium)
    if not report.ok:
        raise InvariantViolation("invalid cloud: " + "; ".join(report.flags))
    alpha = _unit(alpha)
    system = FoldySystem(medium, cloud)
    density = medium.source_density(alpha)
    if len(cloud) == 0:
        return system.result(np.zeros(0, dtype=complex), alpha, density, residual=0.0)
    what = f"{system.kind} system"
    logger.debug("%s: GMRES (%s), M = %d", what, system.solver, len(cloud))
    sol, residual, iterations = _solve_checked(system.operator(),
                                               system.incident(alpha, density), what)
    return system.result(sol, alpha, density, residual=residual, iterations=iterations,
                         solver=system.solver)
