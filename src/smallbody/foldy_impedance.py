"""Many-body Foldy system and pipeline of both particle species.

Both species reduce to one linear system in per-particle unknowns whose
coefficients are the background Green function and its derivatives; only
the local map from a particle's field to its sources differs (FoldySystem).
The pipeline here -- validate, incident data, dense LU or GMRES on a
lattice-FFT apply (in a non-free background with the grid's low-rank
volume correction) or a direct one, far-zone guard, field, amplitudes --
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

import numpy as np

from .directions import DirectionGrid, FarField
from .errors import InvariantViolation, SolverFailure
from .medium import (CHUNK_ENTRIES, DENSE_GRID_CAP, BackgroundMedium, ComplexField,
                     _embedding_spectrum, _factor, _kernel_planes, _kernel_sum, _norm,
                     _solve_checked, _toeplitz_apply, _unit, lattice_of)
from .particles import (ParticleCloud, _point_law, impedance_to_h, nearest_distances,
                        validate_cloud)

logger = logging.getLogger(__name__)

# path sizing of the system of either species, counted in unknowns
# M (1 + 3 order) (measured crossovers; README "Numerical choices")
DENSE_MAX_UNKNOWNS = 4000    # dense LU up to this many
LATTICE_MIN_UNKNOWNS = 100   # free lattice clouds take the lattice FFT apply from here


@dataclass
class FoldySolveResult:
    """Per-particle effective fields and sources of a solve, with its statistics.

    Impedance solves fill ``coupling``; hard solves fill the gradients and
    dipole moments.
    """

    effective_values: np.ndarray   # u_e(x_m)
    charges: np.ndarray            # Q_m: -c_m u_e (impedance), V_m (q0 - k^2) u_e (hard)
    residual: float
    alpha: np.ndarray
    iterations: int = 0
    rcond: float | None = None     # LU condition estimate (None after GMRES)
    solver: str | None = None      # "lu", "gmres" or "lattice_fft" (None: empty cloud)
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

    def matrix(self) -> np.ndarray:
        """I - K diag(q, -vb) over all pairs; order 0: I - G diag(q).

        Scales the columns of the stacked kernel (BackgroundMedium.green_kernel)
        in place: the monopole columns by -q, and each dipole column triple
        by vb, one matmul over a chunk of rows at a time.
        """
        m = len(self.centers)
        a = self.medium.green_kernel(self.centers, order=self.order)
        a[:, :m] *= -self.q
        if self.order:
            step = max(1, CHUNK_ENTRIES // (16 * m))  # temporaries of one kernel plane
            for s in range(0, len(a), step):
                d = a[s:s + step, m:]
                d[...] = (d.reshape(-1, 3) @ self.vb).reshape(d.shape)
        a[np.diag_indices_from(a)] += 1.0
        return a

    def apply(self, vec) -> np.ndarray:
        """matrix() @ vec = vec - K [q u; -vb grad u], with K formed and
        applied a row chunk at a time (medium._kernel_sum)."""
        m = len(self.centers)
        dipoles = vec[m:].reshape(m, 3 * self.order) @ self.vb.T  # sum_q vb_{pq} D_{mq}
        src = np.concatenate([self.q * vec[:m], -dipoles.reshape(-1)])
        return vec - _kernel_sum(self.centers, self.medium.k, (self.order, self.order), src)

    def lattice_apply(self, lattice):
        """apply() by FFT for centres on ``lattice``: the free pair kernel
        acting on the sources [q u, vb grad u] is the symmetric block
        [[-g, grad_y g], [grad_y g, d^2 g / dx dy]], of which order 0 keeps -g.
        A non-free background adds its low-rank volume correction
        (BackgroundMedium.pair_correction), which factors the grid and keeps
        the centres' support table for the incident column."""
        k, m = self.medium.k, len(self.centers)
        correction = self.medium.pair_correction(self.centers, self.order)

        def kernels(diff, r):
            table = [plane for _, _, plane in _kernel_planes(diff, r, k, 2 * self.order)]
            return [-table[0], *table[1:]]

        # a derivative along axis i flips the parity of the even g in m_i
        e = np.eye(3, dtype=int)
        orders = [np.zeros(3, dtype=int), *e, *(e[q] + e[p] for q, p in zip(*np.triu_indices(3)))]
        conv = LatticeConvolution(lattice, kernels,
                                  parity=(-1) ** np.array(orders[:1 + 9 * self.order]))

        def apply(vec):
            dipoles = self.vb @ vec[m:].reshape(m, 3 * self.order).T
            out = conv(np.vstack([self.q * vec[:m], dipoles]))
            out = vec + np.concatenate([out[0], out[1:].T.reshape(-1)])
            if correction is not None:  # K = free kernel - V: -K s gains V s
                out += correction(np.concatenate([self.q * vec[:m], -dipoles.T.reshape(-1)]))
            return out

        return apply

    def result(self, sol, **stats) -> FoldySolveResult:
        m = len(self.centers)
        ue, due = sol[:m], sol[m:].reshape(m, 3 * self.order)
        if self.order:
            stats.update(effective_gradients=due, dipole_moments=-(due @ self.vb.T))
        else:
            stats.update(coupling=-self.q)
        return FoldySolveResult(effective_values=ue, charges=self.q * ue, **stats)


class LatticeConvolution:
    """s -> sum_{m != j} K(x_m - x_j) s_m at the sites of a lattice, by FFT.

    The pair matrix of a lattice cloud is three-level Toeplitz with a zero
    diagonal (Goodman, Draine & Flatau, Opt. Lett. 16 (1991) 1198).  K is a
    symmetric block of kernels: kernels(diff, r) returns its upper triangle
    in np.triu_indices order, each tabulated at diff = y - x, r = |diff|,
    and parity[c] holds the sign of component c under diff_i -> -diff_i
    per axis (default: one even kernel).  Sources s are (M,) for one kernel
    or component-major (size, M), and so is the result.  Spectra and padded
    columns are held component-major, (c, 2n1, 2n2, 2n3), so the block
    contraction works on contiguous planes.
    """

    def __init__(self, lattice, kernels, parity=((1, 1, 1),)):
        self.lattice = lattice
        m = np.ix_(*(np.arange(n) for n in lattice.shape))
        offsets = np.broadcast_arrays(*[-h * mi for h, mi in zip(lattice.spacing, m)])
        diff = np.stack(offsets, axis=-1)
        r = _norm(*offsets)
        r[0, 0, 0] = 1.0
        table = np.stack(kernels(diff, r))
        table[:, 0, 0, 0] = 0.0  # no self-interaction
        size = int(np.sqrt(2 * len(table)))  # len(table) = size (size + 1) / 2
        self.blocks = list(zip(*np.triu_indices(size), _embedding_spectrum(table, parity)))

    def _contract(self, spec, part):
        out = np.zeros_like(spec)
        for a, b, k in self.blocks:
            k = k[:, part]
            out[a] += k * spec[b]
            if a != b:
                out[b] += k * spec[a]
        return out

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        box = _toeplitz_apply(self.lattice.scatter(s.reshape(-1, s.shape[-1])), self._contract)
        return self.lattice.gather(box).reshape(s.shape)


def solve_cloud(medium: BackgroundMedium, cloud: ParticleCloud, alpha) -> FoldySolveResult:
    """Solve the M-body system of a cloud of either species."""
    report = validate_cloud(cloud, medium)
    if not report.ok:
        raise InvariantViolation("invalid cloud: " + "; ".join(report.flags))
    alpha = _unit(alpha)
    system = FoldySystem(medium, cloud)
    if len(cloud) == 0:
        return system.result(np.zeros(0, dtype=complex), alpha=alpha, residual=0.0)
    sol, residual, iterations, rcond, solver = _solve_system(
        system, lambda: medium.incident_values(alpha, cloud.centers, system.order))
    return system.result(sol, alpha=alpha, residual=residual, iterations=iterations,
                         rcond=rcond, solver=solver)


def _solve_system(system, incident):
    """Solve the system for the right-hand side incident() by one of three paths.

    Sized in unknowns n = M (1 + 3 order): a cloud on one lattice with
    n >= LATTICE_MIN_UNKNOWNS runs GMRES on the lattice FFT apply (in a
    non-free background while |supp q0| <= DENSE_GRID_CAP); otherwise dense
    LU while n <= DENSE_MAX_UNKNOWNS and, in a free background only, GMRES
    on the direct apply beyond.
    incident() is called once the operator is formed: a non-free operator
    factors the grid and keeps the centres' support table, and the
    incident column then reuses both.  Returns (solution, residual,
    iterations, rcond, solver).
    """
    what = f"{system.kind} system"
    m = len(system.centers)
    n = m * (1 + 3 * system.order)
    lattice = lattice_of(system.centers) if (
        n >= LATTICE_MIN_UNKNOWNS and len(system.medium._support) <= DENSE_GRID_CAP) else None
    if lattice is not None:
        logger.debug("%s: lattice FFT apply, M = %d on a %s lattice", what, m,
                     "x".join(map(str, lattice.shape)))
        return (*_solve_checked(system.lattice_apply(lattice), incident(), what),
                None, "lattice_fft")
    if n <= DENSE_MAX_UNKNOWNS:
        logger.debug("%s: dense LU, M = %d", what, m)
        a = system.matrix()
        rhs = incident()
        lu, rcond = _factor(a, what)
        return (*_solve_checked(lambda x: a @ x, rhs, what, lu), rcond, "lu")
    if not system.medium.is_free:
        raise SolverFailure(
            f"{what}: M = {m} ({n} unknowns) with a nontrivial q0 exceeds the dense cap of "
            f"{DENSE_MAX_UNKNOWNS} unknowns, and only centres on one lattice with "
            f"|supp q0| <= {DENSE_GRID_CAP} grid nodes solve matrix-free there")
    logger.debug("%s: GMRES on the direct apply, M = %d", what, m)
    return (*_solve_checked(system.apply, incident(), what), None, "gmres")


def evaluate_field(result: FoldySolveResult, medium: BackgroundMedium, cloud: ParticleCloud,
                   points, exclude: int | None = None) -> ComplexField:
    """u_M(x) = u0 + sum_m [G(x,x_m) Q_m + grad_y G(x,x_m) . P_m] at far-zone points.

    Impedance particles carry no dipole P.  With ``exclude`` set, particle
    m = exclude is dropped from the sum and the distance guard, which
    evaluates the effective field seen by that particle.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keep = np.arange(len(cloud))
    if exclude is not None:
        keep = keep[keep != exclude]
    if len(keep):
        dist = nearest_distances(pts, cloud.centers[keep])
        limit = cloud.d if np.isfinite(cloud.d) else 10.0 * cloud.a
        if np.any(dist < limit * (1 - 1e-12)):
            raise InvariantViolation(
                f"evaluation point within d = {limit:.3g} of a particle center; "
                "the point-particle reduction is not valid there")
    centers, charges = cloud.centers[keep], result.charges[keep]
    dipoles = None if result.dipole_moments is None else result.dipole_moments[keep]
    density = medium.source_density(result.alpha, centers, charges, dipoles)
    values = medium.radiate(pts, result.alpha, density, centers, charges, dipoles)
    return ComplexField(points=pts, values=values, incident_direction=result.alpha)


def amplitudes(result: FoldySolveResult, medium: BackgroundMedium, cloud: ParticleCloud,
               betas) -> np.ndarray:
    """A(beta,alpha) = A0 + (1/4pi) sum_m [u0(x_m,-b) Q_m + grad u0(x_m,-b) . P_m].

    The particle part is the far field of the particle sources plus the
    background's response to them, kept apart from A0 so that it is not
    formed as a small difference.  For a homogeneous background it reduces
    to (1/4pi) sum_m e^{-ik b.x_m} [Q_m - ik b . P_m].
    """
    dipoles = result.dipole_moments
    density = medium.source_density(None, cloud.centers, result.charges, dipoles)
    return medium.background_amplitude(betas, result.alpha) \
        + medium.amplitude(betas, density, cloud.centers, result.charges, dipoles)


def far_field(result: FoldySolveResult, medium: BackgroundMedium, cloud: ParticleCloud,
              directions: DirectionGrid | None = None) -> FarField:
    """Far-field amplitudes on a direction grid (default 32 x 64)."""
    grid = directions or DirectionGrid()
    vals = amplitudes(result, medium, cloud, grid.vectors())
    return FarField(grid=grid, values=vals, alpha=result.alpha)
