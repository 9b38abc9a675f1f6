"""Reduced many-body solver for small impedance particles.

Collocates the self-consistent field at the particle centers: particle j
feels the incident field plus the monopole fields of all other particles,

    u_e(x_j) = u0(x_j) - sum_{m != j} G(x_j, x_m) c_m u_e(x_m),

with coupling c_m = 4 pi c1^2 c2^{-1} a h_m / (1 + h_m) and charge
Q_m = -c_m u_e(x_m).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.spatial import cKDTree

from .directions import DirectionGrid, FarField
from .errors import InvariantViolation, SolverFailure
from .medium import BackgroundMedium, ComplexField, _gmres, _unit
from .particles import ParticleCloud, impedance_to_h, validate_cloud

logger = logging.getLogger(__name__)

DENSE_SYSTEM_CAP = 4000
RESIDUAL_TOL = 1e-10
RCOND_FLOOR = 1e-13


@dataclass
class ImpedanceSolveResult:
    """Per-particle effective fields, charges, couplings, and solve residual."""

    effective_values: np.ndarray   # u_e(x_m)
    charges: np.ndarray            # Q_m = -c_m u_e(x_m)
    coupling: np.ndarray           # c_m
    residual: float
    alpha: np.ndarray
    iterations: int = 0


def charge_from_effective_field(zeta, a, shape_constants, u_e_value) -> complex:
    """Monopole charge Q = -zeta |S| u_e / (1 + zeta J / (4 pi |S|)).

    |S| = c1 a^2, J = c2 a^3.  The denominator vanishes exactly when the
    dimensionless impedance parameter h equals -1.
    """
    c1, c2, _ = shape_constants
    zeta = complex(zeta)
    surface = c1 * a ** 2
    j_int = c2 * a ** 3
    denom = 1.0 + zeta * j_int / (4.0 * np.pi * surface)
    if abs(denom) < 1e-14:
        raise InvariantViolation("h = -1: singular charge denominator")
    return -zeta * surface * u_e_value / denom


def coupling_constants(cloud: ParticleCloud) -> np.ndarray:
    """c_m = 4 pi c1^2 c2^{-1} a h_m / (1 + h_m) for every particle."""
    c1, c2, _ = cloud.shape_constants
    h = impedance_to_h(cloud.zeta, cloud.a, cloud.shape_constants)
    if np.any(np.abs(1.0 + h) < 1e-14):
        raise InvariantViolation("h = -1: singular coupling")
    return 4.0 * np.pi * c1 ** 2 / c2 * cloud.a * h / (1.0 + h)


def assemble_and_solve(medium: BackgroundMedium, cloud: ParticleCloud, alpha,
                       dense_cap: int = DENSE_SYSTEM_CAP) -> ImpedanceSolveResult:
    """Solve the M-body collocation system for an impedance cloud."""
    if cloud.kind != "impedance":
        raise InvariantViolation("assemble_and_solve requires an impedance cloud")
    report = validate_cloud(cloud, medium)
    if not report.ok:
        raise InvariantViolation("invalid cloud: " + "; ".join(report.flags))
    alpha = _unit(alpha)
    m = len(cloud)
    if m == 0:
        return ImpedanceSolveResult(
            effective_values=np.zeros(0, dtype=complex), charges=np.zeros(0, dtype=complex),
            coupling=np.zeros(0, dtype=complex), residual=0.0, alpha=alpha)

    c = coupling_constants(cloud)
    u0 = medium.incident_values(alpha, cloud.centers)
    ue, residual, iters = _solve_collocation(medium, cloud.centers, c, u0, dense_cap)
    return ImpedanceSolveResult(effective_values=ue, charges=-c * ue, coupling=c,
                                residual=residual, alpha=alpha, iterations=iters)


def _solve_collocation(medium, centers, coupling, rhs, dense_cap):
    """Solve (I + G_offdiag diag(c)) u = rhs; dense below the cap, GMRES above."""
    m = len(centers)
    if m <= dense_cap:
        gmat = medium.green_pairs(centers)
        a = gmat * coupling[None, :]
        a[np.diag_indices_from(a)] += 1.0
        anorm = np.linalg.norm(a, 1)
        lu, piv = sla.lu_factor(a)
        rcond, _ = sla.lapack.zgecon(lu, anorm)
        if rcond < RCOND_FLOOR:
            raise SolverFailure(
                f"collocation system ill-conditioned (rcond estimate {rcond:.2e})")
        ue = sla.lu_solve((lu, piv), rhs)
        resid = np.linalg.norm(a @ ue - rhs) / max(np.linalg.norm(rhs), 1e-300)
        if resid > RESIDUAL_TOL:
            raise SolverFailure(f"collocation residual {resid:.2e}", residual=resid)
        return ue, float(resid), 0

    if not medium.is_free:
        raise SolverFailure(
            "matrix-free path supports a homogeneous background only; "
            f"M = {m} with a nontrivial q0 exceeds the dense cap {dense_cap}")

    k = medium.k
    chunk = max(1, int(2e7) // max(m, 1))

    def apply(u):
        cu = coupling * u
        out = u.astype(complex).copy()
        for s in range(0, m, chunk):
            stop = min(s + chunk, m)
            diff = centers[s:stop, None, :] - centers[None, :, :]
            r = np.sqrt(np.sum(diff * diff, axis=-1))
            rows = np.arange(s, stop)
            r[rows - s, rows] = 1.0
            g = np.exp(1j * k * r) / (4.0 * np.pi * r)
            g[rows - s, rows] = 0.0
            out[s:stop] += g @ cu
        return out

    ue, info, iters = _gmres(apply, rhs, rtol=RESIDUAL_TOL, maxiter=300)
    if info != 0:
        raise SolverFailure(f"collocation GMRES did not converge (info={info})")
    resid = np.linalg.norm(apply(ue) - rhs) / max(np.linalg.norm(rhs), 1e-300)
    if resid > 10 * RESIDUAL_TOL:
        raise SolverFailure(f"collocation residual {resid:.2e}", residual=resid)
    return ue, float(resid), iters


def _check_far_zone(cloud, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(cloud) == 0:
        return pts
    tree = cKDTree(cloud.centers)
    dist, _ = tree.query(pts, k=1)
    limit = cloud.d if np.isfinite(cloud.d) else 10.0 * cloud.a
    if np.any(dist < limit * (1 - 1e-12)):
        raise InvariantViolation(
            f"evaluation point within d = {limit:.3g} of a particle center; "
            "the monopole truncation is not valid there")
    return pts


def evaluate_field(result: ImpedanceSolveResult, medium: BackgroundMedium,
                   cloud: ParticleCloud, points) -> ComplexField:
    """u_M(x) = u0(x) + sum_m G(x, x_m) Q_m at far-zone points."""
    pts = _check_far_zone(cloud, points)
    values = medium.incident_values(result.alpha, pts)
    if len(cloud):
        gmat = medium.green_matrix(pts, cloud.centers)
        values = values + gmat @ result.charges
    return ComplexField(points=pts, values=values, incident_direction=result.alpha)


def amplitudes(result: ImpedanceSolveResult, medium: BackgroundMedium,
               cloud: ParticleCloud, betas) -> np.ndarray:
    """Total amplitude A(beta, alpha) = A0 + (1/4pi) sum_m u0(x_m,-beta) Q_m."""
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    total = medium.background_amplitude(betas, result.alpha)
    if len(cloud):
        total = total + medium.weighted_u0_sum(
            betas, cloud.centers, result.charges) / (4.0 * np.pi)
    return total


def far_field(result: ImpedanceSolveResult, medium: BackgroundMedium,
              cloud: ParticleCloud, directions: DirectionGrid | None = None) -> FarField:
    """Far-field amplitudes on a direction grid (default 32 x 64)."""
    grid = directions or DirectionGrid()
    vals = amplitudes(result, medium, cloud, grid.vectors())
    return FarField(grid=grid, values=vals, alpha=result.alpha)
