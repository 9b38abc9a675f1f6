"""Constructive recipe: refraction target -> potential -> (h, N) -> cloud.

Given a target refraction coefficient n(x) over the background n0(x), the
difference potential is p = k^2 (n0 - n).  Any p with Im p <= 0 is realizable
(non-uniquely) by a particle density N(x) >= 0 and an impedance parameter
h(x) with Im h <= 0 through

    p = gamma N h / (1 + h),      gamma = 4 pi c1^2 / c2  (= 4 pi for balls).

The branch policy below pins one deterministic choice per sign pattern of
p = p1 + i p2 and verifies the identity node-wise to 1e-12 before returning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .convergence import _run_study
from .errors import InvariantViolation
from .limit_solver import LimitProblem, potential_from_h_N
from .medium import BackgroundMedium, _node_field
from .particles import BALL_SHAPE_CONSTANTS, ParticleCloud, build_cloud_impedance, validate_cloud

logger = logging.getLogger(__name__)

ROUND_TRIP_TOL = 1e-12


@dataclass
class DesignSpec:
    """Target refraction samples over a background medium."""

    medium: BackgroundMedium
    target_n: np.ndarray
    a: float
    shape_constants: tuple = BALL_SHAPE_CONSTANTS

    def __post_init__(self):
        n = _node_field(self.target_n, self.medium.grid.size, complex)
        differs = np.abs(n - self.medium.n0) > 1e-14
        if np.any(n.imag[differs] < -1e-14):
            raise InvariantViolation("target must be passive: Im n >= 0 where it differs")
        self.target_n = n


@dataclass
class FeasibilityReport:
    ka: float
    d_over_a: float
    m: int
    volume_fraction: float


@dataclass
class DesignResult:
    p: np.ndarray
    h: np.ndarray
    N: np.ndarray
    cloud: ParticleCloud
    feasibility: FeasibilityReport


def target_to_potential(spec: DesignSpec) -> np.ndarray:
    """p(x) = k^2 (n0(x) - n(x)) node-wise."""
    return spec.medium.k ** 2 * (spec.medium.n0 - spec.target_n)


def choose_h_N(p, shape_constants=BALL_SHAPE_CONSTANTS):
    """Pick (h, N) with Im h <= 0, N >= 0 realizing p node-wise.

    Branches on p = p1 + i p2 (p2 <= 0 required):
      A: p1 > 0, p2 != 0   -> h = i p1/p2,  N = (p1^2 + p2^2)/(gamma p1)
      B: p2 = 0, p1 > 0    -> h = 1,        N = 2 p1 / gamma
      C: p2 = 0, p1 < 0    -> h = -1/2,     N = |p1| / gamma
      D: p = 0             -> h = 0,        N = 0
      E: p1 <= 0, p2 != 0  -> h = -1/2 + i h2, h2 the negative root of
                              p2 h2^2 - p1 h2 - p2/4 = 0, N from the h2 line
    """
    c1, c2, _ = shape_constants
    gamma = 4.0 * np.pi * c1 ** 2 / c2
    p = np.asarray(p, dtype=complex).reshape(-1)
    if np.any(p.imag > 1e-14 * np.maximum(np.abs(p), 1.0)):
        raise InvariantViolation("realizable potentials need Im p <= 0")
    p1 = p.real
    p2 = np.where(np.abs(p.imag) <= 1e-15 * np.abs(p), 0.0, p.imag)

    h = np.zeros(p.shape, dtype=complex)
    n_dens = np.zeros(p.shape, dtype=float)

    mask_a = (p1 > 0) & (p2 != 0)
    h[mask_a] = 1j * p1[mask_a] / p2[mask_a]
    n_dens[mask_a] = (p1[mask_a] ** 2 + p2[mask_a] ** 2) / (gamma * p1[mask_a])

    mask_b = (p2 == 0) & (p1 > 0)
    h[mask_b] = 1.0
    n_dens[mask_b] = 2.0 * p1[mask_b] / gamma

    mask_c = (p2 == 0) & (p1 < 0)
    h[mask_c] = -0.5
    n_dens[mask_c] = -p1[mask_c] / gamma

    mask_e = (p1 <= 0) & (p2 != 0)
    if np.any(mask_e):
        q1, q2 = p1[mask_e], p2[mask_e]
        # negative root of q2 h2^2 - q1 h2 - q2/4 = 0; the roots multiply to
        # -1/4, so divide out the cancellation-free root (q1 - s is never small)
        s = np.sqrt(q1 ** 2 + q2 ** 2)
        h2 = -0.25 * (2.0 * q2) / (q1 - s)
        h[mask_e] = -0.5 + 1j * h2
        n_dens[mask_e] = q2 * (0.25 + h2 ** 2) / (gamma * h2)

    if np.any(h.imag > 1e-14) or np.any(n_dens < 0):
        bad = np.flatnonzero((h.imag > 1e-14) | (n_dens < 0))
        raise InvariantViolation(f"no feasible (h, N) at nodes {bad[:10].tolist()}")

    realized = potential_from_h_N(h, n_dens, shape_constants)
    scale = np.maximum(np.abs(p), 1e-300)
    bad = np.flatnonzero(np.abs(realized - p) > ROUND_TRIP_TOL * np.maximum(scale, 1.0))
    if bad.size:
        raise InvariantViolation(f"(h, N) round trip failed at nodes {bad[:10].tolist()}")
    return h, n_dens


def realize(spec: DesignSpec, h, N, cell_size: float | None = None) -> DesignResult:
    """Build the particle cloud realizing (h, N) at radius spec.a."""
    cloud = build_cloud_impedance(spec.medium, spec.a, h, N,
                                  cell_size=cell_size,
                                  shape_constants=spec.shape_constants)
    report = validate_cloud(cloud, spec.medium)
    feas = FeasibilityReport(
        ka=spec.medium.k * spec.a,
        d_over_a=(cloud.d / cloud.a) if np.isfinite(cloud.d) else np.inf,
        m=len(cloud),
        volume_fraction=report.volume_fraction,
    )
    p = _node_field(potential_from_h_N(h, N, spec.shape_constants), spec.medium.grid.size, complex)
    return DesignResult(p=p, h=np.asarray(h, dtype=complex), N=np.asarray(N, dtype=float),
                        cloud=cloud, feasibility=feas)


@dataclass
class VerificationReport:
    """Discrete-vs-limit comparison across a shrinking radius sequence."""

    a_values: list
    m_values: list
    d_values: list
    errors_max: list
    errors_rms: list
    decreasing: bool = False
    final_error: float = np.nan
    passed: bool = False

    def rows(self):
        return list(zip(self.a_values, self.m_values, self.d_values,
                        self.errors_max, self.errors_rms))


def verify_design(result: DesignResult, spec: DesignSpec, alpha, scale_sequence,
                  cell_size: float | None = None, probes=None,
                  final_tol: float = 0.05) -> VerificationReport:
    """Solve the discrete cloud at each radius and compare with the limit field.

    e(a) is the max relative deviation over far-zone probes; the design passes
    when e(a) decreases along the sequence and the last value is <= final_tol.
    """
    medium = spec.medium

    def build(a):
        return build_cloud_impedance(medium, a, result.h, result.N, cell_size=cell_size,
                                     shape_constants=spec.shape_constants)

    study = _run_study(LimitProblem(medium=medium, p=result.p), build, scale_sequence,
                       alpha, probes, annotate=False)
    report = VerificationReport(*([getattr(r, f) for r in study.records]
                                  for f in ("a", "m", "d", "e_max", "e_rms")))
    e = report.errors_max
    report.decreasing = all(x > y for x, y in zip(e, e[1:]))
    report.final_error = e[-1]
    if np.all(np.asarray(report.m_values) == 0):
        # nothing to embed: the design is trivially exact
        report.decreasing = True
        report.passed = report.final_error <= final_tol
    else:
        report.passed = report.decreasing and report.final_error <= final_tol
    return report
