"""Shrinking-radius studies: discrete clouds against their continuum limits.

A study runs a strictly decreasing radius sequence, builds the cloud at each
radius from a fixed density field, solves the many-body system, and compares
the field at far-zone probes with the limit-equation solution (which does not
depend on the radius).  It also records the counting-measure check
(weight * particle count against the integrated density) and exposes fitted
power laws for the particle count and the peak charge magnitude.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import foldy_impedance
from .errors import InvariantViolation
from .limit_solver import LimitProblem, limit_field_at, potential_from_h_N, solve_limit
from .medium import BackgroundMedium, _node_field, _unit, far_probe_points
from .particles import (
    BALL_SHAPE_CONSTANTS,
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1


@dataclass
class ScaleRecord:
    a: float
    m: int
    d: float
    e_max: float
    e_rms: float
    max_charge: float
    count_weighted: float
    count_integral: float
    residual: float
    note: str = ""


@dataclass
class ScaleStudy:
    """Per-radius comparison records plus fitted scaling exponents."""

    mode: str                      # "impedance" | "hard"
    alpha: np.ndarray
    probes: np.ndarray
    records: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(not r.note for r in self.records)

    def errors(self):
        return [r.e_max for r in self.records]

    def _fit(self, values):
        solved = [(r.a, v) for r, v in zip(self.records, values)
                  if not r.note and v > 0]
        if len(solved) < 2:
            return np.nan
        x = np.log([s[0] for s in solved])
        y = np.log([s[1] for s in solved])
        return float(np.polyfit(x, y, 1)[0])

    def count_exponent(self) -> float:
        """Fitted slope of log M against log a (-1 impedance, -3 hard)."""
        return self._fit([r.m for r in self.records])

    def charge_exponent(self) -> float:
        """Fitted slope of log max|Q| against log a (1 impedance, 3 hard)."""
        return self._fit([r.max_charge for r in self.records])

    def csv_rows(self):
        for r in self.records:
            yield (r.a, r.m, r.d, r.e_max, r.e_rms, r.max_charge,
                   r.count_weighted, r.count_integral)

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode,
            "alpha": list(map(float, self.alpha)),
            "count_exponent": self.count_exponent(),
            "charge_exponent": self.charge_exponent(),
            "scales": [
                {
                    "a": r.a, "M": r.m, "d": r.d, "e_max": r.e_max,
                    "e_rms": r.e_rms, "max_charge": r.max_charge,
                    "count_weighted": r.count_weighted,
                    "count_integral": r.count_integral,
                    "residual": r.residual, "note": r.note,
                }
                for r in self.records
            ],
        }


def _run_study(problem: LimitProblem, build, a_sequence, alpha, probes=None,
               count_integral=np.nan, annotate=True) -> ScaleStudy:
    """The per-radius loop shared by both studies and design verification.

    Solves the limit problem once, then at each radius builds the cloud,
    solves it and compares the probe field with the limit field.  A failed
    scale is annotated in its record, or raised when ``annotate`` is false.
    """
    medium = problem.medium
    alpha = _unit(alpha)
    seq = [float(a) for a in a_sequence]
    if any(b >= a for a, b in zip(seq, seq[1:])):
        raise InvariantViolation("a_sequence must be strictly decreasing")
    pts = far_probe_points(medium.grid) if probes is None else np.atleast_2d(probes)
    u_limit = limit_field_at(problem, solve_limit(problem, alpha), pts).values

    study = ScaleStudy(mode="hard" if problem.is_hard else "impedance", alpha=alpha, probes=pts)
    for a in seq:
        try:
            cloud = build(a)
            result = foldy_impedance.solve_cloud(medium, cloud, alpha)
            u_m = foldy_impedance.evaluate_field(result, medium, cloud, pts).values
            err = np.abs(u_m - u_limit) / np.abs(u_limit)
            study.records.append(ScaleRecord(
                a=a, m=len(cloud), d=cloud.d, e_max=float(err.max()),
                e_rms=float(np.sqrt(np.mean(err ** 2))),
                max_charge=float(np.abs(result.charges).max()) if len(cloud) else 0.0,
                count_weighted=(cloud.volume_per_particle if problem.is_hard else a) * len(cloud),
                count_integral=count_integral, residual=result.residual))
        except Exception as exc:  # noqa: BLE001 - partial study with annotation
            if not annotate:
                raise
            study.records.append(ScaleRecord(
                a=a, m=0, d=np.nan, e_max=np.nan, e_rms=np.nan, max_charge=np.nan,
                count_weighted=np.nan, count_integral=count_integral, residual=np.nan,
                note=f"{type(exc).__name__}: {exc}"))
            logger.warning("scale a=%g failed: %s", a, exc)
    return study


def run_impedance_study(medium: BackgroundMedium, h_field, N_field, a_sequence,
                        alpha, probes=None, cell_size: float | None = None,
                        shape_constants=BALL_SHAPE_CONSTANTS) -> ScaleStudy:
    """Compare impedance clouds against the homogenized potential solution."""
    h = _node_field(h_field, medium.grid.size, complex)
    dens = _node_field(N_field, medium.grid.size, float)
    problem = LimitProblem(medium=medium, p=potential_from_h_N(h, dens, shape_constants))

    def build(a):
        return build_cloud_impedance(medium, a, h, dens, cell_size=cell_size,
                                     shape_constants=shape_constants)

    return _run_study(problem, build, a_sequence, alpha, probes,
                      float(np.sum(dens) * medium.weight))


def run_hard_study(medium: BackgroundMedium, nu_field, beta, a_sequence, alpha,
                   probes=None, cell_size: float | None = None,
                   shape_constants=BALL_SHAPE_CONSTANTS) -> ScaleStudy:
    """Compare hard clouds against the integro-differential limit solution."""
    nu = _node_field(nu_field, medium.grid.size, float)
    beta = np.asarray(beta, dtype=float).reshape(3, 3)
    problem = LimitProblem(medium=medium, nu=nu, beta_field=beta)

    def build(a):
        return build_cloud_hard(medium, a, nu, beta, cell_size=cell_size,
                                shape_constants=shape_constants)

    return _run_study(problem, build, a_sequence, alpha, probes,
                      float(np.sum(nu) * medium.weight))


def counting_measure_check(cloud: ParticleCloud, medium: BackgroundMedium, density,
                           f=None, exclusion=None):
    """(weighted particle sum, grid quadrature of f * density).

    The particle weight is a for impedance clouds and c3 a^3 for hard clouds.
    ``f`` is a callable on points (default 1); ``exclusion = (y0, delta)``
    removes a ball around an integrable singularity from both sides.
    """
    dens = _node_field(density, medium.grid.size, float)
    weight = cloud.volume_per_particle if cloud.kind == "hard" else cloud.a

    centers = cloud.centers
    nodes = medium.grid.nodes
    keep_c = np.ones(len(centers), dtype=bool)
    keep_n = np.ones(len(nodes), dtype=bool)
    if exclusion is not None:
        y0, delta = np.asarray(exclusion[0], dtype=float), float(exclusion[1])
        if len(centers):
            keep_c = np.linalg.norm(centers - y0, axis=1) > delta
        keep_n = np.linalg.norm(nodes - y0, axis=1) > delta

    if f is None:
        fc = np.ones(int(keep_c.sum()))
        fn = np.ones(int(keep_n.sum()))
    else:
        fc = np.asarray(f(centers[keep_c])) if keep_c.any() else np.zeros(0)
        fn = np.asarray(f(nodes[keep_n]))
    particle_sum = weight * complex(np.sum(fc)) if len(centers) else 0.0 + 0.0j
    integral = complex(np.sum(fn * dens[keep_n]) * medium.weight)
    return particle_sum, integral
