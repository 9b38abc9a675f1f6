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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import foldy_impedance
from .errors import InvariantViolation
from .limit_solver import LimitProblem, potential_from_h_N, solve_limit
from .medium import BackgroundMedium, _node_field, _unit, far_probe_points
from .particles import build_cloud_hard, build_cloud_impedance

logger = logging.getLogger(__name__)

FINAL_TOL = 0.05  # largest last-radius error that a design verification passes


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
            "mode": self.mode,
            "alpha": list(map(float, self.alpha)),
            "count_exponent": self.count_exponent(),
            "charge_exponent": self.charge_exponent(),
            "scales": [{("M" if key == "m" else key): value for key, value in asdict(r).items()}
                       for r in self.records],
        }


def _run_study(problem: LimitProblem, build, a_sequence, alpha,
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
    pts = far_probe_points(medium.grid)
    u_limit = solve_limit(problem, alpha).sources.field(pts).values

    study = ScaleStudy(mode="hard" if problem.is_hard else "impedance", alpha=alpha)
    for a in seq:
        try:
            cloud = build(a)
            result = foldy_impedance.solve_cloud(medium, cloud, alpha)
            u_m = result.sources.field(pts).values
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
                        alpha, cell_size: float | None = None) -> ScaleStudy:
    """Compare impedance clouds against the homogenized potential solution."""
    h = _node_field(h_field, medium.grid.size, complex)
    dens = _node_field(N_field, medium.grid.size, float)
    problem = LimitProblem(medium=medium, p=potential_from_h_N(h, dens))

    def build(a):
        return build_cloud_impedance(medium, a, h, dens, cell_size=cell_size)

    return _run_study(problem, build, a_sequence, alpha, float(np.sum(dens) * medium.weight))


def run_hard_study(medium: BackgroundMedium, nu_field, beta, a_sequence, alpha,
                   cell_size: float | None = None) -> ScaleStudy:
    """Compare hard clouds against the integro-differential limit solution."""
    nu = _node_field(nu_field, medium.grid.size, float)
    beta = np.asarray(beta, dtype=float).reshape(3, 3)
    problem = LimitProblem(medium=medium, nu=nu, beta_field=beta)

    def build(a):
        return build_cloud_hard(medium, a, nu, beta, cell_size=cell_size)

    return _run_study(problem, build, a_sequence, alpha, float(np.sum(nu) * medium.weight))


def verify_design(medium: BackgroundMedium, h, N, a_sequence, alpha,
                  cell_size: float | None = None):
    """The impedance study of a design's (h, N), with its verdict.

    Returns ``(study, decreasing, passed)``: the design passes when e(a)
    decreases along the sequence and its last value is <= FINAL_TOL.  For
    p = 0 everywhere the limit is the background field, which the empty
    clouds realize exactly, so ``decreasing`` holds and the last value alone
    decides.  A radius that cannot be built or solved raises.
    """
    p = potential_from_h_N(h, N)

    def build(a):
        return build_cloud_impedance(medium, a, h, N, cell_size=cell_size)

    study = _run_study(LimitProblem(medium=medium, p=p), build, a_sequence, alpha,
                       annotate=False)
    e = study.errors()
    decreasing = not np.any(p) or all(x > y for x, y in zip(e, e[1:]))
    return study, decreasing, decreasing and e[-1] <= FINAL_TOL
