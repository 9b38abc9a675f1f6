"""Design algebra: refraction target -> potential -> (h, N).

Given a target refraction coefficient n(x) over the background n0(x), the
difference potential is p = k^2 (n0 - n).  Any p with Im p <= 0 is realizable
(non-uniquely) by a particle density N(x) >= 0 and an impedance parameter
h(x) with Im h <= 0 through

    p = gamma N h / (1 + h),      gamma = 4 pi c1^2 / c2 = 4 pi for balls.

The branch policy below pins one deterministic choice per sign pattern of
p = p1 + i p2 and verifies the identity node-wise to 1e-12 before returning.
The cloud is then `particles.build_cloud_impedance(medium, a, h, N)`, and
`convergence.verify_design` checks that it converges to the target field.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation
from .limit_solver import potential_from_h_N
from .medium import BackgroundMedium, _node_field
from .particles import GAMMA

ROUND_TRIP_TOL = 1e-12


def target_to_potential(medium: BackgroundMedium, target_n) -> np.ndarray:
    """p(x) = k^2 (n0(x) - n(x)) node-wise, for a passive target n."""
    n = _node_field(target_n, medium.grid.size, complex)
    differs = np.abs(n - medium.n0) > 1e-14
    if np.any(n.imag[differs] < -1e-14):
        raise InvariantViolation("target must be passive: Im n >= 0 where it differs")
    return medium.k ** 2 * (medium.n0 - n)


def choose_h_N(p):
    """Pick (h, N) with Im h <= 0, N >= 0 realizing p node-wise.

    Branches on p = p1 + i p2 (p2 <= 0 required):
      A: p1 > 0, p2 != 0   -> h = i p1/p2,  N = (p1^2 + p2^2)/(gamma p1)
      B: p2 = 0, p1 > 0    -> h = 1,        N = 2 p1 / gamma
      C: p2 = 0, p1 < 0    -> h = -1/2,     N = |p1| / gamma
      D: p = 0             -> h = 0,        N = 0
      E: p1 <= 0, p2 != 0  -> h = -1/2 + i h2, h2 the negative root of
                              p2 h2^2 - p1 h2 - p2/4 = 0, N from the h2 line
    """
    p = np.asarray(p, dtype=complex).reshape(-1)
    if np.any(p.imag > 1e-14 * np.maximum(np.abs(p), 1.0)):
        raise InvariantViolation("realizable potentials need Im p <= 0")
    p1 = p.real
    p2 = np.where(np.abs(p.imag) <= 1e-15 * np.abs(p), 0.0, p.imag)

    h = np.zeros(p.shape, dtype=complex)
    n_dens = np.zeros(p.shape, dtype=float)

    mask_a = (p1 > 0) & (p2 != 0)
    h[mask_a] = 1j * p1[mask_a] / p2[mask_a]
    n_dens[mask_a] = (p1[mask_a] ** 2 + p2[mask_a] ** 2) / (GAMMA * p1[mask_a])

    mask_b = (p2 == 0) & (p1 > 0)
    h[mask_b] = 1.0
    n_dens[mask_b] = 2.0 * p1[mask_b] / GAMMA

    mask_c = (p2 == 0) & (p1 < 0)
    h[mask_c] = -0.5
    n_dens[mask_c] = -p1[mask_c] / GAMMA

    mask_e = (p1 <= 0) & (p2 != 0)
    if np.any(mask_e):
        q1, q2 = p1[mask_e], p2[mask_e]
        # negative root of q2 h2^2 - q1 h2 - q2/4 = 0; the roots multiply to
        # -1/4, so divide out the cancellation-free root (q1 - s is never small)
        s = np.sqrt(q1 ** 2 + q2 ** 2)
        h2 = -0.25 * (2.0 * q2) / (q1 - s)
        h[mask_e] = -0.5 + 1j * h2
        n_dens[mask_e] = q2 * (0.25 + h2 ** 2) / (GAMMA * h2)

    if np.any(h.imag > 1e-14) or np.any(n_dens < 0):
        bad = np.flatnonzero((h.imag > 1e-14) | (n_dens < 0))
        raise InvariantViolation(f"no feasible (h, N) at nodes {bad[:10].tolist()}")

    realized = potential_from_h_N(h, n_dens)
    scale = np.maximum(np.abs(p), 1e-300)
    bad = np.flatnonzero(np.abs(realized - p) > ROUND_TRIP_TOL * np.maximum(scale, 1.0))
    if bad.size:
        raise InvariantViolation(f"(h, N) round trip failed at nodes {bad[:10].tolist()}")
    return h, n_dens
