"""Physics of acoustically hard (zero-impedance) particles.

Hard particles scatter through a volume monopole Q_m = V_m * Lap u_e(x_m) and
a dipole driven by the field gradient through the magnetic polarizability
tensor.  Since the effective field of particle m satisfies the background
equation near x_m, its Laplacian closes as Lap u_e = (q0 - k^2) u_e, giving a
coupled 4M x 4M linear system in the per-particle values and gradients:

    u_e(x_j) = u0(x_j) + sum_{m!=j} [ G(x_j,x_m) (q0(x_m)-k^2) V_m u_e(x_m)
               - dG/dy_p(x_j,x_m) V_m beta_{pq} du_e/dy_q(x_m) ],

plus the x_j-gradient of the same relation.  foldy_impedance.FoldySystem
solves it with the sources q_m = V_m (q0(x_m) - k^2) and vb = V beta.
"""

from __future__ import annotations

import numpy as np


def ball_polarizability() -> np.ndarray:
    """Magnetic polarizability tensor of a ball: -(3/2) * identity."""
    return -1.5 * np.eye(3)
