"""Many-body solver for acoustically hard (zero-impedance) particles.

Hard particles scatter through a volume monopole Q_m = V_m * Lap u_e(x_m) and
a dipole driven by the field gradient through the magnetic polarizability
tensor.  Since the effective field of particle m satisfies the background
equation near x_m, its Laplacian closes as Lap u_e = (q0 - k^2) u_e, giving a
coupled 4M x 4M linear system in the per-particle values and gradients:

    u_e(x_j) = u0(x_j) + sum_{m!=j} [ G(x_j,x_m) (q0(x_m)-k^2) V_m u_e(x_m)
               - dG/dy_p(x_j,x_m) V_m beta_{pq} du_e/dy_q(x_m) ],

plus the x_j-gradient of the same relation.
"""

from __future__ import annotations

import numpy as np

from .foldy_impedance import FoldySolveResult, LatticeConvolution, _row_chunks
from .medium import BackgroundMedium, helmholtz_kernels
from .particles import ParticleCloud


def ball_polarizability() -> np.ndarray:
    """Magnetic polarizability tensor of a ball: -(3/2) * identity."""
    return -1.5 * np.eye(3)


class HardSystem:
    """The hard species: unknowns [u_e (M), grad u_e (M,3) row-major]."""

    kind = "hard"
    order = 1  # incident data: values and gradients

    def __init__(self, medium: BackgroundMedium, cloud: ParticleCloud):
        self.medium, self.centers = medium, cloud.centers
        self.cv = (medium.q0_at(cloud.centers) - medium.k ** 2) * cloud.volume_per_particle
        self.vb = cloud.volume_per_particle * cloud.beta

    def matrix(self) -> np.ndarray:
        m, cv = len(self.centers), self.cv
        gmat, grad_x, grad_y, hess = self.medium.green_blocks(self.centers, order=2)
        a = np.zeros((4 * m, 4 * m), dtype=complex)
        a[:m, :m] = -gmat * cv[None, :]
        a[:m, m:] = (grad_y @ self.vb).reshape(m, 3 * m)
        a[m:, :m] = (-grad_x * cv[None, :, None]).transpose(0, 2, 1).reshape(3 * m, m)
        a[m:, m:] = (hess @ self.vb).transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)
        a[np.diag_indices(4 * m)] += 1.0
        return a

    def apply(self, vec) -> np.ndarray:
        m = len(self.centers)
        u, dm = vec[:m], vec[m:].reshape(m, 3)
        cu = self.cv * u
        bd = dm @ self.vb.T  # (M,3): sum_q (V beta)_{pq} D_{mq}
        out_u, out_d = u.astype(complex), dm.astype(complex)
        for rows, diag, diff, r in _row_chunks(self.centers, self.order):
            g, grad_y, hess_bd = helmholtz_kernels(diff, r, self.medium.k, 2, dipoles=bd)
            for t in (g, grad_y, hess_bd):
                t[diag] = 0.0
            # grad_x g = -grad_y g, so the monopole gradient term flips sign
            out_u[rows] += -(g @ cu) + np.einsum("jmp,mp->j", grad_y, bd)
            out_d[rows] += np.einsum("jms,m->js", grad_y, cu) + hess_bd.sum(axis=1)
        return np.concatenate([out_u, out_d.reshape(-1)])

    def lattice_apply(self, lattice):
        """apply() by FFT for centres on ``lattice``: the pair kernel acting on
        the sources [c u, V beta grad u] is the symmetric 4 x 4 block
        [[-g, grad_y g], [grad_y g, d^2 g / dx dy]]."""
        def kernels(diff, r):
            g, grad_y, hess = helmholtz_kernels(diff, r, self.medium.k, 2)
            return [-g, *np.moveaxis(grad_y, -1, 0),
                    *(hess[..., q, p] for q, p in zip(*np.triu_indices(3)))]

        # a derivative along axis i flips the parity of the even g in m_i
        e = np.eye(3, dtype=int)
        orders = [np.zeros(3, dtype=int), *e, *(e[q] + e[p] for q, p in zip(*np.triu_indices(3)))]
        conv = LatticeConvolution(lattice, kernels, parity=(-1) ** np.array(orders))
        m = len(self.centers)

        def apply(vec):
            u, dm = vec[:m], vec[m:].reshape(m, 3)
            out = conv(np.vstack([self.cv * u, self.vb @ dm.T]))
            return vec + np.concatenate([out[0], out[1:].T.reshape(-1)])

        return apply

    def result(self, sol, **stats) -> FoldySolveResult:
        m = len(self.centers)
        ue, due = sol[:m], sol[m:].reshape(m, 3)
        return FoldySolveResult(effective_values=ue, effective_gradients=due,
                                charges=self.cv * ue, dipole_moments=-(due @ self.vb.T), **stats)
