"""Reference forms that only the tests use: literal definitions to check the
package's faster paths against, and helpers the package does not need."""

import json

import numpy as np

from smallbody.medium import Grid, _free_kernels, _single_or_all
from smallbody.particles import ParticleCloud


def free_kernel_grad_y(x, y, k):
    """Gradient of g with respect to its second argument, shape (n,m,3)."""
    return _single_or_all(x, y, _free_kernels(x, y, k, 1)[1])


def free_kernel_hess_xy(x, y, k):
    """Mixed second derivative d^2 g / dx_q dy_p, shape (n,m,3,3) [q,p]."""
    return _single_or_all(x, y, _free_kernels(x, y, k, 2)[2])


def weighted_u0_sum_grid(medium, betas, density_times_weight) -> np.ndarray:
    """sum_j u0(z_j,-beta) f_j over grid nodes, f = density * delta^3.

    The literal definition: u0_grid per direction, whose support solve is cached.
    """
    f = np.asarray(density_times_weight, dtype=complex).reshape(-1)
    return np.array([medium.u0_grid(-b) @ f for b in np.atleast_2d(betas)])


def trilinear_interpolate(grid: Grid, values, points) -> np.ndarray:
    """Trilinear interpolation of a node field at points inside the box.

    Points in the half-cell margin next to the boundary clamp to the nearest
    node layer (constant extrapolation).
    """
    vals = np.asarray(values).reshape(grid.shape)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    loc = (pts - np.asarray(grid.lo)) / grid.delta - 0.5
    i0 = np.floor(loc).astype(int)
    frac = loc - i0
    out = np.zeros(len(pts), dtype=vals.dtype)
    for corner in range(8):
        off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
        idx = np.clip(i0 + off, 0, np.asarray(grid.shape) - 1)
        w = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=1)
        out += w * vals[idx[:, 0], idx[:, 1], idx[:, 2]]
    return out


def cloud_to_json(cloud: ParticleCloud) -> str:
    return json.dumps(cloud.to_json_dict(), indent=2, sort_keys=True)


def cloud_from_json(text: str) -> ParticleCloud:
    return ParticleCloud.from_json_dict(json.loads(text))
