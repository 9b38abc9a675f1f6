"""Reference forms that only the tests use: literal definitions to check the
package's faster paths against, and the paper's checks that the package does
not need."""

from dataclasses import dataclass

import numpy as np

from smallbody.errors import InvariantViolation, SingularEvaluationError
from smallbody.limit_solver import LimitProblem, _hard_source
from smallbody.medium import (BackgroundMedium, ComplexField, Grid, _node_field, _pair_distances,
                              _radial, _unit)
from smallbody.particles import ParticleCloud


def _single_or_all(x, y, out):
    """One pair's value when x and y are single 3-vectors, else all of them."""
    return out[0, 0] if np.asarray(x).ndim == 1 and np.asarray(y).ndim == 1 else out


def kernel_blocks(diff, r, k, order=0) -> list:
    """g = exp(ikr)/(4 pi r) and its derivatives over offsets diff = y - x,
    from the package's radial factors over the whole table at once: [g],
    then grad_y g (..., 3) for order >= 1 and d^2 g / dx_q dy_p (..., 3, 3)
    [q, p] for order 2.  r = |diff| must be nonzero; k = 0 gives the static
    kernel 1/(4 pi r)."""
    factors = _radial(r, k, order)
    out = [factors[0]]
    if order:
        u = diff / r[..., None]
        out.append(factors[1][..., None] * u)
    if order == 2:
        fd, f1r = factors[2:]
        uu = u[..., :, None] * u[..., None, :]
        out.append(-(fd[..., None, None] * uu + f1r[..., None, None] * np.eye(3)))
    return out


def free_kernels(x, y, k, order=0) -> list:
    """kernel_blocks over all pairs (x_i, y_j) at once: the whole-table
    reference of the package's chunked kernels (medium._kernel_chunks)."""
    diff, r = _pair_distances(x, y, order)
    if np.any(r == 0.0):
        raise SingularEvaluationError("Helmholtz kernel evaluated at coincident points")
    return kernel_blocks(diff, r, k, order)


def free_kernel(x, y, k):
    """Free-space kernel g(x,y) = exp(ik|x-y|) / (4*pi*|x-y|).

    Accepts single 3-vectors or (n,3)/(m,3) stacks; returns a scalar or an
    (n,m) matrix.  k = 0 gives the static kernel 1/(4*pi*r).
    """
    return _single_or_all(x, y, free_kernels(x, y, k)[0])


def free_kernel_grad_y(x, y, k):
    """Gradient of g with respect to its second argument, shape (n,m,3)."""
    return _single_or_all(x, y, free_kernels(x, y, k, 1)[1])


def free_kernel_hess_xy(x, y, k):
    """Mixed second derivative d^2 g / dx_q dy_p, shape (n,m,3,3) [q,p]."""
    return _single_or_all(x, y, free_kernels(x, y, k, 2)[2])


def split_stacked(stack, order=0) -> list:
    """The blocks [K] (order 0), [K, grad_x K, grad_y K] (n,m,3) (order 1)
    and d^2 K / dx_q dy_p (n,m,3,3) [q,p] (order 2) of a stacked kernel in
    BackgroundMedium.green_kernel's layout, as views."""
    if order == 0:
        return [stack]
    n, m = stack.shape[0] // 4, stack.shape[1] // 4
    blocks = [stack[:n, :m], stack[n:, :m].reshape(n, 3, m).transpose(0, 2, 1),
              stack[:n, m:].reshape(n, m, 3)]
    if order == 2:
        blocks.append(stack[n:, m:].reshape(n, 3, m, 3).transpose(0, 2, 1, 3))
    return blocks


def green_blocks(medium: BackgroundMedium, x, y=None, order=0) -> list:
    """Background Green function G(x_i, y_j) and its derivative blocks
    (split_stacked) as views of medium.green_kernel's stacked array.
    Without y the blocks run over pairs of x with a zero diagonal."""
    return split_stacked(medium.green_kernel(x, y, min(order, 1)), order)


def pair_green_blocks(medium: BackgroundMedium, x, y=None, order=0) -> list:
    """green_blocks(medium, x, y, order) built block by block: kernel_blocks
    over all pairs at once, minus the volume correction cut into the same
    blocks; over pairs of x, the diagonal of each block is zeroed.  The
    correction src^T (D B^-1) src is associated as green_kernel does: the
    grid solve takes the |S| identity columns when 2|S| is below the number
    of source columns."""
    pairs = y is None
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    y = x if pairs else np.asarray(y, dtype=float).reshape(-1, 3)
    n = len(x)
    diff, r = _pair_distances(x, y, order)
    if pairs:
        r[np.diag_indices(n)] = 1.0
    free = kernel_blocks(diff, r, medium.k, order)
    blocks = [free[0]] if order == 0 else [free[0], -free[1], *free[1:]]
    if not medium.is_free:
        src = medium._node_columns(y, min(order, 1))
        s = medium._support
        by_identity = 2 * len(s) < src.shape[1]
        sol = medium._solve_grid(np.eye(len(s), dtype=complex) if by_identity else src)
        sol *= medium.q0[s, None] * medium.weight
        if by_identity:
            sol = sol @ src
        corr = (src if pairs else medium._node_columns(x, min(order, 1))).T @ sol
        blocks = [b - c for b, c in zip(blocks, split_stacked(corr, order))]
    if pairs:
        for b in blocks:
            b[np.arange(n), np.arange(n)] = 0.0
    return blocks


def foldy_matrix(system) -> np.ndarray:
    """FoldySystem.matrix() assembled from pair_green_blocks: I - G diag(q)
    (order 0), or the 4M x 4M hard system with its blocks scaled by -q and
    multiplied by vb one block at a time."""
    m, mq = len(system.centers), -system.q
    blocks = pair_green_blocks(system.medium, system.centers, order=2 * system.order)
    if system.order:
        gmat, grad_x, grad_y, hess = blocks
        a = np.empty((4 * m, 4 * m), dtype=complex)
        a[:m, :m] = gmat * mq[None, :]
        a[:m, m:] = (grad_y.reshape(-1, 3) @ system.vb).reshape(m, 3 * m)
        a[m:, :m] = (grad_x * mq[None, :, None]).transpose(0, 2, 1).reshape(3 * m, m)
        hess_vb = (hess.reshape(-1, 3) @ system.vb).reshape(hess.shape)
        a[m:, m:] = hess_vb.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)
    else:
        a = blocks[0] * mq[None, :]
    a[np.diag_indices_from(a)] += 1.0
    return a


def _extend(medium: BackgroundMedium, f, u) -> np.ndarray:
    """Node values of the solution of (I + Kw diag(q0)) x = f from its
    support values u: x_S = u and x_O = f_O - (Kw diag(q0) x)_O off S,
    by one FFT apply (none when S holds every node)."""
    x = np.array(f, dtype=complex)
    s = medium._support
    if len(medium._off_support):
        x -= medium._apply_weighted_kernel(medium._on_grid(medium.q0[s] * u))
    x[s] = u
    return x


def u0_grid(medium: BackgroundMedium, alpha) -> np.ndarray:
    """Incident scattering solution u0(., alpha) at the grid nodes."""
    alpha = _unit(alpha)
    e = medium._plane_wave(alpha)
    return e if medium.is_free else _extend(medium, e, medium._u0_support(alpha))


def green_potential_grid(medium: BackgroundMedium, density) -> np.ndarray:
    """Node values of integral G(z_i, y) f(y) dy for a node density f."""
    kwf = medium._apply_weighted_kernel(np.asarray(density, dtype=complex).reshape(-1))
    if medium.is_free:
        return kwf
    return _extend(medium, kwf, medium._solve_grid(kwf[medium._support]))


def weighted_u0_sum_grid(medium, betas, density_times_weight) -> np.ndarray:
    """sum_j u0(z_j,-beta) f_j over grid nodes, f = density * delta^3.

    The literal definition: u0_grid per direction, whose support solve is cached.
    """
    f = np.asarray(density_times_weight, dtype=complex).reshape(-1)
    return np.array([u0_grid(medium, -b) @ f for b in np.atleast_2d(betas)])


def hard_born_approximation(problem: LimitProblem, alpha) -> ComplexField:
    """One-shot correction from the unperturbed field:

    U = u0 + integral G [Lap u0 nu + sum_pq d/dy_p (du0/dy_q beta_pq nu)] dy,
    with the same grid derivatives and quadrature as solve_limit.
    """
    if not problem.is_hard:
        raise InvariantViolation("hard_born_approximation requires a hard problem")
    medium = problem.medium
    alpha = _unit(alpha)
    u0 = u0_grid(medium, alpha)
    values = u0 + green_potential_grid(medium, _hard_source(problem, u0))
    return ComplexField(points=medium.grid.nodes, values=values, incident_direction=alpha)


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


@dataclass
class LemmaBoundsReport:
    """Sampled translation-stability ratios of the kernels g and G."""

    a: float
    d: float
    k: float
    samples: int
    max_ratio_g: float
    max_ratio_green: float
    max_diff_g: float


def lemma_bounds_check(medium: BackgroundMedium, a: float, d: float,
                       sample_count: int = 1000, seed: int = 0) -> LemmaBoundsReport:
    """Sample |g(t,y)-g(x,y)| / (a/d^2 + k a/d) and the G analog.

    Draws (t, x, y) with |t-x| <= a and |x-y| >= d, x in the medium box.
    Both ratios stay bounded by an a- and d-independent constant.
    """
    if d < 10 * a:
        raise InvariantViolation("lemma bounds require d >= 10a")
    rng = np.random.default_rng(seed)
    lo = np.asarray(medium.grid.lo)
    hi = np.asarray(medium.grid.hi)
    x = lo + rng.random((sample_count, 3)) * (hi - lo)
    direc = rng.normal(size=(sample_count, 3))
    direc /= np.linalg.norm(direc, axis=1)[:, None]
    radius = d * (1.0 + rng.random(sample_count))
    y = x + direc * radius[:, None]
    tdir = rng.normal(size=(sample_count, 3))
    tdir /= np.linalg.norm(tdir, axis=1)[:, None]
    t = x + tdir * (a * rng.random(sample_count) ** (1.0 / 3.0))[:, None]

    k = medium.k
    denom = a / d ** 2 + k * a / d
    gx, gt = (kernel_blocks(None, np.linalg.norm(y - p, axis=1), k)[0] for p in (x, t))
    diff_g = np.abs(gt - gx)
    if medium.is_free:
        diff_green = diff_g
    else:
        green = medium.green_kernel(np.concatenate([x, t]), y)
        idx = np.arange(sample_count)
        diff_green = np.abs(green[sample_count + idx, idx] - green[idx, idx])
    return LemmaBoundsReport(
        a=a, d=d, k=k, samples=sample_count,
        max_ratio_g=float(diff_g.max() / denom),
        max_ratio_green=float(diff_green.max() / denom),
        max_diff_g=float(diff_g.max()),
    )


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


def scene_command(keys) -> str:
    """The CLI command that runs a scene: the one its sections name."""
    return next((c for k, c in (("limit", "limit"), ("design", "design"), ("study", "study"),
                                ("cloud", "solve")) if k in keys), "validate")
