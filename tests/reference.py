"""Reference forms that only the tests use: literal definitions to check the
package's faster paths against, and the paper's checks that the package does
not need."""

import copy
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss, legval
from scipy.special import spherical_jn, spherical_yn

from smallbody.directions import FarField
from smallbody.errors import InvariantViolation, SingularEvaluationError
from smallbody.foldy_impedance import FoldySystem
from smallbody.limit_solver import LimitProblem, _hard_source
from smallbody.medium import (BackgroundMedium, Grid, Solution, Sources, _kernel_chunks,
                              _node_field, _pair_distances, _radial, _row_chunks, _unit)
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


def kernel_matrix(x, k, orders, y=None) -> np.ndarray:
    """The slabs of medium._kernel_chunks(x, k, orders, y) written into one
    array: the whole stored table, whose product with w has the bits of
    medium._kernel_sum."""
    n, m = len(x) * (1 + 3 * orders[0]), len(x if y is None else y) * (1 + 3 * orders[1])
    out = np.empty((n, m), dtype=complex)
    for rows, slab in _kernel_chunks(x, k, orders, y):
        out[rows] = slab
    return out


def node_columns(medium: BackgroundMedium, pts, order) -> np.ndarray:
    """g(z, p_j) over the nodes z of S = supp q0, stacked as [g | grad_p g]
    for order 1: shape (|S|, m), or (|S|, 4m) with gradient column
    m + 3j + p; FoldySystem's node table T for the centres.  The transpose
    holds the target rows [g(p_i, z); grad_x g(p_i, z)]: g depends on
    y - x only through r, and grad_x g(p, z) = grad_y g(z, p)."""
    return kernel_matrix(medium.grid.nodes[medium._support], medium.k, (0, order), pts)


def split_stacked(stack, order=0) -> list:
    """The blocks [K] (order 0), [K, grad_x K, grad_y K] (n,m,3) (order 1)
    and d^2 K / dx_q dy_p (n,m,3,3) [q,p] (order 2) of a stacked kernel in
    the layout of FoldySystem's unknowns and medium._kernel_chunks, as views."""
    if order == 0:
        return [stack]
    n, m = stack.shape[0] // 4, stack.shape[1] // 4
    blocks = [stack[:n, :m], stack[n:, :m].reshape(n, 3, m).transpose(0, 2, 1),
              stack[:n, m:].reshape(n, m, 3)]
    if order == 2:
        blocks.append(stack[n:, m:].reshape(n, 3, m, 3).transpose(0, 2, 1, 3))
    return blocks


def dense_weighted_kernel(medium: BackgroundMedium, nodes=None) -> np.ndarray:
    """Kw[nodes, nodes] (default: every node), gathered from the generator
    medium._kernel_table in row blocks of at most CHUNK_ENTRIES entries."""
    idx = np.unravel_index(np.arange(medium.grid.size) if nodes is None else nodes,
                           medium.grid.shape)
    n = len(idx[0])
    kw = np.empty((n, n), dtype=complex)
    table = medium._kernel_table
    for s, stop in _row_chunks(n, n):
        rows = slice(s, stop)
        kw[rows] = table[tuple(np.abs(i[rows, None] - i[None, :]) for i in idx)]
    return kw


def grid_solve(medium: BackgroundMedium, rhs) -> np.ndarray:
    """medium._solve_grid by a dense solve: (I + Kw_SS diag(q0_S)) u = rhs
    on S = supp q0, rhs (|S|,) or (|S|, c)."""
    s = medium._support
    a = dense_weighted_kernel(medium, s) * medium.q0[s][None, :]
    a[np.diag_indices_from(a)] += 1.0
    return np.linalg.solve(a, rhs)


def green_blocks(medium: BackgroundMedium, x, y=None, order=0, reflect=False) -> list:
    """Background Green function G(x_i, y_j) and its derivative blocks
    (split_stacked), built block by block: kernel_blocks over all pairs at
    once, minus the volume correction src_x^T D B^-1 src_y (B the grid
    operator on S, D = diag(q0_S) delta^3, src the support tables) cut into
    the same blocks.  Without y the blocks run over pairs of x, with the
    diagonal of each block zeroed: the paper's exact exclusion of m = j;
    with ``reflect`` the diagonal keeps the correction's -C_jj, the
    reflection from the background that FoldySystem's particles feel."""
    pairs = y is None
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    y = x if pairs else np.asarray(y, dtype=float).reshape(-1, 3)
    n = len(x)
    diff, r = _pair_distances(x, y, order)
    if pairs:
        r[np.diag_indices(n)] = 1.0
    free = kernel_blocks(diff, r, medium.k, order)
    blocks = [free[0]] if order == 0 else [free[0], -free[1], *free[1:]]
    diagonal = (np.arange(n), np.arange(n))
    for b in blocks if pairs else ():
        b[diagonal] = 0.0
    if not medium.is_free:
        src = node_columns(medium, y, min(order, 1))
        sol = grid_solve(medium, src) * (medium.q0[medium._support, None] * medium.weight)
        corr = (src if pairs else node_columns(medium, x, min(order, 1))).T @ sol
        blocks = [b - c for b, c in zip(blocks, split_stacked(corr, order))]
    for b in blocks if pairs and not reflect else ():
        b[diagonal] = 0.0
    return blocks


def foldy_matrix(system, reflect=False) -> np.ndarray:
    """The dense system I - K diag(q, -vb) with K the background Green
    function over pairs of the centres (green_blocks): with the paper's zero
    diagonal, the exact exclusion of m = j, or with ``reflect`` the
    background's reflection on the diagonal, which is the particle system
    left of FoldySystem's coupled one once the grid values are eliminated.
    I - G diag(q) (order 0), or the 4M x 4M hard system with its blocks
    scaled by -q and multiplied by vb one block at a time.  In a free
    background it is the matrix that FoldySystem.operator applies."""
    m, mq = len(system.centers), -system.q
    blocks = green_blocks(system.medium, system.centers, order=2 * system.order,
                          reflect=reflect)
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


def coupled_matrix(system) -> np.ndarray:
    """The dense matrix that FoldySystem.operator applies in any background:
    [[B, -T Q / c], [c T^T D, F]] on [v / c on S; particle unknowns], with B
    the grid operator I + Kw_SS diag(q0_S), T the free kernel from the
    centres to the nodes of S (free_kernels), Q the source map
    w -> s = [q u; -vb grad u], c = system.scale, D = diag(q0_S) delta^3 and
    F the free system (foldy_matrix of the same particles in a free
    background); F alone when q0 = 0."""
    med, m, order = system.medium, len(system.centers), system.order
    free_system = copy.copy(system)
    free_system.medium = BackgroundMedium(med.k, med.grid)
    free = foldy_matrix(free_system)
    if med.is_free:
        return free
    s = med._support
    g, *grad = free_kernels(med.grid.nodes[s], system.centers, med.k, order)
    t = np.concatenate([g, *(d.reshape(len(s), 3 * m) for d in grad)], axis=1)
    q = np.zeros((len(free), len(free)), dtype=complex)
    q[np.arange(m), np.arange(m)] = system.q
    for j in range(m * order):
        q[m + 3 * j:m + 3 * j + 3, m + 3 * j:m + 3 * j + 3] = -system.vb
    b = dense_weighted_kernel(med, s) * med.q0[s][None, :]
    b[np.diag_indices_from(b)] += 1.0
    c = system.scale
    return np.block([[b, -t @ q / c], [t.T * (med.q0[s] * med.weight * c)[None, :], free]])


def exact_exclusion_solve(medium: BackgroundMedium, cloud: ParticleCloud, alpha):
    """The paper's model, in which particle j does not feel its own
    reflection from the background: the dense solve of foldy_matrix(system)
    for [u0; grad u0] at the centres, as a Solution whose Sources
    carry the particle density -q0 delta^3 B^-1 T s of a dense grid solve."""
    alpha = _unit(alpha)
    system = FoldySystem(medium, cloud)
    u0 = incident_values(medium, alpha, cloud.centers, order=system.order)
    w = np.linalg.solve(foldy_matrix(system), u0)
    result = system.result(np.concatenate([np.zeros(system.grid_unknowns), w]), alpha,
                           medium.source_density(alpha), residual=0.0)
    dipoles = [] if result.sources.dipoles is None else [result.sources.dipoles.reshape(-1)]
    if not medium.is_free:
        sources = node_columns(medium, cloud.centers, system.order) @ np.concatenate(
            [result.sources.charges, *dipoles])
        result.sources = replace(result.sources,
                                 density=medium._support_density(grid_solve(medium, sources)))
    return result


def _extend(medium: BackgroundMedium, f, u) -> np.ndarray:
    """Node values of the solution of (I + Kw diag(q0)) x = f from its
    support values u: x_S = u and x_O = f_O - (Kw diag(q0) x)_O off S,
    by one FFT apply (none when S holds every node)."""
    x = np.array(f, dtype=complex)
    s = medium._support
    if np.any(medium.q0 == 0):
        x -= medium._apply_weighted_kernel(medium._on_grid(medium.q0[s] * u))
    x[s] = u
    return x


def u0_grid(medium: BackgroundMedium, alpha) -> np.ndarray:
    """Incident scattering solution u0(., alpha) at the grid nodes."""
    alpha = _unit(alpha)
    e = medium._plane_wave(alpha)
    return e if medium.is_free else _extend(medium, e, grid_solve(medium, e[medium._support]))


def incident_values(medium: BackgroundMedium, alpha, points, order=0) -> np.ndarray:
    """u0(x, alpha) at arbitrary points via the volume representation, one
    grid solve; order 1 returns [u0 (n,), grad_x u0 (n,3) row-major] as one
    (4n,) vector, the layout of the hard-particle unknowns."""
    return medium.radiate(points, Sources(medium, alpha, background=medium.source_density(alpha)),
                          order=order)


def excluded_field(result: Solution, points, j) -> np.ndarray:
    """The effective field that particle j feels: the field of the result's
    sources with j dropped from the free sources and from the distance
    guard, which keeps the cloud's spacing d.  The particles' node density
    stays whole: j feels its own reflection from the background."""
    sources = result.sources
    keep = np.arange(len(sources.centers)) != j
    dipoles = sources.dipoles
    return replace(sources, centers=sources.centers[keep], charges=sources.charges[keep],
                   dipoles=None if dipoles is None else dipoles[keep]).field(points)


def background_amplitude(medium: BackgroundMedium, betas, alpha) -> np.ndarray:
    """A0(beta, alpha): far-field amplitude of the background alone."""
    return medium.amplitude(betas, Sources(medium, alpha, medium.source_density(alpha)))


def integral_abs_squared(ff: FarField) -> float:
    """Quadrature of |A|^2 over the unit sphere, with the weights of the
    direction grid: Gauss-Legendre in cos(theta), equal in phi (total 4*pi)."""
    grid = ff.grid
    _, w = leggauss(grid.n_theta)
    weights = np.repeat(w, grid.n_phi) * (2.0 * np.pi / grid.n_phi)
    return float(np.sum(weights * np.abs(ff.values) ** 2))


def green_potential_grid(medium: BackgroundMedium, density) -> np.ndarray:
    """Node values of integral G(z_i, y) f(y) dy for a node density f."""
    kwf = medium._apply_weighted_kernel(np.asarray(density, dtype=complex).reshape(-1))
    if medium.is_free:
        return kwf
    return _extend(medium, kwf, grid_solve(medium, kwf[medium._support]))


def weighted_u0_sum_grid(medium, betas, density_times_weight) -> np.ndarray:
    """sum_j u0(z_j,-beta) f_j over grid nodes, f = density * delta^3.

    The literal definition: u0_grid per direction, one support solve each.
    """
    f = np.asarray(density_times_weight, dtype=complex).reshape(-1)
    return np.array([u0_grid(medium, -b) @ f for b in np.atleast_2d(betas)])


def hard_born_approximation(problem: LimitProblem, alpha) -> np.ndarray:
    """One-shot correction from the unperturbed field:

    U = u0 + integral G [Lap u0 nu + sum_pq d/dy_p (du0/dy_q beta_pq nu)] dy,
    with the same grid derivatives and quadrature as solve_limit.
    """
    if not problem.is_hard:
        raise InvariantViolation("hard_born_approximation requires a hard problem")
    medium = problem.medium
    alpha = _unit(alpha)
    u0 = u0_grid(medium, alpha)
    return u0 + green_potential_grid(medium, _hard_source(problem, u0))


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
        green = green_blocks(medium, np.concatenate([x, t]), y)[0]
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


def robin_ball_waves(k: float, a: float, zeta, L: int) -> np.ndarray:
    """Partial-wave coefficients c_0 .. c_L of the field scattered by one ball
    of radius a centred at the origin, with the Robin condition u_r = zeta u
    on its surface (r pointing out of the ball), for u0 = exp(ik alpha.x):
    u = sum_l (2l + 1) i^l (j_l(kr) + c_l h_l(kr)) P_l(alpha.x / r) outside
    the ball, h_l = j_l + i y_l (Colton & Kress, Inverse Acoustic and
    Electromagnetic Scattering Theory, ch. 2)."""
    l, x = np.arange(L + 1), k * a
    j, dj = spherical_jn(l, x), k * spherical_jn(l, x, derivative=True)
    h = j + 1j * spherical_yn(l, x)
    dh = dj + 1j * k * spherical_yn(l, x, derivative=True)
    return -(dj - zeta * j) / (dh - zeta * h)


def robin_ball_far_field(k: float, a: float, zeta, cos_angle, L: int) -> np.ndarray:
    """Exact far-field amplitude A (u - u0 ~ A exp(ikr) / r) of the Robin
    ball of robin_ball_waves, to order L, at directions beta with
    beta.alpha = cos_angle: A = sum_l (2l + 1) c_l P_l(cos_angle) / (ik),
    from h_l(kr) ~ (-i)^(l+1) exp(ikr) / (kr)."""
    c = robin_ball_waves(k, a, zeta, L)
    return legval(np.asarray(cos_angle, dtype=float), (2 * np.arange(L + 1) + 1) * c) / (1j * k)


def scene_command(keys) -> str:
    """The CLI command that runs a scene: the one its sections name."""
    return next((c for k, c in (("limit", "limit"), ("design", "design"), ("study", "study"),
                                ("cloud", "solve")) if k in keys), "validate")
