"""Background medium: grids, Helmholtz kernels, Green function, incident field.

The medium lives on a uniform cell-centered Cartesian grid over an axis-aligned
box.  Volume integrals use midpoint (Nystrom) quadrature with weight delta^3;
the weakly singular self-cell of the free kernel is replaced by the exact cell
integral of 1/(4*pi*r) plus the leading imaginary term i*k*delta^3/(4*pi),
which keeps the discrete model flux-conserving for real potentials.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import runtime
from .errors import InvariantViolation, SingularEvaluationError, SolverFailure

logger = logging.getLogger(__name__)

# integral of 1/(4*pi*|r|) over the unit cube centered at the origin,
# computed offline by pyramid decomposition + adaptive quadrature
# (value of the full 1/r integral: 2.3800773639795536)
CUBE_SELF_INTEGRAL = 0.18940053870923707

# background grid solves: dense LU up to 20^3 nodes; FFT-applied GMRES beyond
DENSE_GRID_CAP = 8000
GMRES_RTOL = 1e-10


def _gmres(matvec, rhs, rtol=GMRES_RTOL, maxiter=400):
    """GMRES on a matvec; returns (solution, info, inner-iteration count)."""
    n = len(rhs)
    count = 0

    def step(_):
        nonlocal count
        count += 1

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
    sol, info = spla.gmres(op, rhs, rtol=rtol, atol=0.0, maxiter=maxiter,
                           callback=step, callback_type="pr_norm")
    return sol, info, count


# ---------------------------------------------------------------------------
# free-space kernels
# ---------------------------------------------------------------------------

def _pair_distances(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    diff = y[None, :, :] - x[:, None, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    return diff, r


def free_kernel(x, y, k):
    """Free-space kernel g(x,y) = exp(ik|x-y|) / (4*pi*|x-y|).

    Accepts single 3-vectors or (n,3)/(m,3) stacks; returns a scalar or an
    (n,m) matrix.  k = 0 gives the static kernel 1/(4*pi*r).
    """
    scalar = np.asarray(x).ndim == 1 and np.asarray(y).ndim == 1
    _, r = _pair_distances(x, y)
    if np.any(r == 0.0):
        raise SingularEvaluationError("free_kernel evaluated at coincident points")
    out = np.exp(1j * k * r) / (4.0 * np.pi * r)
    return out[0, 0] if scalar else out


def free_kernel_grad_y(x, y, k):
    """Gradient of g with respect to its second argument.

    grad_y g = g * (ik - 1/r) * (y - x)/r; shape (n,m,3).
    """
    scalar = np.asarray(x).ndim == 1 and np.asarray(y).ndim == 1
    diff, r = _pair_distances(x, y)
    if np.any(r == 0.0):
        raise SingularEvaluationError("kernel gradient at coincident points")
    g = np.exp(1j * k * r) / (4.0 * np.pi * r)
    out = (g * (1j * k - 1.0 / r))[:, :, None] * (diff / r[:, :, None])
    return out[0, 0] if scalar else out


def free_kernel_hess_xy(x, y, k):
    """Mixed second derivative d^2 g / dx_q dy_p, shape (n,m,3,3) [q,p]."""
    scalar = np.asarray(x).ndim == 1 and np.asarray(y).ndim == 1
    diff, r = _pair_distances(x, y)
    if np.any(r == 0.0):
        raise SingularEvaluationError("kernel Hessian at coincident points")
    g = np.exp(1j * k * r) / (4.0 * np.pi * r)
    f1 = g * (1j * k - 1.0 / r)
    f2 = g * (-(k ** 2) - 2j * k / r + 2.0 / r ** 2)
    u = diff / r[:, :, None]
    uu = u[:, :, :, None] * u[:, :, None, :]
    eye = np.eye(3)[None, None, :, :]
    hess_yy = f2[:, :, None, None] * uu + f1[:, :, None, None] * (eye - uu) / r[:, :, None, None]
    out = -hess_yy
    return out[0, 0] if scalar else out


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered Cartesian grid over an axis-aligned box."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        shape = np.asarray(self.shape, dtype=int)
        if lo.shape != (3,) or hi.shape != (3,) or shape.shape != (3,):
            raise ValueError("lo, hi, shape must be 3-vectors")
        if np.any(hi <= lo) or np.any(shape < 1):
            raise ValueError("degenerate box or grid shape")
        spacings = (hi - lo) / shape
        if not np.allclose(spacings, spacings[0], rtol=1e-9, atol=0.0):
            raise ValueError(f"grid spacing must be uniform across axes, got {spacings}")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))
        object.__setattr__(self, "shape", tuple(int(n) for n in shape))

    @property
    def delta(self) -> float:
        return (self.hi[0] - self.lo[0]) / self.shape[0]

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    @cached_property
    def axes(self) -> list:
        """Cell-center coordinates along each axis."""
        return [self.lo[i] + (np.arange(self.shape[i]) + 0.5) * self.delta for i in range(3)]

    @cached_property
    def nodes(self) -> np.ndarray:
        """Cell centers, shape (size, 3), C order (x-major)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, 3)

    def cell_index(self, points) -> np.ndarray:
        """Flat node index of the cell containing each point; -1 if outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lo)
        idx = np.floor((pts - lo) / self.delta).astype(int)
        inside = np.all((idx >= 0) & (idx < np.asarray(self.shape)), axis=1)
        flat = np.full(len(pts), -1, dtype=int)
        if np.any(inside):
            flat[inside] = np.ravel_multi_index(tuple(idx[inside].T), self.shape)
        return flat

    def value_at_cells(self, values, points, outside=0.0):
        """Sample a node field at arbitrary points by containing-cell lookup."""
        values = np.asarray(values).reshape(-1)
        flat = self.cell_index(points)
        out = np.full(flat.shape, outside, dtype=values.dtype)
        hit = flat >= 0
        out[hit] = values[flat[hit]]
        return out


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


@dataclass
class ComplexField:
    """Complex samples at a point set, tagged with the incident direction.

    Fields produced by an iterative solve also carry its relative residual
    and iteration count.
    """

    points: np.ndarray
    values: np.ndarray
    incident_direction: np.ndarray
    residual: float | None = None
    iterations: int | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        self.incident_direction = np.asarray(self.incident_direction, dtype=float).reshape(3)
        if len(self.points) != len(self.values):
            raise InvariantViolation("points and values must have equal length")
        if abs(np.linalg.norm(self.incident_direction) - 1.0) > 1e-12:
            raise InvariantViolation("incident direction must be a unit vector")

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# background medium
# ---------------------------------------------------------------------------

class BackgroundMedium:
    """Background medium (k, n0, q0) with its volume quadrature grid.

    Immutable after construction; all heavy state (kernel generator, LU factors,
    per-direction incident solves) is memoized internally.
    """

    def __init__(self, k: float, grid: Grid, n0=1.0):
        if not k > 0:
            raise InvariantViolation("wavenumber k must be positive")
        self.k = float(k)
        self.grid = grid
        if callable(n0):
            n0_vals = np.asarray(n0(grid.nodes), dtype=complex).reshape(-1)
        else:
            n0_vals = np.broadcast_to(np.asarray(n0, dtype=complex).reshape(-1), (grid.size,)).copy() \
                if np.asarray(n0).size == 1 else np.asarray(n0, dtype=complex).reshape(-1)
        if n0_vals.size != grid.size:
            raise InvariantViolation("n0 sample count does not match the grid")
        self.n0 = n0_vals
        self.q0 = self.k ** 2 * (1.0 - n0_vals)
        if np.any(self.q0.imag > 1e-14 * self.k ** 2):
            raise InvariantViolation("Im q0 must be <= 0 (passive medium)")
        self._u0_cache: dict = {}
        self._lu = None

    # -- basic properties ---------------------------------------------------

    @property
    def is_free(self) -> bool:
        """True when q0 vanishes everywhere (homogeneous background)."""
        return bool(np.all(self.q0 == 0.0))

    @property
    def weight(self) -> float:
        """Midpoint quadrature weight delta^3."""
        return self.grid.delta ** 3

    def q0_at(self, points) -> np.ndarray:
        """q0 sampled by containing cell; zero outside the box."""
        return self.grid.value_at_cells(self.q0, points, outside=0.0 + 0.0j)

    # -- Nystrom engine -----------------------------------------------------

    @cached_property
    def _kernel_table(self) -> np.ndarray:
        """Kw generator: g(delta*m)*delta^3 over offsets m >= 0 per axis.

        Kw is three-level Toeplitz and even in each axis offset, so entry
        (z_i, z_j) is this table at |i - j| per axis; m = 0 holds the
        corrected singular diagonal.
        """
        delta = self.grid.delta
        m = np.meshgrid(*[np.arange(n) for n in self.grid.shape], indexing="ij", sparse=True)
        r = delta * np.sqrt(m[0] ** 2 + m[1] ** 2 + m[2] ** 2)
        r[0, 0, 0] = 1.0
        table = np.exp(1j * self.k * r) / (4.0 * np.pi * r) * delta ** 3
        table[0, 0, 0] = CUBE_SELF_INTEGRAL * delta ** 2 + 1j * self.k * delta ** 3 / (4.0 * np.pi)
        return table

    @cached_property
    def _kernel_spectrum(self) -> np.ndarray:
        """FFT of the generator's circulant embedding, 2n_i per axis."""
        import scipy.fft as sfft  # deferred: only grid-FFT runs pay its import

        t = self._kernel_table
        for ax, n in enumerate(self.grid.shape):
            gap = np.zeros_like(t.take([0], axis=ax))
            t = np.concatenate([t, gap, np.flip(t.take(np.arange(1, n), axis=ax), axis=ax)], axis=ax)
        return sfft.fftn(t, workers=runtime.thread_count())

    def _apply_weighted_kernel(self, f: np.ndarray) -> np.ndarray:
        """Kw @ f by FFT convolution; f is (N,) or a block of columns (N, c)."""
        import scipy.fft as sfft

        f = np.asarray(f, dtype=complex)
        shape = self.grid.shape
        cols = f.reshape(shape + (-1,))
        pad = tuple(2 * n for n in shape)
        workers = runtime.thread_count()
        spec = sfft.fftn(cols, s=pad, axes=(0, 1, 2), workers=workers)
        spec *= self._kernel_spectrum[..., None]
        out = sfft.ifftn(spec, axes=(0, 1, 2), workers=workers, overwrite_x=True)
        return out[:shape[0], :shape[1], :shape[2]].reshape(f.shape)

    def _dense_weighted_kernel(self) -> np.ndarray:
        """Kw as an (N, N) matrix, gathered from the generator."""
        shape = self.grid.shape
        offs = [np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) for n in shape]
        kw = self._kernel_table[offs[0][:, None, None, :, None, None],
                                offs[1][None, :, None, None, :, None],
                                offs[2][None, None, :, None, None, :]]
        return kw.reshape(self.grid.size, self.grid.size)

    def _factorization(self):
        """LU of I + Kw diag(q0), kept with the matrix for residual checks."""
        if self._lu is None:
            a = self._dense_weighted_kernel()
            a *= self.q0[None, :]
            a[np.diag_indices_from(a)] += 1.0
            self._lu = (sla.lu_factor(a), a)
        return self._lu

    def _solve_grid(self, rhs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve (I + Kw diag(q0)) u = rhs on the grid (or its transpose).

        Dense LU up to DENSE_GRID_CAP nodes, where the many Green-column
        right-hand sides amortize it; FFT-applied GMRES beyond.
        """
        rhs = np.asarray(rhs, dtype=complex)
        cols = rhs.reshape(self.grid.size, -1)
        if self.grid.size <= DENSE_GRID_CAP:
            lu, a = self._factorization()
            sol = sla.lu_solve(lu, cols, trans=1 if adjoint else 0)
            ax = (a.T if adjoint else a) @ sol
        else:
            sol = self._solve_grid_iterative(cols, adjoint)
            ax = self._apply_grid_operator(sol, adjoint=adjoint)
        resid = float(np.linalg.norm(ax - cols) / max(np.linalg.norm(cols), 1e-300))
        if resid > 1e-8:
            raise SolverFailure(
                f"grid solve residual {resid:.2e} exceeds tolerance", residual=resid)
        return sol.reshape(rhs.shape)

    def _apply_grid_operator(self, u: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """(I + Kw diag(q0)) u, or its transpose; Kw is complex symmetric."""
        q0 = self.q0.reshape((-1,) + (1,) * (u.ndim - 1))
        if adjoint:
            return u + q0 * self._apply_weighted_kernel(u)
        return u + self._apply_weighted_kernel(q0 * u)

    def _solve_grid_iterative(self, cols, adjoint):
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            out[:, j], info, _ = _gmres(
                lambda u: self._apply_grid_operator(u, adjoint=adjoint), cols[:, j])
            if info != 0:
                raise SolverFailure(f"grid GMRES did not converge (info={info})")
        return out

    # -- incident field -----------------------------------------------------

    def u0_grid(self, alpha) -> np.ndarray:
        """Incident scattering solution u0(., alpha) at the grid nodes."""
        alpha = _unit(alpha)
        key = tuple(np.round(alpha, 15))
        if key not in self._u0_cache:
            e = np.exp(1j * self.k * self.grid.nodes @ alpha)
            self._u0_cache[key] = e if self.is_free else self._solve_grid(e)
        return self._u0_cache[key]

    def incident_values(self, alpha, points) -> np.ndarray:
        """u0(x, alpha) at arbitrary points via the volume representation."""
        alpha = _unit(alpha)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        plane = np.exp(1j * self.k * pts @ alpha)
        if self.is_free:
            return plane
        u0g = self.u0_grid(alpha)
        gmat = free_kernel(pts, self.grid.nodes, self.k)
        return plane - gmat @ (self.q0 * u0g * self.weight)

    def incident_gradient(self, alpha, points) -> np.ndarray:
        """grad_x u0(x, alpha), shape (n,3)."""
        alpha = _unit(alpha)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        plane = np.exp(1j * self.k * pts @ alpha)
        grad = 1j * self.k * alpha[None, :] * plane[:, None]
        if self.is_free:
            return grad
        u0g = self.u0_grid(alpha)
        ggrad = -free_kernel_grad_y(pts, self.grid.nodes, self.k)  # grad wrt first argument
        return grad - np.einsum("xnp,n->xp", ggrad, self.q0 * u0g * self.weight)

    # -- Green function -----------------------------------------------------

    def _grid_green_columns(self, y):
        """G(z_i, y_j) for source points y (must avoid grid nodes)."""
        rhs = free_kernel(self.grid.nodes, y, self.k)
        return self._solve_grid(rhs)

    def green_matrix(self, x, y) -> np.ndarray:
        """Background Green function G(x_i, y_j), shape (n,m)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        g = free_kernel(x, y, self.k)
        if self.is_free:
            return g
        gy = self._grid_green_columns(y)
        outer = free_kernel(x, self.grid.nodes, self.k)
        return g - outer @ (self.q0[:, None] * self.weight * gy)

    def green_grad_y_matrix(self, x, y) -> np.ndarray:
        """grad_y G(x_i, y_j), shape (n,m,3)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        gg = free_kernel_grad_y(x, y, self.k)
        if self.is_free:
            return gg
        rhs = free_kernel_grad_y(self.grid.nodes, y, self.k)  # (N,m,3)
        n, m = rhs.shape[0], rhs.shape[1]
        sol = self._solve_grid(rhs.reshape(n, m * 3)).reshape(n, m, 3)
        outer = free_kernel(x, self.grid.nodes, self.k)
        return gg - np.einsum("xn,nmp->xmp", outer, self.q0[:, None, None] * self.weight * sol)

    def green_grad_x_matrix(self, x, y) -> np.ndarray:
        """grad_x G(x_i, y_j), shape (n,m,3)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        gx = -free_kernel_grad_y(x, y, self.k)
        if self.is_free:
            return gx
        gy = self._grid_green_columns(y)
        outer = -free_kernel_grad_y(x, self.grid.nodes, self.k)  # (n,N,3) grad wrt x
        return gx - np.einsum("xnp,nm->xmp", outer, self.q0[:, None] * self.weight * gy)

    def green_hess_xy_matrix(self, x, y) -> np.ndarray:
        """d^2 G / dx_q dy_p, shape (n,m,3,3) [q,p]."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        h = free_kernel_hess_xy(x, y, self.k)
        if self.is_free:
            return h
        rhs = free_kernel_grad_y(self.grid.nodes, y, self.k)
        n, m = rhs.shape[0], rhs.shape[1]
        sol = self._solve_grid(rhs.reshape(n, m * 3)).reshape(n, m, 3)
        outer = -free_kernel_grad_y(x, self.grid.nodes, self.k)
        return h - np.einsum("xnq,nmp->xmqp", outer, self.q0[:, None, None] * self.weight * sol)

    # -- volume potentials with the G kernel ---------------------------------

    def green_potential_grid(self, density) -> np.ndarray:
        """Node values of integral G(z_i, y) f(y) dy for a node density f."""
        kwf = self._apply_weighted_kernel(np.asarray(density, dtype=complex).reshape(-1))
        if self.is_free:
            return kwf
        return self._solve_grid(kwf)

    def green_potential_at(self, points, density) -> np.ndarray:
        """integral G(x, y) f(y) dy at arbitrary points for a node density f."""
        f = np.asarray(density, dtype=complex).reshape(-1)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        gmat = free_kernel(pts, self.grid.nodes, self.k)
        direct = gmat @ (f * self.weight)
        if self.is_free:
            return direct
        correction = self.q0 * self.weight * self.green_potential_grid(f)
        return direct - gmat @ correction

    def solve_adjoint(self, rhs) -> np.ndarray:
        """Solve the transposed grid system; used for amplitude extraction."""
        if self.is_free:
            return np.asarray(rhs, dtype=complex)
        return self._solve_grid(rhs, adjoint=True)

    # -- weighted far-field sums ----------------------------------------------

    def _phase(self, betas, points) -> np.ndarray:
        """exp(-ik beta.x) for each (beta, point), shape (nb, M).

        The phase is formed as a real product first: the exp of a complex
        matmul's output runs several times slower on OpenBLAS builds.
        """
        return np.exp(-1j * (self.k * (betas @ np.asarray(points).T)))

    def _grid_phase_sum(self, betas, values) -> np.ndarray:
        """sum_j exp(-ik beta.z_j) f_j over grid nodes, for each beta.

        The phase factorizes per axis, so three (nb, n_i) tables are
        contracted with the node field instead of an (nb, N) phase matrix.
        """
        g = self.grid
        e1, e2, e3 = (self._phase(betas[:, i:i + 1], g.axes[i][:, None]) for i in range(3))
        f = np.asarray(values, dtype=complex).reshape(g.shape)
        t = f.reshape(-1, g.shape[2]) @ e3.T  # (n1*n2, nb)
        t = np.einsum("abk,kb->ak", t.reshape(g.shape[0], g.shape[1], -1), e2)
        return np.einsum("ak,ka->k", t, e1)

    def weighted_u0_sum(self, betas, points, monopole, dipole=None) -> np.ndarray:
        """sum_m [u0(x_m,-beta) w_m + grad u0(x_m,-beta) . v_m] for each beta.

        monopole w has shape (M,), dipole v shape (M,3) or None.  Evaluated
        with one adjoint grid solve regardless of the number of directions.
        """
        betas = np.atleast_2d(np.asarray(betas, dtype=float))
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.asarray(monopole, dtype=complex).reshape(-1)
        phase = self._phase(betas, pts)  # (nb, M)
        out = phase @ w
        if dipole is not None:
            v = np.asarray(dipole, dtype=complex).reshape(-1, 3)
            out += np.einsum("bm,bp,mp->b", phase, -1j * self.k * betas, v)
        if self.is_free:
            return out
        # volume correction: one transposed solve against the combined source
        nodes = self.grid.nodes
        src = free_kernel(pts, nodes, self.k).T @ w  # (N,)
        if dipole is not None:
            gx = -free_kernel_grad_y(pts, nodes, self.k)  # grad wrt x_m
            src += np.einsum("mnp,mp->n", gx, v)
        adj = self.solve_adjoint(self.q0 * self.weight * src)
        return out - self._grid_phase_sum(betas, adj)

    def weighted_u0_sum_grid(self, betas, density_times_weight) -> np.ndarray:
        """sum_j u0(z_j,-beta) f_j over grid nodes, f = density * delta^3."""
        betas = np.atleast_2d(np.asarray(betas, dtype=float))
        return self._grid_phase_sum(betas, self.solve_adjoint(density_times_weight))

    def background_amplitude(self, betas, alpha) -> np.ndarray:
        """A0(beta, alpha): far-field amplitude of the background alone."""
        betas = np.atleast_2d(np.asarray(betas, dtype=float))
        if self.is_free:
            return np.zeros(len(betas), dtype=complex)
        u0g = self.u0_grid(alpha)
        return -self._grid_phase_sum(betas, self.q0 * u0g * self.weight) / (4.0 * np.pi)

    # -- pairwise kernels with excluded diagonal ------------------------------

    def _free_pairs(self, pts, func):
        """func(diff, r) over all pairs, any trailing shape, diagonal zeroed."""
        diff = pts[None, :, :] - pts[:, None, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        m = len(pts)
        if np.any(r[~np.eye(m, dtype=bool)] == 0.0):
            raise SingularEvaluationError("coincident particle centers")
        np.fill_diagonal(r, 1.0)
        out = func(diff, r)
        out[np.arange(m), np.arange(m)] = 0.0
        return out

    def green_pairs(self, pts) -> np.ndarray:
        """G(x_i, x_j) over one point set with zero diagonal."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        g = self._free_pairs(pts, lambda diff, r: np.exp(1j * self.k * r) / (4 * np.pi * r))
        if self.is_free:
            return g
        gy = self._grid_green_columns(pts)
        outer = free_kernel(pts, self.grid.nodes, self.k)
        corr = outer @ (self.q0[:, None] * self.weight * gy)
        corr[np.arange(len(pts)), np.arange(len(pts))] = 0.0
        return g - corr

    def green_grad_y_pairs(self, pts) -> np.ndarray:
        """grad_y G(x_i, x_j) with zero diagonal, shape (M,M,3)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)

        def grad(diff, r):
            g = np.exp(1j * self.k * r) / (4 * np.pi * r)
            return (g * (1j * self.k - 1.0 / r))[:, :, None] * diff / r[:, :, None]

        gg = self._free_pairs(pts, grad)
        if self.is_free:
            return gg
        rhs = free_kernel_grad_y(self.grid.nodes, pts, self.k)
        n, m = rhs.shape[0], rhs.shape[1]
        sol = self._solve_grid(rhs.reshape(n, m * 3)).reshape(n, m, 3)
        outer = free_kernel(pts, self.grid.nodes, self.k)
        corr = np.einsum("xn,nmp->xmp", outer, self.q0[:, None, None] * self.weight * sol)
        corr[np.arange(m), np.arange(m), :] = 0.0
        return gg - corr

    def green_grad_x_pairs(self, pts) -> np.ndarray:
        """grad_x G(x_i, x_j) with zero diagonal, shape (M,M,3)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)

        def gradx(diff, r):
            g = np.exp(1j * self.k * r) / (4 * np.pi * r)
            return -(g * (1j * self.k - 1.0 / r))[:, :, None] * diff / r[:, :, None]

        gx = self._free_pairs(pts, gradx)
        if self.is_free:
            return gx
        gy = self._grid_green_columns(pts)
        outer = -free_kernel_grad_y(pts, self.grid.nodes, self.k)
        corr = np.einsum("xnp,nm->xmp", outer, self.q0[:, None] * self.weight * gy)
        m = len(pts)
        corr[np.arange(m), np.arange(m), :] = 0.0
        return gx - corr

    def green_hess_xy_pairs(self, pts) -> np.ndarray:
        """d^2 G / dx_q dy_p over pairs with zero diagonal, shape (M,M,3,3)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)

        def hess(diff, r):
            g = np.exp(1j * self.k * r) / (4 * np.pi * r)
            f1 = g * (1j * self.k - 1.0 / r)
            f2 = g * (-(self.k ** 2) - 2j * self.k / r + 2.0 / r ** 2)
            u = diff / r[:, :, None]
            uu = u[:, :, :, None] * u[:, :, None, :]
            eye = np.eye(3)[None, None, :, :]
            return -(f2[:, :, None, None] * uu
                     + f1[:, :, None, None] * (eye - uu) / r[:, :, None, None])

        h = self._free_pairs(pts, hess)
        if self.is_free:
            return h
        rhs = free_kernel_grad_y(self.grid.nodes, pts, self.k)
        n, m = rhs.shape[0], rhs.shape[1]
        sol = self._solve_grid(rhs.reshape(n, m * 3)).reshape(n, m, 3)
        outer = -free_kernel_grad_y(pts, self.grid.nodes, self.k)
        corr = np.einsum("xnq,nmp->xmqp", outer, self.q0[:, None, None] * self.weight * sol)
        corr[np.arange(m), np.arange(m), :, :] = 0.0
        return h - corr


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-12:
        raise InvariantViolation(f"direction must be a unit vector (|v| = {nrm})")
    return v


def far_probe_points(grid: Grid, radius_factor: float = 5.0) -> np.ndarray:
    """26 far-zone points on a sphere of radius factor * diam(box) around it."""
    lo = np.asarray(grid.lo)
    hi = np.asarray(grid.hi)
    center = 0.5 * (lo + hi)
    diam = float(np.linalg.norm(hi - lo))
    dirs = np.array([[i, j, l] for i in (-1, 0, 1) for j in (-1, 0, 1)
                     for l in (-1, 0, 1) if (i, j, l) != (0, 0, 0)], dtype=float)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return center + radius_factor * diam * dirs


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def background_green(medium: BackgroundMedium, x, y) -> complex:
    """G(x,y) for a single point pair (G = g when q0 vanishes)."""
    return complex(medium.green_matrix(x, y)[0, 0])


def background_green_grad(medium: BackgroundMedium, x, y) -> np.ndarray:
    """grad_y G(x,y) for a single point pair, shape (3,)."""
    return medium.green_grad_y_matrix(x, y)[0, 0]


def incident_field(medium: BackgroundMedium, alpha, points) -> ComplexField:
    """Incident scattering solution u0(., alpha) sampled at points."""
    alpha = _unit(alpha)
    values = medium.incident_values(alpha, points)
    return ComplexField(points=np.atleast_2d(points), values=values, incident_direction=alpha)


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

    @property
    def denominator(self) -> float:
        return self.a / self.d ** 2 + self.k * self.a / self.d


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
    gx = np.array([free_kernel(x[i], y[i], k) for i in range(sample_count)])
    gt = np.array([free_kernel(t[i], y[i], k) for i in range(sample_count)])
    diff_g = np.abs(gt - gx)
    if medium.is_free:
        diff_green = diff_g
    else:
        green_x = np.array([background_green(medium, x[i], y[i]) for i in range(sample_count)])
        green_t = np.array([background_green(medium, t[i], y[i]) for i in range(sample_count)])
        diff_green = np.abs(green_t - green_x)
    return LemmaBoundsReport(
        a=a, d=d, k=k, samples=sample_count,
        max_ratio_g=float(diff_g.max() / denom),
        max_ratio_green=float(diff_green.max() / denom),
        max_diff_g=float(diff_g.max()),
    )
