"""Background medium: grids, Helmholtz kernels, Green function, incident field.

The medium lives on a uniform cell-centered Cartesian grid over an axis-aligned
box.  Volume integrals use midpoint (Nystrom) quadrature with weight delta^3;
the weakly singular self-cell of the free kernel is replaced by the exact cell
integral of 1/(4*pi*r) plus the leading imaginary term i*k*delta^3/(4*pi),
which keeps the discrete model flux-conserving for real potentials.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily: at import here, not in a run)

from . import runtime
from .directions import DirectionGrid, FarField
from .errors import InvariantViolation, SingularEvaluationError, SolverFailure

logger = logging.getLogger(__name__)

# integral of 1/(4*pi*|r|) over the unit cube centered at the origin,
# computed offline by pyramid decomposition + adaptive quadrature
# (value of the full 1/r integral: 2.3800773639795536)
CUBE_SELF_INTEGRAL = 0.18940053870923707

# every linear solve of the package: relative residual bound, GMRES restart
# length and budget of restarts
RESIDUAL_TOL = 1e-10
GMRES_RESTART = 20
GMRES_MAXITER = 400

# entries per chunk of a kernel or phase table, and per part of the fused
# middle stage of a box convolution: 1 MiB of complex entries, below the
# mmap threshold of cli.MMAP_THRESHOLD, so chunks reuse freed heap
# (measured; README "Numerical choices")
CHUNK_ENTRIES = 2 ** 16

# the most entries of a kernel table that _KernelSlabs stores, 256 MiB: the
# pair kernel of 4000 unknowns (measured; README "Numerical choices"); not
# measured for the node table T of a non-free cloud, which it also bounds
STORE_MAX_ENTRIES = 4000 ** 2

# lattice_of refuses a lattice whose box holds more than this many sites per
# particle: its FFTs would cost more than the pairs they replace
LATTICE_FILL = 8


def _rotation(f, g):
    """(c, s, r) with [[c, s], [-conj(s), c]] (f, g) = (r, 0) and c real.

    The unscaled formulas of LAPACK's zlartg, for entries far from under-
    and overflow (GMRES's Hessenberg entries are of the order of ||A||).
    """
    if g == 0:
        return 1.0, 0j, f
    g2 = g.real * g.real + g.imag * g.imag
    if f == 0:
        d = math.sqrt(g2)
        return 0.0, g.conjugate() / d, complex(d)
    f2 = f.real * f.real + f.imag * f.imag
    h2 = f2 + g2
    c = math.sqrt(f2 / h2)
    return c, g.conjugate() * (f / math.sqrt(f2 * h2)), f / c


def _gmres(apply, b):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986)
    856) for A x = b from x = 0, with apply(x) = A x.

    As scipy.sparse.linalg.gmres with rtol RESIDUAL_TOL, atol 0 and no
    preconditioner: at most GMRES_MAXITER restarts of GMRES_RESTART inner
    iterations, modified Gram-Schmidt on np.vdot, Givens rotations, and the
    inner-tolerance control of scipy's gh-8400.  Each restart ends on the
    true residual b - A x.  Returns (x, A x, inner iterations, converged).
    """
    n = len(b)
    x = np.zeros(n, dtype=complex)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, x.copy(), 0, True
    atol = RESIDUAL_TOL * bnorm
    eps = np.finfo(float).eps
    m = min(GMRES_RESTART, n)
    v = np.empty((m + 1, n), dtype=complex)
    h = np.zeros((m, m + 1), dtype=complex)  # row j: column j of the Hessenberg matrix
    r, ptol, factor, inner = b, atol, 1.0, 0
    for _ in range(GMRES_MAXITER):
        beta = np.linalg.norm(r)
        v[0] = r * (1 / beta)
        s = [complex(beta)] + [0j] * m  # rotated right-hand side
        rotations = []
        breakdown = False
        for col in range(m):
            w = apply(v[col])
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                h[col, k] = np.vdot(v[k], w)
                w -= h[col, k] * v[k]
            h1 = np.linalg.norm(w)
            v[col + 1] = w
            breakdown = h1 <= eps * h0  # the Krylov space holds the solution
            if not breakdown:
                v[col + 1] *= 1 / h1
            hc = [complex(z) for z in h[col, :col + 1]] + [0j if breakdown else complex(h1)]
            for k, (c, sn) in enumerate(rotations):
                hc[k], hc[k + 1] = c * hc[k] + sn * hc[k + 1], -sn.conjugate() * hc[k] + c * hc[k + 1]
            c, sn, hc[col] = _rotation(hc[col], hc[col + 1])
            rotations.append((c, sn))
            h[col, :col + 1] = hc[:col + 1]
            s[col], s[col + 1] = c * s[col], -sn.conjugate() * s[col]
            presid = abs(s[col + 1])
            inner += 1
            if presid <= ptol or breakdown:
                break
        # back-substitute the triangular system, skipping zero pivots
        if hc[col] == 0:
            s[col] = 0j
        y = np.array(s[:col + 1])
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        ax = apply(x)
        r = b - ax
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        factor = max(eps, 0.25 * factor) if presid <= ptol else min(1.0, 1.5 * factor)
        ptol = presid * min(factor, atol / rnorm)
    return x, ax, inner, bool(rnorm <= atol)


def _solve_checked(apply, rhs, what):
    """Solve A x = rhs by _gmres, where apply(x) = A x.

    Raises SolverFailure when rhs is not finite, or when GMRES stops early,
    with an estimate of the spectral radius of A - I.  Returns (x, residual
    ||A x - rhs|| / ||rhs||, GMRES inner-iteration count).
    """
    rhs = np.asarray(rhs, dtype=complex)
    if not np.isfinite(rhs).all():
        raise SolverFailure(f"{what}: right-hand side has non-finite entries")
    sol, ax, iterations, converged = _gmres(apply, rhs)
    if not converged:
        # power iteration on A - I: rho >= 1 means A's Neumann series diverges
        v, rho = [1.0, 1j] @ np.random.default_rng(0).normal(size=(2, len(rhs))), 0.0
        for _ in range(12):
            v = v / np.linalg.norm(v)
            v = apply(v) - v
            rho = float(np.linalg.norm(v))
            if rho == 0.0:
                break
        raise SolverFailure(
            f"{what}: GMRES did not converge in {GMRES_MAXITER} restarts; spectral "
            f"radius estimate of A - I {rho:.3f}", spectral_radius=rho)
    resid = float(np.linalg.norm(ax - rhs) / max(np.linalg.norm(rhs), 1e-300))
    logger.debug("%s: residual %.2e, %d GMRES iterations", what, resid, iterations)
    return sol, resid, iterations


# ---------------------------------------------------------------------------
# free-space kernels
# ---------------------------------------------------------------------------

def _radial(r, k, order):
    """Radial factors of g = exp(ikr)/(4 pi r) up to the given derivative
    order, with u = (y - x)/r: [g]; [g, f1] with grad_y g = f1 u; and
    [g, f1, f2 - f1/r, f1/r] with
    d^2 g / dx_q dy_p = -((f2 - f1/r) u_q u_p + (f1/r) delta_qp).

    Each product's factors are named: numpy computes g * (temporary) of
    256 KiB or more in the temporary with the operands swapped, which moves
    the last bit with the size of the table.
    """
    g = np.exp(1j * k * r) / (4.0 * np.pi * r)
    if order == 0:
        return [g]
    t = 1j * k - 1.0 / r
    f1 = g * t
    if order == 1:
        return [g, f1]
    t = -(k ** 2) - 2j * k / r + 2.0 / r ** 2
    f2 = g * t
    f1r = f1 / r
    return [g, f1, f2 - f1r, f1r]


def _kernel_planes(diff, r, k, order):
    """The distinct entries of the symmetric pair block
    [[g, grad_y g], [grad_x g, d^2 g / dx dy]] up to derivative order 0 (g),
    1 (g and grad_y g) or 2 (the whole block) over offsets diff = y - x, one
    plane at a time, as (a, b, plane) for components a <= b: 0 is the value
    and 1 + p the derivative along axis p.  grad_x g = -grad_y g is the
    block below the diagonal.
    """
    factors = _radial(r, k, order)
    yield 0, 0, factors[0]
    if order:
        u = [diff[..., p] / r for p in range(3)]
        for p in range(3):
            yield 0, 1 + p, factors[1] * u[p]
    if order == 2:
        fd, f1r = factors[2:]
        for q, p in zip(*np.triu_indices(3)):
            yield 1 + q, 1 + p, -(fd * (u[q] * u[p]) + f1r * float(q == p))


def _norm(dx, dy, dz):
    """|(dx, dy, dz)| = sqrt((dx^2 + dy^2) + dz^2), from the three coordinate
    differences: the summation order of numpy's length-3 reduction, so every
    route to a distance gives the same bits without forming (..., 3) squares."""
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def nearest_distances(points, centers) -> np.ndarray:
    """Distance from each point to its nearest center, of which there is at least one.

    Brute force, O(n M), by _pair_distances over _row_chunks.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    cen = np.asarray(centers, dtype=float).reshape(-1, 3)
    out = np.empty(len(pts))
    for s, stop in _row_chunks(len(pts), len(cen)):
        out[s:stop] = _pair_distances(pts[s:stop], cen)[1].min(axis=1)
    return out


def _pair_distances(x, y, order=0):
    """(y - x, r = |y - x|) over all pairs (x_i, y_j): offsets (n, m, 3) for
    order >= 1, None for order 0, which needs r alone."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if order == 0:
        return None, _norm(*(y[None, :, i] - x[:, None, i] for i in range(3)))
    diff = y[None, :, :] - x[:, None, :]
    return diff, _norm(*np.moveaxis(diff, -1, 0))


def _row_chunks(n, width):
    """(start, stop) of chunks of n rows of ``width`` entries, at most
    CHUNK_ENTRIES entries but two rows where n has two: numpy hands a one-row
    product to BLAS's dot product, which sums in another order than its
    matrix-vector product, so a last single row joins the chunk before it."""
    step = max(2, CHUNK_ENTRIES // max(1, width))
    stops = range(step, n - 1, step)
    return zip((0, *stops), (*stops, n))


def _kernel_chunks(x, k, orders, y=None):
    """The free kernel K(x_i, y_j) of the points x against y (default: x
    against itself, with a zero diagonal) in slabs of rows, as (rows, slab).

    orders = (ox, oy): the rows hold [g; grad_x g] when ox is 1, else g,
    and the columns [g | grad_y g] when oy is 1, else g; with both, the
    lower-right block is d^2 g / dx dy, all in the stacked layout of
    FoldySystem's unknowns.  The kernel is formed for c points of x at a
    time, at most CHUNK_ENTRIES entries (_row_chunks), and yielded as the
    slab of their values (c, m (1 + 3 oy)) and, when ox is 1, of their
    derivatives (3c, m (1 + 3 oy)); rows is the slice of the slab on the
    stacked row axis of all of x.  Each entry has the bits of
    _kernel_planes at every chunk size.
    """
    ox, oy = orders
    n, m = len(x), len(x if y is None else y)
    for s, stop in _row_chunks(n, m * (1 + 3 * ox) * (1 + 3 * oy)):
        c = stop - s
        diff, r = _pair_distances(x[s:stop], x if y is None else y, ox + oy)
        if y is None:
            r[np.arange(c), np.arange(s, stop)] = 1.0
        if np.any(r == 0.0):
            raise SingularEvaluationError("Helmholtz kernel evaluated at coincident points")
        block = np.empty((c * (1 + 3 * ox), m * (1 + 3 * oy)), dtype=complex)
        for a, b, plane in _kernel_planes(diff, r, k, ox + oy):
            if a <= 3 * ox and b <= 3 * oy:
                block[_component(a, c), _component(b, m)] = plane
            if a != b and b <= 3 * ox and a <= 3 * oy:  # the mirror; grad_x g = -grad_y g
                block[_component(b, c), _component(a, m)] = -plane if a == 0 else plane
        if y is None:
            _zero_diagonal(block, s, ox)
        yield slice(s, stop), block[:c]
        if ox:
            yield slice(n + 3 * s, n + 3 * stop), block[c:]


class _KernelSlabs:
    """The free kernel K(x, y) of _kernel_chunks(x, k, orders, y) for pass
    after pass: written once into one array (``table``) within
    STORE_MAX_ENTRIES entries, else formed again on each pass (``table``
    None).  Iterating yields the (rows, slab) pairs of _kernel_chunks, as
    views of the table or formed; ``@ w`` is one product with the table,
    which BLAS spreads over its threads, or _kernel_sum."""

    def __init__(self, x, k, orders, y=None):
        self.args = (x, k, orders, y)
        n, m = len(x) * (1 + 3 * orders[0]), len(x if y is None else y) * (1 + 3 * orders[1])
        self.table, self.rows = None, []
        if n * m <= STORE_MAX_ENTRIES:
            self.table = np.empty((n, m), dtype=complex)
            for rows, slab in _kernel_chunks(*self.args):
                self.table[rows] = slab
                self.rows.append(rows)

    def __iter__(self):
        if self.table is None:
            return _kernel_chunks(*self.args)
        return ((rows, self.table[rows]) for rows in self.rows)

    def __matmul__(self, w):
        x, k, orders, y = self.args
        return self.table @ w if self.table is not None else _kernel_sum(x, k, orders, w, y)


def _kernel_sum(x, k, orders, w, y=None):
    """K(x, y) @ w over the slabs of _kernel_chunks(x, k, orders, y): each
    row is one product over all of y, whatever the chunk size."""
    out = np.empty(len(x) * (1 + 3 * orders[0]), dtype=complex)
    for rows, slab in _kernel_chunks(x, k, orders, y):
        out[rows] = slab @ w
    return out


def _component(c, n) -> slice:
    """Component c (0: the value, 1 + p: the derivative along axis p) on a
    stacked axis of n points [values (n), derivatives (n, 3) row-major]."""
    return slice(n) if c == 0 else slice(n + c - 1, None, 3)


def _zero_diagonal(block, lo, order):
    """Zero the entries of the pairs (x_lo+i, x_lo+i) in a stacked block of
    the points x[lo:lo + c] against all of x, at order 0 or 1."""
    w = 1 + 3 * order
    c, n = block.shape[0] // w, block.shape[1] // w
    i = np.arange(c)
    for a in range(w):
        for b in range(w):
            block[_component(a, c), _component(b, n)][i, lo + i] = 0.0


# ---------------------------------------------------------------------------
# three-level Toeplitz operators on a box, applied by FFT
# ---------------------------------------------------------------------------

def _embedding_spectrum(table, parity=(1, 1, 1)) -> np.ndarray:
    """FFT of the 2n_i-per-axis circulant embedding of a three-level
    Toeplitz generator given on its first octant.

    table (..., n1, n2, n3) holds the kernel at the index offsets
    m = i - j >= 0 of a box, i.e. at y - x = -m * spacing, with any leading
    component axes.  Each component is even or odd in each offset: parity
    (..., 3) is its sign under m_i -> -m_i.  Embedding position p on axis i
    stands for offset p when p < n_i and for p - 2n_i beyond; the gap plane
    p = n_i, which no pair reaches, is zero.  The spectrum has the parity of
    the table, so each stage (last axis first) keeps only the n_i + 1
    outputs that parity does not fix, and transforms only the lines of
    those that the earlier stages kept; the rest is mirrored in at the end.
    """
    sign = np.asarray(parity, dtype=float)[..., None, None, None, :]
    shape = table.shape[-3:]

    def mirrored(t, axis):  # n + 1 entries along axis extended to 2n by parity
        tail = np.flip(np.take(t, range(1, shape[axis]), axis=axis), axis=axis)
        return np.concatenate([t, sign[..., axis] * tail], axis=axis)

    for axis in (-1, -2, -3):
        gap = [(0, 0)] * table.ndim
        gap[axis] = (0, 1)
        spec = _fft_stage(mirrored(np.pad(table, gap), axis), axis, 2 * shape[axis], False)
        table = np.take(spec, range(shape[axis] + 1), axis=axis)
    for axis in (-1, -2, -3):
        table = mirrored(table, axis)
    return table


def _fft_stage(a, axis, n, inverse) -> np.ndarray:
    """The FFT (ifft when ``inverse``) of a along one box axis (one of the
    last three), padded (forward) or cut (inverse) to n entries.

    The lines are cut into slabs along the longest other box axis and run
    by runtime.run_slabs.  Each line is transformed alone, so the result
    does not depend on the cut.
    """
    axis %= a.ndim
    out = np.empty(a.shape[:axis] + (n,) + a.shape[axis + 1:], dtype=complex)
    cut = max((ax for ax in range(a.ndim - 3, a.ndim) if ax != axis), key=lambda ax: a.shape[ax])

    def run(lo, hi):
        slab = (slice(None),) * cut + (slice(lo, hi),)
        if inverse:
            out[slab] = np.fft.ifft(a[slab], axis=axis)[(slice(None),) * axis + (slice(n),)]
        else:
            out[slab] = np.fft.fft(a[slab], n=n, axis=axis)

    runtime.run_slabs(run, a.shape[cut], out.size)
    return out


class BoxConvolution:
    """f -> sum_j T(i - j) f_j over a box, by FFT, for a symmetric block
    three-level Toeplitz generator T of w x w blocks.

    table (b, n1, n2, n3) holds the b = w (w + 1) / 2 blocks (a, c) of T's
    upper triangle in np.triu_indices(w) order, or (n1, n2, n3) its one
    block, over the index offsets m = i - j >= 0 with parity (b, 3) as in
    _embedding_spectrum; T's block (c, a) is block (a, c).  Columns f are
    (..., w, n1, n2, n3); a one-block generator takes any leading axes.

    The apply is the pruned FFT of McDonald, Golden & Jennings (IJHPCA 23
    (2009) 42): the columns are zero-padded to the 2n_i-per-axis embedding
    one axis at a time, last axis first, so no stage transforms the padding
    of an axis still to come, and the inverse cuts each axis back to n_i
    before the next, so no stage transforms what an earlier one dropped.
    The two stages over the first box axis and the block contraction with
    the spectra run together on parts of at most CHUNK_ENTRIES entries
    along the second box axis, so the padded spectrum is never held whole.
    """

    def __init__(self, table, parity=(1, 1, 1)):
        shape = table.shape[-3:]
        spectra = _embedding_spectrum(table, parity).reshape((-1,) + tuple(2 * n for n in shape))
        w = math.isqrt(2 * len(spectra))  # len(spectra) = w (w + 1) / 2
        upper = [(a, c) for a in range(w) for c in range(a, w)]  # np.triu_indices(w) order
        self.blocks = [(a, c, k) for (a, c), k in zip(upper, spectra)]

    def _contract(self, spec, part):
        """The part [..., :, part, :] of the padded column spectrum times
        the same part of T's spectrum; one block multiplies in place."""
        if len(self.blocks) == 1:
            spec *= self.blocks[0][2][:, part]
            return spec
        out = np.zeros_like(spec)
        for a, c, k in self.blocks:
            k = k[:, part]
            out[..., a, :, :, :] += k * spec[..., c, :, :, :]
            if a != c:
                out[..., c, :, :, :] += k * spec[..., a, :, :, :]
        return out

    def __call__(self, cols) -> np.ndarray:
        shape = cols.shape[-3:]
        half = _fft_stage(_fft_stage(cols, -1, 2 * shape[2], False), -2, 2 * shape[1], False)
        out = np.empty(half.shape, dtype=complex)
        width = max(1, CHUNK_ENTRIES // (2 * half.size // half.shape[-2]))

        def run(lo, hi):
            for s in range(lo, hi, width):
                part = slice(s, min(s + width, hi))
                spec = self._contract(np.fft.fft(half[..., part, :], n=2 * shape[0], axis=-3), part)
                out[..., part, :] = np.fft.ifft(spec, axis=-3)[..., :shape[0], :, :]

        runtime.run_slabs(run, half.shape[-2], 2 * half.size)
        return _fft_stage(_fft_stage(out, -2, shape[1], True), -1, shape[2], True)


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

    def value_at_cells(self, values, points, outside=0.0):
        """Sample a node field at arbitrary points by containing-cell lookup."""
        values = np.asarray(values).reshape(-1)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((pts - np.asarray(self.lo)) / self.delta).astype(int)
        hit = np.all((idx >= 0) & (idx < np.asarray(self.shape)), axis=1)
        out = np.full(len(pts), outside, dtype=values.dtype)
        out[hit] = values[np.ravel_multi_index(tuple(idx[hit].T), self.shape)]
        return out


@dataclass(frozen=True)
class Lattice:
    """Points on the sites origin + index * spacing of a rectangular box."""

    origin: np.ndarray   # (3,) coordinates of site (0, 0, 0)
    spacing: np.ndarray  # (3,) site spacing per axis (0 on an axis of one site)
    shape: tuple         # sites per axis
    index: np.ndarray    # (M,) flat C-order site of each point

    @property
    def axes(self) -> list:
        """Site coordinates along each axis."""
        return [self.origin[i] + np.arange(self.shape[i]) * self.spacing[i] for i in range(3)]

    def scatter(self, values) -> np.ndarray:
        """Per-point values (..., M) placed on the box sites, (..., *shape),
        zero elsewhere."""
        values = np.asarray(values, dtype=complex)
        box = np.zeros(values.shape[:-1] + (int(np.prod(self.shape)),), dtype=complex)
        box[..., self.index] = values
        return box.reshape(values.shape[:-1] + self.shape)

    def gather(self, box) -> np.ndarray:
        """The values (..., M) at the points of a box array (..., *shape)."""
        return box.reshape(box.shape[:-3] + (-1,))[..., self.index]

    def pair_kernel(self, k, order) -> BoxConvolution:
        """s -> sum_{m != j} L(x_m - x_j) s_m over the box sites, by FFT.

        L is the symmetric block [[-g, grad_y g], [grad_y g, d^2 g / dx dy]]
        of derivative order 1, or -g alone at order 0: on the sources
        [q u; vb grad u] it gives -K [q u; -vb grad u], K the free pair
        kernel of FoldySystem.  The pair matrix of a lattice cloud is
        three-level Toeplitz with a zero diagonal (Goodman, Draine & Flatau,
        Opt. Lett. 16 (1991) 1198); L's upper triangle is tabulated once over
        the box offsets (_kernel_planes).  Sources and the result are
        component-major, (1 + 3 order, *shape), so the block contraction
        works on contiguous planes.
        """
        m = np.ix_(*(np.arange(n) for n in self.shape))
        offsets = np.broadcast_arrays(*[-h * mi for h, mi in zip(self.spacing, m)])
        r = _norm(*offsets)
        r[0, 0, 0] = 1.0
        table = np.stack([plane for _, _, plane in
                          _kernel_planes(np.stack(offsets, axis=-1), r, k, 2 * order)])
        table[0] = -table[0]
        table[:, 0, 0, 0] = 0.0  # no self-interaction
        # a derivative along axis i flips the parity of the even g in m_i
        a, b = np.triu_indices(1 + 3 * order)
        e = np.vstack([np.zeros(3, dtype=int), np.eye(3, dtype=int)])
        return BoxConvolution(table, (-1) ** (e[a] + e[b]))


def lattice_of(centers) -> Lattice | None:
    """The rectangular lattice that every centre sits on, or None.

    Per axis, the site spacing is the tolerant common divisor of the gaps
    between distinct coordinates, and every coordinate must then lie on a
    site to 1e-12 of the coordinate scale.  Refuses coincident centres and
    boxes of more than LATTICE_FILL sites per centre.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 3)
    m = len(c)
    if m == 0:
        return None
    lo = c.min(axis=0)
    extent = c.max(axis=0) - lo
    tol = 1e-12 * max(float(np.abs(c).max()), float(extent.max()))
    idx = np.zeros((m, 3), dtype=np.int64)
    spacing = np.zeros(3)
    shape = [1, 1, 1]
    for i in range(3):
        if extent[i] <= tol:
            continue
        gaps = np.diff(np.sort(c[:, i]))  # zero gaps of repeated values fail gaps > tol
        h = extent[i]
        for g in gaps[gaps > tol].tolist():
            while g > tol:  # Euclid on reals: h <- gcd(h, g)
                h, g = g, h % g
                if h - g <= tol:
                    g = 0.0
            if extent[i] / h >= LATTICE_FILL * m:  # early exit: off-lattice clouds
                return None
        shape[i] = int(round(extent[i] / h)) + 1
        spacing[i] = extent[i] / (shape[i] - 1)
        idx[:, i] = np.rint((c[:, i] - lo[i]) / spacing[i])
        if np.max(np.abs(lo[i] + idx[:, i] * spacing[i] - c[:, i])) > tol:
            return None
    if np.prod(np.array(shape, dtype=float)) > LATTICE_FILL * m:
        return None
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    sites = np.sort(flat)
    if np.any(sites[1:] == sites[:-1]):  # coincident centres
        return None
    return Lattice(origin=lo, spacing=spacing, shape=tuple(shape), index=flat)


@dataclass
class ComplexField:
    """Complex samples at a point set, tagged with the incident direction.

    Fields produced by an iterative solve also carry its relative residual
    and iteration count; a limit's grid field also the Sources it radiates.
    """

    points: np.ndarray
    values: np.ndarray
    incident_direction: np.ndarray
    residual: float | None = None
    iterations: int | None = None
    sources: Sources | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        self.incident_direction = np.asarray(self.incident_direction, dtype=float).reshape(3)
        if len(self.points) != len(self.values):
            raise InvariantViolation("points and values must have equal length")
        if not np.all(finite := np.isfinite(self.values)):  # a probe distance overflows, say
            raise InvariantViolation(
                f"field is not finite at {np.sum(~finite)} of {len(finite)} points")
        if not abs(np.linalg.norm(self.incident_direction) - 1.0) <= 1e-12:  # False on NaN
            raise InvariantViolation("incident direction must be a unit vector")

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# background medium
# ---------------------------------------------------------------------------

class BackgroundMedium:
    """Background medium (k, n0, q0) with its volume quadrature grid.

    Immutable after construction; the kernel's box convolution, which
    depends on the medium alone, is memoized internally.
    """

    def __init__(self, k: float, grid: Grid, n0=1.0):
        if not (k > 0 and k * k < np.inf):  # False on NaN
            raise InvariantViolation(f"wavenumber k must be positive with k^2 finite, got {k}")
        self.k = float(k)
        self.grid = grid
        n0_vals = _node_field(n0(grid.nodes) if callable(n0) else n0, grid.size, complex)
        if not np.all(np.isfinite(n0_vals)):
            raise InvariantViolation("n0 must be finite on every node")
        self.n0 = n0_vals
        self.q0 = self.k ** 2 * (1.0 - n0_vals)
        if np.any(self.q0.imag > 1e-14 * self.k ** 2):
            raise InvariantViolation("Im q0 must be <= 0 (passive medium)")
        # S = supp q0: I + Kw diag(q0) has identity columns off S, so every
        # background grid solve is a solve for the values on S alone
        self._support = np.flatnonzero(self.q0)

    # -- basic properties ---------------------------------------------------

    @property
    def is_free(self) -> bool:
        """True when q0 vanishes everywhere (homogeneous background)."""
        return len(self._support) == 0

    @property
    def weight(self) -> float:
        """Midpoint quadrature weight delta^3."""
        return self.grid.delta ** 3

    def q0_at(self, points) -> np.ndarray:
        """q0 sampled by containing cell; zero outside the box."""
        return self.grid.value_at_cells(self.q0, points, outside=0.0 + 0.0j)

    # -- Nystrom engine -----------------------------------------------------

    @property
    def _kernel_table(self) -> np.ndarray:
        """Kw generator g(delta*|m|)*delta^3 over the index offsets m >= 0
        of the grid box, with the corrected singular diagonal at m = 0.

        Kw is three-level Toeplitz and even in each axis offset.  Not
        cached: only its spectrum reads it, once.
        """
        delta = self.grid.delta
        m1, m2, m3 = np.ix_(*(np.arange(n) for n in self.grid.shape))
        r = delta * np.sqrt(m1 ** 2 + m2 ** 2 + m3 ** 2)
        r[0, 0, 0] = 1.0
        table = _radial(r, self.k, 0)[0] * delta ** 3
        table[0, 0, 0] = CUBE_SELF_INTEGRAL * delta ** 2 + 1j * self.k * delta ** 3 / (4.0 * np.pi)
        return table

    @cached_property
    def _convolution(self) -> BoxConvolution:
        return BoxConvolution(self._kernel_table)

    def _apply_weighted_kernel(self, f: np.ndarray) -> np.ndarray:
        """Kw @ f by FFT convolution; f is (N,) or a block of columns (N, c)."""
        f = np.asarray(f, dtype=complex)
        cols = np.moveaxis(f.reshape(self.grid.shape + (-1,)), -1, 0)
        return np.moveaxis(self._convolution(cols), 0, -1).reshape(f.shape)

    def _solve_grid(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I + Kw diag(q0)) u = rhs for the values of u on S = supp q0,
        by FFT-applied GMRES; rhs and the result hold values at the support
        nodes, (|S|,)."""
        return _solve_checked(self._apply_grid_operator, rhs, "grid solve")[0]

    def _apply_grid_operator(self, u: np.ndarray) -> np.ndarray:
        """(I + Kw diag(q0)) u on S for support values u, (|S|,)."""
        s = self._support
        return u + self._apply_weighted_kernel(self._on_grid(self.q0[s] * u))[s]

    def _on_grid(self, u: np.ndarray) -> np.ndarray:
        """Support values u, (|S|,), as node values, zero off S."""
        out = np.zeros(self.grid.size, dtype=complex)
        out[self._support] = u
        return out

    # -- incident field -----------------------------------------------------

    def _plane_wave(self, alpha) -> np.ndarray:
        return np.exp(1j * self.k * self.grid.nodes @ alpha)

    # -- equivalent sources ---------------------------------------------------

    def source_density(self, alpha):
        """Node density s = -q0 delta^3 u0(., alpha) of the background field,
        zero off S = supp q0, by one grid solve; None when q0 = 0.

        A cloud's solve forms it once and carries it (Sources.background)
        beside the density of the particles' own grid field
        (Sources.density).
        """
        if self.is_free:
            return None
        u = self._solve_grid(self._plane_wave(_unit(alpha))[self._support])
        return self._support_density(u)

    def _support_density(self, v) -> np.ndarray:
        """The node density -q0 delta^3 v of support values v, zero off S."""
        return self._on_grid(-(self.q0[self._support] * v * self.weight))

    def radiate(self, points, sources: Sources, order=0) -> np.ndarray:
        """u(x) = e^{ik alpha.x} + sum_z g(x,z) s_z + sum_m [g(x,x_m) Q_m + grad_y g(x,x_m).P_m].

        s is the node density plus the background density (neither: no grid
        sources), summed over its nonzero nodes; Q_m and P_m are the particle
        monopoles and dipoles.  order 1 returns [u, grad_x u] as one (4n,)
        vector.  Both sums run over the row chunks of _kernel_sum.
        """
        alpha = _unit(sources.alpha)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.exp(1j * self.k * pts @ alpha)
        if order:
            out = np.concatenate([out, (1j * self.k * alpha[None, :] * out[:, None]).reshape(-1)])
        density = sources.background
        if sources.density is not None:
            density = sources.density if density is None else density + sources.density
        if density is not None:
            z = np.flatnonzero(density)
            out = out + _kernel_sum(pts, self.k, (order, 0), density[z], self.grid.nodes[z])
        centers, charges, dipoles = sources.centers, sources.charges, sources.dipoles
        if len(centers):
            w = charges if dipoles is None else np.concatenate([charges, dipoles.reshape(-1)])
            out = out + _kernel_sum(pts, self.k, (order, int(dipoles is not None)), w, centers)
        return out

    def amplitude(self, betas, sources: Sources) -> np.ndarray:
        """(1/4pi) [sum_z e^{-ik beta.z} s_z + sum_m e^{-ik beta.x_m} (Q_m - ik beta.P_m)].

        The far-field amplitude of the sources that ``radiate`` sums, per
        beta.  A cloud's particle part is not formed as a small difference:
        the background density, zeros in a free background, is summed apart.
        Centres on one lattice sum, like the grid nodes, through per-axis
        phase tables; other centres through (directions, M) phase tables of
        at most CHUNK_ENTRIES entries (_row_chunks).
        """
        betas = np.atleast_2d(np.asarray(betas, dtype=float))
        centers, charges, dipoles = sources.centers, sources.charges, sources.dipoles
        out = np.zeros(len(betas), dtype=complex)
        lattice = lattice_of(centers)
        if lattice is not None:
            rows = [charges] if dipoles is None else [charges, *np.transpose(dipoles)]
            sums = self._box_phase_sum(betas, lattice.axes, lattice.scatter(np.array(rows)))
            out = sums[0]
            if dipoles is not None:
                out = out - 1j * self.k * np.einsum("bp,pb->b", betas, sums[1:])
        elif len(centers):
            for s, stop in _row_chunks(len(betas), len(centers)):
                b = betas[s:stop]
                phase = self._phase(b, centers)  # (directions, M)
                out[s:stop] = phase @ charges
                if dipoles is not None:
                    out[s:stop] += np.einsum("bm,bp,mp->b", phase, -1j * self.k * b, dipoles)
        if sources.density is not None:
            out = out + self._box_phase_sum(betas, self.grid.axes, sources.density)
        out = out / (4.0 * np.pi)
        if charges is None and sources.background is None:
            return out
        return self.amplitude(betas, Sources(self, sources.alpha, sources.background)) + out

    # -- weighted far-field sums ----------------------------------------------

    def _phase(self, betas, points) -> np.ndarray:
        """exp(-ik beta.x) for each (beta, point), shape (nb, M).

        The phase is formed as a real product first: the exp of a complex
        matmul's output runs several times slower on OpenBLAS builds.
        """
        return np.exp(-1j * (self.k * (betas @ np.asarray(points).T)))

    def _box_phase_sum(self, betas, axes, values) -> np.ndarray:
        """sum_j exp(-ik beta.z_j) f_j over the nodes z_j of a rectangular box,
        for each beta; ``axes`` holds the box coordinates per axis and
        ``values`` one node array in C order, (N,), or c of them stacked,
        (c, n1, n2, n3).  Returns (nb,) or (c, nb).

        The phase factorizes per axis, so three (nb, n_i) tables, formed
        once for all c arrays, are contracted with the node arrays instead
        of an (nb, N) phase matrix.
        """
        shape = tuple(len(a) for a in axes)
        e1, e2, e3 = (self._phase(betas[:, i:i + 1], axes[i][:, None]) for i in range(3))
        f = np.asarray(values, dtype=complex)
        stacked = f.ndim > 1
        f = f.reshape((-1,) + shape)
        t = f.reshape(-1, shape[2]) @ e3.T  # (c*n1*n2, nb)
        t = np.einsum("cabk,kb->cak", t.reshape(len(f), shape[0], shape[1], -1), e2)
        sums = np.einsum("cak,ka->ck", t, e1)
        return sums if stacked else sums[0]


@dataclass(frozen=True)
class Sources:
    """The equivalent sources that radiate a solve's field and far field:
    the plane wave e^{ik alpha.x}, a node density and particle monopoles
    Q_m and dipoles P_m, a volume grid holding point scatterers (Martin,
    Multiple Scattering, CUP 2006, ch. 8).

    A limit's density is that of its solution; a cloud's that of the
    particles' grid field, beside the background field's -q0 delta^3 u0 in
    ``background`` (both None if q0 = 0).  Probes closer than ``guard`` to a
    centre are refused: the point-particle reduction fails there.
    """

    medium: BackgroundMedium
    alpha: np.ndarray
    density: np.ndarray | None = None
    centers: np.ndarray = ()
    charges: np.ndarray | None = None
    dipoles: np.ndarray | None = None
    guard: float = 0.0
    background: np.ndarray | None = None

    def field(self, points) -> ComplexField:
        """The field radiated to probe points (BackgroundMedium.radiate)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # a probe whose distance overflows gets a NaN field, which ComplexField refuses
        with np.errstate(over="ignore", invalid="ignore"):
            if len(self.centers) and np.any(
                    nearest_distances(pts, self.centers) < self.guard * (1 - 1e-12)):
                raise InvariantViolation(
                    f"evaluation point within d = {self.guard:.3g} of a particle center; "
                    "the point-particle reduction is not valid there")
            values = self.medium.radiate(pts, self)
        return ComplexField(points=pts, values=values, incident_direction=self.alpha)

    def far_field(self, directions: DirectionGrid | None = None) -> FarField:
        """Far-field amplitudes on a direction grid (default 32 x 64)."""
        grid = directions or DirectionGrid()
        return FarField(grid=grid, values=self.medium.amplitude(grid.vectors(), self),
                        alpha=self.alpha)


def _node_field(values, size, dtype) -> np.ndarray:
    """A scalar broadcast to, or a sample vector checked against, the grid nodes."""
    arr = np.asarray(values, dtype=dtype)
    if arr.size == 1:
        return np.full(size, arr.reshape(-1)[0], dtype=dtype)
    arr = arr.reshape(-1)
    if arr.size != size:
        raise InvariantViolation("field sample count does not match the grid")
    return arr


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= 1e-12:  # False on NaN
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
