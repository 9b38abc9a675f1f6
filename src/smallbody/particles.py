"""Particle clouds: lattice placement from densities, impedances, validation.

Placement is deterministic.  The box is tiled by cubic cells of side b
(aligned with the medium grid); each cell receives a particle count equal to
its node-integrated density divided by the per-particle weight (a for the
impedance counting, c3*a^3 for the hard counting), rounded to the nearest
integer.  Counts are realized on a centered rectangular sublattice: an exact
(s1, s2, s3) factorization when a balanced one exists, otherwise a partially
filled cubic sublattice chosen in antipodal pairs so the selection carries no
dipole moment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InfeasibleDesign, InvariantViolation
from .medium import BackgroundMedium, _node_field, _norm

logger = logging.getLogger(__name__)

# a body of radius a has |S| = c1 a^2, J = c2 a^3 and volume c3 a^3; every
# particle is a ball
BALL_SHAPE_CONSTANTS = (4.0 * np.pi, 16.0 * np.pi ** 2, 4.0 * np.pi / 3.0)
c1, c2, c3 = BALL_SHAPE_CONSTANTS
GAMMA = 4.0 * np.pi * c1 ** 2 / c2  # 4 pi for balls

KA_MAX = 0.1            # small-particle regime ka <= 0.1
SPACING_FACTOR = 10.0   # d >= 10 a
M_CAP = 200_000         # desk-scale particle cap
HARD_COMPAT_MAX = 0.1   # (nu/c3)^(1/3) <= 0.1 wherever nu > 0
PAIR_CHUNK = 2 ** 16    # pair distances formed at a time by the spacing searches

FORMAT_VERSION = 1


@dataclass
class ParticleCloud:
    """Centers plus per-particle data for one species of small scatterers."""

    centers: np.ndarray            # (M, 3)
    a: float                       # particle radius
    d: float = field(init=False)   # minimum center spacing (inf for M <= 1)
    kind: str                      # "impedance" | "hard"
    zeta: np.ndarray | None = None     # (M,) complex boundary impedances
    beta: np.ndarray | None = None     # (3, 3) polarizability tensor

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        self.d = min_spacing(self.centers)
        if self.kind not in ("impedance", "hard"):
            raise InvariantViolation(f"unknown particle kind {self.kind!r}")
        if self.kind == "impedance":
            if self.zeta is None:
                raise InvariantViolation("impedance cloud requires zeta values")
            self.zeta = np.asarray(self.zeta, dtype=complex).reshape(-1)
            if len(self.zeta) != len(self.centers):
                raise InvariantViolation("zeta count must match centers")
        else:
            if self.beta is None:
                raise InvariantViolation("hard cloud requires a polarizability tensor")
            self.beta = np.asarray(self.beta, dtype=float).reshape(3, 3)

    def __len__(self):
        return len(self.centers)

    @property
    def volume_per_particle(self) -> float:
        return c3 * self.a ** 3

    def to_json_dict(self) -> dict:
        out = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "a": self.a,
            "d": self.d if np.isfinite(self.d) else None,
            "shape_constants": list(BALL_SHAPE_CONSTANTS),
            "centers": [[float(c) for c in row] for row in self.centers],
        }
        if self.zeta is not None:
            out["zeta"] = [{"re": z.real, "im": z.imag} for z in self.zeta]
        if self.beta is not None:
            out["beta"] = [[float(v) for v in row] for row in self.beta]
        return out


def _check_volume_density(nu):
    """Check a hard counting density: nu >= 0 and, for d >> a,
    (nu/c3)^(1/3) <= HARD_COMPAT_MAX."""
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise InvariantViolation("counting density must be nonnegative")
    peak = np.max(nu, initial=0.0)
    if peak > 0 and (peak / c3) ** (1.0 / 3.0) > HARD_COMPAT_MAX + 1e-12:
        raise InvariantViolation(
            "volume density too large: (nu/c3)^(1/3) must stay <= "
            f"{HARD_COMPAT_MAX} for d >> a, got {(peak / c3) ** (1.0 / 3.0):.4f}")


def _point_law(scale, h):
    """GAMMA * scale * h / (1 + h): the coupling c of one particle (scale a)
    or the homogenized potential p (scale N) of impedance parameter h."""
    if np.any(np.abs(1.0 + h) < 1e-14):
        raise InvariantViolation("h = -1: singular denominator 1 + h")
    return GAMMA * scale * h / (1.0 + h)


def impedance_to_h(zeta, a: float) -> np.ndarray:
    """Dimensionless impedance parameter h = zeta * J / (4 pi |S|).

    With |S| = c1 a^2 and J = c2 a^3 this is zeta * a * c2 / (4 pi c1),
    which for balls is zeta * a.
    """
    return np.asarray(zeta, dtype=complex) * a * c2 / (4.0 * np.pi * c1)


def h_to_impedance(h, a: float) -> np.ndarray:
    """Boundary impedance realizing a given h at radius a (inverse of above)."""
    return np.asarray(h, dtype=complex) * 4.0 * np.pi * c1 / (c2 * a)


# ---------------------------------------------------------------------------
# lattice machinery
# ---------------------------------------------------------------------------

def _balanced_factorization(n: int):
    """Best (s1<=s2<=s3) with s1*s2*s3 = n, or None if too anisotropic."""
    best = None
    s1 = 1
    while s1 ** 3 <= n:
        if n % s1 == 0:
            rem = n // s1
            s2 = s1
            while s2 * s2 <= rem:
                if rem % s2 == 0:
                    s3 = rem // s2
                    key = (-s1, s3 - s1)
                    if best is None or key < best[0]:
                        best = (key, (s1, s2, s3))
                s2 += 1
        s1 += 1
    if best is not None and best[1][2] <= 2 * best[1][0]:
        return best[1]
    return None


@cache
def _antipodal_sites(n: int, s: int) -> np.ndarray:
    """n sites of the centered s^3 sublattice chosen in antipodal pairs.

    Offsets are in cell units (cell side 1, centered at the origin).  Even
    counts carry exactly zero dipole moment; odd counts place one site at the
    center when available.  Cached per (n, s), since the cells of a cloud
    repeat counts, and read-only.
    """
    idx = np.stack(np.meshgrid(*[np.arange(s)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = (idx + 0.5) / s - 0.5
    # antipode of site (i,j,l) is (s-1-i, s-1-j, s-1-l)
    mate = np.ravel_multi_index(tuple((s - 1 - idx).T), (s, s, s))
    r2 = np.sum(pts * pts, axis=1)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], np.round(r2, 12)))
    used = np.zeros(len(pts), dtype=bool)
    chosen = []
    remaining = n
    is_center = r2 < 1e-18
    if remaining % 2 == 1 and np.any(is_center):
        c = int(np.flatnonzero(is_center)[0])
        chosen.append(pts[c])
        used[c] = True
        remaining -= 1
    for i in order:
        if remaining <= 0:
            break
        if used[i] or is_center[i]:
            continue
        used[i] = True
        chosen.append(pts[i])
        remaining -= 1
        j = mate[i]
        if remaining > 0 and not used[j]:
            used[j] = True
            chosen.append(pts[j])
            remaining -= 1
    sites = np.asarray(chosen)
    sites.flags.writeable = False
    return sites


def _cell_sites(n: int, b: float, cell_lo: np.ndarray):
    """Positions of n particles in the cell [lo, lo+b)^3 and their spacing."""
    fac = _balanced_factorization(n)
    if fac is not None:
        axes = [cell_lo[i] + (np.arange(fac[i]) + 0.5) * b / fac[i] for i in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        return pts, b / max(fac)
    s = int(np.ceil(round(n ** (1.0 / 3.0), 9)))
    while s ** 3 < n:
        s += 1
    offsets = _antipodal_sites(n, s)
    return cell_lo + b / 2.0 + offsets * b, b / s


def _cell_layout(medium: BackgroundMedium, cell_size: float | None):
    """Cell side b and per-axis cell counts; cells must align with the grid."""
    grid = medium.grid
    extent = np.asarray(grid.hi) - np.asarray(grid.lo)
    if cell_size is None:
        if not np.allclose(extent, extent[0], rtol=1e-12):
            raise InvariantViolation("cell_size is required for a non-cubic box")
        b = float(extent[0])
    else:
        b = float(cell_size)
    counts = extent / b
    if not np.allclose(counts, np.round(counts), rtol=0, atol=1e-9):
        raise InvariantViolation(f"cell size {b} does not tile the box {tuple(extent)}")
    ratio = b / grid.delta
    if not (round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9):
        raise InvariantViolation("cell size must be a multiple of the grid spacing")
    return b, np.round(counts).astype(int)


def _iterate_cells(medium: BackgroundMedium, density: np.ndarray, b: float, ncells):
    """Yield (cell index triple, cell_lo, node-integrated density mass)."""
    nodes = medium.grid.nodes
    lo = np.asarray(medium.grid.lo)
    w = medium.weight
    idx = np.floor((nodes - lo) / b + 1e-12).astype(int)
    idx = np.minimum(idx, np.asarray(ncells) - 1)
    flat = np.ravel_multi_index(tuple(idx.T), tuple(ncells))
    masses = np.bincount(flat, weights=density.real, minlength=int(np.prod(ncells))) * w
    for ci in range(ncells[0]):
        for cj in range(ncells[1]):
            for cl in range(ncells[2]):
                f = np.ravel_multi_index((ci, cj, cl), tuple(ncells))
                yield (ci, cj, cl), lo + np.array([ci, cj, cl]) * b, masses[f]


def _place(medium, density, a, weight, cell_size):
    b, ncells = _cell_layout(medium, cell_size)
    cells = [(idx, lo, int(round(mass / weight)), mass)
             for idx, lo, mass in _iterate_cells(medium, density, b, ncells)]
    total = sum(c[2] for c in cells)
    if total > M_CAP:
        raise InfeasibleDesign(f"M = {total} exceeds the desk-scale cap {M_CAP}")
    # the densest cell bounds the sublattice spacing b/s from below
    for cell_idx, _, n_c, _ in cells:
        if n_c > 0 and b / np.ceil(n_c ** (1.0 / 3.0)) < SPACING_FACTOR * a * (1 - 1e-12):
            raise InfeasibleDesign(
                f"cell {cell_idx} needs {n_c} particles in side {b:.3g}: spacing "
                f"< {SPACING_FACTOR}a = {SPACING_FACTOR * a:.3g}")
    all_pts = []
    discrepancy = 0.0
    for cell_idx, cell_lo, n_c, mass in cells:
        discrepancy += mass - n_c * weight
        if n_c == 0:
            continue
        pts, spacing = _cell_sites(n_c, b, cell_lo)
        if spacing < SPACING_FACTOR * a * (1 - 1e-9):
            raise InfeasibleDesign(
                f"cell {cell_idx} needs {n_c} particles in side {b:.3g}: spacing "
                f"{spacing:.3g} < {SPACING_FACTOR}a = {SPACING_FACTOR * a:.3g}")
        all_pts.append(pts)
    if discrepancy:
        logger.debug("lattice rounding discrepancy: %.3g (density mass units)", discrepancy)
    return np.vstack(all_pts) if all_pts else np.zeros((0, 3))


# cube steps (x, y) to the columns of forward neighbours, each taken with
# z steps -1, 0 and 1; the cube itself and its +z neighbour come separately
_FORWARD_COLUMNS = ((1, -1), (1, 0), (1, 1), (0, 1))


def _positions(values, step) -> np.ndarray:
    """Each value's place along the sorted values, from 0: consecutive
    distinct values lie step(gap) apart, equal ones share a place."""
    order = np.argsort(values)
    out = np.empty(len(values), dtype=np.int64)
    out[order] = np.concatenate(([0], np.cumsum(step(np.diff(values[order])))))
    return out


def min_spacing(centers) -> float:
    """Smallest center-to-center distance; inf for fewer than two centers.

    Exact fixed-radius cell search (Bentley, Stanat & Williams 1977): the
    closest pair adjacent in any of the three cyclic lexicographic orders
    (x, y, z), (y, z, x) and (z, x, y) is a real pair, so its distance h
    bounds d from above; taking all three keeps h near d for clouds that
    interleave along one axis.  Centers binned into cubes of side h can be
    closer than h only within one cube or two adjacent ones, so comparing
    each center with the later centers of its own cube and of the 13 cubes
    that follow it finds d exactly.  Distances are medium._norm of the
    coordinate differences, formed at most PAIR_CHUNK at a time.  The
    orders sort 64-bit keys of coordinate ranks, and cubes are found by
    64-bit keys too; neither can overflow below 2^20 centers, and a larger
    set that would overflow them raises InvariantViolation.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 3)
    m = len(c)
    if m < 2:
        return np.inf
    if not np.isfinite(c).all():
        raise InvariantViolation("particle centers must be finite")
    overflow = f"min_spacing: {m} centers overflow the 64-bit keys"
    ranks = [_positions(x, lambda gap: gap > 0) for x in c.T]
    sizes = [int(r.max()) + 1 for r in ranks]
    if sizes[0] * sizes[1] * sizes[2] >= 2 ** 63:
        raise InvariantViolation(overflow)
    best = np.inf
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        lex = c[np.argsort((ranks[i] * sizes[j] + ranks[j]) * sizes[k] + ranks[k])].T
        best = min(best, _norm(*(lex[:, 1:] - lex[:, :-1])).min())
    if best == 0.0:
        return 0.0
    lo = c.min(axis=0)
    extent = float((c.max(axis=0) - lo).max())
    # the rounding of (x - lo) / side cannot put a pair closer than h two
    # cubes apart; the widening also keeps every cube index below 2^50
    h = best
    side = h + 8 * np.finfo(float).eps * (extent + 2 * h)
    # occupied cube indices from 1 up; a gap wider than one cube shrinks to
    # two, which keeps adjacency and bounds the range by 2M
    coords = [1 + _positions(index, lambda gap: np.minimum(gap, 2))
              for index in np.floor((c - lo) / side).astype(np.int64).T]
    ny, nz = int(coords[1].max()) + 2, int(coords[2].max()) + 2
    if (int(coords[0].max()) + 2) * ny * nz >= 2 ** 63:
        raise InvariantViolation(overflow)
    key = (coords[0] * ny + coords[1]) * nz + coords[2]
    order = np.argsort(key, kind="stable")
    key, pts = key[order], c[order].T.copy()
    # five ranges [start, stop) of sorted positions per center p: the later
    # centers of its cube and its +z cube, then the three z-adjacent cubes of
    # each forward column
    start = [np.arange(1, m + 1)]
    stop = [np.searchsorted(key, key + 1, side="right")]
    for sx, sy in _FORWARD_COLUMNS:
        step = (sx * ny + sy) * nz
        start.append(np.searchsorted(key, key + step - 1, side="left"))
        stop.append(np.searchsorted(key, key + step + 1, side="right"))
    start = np.concatenate(start)
    # block b pairs center b % m with the range [start[b], stop[b]); the pairs
    # of all blocks are numbered through and formed in chunks
    bounds = np.concatenate(([0], np.cumsum(np.concatenate(stop) - start)))
    for t0 in range(0, int(bounds[-1]), PAIR_CHUNK):
        t1 = min(t0 + PAIR_CHUNK, int(bounds[-1]))
        b0 = np.searchsorted(bounds, t0, side="right") - 1
        b1 = np.searchsorted(bounds, t1, side="left")
        block = np.repeat(np.arange(b0, b1), np.diff(np.clip(bounds[b0:b1 + 1], t0, t1)))
        j = start[block] + (np.arange(t0, t1) - bounds[block])
        best = min(best, _norm(*(pts.take(block % m, axis=1) - pts.take(j, axis=1))).min())
    return float(best)


def nearest_distances(points, centers) -> np.ndarray:
    """Distance from each point to its nearest center, of which there is at least one.

    Brute force, O(n M), formed like min_spacing, at most PAIR_CHUNK
    distances at a time.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    cen = np.asarray(centers, dtype=float).reshape(-1, 3).T[:, None, :]
    rows = max(1, PAIR_CHUNK // cen.shape[2])
    out = np.empty(len(pts))
    for s in range(0, len(pts), rows):
        out[s:s + rows] = _norm(*(pts[s:s + rows].T[:, :, None] - cen)).min(axis=1)
    return out


# ---------------------------------------------------------------------------
# builders and validation
# ---------------------------------------------------------------------------

def _check_radius(medium: BackgroundMedium, a: float):
    if not a > 0:
        raise InvariantViolation("particle radius must be positive")
    if medium.k * a > KA_MAX + 1e-12:
        raise InvariantViolation(f"ka = {medium.k * a:.3g} exceeds the small-size regime {KA_MAX}")


def build_cloud_impedance(medium: BackgroundMedium, a: float, h_field, N_field,
                          cell_size: float | None = None) -> ParticleCloud:
    """Realize the per-length counting N(x)/a with impedances zeta = H(x)/a.

    h and N are node fields on the medium grid.  Each cell of side b receives
    round(integral_cell N dx / a) particles; per-particle impedance comes from
    the h value of the containing grid cell.
    """
    _check_radius(medium, a)
    h = _node_field(h_field, medium.grid.size, complex)
    N = _node_field(N_field, medium.grid.size, float)
    if np.any(N < 0):
        raise InvariantViolation("N must be nonnegative")
    if np.any(h.imag > 1e-14):
        raise InvariantViolation("Im h must be <= 0")
    active = N > 0
    if np.any(np.abs(h[active] + 1.0) < 1e-12):
        raise InvariantViolation("h = -1 where N > 0: singular charge denominator")

    centers = _place(medium, N, a, a, cell_size)
    h_at = medium.grid.value_at_cells(h, centers, outside=0.0 + 0.0j) if len(centers) else h[:0]
    zeta = h_to_impedance(h_at, a)
    return ParticleCloud(centers=centers, a=a, kind="impedance", zeta=zeta)


def build_cloud_hard(medium: BackgroundMedium, a: float, nu_field, beta,
                     cell_size: float | None = None) -> ParticleCloud:
    """Realize the per-volume counting nu(x)/(c3 a^3) with hard particles."""
    _check_radius(medium, a)
    nu = _node_field(nu_field, medium.grid.size, float)
    _check_volume_density(nu)
    centers = _place(medium, nu, a, c3 * a ** 3, cell_size)
    return ParticleCloud(centers=centers, a=a, kind="hard",
                         beta=np.asarray(beta, dtype=float).reshape(3, 3))


@dataclass
class CloudReport:
    """Diagnostics from validate_cloud; empty flag list means all checks pass."""

    m: int
    ka: float
    min_spacing: float
    spacing_over_a: float
    max_zeta_times_a: float | None
    volume_fraction: float
    flags: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flags


def validate_cloud(cloud: ParticleCloud, medium: BackgroundMedium) -> CloudReport:
    """Check the small-size, spacing, and passivity invariants of a cloud."""
    m = len(cloud)
    ka = medium.k * cloud.a
    spacing = cloud.d
    max_zeta_a = float(np.max(np.abs(cloud.zeta)) * cloud.a) if (
        cloud.kind == "impedance" and m > 0) else None
    fraction = m * cloud.volume_per_particle / medium.grid.volume
    flags = []
    if m == 0:
        return CloudReport(m=0, ka=ka, min_spacing=spacing, spacing_over_a=np.inf,
                           max_zeta_times_a=max_zeta_a, volume_fraction=0.0, flags=flags)
    if ka > KA_MAX + 1e-12:
        flags.append(f"ka = {ka:.3g} > {KA_MAX}")
    if spacing < SPACING_FACTOR * cloud.a * (1 - 1e-9):
        flags.append(f"min spacing {spacing:.3g} < {SPACING_FACTOR}a")
    if cloud.kind == "impedance" and np.any(cloud.zeta.imag > 1e-14):
        flags.append("Im zeta > 0 (active particle)")
    if m > M_CAP:
        flags.append(f"M = {m} exceeds cap {M_CAP}")
    return CloudReport(m=m, ka=ka, min_spacing=spacing,
                       spacing_over_a=spacing / cloud.a,
                       max_zeta_times_a=max_zeta_a,
                       volume_fraction=fraction, flags=flags)
