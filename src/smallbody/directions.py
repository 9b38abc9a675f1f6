"""Direction grids on the unit sphere and far-field amplitude containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class DirectionGrid:
    """Latitude-longitude direction set for quadrature.

    Colatitudes sit at Gauss-Legendre nodes in cos(theta) so that smooth
    integrands over S^2 are integrated to near machine precision; longitudes
    are uniform with trapezoidal (equal) weights.  Total weight is 4*pi.
    """

    n_theta: int = 32
    n_phi: int = 64

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 2:
            raise ValueError("direction grid needs at least 2x2 points")

    @cached_property
    def theta(self) -> np.ndarray:
        """Colatitudes, formed once per grid (a frozen dataclass still has
        the instance __dict__ that cached_property writes)."""
        x, _ = leggauss(self.n_theta)
        return np.arccos(x)

    @property
    def phi(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

    def vectors(self) -> np.ndarray:
        """Unit vectors, shape (n_theta*n_phi, 3), theta-major order."""
        t, p = np.meshgrid(self.theta, self.phi, indexing="ij")
        st = np.sin(t)
        return np.stack([st * np.cos(p), st * np.sin(p), np.cos(t)], axis=-1).reshape(-1, 3)


@dataclass
class FarField:
    """Scattering-amplitude samples A(beta, alpha) on a direction grid."""

    grid: DirectionGrid
    values: np.ndarray  # complex, shape (n_theta*n_phi,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.size != self.grid.n_theta * self.grid.n_phi:
            raise ValueError("value count does not match the direction grid")

    def rows(self):
        """(theta, phi, Re A, Im A) rows matching the CSV export layout."""
        t = np.repeat(self.grid.theta, self.grid.n_phi)
        p = np.tile(self.grid.phi, self.grid.n_theta)
        return t, p, self.values.real, self.values.imag
