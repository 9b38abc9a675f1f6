"""Cloud construction, counting, and validation tests."""

import json

import numpy as np
import pytest

from smallbody.errors import InfeasibleDesign, InvariantViolation
from smallbody.medium import BackgroundMedium, Grid
from smallbody.particles import (
    BALL_SHAPE_CONSTANTS,
    ParticleCloud,
    _check_volume_density,
    build_cloud_hard,
    build_cloud_impedance,
    h_to_impedance,
    impedance_to_h,
    min_spacing,
    validate_cloud,
)
from smallbody import particles

C3 = BALL_SHAPE_CONSTANTS[2]


def unit_cube_medium(k=1.0, n=8):
    return BackgroundMedium(k, Grid((0, 0, 0), (1, 1, 1), (n, n, n)))


class TestExampleOneNumbers:
    """Reference configuration: b = 1e-2, a = 1e-5, N = 1e4 (cgs lengths)."""

    def setup_method(self):
        self.medium = BackgroundMedium(1.0, Grid((0, 0, 0), (0.01, 0.01, 0.01), (4, 4, 4)))
        self.cloud = build_cloud_impedance(self.medium, a=1e-5, h_field=1.0, N_field=1e4)

    def test_thousand_particles_per_cell(self):
        assert len(self.cloud) == 1000

    def test_spacing(self):
        assert self.cloud.d == pytest.approx(1e-3, rel=1e-12)
        assert self.cloud.d / self.cloud.a == pytest.approx(100.0, rel=1e-12)

    def test_volume_fraction(self):
        rep = validate_cloud(self.cloud, self.medium)
        assert rep.volume_fraction == pytest.approx(1000 * C3 * 1e-15 / 1e-6, rel=1e-12)
        assert rep.volume_fraction == pytest.approx(4.18879e-6, rel=1e-4)
        assert rep.ok

    def test_zeta_is_h_over_a(self):
        np.testing.assert_allclose(self.cloud.zeta, 1.0 / 1e-5, rtol=1e-12)


class TestImpedanceBuilder:
    def test_empty_density_gives_empty_cloud(self):
        cloud = build_cloud_impedance(unit_cube_medium(), a=1e-3, h_field=1.0, N_field=0.0)
        assert len(cloud) == 0
        assert validate_cloud(cloud, unit_cube_medium()).volume_fraction == 0.0

    def test_uniform_density_count_and_spacing(self):
        # N = 0.1, a = 1e-3: M = N/a = 100, d ~ (1/100)^(1/3)
        cloud = build_cloud_impedance(unit_cube_medium(), a=1e-3, h_field=1.0, N_field=0.1)
        assert len(cloud) == 100
        assert cloud.d >= 10 * cloud.a
        assert cloud.d == pytest.approx((1 / 100) ** (1 / 3), rel=0.3)

    def test_desk_cap_rejected(self):
        with pytest.raises(InfeasibleDesign):
            build_cloud_impedance(unit_cube_medium(), a=1e-5, h_field=1.0, N_field=1e4)

    def test_spacing_within_the_validation_tolerance_is_placed(self):
        # 27 particles in one unit cell take the 3 x 3 x 3 sites of spacing
        # 1/3 = (1 - 5e-10) 10a: within validate_cloud's 1e-9, so the builder
        # places the cloud that validation accepts
        med = unit_cube_medium(n=4)
        a = (1 / 3) / (10 * (1 - 5e-10))
        cloud = build_cloud_impedance(med, a=a, h_field=1.0, N_field=27 * a)
        assert len(cloud) == 27 and cloud.d < 10 * a
        assert validate_cloud(cloud, med).ok

    def test_infeasible_spacing_names_cell(self):
        with pytest.raises(InfeasibleDesign, match="cell"):
            build_cloud_impedance(unit_cube_medium(), a=3e-2, h_field=1.0, N_field=2.0)

    def test_cell_below_grid_spacing_rejected(self):
        # b / delta rounds to 0 for a tiny cell: 1e12 cells per axis would follow
        with pytest.raises(InvariantViolation, match="multiple of the grid spacing"):
            build_cloud_impedance(unit_cube_medium(), a=1e-3, h_field=1.0, N_field=0.1,
                                  cell_size=1e-12)

    def test_singular_h_rejected(self):
        with pytest.raises(InvariantViolation, match="-1"):
            build_cloud_impedance(unit_cube_medium(), a=1e-3, h_field=-1.0, N_field=0.1)

    def test_active_h_rejected(self):
        with pytest.raises(InvariantViolation):
            build_cloud_impedance(unit_cube_medium(), a=1e-3, h_field=1.0 + 0.2j, N_field=0.1)

    def test_negative_density_rejected(self):
        with pytest.raises(InvariantViolation):
            build_cloud_impedance(unit_cube_medium(), a=1e-3, h_field=1.0, N_field=-0.1)

    def test_large_ka_rejected(self):
        med = unit_cube_medium(k=100.0)
        with pytest.raises(InvariantViolation, match="ka"):
            build_cloud_impedance(med, a=2e-3, h_field=1.0, N_field=0.1)

    def test_determinism(self):
        med = unit_cube_medium()
        c1 = build_cloud_impedance(med, a=1e-3, h_field=0.5 - 0.5j, N_field=0.05)
        c2 = build_cloud_impedance(med, a=1e-3, h_field=0.5 - 0.5j, N_field=0.05)
        assert np.array_equal(c1.centers, c2.centers)
        assert np.array_equal(c1.zeta, c2.zeta)


class TestHardBuilder:
    def test_boundary_compatibility_accepted(self):
        # nu = 4e-3 with ball c3: a/d = (nu/c3)^(1/3) ~ 0.098 <= 0.1
        cloud = build_cloud_hard(unit_cube_medium(), a=5e-3, nu_field=4e-3,
                                 beta=-1.5 * np.eye(3))
        assert len(cloud) > 0
        assert cloud.d >= 10 * cloud.a * (1 - 1e-9)
        assert (4e-3 / C3) ** (1 / 3) == pytest.approx(0.0985, abs=1e-3)

    def test_too_dense_rejected(self):
        with pytest.raises(InvariantViolation, match="nu"):
            build_cloud_hard(unit_cube_medium(), a=2e-3, nu_field=0.5, beta=-1.5 * np.eye(3))

    def test_empty(self):
        cloud = build_cloud_hard(unit_cube_medium(), a=1e-3, nu_field=0.0, beta=-1.5 * np.eye(3))
        assert len(cloud) == 0

    def test_cells_share_one_read_only_site_pattern(self):
        # 15 particles in each of 8 cells: one antipodal pattern of the 3^3
        # sublattice, built once and placed in every cell
        particles._antipodal_sites.cache_clear()
        med = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (8, 8, 8)), n0=lambda z: np.where(
            np.linalg.norm(z - 0.5, axis=1) < 0.4, 1.15, 1.0))
        cloud = build_cloud_hard(med, 0.01, 5e-4, -1.5 * np.eye(3), cell_size=0.5)
        assert len(cloud) == 120
        info = particles._antipodal_sites.cache_info()
        assert (info.misses, info.hits) == (1, 7)
        sites = particles._antipodal_sites(15, 3)
        assert sites.shape == (15, 3) and not sites.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sites[0, 0] = 0.0
        offsets = (cloud.centers - 0.25) / 0.5  # in cell units from the nearest cell centre
        offsets -= np.round(offsets)
        assert np.abs(np.sort(offsets, axis=0)
                      - np.sort(np.tile(sites, (8, 1)), axis=0)).max() <= 1e-12

    def test_count_scales_inverse_cube(self):
        med = unit_cube_medium()
        avals = (8e-3, 4e-3, 2e-3)
        counts = [len(build_cloud_hard(med, a, nu_field=2e-3, beta=-1.5 * np.eye(3)))
                  for a in avals]
        slope = np.polyfit(np.log(avals), np.log(counts), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.1)


class TestCountingMeasure:
    def test_per_volume_bound(self):
        with pytest.raises(InvariantViolation):
            _check_volume_density(np.array([0.5]))

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation):
            _check_volume_density(np.array([-1.0]))

    def test_counting_limit_subdomain(self):
        # a * (count in half-box) approaches integral of N over the half-box
        med = unit_cube_medium(n=8)
        a = 2e-4
        nval = 0.05
        cloud = build_cloud_impedance(med, a=a, h_field=1.0, N_field=nval, cell_size=0.25)
        half = cloud.centers[:, 0] < 0.5
        cells_in_half = 32
        rounding_bound = 0.5 * a * cells_in_half
        assert abs(a * half.sum() - nval * 0.5) <= rounding_bound
        assert abs(a * len(cloud) - nval) <= 2 * rounding_bound


class TestSpacingLaw:
    def test_d_scales_like_cube_root(self):
        med = unit_cube_medium()
        spacings = []
        avals = (2e-3, 1e-3, 5e-4, 2.5e-4)
        for a in avals:
            cloud = build_cloud_impedance(med, a=a, h_field=1.0, N_field=0.064)
            spacings.append(cloud.d)
        slope = np.polyfit(np.log(avals), np.log(spacings), 1)[0]
        assert slope == pytest.approx(1 / 3, abs=0.15)


def brute_min_spacing(centers):
    """O(M^2) reference: every pair, distances formed as sqrt((dx^2 + dy^2) + dz^2)."""
    c = np.asarray(centers, dtype=float).reshape(-1, 3)
    best = np.inf
    for i in range(len(c) - 1):
        d = c[i + 1:] - c[i]
        best = min(best, ((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]).min())
    return float(np.sqrt(best))


def lattice(spacing, n, origin=(0.0, 0.0, 0.0)):
    axes = [o + s * np.arange(n) for o, s in zip(origin, spacing)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def graded_two_family_cloud():
    # cells of side 1/4 hold 5 to 29 particles along a ramp in x; the second
    # family is the first one shifted by less than the smallest spacing
    med = unit_cube_medium()
    x = med.grid.nodes[:, 0]
    family = build_cloud_impedance(med, a=1e-4, h_field=1.0, N_field=0.008 + 0.2 * x,
                                   cell_size=0.25).centers
    return np.vstack([family, family + np.array([0.0131, 0.0077, 0.0029])])


SPACING_CLOUDS = {
    "builder_lattice": lambda rng: build_cloud_impedance(
        unit_cube_medium(), a=1e-3, h_field=1.0, N_field=0.729).centers,
    "lattice_1_1.9_0.6": lambda rng: lattice((1.0, 1.9, 0.6), 9, origin=(0.3, -2.0, 7.1)),
    "graded_two_family": lambda rng: graded_two_family_cloud(),
    "random_1600": lambda rng: rng.random((1600, 3)),
    "tight_box_and_outlier": lambda rng: np.vstack(
        [1e-3 * rng.random((5000, 3)), [[10.0, 0.0, 0.0]]]),
    "planar": lambda rng: np.column_stack([rng.random((1500, 2)), np.full(1500, 0.25)]),
    "collinear": lambda rng: np.outer(rng.random(1500), [0.3, -0.5, 0.8]) + [1.0, 2.0, 3.0],
}


def interleaved_lines(n=500):
    # two lines 100 apart whose points alternate in x: neighbours in (x, y, z)
    # order are about 100 apart, while d = 1
    i = np.arange(n, dtype=float)
    return np.vstack([np.column_stack([i, 0 * i, 0 * i]),
                      np.column_stack([i + 0.5, 0 * i + 100.0, 0 * i])])


class TestMinSpacing:
    """The cell search returns the brute-force minimum bit for bit."""

    def test_fewer_than_two_centers(self):
        assert min_spacing(np.zeros((0, 3))) == np.inf
        assert min_spacing([[0.1, 0.2, 0.3]]) == np.inf

    def test_two_centers(self):
        c = np.array([[0.1, 0.2, 0.3], [0.7, -0.4, 1.3]])
        assert min_spacing(c) == brute_min_spacing(c)

    def test_duplicate_centers(self):
        c = np.random.default_rng(3).random((50, 3))
        assert min_spacing(np.vstack([c, c[17]])) == 0.0

    @pytest.mark.parametrize("name", sorted(SPACING_CLOUDS))
    def test_matches_brute_force(self, name):
        c = SPACING_CLOUDS[name](np.random.default_rng(11))
        assert len(c) >= 100
        assert min_spacing(c) == brute_min_spacing(c)

    def test_many_small_random_clouds(self):
        # with this seed the closest pair, where the lexicographic passes
        # miss it, lies within one cube in some clouds and across each of the
        # 13 forward cube offsets in others
        rng = np.random.default_rng(7)
        for _ in range(700):
            c = rng.random((40, 3)) * rng.uniform(0.1, 10.0, size=3)
            assert min_spacing(c) == brute_min_spacing(c)

    @pytest.mark.parametrize("name", ["graded_two_family", "random_1600"])
    def test_chunk_boundaries_do_not_change_the_result(self, name, monkeypatch):
        # a 7-pair chunk splits the pairs of one center across chunks
        c = SPACING_CLOUDS[name](np.random.default_rng(11))
        monkeypatch.setattr(particles, "CHUNK_ENTRIES", 7)
        assert min_spacing(c) == brute_min_spacing(c)

    def test_non_finite_centers_rejected(self):
        with pytest.raises(InvariantViolation, match="finite"):
            min_spacing([[0.0, 0.0, 0.0], [np.nan, 1.0, 2.0]])

    def test_interleaved_lines_form_few_pairs(self, monkeypatch):
        # the (y, z, x) order puts each line's points next to each other, so h
        # = d and the cell search forms O(M) pairs, not all M^2 / 2
        c = interleaved_lines()
        formed = []

        def counted(dx, dy, dz):
            formed.append(np.broadcast_shapes(dx.shape, dy.shape, dz.shape))
            return norm(dx, dy, dz)

        norm = particles._norm
        monkeypatch.setattr(particles, "_norm", counted)
        assert min_spacing(c) == brute_min_spacing(c) == 1.0
        assert sum(int(np.prod(shape)) for shape in formed) <= 20 * len(c)


class TestSerialization:
    def test_round_trip_impedance(self):
        med = unit_cube_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0 - 0.3j, N_field=0.05)
        data = json.loads(json.dumps(cloud.to_json_dict()))
        assert np.array_equal(np.array(data["centers"]), cloud.centers)
        assert np.array_equal([complex(z["re"], z["im"]) for z in data["zeta"]], cloud.zeta)
        assert data["kind"] == cloud.kind and data["a"] == cloud.a and data["d"] == cloud.d

    def test_round_trip_hard(self):
        med = unit_cube_medium()
        cloud = build_cloud_hard(med, a=5e-3, nu_field=4e-4, beta=-1.5 * np.eye(3))
        data = json.loads(json.dumps(cloud.to_json_dict()))
        assert np.array_equal(np.array(data["centers"]), cloud.centers)
        assert np.array_equal(np.array(data["beta"]), cloud.beta)

    def test_h_zeta_round_trip(self):
        h = np.array([0.5 - 0.2j, 1.0])
        z = h_to_impedance(h, 1e-3)
        np.testing.assert_allclose(impedance_to_h(z, 1e-3), h, rtol=1e-14)


class TestValidateCloud:
    def test_flags_close_pair(self):
        cloud = ParticleCloud(centers=np.array([[0.0, 0, 0], [5e-3, 0, 0]]),
                              a=1e-3, kind="impedance",
                              zeta=np.array([1.0, 1.0], dtype=complex))
        rep = validate_cloud(cloud, unit_cube_medium())
        assert any("spacing" in f for f in rep.flags)

    def test_empty_cloud_report(self):
        cloud = ParticleCloud(centers=np.zeros((0, 3)), a=1e-3, kind="impedance",
                              zeta=np.zeros(0, dtype=complex))
        rep = validate_cloud(cloud, unit_cube_medium())
        assert rep.ok and rep.m == 0 and rep.volume_fraction == 0.0
