"""Cloud construction, counting, and validation tests."""

import numpy as np
import pytest

from smallbody.errors import InfeasibleDesign, InvariantViolation
from smallbody.medium import BackgroundMedium, Grid
from smallbody.particles import (
    BALL_SHAPE_CONSTANTS,
    CountingMeasure,
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
    h_to_impedance,
    impedance_to_h,
    validate_cloud,
)
from reference import cloud_from_json, cloud_to_json

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
            CountingMeasure(mode="per_volume", density=np.array([0.5]))

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation):
            CountingMeasure(mode="per_length", density=np.array([-1.0]))

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


class TestSerialization:
    def test_round_trip_impedance(self):
        med = unit_cube_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0 - 0.3j, N_field=0.05)
        back = cloud_from_json(cloud_to_json(cloud))
        assert np.array_equal(back.centers, cloud.centers)
        assert np.array_equal(back.zeta, cloud.zeta)
        assert back.kind == cloud.kind and back.a == cloud.a and back.d == cloud.d

    def test_round_trip_hard(self):
        med = unit_cube_medium()
        cloud = build_cloud_hard(med, a=5e-3, nu_field=4e-4, beta=-1.5 * np.eye(3))
        back = cloud_from_json(cloud_to_json(cloud))
        assert np.array_equal(back.centers, cloud.centers)
        assert np.array_equal(back.beta, cloud.beta)

    def test_h_zeta_round_trip(self):
        h = np.array([0.5 - 0.2j, 1.0])
        z = h_to_impedance(h, 1e-3)
        np.testing.assert_allclose(impedance_to_h(z, 1e-3), h, rtol=1e-14)


class TestValidateCloud:
    def test_flags_close_pair(self):
        cloud = ParticleCloud(centers=np.array([[0.0, 0, 0], [5e-3, 0, 0]]),
                              a=1e-3, d=5e-3, kind="impedance",
                              zeta=np.array([1.0, 1.0], dtype=complex))
        rep = validate_cloud(cloud, unit_cube_medium())
        assert any("spacing" in f for f in rep.flags)

    def test_empty_cloud_report(self):
        cloud = ParticleCloud(centers=np.zeros((0, 3)), a=1e-3, d=np.inf,
                              kind="impedance", zeta=np.zeros(0, dtype=complex))
        rep = validate_cloud(cloud, unit_cube_medium())
        assert rep.ok and rep.m == 0 and rep.volume_fraction == 0.0
