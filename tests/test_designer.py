"""Design-recipe tests: target -> potential -> (h, N) -> cloud -> verification."""

import numpy as np
import pytest

from smallbody.convergence import verify_design
from smallbody.designer import choose_h_N, target_to_potential
from smallbody.errors import InvariantViolation
from smallbody.foldy_impedance import solve_cloud
from smallbody.limit_solver import potential_from_h_N
from smallbody.medium import BackgroundMedium, Grid, far_probe_points
from smallbody.particles import build_cloud_impedance, validate_cloud

Z_HAT = np.array([0.0, 0.0, 1.0])


def cube_medium(k=1.0, n=8, lo=(0, 0, 0), hi=(1, 1, 1)):
    return BackgroundMedium(k, Grid(lo, hi, (n, n, n)))


def subbox_target(medium, inside, outside=1.0):
    nodes = medium.grid.nodes
    mask = np.all((nodes > 0.25) & (nodes < 0.75), axis=1)
    return np.where(mask, inside, outside).astype(complex)


class TestTargetToPotential:
    def test_real_uplift(self):
        med = cube_medium(k=2.0, n=4)
        p = target_to_potential(med, 1.2)
        np.testing.assert_allclose(p, -0.8, rtol=1e-14)

    def test_identity_target(self):
        med = cube_medium(n=4)
        assert np.all(target_to_potential(med, 1.0) == 0.0)

    def test_absorptive_target_sign(self):
        med = cube_medium(k=1.0, n=4)
        p = target_to_potential(med, 1.0 + 0.1j)
        np.testing.assert_allclose(p, -0.1j, atol=1e-15)
        assert np.all(p.imag < 0)

    def test_gain_target_rejected(self):
        med = cube_medium(n=4)
        with pytest.raises(InvariantViolation):
            target_to_potential(med, 1.2 - 0.05j)


class TestChooseHN:
    def test_branch_a(self):
        h, n = choose_h_N(np.array([1.0 - 1.0j]))
        assert h[0] == pytest.approx(-1j, abs=1e-14)
        assert n[0] == pytest.approx(1 / (2 * np.pi), rel=1e-12)

    def test_branch_b(self):
        h, n = choose_h_N(np.array([0.7 + 0j]))
        assert h[0] == 1.0
        assert n[0] == pytest.approx(0.7 / (2 * np.pi), rel=1e-12)

    def test_branch_c(self):
        h, n = choose_h_N(np.array([-0.8 + 0j]))
        assert h[0] == -0.5
        assert n[0] == pytest.approx(0.8 / (4 * np.pi), rel=1e-12)
        realized = potential_from_h_N(h, n)
        assert realized[0] == pytest.approx(-0.8, rel=1e-13)

    def test_branch_d(self):
        h, n = choose_h_N(np.array([0.0 + 0.0j]))
        assert h[0] == 0.0 and n[0] == 0.0

    def test_branch_e(self):
        p = np.array([-0.3 - 0.5j])
        h, n = choose_h_N(p)
        assert h[0].real == -0.5 and h[0].imag < 0
        assert n[0] > 0
        assert potential_from_h_N(h, n)[0] == pytest.approx(p[0], rel=1e-13)

    def test_round_trip_property_random_admissible(self):
        rng = np.random.default_rng(17)
        p1 = rng.normal(scale=2.0, size=300)
        p2 = -np.abs(rng.normal(scale=1.5, size=300))
        p2[rng.random(300) < 0.3] = 0.0
        p = p1 + 1j * p2
        h, n = choose_h_N(p)
        assert np.all(h.imag <= 1e-14)
        assert np.all(n >= 0)
        realized = potential_from_h_N(h, n)
        np.testing.assert_allclose(realized, p, rtol=1e-12, atol=1e-12)

    def test_gain_p_rejected(self):
        with pytest.raises(InvariantViolation):
            choose_h_N(np.array([0.5 + 0.2j]))

    def test_non_uniqueness_witness(self):
        # branch B picks (1, p1/(2pi)); (2, 3 p1/(8 pi)) realizes the same p
        p1 = 0.9
        h_b, n_b = choose_h_N(np.array([p1 + 0j]))
        h_alt, n_alt = 2.0, 3 * p1 / (8 * np.pi)
        assert (h_b[0], n_b[0]) != (h_alt, n_alt)
        alt = potential_from_h_N(np.array([h_alt]), np.array([n_alt]))
        assert alt[0] == pytest.approx(p1, rel=1e-13)


class TestRealize:
    def test_empty_density_trivial(self):
        med = cube_medium(n=4)
        h, n = choose_h_N(target_to_potential(med, 1.0))
        cloud = build_cloud_impedance(med, 1e-5, h, n)
        assert validate_cloud(cloud, med).m == 0
        assert len(cloud) == 0

    def test_reference_cell_feasibility(self):
        # b = 1e-2, a = 1e-5, N = 1e4: 10^3 particles, d/a = 100
        med = cube_medium(k=1.0, n=4, hi=(0.01, 0.01, 0.01))
        cloud = build_cloud_impedance(med, 1e-5, np.full(med.grid.size, 0.5 + 0j),
                                      np.full(med.grid.size, 1e4))
        report = validate_cloud(cloud, med)
        assert report.m == 1000
        assert report.spacing_over_a == pytest.approx(100.0, rel=1e-9)
        assert report.volume_fraction == pytest.approx(4.18879e-6, rel=1e-4)

    def test_overdense_rejected(self):
        med = cube_medium(n=4)
        with pytest.raises(Exception, match="cell|cap"):
            build_cloud_impedance(med, 3e-2, np.full(med.grid.size, 1.0 + 0j),
                                  np.full(med.grid.size, 2.0))


class TestVerifyDesign:
    def test_trivial_design_passes(self):
        med = cube_medium(n=6)
        h, n = choose_h_N(target_to_potential(med, 1.0))
        study, _, passed = verify_design(med, h, n, [1e-4, 5e-5], Z_HAT)
        assert passed
        assert max(study.errors()) <= 1e-12

    def test_branch_c_subbox_convergence(self):
        med = cube_medium(k=1.0, n=12)
        p = target_to_potential(med, subbox_target(med, 1.2))
        h, n_dens = choose_h_N(p)
        build_cloud_impedance(med, 1e-5, h, n_dens, cell_size=0.25)  # the design cloud builds
        cell_mass = 0.2 / (4 * np.pi) * 0.25 ** 3
        a_seq = [cell_mass / c for c in (1, 8, 27)]
        study, decreasing, passed = verify_design(med, h, n_dens, a_seq, Z_HAT, cell_size=0.25)
        assert decreasing, study.errors()
        assert study.errors()[-1] <= 0.05
        assert passed
        assert [r.m for r in study.records] == [8 * 1, 8 * 8, 8 * 27]

    def test_absorptive_design_attenuates(self):
        med = cube_medium(k=1.0, n=12)
        p = target_to_potential(med, subbox_target(med, 1.0 + 0.5j))
        h, n_dens = choose_h_N(p)
        assert np.all(h.imag <= 1e-14)
        cloud = build_cloud_impedance(med, 2e-5, h, n_dens, cell_size=0.25)
        solve = solve_cloud(med, cloud, Z_HAT)
        downstream = np.array([[0.5, 0.5, 4.0]])
        u_m = solve.sources.field(downstream).values[0]
        assert abs(u_m) < 1.0

    def test_probe_layout(self):
        med = cube_medium(n=4)
        pts = far_probe_points(med.grid)
        assert pts.shape == (26, 3)
        radii = np.linalg.norm(pts - 0.5, axis=1)
        np.testing.assert_allclose(radii, 5 * np.sqrt(3.0), rtol=1e-12)
