"""Shrinking-radius study and counting-measure tests."""

import numpy as np
import pytest

from smallbody.convergence import ScaleStudy, counting_measure_check, run_hard_study, run_impedance_study
from smallbody.errors import InvariantViolation
from smallbody.foldy_impedance import amplitudes, solve_cloud
from smallbody.medium import BackgroundMedium, Grid
from smallbody.particles import build_cloud_hard, build_cloud_impedance

Z_HAT = np.array([0.0, 0.0, 1.0])


def cube_medium(k=1.0, n=10):
    return BackgroundMedium(k, Grid((0, 0, 0), (1, 1, 1), (n, n, n)))


def bump_nu(medium, nu0=2e-3, width=0.3):
    t = (medium.grid.nodes - 0.5) / width
    per_axis = np.where(np.abs(t) < 1, (1 - t ** 2) ** 2, 0.0)
    return nu0 * per_axis[:, 0] * per_axis[:, 1] * per_axis[:, 2]


class TestImpedanceStudy:
    def test_zero_density_zero_error(self):
        med = cube_medium(n=6)
        study = run_impedance_study(med, 1.0, 0.0, [1e-3, 5e-4], Z_HAT)
        assert study.errors() == [0.0, 0.0]

    def test_uniform_density_monotone_errors(self):
        med = cube_medium(n=10)
        n_dens = 1.0 / (2 * np.pi)
        study = run_impedance_study(med, 1.0, n_dens, [0.02, 0.01, 0.005], Z_HAT)
        e = study.errors()
        assert e[0] > e[1] > e[2]
        assert study.complete

    def test_count_exponent_minus_one(self):
        med = cube_medium(n=6)
        study = run_impedance_study(med, 1.0, 0.08,
                                    [2e-3, 1e-3, 5e-4, 2.5e-4], Z_HAT)
        assert study.count_exponent() == pytest.approx(-1.0, abs=0.1)
        assert study.charge_exponent() == pytest.approx(1.0, abs=0.05)

    def test_counting_riemann_sum(self):
        med = cube_medium(n=8)
        study = run_impedance_study(med, 1.0, 0.05, [2e-4], Z_HAT, cell_size=0.5)
        rec = study.records[0]
        # |a M - int N| bounded by per-cell rounding
        assert abs(rec.count_weighted - rec.count_integral) <= 0.5 * 8 * 2e-4

    def test_infeasible_scale_annotated(self):
        med = cube_medium(n=6)
        study = run_impedance_study(med, 1.0, 2.0, [3e-2, 5e-3], Z_HAT)
        assert study.records[0].note != ""
        assert study.records[1].note == ""
        assert not study.complete

    def test_single_particle_matches_analytic_amplitude(self):
        # one particle: the study's largest scale reproduces the closed form
        med = cube_medium(n=6)
        h = 0.8
        a = 1e-3
        n_dens = a  # N * volume / a = 1 particle
        cloud = build_cloud_impedance(med, a, h, n_dens)
        assert len(cloud) == 1
        res = solve_cloud(med, cloud, Z_HAT)
        beta = np.array([[0.0, 0.6, 0.8]])
        amp = amplitudes(res, med, cloud, beta)[0]
        x1 = cloud.centers[0]
        analytic = (np.exp(-1j * med.k * beta[0] @ x1)
                    * (-4 * np.pi * a * h / (1 + h) / (4 * np.pi))
                    * np.exp(1j * med.k * x1[2]))
        assert abs(amp - analytic) <= 4 * np.finfo(float).eps * abs(analytic)


class TestHardStudy:
    def test_zero_density_zero_error(self):
        med = cube_medium(n=8)
        study = run_hard_study(med, 0.0, -1.5 * np.eye(3), [1e-3], Z_HAT)
        assert study.errors() == [0.0]

    def test_bump_density_monotone_errors_and_exponents(self):
        med = cube_medium(n=16)
        nu = bump_nu(med)
        study = run_hard_study(med, nu, -1.5 * np.eye(3),
                               [0.005, 1.0 / 300.0, 0.0025], Z_HAT, cell_size=0.25)
        e = study.errors()
        assert e[0] > e[1] > e[2], e
        assert study.charge_exponent() == pytest.approx(3.0, abs=0.1)
        assert study.count_exponent() == pytest.approx(-3.0, abs=0.1)

    def test_counting_weighted_by_volume(self):
        med = cube_medium(n=8)
        nu = bump_nu(med, nu0=1e-3)
        study = run_hard_study(med, nu, -1.5 * np.eye(3), [2e-3], Z_HAT, cell_size=0.5)
        rec = study.records[0]
        assert rec.count_weighted == pytest.approx(rec.count_integral, rel=0.15)

    def test_increasing_sequence_rejected(self):
        med = cube_medium(n=6)
        with pytest.raises(InvariantViolation):
            run_hard_study(med, 0.0, -1.5 * np.eye(3), [1e-3, 2e-3], Z_HAT)


class TestCountingMeasureCheck:
    def test_constant_function(self):
        med = cube_medium(n=8)
        cloud = build_cloud_impedance(med, 2e-4, 1.0, 0.05, cell_size=0.25)
        psum, integral = counting_measure_check(cloud, med, 0.05)
        assert psum.real == pytest.approx(integral.real, rel=0.03)

    def test_smooth_function(self):
        med = cube_medium(n=8)
        cloud = build_cloud_impedance(med, 1e-4, 1.0, 0.05, cell_size=0.25)

        def f(pts):
            return np.cos(pts @ np.array([1.0, 0.5, -0.3]))

        psum, integral = counting_measure_check(cloud, med, 0.05, f=f)
        assert psum.real == pytest.approx(integral.real, rel=0.03)

    def test_singular_function_with_exclusion(self):
        med = cube_medium(n=10)
        cloud = build_cloud_impedance(med, 5e-5, 1.0, 0.05, cell_size=0.2)
        y0 = np.array([0.5, 0.5, 0.5])

        def f(pts):
            return 1.0 / np.linalg.norm(pts - y0, axis=1)

        psum, integral = counting_measure_check(cloud, med, 0.05, f=f,
                                                exclusion=(y0, 0.15))
        assert np.isfinite(psum.real) and np.isfinite(integral.real)
        assert psum.real == pytest.approx(integral.real, rel=0.05)

    def test_half_domain_additivity(self):
        med = cube_medium(n=8)
        cloud = build_cloud_impedance(med, 1e-4, 1.0, 0.05, cell_size=0.25)

        def half(pts):
            return (pts[:, 0] < 0.5).astype(float)

        psum, integral = counting_measure_check(cloud, med, 0.05, f=half)
        total, _ = counting_measure_check(cloud, med, 0.05)
        assert psum.real == pytest.approx(total.real / 2, rel=0.02)

    def test_convergence_in_a(self):
        med = cube_medium(n=8)

        def f(pts):
            return np.exp(-np.sum((pts - 0.4) ** 2, axis=1))

        gaps = []
        for a in (4e-4, 1e-4):
            cloud = build_cloud_impedance(med, a, 1.0, 0.05, cell_size=0.25)
            psum, integral = counting_measure_check(cloud, med, 0.05, f=f)
            gaps.append(abs(psum - integral))
        assert gaps[1] < gaps[0]


class TestStudySerialization:
    def test_json_round_trip_fields(self):
        med = cube_medium(n=6)
        study = run_impedance_study(med, 1.0, 0.05, [1e-3, 5e-4], Z_HAT)
        data = study.to_json_dict()
        assert data["mode"] == "impedance"
        assert len(data["scales"]) == 2
        assert data["format_version"] == 1
        rows = list(study.csv_rows())
        assert len(rows) == 2 and len(rows[0]) == 8
