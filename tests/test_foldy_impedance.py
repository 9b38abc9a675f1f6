"""Impedance many-body solver tests."""

import numpy as np
import pytest

from smallbody import foldy_impedance
from smallbody.directions import DirectionGrid
from smallbody.errors import InvariantViolation
from smallbody.foldy_impedance import (
    FoldySystem,
    _solve_system,
    amplitudes,
    charge_from_effective_field,
    coupling_constants,
    evaluate_field,
    far_field,
    solve_cloud,
)
from smallbody.medium import BackgroundMedium, Grid, free_kernel, lattice_of
from smallbody.particles import (
    BALL_SHAPE_CONSTANTS,
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
    h_to_impedance,
)

Z_HAT = np.array([0.0, 0.0, 1.0])


def free_medium(k=1.0, n=4):
    return BackgroundMedium(k, Grid((0, 0, 0), (1, 1, 1), (n, n, n)))


def ball_cloud(centers, a, h):
    centers = np.atleast_2d(centers)
    zeta = h_to_impedance(np.full(len(centers), h, dtype=complex), a)
    return ParticleCloud(centers=centers, a=a, kind="impedance", zeta=zeta)


class TestChargeFormula:
    def test_ball_h_one(self):
        # h = 1 means zeta = 1/a for balls; Q = -4 pi a h/(1+h) u_e = -2 pi a
        a = 0.01
        q = charge_from_effective_field(1.0 / a, a, BALL_SHAPE_CONSTANTS, 1.0 + 0j)
        assert q == pytest.approx(-0.02 * np.pi, rel=1e-12)

    def test_zero_impedance_zero_charge(self):
        assert charge_from_effective_field(0.0, 0.01, BALL_SHAPE_CONSTANTS, 1.0) == 0.0

    def test_h_minus_one_singular(self):
        a = 0.01
        with pytest.raises(InvariantViolation):
            charge_from_effective_field(-1.0 / a, a, BALL_SHAPE_CONSTANTS, 1.0)


class TestSolver:
    def test_single_particle_sees_incident_field(self):
        med = free_medium()
        cloud = ball_cloud(np.array([[0.3, 0.4, 0.5]]), a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        expected = np.exp(1j * med.k * 0.5)
        assert res.effective_values[0] == pytest.approx(expected, rel=1e-14)
        assert res.residual <= 1e-10

    def test_two_particle_closed_form(self):
        med = free_medium()
        centers = np.array([[0.2, 0.5, 0.5], [0.8, 0.5, 0.5]])
        cloud = ball_cloud(centers, a=1e-3, h=2.0 - 0.5j)
        res = solve_cloud(med, cloud, Z_HAT)
        c = coupling_constants(cloud)
        u0 = np.exp(1j * med.k * centers[:, 2])
        g12 = free_kernel(centers[0], centers[1], med.k)
        expected1 = (u0[0] - g12 * c[1] * u0[1]) / (1 - g12 * g12 * c[0] * c[1])
        assert res.effective_values[0] == pytest.approx(expected1, rel=1e-12)
        np.testing.assert_allclose(res.charges, -c * res.effective_values, rtol=1e-14)

    def test_two_particle_closed_form_inhomogeneous_background(self):
        # same closed form with the background Green function and incident
        # solution of a nontrivial q0
        from smallbody.medium import BackgroundMedium, Grid, background_green
        med = BackgroundMedium(1.2, Grid((0, 0, 0), (1, 1, 1), (7, 7, 7)), n0=1.3)
        centers = np.array([[0.21, 0.52, 0.48], [0.79, 0.5, 0.52]])
        cloud = ball_cloud(centers, a=1e-3, h=1.5)
        res = solve_cloud(med, cloud, Z_HAT)
        c = coupling_constants(cloud)
        u0 = med.incident_values(Z_HAT, centers)
        g12 = background_green(med, centers[0], centers[1])
        g21 = background_green(med, centers[1], centers[0])
        expected1 = (u0[0] - g12 * c[1] * u0[1]) / (1 - g12 * g21 * c[0] * c[1])
        assert res.effective_values[0] == pytest.approx(expected1, rel=1e-10)

    def test_zero_coupling_returns_incident(self):
        med = free_medium()
        centers = np.array([[0.25, 0.25, 0.25], [0.75, 0.75, 0.75]])
        cloud = ball_cloud(centers, a=1e-3, h=0.0)
        res = solve_cloud(med, cloud, Z_HAT)
        np.testing.assert_allclose(res.effective_values,
                                   np.exp(1j * med.k * centers[:, 2]), rtol=1e-14)
        assert np.all(res.charges == 0)

    def test_charge_magnitude_scale(self):
        # |Q_m| <= a * max|u_e| * 4 pi c1^2/c2 * |h/(1+h)| with unit slack
        med = free_medium()
        cloud = build_cloud_impedance(med, a=5e-4, h_field=0.7 - 0.2j, N_field=0.05)
        res = solve_cloud(med, cloud, Z_HAT)
        h = 0.7 - 0.2j
        bound = (cloud.a * np.abs(res.effective_values).max()
                 * 4 * np.pi * abs(h / (1 + h)))
        assert np.abs(res.charges).max() / bound <= 1 + 1e-10

    def test_gmres_matches_dense(self, monkeypatch):
        # dense LU against GMRES on the direct apply: the lattice path is off
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        med = free_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=0.05)
        dense = solve_cloud(med, cloud, Z_HAT)
        assert dense.solver == "lu"
        monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 0)
        krylov = solve_cloud(med, cloud, Z_HAT)
        np.testing.assert_allclose(krylov.effective_values, dense.effective_values,
                                   rtol=1e-8)
        assert krylov.iterations > 0 and krylov.solver == "gmres"

    def test_lattice_fft_apply_matches_direct_apply(self):
        # a full 10 x 20 x 20 builder lattice; the pair part of both applies
        med = free_medium(n=8)
        cloud = build_cloud_impedance(med, a=1e-4, h_field=1.0 - 0.3j, N_field=0.4)
        assert len(cloud) == 4000
        lattice = lattice_of(cloud.centers)
        assert lattice.shape == (10, 20, 20)
        system = FoldySystem(med, cloud)
        rng = np.random.default_rng(3)
        u = rng.normal(size=len(cloud)) + 1j * rng.normal(size=len(cloud))
        direct = system.apply(u) - u
        fft = system.lattice_apply(lattice)(u) - u
        assert np.linalg.norm(fft - direct) <= 1e-13 * np.linalg.norm(direct)

    def test_lattice_path_matches_dense(self, monkeypatch):
        med = free_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=0.729)
        assert len(cloud) == 729
        lattice = solve_cloud(med, cloud, Z_HAT)
        assert lattice.solver == "lattice_fft" and lattice.rcond is None
        assert lattice.iterations > 0 and lattice.residual <= 1e-10
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        dense = solve_cloud(med, cloud, Z_HAT)
        assert dense.solver == "lu"
        np.testing.assert_allclose(lattice.effective_values, dense.effective_values, rtol=1e-9)

    def test_linearity_in_incident_field(self):
        med = free_medium()
        centers = np.array([[0.2, 0.5, 0.5], [0.8, 0.5, 0.5]])
        cloud = ball_cloud(centers, a=1e-3, h=1.0)
        u0 = np.exp(1j * med.k * centers[:, 2])
        system = FoldySystem(med, cloud)
        u1 = _solve_system(system, lambda: u0)[0]
        u2 = _solve_system(system, lambda: 2.0 * u0)[0]
        np.testing.assert_allclose(u2, 2.0 * u1, rtol=1e-13)

    @pytest.mark.parametrize("kind,m,solver", [
        ("impedance", 80, "lu"), ("impedance", 100, "lattice_fft"), ("impedance", 512, "lattice_fft"),
        ("hard", 20, "lu"), ("hard", 25, "lattice_fft"), ("hard", 125, "lattice_fft")])
    def test_lattice_path_from_the_measured_crossover(self, kind, m, solver):
        # free builder lattices on both sides of 100 unknowns: M or 4M
        med = free_medium()
        if kind == "impedance":
            cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=m * 1e-3)
        else:
            cloud = build_cloud_hard(med, a=5e-3, nu_field=m * 4 * np.pi / 3 * 5e-3 ** 3,
                                     beta=-1.5 * np.eye(3))
        assert len(cloud) == m and lattice_of(cloud.centers) is not None
        assert solve_cloud(med, cloud, Z_HAT).solver == solver

    @pytest.mark.parametrize("kind,unknowns_per_particle", [("impedance", 1), ("hard", 4)])
    def test_dense_cap_counts_unknowns(self, monkeypatch, kind, unknowns_per_particle):
        # with a cap of 100 unknowns, 100 impedance or 25 hard particles
        # factor and one particle more takes GMRES on the direct apply
        monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 100)
        med = free_medium()
        centers = np.random.default_rng(4).uniform(0.1, 0.9, size=(101, 3))
        last_dense = 100 // unknowns_per_particle
        for m, solver in ((last_dense, "lu"), (last_dense + 1, "gmres")):
            c = centers[:m]
            cloud = (ball_cloud(c, a=1e-4, h=1.0) if kind == "impedance" else
                     ParticleCloud(centers=c, a=1e-4, kind="hard", beta=-1.5 * np.eye(3)))
            assert solve_cloud(med, cloud, Z_HAT).solver == solver


class TestEvaluateField:
    def test_zero_charges_gives_incident(self):
        med = free_medium()
        cloud = ball_cloud(np.array([[0.5, 0.5, 0.5]]), a=1e-3, h=0.0)
        res = solve_cloud(med, cloud, Z_HAT)
        pts = np.array([[0.0, 0.0, 3.0], [2.0, 1.0, -1.0]])
        fld = evaluate_field(res, med, cloud, pts)
        np.testing.assert_allclose(fld.values, np.exp(1j * med.k * pts[:, 2]), rtol=1e-14)

    def test_single_particle_definition(self):
        med = free_medium()
        center = np.array([[0.5, 0.5, 0.5]])
        cloud = ball_cloud(center, a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        pt = np.array([[0.5, 0.5, 2.5]])
        fld = evaluate_field(res, med, cloud, pt)
        expected = (np.exp(1j * med.k * 2.5)
                    + free_kernel(pt[0], center[0], med.k) * res.charges[0])
        assert fld.values[0] == pytest.approx(expected, rel=1e-14)

    def test_near_point_rejected(self):
        med = free_medium()
        centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
        cloud = ball_cloud(centers, a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        with pytest.raises(InvariantViolation):
            evaluate_field(res, med, cloud, np.array([[0.3, 0.5, 0.55]]))

    def test_monopole_truncation_against_surface_layer(self):
        # A uniform single layer on a sphere vs its monopole reduction:
        # |int_S (g(x,s) - g(x,x1)) sigma ds| <= c (a/d^2 + ka/d) |Q|
        k = 1.0
        a = 1e-3
        x1 = np.zeros(3)
        nt, np_ = 40, 80
        tt, ww = np.polynomial.legendre.leggauss(nt)
        theta = np.arccos(tt)
        phi = 2 * np.pi * np.arange(np_) / np_
        T, P = np.meshgrid(theta, phi, indexing="ij")
        spts = a * np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)],
                            axis=-1).reshape(-1, 3)
        warea = np.repeat(ww, np_) * (2 * np.pi / np_) * a ** 2  # sums to 4 pi a^2
        sigma = 1.0
        q_total = 4 * np.pi * a ** 2 * sigma
        ratios = []
        for d in (0.05, 0.1, 0.2):
            x = np.array([[0.0, 0.0, d]])
            layer = (free_kernel(x, spts, k)[0] * sigma * warea).sum()
            mono = free_kernel(x[0], x1, k) * q_total
            ratios.append(abs(layer - mono) / abs(q_total) / (a / d ** 2 + k * a / d))
        assert max(ratios) < 1.0


class TestFarField:
    def test_single_ball_isotropic_amplitude(self):
        med = free_medium(k=5.0)
        a = 0.05 / med.k
        h = 1.0
        cloud = ball_cloud(np.zeros((1, 3)) + 0.5, a=a, h=h)
        res = solve_cloud(med, cloud, Z_HAT)
        ff = far_field(res, med, cloud)
        # remove the center phase: A = -a h/(1+h) e^{-ik beta.x1} u0(x1)
        betas = ff.grid.vectors()
        phase = np.exp(-1j * med.k * betas @ cloud.centers[0]) * \
            np.exp(1j * med.k * cloud.centers[0, 2])
        reduced = ff.values / phase
        assert np.abs(reduced - reduced[0]).max() < 1e-12
        assert reduced[0] == pytest.approx(-a * h / (1 + h), rel=1e-10)

    def test_soft_sphere_limit(self):
        med = free_medium(k=5.0)
        a = 0.05 / med.k
        cloud = ball_cloud(np.zeros((1, 3)), a=a, h=1e4)
        res = solve_cloud(med, cloud, Z_HAT)
        amp = amplitudes(res, med, cloud, Z_HAT[None, :])[0]
        assert abs(amp - (-a)) / a < 1e-3

    def test_zero_charges_zero_amplitude(self):
        med = free_medium()
        cloud = ball_cloud(np.array([[0.5, 0.5, 0.5]]), a=1e-3, h=0.0)
        res = solve_cloud(med, cloud, Z_HAT)
        ff = far_field(res, med, cloud, DirectionGrid(8, 16))
        assert np.all(ff.values == 0)

    def test_far_field_consistency(self):
        # r e^{-ikr} (u_M - u0)(r beta) -> A(beta) with error <= 3/(kr)
        med = free_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=0.02)
        res = solve_cloud(med, cloud, Z_HAT)
        beta = np.array([0.6, 0.0, 0.8])
        amp = amplitudes(res, med, cloud, beta[None, :])[0]
        r = 150.0 / med.k
        pt = (r * beta)[None, :]
        u_m = evaluate_field(res, med, cloud, pt).values[0]
        u_0 = np.exp(1j * med.k * pt[0] @ Z_HAT)
        extracted = r * np.exp(-1j * med.k * r) * (u_m - u_0)
        assert abs(extracted - amp) / abs(amp) <= 3.0 / (med.k * r)

    def test_charge_scale_law(self):
        med = free_medium()
        avals = (2e-3, 1e-3, 5e-4, 2.5e-4)
        max_q = []
        for a in avals:
            cloud = build_cloud_impedance(med, a=a, h_field=1.0, N_field=0.05)
            res = solve_cloud(med, cloud, Z_HAT)
            max_q.append(np.abs(res.charges).max())
        slope = np.polyfit(np.log(avals), np.log(max_q), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_optical_theorem_slack(self):
        # point monopoles conserve flux to O(ka): defect <= 1e-3 max|A| at tiny ka
        med = free_medium(k=0.1)
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=0.01)
        res = solve_cloud(med, cloud, Z_HAT)
        ff = far_field(res, med, cloud)
        forward = amplitudes(res, med, cloud, Z_HAT[None, :])[0]
        flux = med.k / (4 * np.pi) * ff.integral_abs_squared()
        assert abs(forward.imag - flux) <= 1e-3 * np.abs(ff.values).max()

    def test_doubling_charges_doubles_amplitude(self):
        med = free_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=0.5, N_field=0.02)
        res = solve_cloud(med, cloud, Z_HAT)
        base = amplitudes(res, med, cloud, Z_HAT[None, :])[0]
        res.charges *= 2.0
        assert amplitudes(res, med, cloud, Z_HAT[None, :])[0] == pytest.approx(2 * base, rel=1e-13)
