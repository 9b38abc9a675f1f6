"""Hard-particle (Neumann) many-body solver tests."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smallbody import foldy_impedance, medium
from smallbody.directions import DirectionGrid
from smallbody.foldy_impedance import (FoldySystem, amplitudes, evaluate_field, far_field,
                                       solve_cloud)
from smallbody.foldy_neumann import ball_polarizability
from smallbody.medium import RESIDUAL_TOL, BackgroundMedium, Grid, lattice_of
from smallbody.particles import ParticleCloud, build_cloud_hard
from reference import free_kernel, free_kernel_grad_y, green_blocks

Z_HAT = np.array([0.0, 0.0, 1.0])
C3 = 4 * np.pi / 3
SCENES = Path(__file__).resolve().parent.parent / "scenes"


def free_medium(k=1.0, n=4):
    return BackgroundMedium(k, Grid((0, 0, 0), (1, 1, 1), (n, n, n)))


def hard_cloud(centers, a, beta=None):
    return ParticleCloud(centers=np.atleast_2d(centers), a=a, kind="hard",
                         beta=ball_polarizability() if beta is None else beta)


class TestBallPolarizability:
    def test_diagonal(self):
        np.testing.assert_array_equal(np.diag(ball_polarizability()), [-1.5, -1.5, -1.5])

    def test_off_diagonal_zero(self):
        b = ball_polarizability()
        assert np.all(b[~np.eye(3, dtype=bool)] == 0.0)

    def test_trace(self):
        assert np.trace(ball_polarizability()) == -4.5


class TestSingleParticle:
    def test_values_equal_incident(self):
        med = free_medium()
        cloud = hard_cloud(np.array([[0.5, 0.5, 0.5]]), a=5e-3)
        res = solve_cloud(med, cloud, Z_HAT)
        assert res.effective_values[0] == pytest.approx(np.exp(0.5j * med.k), rel=1e-14)
        np.testing.assert_allclose(
            res.effective_gradients[0],
            1j * med.k * Z_HAT * np.exp(0.5j * med.k), rtol=1e-14)

    def test_ball_charge_and_dipole(self):
        med = free_medium()
        a = 0.05 / med.k
        cloud = hard_cloud(np.zeros((1, 3)), a=a)
        res = solve_cloud(med, cloud, Z_HAT)
        vol = C3 * a ** 3
        assert res.charges[0] == pytest.approx(-med.k ** 2 * vol, rel=1e-13)
        np.testing.assert_allclose(res.dipole_moments[0], 1.5j * med.k * vol * Z_HAT,
                                   rtol=1e-13, atol=1e-20)

    def test_rigid_sphere_rayleigh_pattern(self):
        med = free_medium()
        a = 0.05 / med.k
        cloud = hard_cloud(np.zeros((1, 3)), a=a)
        res = solve_cloud(med, cloud, Z_HAT)
        ff = far_field(res, med, cloud)
        betas = ff.grid.vectors()
        expected = (med.k ** 2 * a ** 3 / 3) * (1.5 * betas @ Z_HAT - 1.0)
        assert np.abs(ff.values - expected).max() / np.abs(expected).max() <= 3 * med.k * a

    def test_forward_backward_ratio(self):
        med = free_medium()
        cloud = hard_cloud(np.zeros((1, 3)), a=0.05)
        res = solve_cloud(med, cloud, Z_HAT)
        fwd, bwd = amplitudes(res, med, cloud, np.array([Z_HAT, -Z_HAT]))
        assert fwd / bwd == pytest.approx(-0.2, abs=0.01)

    def test_perpendicular_is_pure_monopole(self):
        med = free_medium()
        a = 0.04
        cloud = hard_cloud(np.zeros((1, 3)), a=a)
        res = solve_cloud(med, cloud, Z_HAT)
        amp = amplitudes(res, med, cloud, np.array([[1.0, 0.0, 0.0]]))[0]
        assert amp == pytest.approx(-med.k ** 2 * a ** 3 / 3, rel=1e-12)

    def test_isotropy_in_beta_dot_alpha(self):
        # amplitude depends on beta only through beta . alpha
        med = free_medium()
        cloud = hard_cloud(np.zeros((1, 3)), a=0.05)
        res = solve_cloud(med, cloud, Z_HAT)
        rng = np.random.default_rng(4)
        cos_target = 0.42
        betas = []
        for _ in range(100):
            v = rng.normal(size=3)
            v -= (v @ Z_HAT) * Z_HAT
            v /= np.linalg.norm(v)
            betas.append(cos_target * Z_HAT + np.sqrt(1 - cos_target ** 2) * v)
        amps = amplitudes(res, med, cloud, np.array(betas))
        assert np.abs(amps - amps[0]).max() <= 1e-12 * np.abs(amps[0])


class TestCoupledSystem:
    def test_vanishing_volume_decouples(self):
        med = free_medium()
        centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
        u0 = np.exp(1j * med.k * centers[:, 2])
        devs = []
        for a in (4e-3, 2e-3, 1e-3):
            res = solve_cloud(med, hard_cloud(centers, a=a), Z_HAT)
            devs.append(np.abs(res.effective_values - u0).max())
        # coupling scales with V ~ a^3
        assert devs[0] / devs[1] == pytest.approx(8.0, rel=0.05)
        assert devs[1] / devs[2] == pytest.approx(8.0, rel=0.05)

    def test_monopole_only_matches_impedance_evaluation(self):
        # with beta = 0 the hard field is u0 + G Q, same as the monopole form
        med = free_medium()
        center = np.array([[0.5, 0.5, 0.5]])
        cloud = hard_cloud(center, a=5e-3, beta=np.zeros((3, 3)))
        res = solve_cloud(med, cloud, Z_HAT)
        pt = np.array([[0.5, 0.5, 2.0]])
        fld = evaluate_field(res, med, cloud, pt)
        expected = (np.exp(2.0j * med.k)
                    + free_kernel(pt[0], center[0], med.k) * res.charges[0])
        assert fld.values[0] == pytest.approx(expected, rel=1e-14)

    @staticmethod
    def species_pair(med, a=5e-3):
        """A beta = 0 hard cloud on a 5^3 lattice, and the impedance cloud on
        its centres with coupling c = -q = V (k^2 - q0): on balls
        h = c / (4 pi a - c) and zeta = h / a."""
        hard = build_cloud_hard(med, a=a, nu_field=125 * C3 * a ** 3, beta=np.zeros((3, 3)))
        assert len(hard) == 125
        c = (med.k ** 2 - med.q0_at(hard.centers)) * hard.volume_per_particle
        h = c / (4 * np.pi * a - c)
        return hard, ParticleCloud(centers=hard.centers, a=a, kind="impedance", zeta=h / a)

    @pytest.mark.parametrize("background", ["free", "ball"])
    def test_beta_zero_is_the_impedance_cloud_of_coupling_minus_q(self, monkeypatch, background):
        # both species radiate Q = q u_e: without a dipole the hard values solve
        # the impedance system of c = -q (the stored free kernel on both sides); the
        # two GMRES solves run to a residual of 1e-12 to meet rtol=1e-12
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        monkeypatch.setattr(medium, "RESIDUAL_TOL", 1e-12)
        grid = Grid((0, 0, 0), (1, 1, 1), (4, 4, 4))
        n0 = 1.0 if background == "free" else np.where(
            np.linalg.norm(grid.nodes - 0.5, axis=1) < 0.4, 1.15, 1.0)
        med = BackgroundMedium(2.0, grid, n0)
        hard, imp = self.species_pair(med)
        res_hard, res_imp = solve_cloud(med, hard, Z_HAT), solve_cloud(med, imp, Z_HAT)
        assert res_hard.solver == res_imp.solver == "dense"
        np.testing.assert_allclose(res_hard.effective_values, res_imp.effective_values,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(res_hard.charges, res_imp.charges, rtol=1e-12, atol=0)

    def test_beta_zero_lattice_path_is_the_impedance_cloud_of_coupling_minus_q(self):
        # the value rows of the hard lattice apply are the impedance lattice
        # apply to 1e-12; the two GMRES solves agree to their residual bound
        med = free_medium(k=2.0)
        hard, imp = self.species_pair(med)
        m = len(hard)
        lattice = lattice_of(hard.centers)
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4 * m, 2)) @ [1.0, 1j]
        got = FoldySystem(med, hard).operator(lattice)(v)[:m] - v[:m]
        want = FoldySystem(med, imp).operator(lattice)(v[:m]) - v[:m]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        res_hard, res_imp = solve_cloud(med, hard, Z_HAT), solve_cloud(med, imp, Z_HAT)
        assert res_hard.solver == res_imp.solver == "lattice_fft"
        diff = np.linalg.norm(res_hard.effective_values - res_imp.effective_values)
        assert diff <= 10 * RESIDUAL_TOL * np.linalg.norm(res_imp.effective_values)

    def test_gradient_consistency_fd(self):
        # solver gradient at x_j matches finite differences of the field
        # evaluated with particle j removed
        med = free_medium()
        centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.4, 0.6], [0.5, 0.8, 0.3]])
        cloud = hard_cloud(centers, a=5e-3)
        res = solve_cloud(med, cloud, Z_HAT)
        j = 1
        h = 1e-3
        for p in range(3):
            e = np.zeros(3)
            e[p] = h
            up = evaluate_field(res, med, cloud, centers[j][None, :] + e, exclude=j)
            um = evaluate_field(res, med, cloud, centers[j][None, :] - e, exclude=j)
            fd = (up.values[0] - um.values[0]) / (2 * h)
            assert abs(fd - res.effective_gradients[j, p]) <= 1e-4 * np.abs(
                res.effective_gradients[j]).max()

    def test_gradient_consistency_inhomogeneous_background(self):
        # exercises the q0-corrected kernel gradients and Hessians end to end
        med = BackgroundMedium(1.1, Grid((0, 0, 0), (1, 1, 1), (7, 7, 7)), n0=1.25)
        centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.4, 0.6], [0.5, 0.8, 0.3]])
        cloud = hard_cloud(centers, a=5e-3)
        res = solve_cloud(med, cloud, Z_HAT)
        j = 1
        h = 1e-3
        for p in range(3):
            e = np.zeros(3)
            e[p] = h
            up = evaluate_field(res, med, cloud, centers[j][None, :] + e, exclude=j)
            um = evaluate_field(res, med, cloud, centers[j][None, :] - e, exclude=j)
            fd = (up.values[0] - um.values[0]) / (2 * h)
            assert abs(fd - res.effective_gradients[j, p]) <= 1e-4 * np.abs(
                res.effective_gradients[j]).max()

    def test_inhomogeneous_solve_factors_the_grid_once_without_gmres(self, monkeypatch):
        # the stored system's volume correction factors the grid operator on
        # S = supp q0; the incident column, the probe field and the far field
        # reuse that LU, and the only GMRES is that of the 12 particle
        # unknowns.  A constant n0 puts every node in S, an n0 ball only the
        # nodes inside it
        from smallbody import medium as medium_module

        def logged(module, name, log):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                log.append(len(args[-1]))  # zgetrf(a): the order; _gmres(apply, b): len(b)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        orders, gmres_calls = [], []
        logged(medium_module._lapack(), "zgetrf", orders)
        logged(medium_module, "_gmres", gmres_calls)
        cloud = hard_cloud(np.array([[0.3, 0.5, 0.5], [0.7, 0.4, 0.6], [0.5, 0.8, 0.3]]), a=0.03)

        def ball(z):
            return np.where(np.linalg.norm(z - 0.5, axis=1) < 0.35, 1.25, 1.0)

        for n0, support in ((1.25, 343), (ball, 81)):
            orders.clear()
            med = BackgroundMedium(1.1, Grid((0, 0, 0), (1, 1, 1), (7, 7, 7)), n0=n0)
            assert np.count_nonzero(med.q0) == support
            res = solve_cloud(med, cloud, Z_HAT)
            evaluate_field(res, med, cloud, [[0.5, 0.5, 3.0]])
            far_field(res, med, cloud, DirectionGrid(4, 8))
            assert orders == [support] and set(gmres_calls) == {12}

    def test_dense_inhomogeneous_solve_builds_one_table_and_threads_its_grid_solves_to_the_field(
            self, monkeypatch):
        # solve, probe field and far field on the stored free kernel: the
        # system's factors (T, W) build the centres' support table once, and
        # the incident column sums over T.  The grid solves are W's and u0's,
        # both in the solve: the probe field and far field take the
        # particles' node sources as -W s and solve nothing more
        def counted(name, log, keep=lambda *args: True):
            fn = getattr(BackgroundMedium, name)

            def wrapper(self, *args, **kwargs):
                if keep(*args):
                    log.append(name)
                return fn(self, *args, **kwargs)

            monkeypatch.setattr(BackgroundMedium, name, wrapper)

        med = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (8, 8, 8)), n0=lambda z: np.where(
            np.linalg.norm(z - 0.5, axis=1) < 0.4, 1.15, 1.0))
        # the 120 builder centres moved off their lattice: a lattice cloud
        # would take the lattice FFT apply
        sites = build_cloud_hard(med, 0.01, 5e-4, -1.5 * np.eye(3), cell_size=0.5).centers
        cloud = hard_cloud(sites + 0.01 * np.sin(np.arange(sites.size)).reshape(-1, 3), a=0.01,
                           beta=-1.5 * np.eye(3))
        assert lattice_of(cloud.centers) is None
        solves, tables, node_sums = [], [], []
        counted("_solve_grid", solves)
        counted("_node_columns", tables,
                lambda pts, *args: np.array_equal(np.asarray(pts), cloud.centers))
        # the incident column reads T: no kernel sum from the nodes of S to
        # the centres
        kernel_sum = medium._kernel_sum
        monkeypatch.setattr(medium, "_kernel_sum", lambda x, k, orders, w, y=None: (
            node_sums.append(1) if np.array_equal(x, cloud.centers)
            and np.array_equal(y, med.grid.nodes[med._support]) else None)
            or kernel_sum(x, k, orders, w, y))
        res = solve_cloud(med, cloud, Z_HAT)
        assert res.solver == "dense"
        assert len(solves) == 2
        evaluate_field(res, med, cloud, [[0.5, 0.5, 3.0], [3.0, 0.5, 0.5]])
        far_field(res, med, cloud, DirectionGrid(4, 8))
        assert len(solves) == 2 and len(tables) == 1 and not node_sums

    def test_dense_matrix_peak_memory(self):
        # the hard system of a 120-particle cloud in an n0 ball on 8^3 nodes:
        # the traced peak of forming its operator on the stored free kernel,
        # with the grid LU already factored, stays within 2.5 times the
        # stored (4M, 4M) kernel
        med = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (8, 8, 8)), n0=lambda z: np.where(
            np.linalg.norm(z - 0.5, axis=1) < 0.4, 1.15, 1.0))
        cloud = build_cloud_hard(med, 0.01, 5e-4, -1.5 * np.eye(3), cell_size=0.5)
        assert len(cloud) == 120
        system = FoldySystem(med, cloud)
        med._factorization()
        tracemalloc.start()
        try:
            system.operator(stored=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (4 * 120) ** 2 * np.dtype(complex).itemsize

    def test_inhomogeneous_field_and_amplitudes_match_green_blocks(self):
        # equivalent sources against the Green-block sum and the reciprocity
        # route A - A0 = (1/4pi) sum_m [u0(x_m,-b) Q_m + grad u0(x_m,-b) . P_m]
        med = BackgroundMedium(1.1, Grid((0, 0, 0), (1, 1, 1), (7, 7, 7)), n0=1.25)
        centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.4, 0.6], [0.5, 0.8, 0.3]])
        cloud = hard_cloud(centers, a=0.03)
        res = solve_cloud(med, cloud, Z_HAT)
        pts = np.array([[0.9, 0.9, 0.9], [0.5, 0.5, 3.0], [-2.0, 1.0, 0.5], centers[1]])
        for exclude, probes in ((None, pts[:3]), (1, pts)):
            keep = [m for m in range(len(centers)) if m != exclude]
            g, _, grad_y = green_blocks(med, probes, centers[keep], order=1)
            reference = (med.incident_values(Z_HAT, probes) + g @ res.charges[keep]
                         + np.einsum("xmp,mp->x", grad_y, res.dipole_moments[keep]))
            got = evaluate_field(res, med, cloud, probes, exclude=exclude).values
            assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()
        betas = DirectionGrid(4, 8).vectors()
        part = amplitudes(res, med, cloud, betas) - med.background_amplitude(betas, Z_HAT)
        reference = np.empty(len(betas), dtype=complex)
        for i, beta in enumerate(betas):
            u0 = med.incident_values(-beta, centers, order=1)
            reference[i] = (u0[:3] @ res.charges + u0[3:] @ res.dipole_moments.reshape(-1)) \
                / (4 * np.pi)
        assert np.abs(part - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_linearity(self):
        med = free_medium()
        centers = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        cloud = hard_cloud(centers, a=5e-3)
        res = solve_cloud(med, cloud, Z_HAT)
        res2 = solve_cloud(med, cloud, Z_HAT)
        res2.charges *= 2
        res2.dipole_moments *= 2
        pt = np.array([[0.5, 0.5, 3.0]])
        f1 = evaluate_field(res, med, cloud, pt).values[0]
        f2 = evaluate_field(res2, med, cloud, pt).values[0]
        u0 = np.exp(3.0j * med.k)
        assert f2 - u0 == pytest.approx(2 * (f1 - u0), rel=1e-12)


class TestDipoleMonopoleRatio:
    def test_ratio_grows_below_kd_one(self):
        # dipole/monopole far contributions: ~const for kd >= 1, ~1/(kd) below
        k = 1.0
        med = free_medium(k=k)
        a = 1e-3
        vol = C3 * a ** 3
        ratios = []
        dvals = (0.25, 0.5, 1.0, 2.0, 4.0)
        for d in dvals:
            centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, d]])
            cloud = hard_cloud(centers, a=a)
            res = solve_cloud(med, cloud, Z_HAT)
            x = np.array([d * 0.8, 0.0, -d * 0.6])  # distance d from particle 0
            mono = abs(free_kernel(x, centers[0], k) * res.charges[0])
            dip = abs(free_kernel_grad_y(x, centers[0], k) @ res.dipole_moments[0])
            ratios.append(dip / mono)
        small = np.log(ratios[:2])
        slope_small = (small[1] - small[0]) / np.log(dvals[1] / dvals[0])
        assert slope_small == pytest.approx(-1.0, abs=0.25)
        assert ratios[3] / ratios[4] == pytest.approx(1.0, abs=0.35)


class TestScaleLaw:
    def test_charges_scale_as_volume(self):
        med = free_medium()
        avals = (8e-3, 6e-3, 5e-3)
        maxq = []
        for a in avals:
            cloud = build_cloud_hard(med, a=a, nu_field=2e-4, beta=ball_polarizability())
            res = solve_cloud(med, cloud, Z_HAT)
            maxq.append(np.abs(res.charges).max())
        slope = np.polyfit(np.log(avals), np.log(maxq), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.1)

    def test_lattice_fft_apply_matches_direct_apply(self):
        # antipodal sites of a partly filled 16^3 builder lattice
        med = free_medium(n=8)
        cloud = build_cloud_hard(med, a=2.28e-3, nu_field=2e-4, beta=ball_polarizability())
        assert len(cloud) == 4028
        lattice = lattice_of(cloud.centers)
        assert lattice.shape == (16, 16, 16)
        system = FoldySystem(med, cloud)
        rng = np.random.default_rng(5)
        v = rng.normal(size=4 * len(cloud)) + 1j * rng.normal(size=4 * len(cloud))
        direct = system.operator()(v) - v
        fft = system.operator(lattice)(v) - v
        assert np.linalg.norm(fft - direct) <= 1e-13 * np.linalg.norm(direct)

    def test_lattice_path_matches_dense(self, monkeypatch):
        med = free_medium()
        cloud = build_cloud_hard(med, a=5e-3, nu_field=512 * C3 * 5e-3 ** 3,
                                 beta=ball_polarizability())
        assert len(cloud) == 512
        lattice = solve_cloud(med, cloud, Z_HAT)
        assert lattice.solver == "lattice_fft" and lattice.residual <= 1e-10
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        dense = solve_cloud(med, cloud, Z_HAT)
        assert dense.solver == "dense"
        np.testing.assert_allclose(lattice.effective_values, dense.effective_values, rtol=1e-9)
        scale = np.abs(dense.effective_gradients).max()
        np.testing.assert_allclose(lattice.effective_gradients, dense.effective_gradients,
                                   rtol=1e-8, atol=1e-10 * scale)

    def test_matrix_free_matches_dense(self, monkeypatch):
        # the stored free kernel against its row chunks, to the bit, on a
        # builder lattice and on the shipped off-lattice scene's centres, in
        # a free background and in an n0 ball: the lattice path is off
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        cap = foldy_impedance.DENSE_MAX_UNKNOWNS
        scene = json.loads((SCENES / "hard_cloud_n0_ball_off_lattice.json").read_text())
        clouds = (build_cloud_hard(free_medium(), a=8e-3, nu_field=2e-4,
                                   beta=ball_polarizability()),
                  hard_cloud(np.array(scene["cloud"]["centers"]), a=0.01))
        ball = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (8, 8, 8)), n0=lambda z: np.where(
            np.linalg.norm(z - 0.5, axis=1) < 0.4, 1.15, 1.0))
        for med in (free_medium(), ball):
            for cloud in clouds:
                monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", cap)
                dense = solve_cloud(med, cloud, Z_HAT)
                assert dense.solver == "dense"
                monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 0)
                krylov = solve_cloud(med, cloud, Z_HAT)
                assert krylov.iterations > 0 and krylov.solver == "gmres"
                assert (krylov.iterations, krylov.residual) == (dense.iterations, dense.residual)
                assert np.array_equal(krylov.effective_values, dense.effective_values)
                assert np.array_equal(krylov.effective_gradients, dense.effective_gradients)
