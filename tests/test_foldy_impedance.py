"""Impedance many-body solver tests."""

import json
from pathlib import Path

import numpy as np
import pytest

from smallbody import cli, foldy_impedance, medium
from smallbody.directions import DirectionGrid
from smallbody.errors import InvariantViolation, SolverFailure
from smallbody.foldy_impedance import (
    FoldySystem,
    _solve_system,
    amplitudes,
    coupling_constants,
    evaluate_field,
    far_field,
    solve_cloud,
)
from smallbody.medium import BackgroundMedium, Grid, lattice_of
from smallbody.particles import (
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
    h_to_impedance,
)
from reference import foldy_matrix, free_kernel, green_blocks

Z_HAT = np.array([0.0, 0.0, 1.0])
SCENES = Path(__file__).resolve().parent.parent / "scenes"


def free_medium(k=1.0, n=4):
    return BackgroundMedium(k, Grid((0, 0, 0), (1, 1, 1), (n, n, n)))


def ball_cloud(centers, a, h):
    centers = np.atleast_2d(centers)
    zeta = h_to_impedance(np.full(len(centers), h, dtype=complex), a)
    return ParticleCloud(centers=centers, a=a, kind="impedance", zeta=zeta)


def one_particle(zeta, a):
    return ParticleCloud(centers=np.zeros((1, 3)), a=a, kind="impedance", zeta=[zeta])


class TestChargeFormula:
    def test_ball_h_one(self):
        # h = 1 means zeta = 1/a for balls; Q = -4 pi a h/(1+h) u_e = -2 pi a
        a = 0.01
        q = -coupling_constants(one_particle(1.0 / a, a))[0]  # Q at u_e = 1
        assert q == pytest.approx(-0.02 * np.pi, rel=1e-12)

    def test_zero_impedance_zero_charge(self):
        assert coupling_constants(one_particle(0.0, 0.01))[0] == 0.0

    def test_h_minus_one_singular(self):
        a = 0.01
        with pytest.raises(InvariantViolation):
            coupling_constants(one_particle(-1.0 / a, a))


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
        med = BackgroundMedium(1.2, Grid((0, 0, 0), (1, 1, 1), (7, 7, 7)), n0=1.3)
        centers = np.array([[0.21, 0.52, 0.48], [0.79, 0.5, 0.52]])
        cloud = ball_cloud(centers, a=1e-3, h=1.5)
        res = solve_cloud(med, cloud, Z_HAT)
        c = coupling_constants(cloud)
        u0 = med.incident_values(Z_HAT, centers)
        g12 = green_blocks(med, centers[0], centers[1])[0][0, 0]
        g21 = green_blocks(med, centers[1], centers[0])[0][0, 0]
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
        # the stored free kernel against its row chunks, to the bit, on a
        # builder lattice and on the shipped off-lattice scene's centres, in
        # a free background and in an n0 ball: the lattice path is off
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        cap = foldy_impedance.DENSE_MAX_UNKNOWNS
        clouds = (build_cloud_impedance(free_medium(), a=1e-3, h_field=1.0, N_field=0.05),
                  off_lattice_scene_cloud("impedance"))
        for med in (free_medium(), n0_ball_medium()):
            for cloud in clouds:
                monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", cap)
                dense = solve_cloud(med, cloud, Z_HAT)
                assert dense.solver == "dense"
                monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 0)
                krylov = solve_cloud(med, cloud, Z_HAT)
                assert krylov.iterations > 0 and krylov.solver == "gmres"
                assert (krylov.iterations, krylov.residual) == (dense.iterations, dense.residual)
                assert np.array_equal(krylov.effective_values, dense.effective_values)

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
        direct = system.operator()(u) - u
        fft = system.operator(lattice)(u) - u
        assert np.linalg.norm(fft - direct) <= 1e-13 * np.linalg.norm(direct)

    def test_lattice_path_matches_dense(self, monkeypatch):
        med = free_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=0.729)
        assert len(cloud) == 729
        lattice = solve_cloud(med, cloud, Z_HAT)
        assert lattice.solver == "lattice_fft"
        assert lattice.iterations > 0 and lattice.residual <= 1e-10
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        dense = solve_cloud(med, cloud, Z_HAT)
        assert dense.solver == "dense"
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
        ("impedance", 80, "dense"), ("impedance", 100, "lattice_fft"),
        ("impedance", 512, "lattice_fft"), ("hard", 20, "dense"), ("hard", 25, "lattice_fft"),
        ("hard", 125, "lattice_fft")])
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
        # store the matrix and one particle more takes GMRES on the direct apply
        monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 100)
        med = free_medium()
        centers = np.random.default_rng(4).uniform(0.1, 0.9, size=(101, 3))
        last_dense = 100 // unknowns_per_particle
        for m, solver in ((last_dense, "dense"), (last_dense + 1, "gmres")):
            c = centers[:m]
            cloud = (ball_cloud(c, a=1e-4, h=1.0) if kind == "impedance" else
                     ParticleCloud(centers=c, a=1e-4, kind="hard", beta=-1.5 * np.eye(3)))
            assert solve_cloud(med, cloud, Z_HAT).solver == solver


def n0_ball_medium():
    """cloud_medium's background: 8^3 nodes, n0 = 1.15 in a ball, |supp q0| = 136."""
    return BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (8, 8, 8)), n0=lambda z: np.where(
        np.linalg.norm(z - 0.5, axis=1) < 0.4, 1.15, 1.0))


def lattice_cloud(kind, n, rng, off_lattice=False):
    """n^3 centres on one lattice in [0.2, 0.8]^3, with a general beta or a
    lossy h; off_lattice moves each coordinate i by 0.01 sin(i)."""
    axis = np.linspace(0.2, 0.8, n)
    centers = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    if off_lattice:
        centers = centers + 0.01 * np.sin(np.arange(centers.size)).reshape(-1, 3)
    if kind == "hard":
        return ParticleCloud(centers=centers, a=0.005, kind="hard", beta=rng.normal(size=(3, 3)))
    return ball_cloud(centers, a=0.005, h=1.0 - 0.5j)


def off_lattice_scene_cloud(kind):
    """The 120 centres of the shipped hard_cloud_n0_ball_off_lattice scene, as
    that scene's hard particles or as lossy impedance balls of the same a."""
    scene = json.loads((SCENES / "hard_cloud_n0_ball_off_lattice.json").read_text())
    centers = np.array(scene["cloud"]["centers"])
    if kind == "hard":
        return ParticleCloud(centers=centers, a=0.01, kind="hard", beta=-1.5 * np.eye(3))
    return ball_cloud(centers, a=0.01, h=1.0 - 0.3j)


class TestNonFreeLattice:
    """Clouds in an n0 ball: the operator (free pairs by lattice FFT, by the
    stored free kernel or by row chunks) plus the grid's low-rank volume
    correction, against the dense system."""

    @pytest.mark.parametrize("kind,n,by_identity", [
        ("impedance", 5, False), ("impedance", 9, True), ("hard", 3, False), ("hard", 5, True)])
    def test_apply_equals_the_dense_matrix(self, kind, n, by_identity):
        # both routes of the correction's grid solve (2|S| < c and 2|S| >= c
        # for c = M (1 + 3 order) columns), with the free pairs by lattice
        # FFT and, for the centres moved off their lattice, by the stored
        # kernel and by row chunks; the block-built dense matrix has the
        # paper's zero diagonal, so this pins the subtracted per-particle
        # blocks
        med = n0_ball_medium()
        rng = np.random.default_rng(6)
        for off_lattice in (False, True):
            cloud = lattice_cloud(kind, n, rng, off_lattice)
            lattice = lattice_of(cloud.centers)
            assert (lattice is None) == off_lattice
            system = FoldySystem(med, cloud)
            unknowns = len(cloud) * (1 + 3 * system.order)
            assert (2 * np.count_nonzero(med.q0) < unknowns) == by_identity
            v = rng.normal(size=unknowns) + 1j * rng.normal(size=unknowns)
            want = foldy_matrix(system) @ v
            for stored in ((False,) if lattice else (True, False)):
                got = system.operator(lattice, stored)(v)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["impedance", "hard", "impedance_off_lattice",
                                      "hard_off_lattice"])
    def test_solve_matches_dense(self, monkeypatch, kind):
        # lattice clouds take the lattice FFT; the off-lattice scene's
        # centres take GMRES on the row chunks once the dense cap is 0, and
        # agree normwise to 1e-10 in the values and any gradients
        med = n0_ball_medium()
        cap, solver, bound = foldy_impedance.DENSE_MAX_UNKNOWNS, "lattice_fft", 1e-9
        if kind.endswith("off_lattice"):
            cloud = off_lattice_scene_cloud(kind.split("_")[0])
            cap, solver, bound = 0, "gmres", 1e-10
        elif kind == "hard":  # the cloud_medium benchmark's cloud
            cloud = build_cloud_hard(med, 0.01, 5e-4, -1.5 * np.eye(3), cell_size=0.5)
            assert len(cloud) == 120
        else:
            cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0 - 0.3j, N_field=0.729)
        with monkeypatch.context() as patch:
            patch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", cap)
            fast = solve_cloud(med, cloud, Z_HAT)
        assert fast.solver == solver
        assert fast.iterations > 0 and fast.residual <= 1e-10
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        dense = solve_cloud(n0_ball_medium(), cloud, Z_HAT)
        assert dense.solver == "dense"
        np.testing.assert_allclose(fast.effective_values, dense.effective_values, rtol=1e-9)
        pairs = [(fast.effective_values, dense.effective_values)]
        if cloud.kind == "hard":  # normwise: the transverse components are small
            pairs.append((fast.effective_gradients, dense.effective_gradients))
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    def test_solve_builds_one_table_and_factors_the_grid_once(self, monkeypatch):
        # solve, probe field and far field on each engine: the lattice FFT,
        # and with the centres off their lattice the stored free kernel and
        # (dense cap 0) the row chunks.  The system's factors (T, W) build
        # the centres' support table once and factor the grid once; the
        # incident column sums over T, and the particle field is -W s, so
        # the grid solves are W's and u0's alone and none runs GMRES
        orders, tables, solves, grid_gmres, node_sums = [], [], [], [], []
        lapack = medium._lapack()
        zgetrf = lapack.zgetrf
        monkeypatch.setattr(lapack, "zgetrf", lambda a: orders.append(len(a)) or zgetrf(a))
        gmres = medium._gmres
        monkeypatch.setattr(medium, "_gmres", lambda apply, b: (
            grid_gmres.append(1) if apply.__name__ == "_apply_grid_operator" else None)
            or gmres(apply, b))
        solve_grid = BackgroundMedium._solve_grid
        monkeypatch.setattr(BackgroundMedium, "_solve_grid",
                            lambda self, rhs: solves.append(1) or solve_grid(self, rhs))
        node_columns = BackgroundMedium._node_columns
        monkeypatch.setattr(BackgroundMedium, "_node_columns", lambda self, pts, order: (
            tables.append(1) if np.array_equal(pts, cloud.centers) else None)
            or node_columns(self, pts, order))
        kernel_sum = medium._kernel_sum
        monkeypatch.setattr(medium, "_kernel_sum", lambda x, k, orders, w, y=None: (
            node_sums.append(1) if np.array_equal(x, cloud.centers)
            and np.array_equal(y, med.grid.nodes[med._support]) else None)
            or kernel_sum(x, k, orders, w, y))
        for solver in ("lattice_fft", "dense", "gmres"):
            med = n0_ball_medium()
            if solver == "lattice_fft":
                cloud = build_cloud_hard(med, 0.01, 5e-4, -1.5 * np.eye(3), cell_size=0.5)
            else:
                cloud = off_lattice_scene_cloud("hard")
            if solver == "gmres":
                monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 0)
            for log in (orders, tables, solves, grid_gmres, node_sums):
                log.clear()
            res = solve_cloud(med, cloud, Z_HAT)
            assert res.solver == solver
            evaluate_field(res, med, cloud, [[0.5, 0.5, 3.0], [3.0, 0.5, 0.5]])
            far_field(res, med, cloud, DirectionGrid(4, 8))
            assert orders == [136] and len(tables) == 1 and len(solves) == 2
            assert not grid_gmres and not node_sums

    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_excluded_field_leaves_the_cloud_field_unchanged(self, kind, monkeypatch):
        # the effective field seen by particle j zeroes j's sources in -W s:
        # it makes no grid solve, and the cloud's field and far field after
        # it have the bits of before
        med, cloud = n0_ball_medium(), off_lattice_scene_cloud(kind)
        res = solve_cloud(med, cloud, Z_HAT)
        points, directions = [[0.5, 0.5, 3.0], [3.0, 0.5, 0.5]], DirectionGrid(4, 8)
        before = [evaluate_field(res, med, cloud, points).values,
                  far_field(res, med, cloud, directions).values]
        charges = res.charges.copy()
        with monkeypatch.context() as patch:
            patch.setattr(BackgroundMedium, "_solve_grid", None)  # any grid solve fails
            excluded = evaluate_field(res, med, cloud, points, exclude=7).values
        assert not np.array_equal(excluded, before[0])
        assert np.array_equal(res.charges, charges)
        after = [evaluate_field(res, med, cloud, points).values,
                 far_field(res, med, cloud, directions).values]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_matrix_free_solve_past_the_grid_cap_exits_4(self, monkeypatch, tmp_path):
        # the one refusal left: past the dense cap, a matrix-free solve whose
        # |supp q0| = 136 exceeds DENSE_GRID_CAP has no grid LU for its
        # correction; at the dense cap the same cloud stores its M (1 + 3 order)
        # unknowns' matrix, its grid solves running GMRES
        for module in (foldy_impedance, medium):
            monkeypatch.setattr(module, "DENSE_GRID_CAP", 135)
        cloud = off_lattice_scene_cloud("hard")
        monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 479)
        system = FoldySystem(n0_ball_medium(), cloud)
        with pytest.raises(SolverFailure, match="matrix-free"):
            _solve_system(system, lambda: np.ones(480, dtype=complex))
        scene = SCENES / "hard_cloud_n0_ball_off_lattice.json"
        out = tmp_path / "out"
        assert cli.main(["solve", "--scene", str(scene), "--out", str(out)]) == 4
        error = json.loads((out / "error.json").read_text())
        assert error["error_type"] == "SolverFailure" and error["exit_code"] == 4
        monkeypatch.setattr(foldy_impedance, "DENSE_MAX_UNKNOWNS", 480)
        assert solve_cloud(n0_ball_medium(), cloud, Z_HAT).solver == "dense"


class TestSystemMatrix:
    @pytest.mark.parametrize("chunk", [2 ** 18, 2 ** 9], ids=["one_chunk", "row_chunks"])
    @pytest.mark.parametrize("background", ["free", "n0_ball"])
    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_matrix_equals_block_built_reference(self, monkeypatch, kind, background, chunk):
        # the operator's columns on the stored free kernel and on its row
        # chunks, the same bits, against the block-built dense matrix:
        # random centres, centres that share coordinates (exact zero offsets)
        # and a general beta; small chunks cut the kernel planes into several
        # row blocks
        monkeypatch.setattr(medium, "CHUNK_ENTRIES", chunk)
        grid = Grid((0, 0, 0), (1, 1, 1), (6, 6, 6))
        med = (BackgroundMedium(1.2, grid) if background == "free" else BackgroundMedium(
            1.2, grid, n0=lambda z: np.where(np.linalg.norm(z - 0.5, axis=1) < 0.4, 1.2, 1.0)))
        rng = np.random.default_rng(5)
        axis = np.linspace(0.2, 0.8, 3)
        aligned = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        for centers in (rng.uniform(0.1, 0.9, size=(40, 3)), aligned):
            if kind == "hard":
                cloud = ParticleCloud(centers=centers, a=0.01, kind="hard",
                                      beta=rng.normal(size=(3, 3)))
            else:
                cloud = ball_cloud(centers, a=0.01, h=1.0 - 0.5j)
            system = FoldySystem(med, cloud)
            want = foldy_matrix(system)
            eye = np.eye(len(want), dtype=complex)
            stored, chunks = (np.column_stack([system.operator(stored=engine)(e) for e in eye])
                              for engine in (True, False))
            assert np.array_equal(stored, chunks)
            assert np.abs(stored - want).max() <= 1e-13 * np.abs(want - eye).max()


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

    def test_guard_edges(self):
        # dyadic centers: d = 0.5 exactly, and so is the distance of the probe
        med = free_medium()
        centers = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        cloud = ball_cloud(centers, a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        assert cloud.d == 0.5
        evaluate_field(res, med, cloud, np.array([[0.25, 0.5, 1.0]]))
        with pytest.raises(InvariantViolation, match="within d"):
            evaluate_field(res, med, cloud, np.array([[0.25, 0.5, 0.5 + 0.5 * (1 - 1e-11)]]))
        # exclude = j drops center j from the guard: its own position is then 0.5 from
        # the other center, and the effective field there is finite
        for j in range(2):
            with pytest.raises(InvariantViolation, match="within d"):
                evaluate_field(res, med, cloud, centers[j][None, :])
            assert np.isfinite(evaluate_field(res, med, cloud, centers[j][None, :],
                                              exclude=j).values).all()

    def test_guard_looks_past_the_first_chunk(self):
        med = free_medium()
        centers = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        cloud = ball_cloud(centers, a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        rows = medium.CHUNK_ENTRIES // len(centers)
        far = np.column_stack([np.linspace(-5.0, 5.0, rows + 9), np.full(rows + 9, 3.0),
                               np.zeros(rows + 9)])
        assert len(evaluate_field(res, med, cloud, far).values) == rows + 9
        with pytest.raises(InvariantViolation, match="within d"):
            evaluate_field(res, med, cloud, np.vstack([far, [[0.75, 0.5, 0.7]]]))

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
