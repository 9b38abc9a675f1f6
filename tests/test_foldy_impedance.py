"""Impedance many-body solver tests."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import spherical_jn, spherical_yn

from smallbody import cli, directions, foldy_impedance, medium
from smallbody.directions import DirectionGrid, FarField
from smallbody.errors import InvariantViolation, SingularEvaluationError
from smallbody.foldy_impedance import (
    FoldySystem,
    coupling_constants,
    solve_cloud,
)
from smallbody.medium import BackgroundMedium, Grid, Solution, Sources, _solve_checked, lattice_of
from smallbody.particles import (
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
    h_to_impedance,
)
from reference import (background_amplitude, coupled_matrix, dense_weighted_kernel,
                       exact_exclusion_solve, excluded_field, free_kernel, green_blocks,
                       incident_values, integral_abs_squared, robin_ball_far_field,
                       robin_ball_waves)

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


def small_cloud(kind, centers, a=1e-3):
    """Impedance balls with h = 1, or hard balls, at the given centres."""
    if kind == "hard":
        return ParticleCloud(centers=np.atleast_2d(centers), a=a, kind="hard",
                             beta=-1.5 * np.eye(3))
    return ball_cloud(centers, a=a, h=1.0)


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

    @pytest.mark.parametrize("builder", [False, True])
    def test_coupling_is_minus_the_system_charge_factor(self, builder):
        # solution.json's coupling, c = coupling_constants(cloud), has the
        # bits of -q of the system the solve runs
        med = free_medium(n=6)
        if builder:  # h varies over the grid nodes
            h = 0.5 + med.grid.nodes[:, 0] - 0.2j * med.grid.nodes[:, 2]
            cloud = build_cloud_impedance(med, a=1e-3, h_field=h, N_field=0.02)
        else:  # explicit centres, one zeta each
            centers = np.array([[0.2, 0.3, 0.4], [0.6, 0.5, 0.5], [0.8, 0.7, 0.1]])
            zeta = np.array([300.0, 1000.0 - 200.0j, 2.5e4j])
            cloud = ParticleCloud(centers=centers, a=1e-3, kind="impedance", zeta=zeta)
        c = coupling_constants(cloud)
        assert len(np.unique(c)) > 1
        assert np.array_equal(c, -FoldySystem(med, cloud).q)


class TestSolver:
    def test_single_particle_sees_incident_field(self):
        med = free_medium()
        cloud = ball_cloud(np.array([[0.3, 0.4, 0.5]]), a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        expected = np.exp(1j * med.k * 0.5)
        assert res.values[0] == pytest.approx(expected, rel=1e-14)
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
        assert res.values[0] == pytest.approx(expected1, rel=1e-12)
        np.testing.assert_allclose(res.sources.charges, -c * res.values, rtol=1e-14)

    def test_two_particle_closed_form_inhomogeneous_background(self):
        # the closed form of the 2 x 2 system with the background Green
        # function and incident solution of a nontrivial q0; each particle
        # also feels its own reflection G_jj from the background
        med = BackgroundMedium(1.2, Grid((0, 0, 0), (1, 1, 1), (7, 7, 7)), n0=1.3)
        centers = np.array([[0.21, 0.52, 0.48], [0.79, 0.5, 0.52]])
        cloud = ball_cloud(centers, a=1e-3, h=1.5)
        res = solve_cloud(med, cloud, Z_HAT)
        c = coupling_constants(cloud)
        u0 = incident_values(med, Z_HAT, centers)
        (g11, g12), (g21, g22) = green_blocks(med, centers, reflect=True)[0]
        expected1 = (u0[0] * (1 + g22 * c[1]) - g12 * c[1] * u0[1]) / (
            (1 + g11 * c[0]) * (1 + g22 * c[1]) - g12 * g21 * c[0] * c[1])
        assert res.values[0] == pytest.approx(expected1, rel=1e-10)

    def test_zero_coupling_returns_incident(self):
        med = free_medium()
        centers = np.array([[0.25, 0.25, 0.25], [0.75, 0.75, 0.75]])
        cloud = ball_cloud(centers, a=1e-3, h=0.0)
        res = solve_cloud(med, cloud, Z_HAT)
        np.testing.assert_allclose(res.values,
                                   np.exp(1j * med.k * centers[:, 2]), rtol=1e-14)
        assert np.all(res.sources.charges == 0)

    def test_charge_magnitude_scale(self):
        # |Q_m| <= a * max|u_e| * 4 pi c1^2/c2 * |h/(1+h)| with unit slack
        med = free_medium()
        cloud = build_cloud_impedance(med, a=5e-4, h_field=0.7 - 0.2j, N_field=0.05)
        res = solve_cloud(med, cloud, Z_HAT)
        h = 0.7 - 0.2j
        bound = (cloud.a * np.abs(res.values).max()
                 * 4 * np.pi * abs(h / (1 + h)))
        assert np.abs(res.sources.charges).max() / bound <= 1 + 1e-10

    def test_gmres_matches_dense(self, monkeypatch):
        # the stored free kernel against its row chunks, to the bit, on a
        # builder lattice and on the shipped off-lattice scene's centres, in
        # a free background and in an n0 ball: the lattice path is off
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        cap = medium.STORE_MAX_ENTRIES
        clouds = (build_cloud_impedance(free_medium(), a=1e-3, h_field=1.0, N_field=0.05),
                  off_lattice_scene_cloud("impedance"))
        for med in (free_medium(), n0_ball_medium()):
            for cloud in clouds:
                monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", cap)
                dense = solve_cloud(med, cloud, Z_HAT)
                assert dense.solver == "dense"
                monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", 0)
                krylov = solve_cloud(med, cloud, Z_HAT)
                assert krylov.iterations > 0 and krylov.solver == "gmres"
                assert (krylov.iterations, krylov.residual) == (dense.iterations, dense.residual)
                assert np.array_equal(krylov.values, dense.values)

    def test_lattice_fft_apply_matches_direct_apply(self, monkeypatch):
        # a full 10 x 20 x 20 builder lattice; the pair part of both applies,
        # the direct one on slabs formed per matvec (a store budget of 0)
        med = free_medium(n=8)
        cloud = build_cloud_impedance(med, a=1e-4, h_field=1.0 - 0.3j, N_field=0.4)
        assert len(cloud) == 4000
        lattice = lattice_of(cloud.centers)
        assert lattice.shape == (10, 20, 20)
        system = FoldySystem(med, cloud)
        assert system.solver == "lattice_fft" and system.lattice.shape == lattice.shape
        rng = np.random.default_rng(3)
        u = rng.normal(size=len(cloud)) + 1j * rng.normal(size=len(cloud))
        fft = system.operator()(u) - u
        monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", 0)
        system.lattice = None
        assert system.solver == "gmres"
        direct = system.operator()(u) - u
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
        np.testing.assert_allclose(lattice.values, dense.values, rtol=1e-9)

    def test_linearity_in_incident_field(self):
        med = free_medium()
        centers = np.array([[0.2, 0.5, 0.5], [0.8, 0.5, 0.5]])
        cloud = ball_cloud(centers, a=1e-3, h=1.0)
        u0 = np.exp(1j * med.k * centers[:, 2])
        system = FoldySystem(med, cloud)
        u1 = _solve_checked(system.operator(), u0, "linearity")[0]
        u2 = _solve_checked(system.operator(), 2.0 * u0, "linearity")[0]
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

    def test_system_settles_its_engine_at_both_crossovers(self, monkeypatch):
        # FoldySystem's engine: a lattice cloud takes the lattice FFT from
        # LATTICE_MIN_UNKNOWNS unknowns on, an off-lattice cloud the stored
        # kernel while its n^2 entries fit medium.STORE_MAX_ENTRIES (patched
        # small) and row chunks beyond; the solve reports the system's
        # engine, an empty cloud none
        med = free_medium()

        def check(centers, on_lattice, solver):
            cloud = ball_cloud(centers, a=1e-4, h=1.0)
            system = FoldySystem(med, cloud)
            assert (system.lattice is not None, system.solver) == (on_lattice, solver)
            assert solve_cloud(med, cloud, Z_HAT).solver == system.solver

        least = foldy_impedance.LATTICE_MIN_UNKNOWNS
        axis = np.linspace(0.2, 0.8, int(np.ceil(least ** (1 / 3))))
        sites = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        check(sites[:least - 1], False, "dense")
        check(sites[:least], True, "lattice_fft")
        cap = 40
        monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", cap ** 2)
        centers = np.random.default_rng(4).uniform(0.1, 0.9, size=(cap + 1, 3))
        check(centers[:cap], False, "dense")
        check(centers, False, "gmres")
        empty = ParticleCloud(centers=np.zeros((0, 3)), a=1e-4, kind="impedance", zeta=[])
        assert solve_cloud(med, empty, Z_HAT).solver is None

    @pytest.mark.parametrize("kind,unknowns_per_particle", [("impedance", 1), ("hard", 4)])
    def test_dense_cap_counts_unknowns(self, monkeypatch, kind, unknowns_per_particle):
        # with a store budget of 100^2 entries, 100 impedance or 25 hard
        # particles store the kernel and one particle more takes GMRES on the
        # slabs formed per matvec
        monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", 100 ** 2)
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


def counted_node_slabs(log, med):
    """medium._kernel_chunks logging the rows of each slab that it forms
    from the nodes of supp q0 of ``med`` (those of the node table T)."""
    chunks, nodes = medium._kernel_chunks, med.grid.nodes[med._support]

    def counted(x, k, orders, y=None, guard=0.0):
        for rows, slab in chunks(x, k, orders, y, guard):
            if np.array_equal(x, nodes):
                log.append((rows.start, rows.stop))
            yield rows, slab

    return counted


class TestNonFreeLattice:
    """Clouds in an n0 ball: the coupled operator on the particles' grid
    field and the particle unknowns (free pairs by lattice FFT, by the
    stored free kernel or by row chunks) against the dense system."""

    @pytest.mark.parametrize("kind,n,wide", [
        ("impedance", 5, False), ("impedance", 9, True), ("hard", 3, False), ("hard", 5, True)])
    def test_apply_equals_the_dense_matrix(self, monkeypatch, kind, n, wide):
        # node tables T of |S| rows and more (wide) or fewer columns, with
        # the free pairs by lattice FFT and, for the centres moved off their
        # lattice, by the stored kernel and by row chunks (a store budget of
        # 0), against the block-built dense coupled matrix
        med = n0_ball_medium()
        rng = np.random.default_rng(6)
        cap = medium.STORE_MAX_ENTRIES
        for off_lattice in (False, True):
            monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", cap)
            cloud = lattice_cloud(kind, n, rng, off_lattice)
            lattice = lattice_of(cloud.centers)
            assert (lattice is None) == off_lattice
            system = FoldySystem(med, cloud)
            particle_unknowns = len(cloud) * (1 + 3 * system.order)
            assert (np.count_nonzero(med.q0) < particle_unknowns) == wide
            unknowns = system.grid_unknowns + particle_unknowns
            v = rng.normal(size=unknowns) + 1j * rng.normal(size=unknowns)
            want = coupled_matrix(system) @ v
            assert (system.lattice is None) == off_lattice
            for store, solver in (((cap, "lattice_fft"),) if lattice
                                  else ((cap, "dense"), (0, "gmres"))):
                monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", store)
                system = FoldySystem(med, cloud)
                assert system.solver == solver
                got = system.operator()(v)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["impedance", "hard", "impedance_off_lattice",
                                      "hard_off_lattice"])
    def test_solve_matches_dense(self, monkeypatch, kind):
        # lattice clouds take the lattice FFT; the off-lattice scene's
        # centres take GMRES on the row chunks once the store budget is 0, and
        # agree normwise to 1e-10 in the values and any gradients
        med = n0_ball_medium()
        cap, solver, bound = medium.STORE_MAX_ENTRIES, "lattice_fft", 1e-9
        if kind.endswith("off_lattice"):
            cloud = off_lattice_scene_cloud(kind.split("_")[0])
            cap, solver, bound = 0, "gmres", 1e-10
        elif kind == "hard":  # the cloud_medium benchmark's cloud
            cloud = build_cloud_hard(med, 0.01, 5e-4, -1.5 * np.eye(3), cell_size=0.5)
            assert len(cloud) == 120
        else:
            cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0 - 0.3j, N_field=0.729)
        with monkeypatch.context() as patch:
            patch.setattr(medium, "STORE_MAX_ENTRIES", cap)
            fast = solve_cloud(med, cloud, Z_HAT)
        assert fast.solver == solver
        assert fast.iterations > 0 and fast.residual <= 1e-10
        monkeypatch.setattr(foldy_impedance, "LATTICE_MIN_UNKNOWNS", np.inf)
        dense = solve_cloud(n0_ball_medium(), cloud, Z_HAT)
        assert dense.solver == "dense"
        np.testing.assert_allclose(fast.values, dense.values, rtol=1e-9)
        pairs = [(fast.values, dense.values)]
        if cloud.kind == "hard":  # normwise: the transverse components are small
            pairs.append((fast.gradients, dense.gradients))
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    def test_solve_builds_one_table_and_makes_one_grid_solve(self, monkeypatch):
        # solve, probe field and far field on each engine: the lattice FFT,
        # and with the centres off their lattice the stored free kernel and
        # (store budget 0) the row chunks.  The one grid solve is u0's, by
        # FFT-GMRES; the coupled system solves the particles' grid field
        # with the particles.  Within the budget the system stores the
        # centres' node table once, forming its slabs once; at 0 it stores
        # none and forms each node slab once per pass of _node_sums, for
        # both of its products
        tables, solves, grid_gmres, slabs, passes = [], [], [], [], []
        gmres = medium._gmres
        monkeypatch.setattr(medium, "_gmres", lambda apply, b: (
            grid_gmres.append(1) if apply.__name__ == "_apply_grid_operator" else None)
            or gmres(apply, b))
        solve_grid = BackgroundMedium._solve_grid
        monkeypatch.setattr(BackgroundMedium, "_solve_grid",
                            lambda self, rhs: solves.append(1) or solve_grid(self, rhs))
        kernel_slabs = foldy_impedance._KernelSlabs

        def stored_tables(x, k, orders, y=None):
            table = kernel_slabs(x, k, orders, y)
            if table.table is not None and np.array_equal(y, cloud.centers):
                tables.append(1)
            return table

        monkeypatch.setattr(foldy_impedance, "_KernelSlabs", stored_tables)
        monkeypatch.setattr(medium, "_kernel_chunks", counted_node_slabs(slabs, n0_ball_medium()))
        node_sums = FoldySystem._node_sums
        monkeypatch.setattr(FoldySystem, "_node_sums",
                            lambda self, s, x: passes.append(1) or node_sums(self, s, x))
        for solver in ("lattice_fft", "dense", "gmres"):
            med = n0_ball_medium()
            if solver == "lattice_fft":
                cloud = build_cloud_hard(med, 0.01, 5e-4, -1.5 * np.eye(3), cell_size=0.5)
            else:
                cloud = off_lattice_scene_cloud("hard")
            if solver == "gmres":
                monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", 0)
            for log in (tables, solves, grid_gmres, slabs, passes):
                log.clear()
            res = solve_cloud(med, cloud, Z_HAT)
            assert res.solver == solver
            res.sources.field([[0.5, 0.5, 3.0], [3.0, 0.5, 0.5]])
            res.sources.far_field(DirectionGrid(4, 8))
            assert len(solves) == len(grid_gmres) == 1
            assert len(tables) == (solver != "gmres") and len(passes) > res.iterations
            per_pass = len(list(medium._row_chunks(len(med._support), 4 * len(cloud))))
            assert len(slabs) == (len(passes) if solver == "gmres" else 1) * per_pass

    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_one_node_table_walked_once_for_both_products(self, monkeypatch, kind):
        # a system within the store budget holds T alone, one (|S|, n)
        # array walked in its node-row slabs, and no transposed copy; at a
        # budget of 0 one apply forms each node slab of S once; and both give
        # (T s, T^T x) with the same bits, T cut into 3 or more slabs
        monkeypatch.setattr(medium, "CHUNK_ENTRIES", 2 ** 9)
        med = n0_ball_medium()
        rng = np.random.default_rng(7)
        cloud = lattice_cloud(kind, 3, rng, off_lattice=True)
        stored = FoldySystem(med, cloud)
        ns, n = stored.grid_unknowns, len(cloud) * (1 + 3 * stored.order)
        parts = list(medium._row_chunks(ns, n))
        assert len(parts) >= 3
        v = rng.normal(size=ns + n) + 1j * rng.normal(size=ns + n)
        s, x = v[ns:], v[:ns]
        stored.operator()(v)
        monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", 0)
        streamed = FoldySystem(med, cloud)
        sums = [system._node_sums(s, x) for system in (stored, streamed)]
        held = [a for val in vars(stored).values()
                for a in (val if isinstance(val, tuple) else (val,))]
        assert not [a for a in held if isinstance(a, np.ndarray) and ns in a.shape]
        tables = [a for a in vars(stored._nodes).values() if isinstance(a, np.ndarray)]
        assert len(tables) == 1 and tables[0].shape == (ns, n)
        assert [(rows.start, rows.stop) for rows, _ in stored._nodes] == parts
        assert all(slab.shape == (rows.stop - rows.start, n) for rows, slab in stored._nodes)
        assert all(np.array_equal(a, b) for a, b in zip(*sums))
        slabs = []
        monkeypatch.setattr(medium, "_kernel_chunks", counted_node_slabs(slabs, med))
        streamed.operator()(v)
        assert slabs == parts

    @pytest.mark.parametrize("store", [True, False])
    def test_incident_walks_the_node_table_for_its_transpose_alone(self, monkeypatch, store):
        # the right-hand side of a non-free cloud reads T only as T^T d, d
        # the background's node density on S: T stored (136 x 480) or, at a
        # store budget of 0, formed slab by slab, no slab multiplies a
        # vector on its right (T s), and the centres get u0 + T^T d with
        # T^T d summed slab by slab
        if not store:
            monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", 0)
        med = n0_ball_medium()
        cloud = off_lattice_scene_cloud("hard")
        system = FoldySystem(med, cloud)
        assert (system._nodes.table is not None) == store
        products, walked = [], []

        class Slab(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

            def __rmatmul__(self, other):
                return other @ np.asarray(self)

        walk = medium._KernelSlabs.__iter__
        monkeypatch.setattr(medium._KernelSlabs, "__iter__", lambda self: (
            walked.append(rows) or (rows, slab.view(Slab)) for rows, slab in walk(self)))
        density = med.source_density(Z_HAT)
        got = system.incident(Z_HAT, density)
        assert not products and len(walked) == len(list(medium._row_chunks(136, 480)))
        monkeypatch.undo()
        d, ttx = density[med._support], np.zeros(4 * len(cloud), dtype=complex)
        for rows, slab in system._nodes:
            ttx += d[rows] @ slab
        u0 = med.radiate(cloud.centers, Sources(med, Z_HAT), order=1)
        assert np.array_equal(got, np.concatenate([np.zeros(136, dtype=complex), u0 + ttx]))

    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_node_table_past_the_budget_is_formed_on_every_apply(self, monkeypatch, kind):
        # a store budget between the two tables of an off-lattice cloud in
        # the n0 ball: the pair kernel (n^2 entries) is stored ("dense") and
        # the node table T (|S| n entries, |S| = 136 > n) is not, so each
        # pass of _node_sums, the incident column's and every apply's,
        # forms T's slabs once; the solve has the bits of the one that
        # stores both, T cut into 3 or more slabs
        monkeypatch.setattr(medium, "CHUNK_ENTRIES", 2 ** 9)
        med = n0_ball_medium()
        cloud = lattice_cloud(kind, 3, np.random.default_rng(8), off_lattice=True)
        ns, n = len(med._support), len(cloud) * (1 if kind == "impedance" else 4)
        parts = list(medium._row_chunks(ns, n))
        assert len(parts) >= 3 and n ** 2 < ns * n
        stored = solve_cloud(med, cloud, Z_HAT)
        slabs, passes = [], []
        monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", n ** 2)
        monkeypatch.setattr(medium, "_kernel_chunks", counted_node_slabs(slabs, med))
        node_sums = FoldySystem._node_sums
        monkeypatch.setattr(FoldySystem, "_node_sums",
                            lambda self, s, x: passes.append(1) or node_sums(self, s, x))
        streamed = solve_cloud(med, cloud, Z_HAT)
        assert streamed.solver == stored.solver == "dense"
        assert len(passes) > streamed.iterations > 0 and slabs == len(passes) * parts
        assert (streamed.iterations, streamed.residual) == (stored.iterations, stored.residual)
        for name in ("values", "gradients"):
            assert np.array_equal(getattr(streamed, name), getattr(stored, name))
        assert np.array_equal(streamed.sources.charges, stored.sources.charges)
        assert np.array_equal(streamed.sources.density, stored.sources.density)

    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_model_gap_to_the_exact_exclusion_falls_at_first_order_in_a(self, kind):
        # the coupled system keeps each particle's reflection from the
        # background, which the paper's sum over m != j drops: the particle
        # part of the far-probe field against the exact-exclusion solve, for
        # lossless impedance balls (h = 1) or hard balls on the same
        # M = N / a centres, N = 1/2pi, a = 0.02 ... 0.0025 (M = 8 ... 64)
        med = n0_ball_medium()
        probes = medium.far_probe_points(med.grid)
        u0 = incident_values(med, Z_HAT, probes)
        radii, gaps = (0.02, 0.01, 0.005, 0.0025), []
        for a in radii:
            cloud = build_cloud_impedance(med, a=a, h_field=1.0, N_field=1 / (2 * np.pi))
            if kind == "hard":
                cloud = ParticleCloud(centers=cloud.centers, a=a, kind="hard",
                                      beta=-1.5 * np.eye(3))
            got = solve_cloud(med, cloud, Z_HAT).sources.field(probes)
            want = exact_exclusion_solve(med, cloud, Z_HAT).sources.field(probes)
            gaps.append(np.abs(got - want).max() / np.abs(got - u0).max())
        assert len(cloud) == 64 and gaps[0] < 1e-3
        assert np.polyfit(np.log(radii), np.log(gaps), 1)[0] >= 0.9

    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_excluded_field_leaves_the_cloud_field_unchanged(self, kind, monkeypatch):
        # the effective field seen by particle j drops j's free sources and
        # keeps the particles' node density: it makes no grid solve, and the
        # cloud's field and far field after it have the bits of before
        med, cloud = n0_ball_medium(), off_lattice_scene_cloud(kind)
        res = solve_cloud(med, cloud, Z_HAT)
        points, directions = [[0.5, 0.5, 3.0], [3.0, 0.5, 0.5]], DirectionGrid(4, 8)
        before = [res.sources.field(points),
                  res.sources.far_field(directions).values]
        charges, density = res.sources.charges.copy(), res.sources.background.copy()
        particle_density = res.sources.density.copy()
        with monkeypatch.context() as patch:
            patch.setattr(BackgroundMedium, "_solve_grid", None)  # any grid solve fails
            excluded = excluded_field(res, points, 7)
        assert not np.array_equal(excluded, before[0])
        assert np.array_equal(res.sources.charges, charges)
        assert np.array_equal(res.sources.background, density)
        assert np.array_equal(res.sources.density, particle_density)
        after = [res.sources.field(points),
                 res.sources.far_field(directions).values]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_empty_cloud_makes_one_grid_solve(self, monkeypatch):
        # u0's node density is one FFT-GMRES grid solve, which the probe
        # field and far field read from the result; the field is u0 of the
        # full-grid solve and the far field is A0
        med = n0_ball_medium()
        cloud = ParticleCloud(centers=np.zeros((0, 3)), a=0.01, kind="impedance", zeta=[])
        solves, grid_gmres = [], []
        solve_grid = BackgroundMedium._solve_grid
        monkeypatch.setattr(BackgroundMedium, "_solve_grid",
                            lambda self, rhs: solves.append(1) or solve_grid(self, rhs))
        gmres = medium._gmres
        monkeypatch.setattr(medium, "_gmres", lambda apply, b: (
            grid_gmres.append(1) if apply.__name__ == "_apply_grid_operator" else None)
            or gmres(apply, b))
        res = solve_cloud(med, cloud, Z_HAT)
        points = np.array([[0.5, 0.5, 3.0], [3.0, 0.5, 0.5], [-1.0, -2.0, 0.3]])
        values = res.sources.field(points)
        ff = res.sources.far_field(DirectionGrid(4, 8))
        assert len(solves) == len(grid_gmres) == 1 and res.sources.density is None
        # u0 at every node by a dense solve of I + Kw diag(q0), radiated to the probes
        a = dense_weighted_kernel(med) * med.q0[None, :]
        a[np.diag_indices_from(a)] += 1.0
        u0 = np.linalg.solve(a, med._plane_wave(Z_HAT))
        ref = np.exp(1j * med.k * points @ Z_HAT) \
            - free_kernel(points, med.grid.nodes, med.k) @ (med.q0 * med.weight * u0)
        assert np.abs(values - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(ff.values, background_amplitude(med, ff.grid.vectors(), Z_HAT))

    def test_matrix_free_solve_matches_the_stored_kernel_and_needs_no_grid_cap(
            self, monkeypatch, tmp_path):
        # past a store budget of 479^2 entries the off-lattice scene's 480
        # unknowns solve by row chunks to the bits of its stored kernel at a
        # budget of 480^2, whatever the size of supp q0; the CLI runs it
        cloud = off_lattice_scene_cloud("hard")
        results = []
        for cap, solver in ((479, "gmres"), (480, "dense")):
            monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", cap ** 2)
            results.append(solve_cloud(n0_ball_medium(), cloud, Z_HAT))
            assert results[-1].solver == solver
        for name in ("values", "gradients"):
            assert np.array_equal(getattr(results[0], name), getattr(results[1], name))
        assert np.array_equal(results[0].sources.density, results[1].sources.density)
        monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", 479 ** 2)
        out = tmp_path / "out"
        scene = SCENES / "hard_cloud_n0_ball_off_lattice.json"
        assert cli.main(["solve", "--scene", str(scene), "--out", str(out)]) == 0
        assert json.loads((out / "metadata.json").read_text())["solver"] == "gmres"


class TestSystemMatrix:
    @pytest.mark.parametrize("chunk", [2 ** 18, 2 ** 9], ids=["one_chunk", "row_chunks"])
    @pytest.mark.parametrize("background", ["free", "n0_ball"])
    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_matrix_equals_block_built_reference(self, monkeypatch, kind, background, chunk):
        # the operator's columns on the stored free kernel and on its row
        # chunks, the same bits, against the block-built dense matrix (the
        # coupled one in the n0 ball):
        # random centres, centres that share coordinates (exact zero offsets)
        # and a general beta; small chunks cut the kernel planes into several
        # row blocks
        monkeypatch.setattr(medium, "CHUNK_ENTRIES", chunk)
        cap = medium.STORE_MAX_ENTRIES
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
            want = coupled_matrix(FoldySystem(med, cloud))
            eye = np.eye(len(want), dtype=complex)
            columns = []
            for store, solver in ((cap, "dense"), (0, "gmres")):
                monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", store)
                system = FoldySystem(med, cloud)
                system.lattice = None  # the hard aligned centres fill a lattice
                assert system.solver == solver
                apply = system.operator()
                columns.append(np.column_stack([apply(e) for e in eye]))
            stored, chunks = columns
            assert np.array_equal(stored, chunks)
            assert np.abs(stored - want).max() <= 1e-13 * np.abs(want - eye).max()


class TestEvaluateField:
    def test_zero_charges_gives_incident(self):
        med = free_medium()
        cloud = ball_cloud(np.array([[0.5, 0.5, 0.5]]), a=1e-3, h=0.0)
        res = solve_cloud(med, cloud, Z_HAT)
        pts = np.array([[0.0, 0.0, 3.0], [2.0, 1.0, -1.0]])
        fld = res.sources.field(pts)
        np.testing.assert_allclose(fld, np.exp(1j * med.k * pts[:, 2]), rtol=1e-14)

    def test_single_particle_definition(self):
        med = free_medium()
        center = np.array([[0.5, 0.5, 0.5]])
        cloud = ball_cloud(center, a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        pt = np.array([[0.5, 0.5, 2.5]])
        fld = res.sources.field(pt)
        expected = (np.exp(1j * med.k * 2.5)
                    + free_kernel(pt[0], center[0], med.k) * res.sources.charges[0])
        assert fld[0] == pytest.approx(expected, rel=1e-14)

    def test_near_point_rejected(self):
        med = free_medium()
        centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
        cloud = ball_cloud(centers, a=1e-3, h=1.0)
        res = solve_cloud(med, cloud, Z_HAT)
        with pytest.raises(InvariantViolation):
            res.sources.field(np.array([[0.3, 0.5, 0.55]]))

    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_guard_edges(self, kind):
        # dyadic centers: d = 0.5 exactly, and so is the distance of the probe
        med = free_medium()
        centers = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        cloud = small_cloud(kind, centers)
        res = solve_cloud(med, cloud, Z_HAT)
        assert cloud.d == 0.5
        res.sources.field(np.array([[0.25, 0.5, 1.0]]))
        with pytest.raises(InvariantViolation, match="within d"):
            res.sources.field(np.array([[0.25, 0.5, 0.5 + 0.5 * (1 - 1e-11)]]))
        # excluded_field drops center j from the guard: its own position is then 0.5 from
        # the other center, and the effective field there is finite
        for j in range(2):
            with pytest.raises(InvariantViolation, match="within d"):
                res.sources.field(centers[j][None, :])
            assert np.isfinite(excluded_field(res, centers[j][None, :], j)).all()

    @pytest.mark.parametrize("kind", ["impedance", "hard"])
    def test_guard_looks_past_the_first_chunk(self, kind):
        # the guard reads the distances of the centre sum's walk, whose
        # rows hold [g | grad_y g] against each centre for hard particles
        # (orders (0, 1)): a probe in its last row chunk is refused within
        # d and accepted at exactly d
        med = free_medium()
        centers = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        cloud = small_cloud(kind, centers)
        res = solve_cloud(med, cloud, Z_HAT)
        width = len(centers) * (4 if kind == "hard" else 1)
        rows = medium.CHUNK_ENTRIES // width
        far = np.column_stack([np.linspace(-5.0, 5.0, rows + 9), np.full(rows + 9, 3.0),
                               np.zeros(rows + 9)])
        chunks = list(medium._row_chunks(rows + 10, width))
        assert len(chunks) == 2 and chunks[-1] == (rows, rows + 10)
        assert len(res.sources.field(np.vstack([far, [[0.75, 0.5, 1.0]]]))) == rows + 10
        with pytest.raises(InvariantViolation, match="within d"):
            res.sources.field(np.vstack([far, [[0.75, 0.5, 0.7]]]))

    def test_guard_refuses_a_probe_on_a_node_of_the_density(self):
        # in a non-free background the field also sums the node density,
        # which refuses a probe on one of its nodes as a coincident point;
        # a probe on such a node within d of a centre is refused by the
        # guard on d all the same
        med = n0_ball_medium()
        node = med.grid.nodes[np.flatnonzero(np.all(med.grid.nodes == 0.4375, axis=1))[0]]
        cloud = small_cloud("hard", [node + 0.01, node + 0.135], a=0.01)
        res = solve_cloud(med, cloud, Z_HAT)
        assert (res.sources.density + res.sources.background)[med._support].all()
        with pytest.raises(InvariantViolation, match="within d"):
            res.sources.field(node[None, :])
        nodes = med.grid.nodes[med._support]
        gaps = np.linalg.norm(nodes[:, None, :] - cloud.centers[None, :, :], axis=-1).min(axis=1)
        far_node = nodes[np.argmax(gaps)]
        assert gaps.max() > cloud.d
        with pytest.raises(SingularEvaluationError):
            res.sources.field(far_node[None, :])

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
        ff = res.sources.far_field()
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
        amp = med.amplitude(Z_HAT[None, :], res.sources)[0]
        assert abs(amp - (-a)) / a < 1e-3

    def test_direction_grid_forms_its_nodes_once(self, monkeypatch):
        # the far field's vectors() and the writer's rows() share one
        # Gauss-Legendre call per grid, and the colatitudes keep their bits
        calls = []
        monkeypatch.setattr(directions, "leggauss", lambda n: calls.append(n) or leggauss(n))
        med = free_medium()
        cloud = ball_cloud(np.array([[0.5, 0.5, 0.5]]), a=1e-3, h=1.0)
        ff = solve_cloud(med, cloud, Z_HAT).sources.far_field(DirectionGrid(8, 16))
        theta = ff.rows()[0]
        assert calls == [8]
        assert np.array_equal(theta, np.repeat(np.arccos(leggauss(8)[0]), 16))

    def test_zero_charges_zero_amplitude(self):
        med = free_medium()
        cloud = ball_cloud(np.array([[0.5, 0.5, 0.5]]), a=1e-3, h=0.0)
        res = solve_cloud(med, cloud, Z_HAT)
        ff = res.sources.far_field(DirectionGrid(8, 16))
        assert np.all(ff.values == 0)

    def test_far_field_consistency(self):
        # r e^{-ikr} (u_M - u0)(r beta) -> A(beta) with error <= 3/(kr)
        med = free_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=0.02)
        res = solve_cloud(med, cloud, Z_HAT)
        beta = np.array([0.6, 0.0, 0.8])
        amp = med.amplitude(beta[None, :], res.sources)[0]
        r = 150.0 / med.k
        pt = (r * beta)[None, :]
        u_m = res.sources.field(pt)[0]
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
            max_q.append(np.abs(res.sources.charges).max())
        slope = np.polyfit(np.log(avals), np.log(max_q), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_optical_theorem_slack(self):
        # point monopoles conserve flux to O(ka): defect <= 1e-3 max|A| at tiny ka
        med = free_medium(k=0.1)
        cloud = build_cloud_impedance(med, a=1e-3, h_field=1.0, N_field=0.01)
        res = solve_cloud(med, cloud, Z_HAT)
        ff = res.sources.far_field()
        forward = med.amplitude(Z_HAT[None, :], res.sources)[0]
        flux = med.k / (4 * np.pi) * integral_abs_squared(ff)
        assert abs(forward.imag - flux) <= 1e-3 * np.abs(ff.values).max()

    def test_doubling_charges_doubles_amplitude(self):
        med = free_medium()
        cloud = build_cloud_impedance(med, a=1e-3, h_field=0.5, N_field=0.02)
        res = solve_cloud(med, cloud, Z_HAT)
        base = med.amplitude(Z_HAT[None, :], res.sources)[0]
        res.sources.charges[:] *= 2.0
        assert med.amplitude(Z_HAT[None, :], res.sources)[0] == pytest.approx(2 * base, rel=1e-13)


class TestRobinBall:
    """The single-body law against the exact series of one Robin ball,
    u_r = zeta u on its surface with r pointing out of the ball, h = zeta a."""

    @pytest.mark.parametrize("ka,h", [(0.1, 1 - 0.3j), (1.0, 0.5), (3.0, 2 - 1j), (3.0, -0.5)])
    def test_series_meets_the_optical_theorem_and_its_next_term(self, ka, h):
        # extinction (4 pi / k) Im A(alpha, alpha) is the scattered power plus
        # the power taken in through the surface, -Im zeta a^2 / k times the
        # integral of |u|^2 over the unit sphere there (Im zeta <= 0: passive)
        k, a, L = 1.0, ka, 12 + int(4 * ka)
        zeta = h / a
        grid = DirectionGrid(L + 1, 4)  # Gauss-Legendre exact for |A|^2, degree 2L
        ff = FarField(grid, robin_ball_far_field(k, a, zeta, grid.vectors() @ Z_HAT, L))
        forward = robin_ball_far_field(k, a, zeta, 1.0, L)
        l, x = np.arange(L + 1), k * a
        c = robin_ball_waves(k, a, zeta, L)
        surface = spherical_jn(l, x) * (1 + c) + 1j * c * spherical_yn(l, x)
        absorbed = -np.imag(zeta) * a ** 2 / k * 4 * np.pi * np.sum((2 * l + 1) * abs(surface) ** 2)
        assert 4 * np.pi / k * forward.imag == pytest.approx(integral_abs_squared(ff) + absorbed,
                                                             rel=1e-12)
        assert absorbed >= 0
        # converged at order L: the term of order L + 1 is below rounding
        assert abs(robin_ball_far_field(k, a, zeta, 1.0, L + 1) - forward) < 1e-15 * abs(forward)

    @pytest.mark.parametrize("h", [1 - 0.3j, 0.5, 3 - 1j, 0.2 - 0.05j, -0.5 - 0.5j])
    def test_single_ball_law_error_falls_with_ka(self, h):
        # the law A = -a h / (1 + h) is the ka -> 0 limit of the ball, so its
        # relative error vanishes to first order in ka (measured: ka |h / (1 + h)|)
        kas = np.logspace(-1, -3, 5)
        grid = DirectionGrid(4, 8)
        errors = []
        for ka in kas:
            res = solve_cloud(free_medium(), ball_cloud(np.zeros(3), a=ka, h=h), Z_HAT)
            exact = robin_ball_far_field(1.0, ka, h / ka, grid.vectors() @ Z_HAT, 6)
            err = np.abs(res.sources.far_field(grid).values - exact).max()
            errors.append(err / np.abs(exact).max())
        assert np.polyfit(np.log(kas), np.log(errors), 1)[0] >= 0.9
        assert errors[-1] < 2 * kas[-1] * abs(h / (1 + h))


class TestSolution:
    """solve_cloud returns one medium.Solution: the effective values (and
    gradients, hard particles) and the Sources that they radiate."""

    @pytest.mark.parametrize("case", ["impedance", "hard", "empty", "non-free"])
    def test_solve_cloud_returns_a_solution(self, case):
        # the Sources radiate the field and the far field of the sources
        # formed from the values: charges q u_e, dipoles -vb grad u_e, the
        # particles' node density and u0's
        med = n0_ball_medium() if case in ("empty", "non-free") else free_medium()
        centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.4, 0.6], [0.5, 0.8, 0.3]])
        cloud = small_cloud("impedance" if case == "impedance" else "hard",
                            centers[:0] if case == "empty" else centers)
        res = solve_cloud(med, cloud, Z_HAT)
        system = FoldySystem(med, cloud)
        assert isinstance(res, Solution) and res.values.shape == (len(cloud),)
        if case == "empty":
            assert (res.solver, res.iterations, res.residual) == (None, 0, 0.0)
        else:
            assert res.solver == system.solver and res.iterations > 0
        dipoles = None
        if case == "impedance":
            assert res.gradients is None and res.sources.dipoles is None
        else:
            assert res.gradients.shape == (len(cloud), 3)
            dipoles = -(res.gradients @ system.vb.T)
            assert np.array_equal(res.sources.dipoles, dipoles)
        assert np.array_equal(res.sources.charges, system.q * res.values)
        assert (res.sources.density is None) == (case != "non-free")
        formed = Sources(med, Z_HAT, res.sources.density, cloud.centers, system.q * res.values,
                         dipoles, system.guard, med.source_density(Z_HAT))
        points, directions = [[0.5, 0.5, 3.0], [3.0, 0.5, 0.5]], DirectionGrid(4, 8)
        assert np.array_equal(res.sources.field(points), formed.field(points))
        assert np.array_equal(res.sources.far_field(directions).values,
                              formed.far_field(directions).values)
