"""Kernel, Green-function, and incident-field tests for the medium module."""

import logging
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from smallbody import medium, runtime
from smallbody.errors import InvariantViolation, SingularEvaluationError, SolverFailure
from smallbody.medium import (
    CUBE_SELF_INTEGRAL,
    RESIDUAL_TOL,
    BackgroundMedium,
    ComplexField,
    Grid,
    Lattice,
    lattice_of,
    _factor,
    _solve_checked,
    _unit,
)
from smallbody.directions import DirectionGrid
from smallbody.foldy_impedance import FoldySystem
from smallbody.particles import ParticleCloud, h_to_impedance, min_spacing, nearest_distances
from reference import (foldy_matrix, free_kernel, free_kernel_grad_y, free_kernel_hess_xy,
                       free_kernels, green_blocks, green_potential_grid, lemma_bounds_check,
                       split_stacked, trilinear_interpolate, u0_grid)

ORIGIN = np.zeros(3)


def make_medium(k=1.0, n=9, n0=1.0, lo=(0, 0, 0), hi=(1, 1, 1)):
    return BackgroundMedium(k, Grid(lo, hi, (n, n, n)), n0)


class TestFreeKernel:
    def test_static_unit_distance(self):
        val = free_kernel(ORIGIN, np.array([1.0, 0, 0]), 0.0)
        assert val == pytest.approx(1.0 / (4 * np.pi), rel=1e-14)

    def test_phase_pi(self):
        val = free_kernel(ORIGIN, np.array([np.pi, 0, 0]), 1.0)
        assert val == pytest.approx(-1.0 / (4 * np.pi ** 2), rel=1e-13)
        assert abs(val.imag) < 1e-16

    def test_coincident_points_raise(self):
        with pytest.raises(SingularEvaluationError):
            free_kernel(ORIGIN, ORIGIN, 1.0)

    def test_matrix_shape(self):
        x = np.random.default_rng(1).random((4, 3))
        y = np.random.default_rng(2).random((5, 3)) + 2.0
        assert free_kernel(x, y, 1.5).shape == (4, 5)


class TestKernelDerivatives:
    def test_static_gradient(self):
        y = np.array([0.0, 1.0, 0.0])
        grad = free_kernel_grad_y(ORIGIN, y, 0.0)
        expected = -(y - ORIGIN) / (4 * np.pi)
        np.testing.assert_allclose(grad, expected, rtol=1e-14)

    @pytest.mark.parametrize("k", [0.7, 2.3])
    def test_gradient_matches_finite_differences(self, k):
        rng = np.random.default_rng(3)
        x = rng.random(3)
        y = x + np.array([0.9, -0.4, 0.6])
        r = np.linalg.norm(x - y)
        h = 1e-5 * r
        grad = free_kernel_grad_y(x, y, k)
        for p in range(3):
            e = np.zeros(3)
            e[p] = h
            fd = (free_kernel(x, y + e, k) - free_kernel(x, y - e, k)) / (2 * h)
            assert abs(grad[p] - fd) <= 1e-6 * abs(grad[p])

    def test_hessian_matches_finite_differences(self):
        k = 1.1
        x = np.array([0.1, 0.2, -0.3])
        y = np.array([1.0, -0.5, 0.8])
        h = 1e-4
        hess = free_kernel_hess_xy(x, y, k)
        for q in range(3):
            for p in range(3):
                eq = np.zeros(3)
                eq[q] = h
                fd = (free_kernel_grad_y(x + eq, y, k)[p]
                      - free_kernel_grad_y(x - eq, y, k)[p]) / (2 * h)
                assert abs(hess[q, p] - fd) <= 2e-6 * max(abs(hess).max(), 1.0)

    def test_gradient_bound_sweep(self):
        # |grad_y g| stays below c * max(k/d, 1/d^2) across a d sweep
        k = 1.0
        rng = np.random.default_rng(7)
        consts = []
        for d in (0.5, 1.0, 2.0, 4.0):
            worst = 0.0
            for _ in range(200):
                x = rng.random(3)
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                y = x + direction * d * (1 + rng.random())
                gnorm = np.linalg.norm(free_kernel_grad_y(x, y, k))
                dist = np.linalg.norm(x - y)
                worst = max(worst, gnorm / max(k / dist, 1.0 / dist ** 2))
            consts.append(worst)
        assert max(consts) < 1.0  # actual constant is ~1/(2*pi)
        assert max(consts) / min(consts) < 3.0


class TestPairDistances:
    """Every route to a pair distance r gives the same bits."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_order_0_kernel_equals_order_1_value(self, seed):
        # order 0 forms r from coordinate columns, order 1 from the offsets
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(40, 3)), 3.0 + rng.normal(size=(70, 3))
        diff = y[None, :, :] - x[:, None, :]
        r_sum = np.sqrt(np.sum(diff * diff, axis=-1))  # numpy's length-3 reduction
        for order in (0, 1):
            np.testing.assert_array_equal(medium._pair_distances(x, y, order)[1], r_sum)
        # the order-0 plane is the value plane of orders 1 and 2
        g0 = [plane for _, _, plane in medium._kernel_planes(None, r_sum, 1.3, 0)]
        assert len(g0) == 1
        for order in (1, 2):
            a, b, g = next(medium._kernel_planes(diff, r_sum, 1.3, order))
            assert (a, b) == (0, 0)
            np.testing.assert_array_equal(g, g0[0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_spacing_searches_agree_with_pair_distances(self, seed):
        rng = np.random.default_rng(seed)
        centers, pts = rng.random((60, 3)), 2.0 * rng.random((25, 3)) - 0.5
        np.testing.assert_array_equal(nearest_distances(pts, centers),
                                      medium._pair_distances(pts, centers)[1].min(axis=1))
        r = medium._pair_distances(centers, centers)[1]
        r[np.diag_indices_from(r)] = np.inf
        assert min_spacing(centers) == r.min()


class TestChunkBudget:
    """Kernel tables, kernel sums and the Foldy operator on its stored kernel
    and on its row chunks have the same bits at every chunk budget, and the
    tables those of the whole-table reference."""

    @staticmethod
    def ball(z):
        return np.where(np.linalg.norm(z - 0.5, axis=1) < 0.4, 1.2, 1.0)

    def test_volume_correction_association_follows_sizes(self, monkeypatch):
        # |S| = 56 support nodes: 300 centres give T 300 or 1200 stacked
        # source columns (2|S| < c: the grid solve takes the |S| identity
        # columns and D B^-1 then multiplies T), 20 centres 20 or 80 (the
        # solve takes T); either gives W = D (B^-1 T), D = diag(q0) delta^3,
        # and with it the correction T_x^T W over the pairs of the centres
        # and from them to probes
        rng = np.random.default_rng(21)
        probes = rng.uniform(-0.5, 1.5, size=(50, 3))
        med = make_medium(k=1.3, n=6, n0=self.ball)
        s = med._support
        solve_grid, columns = med._solve_grid, []
        monkeypatch.setattr(med, "_solve_grid",
                            lambda rhs: columns.append(rhs.shape[1]) or solve_grid(rhs))
        for m in (300, 20):
            centers = rng.uniform(0.05, 0.95, size=(m, 3))
            for order in (0, 1):
                tables = {len(p): med._node_columns(p, order) for p in (centers, probes)}
                src = tables[m]
                columns.clear()
                t, w = med.volume_factors(centers, order)
                assert columns == [len(s) if 2 * len(s) < src.shape[1] else src.shape[1]]
                assert np.array_equal(t, src)
                direct = solve_grid(src) * (med.q0[s, None] * med.weight)
                for x in (centers, probes):
                    got, ref = tables[len(x)].T @ w, tables[len(x)].T @ direct
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_kernel_sums_do_not_depend_on_the_chunk_budget(self, monkeypatch):
        # each row of a kernel sum has the bits of the stored kernel's
        # matrix-vector product: with 300 centres and the derivatives of both
        # sides a 2^16 budget steps 13 rows, and 300 = 23 * 13 + 1 once left
        # a last slab of one row, whose product BLAS sums as a dot product
        rng = np.random.default_rng(21)
        centers = rng.uniform(0.05, 0.95, size=(300, 3))
        probes = rng.uniform(-0.5, 1.5, size=(50, 3))
        for orders in ((0, 0), (0, 1), (1, 1)):
            w = np.array([1.0, 1j]) @ rng.normal(size=(2, 300 * (1 + 3 * orders[1])))
            for x, y in ((centers, None), (probes, centers)):
                monkeypatch.setattr(medium, "CHUNK_ENTRIES", 2 ** 30)  # one slab per part
                want = medium._kernel_matrix(x, 1.3, orders, y) @ w
                for budget in (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18):
                    monkeypatch.setattr(medium, "CHUNK_ENTRIES", budget)
                    assert np.array_equal(medium._kernel_sum(x, 1.3, orders, w, y), want)

    @pytest.mark.parametrize("background", ["free", "n0_ball"])
    def test_kernels_do_not_depend_on_the_chunk_budget(self, monkeypatch, background):
        # 300 centres: a whole (300, 300) kernel plane is past numpy's
        # 256 KiB temporary-elision size, where a product of an unnamed factor
        # once took other bits than the same product in a small chunk; the
        # stored pair kernels, the support tables and the hard system's
        # operator on both of its off-lattice engines
        rng = np.random.default_rng(21)
        centers = rng.uniform(0.05, 0.95, size=(300, 3))
        hard = ParticleCloud(centers=centers, a=1e-3, kind="hard", beta=rng.normal(size=(3, 3)))
        vec = rng.normal(size=1200) + 1j * rng.normal(size=1200)
        first = None
        for budget in (2 ** 10, 2 ** 14, 2 ** 16, 2 ** 18):
            monkeypatch.setattr(medium, "CHUNK_ENTRIES", budget)
            # a new medium per budget: no grid LU kept from another budget
            med = make_medium(k=1.3, n=6, n0=1.0 if background == "free" else self.ball)
            tables = [medium._kernel_matrix(centers, med.k, (order, order)) for order in (0, 1)]
            tables += [med._node_columns(centers, order) for order in (0, 1)]
            tables += [FoldySystem(med, hard).operator(stored=stored)(vec)
                       for stored in (False, True)]
            if first is None:
                first = tables
            assert all(np.array_equal(a, b) for a, b in zip(tables, first))
        for order in (0, 1):  # the stored kernel is the free pair kernel, zero diagonal
            ref = np.empty_like(tables[order])
            blocks = green_blocks(make_medium(k=1.3, n=6), centers, order=2 * order)
            for view, block in zip(split_stacked(ref, 2 * order), blocks):
                view[...] = block
            assert np.array_equal(tables[order], ref)
        for order in (0, 1):
            g, *grad = free_kernels(med.grid.nodes[med._support], centers, med.k, order)
            ref = np.concatenate([g, *(d.reshape(len(g), 900) for d in grad)], axis=1)
            assert np.array_equal(tables[2 + order], ref)
        # the apply against one product with the whole free kernel, and the
        # volume correction associated as the operator does: V s = T^T (W s)
        # less the exact per-particle 4 x 4 blocks
        system = FoldySystem(med, hard)
        src = np.concatenate([system.q * vec[:300], -(vec[300:].reshape(300, 3) @ system.vb.T)
                              .reshape(-1)])
        want = vec - tables[1] @ src
        if background == "n0_ball":  # K = free kernel - V: the operator adds V src
            t, w = med.volume_factors(centers, 1)
            at = np.column_stack([np.arange(300), 300 + np.arange(900).reshape(300, 3)])
            v = t.T @ (w @ src)
            v[at] -= np.einsum("jab,jb->ja", np.einsum("zja,zjb->jab", t[:, at], w[:, at]),
                               src[at])
            want += v
        assert np.array_equal(tables[-2], want) and np.array_equal(tables[-1], want)


class TestBackgroundGreen:
    def test_free_medium_reduces_to_g(self):
        med = make_medium()
        x = np.array([0.3, 0.4, 0.1])
        y = np.array([2.0, 1.0, -0.5])
        green = green_blocks(med, x, y)[0][0, 0]
        assert green == pytest.approx(free_kernel(x, y, med.k), rel=1e-14)

    def test_reciprocity(self):
        med = make_medium(k=1.2, n=9, n0=1.3)
        rng = np.random.default_rng(11)
        for _ in range(4):
            x = rng.random(3) * 0.9 + 0.04
            y = rng.random(3) * 0.9 + 0.06
            gxy = green_blocks(med, x, y)[0][0, 0]
            gyx = green_blocks(med, y, x)[0][0, 0]
            assert abs(gxy - gyx) <= 1e-8 * max(abs(gxy), 1.0)

    def test_born_consistency_second_order(self):
        # G - (g - eps * int g g) = O(eps^2): halving eps shrinks the defect >= 3.5x
        k = 1.0
        x = np.array([-0.8, 0.5, 0.5])
        y = np.array([1.9, 0.55, 0.45])
        fine = Grid((0, 0, 0), (1, 1, 1), (17, 17, 17))
        zf = fine.nodes
        wf = fine.delta ** 3
        born_kernel = (free_kernel(x[None, :], zf, k)[0] * free_kernel(zf, y[None, :], k)[:, 0]).sum() * wf

        def defect(eps):
            med = make_medium(k=k, n=9, n0=1.0 - eps / k ** 2)
            g = free_kernel(x, y, k)
            return abs(green_blocks(med, x, y)[0][0, 0] - (g - eps * born_kernel))

        d1, d2 = defect(0.4), defect(0.2)
        assert d1 / d2 >= 3.5

    def test_radiation_decay(self):
        med = make_medium(k=1.0)
        y = np.array([0.1, 0.05, 0.08])
        for r in (50.0, 200.0):
            x = np.array([r, 0.0, 0.0])
            val = r * abs(green_blocks(med, x, y)[0][0, 0])
            assert abs(val - 1 / (4 * np.pi)) / (1 / (4 * np.pi)) <= 2.0 / (med.k * r)


class TestGreenBlocks:
    def test_pair_blocks_reciprocal_in_nonfree_medium(self):
        # G(x,y) = G(y,x) passes to the derivatives: grad_x G(x_i,x_j) is
        # grad_y G(x_j,x_i) and the mixed Hessian swaps both points and axes
        def n0(z):
            return 1.0 + 0.4 * np.exp(-8 * np.sum((z - 0.5) ** 2, axis=1))

        med = make_medium(k=1.3, n=7, n0=n0)
        pts = np.random.default_rng(3).random((9, 3)) * 0.9 + 0.05
        g, grad_x, grad_y, hess = green_blocks(med, pts, order=2)
        free = free_kernel(pts[0], pts[1], med.k)
        assert abs(g[0, 1] - free) > 1e-4 * abs(free)  # the volume correction is present
        for a, b in ((g, g.T), (grad_x, grad_y.transpose(1, 0, 2)),
                     (hess, hess.transpose(1, 0, 3, 2))):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
        assert np.all(g[np.diag_indices(9)] == 0) and np.all(hess[np.arange(9), np.arange(9)] == 0)
        # the mixed block is the x-derivative of the target/source grad_y block
        h = 1e-5
        for q in range(3):
            e = np.zeros(3)
            e[q] = h
            up, dn = (green_blocks(med, pts[0] + s * e, pts[1], order=1)[2][0, 0] for s in (1, -1))
            fd = (up - dn) / (2 * h)
            assert np.abs(fd - hess[0, 1, q]).max() <= 1e-7 * np.abs(hess[0, 1]).max()


class TestBackgroundGreenGrad:
    def test_static_free_gradient(self):
        med = make_medium(k=1e-9)  # k > 0 required; effectively static
        x = ORIGIN
        y = np.array([0.0, 0.0, 1.0])
        grad = green_blocks(med, x, y, order=1)[2][0, 0]
        np.testing.assert_allclose(grad, -(y - x) / (4 * np.pi), atol=1e-9)

    def test_gradient_fd_oracle_with_potential(self):
        med = make_medium(k=1.1, n=7, n0=1.2)
        x = np.array([-0.5, 0.6, 0.4])
        y = np.array([1.7, 0.52, 0.41])
        grad = green_blocks(med, x, y, order=1)[2][0, 0]
        h = 1e-5
        for p in range(3):
            e = np.zeros(3)
            e[p] = h
            up, dn = (green_blocks(med, x, y + s * e)[0][0, 0] for s in (1, -1))
            fd = (up - dn) / (2 * h)
            assert abs(grad[p] - fd) <= 1e-5 * np.linalg.norm(grad)


class TestGridEngine:
    """FFT kernel apply and separable phase sums on a non-cubic grid."""

    def make(self):
        return BackgroundMedium(1.7, Grid((0, 0, 0), (0.5, 0.75, 1.0), (4, 6, 8)))

    @staticmethod
    def pairwise_kernel(med):
        """Kw from the node pairs directly, with the corrected diagonal."""
        nodes, delta = med.grid.nodes, med.grid.delta
        diff = nodes[:, None, :] - nodes[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(r, 1.0)
        ref = np.exp(1j * med.k * r) / (4 * np.pi * r) * delta ** 3
        np.fill_diagonal(ref, CUBE_SELF_INTEGRAL * delta ** 2 + 1j * med.k * delta ** 3 / (4 * np.pi))
        return ref

    def test_gathered_kernel_matches_pairwise_kernel(self):
        med = self.make()
        ref = self.pairwise_kernel(med)
        kw = med._dense_weighted_kernel()
        assert np.abs(kw - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("cols", [None, 5])
    def test_fft_apply_matches_dense(self, cols):
        med = self.make()
        rng = np.random.default_rng(2)
        shape = (med.grid.size,) if cols is None else (med.grid.size, cols)
        f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense = med._dense_weighted_kernel() @ f
        fft = med._apply_weighted_kernel(f)
        assert fft.shape == dense.shape
        assert np.abs(fft - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_separable_phase_sum_matches_direct(self):
        med = self.make()
        rng = np.random.default_rng(4)
        betas = rng.normal(size=(40, 3))
        betas /= np.linalg.norm(betas, axis=1)[:, None]
        f = rng.normal(size=med.grid.size) + 1j * rng.normal(size=med.grid.size)
        direct = np.exp(-1j * med.k * (betas @ med.grid.nodes.T)) @ f
        sep = med._box_phase_sum(betas, med.grid.axes, f)
        assert np.abs(sep - direct).max() <= 1e-13 * np.abs(direct).max()


class TestBoxFFT:
    """The Toeplitz FFT apply that the grid and the particle lattices share,
    on a 3 x 4 x 5 box: dense direct sums, and bitwise-equal results on 1, 2
    and 3 threads with every stage cut into slabs (3 threads cut the box
    axes and their 2n_i embeddings unevenly)."""

    K = 1.7

    @staticmethod
    def grid_case(cols):
        med = BackgroundMedium(TestBoxFFT.K, Grid((0, 0, 0), (0.3, 0.4, 0.5), (3, 4, 5)))
        shape = (med.grid.size,) if cols is None else (med.grid.size, cols)
        f = np.random.default_rng(5).normal(size=shape + (2,)) @ [1.0, 1j]
        return med._apply_weighted_kernel, TestGridEngine.pairwise_kernel(med), f

    @staticmethod
    def lattice_case(kind):
        spacing = np.array([0.1, 0.07, 0.05])  # unequal: the kernels see each axis
        lattice = Lattice(origin=np.zeros(3), spacing=spacing, shape=(3, 4, 5),
                          index=np.arange(60))
        centers = np.stack(np.meshgrid(*lattice.axes, indexing="ij"), axis=-1).reshape(-1, 3)
        med = BackgroundMedium(TestBoxFFT.K, Grid((-1, -1, -1), (2, 2, 2), (2, 2, 2)))
        # couplings of order one, so that the pair sums are not lost in
        # rounding when the identity part is taken off the apply
        if kind == "impedance":
            # balls with the couplings c = 0.5 ... 1.5: h = c / (4 pi a - c)
            c = np.linspace(0.5, 1.5, 60)
            cloud = ParticleCloud(centers=centers, a=0.02, kind="impedance",
                                  zeta=h_to_impedance(c / (4 * np.pi * 0.02 - c), 0.02))
        else:
            cloud = ParticleCloud(centers=centers, a=0.02, kind="hard",
                                  beta=[[-1.5, 0.2, 0], [0.2, -1.2, 0.1], [0, 0.1, -1.0]])
        system = FoldySystem(med, cloud)
        a = foldy_matrix(system)
        dense = a - np.eye(len(a))
        f = np.random.default_rng(6).normal(size=(len(dense), 2)) @ [1.0, 1j]
        apply = system.operator(lattice)
        return (lambda v: apply(v) - v), dense, f

    CASES = [("grid", None), ("grid", 3), ("lattice", "impedance"), ("lattice", "hard")]

    def make(self, case, arg):
        return self.grid_case(arg) if case == "grid" else self.lattice_case(arg)

    @pytest.mark.parametrize("case,arg", CASES)
    def test_matches_dense_direct_sum(self, case, arg):
        apply, dense, f = self.make(case, arg)
        direct = dense @ f
        got = apply(f)
        assert got.shape == direct.shape
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()

    @pytest.mark.parametrize("case,arg", CASES)
    def test_bitwise_equal_on_1_2_3_threads(self, monkeypatch, case, arg):
        monkeypatch.setattr(runtime, "_THREADS", 1)  # restored after the test
        monkeypatch.setattr(runtime, "SLAB_MIN_ENTRIES", 0)
        monkeypatch.setattr(medium, "FUSED_ENTRIES", 1)  # one column per fused part
        outs = []
        for threads in (1, 2, 3):
            runtime.set_thread_count(threads)
            apply, _, f = self.make(case, arg)  # the kernel spectrum on these threads too
            outs.append(apply(f))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    def test_nested_and_concurrent_slab_calls_finish(self, monkeypatch):
        # slabs that start slab jobs of their own, from more callers than
        # cores: each index is done once and no caller waits on a pool
        # worker that waits on the pool
        monkeypatch.setattr(runtime, "_THREADS", 3)
        monkeypatch.setattr(runtime, "SLAB_MIN_ENTRIES", 0)
        done = [np.zeros((7, 5), dtype=int) for _ in range(6)]

        def caller(hits):
            def outer(lo, hi):
                for i in range(lo, hi):
                    def inner(a, b, row=hits[i]):
                        row[a:b] += 1
                    runtime.run_slabs(inner, 5, 5)
            for _ in range(20):
                runtime.run_slabs(outer, 7, 7)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=caller, args=(hits,), daemon=True) for hits in done]
            for w in workers:
                w.start()
            deadline = time.monotonic() + 60
            for w in workers:
                w.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(switch)
        assert not any(w.is_alive() for w in workers)
        assert all((hits == 20).all() for hits in done)


class TestSupportSolve:
    """Grid solves on S = supp q0 against the full-grid FFT-GMRES solve."""

    def make(self, inside=1.16):
        # an n0 ball: q0 vanishes on the 8^3 nodes outside radius 0.4
        def n0(pts):
            return np.where(np.linalg.norm(pts - 0.5, axis=1) < 0.4, inside, 1.0)

        return BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (8, 8, 8)), n0)

    @staticmethod
    def full_grid_solve(med, rhs):
        """(I + Kw diag(q0)) u = rhs over every node, one column at a time."""
        n = med.grid.size
        op = spla.LinearOperator(
            (n, n), matvec=lambda u: u + med._apply_weighted_kernel(med.q0 * u), dtype=complex)
        cols = []
        for col in rhs.reshape(n, -1).T:
            sol, info = spla.gmres(op, col, rtol=1e-14, atol=0.0, restart=100, maxiter=20)
            assert info == 0
            cols.append(sol)
        return np.column_stack(cols).reshape(rhs.shape)

    @staticmethod
    def rel(got, ref):
        return np.abs(got - ref).max() / np.abs(ref).max()

    def test_support_is_a_proper_subset(self):
        med = self.make()
        assert 0 < len(med._support) < med.grid.size
        assert np.all(med.q0[med._support] != 0) and not med.is_free

    def test_u0_grid_matches_full_grid_solve(self):
        med = self.make()
        alpha = np.array([0.6, 0.0, 0.8])
        plane = np.exp(1j * med.k * med.grid.nodes @ alpha)
        assert self.rel(u0_grid(med, alpha), self.full_grid_solve(med, plane)) <= 1e-12

    def test_green_potential_matches_full_grid_solve(self):
        med = self.make()
        f = [1.0, 1j] @ np.random.default_rng(3).normal(size=(2, med.grid.size))
        ref = self.full_grid_solve(med, med._apply_weighted_kernel(f))
        assert self.rel(green_potential_grid(med, f), ref) <= 1e-12

    def test_order_2_green_blocks_match_full_grid_solve(self):
        med = self.make()
        x = np.array([[0.31, 0.52, 0.47], [0.9, 0.2, 0.65]])
        y = np.array([[0.55, 0.41, 0.7], [0.2, 0.8, 0.33], [1.4, 0.5, 0.5]])

        def columns(pts):
            g, grad = free_kernel(med.grid.nodes, pts, med.k), free_kernel_grad_y(
                med.grid.nodes, pts, med.k)
            return np.concatenate([g, grad.reshape(len(g), -1)], axis=1)

        sol = self.full_grid_solve(med, columns(y)) * (med.q0 * med.weight)[:, None]
        corr = columns(x).T @ sol
        n, m = len(x), len(y)
        refs = [free_kernel(x, y, med.k) - corr[:n, :m],
                -free_kernel_grad_y(x, y, med.k) - corr[n:, :m].reshape(n, 3, m).transpose(0, 2, 1),
                free_kernel_grad_y(x, y, med.k) - corr[:n, m:].reshape(n, m, 3),
                free_kernel_hess_xy(x, y, med.k)
                - corr[n:, m:].reshape(n, 3, m, 3).transpose(0, 2, 1, 3)]
        for got, ref in zip(green_blocks(med, x, y, order=2), refs):
            assert self.rel(got, ref) <= 1e-12

    def test_source_density_matches_full_grid_solve_and_vanishes_off_support(self):
        med = self.make()
        alpha = np.array([0.0, 0.6, -0.8])
        centers = np.array([[0.3, 0.5, 0.55], [0.62, 0.71, 0.4]])
        charges = np.array([1.0 - 0.5j, 0.3 + 2j])
        dipoles = np.array([[0.2, -1.0, 0.4j], [1.5, 0.1, -0.3]])
        g = free_kernel(med.grid.nodes, centers, med.k)
        grad = free_kernel_grad_y(med.grid.nodes, centers, med.k)
        rhs = np.exp(1j * med.k * med.grid.nodes @ alpha) + g @ charges \
            + np.einsum("zmp,mp->z", grad, dipoles)
        ref = -(med.q0 * self.full_grid_solve(med, rhs) * med.weight)
        # the u0 part plus the particles' part -W s, s = [Q; P]: no grid
        # solve of the particle column
        got = med.source_density(alpha)
        got[med._support] -= med.volume_factors(centers, 1)[1] @ np.concatenate(
            [charges, dipoles.reshape(-1)])
        assert self.rel(got, ref) <= 1e-12
        assert np.all(got[med.q0 == 0] == 0)


class TestLattice:
    def cloud(self):
        """A 9 x 10 x 12 block with every seventh site left out, off the origin."""
        idx = np.stack(np.meshgrid(np.arange(9), np.arange(10), np.arange(12), indexing="ij"),
                       axis=-1).reshape(-1, 3)
        idx = idx[np.arange(len(idx)) % 7 != 3]
        return np.array([0.3, -0.2, 1.1]) + idx * np.array([0.07, 0.05, 0.05])

    def test_detects_partial_lattice(self):
        centers = self.cloud()
        lattice = lattice_of(centers)
        assert lattice.shape == (9, 10, 12)
        np.testing.assert_allclose(lattice.spacing, [0.07, 0.05, 0.05], rtol=1e-12)
        box = np.stack(np.meshgrid(*lattice.axes, indexing="ij"), axis=-1).reshape(-1, 3)
        assert np.abs(box[lattice.index] - centers).max() <= 1e-12

    def test_refuses_moved_centre_and_sparse_box(self):
        centers = self.cloud()
        assert lattice_of(np.vstack([centers, centers[17]])) is None  # a repeated centre
        centers[17, 1] += 1e-6
        assert lattice_of(centers) is None
        # two 4^3 clusters of spacing 0.01 set 10 apart: a 1004 x 4 x 4 box
        # for 128 centres breaks the box-size guard
        cluster = 0.01 * np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"),
                                  axis=-1).reshape(-1, 3)
        assert lattice_of(cluster).shape == (4, 4, 4)
        assert lattice_of(np.concatenate([cluster, cluster + [10.0, 0.0, 0.0]])) is None

    def test_lattice_far_field_sum_matches_direct(self):
        # every lattice cloud takes the per-axis sum (one box sum over the
        # stacked source columns: charges and three dipole components, which
        # share one set of phase tables), whatever its size
        med = BackgroundMedium(1.3, Grid((0, 0, 0), (1, 1, 1), (4, 4, 4)))
        box_sums = []
        box_phase_sum = med._box_phase_sum
        med._box_phase_sum = lambda *args: box_sums.append(1) or box_phase_sum(*args)
        for m in (926, 300):
            centers = self.cloud()[:m]
            assert len(centers) == m and lattice_of(centers) is not None
            rng = np.random.default_rng(8)
            q = rng.normal(size=m) + 1j * rng.normal(size=m)
            p = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
            betas = rng.normal(size=(60, 3))
            betas /= np.linalg.norm(betas, axis=1)[:, None]
            phase = np.exp(-1j * med.k * betas @ centers.T)
            direct = (phase @ q - 1j * med.k * np.einsum("bm,bp,mp->b", phase, betas, p)) \
                / (4 * np.pi)
            box_sums.clear()
            lattice = med.amplitude(betas, None, centers, q, p)
            assert len(box_sums) == 1
            assert np.abs(lattice - direct).max() <= 1e-13 * np.abs(direct).max()

    def test_off_lattice_far_field_does_not_depend_on_the_chunk_budget(self, monkeypatch):
        # M = 2800 random centres step 23 directions at 2^16 entries, and
        # 32 x 64 = 89 x 23 + 1: the last direction joins the chunk before
        # it, so every amplitude is one matrix-vector product as in one chunk
        med = BackgroundMedium(1.3, Grid((0, 0, 0), (1, 1, 1), (4, 4, 4)))
        rng = np.random.default_rng(12)
        m = 2800
        centers = rng.uniform(size=(m, 3))
        assert lattice_of(centers) is None
        q = rng.normal(size=m) + 1j * rng.normal(size=m)
        p = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
        betas = DirectionGrid(32, 64).vectors()
        assert len(betas) % (2 ** 16 // m) == 1
        for dipoles in (None, p):
            sums = []
            for budget in (2 ** 16, 2 ** 30):
                monkeypatch.setattr(medium, "CHUNK_ENTRIES", budget)
                sums.append(med.amplitude(betas, None, centers, q, dipoles))
            assert np.array_equal(*sums)

    def test_off_lattice_far_field_sum_is_chunked(self, monkeypatch):
        # 32 x 64 directions at M = 5000 would form a 164 MB phase table at
        # once; chunks of CHUNK_ENTRIES entries bound it at any M
        med = BackgroundMedium(1.3, Grid((0, 0, 0), (1, 1, 1), (4, 4, 4)))
        rng = np.random.default_rng(9)
        m = 5000
        centers = rng.uniform(size=(m, 3))
        assert lattice_of(centers) is None
        q = rng.normal(size=m) + 1j * rng.normal(size=m)
        p = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
        betas = DirectionGrid(32, 64).vectors()
        tracemalloc.start()
        try:
            chunked = med.amplitude(betas, None, centers, q, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak
        # one direction from about every chunk, summed in one chunk as the
        # unchunked code did, and directly
        picks = betas[::47]
        monkeypatch.setattr(medium, "CHUNK_ENTRIES", len(picks) * m)
        phase = med._phase(picks, centers)
        whole = phase @ q
        whole += np.einsum("bm,bp,mp->b", phase, -1j * med.k * picks, p)
        assert np.array_equal(med.amplitude(picks, None, centers, q, p), whole / (4 * np.pi))
        phase = np.exp(-1j * med.k * picks @ centers.T)
        direct = (phase @ q - 1j * med.k * np.einsum("bm,bp,mp->b", phase, picks, p)) \
            / (4 * np.pi)
        assert np.abs(chunked[::47] - direct).max() <= 1e-13 * np.abs(direct).max()


class TestIncidentField:
    def test_plane_wave_free_medium(self):
        med = make_medium()
        alpha = np.array([0.0, 0.0, 1.0])
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, np.pi / med.k]])
        values = med.incident_values(alpha, pts)
        assert values[0] == pytest.approx(1.0 + 0j, abs=1e-15)
        assert values[1] == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_nonunit_alpha_rejected(self):
        med = make_medium()
        with pytest.raises(InvariantViolation):
            med.incident_values(np.array([0.0, 0.0, 2.0]), np.zeros((1, 3)))

    def test_absorptive_slab_attenuates(self):
        # wide flat absorptive box; compare against the 1-D slab transfer matrix
        k = 2.0
        sigma = 2.0
        lo, hi = (-2.0, -2.0, 0.0), (2.0, 2.0, 0.5)
        grid = Grid(lo, hi, (16, 16, 2))
        med = BackgroundMedium(k, grid, n0=1.0 + 1j * sigma / k ** 2)  # q0 = -i*sigma
        alpha = np.array([0.0, 0.0, 1.0])
        probe = np.array([[0.0, 0.0, 1.0]])
        u = med.incident_values(alpha, probe)[0]
        assert abs(u) < 1.0

        # transfer-matrix transmission through the slab 0 <= z <= 0.5
        kp = np.sqrt(k ** 2 + 1j * sigma)
        z1 = 0.5
        m11 = np.cos(kp * z1) - 0j
        m12 = np.sin(kp * z1) / kp
        m21 = -kp * np.sin(kp * z1)
        m22 = np.cos(kp * z1) - 0j
        t_coeff = 2j * k * np.exp(-1j * k * z1) / (1j * k * (m11 + m22) + k ** 2 * m12 - m21)
        # finite transverse extent: agreement on the attenuation depth is loose
        assert abs(u) == pytest.approx(abs(t_coeff), rel=0.25)


class TestLemmaBounds:
    def test_ratio_bounded(self):
        med = make_medium(k=1.0)
        rep = lemma_bounds_check(med, a=1e-3, d=1e-1, sample_count=1000)
        assert rep.max_ratio_g <= 5.0
        assert rep.max_ratio_green <= 5.0

    def test_shrinking_a_keeps_ratio_stable(self):
        med = make_medium(k=1.0)
        diffs = []
        ratios = []
        for a in (4e-3, 2e-3, 1e-3, 5e-4):
            rep = lemma_bounds_check(med, a=a, d=0.2, sample_count=500, seed=5)
            diffs.append(rep.max_diff_g)
            ratios.append(rep.max_ratio_g)
        # differences vanish linearly with a while the normalized ratio is flat
        assert diffs[0] > diffs[1] > diffs[2] > diffs[3]
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3, 5e-4]), np.log(ratios), 1)[0]
        assert abs(slope) <= 0.1

    def test_doubling_d_decreases_difference(self):
        med = make_medium(k=1.0)
        r1 = lemma_bounds_check(med, a=1e-3, d=0.1, sample_count=500, seed=9)
        r2 = lemma_bounds_check(med, a=1e-3, d=0.2, sample_count=500, seed=9)
        assert r2.max_diff_g < r1.max_diff_g

    def test_batched_green_matches_per_sample_loop(self):
        # same draws as lemma_bounds_check, evaluated one pair at a time
        med = make_medium(k=1.1, n=5, n0=1.2)
        a, d, n = 1e-3, 0.1, 25
        rep = lemma_bounds_check(med, a=a, d=d, sample_count=n, seed=4)
        rng = np.random.default_rng(4)

        def unit(v):
            return v / np.linalg.norm(v, axis=1)[:, None]

        x = rng.random((n, 3))
        y = x + unit(rng.normal(size=(n, 3))) * (d * (1 + rng.random(n)))[:, None]
        t = x + unit(rng.normal(size=(n, 3))) * (a * rng.random(n) ** (1 / 3))[:, None]
        diff = max(abs(green_blocks(med, t[i], y[i])[0][0, 0]
                       - green_blocks(med, x[i], y[i])[0][0, 0]) for i in range(n))
        assert rep.max_ratio_green == pytest.approx(diff / (a / d ** 2 + med.k * a / d), rel=1e-12)

    def test_requires_separation(self):
        med = make_medium()
        with pytest.raises(InvariantViolation):
            lemma_bounds_check(med, a=0.05, d=0.1)


class TestMediumInvariants:
    def test_q0_n0_round_trip(self):
        med = make_medium(k=1.7, n=5, n0=1.25 + 0.3j)
        n0_back = 1.0 - med.q0 / med.k ** 2
        np.testing.assert_allclose(n0_back, med.n0, rtol=1e-15)

    def test_gain_medium_rejected(self):
        # Im n0 < 0 means Im q0 > 0: active medium, not allowed
        with pytest.raises(InvariantViolation):
            make_medium(n0=1.0 - 0.2j)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(InvariantViolation):
            make_medium(k=0.0)

    def test_complex_field_validation(self):
        with pytest.raises(InvariantViolation):
            ComplexField(points=np.zeros((2, 3)), values=np.zeros(3),
                         incident_direction=np.array([0, 0, 1.0]))
        with pytest.raises(InvariantViolation):
            ComplexField(points=np.zeros((1, 3)), values=np.zeros(1),
                         incident_direction=np.array([0, 0, 0.5]))

    def test_nonuniform_spacing_rejected(self):
        with pytest.raises(ValueError):
            Grid((0, 0, 0), (1, 1, 2), (4, 4, 4))

    @pytest.mark.parametrize("k", [np.inf, np.nan, 1e200])  # 1e200: k^2 overflows
    def test_nonfinite_k_rejected(self, k):
        with pytest.raises(InvariantViolation):
            make_medium(k=k)

    @pytest.mark.parametrize("n0", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_nonfinite_n0_rejected(self, n0):
        with pytest.raises(InvariantViolation):
            make_medium(n0=n0)

    def test_nan_direction_rejected(self):
        # abs(nan - 1) > tol is False: the checks must be comparisons that fail on NaN
        with pytest.raises(InvariantViolation):
            _unit([np.nan, 0.0, 1.0])
        with pytest.raises(InvariantViolation):
            ComplexField(points=np.zeros((1, 3)), values=np.zeros(1),
                         incident_direction=np.array([np.nan, 0.0, 1.0]))


class TestTrilinear:
    def test_reproduces_linear_field(self):
        grid = Grid((0, 0, 0), (1, 1, 1), (6, 6, 6))
        vals = grid.nodes @ np.array([1.0, -2.0, 0.5]) + 3.0
        pts = np.array([[0.31, 0.52, 0.44], [0.5, 0.5, 0.5], [0.12, 0.81, 0.66]])
        got = trilinear_interpolate(grid, vals, pts)
        np.testing.assert_allclose(got, pts @ np.array([1.0, -2.0, 0.5]) + 3.0, rtol=1e-12)

    def test_cell_lookup_outside_returns_default(self):
        grid = Grid((0, 0, 0), (1, 1, 1), (4, 4, 4))
        vals = np.ones(grid.size)
        out = grid.value_at_cells(vals, np.array([[2.0, 0.5, 0.5]]), outside=0.0)
        assert out[0] == 0.0



class TestCheckedSolve:
    def test_gmres_stall_names_solve_and_estimates_radius(self, monkeypatch):
        # restarted GMRES(20) makes no progress on a cyclic shift of order 50:
        # every Krylov space it builds from e_1 misses e_1's preimage e_50
        monkeypatch.setattr("smallbody.medium.GMRES_MAXITER", 2)
        rhs = np.zeros(50, dtype=complex)
        rhs[0] = 1.0
        with pytest.raises(SolverFailure, match="shift solve") as exc:
            _solve_checked(lambda x: np.roll(x, 1), rhs, "shift solve")
        # A - I = S - I has the eigenvalues e^{2 pi i j / 50} - 1, of modulus <= 2
        assert 1.5 < exc.value.spectral_radius <= 2.0 + 1e-12

    def test_gmres_residual_reuses_its_last_apply(self):
        # GMRES ends on A x at the x it returns, so the residual check applies
        # A no more: one apply per inner iteration plus that last one
        rng = np.random.default_rng(2)
        n = 200
        a = np.eye(n) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        calls = []

        def apply(x):
            calls.append(1)
            return a @ x

        x, resid, iterations = _solve_checked(apply, b, "counted solve")
        assert iterations > 0 and len(calls) == iterations + 1
        assert resid == pytest.approx(np.linalg.norm(a @ x - b) / np.linalg.norm(b), rel=1e-12)

    def test_residual_above_bound_raises(self):
        rng = np.random.default_rng(1)
        a = (np.eye(6) + 0.1 * rng.normal(size=(6, 6))).astype(complex)
        lu, _ = _factor(a + 1e-6 * np.eye(6), "nearby matrix")
        with pytest.raises(SolverFailure, match="residual") as exc:
            _solve_checked(lambda x: a @ x, np.ones(6, dtype=complex), "mismatched LU", lu)
        assert RESIDUAL_TOL < exc.value.residual < 1e-4

    def test_rcond_floor_refuses_near_singular_grid_operator(self):
        # on two nodes a constant q0 gives I + Kw diag(q0) the eigenvalue
        # 1 + q0 (Kw_00 + Kw_01) on [1, 1]; a real q0 cancels its real part,
        # and its imaginary part is of order k
        grid = Grid((0, 0, 0), (2, 1, 1), (2, 1, 1))
        k = 1e-15
        table = BackgroundMedium(k, grid)._kernel_table
        q0 = -1.0 / (table[0, 0, 0] + table[1, 0, 0]).real
        med = BackgroundMedium(k, grid, n0=1.0 - q0 / k ** 2)
        with pytest.raises(SolverFailure, match="rcond"):
            med._solve_grid(np.ones((2, 2), dtype=complex))  # two columns: the LU path


class TestLapackAndGmres:
    """The LAPACK routines medium loads against scipy.linalg, and _gmres
    against a dense solve and scipy's GMRES."""

    @staticmethod
    def system(n, spread=0.3, seed=5):
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = np.eye(n) + spread * noise / np.sqrt(2 * n)
        return a, rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))

    def test_lu_is_bitwise_scipy(self):
        # orders 480 and 1500 run OpenBLAS's threaded zgetrf
        import scipy.linalg as sla
        for n in (120, 480, 1500):
            a, b = self.system(n)
            copy = a.copy()
            (lu, piv), rcond = _factor(a, "test matrix")
            assert np.array_equal(a, copy)  # the grid keeps a for its residual checks
            ref = sla.lu_factor(a)
            assert np.array_equal(lu, ref[0]) and np.array_equal(piv, ref[1])
            assert rcond == sla.lapack.zgecon(ref[0], np.linalg.norm(a, 1))[0]
            for rhs in (b[:, 0], b):
                x = _solve_checked(lambda x: a @ x, rhs, "test solve", (lu, piv))[0]
                assert np.array_equal(x, sla.lu_solve(ref, rhs))

    @pytest.fixture
    def rebound(self):
        """_lapack() binds anew inside the test and again after it."""
        medium._lapack.cache_clear()
        yield
        medium._lapack.cache_clear()

    def test_scipy_fallback_gives_the_same_bits(self, rebound, monkeypatch):
        # a numpy built on another BLAS has no scipy-openblas64 LAPACKE entries
        import ctypes
        import scipy.linalg.lapack
        a, b = self.system(120)

        def solved():
            lu, rcond = _factor(a, "test matrix")
            return (*lu, rcond, _solve_checked(lambda x: a @ x, b, "test solve", lu)[0])

        bound = solved()
        medium._lapack.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        fallback = solved()
        assert medium._lapack() is scipy.linalg.lapack
        assert all(np.array_equal(x, y) for x, y in zip(bound, fallback))

    def test_without_lapacke_or_scipy_a_dense_solve_exits_4(self, rebound, monkeypatch, tmp_path):
        # a numpy on another BLAS in an environment without scipy: the grid
        # LU of a non-free background fails as a solver failure, which the CLI
        # reports, not a traceback; a free-background solve needs no LAPACK
        import ctypes
        import json
        from pathlib import Path

        from smallbody import cli

        def no_library(*args, **kwargs):
            raise OSError("no such library")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        with pytest.raises(SolverFailure, match="scipy.linalg cannot be imported"):
            medium._lapack()
        scenes = Path(__file__).resolve().parent.parent / "scenes"
        out = tmp_path / "out"
        scene = scenes / "hard_cloud_n0_ball_off_lattice.json"
        assert cli.main(["solve", "--scene", str(scene), "--out", str(out)]) == cli.EXIT_SOLVER
        error = json.loads((out / "error.json").read_text())
        assert error["error_type"] == "SolverFailure" and error["exit_code"] == 4
        assert not (out / "metadata.json").exists()
        free = tmp_path / "free"
        scene = scenes / "single_hard_ball.json"
        assert cli.main(["solve", "--scene", str(scene), "--out", str(free)]) == 0
        assert json.loads((free / "metadata.json").read_text())["solver"] == "dense"

    def test_first_call_logs_the_lapack_source(self, rebound, monkeypatch, caplog):
        import ctypes
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        with caplog.at_level(logging.DEBUG, logger="smallbody.medium"):
            medium._lapack()
            medium._lapack()
            medium._lapack.cache_clear()
            monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
            medium._lapack()
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("LAPACK")]
        own = blas["name"] == "scipy-openblas"  # else numpy lacks the LAPACKE entries
        assert len(lines) == 2
        assert (f"OpenBLAS {blas['version']}" if own else "scipy.linalg.lapack") in lines[0]
        assert "scipy.linalg.lapack" in lines[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_or_rhs_raises(self, bad):
        a, b = self.system(8)
        broken = a.copy()
        broken[3, 5] = bad
        with pytest.raises(SolverFailure, match="non-finite"):
            _factor(broken, "test matrix")
        lu, _ = _factor(a, "test matrix")
        b[2, 1] = bad
        for factors in (lu, None):  # the LU and the GMRES path
            with pytest.raises(SolverFailure, match="non-finite"):
                _solve_checked(lambda x: a @ x, b, "test solve", factors)

    @pytest.mark.parametrize("binding", ["ctypes", "scipy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 2.0)])
    def test_non_finite_input_raises_with_lapacke_scans_off(self, rebound, monkeypatch,
                                                            binding, bad):
        # the binding turns LAPACKE's NaN scans off; the package's own pass,
        # the 1-norm of a matrix and isfinite of a right-hand side, still
        # refuses non-finite input with SolverFailure (the CLI's exit 4)
        import ctypes
        if binding == "scipy":
            monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        elif np.__config__.CONFIG["Build Dependencies"]["blas"]["name"] == "scipy-openblas":
            medium._lapack()
            lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
            assert lib.scipy_LAPACKE_get_nancheck64_() == 0
        a, b = self.system(40)
        lu, _ = _factor(a, "test matrix")
        for i, j in ((0, 0), (17, 3), (39, 39)):
            broken = a.copy()
            broken[i, j] = bad
            with pytest.raises(SolverFailure, match="non-finite"):
                _factor(broken, "test matrix")
            rhs = b.copy()
            rhs[i, j % 3] = bad
            for rows in (rhs, rhs[:, j % 3]):
                with pytest.raises(SolverFailure, match="non-finite"):
                    _solve_checked(lambda x: a @ x, rows, "test solve", lu)

    def test_exactly_singular_matrix_raises(self):
        a = np.eye(4, dtype=complex)
        a[2, 2] = 0.0
        with pytest.raises(SolverFailure, match="exactly singular"):
            _factor(a, "test matrix")

    @pytest.mark.parametrize("spread", [0.3, 0.9])
    def test_gmres_matches_dense_solve_and_scipy_count(self, spread):
        # spread 0.9 takes several restarts of 20 inner iterations, and its
        # condition number lets the error exceed the residual
        import scipy.sparse.linalg as spla
        a, b = self.system(150, spread)
        x, resid, iterations = _solve_checked(lambda x: a @ x, b, "test solve")
        ref = np.linalg.solve(a, b)
        assert resid <= RESIDUAL_TOL
        assert np.linalg.norm(x - ref) <= np.linalg.cond(a) * resid * np.linalg.norm(ref)
        if spread < 0.5:
            assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
        norms = []
        for col in b.T:
            _, info = spla.gmres(a, col, rtol=RESIDUAL_TOL, atol=0.0, restart=20, maxiter=400,
                                 callback=norms.append, callback_type="pr_norm")
            assert info == 0
        assert iterations == len(norms) and (spread < 0.5 or iterations > 3 * 20)

    def test_gmres_exact_krylov_space_and_zero_rhs(self):
        b = np.arange(1.0, 6.0) + 1j
        x, resid, iterations = _solve_checked(lambda x: 2.0 * x, b, "scaled solve")
        assert iterations == 1 and np.allclose(x, b / 2, rtol=1e-15, atol=0.0)
        x, resid, iterations = _solve_checked(lambda x: 2.0 * x, 0 * b, "zero solve")
        assert iterations == 0 and not x.any() and resid == 0.0
