"""Continuum-limit solver tests."""

import numpy as np
import pytest

from smallbody.directions import DirectionGrid
from smallbody.errors import InvariantViolation
from smallbody.limit_solver import (
    LimitProblem,
    _hard_source,
    hard_born_approximation,
    limit_field_at,
    limiting_amplitude,
    potential_from_h_N,
    solve_limit,
)
from smallbody.medium import DENSE_GRID_CAP, BackgroundMedium, Grid, free_kernel
from reference import weighted_u0_sum_grid

Z_HAT = np.array([0.0, 0.0, 1.0])


def cube_medium(k=1.0, n=10, n0=1.0):
    return BackgroundMedium(k, Grid((0, 0, 0), (1, 1, 1), (n, n, n)), n0)


def ball_background_problem(k=1.3):
    """Real n0 = 1.15 ball in a 12^3 box, real p = 0.8 on a centered subbox."""
    grid = Grid((0, 0, 0), (1, 1, 1), (12, 12, 12))
    nodes = grid.nodes
    inball = np.linalg.norm(nodes - 0.5, axis=1) < 0.3
    med = BackgroundMedium(k, grid, np.where(inball, 1.15, 1.0).astype(complex))
    insub = np.all((nodes > 0.25) & (nodes < 0.75), axis=1)
    return LimitProblem(medium=med, p=np.where(insub, 0.8, 0.0).astype(complex))


def bump_profile(nodes, center=0.5, width=0.3):
    t = (nodes - center) / width
    per_axis = np.where(np.abs(t) < 1, (1 - t ** 2) ** 2, 0.0)
    return per_axis[:, 0] * per_axis[:, 1] * per_axis[:, 2]


class TestPotentialFromHN:
    def test_ball_unit_potential(self):
        p = potential_from_h_N(1.0, 1.0 / (2 * np.pi))
        assert p[0] == pytest.approx(1.0, rel=1e-14)

    def test_zero_density(self):
        assert np.all(potential_from_h_N(1.0, 0.0) == 0.0)

    def test_passive_h_gives_passive_p(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=50) - 1j * rng.random(50)
        h = np.where(np.abs(1 + h) < 0.1, h + 0.3, h)
        n = rng.random(50)
        p = potential_from_h_N(h, n)
        assert np.all(p.imag <= 1e-12)

    def test_singular_h_rejected(self):
        with pytest.raises(InvariantViolation):
            potential_from_h_N(-1.0, 0.5)


class TestImpedanceLimit:
    def test_zero_potential_returns_incident(self):
        med = cube_medium()
        problem = LimitProblem(medium=med, p=0.0)
        fld = solve_limit(problem, Z_HAT)
        np.testing.assert_allclose(
            fld.values, np.exp(1j * med.k * med.grid.nodes[:, 2]), rtol=1e-12)

    def test_born_defect_is_second_order(self):
        # u - u0 + eps * int G u0 = O(eps^2): halving eps shrinks it >= 3.5x
        med = cube_medium(n=8)
        probe = np.array([[0.5, 0.4, 2.7]])
        fine = Grid((0, 0, 0), (1, 1, 1), (15, 15, 15))
        born_term = (free_kernel(probe, fine.nodes, med.k)[0]
                     * np.exp(1j * med.k * fine.nodes[:, 2])).sum() * fine.delta ** 3

        def defect(eps):
            problem = LimitProblem(medium=med, p=eps)
            fld = solve_limit(problem, Z_HAT)
            u_probe = limit_field_at(problem, fld, probe).values[0]
            u0 = np.exp(1j * med.k * probe[0, 2])
            return abs(u_probe - (u0 - eps * born_term))

        assert defect(0.5) / defect(0.25) >= 3.5

    def test_pde_residual_refines_second_order(self):
        # finite-difference residual of (lap + k^2 - q0 - p) u over interior
        # nodes, rms norm (the max norm carries mesh-scale quadrature noise)
        med_res = {}
        for n in (8, 16):
            med = cube_medium(n=n)
            nodes = med.grid.nodes
            p = 0.8 * np.exp(-np.sum((nodes - 0.5) ** 2, axis=1) / (2 * 0.18 ** 2))
            problem = LimitProblem(medium=med, p=p)
            fld = solve_limit(problem, Z_HAT)
            shape = med.grid.shape
            delta = med.grid.delta
            v = fld.values.reshape(shape)
            lap = np.zeros_like(v)
            for ax in range(3):
                lap += np.roll(v, 1, axis=ax) + np.roll(v, -1, axis=ax) - 2 * v
            lap /= delta ** 2
            resid = lap + (med.k ** 2 - med.q0.reshape(shape) - p.reshape(shape)) * v
            margin = max(2, n // 8)
            sl = slice(margin, -margin)
            inner = resid[sl, sl, sl]
            med_res[n] = np.sqrt(np.mean(np.abs(inner) ** 2)) / np.abs(v).max()
        order = np.log2(med_res[8] / med_res[16])
        assert order >= 1.8

    def test_grid_self_convergence(self):
        probe = np.array([[1.8, 0.6, 0.4], [0.2, -1.1, 2.2]])
        vals = {}
        for n in (4, 8, 16):
            med = cube_medium(n=n)
            problem = LimitProblem(medium=med, p=1.0)
            fld = solve_limit(problem, Z_HAT)
            vals[n] = limit_field_at(problem, fld, probe).values
        e_coarse = np.abs(vals[4] - vals[8]).max()
        e_fine = np.abs(vals[8] - vals[16]).max()
        assert e_coarse / e_fine >= 3.5

    def test_grid_beyond_dense_cap_solves(self):
        # 32^3 nodes: the FFT-applied GMRES solve needs no N x N matrix
        med = cube_medium(n=32)
        assert med.grid.size > DENSE_GRID_CAP
        problem = LimitProblem(medium=med, p=0.8 * bump_profile(med.grid.nodes))
        fld = solve_limit(problem, Z_HAT)
        assert fld.residual <= 1e-10
        assert 1 <= fld.iterations <= 20

    def test_radiation_extraction(self):
        med = cube_medium(n=8)
        problem = LimitProblem(medium=med, p=1.0)
        fld = solve_limit(problem, Z_HAT)
        beta = np.array([0.8, 0.0, 0.6])
        amp_grid = DirectionGrid(16, 32)
        # amplitude at this specific direction via the weighted sum
        amp = -weighted_u0_sum_grid(med, beta[None, :],
                                    problem.p * fld.values * med.weight)[0] / (4 * np.pi)
        r = 200.0
        u_r = limit_field_at(problem, fld, (r * beta)[None, :]).values[0]
        u0_r = np.exp(1j * med.k * r * beta @ Z_HAT)
        extracted = r * np.exp(-1j * med.k * r) * (u_r - u0_r)
        assert abs(extracted - amp) / abs(amp) <= 3.0 / (med.k * r)


class TestLimitingAmplitude:
    def test_zero_potential_gives_background_amplitude(self):
        med = cube_medium(n=8)
        problem = LimitProblem(medium=med, p=0.0)
        fld = solve_limit(problem, Z_HAT)
        ff = limiting_amplitude(problem, fld, DirectionGrid(8, 16))
        assert np.all(ff.values == 0)  # free background: A0 = 0

    def test_born_matches_fourier_transform(self):
        # Gaussian bump: A ~ -phat(k(beta-alpha))/(4pi) to <= 1%
        med = cube_medium(k=1.0, n=16)
        nodes = med.grid.nodes
        sig, p0 = 0.12, 0.05
        p = p0 * np.exp(-np.sum((nodes - 0.5) ** 2, axis=1) / (2 * sig ** 2))
        problem = LimitProblem(medium=med, p=p)
        fld = solve_limit(problem, Z_HAT)
        ff = limiting_amplitude(problem, fld, DirectionGrid(8, 16))
        betas = ff.grid.vectors()
        xi = med.k * (betas - Z_HAT)
        phat = (p0 * (2 * np.pi * sig ** 2) ** 1.5
                * np.exp(-sig ** 2 * np.sum(xi ** 2, axis=1) / 2)
                * np.exp(-1j * xi @ np.full(3, 0.5)))
        oracle = -phat / (4 * np.pi)
        assert np.abs(ff.values - oracle).max() / np.abs(oracle).max() <= 0.01

    def test_born_reciprocity(self):
        med = cube_medium(k=1.0, n=12)
        nodes = med.grid.nodes
        p = 0.03 * np.exp(-np.sum((nodes - 0.45) ** 2, axis=1) / (2 * 0.15 ** 2))
        alpha = Z_HAT
        beta = np.array([0.6, 0.48, 0.64])
        problem = LimitProblem(medium=med, p=p)
        f1 = solve_limit(problem, alpha)
        a_fwd = -weighted_u0_sum_grid(med, beta[None, :],
                                      p * f1.values * med.weight)[0] / (4 * np.pi)
        f2 = solve_limit(problem, -beta)
        a_rev = -weighted_u0_sum_grid(med, -alpha[None, :],
                                      p * f2.values * med.weight)[0] / (4 * np.pi)
        assert abs(a_fwd - a_rev) <= 1e-8 * abs(a_fwd)

    def test_optical_theorem_real_potentials(self):
        # real q0 and real p: Im A(alpha,alpha) = (k/4pi) int |A|^2 within 1e-3
        problem = ball_background_problem()
        med, p = problem.medium, problem.p
        fld = solve_limit(problem, Z_HAT)
        ff = limiting_amplitude(problem, fld)
        forward = (med.background_amplitude(Z_HAT[None, :], Z_HAT)[0]
                   - weighted_u0_sum_grid(med, Z_HAT[None, :],
                                          p * fld.values * med.weight)[0] / (4 * np.pi))
        flux = med.k / (4 * np.pi) * ff.integral_abs_squared()
        assert abs(forward.imag - flux) / abs(forward.imag) <= 1e-3

    def test_limit_fields_skip_the_background_factorization(self):
        # the limit field radiates from -(q0 + p) u delta^3 through the free
        # kernel: neither the near nor the far field solves the background
        problem = ball_background_problem()
        med, p = problem.medium, problem.p
        fld = solve_limit(problem, Z_HAT)
        directions = DirectionGrid(4, 8)
        ff = limiting_amplitude(problem, fld, directions)
        limit_field_at(problem, fld, [[0.5, 0.5, 4.0], [-3.0, 0.2, 0.5]])
        assert med._lu is None
        betas = directions.vectors()
        reference = (med.background_amplitude(betas, Z_HAT)
                     - weighted_u0_sum_grid(med, betas, p * fld.values * med.weight) / (4 * np.pi))
        assert np.abs(ff.values - reference).max() <= 1e-10 * np.abs(reference).max()


class TestHardLimit:
    def make_problem(self, nu0=2e-3, n=12, k=1.0, n0=1.0):
        med = cube_medium(k=k, n=n, n0=n0)
        nu = nu0 * bump_profile(med.grid.nodes)
        return LimitProblem(medium=med, nu=nu, beta_field=-1.5 * np.eye(3))

    def ball_problem(self, nu0=2e-3, n=12):
        """The bump of make_problem inside an n0 = 1.15 ball."""
        nodes = Grid((0, 0, 0), (1, 1, 1), (n, n, n)).nodes
        n0 = np.where(np.linalg.norm(nodes - 0.5, axis=1) < 0.4, 1.15, 1.0)
        return self.make_problem(nu0=nu0, n=n, n0=n0)

    def test_nonfree_hard_limit_skips_the_grid_factorization(self):
        # the limit system carries q0 itself: no background grid solve at all,
        # so no 4096^2 matrix, no LU and no incident field
        problem = self.ball_problem(nu0=0.004, n=16)
        fld = solve_limit(problem, Z_HAT)
        limit_field_at(problem, fld, [[0.5, 0.5, 4.0]])
        assert problem.medium._lu is None
        assert problem.medium._u0_cache == {}
        assert fld.residual <= 1e-10 and 1 <= fld.iterations <= 20

    def test_zero_nu_returns_incident(self):
        med = cube_medium(n=8)
        problem = LimitProblem(medium=med, nu=0.0, beta_field=-1.5 * np.eye(3))
        fld = solve_limit(problem, Z_HAT)
        np.testing.assert_allclose(
            fld.values, np.exp(1j * med.k * med.grid.nodes[:, 2]), rtol=1e-13)

    def test_solution_satisfies_the_fixed_point_map(self):
        # U = u0 + G[Lap U nu + div(beta grad U nu)], with u0 and G from the
        # background grid solves that the limit system does without
        for problem in (self.make_problem(), self.ball_problem()):
            med = problem.medium
            u = solve_limit(problem, Z_HAT).values
            mapped = med.u0_grid(Z_HAT) + med.green_potential_grid(_hard_source(problem, u))
            assert np.linalg.norm(mapped - u) <= 1e-10 * np.linalg.norm(u)

    def test_substituted_form_agrees_to_fd_order(self):
        # replacing Lap u0 by -k^2 n0 u0 changes the correction only at FD order
        problem = self.make_problem(n=12)
        med = problem.medium
        born = hard_born_approximation(problem, Z_HAT)
        u0 = med.u0_grid(Z_HAT)
        from smallbody.limit_solver import _beta_contract, _fd_divergence, _fd_gradient
        grad = _fd_gradient(u0, med.grid.shape, med.grid.delta)
        flux = _beta_contract(problem.beta_field, grad) * problem.nu[None, :]
        source = -med.k ** 2 * med.n0 * u0 * problem.nu \
            + _fd_divergence(flux, med.grid.shape, med.grid.delta)
        alt = u0 + med.green_potential_grid(source)
        corr = np.abs(born.values - u0).max()
        assert np.abs(born.values - alt).max() <= 1e-2 * corr

    def test_fixed_point_converges_and_improves_on_born(self):
        problem = self.make_problem()
        fld = solve_limit(problem, Z_HAT)
        born = hard_born_approximation(problem, Z_HAT)
        # iteration drifts away from the first iterate by O(nu^2)
        drift = np.abs(fld.values - born.values).max()
        corr = np.abs(born.values - problem.medium.u0_grid(Z_HAT)).max()
        assert 0 < drift < 0.05 * corr

    def test_volume_density_bound_enforced(self):
        # the bound of the clouds, (nu/c3)^(1/3) <= 0.1, holds for the limit too
        with pytest.raises(InvariantViolation, match="volume density too large"):
            self.make_problem(nu0=20.0)
        with pytest.raises(InvariantViolation, match="volume density too large"):
            self.make_problem(nu0=0.01)
        self.make_problem(nu0=0.004)

    def test_collar_enforced(self):
        med = cube_medium(n=8)
        with pytest.raises(InvariantViolation, match="collar"):
            LimitProblem(medium=med, nu=1e-3, beta_field=-1.5 * np.eye(3))

    def test_far_pattern_matches_rigid_sphere_shape(self):
        # Born regime: scattered far field ~ ((3/2) beta.alpha - 1) nuhat(k(beta-alpha))
        k = 1.0
        problem = self.make_problem(nu0=1e-3, n=16, k=k)
        med = problem.medium
        fld = solve_limit(problem, Z_HAT)
        r = 300.0
        betas = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, -0.8]])
        pts = r * betas
        u_r = limit_field_at(problem, fld, pts).values
        u0_r = np.exp(1j * k * pts @ Z_HAT)
        extracted = r * np.exp(-1j * k * r) * (u_r - u0_r)

        # separable oracle: nuhat from independent 1-D quadratures per axis
        t = np.linspace(0.2, 0.8, 4001)
        prof = (1 - ((t - 0.5) / 0.3) ** 2) ** 2

        def axis_hat(w):
            return np.trapezoid(prof * np.exp(-1j * w * t), t)

        oracle = []
        for b in betas:
            xi = k * (b - Z_HAT)
            nuhat = 1e-3 * axis_hat(xi[0]) * axis_hat(xi[1]) * axis_hat(xi[2])
            oracle.append(k ** 2 / (4 * np.pi) * (1.5 * b @ Z_HAT - 1.0) * nuhat)
        oracle = np.array(oracle)
        ratio = extracted / oracle
        assert np.abs(ratio - 1.0).max() <= 0.05

    def test_far_field_obeys_the_optical_theorem_and_the_far_zone(self):
        # real nu and beta conserve energy: Im A(alpha,alpha) = (k/4pi) int |A|^2;
        # and A is the e^{ikR}/R profile of the scattered part of limit_field_at
        problem = self.make_problem(nu0=0.004, n=12)
        med = problem.medium
        fld = solve_limit(problem, Z_HAT)
        ff = limiting_amplitude(problem, fld)
        # free background: the density -src(u) delta^3 is the hard source times delta^3
        source = _hard_source(problem, fld.values) * med.weight
        forward = weighted_u0_sum_grid(med, Z_HAT[None, :], source)[0] / (4 * np.pi)
        flux = med.k / (4 * np.pi) * ff.integral_abs_squared()
        assert abs(forward.imag - flux) / abs(forward.imag) <= 1e-3
        r = 2000.0
        betas = ff.grid.vectors()
        u_r = limit_field_at(problem, fld, r * betas).values
        scattered = r * np.exp(-1j * med.k * r) * (u_r - np.exp(1j * med.k * r * betas @ Z_HAT))
        assert np.abs(scattered - ff.values).max() <= 2e-3 * np.abs(ff.values).max()

    def test_requires_matching_kind(self):
        med = cube_medium(n=8)
        imp = LimitProblem(medium=med, p=0.5)
        with pytest.raises(InvariantViolation):
            hard_born_approximation(imp, Z_HAT)
