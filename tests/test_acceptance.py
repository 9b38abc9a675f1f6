"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from smallbody.cli import main as cli_main
from smallbody.convergence import run_hard_study, run_impedance_study, verify_design
from smallbody.designer import choose_h_N, target_to_potential
from smallbody.directions import DirectionGrid
from smallbody.errors import InvariantViolation
from smallbody.foldy_impedance import solve_cloud
from smallbody.foldy_neumann import ball_polarizability
from smallbody.limit_solver import (
    LimitProblem,
    _hard_source,
    potential_from_h_N,
    solve_limit,
)
from smallbody.medium import BackgroundMedium, Grid
from smallbody.particles import (
    ParticleCloud,
    _check_volume_density,
    build_cloud_impedance,
    h_to_impedance,
    validate_cloud,
)
from reference import (background_amplitude, green_potential_grid, integral_abs_squared,
                       lemma_bounds_check, u0_grid, weighted_u0_sum_grid)

Z_HAT = np.array([0.0, 0.0, 1.0])
SCENES = Path(__file__).resolve().parent.parent / "scenes"


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def free_medium(k=1.0, n=4, lo=(-0.5, -0.5, -0.5), hi=(0.5, 0.5, 0.5)):
    return BackgroundMedium(k, Grid(lo, hi, (n, n, n)))


def single_ball_cloud(a, h):
    return ParticleCloud(centers=np.zeros((1, 3)), a=a, kind="impedance",
                         zeta=h_to_impedance(np.array([h], dtype=complex), a))


def test_criterion_1_single_impedance_ball():
    """Isotropy to 1e-12; amplitude -a h/(1+h) to 1e-10; soft limit; < 1 s."""
    t0 = time.perf_counter()
    k = 1.0
    a = 0.05 / k
    h = 2.0
    med = free_medium(k=k)
    res = solve_cloud(med, single_ball_cloud(a, h), Z_HAT)
    ff = res.sources.far_field(DirectionGrid(32, 64))
    spread = np.abs(ff.values - ff.values[0]).max()
    assert spread <= 1e-12
    expected = -a * h / (1 + h)
    assert abs(ff.values[0] - expected) <= 1e-10 * abs(expected)

    res_soft = solve_cloud(med, single_ball_cloud(a, 1e4), Z_HAT)
    amp_soft = med.amplitude(Z_HAT[None, :], res_soft.sources)[0]
    assert abs(amp_soft - (-a)) <= 1e-3 * a
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"isotropy {spread:.1e}, amplitude error "
              f"{abs(ff.values[0] - expected) / abs(expected):.1e}, {elapsed:.2f}s")


def test_criterion_2_single_hard_ball():
    """Rigid-ball pattern to 3*ka over 32x64; forward/backward -1/5; < 5 s."""
    t0 = time.perf_counter()
    k = 1.0
    a = 0.05 / k
    med = free_medium(k=k)
    cloud = ParticleCloud(centers=np.zeros((1, 3)), a=a, kind="hard",
                          beta=ball_polarizability())
    res = solve_cloud(med, cloud, Z_HAT)
    ff = res.sources.far_field(DirectionGrid(32, 64))
    betas = ff.grid.vectors()
    pattern = (k ** 2 * a ** 3 / 3) * (1.5 * betas @ Z_HAT - 1.0)
    rel = np.abs(ff.values - pattern).max() / np.abs(pattern).max()
    assert rel <= 3 * k * a
    fwd, bwd = med.amplitude(np.array([Z_HAT, -Z_HAT]), res.sources)
    ratio = (fwd / bwd).real
    assert ratio == pytest.approx(-0.2, abs=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"pattern error {rel:.1e} <= {3 * k * a}, fwd/bwd {ratio:.4f}, {elapsed:.2f}s")


def test_criterion_3_impedance_limit_convergence():
    """p = 1 on the unit cube, k = 1, a in {0.02, 0.01, 0.005}: e(a) strictly
    decreasing with e(0.005) <= 0.05; M <= 2e5; runtime < 10 min."""
    t0 = time.perf_counter()
    med = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (16, 16, 16)))
    n_dens = 1.0 / (2 * np.pi)  # with h = 1 realizes p = 4 pi N h/(1+h) = 1
    study = run_impedance_study(med, 1.0, n_dens, [0.02, 0.01, 0.005], Z_HAT)
    e = study.errors()
    assert study.complete
    assert e[0] > e[1] > e[2]
    assert e[2] <= 0.05
    assert max(r.m for r in study.records) <= 200_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(3, f"e(a) = {['%.2e' % x for x in e]}, M = "
              f"{[r.m for r in study.records]}, {elapsed:.1f}s")


def test_criterion_4_scaling_contrast():
    """Fitted exponents: M(a) -1 +- 0.1 and -3 +- 0.1; max|Q|(a) 1 +- 0.05
    and 3 +- 0.1 for the impedance and hard studies respectively."""
    med = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (16, 16, 16)))
    imp = run_impedance_study(med, 1.0, 1.0 / (2 * np.pi), [0.02, 0.01, 0.005], Z_HAT)
    m_imp = imp.count_exponent()
    q_imp = imp.charge_exponent()
    assert m_imp == pytest.approx(-1.0, abs=0.1)
    assert q_imp == pytest.approx(1.0, abs=0.05)

    nodes = med.grid.nodes
    t = (nodes - 0.5) / 0.3
    prof = np.where(np.abs(t) < 1, (1 - t ** 2) ** 2, 0.0)
    nu = 2e-3 * prof[:, 0] * prof[:, 1] * prof[:, 2]
    hard = run_hard_study(med, nu, ball_polarizability(),
                          [0.005, 1.0 / 300.0, 0.0025], Z_HAT, cell_size=0.25)
    q_hard = hard.charge_exponent()
    assert q_hard == pytest.approx(3.0, abs=0.1)

    # count exponent over a wider build-only sweep (no solves needed)
    from smallbody.particles import build_cloud_hard
    avals = [0.005, 0.004, 1.0 / 300.0, 0.0025, 0.002, 0.0016]
    counts = [len(build_cloud_hard(med, a, nu, ball_polarizability(), cell_size=0.25))
              for a in avals]
    m_hard = float(np.polyfit(np.log(avals), np.log(counts), 1)[0])
    assert m_hard == pytest.approx(-3.0, abs=0.1)
    report(4, f"M exponents {m_imp:.3f} / {m_hard:.3f}, "
              f"charge exponents {q_imp:.3f} / {q_hard:.3f}")


def test_criterion_5_design_round_trip():
    """Branch-C design for n = 1.2 on a sub-box: potential identity to 1e-12,
    decreasing e(a) with final <= 0.05, reference-cell feasibility numbers."""
    med = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (16, 16, 16)))
    nodes = med.grid.nodes
    mask = np.all((nodes > 0.25) & (nodes < 0.75), axis=1)
    target = np.where(mask, 1.2, 1.0).astype(complex)
    p = target_to_potential(med, target)
    h, n_dens = choose_h_N(p)
    realized = potential_from_h_N(h, n_dens)
    assert np.abs(realized - p).max() <= 1e-12 * max(np.abs(p).max(), 1.0)
    assert np.all(h.imag <= 1e-14) and np.all(n_dens >= 0)

    build_cloud_impedance(med, 1e-5, h, n_dens, cell_size=0.25)  # the design cloud builds
    cell_mass = 0.2 / (4 * np.pi) * 0.25 ** 3
    a_seq = [cell_mass / c for c in (8, 27, 64)]
    study, decreasing, passed = verify_design(med, h, n_dens, a_seq, Z_HAT, cell_size=0.25)
    assert decreasing, study.errors()
    assert study.errors()[-1] <= 0.05
    assert passed

    # reference configuration: b = 1e-2, a = 1e-5, N = 1e4 -> 10^3 per cell
    med_cell = BackgroundMedium(1.0, Grid((0, 0, 0), (0.01, 0.01, 0.01), (4, 4, 4)))
    cloud = build_cloud_impedance(med_cell, 1e-5, 1.0, 1e4)
    assert len(cloud) == 1000
    assert cloud.d / cloud.a == pytest.approx(100.0, rel=1e-9)
    fraction = validate_cloud(cloud, med_cell).volume_fraction
    assert fraction == pytest.approx(1000 * (4 * np.pi / 3) * 1e-15 / 1e-6, rel=1e-12)
    assert fraction == pytest.approx(4.18879e-6, rel=1e-4)
    report(5, f"identity {np.abs(realized - p).max():.1e}, e(a) = "
              f"{['%.2e' % x for x in study.errors()]}, cell count 1000, "
              f"fraction {fraction:.3e}")


def test_criterion_6_optical_theorem():
    """Real q0 and real p: Im A(a,a) = (k/4pi) int |A|^2 within 1e-3 relative."""
    k = 1.3
    grid = Grid((0, 0, 0), (1, 1, 1), (12, 12, 12))
    nodes = grid.nodes
    inball = np.linalg.norm(nodes - 0.5, axis=1) < 0.3
    med = BackgroundMedium(k, grid, np.where(inball, 1.15, 1.0).astype(complex))
    insub = np.all((nodes > 0.25) & (nodes < 0.75), axis=1)
    p = np.where(insub, 0.8, 0.0).astype(complex)
    problem = LimitProblem(medium=med, p=p)
    fld = solve_limit(problem, Z_HAT)
    ff = fld.sources.far_field()  # default 32x64 quadrature
    forward = (background_amplitude(med, Z_HAT[None, :], Z_HAT)[0]
               - weighted_u0_sum_grid(
                   med, Z_HAT[None, :], p * fld.values * med.weight)[0] / (4 * np.pi))
    flux = k / (4 * np.pi) * integral_abs_squared(ff)
    rel = abs(forward.imag - flux) / abs(forward.imag)
    assert rel <= 1e-3
    report(6, f"optical-theorem defect {rel:.2e} <= 1e-3")


def test_criterion_7_lemma_bound_suite():
    """Translation-stability ratios bounded by one constant over a 4x sweep
    of (a, d); slope of log-ratio against log-a within +-0.1 of zero."""
    grid = Grid((0, 0, 0), (1, 1, 1), (7, 7, 7))
    med = BackgroundMedium(1.0, grid, n0=1.2 + 0.05j)
    ratios_g, ratios_green = [], []
    avals = (4e-4, 8e-4, 1.6e-3)
    for a in avals:
        for d in (0.05, 0.1, 0.2):
            if d < 10 * a:
                continue
            rep = lemma_bounds_check(med, a=a, d=d, sample_count=400, seed=2)
            ratios_g.append((a, d, rep.max_ratio_g))
            ratios_green.append((a, d, rep.max_ratio_green))
    bound = max(r for _, _, r in ratios_g + ratios_green)
    assert bound <= 5.0
    # fixed d: ratio flat in a
    per_a = {}
    for a, d, r in ratios_g:
        if d == 0.2:
            per_a[a] = r
    slope = np.polyfit(np.log(list(per_a.keys())), np.log(list(per_a.values())), 1)[0]
    assert abs(slope) <= 0.1
    report(7, f"max ratio {bound:.3f} <= 5, log-slope {slope:+.3f} within 0.1")


def test_criterion_8_born_fourier_and_hard_fixed_point():
    """Gaussian-bump amplitude matches -p_hat(k(b-a))/(4pi) to 1%; the hard
    limit solution satisfies U = u0 + G[Lap U nu + div(beta grad U nu)] to 1e-10."""
    med = BackgroundMedium(1.0, Grid((0, 0, 0), (1, 1, 1), (16, 16, 16)))
    nodes = med.grid.nodes
    sig, p0 = 0.12, 0.05
    p = p0 * np.exp(-np.sum((nodes - 0.5) ** 2, axis=1) / (2 * sig ** 2))
    problem = LimitProblem(medium=med, p=p)
    fld = solve_limit(problem, Z_HAT)
    ff = fld.sources.far_field(DirectionGrid(16, 32))
    betas = ff.grid.vectors()
    xi = med.k * (betas - Z_HAT)
    phat = (p0 * (2 * np.pi * sig ** 2) ** 1.5
            * np.exp(-sig ** 2 * np.sum(xi ** 2, axis=1) / 2)
            * np.exp(-1j * xi @ np.full(3, 0.5)))
    rel = np.abs(ff.values + phat / (4 * np.pi)).max() / np.abs(phat / (4 * np.pi)).max()
    assert rel <= 0.01

    t = (nodes - 0.5) / 0.3
    prof = np.where(np.abs(t) < 1, (1 - t ** 2) ** 2, 0.0)
    nu = 2e-3 * prof[:, 0] * prof[:, 1] * prof[:, 2]
    hard = LimitProblem(medium=med, nu=nu, beta_field=ball_polarizability())
    u = solve_limit(hard, Z_HAT).values
    mapped = u0_grid(med, Z_HAT) + green_potential_grid(med, _hard_source(hard, u))
    defect = np.linalg.norm(mapped - u) / np.linalg.norm(u)
    assert defect <= 1e-10
    report(8, f"Born/Fourier error {rel:.2e} <= 1e-2, hard fixed-point defect {defect:.1e}")


def test_criterion_9_determinism_and_invariants(tmp_path):
    """Byte-identical CSV reruns; passivity/spacing/counting invariants
    enforced over randomized admissible inputs."""
    outs = []
    for run_dir in ("r1", "r2"):
        out = tmp_path / run_dir
        code = cli_main(["solve", "--scene", str(SCENES / "single_hard_ball.json"),
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    for name in ("field.csv", "farfield.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # passivity of the medium
    grid = Grid((0, 0, 0), (1, 1, 1), (4, 4, 4))
    with pytest.raises(InvariantViolation):
        BackgroundMedium(1.0, grid, n0=1.0 - 0.2j)  # Im q0 > 0

    # random admissible potentials: design outputs stay passive and realizable
    rng = np.random.default_rng(42)
    for _ in range(25):
        p1 = rng.normal(scale=3.0, size=64)
        p2 = -np.abs(rng.normal(scale=2.0, size=64))
        p2[rng.random(64) < 0.4] = 0.0
        h, n_dens = choose_h_N(p1 + 1j * p2)
        assert np.all(h.imag <= 1e-14)
        assert np.all(n_dens >= 0)

    # counting bounds: hard compatibility and active impedances are rejected
    with pytest.raises(InvariantViolation):
        _check_volume_density(np.array([0.5]))
    med = BackgroundMedium(1.0, grid)
    with pytest.raises(InvariantViolation):
        build_cloud_impedance(med, 1e-3, 1.0 + 0.5j, 0.05)
    active = ParticleCloud(centers=np.zeros((1, 3)) + 0.5, a=1e-3, kind="impedance",
                           zeta=np.array([1.0 + 2.0j]))
    assert any("Im zeta" in f for f in validate_cloud(active, med).flags)
    report(9, "byte-identical reruns; passivity, spacing, and counting "
              "invariants enforced")
