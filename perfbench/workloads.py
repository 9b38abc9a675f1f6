"""Benchmark workloads: scenes generated from a seed, and independent checks.

The seed draws only the incident direction and field amplitudes or contrasts,
never a size, so every seed gives a workload the same amount of work.  The
checks use plain numpy on the CLI's output files and never import smallbody.

* ``limit_grid``  -- ``limit`` on a real bump potential, 12^3 grid (1728
  nodes), free background.  All work is in the grid layer: dense kernel fill,
  a 1728^2 LU, 512 x 1728 phase sums.  Check: optical theorem.
* ``cloud_free``  -- ``solve`` on an impedance cloud of M = 1600 (a = 1e-4) in
  a homogeneous background.  The grid layer is bypassed; pair assembly, a
  1600^2 LU and 512 x M phase sums do the work.  Check: collocation
  residual and a direct far-field sum.
* ``cloud_medium`` -- ``solve`` on a hard cloud of M = 120 inside an n0 ball
  on an 8^3 grid.  The grid is small but takes more right-hand side columns
  than 3 M, and the (M, N, 3, 3) Green contractions dominate.  Check:
  reciprocity A(beta, alpha) = A(-alpha, -beta) on the scattered part.

Every workload uses 16 x 32 far-field directions.  The sizes keep one solve
near 1-3 s, so that a run of the benchmark takes ten or more samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

N_THETA, N_PHI = 16, 32
UNIT_BOX = {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}

OPTICAL_THEOREM_TOL = 1e-3
COLLOCATION_TOL = 1e-9
FARFIELD_SUM_TOL = 1e-9
RECIPROCITY_TOL = 1e-9


@dataclass
class Case:
    """One generated workload instance.

    ``partners`` are extra untimed CLI runs the check needs, by name:
    ``name -> (command, scene)``.
    """

    command: str
    scene: dict
    params: dict
    partners: dict = field(default_factory=dict)


def direction_vectors() -> np.ndarray:
    """The CLI's default direction grid, theta-major (see FORMATS.md)."""
    theta = np.arccos(leggauss(N_THETA)[0])
    phi = 2.0 * np.pi * np.arange(N_PHI) / N_PHI
    t, p = np.meshgrid(theta, phi, indexing="ij")
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)],
                    axis=-1).reshape(-1, 3)


def _unit_vector(rng) -> list:
    v = rng.normal(size=3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _scene(medium: dict, alpha, **section) -> dict:
    return {"format_version": 1, "medium": medium, "alpha": [float(x) for x in alpha],
            "directions": {"n_theta": N_THETA, "n_phi": N_PHI}, **section}


def make_case(workload: str, seed: int) -> Case:
    rng = np.random.default_rng(seed)
    if workload == "limit_grid":
        k, amplitude = 1.3, float(rng.uniform(0.5, 1.0))
        bump = {"type": "bump", "center": [0.5, 0.5, 0.5], "width": 0.4,
                "amplitude": amplitude}
        medium = {"box": UNIT_BOX, "resolution": 12, "k": k}
        alpha = _unit_vector(rng)
        return Case("limit", _scene(medium, alpha, limit={"p": bump}),
                    {"k": k, "alpha": alpha, "bump": bump})
    if workload == "cloud_free":
        k, a = 1.0, 1e-4
        medium = {"box": UNIT_BOX, "resolution": 8, "k": k}
        # one cell of side 1 holds round(N / a) = 1600 particles
        cloud = {"kind": "impedance", "a": a, "h": float(rng.uniform(0.5, 2.0)), "N": 0.16}
        alpha = _unit_vector(rng)
        return Case("solve", _scene(medium, alpha, cloud=cloud), {"k": k, "alpha": alpha})
    if workload == "cloud_medium":
        k = 1.0
        n0 = {"type": "radial", "center": [0.5, 0.5, 0.5], "radius": 0.4,
              "inside": float(rng.uniform(1.10, 1.20)), "outside": 1.0}
        medium = {"box": UNIT_BOX, "resolution": 8, "k": k, "n0": n0}
        # 2 x 2 x 2 cells of side 0.5 with 15 particles each: M = 120
        cloud = {"kind": "hard", "a": 0.01, "nu": 5e-4, "cell_size": 0.5,
                 "beta": float(rng.uniform(-1.5, -1.0))}
        dirs = direction_vectors()
        i, j = (int(x) for x in rng.choice(len(dirs), size=2, replace=False))
        alpha, beta = -dirs[i], dirs[j]
        partners = {
            "reciprocal": ("solve", _scene(medium, -beta, cloud=cloud)),
            "background": ("limit", _scene(medium, alpha, limit={"p": 0.0})),
        }
        return Case("solve", _scene(medium, alpha, cloud=cloud),
                    {"k": k, "alpha_index": i, "beta_index": j}, partners)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks: each returns (problems, figures); no problems means the output is correct
# ---------------------------------------------------------------------------

def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _farfield(out: Path) -> np.ndarray:
    rows = _csv(out / "farfield.csv")
    if rows.shape != (N_THETA * N_PHI, 4):
        raise ValueError(f"farfield.csv has shape {rows.shape}")
    theta = np.repeat(np.arccos(leggauss(N_THETA)[0]), N_PHI)
    if np.max(np.abs(rows[:, 0] - theta)) > 1e-12:
        raise ValueError("farfield.csv rows are not on the theta-major Gauss grid")
    return rows[:, 2] + 1j * rows[:, 3]


def _sphere_weights() -> np.ndarray:
    return np.repeat(leggauss(N_THETA)[1], N_PHI) * (2.0 * np.pi / N_PHI)


def _check_limit_grid(case: Case, out: Path, partners: dict) -> tuple:
    """|Im A(a,a) - (k/4pi) int |A|^2| / |Im A(a,a)| for a real potential."""
    k, alpha, bump = case.params["k"], np.asarray(case.params["alpha"]), case.params["bump"]
    grid = _csv(out / "grid_field.csv")
    nodes, u = grid[:, :3], grid[:, 3] + 1j * grid[:, 4]
    n = round(len(nodes) ** (1.0 / 3.0))
    t = (nodes - np.asarray(bump["center"])) / bump["width"]
    p = bump["amplitude"] * np.prod(np.where(np.abs(t) < 1, (1 - t ** 2) ** 2, 0.0), axis=1)
    forward = -np.sum(np.exp(-1j * k * nodes @ alpha) * p * u) / n ** 3 / (4.0 * np.pi)
    flux = k / (4.0 * np.pi) * np.sum(_sphere_weights() * np.abs(_farfield(out)) ** 2)
    defect = abs(forward.imag - flux) / abs(forward.imag)
    problems = [] if defect <= OPTICAL_THEOREM_TOL else [
        f"optical-theorem defect {defect:.3e} > {OPTICAL_THEOREM_TOL}"]
    return problems, {"optical_theorem_defect": float(defect)}


def _check_cloud_free(case: Case, out: Path, partners: dict) -> tuple:
    """Collocation residual ||(I + G_off diag c) u_e - u0|| / ||u0|| and a direct
    far-field sum (1/4pi) sum_m exp(-ik beta.x_m) Q_m at a few directions."""
    k, alpha = case.params["k"], np.asarray(case.params["alpha"])
    centers = _csv(out / "centers.csv")
    with open(out / "solution.json", encoding="utf-8") as fh:
        sol = json.load(fh)

    def cplx(key):
        return np.array([v["re"] + 1j * v["im"] for v in sol[key]])

    ue, c, q = cplx("effective_values"), cplx("coupling"), cplx("charges")
    m = len(centers)
    if not (len(ue) == len(c) == len(q) == m) or m == 0:
        return [f"solution.json sizes {len(ue)}, {len(c)}, {len(q)} vs {m} centres"], {}
    u0 = np.exp(1j * k * centers @ alpha)
    resid = ue - u0
    cu = c * ue
    for s in range(0, m, 256):
        diff = centers[s:s + 256, None, :] - centers[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        rows = np.arange(s, min(s + 256, m))
        r[rows - s, rows] = 1.0
        g = np.exp(1j * k * r) / (4.0 * np.pi * r)
        g[rows - s, rows] = 0.0
        resid[s:s + 256] += g @ cu
    rel = np.linalg.norm(resid) / np.linalg.norm(u0)
    problems = []
    if not rel <= COLLOCATION_TOL:
        problems.append(f"collocation residual {rel:.3e} > {COLLOCATION_TOL}")

    amp = _farfield(out)
    dirs = direction_vectors()
    picks = np.random.default_rng(len(ue)).choice(len(dirs), size=8, replace=False)
    direct = np.exp(-1j * k * dirs[picks] @ centers.T) @ q / (4.0 * np.pi)
    err = np.max(np.abs(direct - amp[picks])) / np.max(np.abs(amp))
    if not err <= FARFIELD_SUM_TOL:
        problems.append(f"far field vs direct sum {err:.3e} > {FARFIELD_SUM_TOL}")
    return problems, {"collocation_residual": float(rel), "farfield_sum_error": float(err)}


def _check_cloud_medium(case: Case, out: Path, partners: dict) -> tuple:
    """A(beta, alpha) = A(-alpha, -beta), relative to the largest particle part
    |A - A0| over all directions (a single direction can sit near a zero)."""
    i, j = case.params["alpha_index"], case.params["beta_index"]
    forward = _farfield(out)
    reverse = _farfield(partners["reciprocal"])[i]
    scattered = np.max(np.abs(forward - _farfield(partners["background"])))
    defect = abs(forward[j] - reverse) / scattered if scattered > 0 else np.inf
    problems = [] if defect <= RECIPROCITY_TOL else [
        f"reciprocity defect {defect:.3e} > {RECIPROCITY_TOL} (scattered part {scattered:.3e})"]
    return problems, {"reciprocity_defect": float(defect), "scattered_part": float(scattered)}


CHECKS = {
    "limit_grid": _check_limit_grid,
    "cloud_free": _check_cloud_free,
    "cloud_medium": _check_cloud_medium,
}


def check(workload: str, case: Case, out: Path, partners: dict) -> tuple:
    """(problems, figures) for a run's output; a file that cannot be read is
    a problem."""
    try:
        return CHECKS[workload](case, out, partners)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


# ---------------------------------------------------------------------------
# smoke pass over the shipped scenes
# ---------------------------------------------------------------------------

def smoke_command(scene: dict) -> str:
    for key, command in (("limit", "limit"), ("design", "design"),
                         ("study", "study"), ("cloud", "solve")):
        if key in scene:
            return command
    return "validate"


def smoke_expected(command: str, scene: dict) -> list:
    """Output files FORMATS.md lists for a successful run of the command."""
    files = {
        "solve": ["field.csv", "farfield.csv", "centers.csv", "solution.json"],
        "limit": ["grid_field.csv", "field.csv"],
        "design": ["centers.csv", "design.json"],
        "study": ["study.csv", "study.json"],
        "validate": ["report.json"],
    }[command] + ["metadata.json"]
    if command == "limit" and "p" in scene.get("limit", {}):
        files.append("farfield.csv")
    if command == "design" and scene.get("design", {}).get("verify", {}).get("a_sequence"):
        files.append("verification.csv")
    return files
