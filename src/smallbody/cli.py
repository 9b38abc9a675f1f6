"""Command-line harness: scene JSON in, deterministic CSV/JSON artifacts out.

Subcommands: solve | limit | design | study | validate.  One scene file, one
subcommand, one output directory.  CSV columns are documented in FORMATS.md;
complex values are serialized as {re, im} pairs in JSON and paired columns in
CSV.  Exit codes: 0 success, 2 scene/schema error, 3 physics invariant
violation, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import convergence, designer, foldy_impedance, runtime
from .directions import DirectionGrid
from .errors import InfeasibleDesign, InvariantViolation, SingularEvaluationError, SolverFailure
from .limit_solver import (
    LimitProblem,
    hard_limit_field_at,
    impedance_limit_field_at,
    limiting_amplitude,
    solve_hard_limit,
    solve_impedance_limit,
)
from .medium import BackgroundMedium, Grid, far_probe_points
from .particles import (
    ParticleCloud,
    build_cloud_hard,
    build_cloud_impedance,
    min_spacing,
    validate_cloud,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PHYSICS = 3
EXIT_SOLVER = 4


class SceneError(Exception):
    """Malformed or incomplete scene file."""


# ---------------------------------------------------------------------------
# scene parsing
# ---------------------------------------------------------------------------

def _fnum(x) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise SceneError(f"expected a number, got {x!r}")
    return float(x)


def _int(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise SceneError(f"expected an integer, got {x!r}")
    return x


def _complex_of(x) -> complex:
    if isinstance(x, dict):
        return complex(_fnum(x.get("re", 0.0)), _fnum(x.get("im", 0.0)))
    return complex(_fnum(x))


def _vec3(x) -> np.ndarray:
    if not isinstance(x, (list, tuple)) or len(x) != 3:
        raise SceneError(f"expected a 3-vector, got {x!r}")
    return np.array([_fnum(v) for v in x])


def _vec3_list(x, what: str) -> np.ndarray:
    if not isinstance(x, list):
        raise SceneError(f"{what} must be a list of 3-vectors, got {x!r}")
    return np.array([_vec3(v) for v in x]).reshape(-1, 3)


def parse_field_spec(spec, grid: Grid, dtype=complex) -> np.ndarray:
    """Scalar field over grid nodes from a scene value.

    Accepts a bare number, {re, im}, or a typed object:
      constant | subbox | radial | bump | table.
    """
    nodes = grid.nodes
    try:
        if isinstance(spec, (int, float)) or (isinstance(spec, dict) and "type" not in spec):
            return np.full(grid.size, _complex_of(spec)).astype(dtype)
        if not isinstance(spec, dict):
            raise SceneError(f"bad field spec {spec!r}")
        kind = spec.get("type")
        if kind == "constant":
            return np.full(grid.size, _complex_of(spec.get("value", 0.0))).astype(dtype)
        if kind in ("subbox", "radial"):
            if kind == "subbox":
                mask = np.all((nodes > _vec3(spec["lo"])) & (nodes < _vec3(spec["hi"])), axis=1)
            else:
                dist = np.linalg.norm(nodes - _vec3(spec["center"]), axis=1)
                mask = dist < _fnum(spec["radius"])
            inside = _complex_of(spec.get("inside", 1.0))
            outside = _complex_of(spec.get("outside", 0.0))
            return np.where(mask, inside, outside).astype(dtype)
        if kind == "bump":
            center = _vec3(spec.get("center", [0.5, 0.5, 0.5]))
            width = _fnum(spec.get("width", 0.3))
            amp = _complex_of(spec.get("amplitude", 1.0))
            t = (nodes - center) / width
            prof = np.where(np.abs(t) < 1, (1 - t ** 2) ** 2, 0.0)
            return (amp * prof[:, 0] * prof[:, 1] * prof[:, 2]).astype(dtype)
        if kind == "table":
            re = np.asarray(spec["re"], dtype=float).reshape(-1)
            im = np.asarray(spec.get("im", np.zeros_like(re)), dtype=float).reshape(-1)
            if re.size != grid.size or im.size != grid.size:
                raise SceneError("table field size does not match the grid")
            return (re + 1j * im).astype(dtype)
        raise SceneError(f"unknown field spec type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"bad field spec: {type(exc).__name__}: {exc}") from exc


def parse_medium(scene: dict) -> BackgroundMedium:
    try:
        mspec = scene["medium"]
        box = mspec["box"]
        lo, hi = _vec3(box["lo"]), _vec3(box["hi"])
        res = mspec.get("resolution", 8)
        shape = tuple(_int(v) for v in res) if isinstance(res, list) else (_int(res),) * 3
        k = _fnum(mspec["k"])
        grid = Grid(tuple(lo), tuple(hi), shape)
        n0 = parse_field_spec(mspec.get("n0", 1.0), grid)
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"bad medium spec: {exc}") from exc
    return BackgroundMedium(k, grid, n0)


def parse_beta(spec) -> np.ndarray:
    if isinstance(spec, (int, float)):
        return _fnum(spec) * np.eye(3)
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SceneError(f"bad beta {spec!r}") from exc
    if arr.shape != (3, 3):
        raise SceneError("beta must be a scalar (diagonal) or a 3x3 matrix")
    return arr


def parse_cloud(scene: dict, medium: BackgroundMedium) -> ParticleCloud:
    cspec = scene.get("cloud")
    if not isinstance(cspec, dict):
        raise SceneError(f"'cloud' must be an object, got {cspec!r}")
    try:
        kind = cspec["kind"]
        a = _fnum(cspec["a"])
    except KeyError as exc:
        raise SceneError(f"cloud spec missing {exc}") from exc
    cell = cspec.get("cell_size")
    cell = _fnum(cell) if cell is not None else None
    if "centers" in cspec:
        centers = _vec3_list(cspec["centers"], "cloud centers")
        if kind == "impedance":
            if not isinstance(cspec.get("zeta"), list):
                raise SceneError("an impedance cloud with centers needs a 'zeta' list")
            zeta = np.array([_complex_of(z) for z in cspec["zeta"]])
            if len(zeta) == 1 and len(centers) > 1:
                zeta = np.repeat(zeta, len(centers))
            if len(zeta) != len(centers):
                raise SceneError(f"'zeta' has {len(zeta)} entries for {len(centers)} centers "
                                 "(give one, or one per center)")
            return ParticleCloud(centers=centers, a=a, d=min_spacing(centers),
                                 kind="impedance", zeta=zeta)
        if kind == "hard":
            return ParticleCloud(centers=centers, a=a, d=min_spacing(centers),
                                 kind="hard", beta=parse_beta(cspec.get("beta", -1.5)))
        raise SceneError(f"unknown cloud kind {kind!r}")
    if kind == "impedance":
        h = parse_field_spec(cspec.get("h", 0.0), medium.grid)
        dens = parse_field_spec(cspec.get("N", 0.0), medium.grid, dtype=complex).real
        return build_cloud_impedance(medium, a, h, dens, cell_size=cell)
    if kind == "hard":
        nu = parse_field_spec(cspec.get("nu", 0.0), medium.grid, dtype=complex).real
        return build_cloud_hard(medium, a, nu, parse_beta(cspec.get("beta", -1.5)),
                                cell_size=cell)
    raise SceneError(f"unknown cloud kind {kind!r}")


def parse_points(scene: dict, medium: BackgroundMedium) -> np.ndarray:
    spec = scene.get("points", {"far_probes": 5.0})
    if isinstance(spec, dict) and "far_probes" in spec:
        return far_probe_points(medium.grid, _fnum(spec["far_probes"]))
    return _vec3_list(spec, "points (or {far_probes: factor})")


def parse_directions(scene: dict) -> DirectionGrid:
    d = scene.get("directions", {})
    try:
        return DirectionGrid(_int(d.get("n_theta", 32)), _int(d.get("n_phi", 64)))
    except (AttributeError, TypeError, ValueError) as exc:
        raise SceneError(f"bad directions: {exc}") from exc


def parse_alpha(scene: dict) -> np.ndarray:
    alpha = _vec3(scene.get("alpha", [0.0, 0.0, 1.0]))
    nrm = np.linalg.norm(alpha)
    if nrm == 0:
        raise SceneError("alpha must be nonzero")
    return alpha / nrm


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def write_csv(path: Path, header: list, columns: list):
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join(["%r"] * len(cols)) + "\n"  # repr of each float
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*cols))


def write_field_csv(path: Path, points, values):
    write_csv(path, ["x", "y", "z", "re", "im"],
              [points[:, 0], points[:, 1], points[:, 2], values.real, values.imag])


def write_farfield_csv(path: Path, farfield):
    t, p, re, im = farfield.rows()
    write_csv(path, ["theta", "phi", "re_A", "im_A"], [t, p, re, im])


def write_centers_csv(path: Path, cloud: ParticleCloud):
    c = cloud.centers
    write_csv(path, ["x", "y", "z"], [c[:, 0], c[:, 1], c[:, 2]])


def write_json(path: Path, data: dict):
    """The bytes of json.dump(..., indent=2, sort_keys=True) plus a newline,
    with complex arrays written as nested lists of {re, im} objects.

    Finite complex arrays are rendered from a template over their floats,
    several times faster than json's encoder.
    """
    text = _json_text({"format_version": FORMAT_VERSION, **data}, 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _complex_list(values) -> np.ndarray:
    """Complex values of any shape, for write_json."""
    return np.asarray(values, dtype=complex)


def _complex_objects(x):
    """Nested lists of complex numbers as nested lists of {re, im}."""
    return [_complex_objects(v) for v in x] if isinstance(x, list) else {"re": x.real, "im": x.imag}


def _complex_template(shape, depth: int) -> str:
    """Layout of nested {re, im} lists of the given shape with %r for each
    float, as json.dump(indent=2) writes it at nesting depth."""
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if not shape:
        return "{" + inner + '"im": %r,' + inner + '"re": %r' + outer + "}"
    if shape[0] == 0:
        return "[]"
    item = _complex_template(shape[1:], depth + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + outer + "]"


def _json_text(obj, depth: int) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for a value at nesting depth;
    complex arrays may sit in (nested) dicts."""
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        # repr writes nan and inf where json writes NaN and Infinity
        if np.all(np.isfinite(obj)):
            floats = np.stack([obj.imag, obj.real], axis=-1).ravel().tolist()  # keys im, re
            return _complex_template(obj.shape, depth) % tuple(floats)
        obj = _complex_objects(obj.tolist())
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        items = (json.dumps(key) + ": " + _json_text(value, depth + 1)
                 for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", outer)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    cloud = parse_cloud(scene, medium)
    alpha = parse_alpha(scene)
    points = parse_points(scene, medium)
    grid = parse_directions(scene)
    t0 = time.perf_counter()
    result = foldy_impedance.solve_cloud(medium, cloud, alpha)
    fld = foldy_impedance.evaluate_field(result, medium, cloud, points)
    ff = foldy_impedance.far_field(result, medium, cloud, grid)
    wall = time.perf_counter() - t0
    write_field_csv(out / "field.csv", fld.points, fld.values)
    write_farfield_csv(out / "farfield.csv", ff)
    write_centers_csv(out / "centers.csv", cloud)
    solution = {
        "kind": cloud.kind,
        "effective_values": _complex_list(result.effective_values),
        "charges": _complex_list(result.charges),
    }
    if cloud.kind == "impedance":
        solution["coupling"] = _complex_list(result.coupling)
    else:
        solution["effective_gradients"] = _complex_list(result.effective_gradients)
        solution["dipole_moments"] = _complex_list(result.dipole_moments)
    write_json(out / "solution.json", solution)
    return {
        "command": "solve",
        "kind": cloud.kind,
        "M": len(cloud),
        "ka": medium.k * cloud.a,
        "residual": result.residual,
        "iterations": result.iterations,
        "rcond": result.rcond,
        "solver": result.solver,
        "wall_time_s": wall,
    }


def cmd_limit(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    lspec = scene.get("limit")
    if not isinstance(lspec, dict):
        raise SceneError("limit scene requires a 'limit' object")
    alpha = parse_alpha(scene)
    points = parse_points(scene, medium)
    t0 = time.perf_counter()
    if "p" in lspec:
        problem = LimitProblem(medium=medium, p=parse_field_spec(lspec["p"], medium.grid))
        fld = solve_impedance_limit(problem, alpha)
        at_points = impedance_limit_field_at(problem, fld, points)
        ff = limiting_amplitude(problem, fld, parse_directions(scene))
        write_farfield_csv(out / "farfield.csv", ff)
        mode = "impedance"
    elif "nu" in lspec:
        problem = LimitProblem(
            medium=medium,
            nu=parse_field_spec(lspec["nu"], medium.grid, dtype=complex).real,
            beta_field=parse_beta(lspec.get("beta", -1.5)))
        fld = solve_hard_limit(problem, alpha, max_iter=_int(lspec.get("max_iter", 80)))
        at_points = hard_limit_field_at(problem, fld, points)
        mode = "hard"
    else:
        raise SceneError("limit object needs 'p' (impedance) or 'nu' (hard)")
    wall = time.perf_counter() - t0
    write_field_csv(out / "grid_field.csv", fld.points, fld.values)
    write_field_csv(out / "field.csv", at_points.points, at_points.values)
    return {
        "command": "limit",
        "mode": mode,
        "grid_nodes": medium.grid.size,
        "residual": fld.residual,
        "iterations": fld.iterations,
        "wall_time_s": wall,
    }


def cmd_design(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    dspec = scene.get("design")
    if not isinstance(dspec, dict):
        raise SceneError("design scene requires a 'design' object")
    try:
        a = _fnum(dspec["a"])
    except KeyError as exc:
        raise SceneError("design needs a particle radius 'a'") from exc
    target = parse_field_spec(dspec.get("target_n", 1.0), medium.grid)
    cell = dspec.get("cell_size")
    cell = _fnum(cell) if cell is not None else None
    spec = designer.DesignSpec(medium=medium, target_n=target, a=a)
    t0 = time.perf_counter()
    p = designer.target_to_potential(spec)
    h, dens = designer.choose_h_N(p)
    result = designer.realize(spec, h, dens, cell_size=cell)

    verification = None
    vspec = dspec.get("verify")
    if isinstance(vspec, dict) and vspec.get("a_sequence"):
        alpha = parse_alpha(scene)
        rep = designer.verify_design(result, spec, alpha,
                                     [_fnum(x) for x in vspec["a_sequence"]],
                                     cell_size=cell)
        write_csv(out / "verification.csv",
                  ["a", "M", "d", "e_max", "e_rms"],
                  [np.array(rep.a_values), np.array(rep.m_values, dtype=float),
                   np.array(rep.d_values), np.array(rep.errors_max),
                   np.array(rep.errors_rms)])
        verification = {
            "passed": bool(rep.passed),
            "decreasing": bool(rep.decreasing),
            "final_error": rep.final_error,
            "table": [
                {"a": a, "M": m, "d": d, "e_max": em, "e_rms": er}
                for a, m, d, em, er in rep.rows()
            ],
        }
    wall = time.perf_counter() - t0
    write_centers_csv(out / "centers.csv", result.cloud)

    write_json(out / "design.json", {
        "p": _complex_list(result.p),
        "h": _complex_list(result.h),
        "N": [float(v) for v in np.broadcast_to(result.N, (medium.grid.size,))],
        "cloud": result.cloud.to_json_dict(),
        "feasibility": {
            "ka": result.feasibility.ka,
            "d_over_a": result.feasibility.d_over_a if np.isfinite(result.feasibility.d_over_a) else None,
            "M": result.feasibility.m,
            "volume_fraction": result.feasibility.volume_fraction,
        },
    })
    meta = {
        "command": "design",
        "M": result.feasibility.m,
        "wall_time_s": wall,
    }
    if verification is not None:
        meta["verification"] = verification
    return meta


def cmd_study(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    sspec = scene.get("study")
    if not isinstance(sspec, dict):
        raise SceneError("study scene requires a 'study' object")
    mode = sspec.get("mode")
    try:
        a_sequence = [_fnum(x) for x in sspec["a_sequence"]]
    except KeyError as exc:
        raise SceneError("study needs an 'a_sequence'") from exc
    alpha = parse_alpha(scene)
    cell = sspec.get("cell_size")
    cell = _fnum(cell) if cell is not None else None
    t0 = time.perf_counter()
    if mode == "impedance":
        study = convergence.run_impedance_study(
            medium,
            parse_field_spec(sspec.get("h", 0.0), medium.grid),
            parse_field_spec(sspec.get("N", 0.0), medium.grid, dtype=complex).real,
            a_sequence, alpha, cell_size=cell)
    elif mode == "hard":
        study = convergence.run_hard_study(
            medium,
            parse_field_spec(sspec.get("nu", 0.0), medium.grid, dtype=complex).real,
            parse_beta(sspec.get("beta", -1.5)),
            a_sequence, alpha, cell_size=cell)
    else:
        raise SceneError("study mode must be 'impedance' or 'hard'")
    wall = time.perf_counter() - t0
    cols = list(zip(*study.csv_rows())) or [[]] * 8
    write_csv(out / "study.csv",
              ["a", "M", "d", "e_max", "e_rms", "max_Q", "count_weighted", "count_integral"],
              [np.asarray(c, dtype=float) for c in cols])
    write_json(out / "study.json", study.to_json_dict())
    return {
        "command": "study",
        "mode": mode,
        "scales": len(study.records),
        "complete": study.complete,
        "wall_time_s": wall,
    }


def cmd_validate(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    meta = {
        "command": "validate",
        "grid_nodes": medium.grid.size,
        "k": medium.k,
        "passive": bool(np.all(medium.q0.imag <= 1e-14)),
    }
    report = None
    if "cloud" in scene:
        report = validate_cloud(parse_cloud(scene, medium), medium)
        meta["cloud"] = {
            "M": report.m,
            "ka": report.ka,
            "min_spacing": report.min_spacing if np.isfinite(report.min_spacing) else None,
            "spacing_over_a": report.spacing_over_a if np.isfinite(report.spacing_over_a) else None,
            "max_zeta_times_a": report.max_zeta_times_a,
            "volume_fraction": report.volume_fraction,
            "flags": report.flags,
        }
    write_json(out / "report.json", meta)
    if report is not None and not report.ok:
        raise InvariantViolation("; ".join(report.flags))
    return meta


COMMANDS = {
    "solve": cmd_solve,
    "limit": cmd_limit,
    "design": cmd_design,
    "study": cmd_study,
    "validate": cmd_validate,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallbody",
        description="Many-body small-scatterer solver: discrete clouds, "
                    "continuum limits, and refraction-coefficient design.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scene", required=True, help="scene JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for the grid FFTs (default: all cores)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SMALLBODY_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runtime.set_thread_count(args.threads)

    def fail(exc, code):
        payload = {
            "error_type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
        write_json(out / "error.json", payload)
        print(f"error: {exc}", file=sys.stderr)
        return code

    try:
        with open(args.scene, "r", encoding="utf-8") as fh:
            scene = json.load(fh)
        if not isinstance(scene, dict):
            raise SceneError("scene must be a JSON object")
        if scene.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
            raise SceneError(f"unsupported format_version {scene['format_version']!r}")
        meta = COMMANDS[args.command](scene, out, args)
    except (json.JSONDecodeError, SceneError, FileNotFoundError) as exc:
        return fail(exc, EXIT_SCHEMA)
    except (InvariantViolation, InfeasibleDesign, SingularEvaluationError) as exc:
        return fail(exc, EXIT_PHYSICS)
    except SolverFailure as exc:
        return fail(exc, EXIT_SOLVER)
    write_json(out / "metadata.json", meta)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
