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
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import convergence, designer, foldy_impedance, runtime
from .directions import DirectionGrid
from .errors import InfeasibleDesign, InvariantViolation, SingularEvaluationError, SolverFailure
from .limit_solver import (LimitProblem, limit_field_at, limiting_amplitude, potential_from_h_N,
                           solve_limit)
from .medium import BackgroundMedium, Grid, far_probe_points
from .particles import ParticleCloud, build_cloud_hard, build_cloud_impedance, validate_cloud

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PHYSICS = 3
EXIT_SOLVER = 4

# glibc serves blocks up to this size from the heap (_keep_freed_heap); a
# chunk of medium.CHUNK_ENTRIES complex entries stays below it
MMAP_THRESHOLD = 2 << 20


class SceneError(Exception):
    """Malformed or incomplete scene file."""


# ---------------------------------------------------------------------------
# scene schema (one table, one walker) and parsers of the checked values
# ---------------------------------------------------------------------------

REQUIRED = object()  # default of a key that the scene must give
ONE_OF = object()  # default of the keys of which a section gives exactly one


def _number(x, path, above=None, integer=False):
    """A finite JSON number (an integer if asked for), greater than `above`."""
    if (isinstance(x, bool) or not isinstance(x, int if integer else (int, float))
            or not abs(x) <= sys.float_info.max):
        kind = "an integer" if integer else "a finite number"
        raise SceneError(f"{path}: expected {kind}, got {x!r:.80}")
    if above is not None and not x > above:
        raise SceneError(f"{path}: must be > {above}, got {x!r}")
    return x if integer else float(x)


def _list(x, path, item, size=None) -> list:
    if not isinstance(x, list) or (size is not None and len(x) != size):
        raise SceneError(f"{path}: expected a list{f' of {size}' if size else ''}, got {x!r:.80}")
    return [_check(item, v, f"{path}[{i}]") for i, v in enumerate(x)]


def _list_or(x, path, item, other, size=None):
    """A list of items, or any other value checked by `other`."""
    return _list(x, path, item, size) if isinstance(x, list) else _check(other, x, path)


def _complex(x, path) -> complex:
    """A number, or {re, im} with each part 0 when not given."""
    if isinstance(x, dict):
        return complex(*_section(_COMPLEX, x, path).values())
    return complex(_number(x, path))


def _field(x, path):
    """A typed spec of _FIELD_TYPES; a bare constant becomes a "constant" spec."""
    if not (isinstance(x, dict) and "type" in x):
        return {"type": "constant", "value": _complex(x, path)}
    kind = _check(tuple(_FIELD_TYPES), x["type"], f"{path}.type")
    return _section({"type": ((kind,), REQUIRED), **_FIELD_TYPES[kind]}, x, path)


def _check(check, x, path):
    """x checked by a table entry: a section table, a tuple of choices or a
    function of (value, path)."""
    if isinstance(check, dict):
        return _section(check, x, path)
    if isinstance(check, tuple):
        if not any(x == c and type(x) is type(c) for c in check):
            raise SceneError(f"{path}: expected one of {check}, got {x!r:.80}")
        return x
    return check(x, path)


def _section(table, x, path) -> dict:
    """Checked copy of a scene object: unknown keys refused, every key of the
    table present, absent optional keys at their default (None: not given)."""
    if not isinstance(x, dict):
        raise SceneError(f"{path}: expected an object, got {x!r:.80}")
    for key in x:
        if key not in table:
            raise SceneError(f"{path}.{key}: unknown key")
    out = {}
    for key, (check, default) in table.items():
        value = x.get(key)  # null is the same as an absent key
        if value is None:
            if default is REQUIRED:
                raise SceneError(f"{path}.{key}: missing")
            value = None if default is ONE_OF else default
        out[key] = None if value is None else _check(check, value, f"{path}.{key}")
    one_of = [key for key, (_, default) in table.items() if default is ONE_OF]
    if one_of and sum(out[key] is not None for key in one_of) != 1:
        raise SceneError(f"{path}: give exactly one of {', '.join(one_of)}")
    return out


_count = partial(_number, above=0, integer=True)
_positive = partial(_number, above=0.0)
_vector = partial(_list, item=_number, size=3)
_numbers = partial(_list, item=_number)
_a_sequence = partial(_list, item=_positive)
_BETA = (partial(_list_or, item=_vector, other=_number, size=3), -1.5)  # s (meaning s I) or 3x3
_COMPLEX = {"re": (_number, 0.0), "im": (_number, 0.0)}
_PROBES = {"far_probes": (_positive, 5.0)}
_FIELD_TYPES = {
    "constant": {"value": (_complex, 0.0)},
    "subbox": {"lo": (_vector, REQUIRED), "hi": (_vector, REQUIRED),
               "inside": (_complex, 1.0), "outside": (_complex, 0.0)},
    "radial": {"center": (_vector, REQUIRED), "radius": (_positive, REQUIRED),
               "inside": (_complex, 1.0), "outside": (_complex, 0.0)},
    "bump": {"center": (_vector, [0.5, 0.5, 0.5]), "width": (_positive, 0.3),
             "amplitude": (_complex, 1.0)},
    "table": {"re": (_numbers, REQUIRED), "im": (_numbers, None)},
}
_SCENE = {
    "format_version": ((FORMAT_VERSION,), FORMAT_VERSION),
    "medium": ({"box": ({"lo": (_vector, REQUIRED), "hi": (_vector, REQUIRED)}, REQUIRED),
                "resolution": (partial(_list_or, item=_count, other=_count, size=3), 8),
                "k": (_number, REQUIRED), "n0": (_field, 1.0)}, REQUIRED),
    "alpha": (_vector, [0.0, 0.0, 1.0]),
    "directions": ({"n_theta": (partial(_number, above=1, integer=True), 32),
                    "n_phi": (partial(_number, above=1, integer=True), 64)}, {}),
    "points": (partial(_list_or, item=_vector, other=_PROBES), {}),
    "cloud": ({"kind": (("impedance", "hard"), REQUIRED), "a": (_positive, REQUIRED),
               "cell_size": (_positive, None), "h": (_field, 0.0), "N": (_field, 0.0),
               "nu": (_field, 0.0), "beta": _BETA, "zeta": (partial(_list, item=_complex), None),
               "centers": (partial(_list, item=_vector), None)}, None),
    "limit": ({"p": (_field, ONE_OF), "nu": (_field, ONE_OF), "beta": _BETA}, None),
    "design": ({"target_n": (_field, 1.0), "a": (_positive, REQUIRED),
                "cell_size": (_positive, None),
                "verify": ({"a_sequence": (_a_sequence, [])}, {})}, None),
    "study": ({"mode": (("impedance", "hard"), REQUIRED), "a_sequence": (_a_sequence, REQUIRED),
               "cell_size": (_positive, None), "h": (_field, 0.0), "N": (_field, 0.0),
               "nu": (_field, 0.0), "beta": _BETA}, None),
}
# per command, the scene table with the section that the command needs made REQUIRED
_SCENE_OF = {command: {**_SCENE, section: (_SCENE[section][0], REQUIRED)}
             for command, section in (("solve", "cloud"), ("limit", "limit"), ("design", "design"),
                                      ("study", "study"), ("validate", "medium"))}
# per command, the sections that it reads besides format_version and medium
_READS = {"solve": ("cloud", "alpha", "directions", "points"),
          "limit": ("limit", "alpha", "directions", "points"),
          "design": ("design", "alpha"),
          "study": ("study", "alpha"),
          "validate": ("cloud", "alpha")}
# per form of a section (see _forms), the keys that it does not read
_IGNORED = {
    "cloud with centers": ("h", "N", "nu", "cell_size"),
    "impedance cloud": ("nu", "beta"),
    "hard cloud": ("zeta", "h", "N"),
    "impedance density cloud": ("zeta",),
    "limit with p": ("beta",),
    "impedance study": ("nu", "beta"),
    "hard study": ("h", "N"),
}


def _forms(section: str, spec: dict) -> list:
    """The forms that a checked scene section takes."""
    if section == "cloud":
        kind = spec["kind"]
        layout = "cloud with centers" if spec["centers"] is not None else f"{kind} density cloud"
        return [f"{kind} cloud", layout]
    if section == "limit":
        return ["limit with p"] if spec["p"] is not None else []
    return [f"{spec['mode']} study"] if section == "study" else []


def check_scene(command: str, raw) -> dict:
    """The checked scene of a command: the schema walk, then a refusal of
    each key that the scene gives and the chosen form does not read, and
    of each section that the command does not read."""
    scene = _section(_SCENE_OF[command], raw, "scene")
    for section in ("cloud", "limit", "study"):
        if scene[section] is None:
            continue
        for form in _forms(section, scene[section]):
            for key in _IGNORED.get(form, ()):
                if raw[section].get(key) is not None:  # null is the same as an absent key
                    raise SceneError(f"scene.{section}.{key}: not read by this form ({form})")
    for section, value in raw.items():
        if value is not None and section not in ("format_version", "medium", *_READS[command]):
            raise SceneError(f"scene.{section}: not read by {command}")
    return scene


def parse_field_spec(spec, grid: Grid, path: str) -> np.ndarray:
    """Complex node values of a checked field spec (see _field)."""
    nodes = grid.nodes
    kind = spec["type"]
    if kind == "constant":
        return np.full(grid.size, spec["value"])
    if kind == "subbox":
        return np.where(np.all((nodes > spec["lo"]) & (nodes < spec["hi"]), axis=1),
                        spec["inside"], spec["outside"])
    if kind == "radial":
        return np.where(np.linalg.norm(nodes - spec["center"], axis=1) < spec["radius"],
                        spec["inside"], spec["outside"])
    if kind == "bump":
        t = (nodes - spec["center"]) / spec["width"]
        prof = np.where(np.abs(t) < 1, (1 - t ** 2) ** 2, 0.0)
        return spec["amplitude"] * prof[:, 0] * prof[:, 1] * prof[:, 2]
    re = np.asarray(spec["re"], dtype=float)
    im = np.zeros_like(re) if spec["im"] is None else np.asarray(spec["im"], dtype=float)
    if re.size != grid.size or im.size != grid.size:
        raise SceneError(f"{path}: a table needs one value per grid node ({grid.size}), "
                         f"got {re.size} re and {im.size} im")
    return re + 1j * im


def parse_medium(scene: dict) -> BackgroundMedium:
    mspec, res = scene["medium"], scene["medium"]["resolution"]
    try:
        grid = Grid(tuple(mspec["box"]["lo"]), tuple(mspec["box"]["hi"]),
                    tuple(res) if isinstance(res, list) else (res,) * 3)
    except ValueError as exc:  # a degenerate box, or unequal spacings per axis
        raise SceneError(f"scene.medium: {exc}") from exc
    return BackgroundMedium(mspec["k"], grid,
                            parse_field_spec(mspec["n0"], grid, "scene.medium.n0"))


def parse_beta(spec) -> np.ndarray:
    return np.asarray(spec, dtype=float) if isinstance(spec, list) else spec * np.eye(3)


def parse_cloud(scene: dict, medium: BackgroundMedium) -> ParticleCloud:
    cspec = scene["cloud"]
    kind, a, grid = cspec["kind"], cspec["a"], medium.grid
    if cspec["centers"] is not None:
        centers = np.array(cspec["centers"], dtype=float).reshape(-1, 3)
        if kind == "hard":
            return ParticleCloud(centers=centers, a=a, kind="hard", beta=parse_beta(cspec["beta"]))
        zeta = cspec["zeta"] or []
        zeta = zeta * len(centers) if len(zeta) == 1 else zeta
        if len(zeta) != len(centers):
            raise SceneError(f"scene.cloud.zeta: {len(zeta)} values for {len(centers)} centers "
                             "(an impedance cloud with centers needs one, or one per center)")
        return ParticleCloud(centers=centers, a=a, kind="impedance", zeta=np.array(zeta))
    if kind == "impedance":
        return build_cloud_impedance(
            medium, a, parse_field_spec(cspec["h"], grid, "scene.cloud.h"),
            parse_field_spec(cspec["N"], grid, "scene.cloud.N").real, cell_size=cspec["cell_size"])
    return build_cloud_hard(medium, a, parse_field_spec(cspec["nu"], grid, "scene.cloud.nu").real,
                            parse_beta(cspec["beta"]), cell_size=cspec["cell_size"])


def parse_points(scene: dict, medium: BackgroundMedium) -> np.ndarray:
    spec = scene["points"]
    if isinstance(spec, dict):
        return far_probe_points(medium.grid, spec["far_probes"])
    return np.array(spec, dtype=float).reshape(-1, 3)


def parse_alpha(scene: dict) -> np.ndarray:
    alpha = np.array(scene["alpha"], dtype=float)
    top = np.abs(alpha).max()
    if top == 0:
        raise SceneError("scene.alpha: must be nonzero")
    # scaled by the power of two just above the largest component, so that the
    # norm neither overflows nor underflows and alpha / norm keeps its bits
    alpha = np.ldexp(alpha, -np.frexp(top)[1])
    return alpha / np.linalg.norm(alpha)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

# write_csv formats and writes a table this many rows at a time, so that a
# large table never holds the texts of all its floats at once
CSV_BLOCK_ROWS = 4096


def _float_texts(values) -> tuple:
    """repr(float(x)) of each entry of a float array, in C order.

    Each distinct 64-bit pattern is formatted once (0.0 and -0.0, and NaN
    payloads, stay apart) and its text indexed back into place: the tables
    written repeat grid coordinates, directions and constants many times.
    """
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.uint64)
    distinct, where = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return tuple(texts[where].tolist())


def write_csv(path: Path, header: list, columns: list):
    """A header line, then one row per entry of the columns, each value
    written as repr(float(x))."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[s:s + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % _float_texts(block))


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

    Finite complex arrays are rendered from a template over the texts of
    their floats (_float_texts), several times faster than json's encoder.
    """
    text = _json_text({"format_version": FORMAT_VERSION, **data}, 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _complex_objects(x):
    """Nested lists of complex numbers as nested lists of {re, im}."""
    return [_complex_objects(v) for v in x] if isinstance(x, list) else {"re": x.real, "im": x.imag}


def _complex_template(shape, depth: int) -> str:
    """Layout of nested {re, im} lists of the given shape with %s for the
    text of each float, as json.dump(indent=2) writes it at nesting depth."""
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if not shape:
        return "{" + inner + '"im": %s,' + inner + '"re": %s' + outer + "}"
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
            floats = np.stack([obj.imag, obj.real], axis=-1)  # keys im, re
            return _complex_template(obj.shape, depth) % _float_texts(floats)
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
    grid = DirectionGrid(**scene["directions"])
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
        "effective_values": np.asarray(result.effective_values, dtype=complex),
        "charges": np.asarray(result.charges, dtype=complex),
    }
    if cloud.kind == "impedance":
        solution["coupling"] = np.asarray(result.coupling, dtype=complex)
    else:
        solution["effective_gradients"] = np.asarray(result.effective_gradients, dtype=complex)
        solution["dipole_moments"] = np.asarray(result.dipole_moments, dtype=complex)
    write_json(out / "solution.json", solution)
    return {
        "command": "solve",
        "kind": cloud.kind,
        "M": len(cloud),
        "ka": medium.k * cloud.a,
        "residual": result.residual,
        "iterations": result.iterations,
        "solver": result.solver,
        "wall_time_s": wall,
    }


def cmd_limit(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    lspec = scene["limit"]
    alpha = parse_alpha(scene)
    points = parse_points(scene, medium)
    t0 = time.perf_counter()
    if lspec["p"] is not None:
        problem = LimitProblem(medium=medium,
                               p=parse_field_spec(lspec["p"], medium.grid, "scene.limit.p"))
    else:
        problem = LimitProblem(
            medium=medium,
            nu=parse_field_spec(lspec["nu"], medium.grid, "scene.limit.nu").real,
            beta_field=parse_beta(lspec["beta"]))
    fld = solve_limit(problem, alpha)
    at_points = limit_field_at(problem, fld, points)
    write_farfield_csv(out / "farfield.csv",
                       limiting_amplitude(problem, fld, DirectionGrid(**scene["directions"])))
    wall = time.perf_counter() - t0
    write_field_csv(out / "grid_field.csv", fld.points, fld.values)
    write_field_csv(out / "field.csv", at_points.points, at_points.values)
    return {
        "command": "limit",
        "mode": "hard" if problem.is_hard else "impedance",
        "grid_nodes": medium.grid.size,
        "residual": fld.residual,
        "iterations": fld.iterations,
        "wall_time_s": wall,
    }


def cmd_design(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    dspec = scene["design"]
    cell = dspec["cell_size"]
    target = parse_field_spec(dspec["target_n"], medium.grid, "scene.design.target_n")
    t0 = time.perf_counter()
    h, dens = designer.choose_h_N(designer.target_to_potential(medium, target))
    cloud = build_cloud_impedance(medium, dspec["a"], h, dens, cell_size=cell)
    report = validate_cloud(cloud, medium)

    meta = {"command": "design"}
    if dspec["verify"]["a_sequence"]:
        study, decreasing, passed = convergence.verify_design(
            medium, h, dens, dspec["verify"]["a_sequence"], parse_alpha(scene), cell_size=cell)
        keys = ("a", "M", "d", "e_max", "e_rms")
        rows = [(r.a, r.m, r.d, r.e_max, r.e_rms) for r in study.records]
        write_csv(out / "verification.csv", list(keys), list(zip(*rows)))
        meta["verification"] = {
            "passed": passed,
            "decreasing": decreasing,
            "final_error": study.errors()[-1],
            "table": [dict(zip(keys, row)) for row in rows],
        }
    wall = time.perf_counter() - t0
    write_centers_csv(out / "centers.csv", cloud)

    write_json(out / "design.json", {
        "p": potential_from_h_N(h, dens),
        "h": h,
        "N": dens.tolist(),
        "cloud": cloud.to_json_dict(),
        "feasibility": {
            "ka": report.ka,
            "d_over_a": report.spacing_over_a if np.isfinite(report.spacing_over_a) else None,
            "M": report.m,
            "volume_fraction": report.volume_fraction,
        },
    })
    return {**meta, "M": report.m, "wall_time_s": wall}


def cmd_study(scene: dict, out: Path, args) -> dict:
    medium = parse_medium(scene)
    sspec = scene["study"]
    mode, a_sequence, cell = sspec["mode"], sspec["a_sequence"], sspec["cell_size"]
    alpha = parse_alpha(scene)
    t0 = time.perf_counter()
    if mode == "impedance":
        study = convergence.run_impedance_study(
            medium,
            parse_field_spec(sspec["h"], medium.grid, "scene.study.h"),
            parse_field_spec(sspec["N"], medium.grid, "scene.study.N").real,
            a_sequence, alpha, cell_size=cell)
    else:
        study = convergence.run_hard_study(
            medium,
            parse_field_spec(sspec["nu"], medium.grid, "scene.study.nu").real,
            parse_beta(sspec["beta"]), a_sequence, alpha, cell_size=cell)
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
    parse_alpha(scene)  # a zero alpha exits 2 here, as in the other commands
    meta = {
        "command": "validate",
        "grid_nodes": medium.grid.size,
        "k": medium.k,
        "passive": True,  # BackgroundMedium refuses an active medium
    }
    report = None
    if scene["cloud"] is not None:
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
                        help="threads for the box FFTs (default: all cores)")
    return parser


# built at import: ArgumentParser's gettext lookups import locale
PARSER = build_parser()


@cache
def _keep_freed_heap():
    """Have glibc's malloc serve blocks of up to MMAP_THRESHOLD (2 MiB) from
    the heap and keep up to 4 MiB of freed heap (twice that, glibc's own
    rule), once per process: a temporary then reuses freed memory instead
    of faulting in fresh pages.  A higher threshold lets freed grid-sized
    blocks pin heap that later, larger ones cannot reuse (README,
    Dependencies).  Nothing where the C library has no mallopt."""
    import ctypes  # loaded by medium already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    mallopt(m_mmap_threshold, MMAP_THRESHOLD)
    mallopt(m_trim_threshold, 2 * MMAP_THRESHOLD)


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MiB: VmHWM, or ru_maxrss
    where /proc is missing (on Linux it also holds the peak of the process
    that forked this one)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    import resource  # deferred: a run, not the import, pays for it

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _keep_freed_heap()
    logging.basicConfig(level=os.environ.get("SMALLBODY_LOG", "WARNING"))
    args = PARSER.parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"error: --out {out}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    runtime.set_thread_count(args.threads)

    def fail(exc, code):
        write_json(out / "error.json",
                   {"error_type": type(exc).__name__, "message": str(exc), "exit_code": code})
        print(f"error: {exc}", file=sys.stderr)
        return code

    try:
        with open(args.scene, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        return fail(exc, EXIT_SCHEMA)
    try:
        meta = COMMANDS[args.command](check_scene(args.command, raw), out, args)
    except SceneError as exc:
        return fail(exc, EXIT_SCHEMA)
    except (InvariantViolation, InfeasibleDesign, SingularEvaluationError) as exc:
        return fail(exc, EXIT_PHYSICS)
    except (SolverFailure, MemoryError) as exc:
        return fail(exc, EXIT_SOLVER)
    meta["peak_rss_mb"] = _peak_rss_mb()
    meta["minor_page_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    write_json(out / "metadata.json", meta)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
