"""The scene schema: the benchmark's scenes pass it, FORMATS.md documents every
key, and mutated scenes end in a defined exit code, never a traceback."""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
import types
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from smallbody import cli
from reference import scene_command

ROOT = Path(__file__).resolve().parent.parent
SCENES = {path.name: json.loads(path.read_text())
          for path in sorted((ROOT / "scenes").glob("*.json"))}
COMMAND = {name: scene_command(scene) for name, scene in SCENES.items()}


def load_workloads():
    """perfbench/workloads.py as a module, read without writing bytecode next to it."""
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("_bench_workloads")
    sys.modules[module.__name__] = module  # dataclasses looks the module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def bench_scenes():
    workloads = load_workloads()
    for name in ("limit_grid", "cloud_free", "cloud_medium"):
        for seed in range(1, 6):
            case = workloads.make_case(name, seed)
            yield f"{name}-{seed}", case.command, case.scene
            for partner, (command, scene) in case.partners.items():
                yield f"{name}-{seed}-{partner}", command, scene


def test_benchmark_and_shipped_scenes_pass_the_schema():
    runs = [*bench_scenes(), *((name, COMMAND[name], s) for name, s in SCENES.items())]
    assert len(runs) == 5 * 5 + len(SCENES)  # per seed: three cases and two partners
    for name, command, scene in runs:
        cli.check_scene(command, json.loads(json.dumps(scene)))


def schema_keys() -> set:
    keys, tables = set(cli._FIELD_TYPES), [cli._SCENE, cli._COMPLEX, cli._PROBES,
                                           *cli._FIELD_TYPES.values()]
    while tables:
        for key, (check, _) in tables.pop().items():
            keys.add(key)
            if isinstance(check, dict):
                tables.append(check)
    return keys


def test_formats_md_documents_every_schema_key():
    text = (ROOT / "FORMATS.md").read_text(encoding="utf-8")
    assert {"far_probes", "re", "a_sequence", "bump", "beta"} <= schema_keys()
    assert sorted(key for key in schema_keys() if f"`{key}`" not in text) == []


# -- fuzz: mutated shipped scenes -------------------------------------------

POOL = [None, True, "x", [], {}, [1, 2], -1, 0, 0.5, math.nan, math.inf]


def value_paths(node, prefix=()):
    """Paths (dict keys and list indices) of every value below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


KEYS = sorted({path[-1] for scene in SCENES.values() for path in value_paths(scene)
               if isinstance(path[-1], str)})


@st.composite
def mutated_scenes(draw):
    """A shipped scene with one key dropped or renamed, or one value swapped."""
    name = draw(st.sampled_from(sorted(SCENES)))
    scene = copy.deepcopy(SCENES[name])
    *head, last = draw(st.sampled_from(list(value_paths(scene))))
    parent = scene
    for key in head:
        parent = parent[key]
    action = draw(st.sampled_from(["drop", "rename", "swap"]))
    if action == "drop":
        del parent[last]
    elif action == "rename" and isinstance(parent, dict):
        parent[draw(st.sampled_from(KEYS + [last + "_"]))] = parent.pop(last)
    else:
        parent[last] = draw(st.sampled_from(POOL))
    return COMMAND[name], scene


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenes())
def test_mutated_scene_exits_with_a_defined_code(command_and_scene):
    command, scene = command_and_scene
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scene.json", Path(tmp) / "out"
        path.write_text(json.dumps(scene))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--scene", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code:
            assert json.loads((out / "error.json").read_text())["exit_code"] == code
    assert "Traceback" not in stderr.getvalue()
