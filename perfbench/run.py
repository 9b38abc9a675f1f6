"""smallbody benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/smallbody`` and ``scenes/``).
One parent process starts one fresh child process at a time (a closed loop
with a single client).  Each child imports ``smallbody.cli`` from ``src/`` and
calls ``main()`` on a scene generated from the seed, with ``--threads 2`` and
two BLAS threads.

``--trace 0`` repeats the workload for S seconds and reports the end-to-end
metrics (medians over the run).  ``--trace 1`` makes one untraced run, one
run with every layer wrapped in spans (perfbench/spans.py), and a
single-thread baseline, and reports the per-layer metrics.  Both modes run
the shipped scenes as an untimed smoke pass and check every output outside
the timed region (perfbench/workloads.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else -- the
samples, machine facts, thread settings, check values and per-call figures --
goes to the lines before it and to ``.perfbench_work/report-*.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import TRACED_MODULES

HERE = Path(__file__).resolve().parent
CLI_THREADS = 2
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"
LIMITS = [
    "only the benchmark's own processes are measured",
    "no system-wide profiler or tracer",
    "no page-cache dropping",
    "no CPU pinning",
    "timings share the machine with whatever else runs on it",
]

SOLVER_MODULES = ("medium", "limit_solver", "foldy_impedance", "foldy_neumann")
# functions whose self time is a large share of wall time on some workload;
# every other function only counts towards its module's self_s
KEY_FUNCTIONS = (
    "limit_solver.solve_impedance_limit",
    "medium.weighted_u0_sum_grid",
    "medium.weighted_u0_sum",
    "medium.green_pairs",
    "medium.green_grad_y_pairs",
    "medium.green_grad_x_pairs",
    "medium.green_hess_xy_pairs",
)
METADATA_FIELDS = ("particles.M", "foldy_impedance.residual", "foldy_impedance.iterations",
                   "foldy_neumann.residual", "foldy_neumann.iterations")


def per_layer_metrics() -> dict:
    """Name -> unit of every metric a traced run reports."""
    units = {}
    for module in TRACED_MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.calls"] = "count"
        units[f"{module}.rss_rise_mb"] = "MB"
    for module in SOLVER_MODULES:
        units[f"{module}.linalg_s"] = "s"
        units[f"{module}.lu_factor_s"] = "s"
        units[f"{module}.lu_order"] = "rows"
        units[f"{module}.lu_bytes_computed"] = "B"
        units[f"{module}.rhs_cols"] = "count"
        units[f"{module}.gmres_calls"] = "count"
    for function in KEY_FUNCTIONS:
        units[f"{function}.self_s"] = "s"
        units[f"{function}.calls"] = "count"
    units.update({
        "medium.grid_rhs_cols": "count",
        "medium.phase_evals_computed": "count",
        "particles.M": "count",
        "cli.write_s": "s",
        "cli.bytes_written": "B",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "threads.wall_1_over_2": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts one child at a time and collects what it measured."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.count = 0

    def spawn(self, invocations: list, trace: bool = False,
              blas_threads: int = BLAS_THREADS) -> dict:
        self.count += 1
        tag = f"child-{self.count:03d}"
        request = self.work / f"{tag}.request.json"
        result = self.work / f"{tag}.result.json"
        log = self.work / f"{tag}.log"
        request.write_text(json.dumps({"root": str(self.root), "invocations": invocations,
                                       "trace": trace, "result": str(result)}))
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        env["SMALLBODY_LOG"] = "WARNING"
        for var in BLAS_ENV:
            env[var] = str(blas_threads)
        with open(log, "w", encoding="utf-8") as fh:
            t_spawn = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(request)],
                                  cwd=self.root, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child exited {proc.returncode}:\n"
                               + log.read_text(encoding="utf-8")[-2000:])
        data = json.loads(result.read_text(encoding="utf-8"))
        data["setup_s"] = data["t_import"] - t_spawn
        return data


def cli_argv(command: str, scene: Path, out: Path, threads: int = CLI_THREADS) -> list:
    return [command, "--scene", str(scene), "--out", str(out), "--threads", str(threads)]


def outputs(out: Path) -> dict:
    """Output files by name, without metadata.json (it holds wall times)."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file() and p.name != "metadata.json"}


def write_scene(work: Path, name: str, scene: dict) -> Path:
    path = work / f"{name}.scene.json"
    path.write_text(json.dumps(scene, indent=1), encoding="utf-8")
    return path


class Tally:
    """Attempted and failed CLI runs, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


def exit_problems(run: dict) -> list:
    if run["rc"] == 0:
        return []
    return [f"exit code {run['rc']}" + (f"\n{run['error']}" if run["error"] else "")]


def untimed_pass(runner: Runner, case, root: Path, work: Path, tally: Tally) -> dict:
    """Smoke-run the shipped scenes and the check's partner solves in one child."""
    jobs = []
    for path in sorted((root / "scenes").glob("*.json")):
        scene = json.loads(path.read_text(encoding="utf-8"))
        command = workloads.smoke_command(scene)
        jobs.append((f"smoke {path.name}", command, path, work / f"smoke-{path.stem}",
                     workloads.smoke_expected(command, scene)))
    for name, (command, scene) in case.partners.items():
        jobs.append((f"partner {name}", command, write_scene(work, name, scene),
                     work / f"partner-{name}", []))
    child = runner.spawn([cli_argv(command, scene, out) for _, command, scene, out, _ in jobs])
    smoke_failed = 0
    for (label, _, _, out, expected), run in zip(jobs, child["runs"]):
        problems = exit_problems(run)
        if not problems:
            problems = [f"missing {f}" for f in expected if not (out / f).is_file()]
        tally.record(label, problems)
        smoke_failed += bool(problems) and label.startswith("smoke")
    smoke_attempted = sum(label.startswith("smoke") for label, *_ in jobs)
    return {"smoke": {"attempted": smoke_attempted, "failed": smoke_failed},
            "partners": {name: work / f"partner-{name}" for name in case.partners}}


def read_metadata(out: Path) -> dict:
    """Solver facts the program reports in metadata.json; absent ones say so."""
    try:
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        meta = {}
    found = {}
    module = {"impedance": "foldy_impedance", "hard": "foldy_neumann"}.get(meta.get("kind"))
    if "M" in meta:
        found["particles.M"] = meta["M"]
    if module is not None:
        for key in ("residual", "iterations"):
            if key in meta:
                found[f"{module}.{key}"] = meta[key]
    return {name: found.get(name, "not reported") for name in METADATA_FIELDS}


def tail_percentile(samples: list) -> dict:
    """Highest of p90/p99/p99.9 that has at least ten samples above it."""
    eligible = [p for p in (90.0, 99.0, 99.9) if len(samples) * (1.0 - p / 100.0) >= 10]
    if not eligible:
        return {"percentile": None,
                "reason": f"{len(samples)} samples leave fewer than 10 above p90"}
    p = eligible[-1]
    rank = max(1, math.ceil(len(samples) * p / 100.0))
    return {"percentile": p, "value": sorted(samples)[rank - 1]}


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def run_timed(args, runner, case, scene, work, tally, partners, report) -> dict:
    runs = []
    t_start = time.perf_counter()
    while not runs or time.perf_counter() - t_start < args.seconds:
        out = work / f"timed-{len(runs)}"
        child = runner.spawn([cli_argv(case.command, scene, out)])
        runs.append({"out": out, "setup_s": child["setup_s"], **child["runs"][0]})

    first = runs[0]
    first_problems, report["check"] = exit_problems(first), {}
    if not first_problems:
        first_problems, report["check"] = workloads.check(
            args.workload, case, first["out"], partners)
    reference = outputs(first["out"])
    timed_failed = 0
    for i, run in enumerate(runs):
        problems = exit_problems(run) or list(first_problems)
        if i > 0 and not problems and outputs(run["out"]) != reference:
            problems = ["output differs byte for byte from the first run"]
        timed_failed += not tally.record(f"timed run {i}", problems)

    walls = [r["wall_s"] for r in runs]
    setups = [r["setup_s"] for r in runs]
    rss = [r["maxrss_mb"] for r in runs]
    report["samples"] = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    report["wall_s_tail"] = tail_percentile(walls)
    report["failed_frac"] = timed_failed / len(runs)
    report["timed"] = {"attempted": len(runs), "failed": timed_failed}
    report["metadata"] = read_metadata(first["out"])
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def run_traced(args, runner, case, scene, work, tally, partners, report) -> dict:
    plain = runner.spawn([cli_argv(case.command, scene, work / "untraced")])["runs"][0]
    traced_child = runner.spawn([cli_argv(case.command, scene, work / "traced")], trace=True)
    traced = traced_child["runs"][0]
    single = runner.spawn([cli_argv(case.command, scene, work / "threads1", threads=1)],
                          blas_threads=1)["runs"][0]

    problems, report["check"] = exit_problems(plain), {}
    if not problems:
        problems, report["check"] = workloads.check(
            args.workload, case, work / "untraced", partners)
    tally.record("untraced run", problems)
    problems = exit_problems(traced)
    if not problems and outputs(work / "traced") != outputs(work / "untraced"):
        problems = ["traced output differs byte for byte from the untraced run"]
    tally.record("traced run", problems)
    tally.record("single-thread run", exit_problems(single))
    if args.workload == "limit_grid":
        # ROADMAP's promise: CSVs do not depend on --threads (same BLAS setting)
        pair = runner.spawn([cli_argv(case.command, scene, work / "threads2-blas1")],
                            blas_threads=1)["runs"][0]
        problems = exit_problems(pair)
        csv1 = {k: v for k, v in outputs(work / "threads1").items() if k.endswith(".csv")}
        csv2 = {k: v for k, v in outputs(work / "threads2-blas1").items() if k.endswith(".csv")}
        if not problems and csv1 != csv2:
            problems = ["CSV output differs between --threads 1 and --threads 2"]
        tally.record("--threads 2 run with one BLAS thread", problems)
        report["threads_csv_identical"] = not problems

    summary = traced_child["trace"]
    units = per_layer_metrics()
    values = dict.fromkeys(units, 0.0)
    for module, figures in summary["modules"].items():
        for key, value in figures.items():
            if f"{module}.{key}" in values:
                values[f"{module}.{key}"] = value
    for function in KEY_FUNCTIONS:
        figures = summary["functions"].get(function, {})
        values[f"{function}.self_s"] = figures.get("self_s", 0.0)
        values[f"{function}.calls"] = figures.get("calls", 0)
    for name, value in summary["counts"].items():
        if name in values:
            values[name] = value
    funcs = summary["functions"]
    values["cli.write_s"] = sum(funcs.get(f, {}).get("total_s", 0.0)
                                for f in ("cli.write_csv", "cli.write_json"))
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["threads.wall_1_over_2"] = single["wall_s"] / plain["wall_s"]

    report["untraced_wall_s"] = plain["wall_s"]
    report["single_thread_wall_s"] = single["wall_s"]
    report["top_level_rss_mb"] = summary["top_level_rss_mb"]
    report["functions"] = funcs
    report["spans"] = summary["spans"]
    report["metadata"] = read_metadata(work / "untraced")
    report["purpose"] = purpose_checks(args.workload, values)
    return {name: (values[name], unit) for name, unit in units.items()}


def purpose_checks(workload: str, values: dict) -> dict:
    """Whether the traced run shows the split the workload was chosen for.

    Reported, not gated: a change that moves this split is what the
    benchmark exists to measure.
    """
    if workload == "limit_grid":
        share = sum(values[f"{m}.{k}"] for m in ("medium", "limit_solver")
                    for k in ("self_s", "linalg_s")) / values["trace.wall_s"]
        return {"claim": "medium + limit_solver self_s + linalg_s >= 80% of wall_s",
                "value": share, "holds": share >= 0.8}
    if workload == "cloud_free":
        cols = values["medium.grid_rhs_cols"]
        return {"claim": "medium.grid_rhs_cols == 0", "value": cols, "holds": cols == 0}
    cols, m = values["medium.grid_rhs_cols"], values["particles.M"]
    return {"claim": "medium.grid_rhs_cols >= 3 M", "value": cols, "M": m,
            "holds": m > 0 and cols >= 3 * m}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy as np
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return "unknown"
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    mem_kb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_mb": mem_kb / 1024.0 if mem_kb else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "smallbody" / "cli.py").is_file() or not (root / "scenes").is_dir():
        print(f"perfbench: {root} is not a smallbody checkout (no src/smallbody or scenes/)",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    case = workloads.make_case(args.workload, args.seed)
    scene = write_scene(work, "workload", case.scene)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(),
              "threads": {"cli_threads": CLI_THREADS, "blas_threads": BLAS_THREADS,
                          "single_thread_baseline": {"cli_threads": 1, "blas_threads": 1},
                          "env": BLAS_ENV},
              "loop": "closed, one client, one fresh child process per run",
              "limits": LIMITS}
    runner = Runner(root, work)
    tally = Tally()
    untimed = untimed_pass(runner, case, root, work, tally)
    report["smoke"] = untimed["smoke"]
    mode = run_traced if args.trace else run_timed
    metrics = mode(args, runner, case, scene, work, tally, untimed["partners"], report)
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["problems"] = tally.problems

    report_path = root / WORK_DIR / f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    for key in ("machine", "threads", "limits", "samples", "wall_s_tail", "failed_frac",
                "timed", "smoke", "check", "threads_csv_identical", "metadata", "purpose",
                "problems"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], default=str)}")
    print(f"report: {report_path}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
