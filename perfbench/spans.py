"""In-memory span tracer that wraps smallbody's layers from outside the package.

``Tracer.install`` patches the bindings that callers actually use:

* public functions of the traced modules, in every traced module namespace
  that holds them (``smallbody.cli.solve_impedance_limit`` is the same
  function object as ``smallbody.limit_solver.solve_impedance_limit`` and
  gets the same wrapper), plus the ``cli.COMMANDS`` dispatch table;
* public methods of ``BackgroundMedium``;
* ``scipy.linalg.lu_factor``, ``lu_solve``, ``scipy.linalg.lapack.zgecon``
  and ``scipy.sparse.linalg.gmres``, which the package calls through the
  module attribute (``sla.lu_factor``), so patching the attribute is seen.

Spans are recorded on the main thread only and kept in memory; ``summary``
reduces them once the run has ended.  A span's self time is its duration
minus the durations of its child spans, and the same rule applies to the
rise of the ``ru_maxrss`` high-water mark.  Library spans are charged to the
module of the nearest enclosing smallbody span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import threading
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg

TRACED_MODULES = ("cli", "particles", "medium", "limit_solver",
                  "foldy_impedance", "foldy_neumann")
LIBRARY = "scipy"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _columns(b) -> int:
    b = np.asarray(b)
    return 1 if b.ndim == 1 else int(np.prod(b.shape[1:]))


class Tracer:
    def __init__(self):
        # one record per finished span:
        # [label, module, parent index, start, end, rss_kb start, rss_kb end]
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(float)
        self.lu = defaultdict(list)   # charged module -> [(order, bytes)]
        self.main_thread = threading.get_ident()

    # -- recording --------------------------------------------------------

    def wrap(self, label, module, fn, count=None):
        """Return fn wrapped in a span; count(span index, args, kwargs, result)
        may add counters once the call has returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self.main_thread:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            rec = [label, module, parent, time.perf_counter(), None, _maxrss_kb(), None]
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                rec[6] = _maxrss_kb()
                self.stack.pop()
            if count is not None:
                count(idx, args, kwargs, result)
            return result

        return wrapper

    def _charge(self, idx) -> str:
        """Module of the nearest enclosing smallbody span."""
        parent = self.spans[idx][2]
        while parent >= 0 and self.spans[parent][1] == LIBRARY:
            parent = self.spans[parent][2]
        return self.spans[parent][1] if parent >= 0 else "unattributed"

    # -- counters -----------------------------------------------------------

    def _count_lu_factor(self, idx, args, kwargs, result):
        a = np.asarray(args[0] if args else kwargs["a"])
        self.lu[self._charge(idx)].append((a.shape[0], a.nbytes))

    def _count_lu_solve(self, idx, args, kwargs, result):
        b = args[1] if len(args) > 1 else kwargs["b"]
        self.counts[self._charge(idx) + ".rhs_cols"] += _columns(b)

    def _count_gmres(self, idx, args, kwargs, result):
        self.counts[self._charge(idx) + ".gmres_calls"] += 1

    def _count_phase(self, kind):
        def count(idx, args, kwargs, result):
            medium, betas = args[0], np.atleast_2d(np.asarray(args[1]))
            nb = len(betas)
            grid_terms = 0 if medium.is_free else nb * medium.grid.size
            if kind == "particles":
                m = len(np.asarray(args[2]).reshape(-1, 3))
                evals = nb * m + grid_terms
            elif kind == "grid":
                evals = nb * medium.grid.size
            else:  # background amplitude
                evals = grid_terms
            self.counts["medium.phase_evals_computed"] += evals
        return count

    def _count_particles(self, idx, args, kwargs, result):
        self.counts["particles.M"] += len(result)

    def _count_write(self, idx, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["cli.bytes_written"] += os.path.getsize(path)

    # -- installation -------------------------------------------------------

    def install(self, cli):
        """Patch smallbody's layers and the scipy solvers they call."""
        mods = {name: importlib.import_module("smallbody." + name) for name in TRACED_MODULES}
        owners = {mod.__name__: short for short, mod in mods.items()}
        counters = {
            "particles.build_cloud_impedance": self._count_particles,
            "particles.build_cloud_hard": self._count_particles,
            "cli.write_csv": self._count_write,
            "cli.write_json": self._count_write,
            "medium.weighted_u0_sum": self._count_phase("particles"),
            "medium.weighted_u0_sum_grid": self._count_phase("grid"),
            "medium.background_amplitude": self._count_phase("background"),
        }
        wrappers = {}

        def wrapped(fn, module):
            if fn not in wrappers:
                label = f"{module}.{fn.__name__}"
                wrappers[fn] = self.wrap(label, module, fn, counters.get(label))
            return wrappers[fn]

        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ in owners):
                    setattr(mod, name, wrapped(obj, owners[obj.__module__]))
        for cmd, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[cmd] = wrapped(fn, "cli")

        medium_cls = mods["medium"].BackgroundMedium
        for name, obj in list(vars(medium_cls).items()):
            if inspect.isfunction(obj) and not name.startswith("_"):
                setattr(medium_cls, name, wrapped(obj, "medium"))
        solve_grid = medium_cls._solve_grid

        @functools.wraps(solve_grid)
        def counted_solve_grid(medium, rhs, *args, **kwargs):
            # every grid solve of the background medium goes through here
            self.counts["medium.grid_rhs_cols"] += _columns(rhs)
            return solve_grid(medium, rhs, *args, **kwargs)

        medium_cls._solve_grid = counted_solve_grid

        for owner, name, count in (
                (scipy.linalg, "lu_factor", self._count_lu_factor),
                (scipy.linalg, "lu_solve", self._count_lu_solve),
                (scipy.linalg.lapack, "zgecon", None),
                (scipy.sparse.linalg, "gmres", self._count_gmres)):
            setattr(owner, name, self.wrap(f"{LIBRARY}.{name}", LIBRARY,
                                           getattr(owner, name), count))

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function, per-module and per-call figures of the finished run."""
        n = len(self.spans)
        child_time = [0.0] * n
        child_rss = [0] * n
        for label, module, parent, t0, t1, r0, r1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                child_rss[parent] += r1 - r0
        functions = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                         "rss_rise_mb": 0.0})
        modules = defaultdict(lambda: defaultdict(float))
        top_level_rss = {}
        for i, (label, module, parent, t0, t1, r0, r1) in enumerate(self.spans):
            self_s = (t1 - t0) - child_time[i]
            rise_mb = ((r1 - r0) - child_rss[i]) / 1024.0
            f = functions[label]
            f["calls"] += 1
            f["self_s"] += self_s
            f["total_s"] += t1 - t0
            f["rss_rise_mb"] += rise_mb
            if module == LIBRARY:
                charged = self._charge(i)
                key = label.split(".", 1)[1]
                modules[charged][key + "_s"] += self_s
                modules[charged]["linalg_s"] += self_s
                modules[charged]["rss_rise_mb"] += rise_mb
            else:
                modules[module]["self_s"] += self_s
                modules[module]["calls"] += 1
                modules[module]["rss_rise_mb"] += rise_mb
            if parent >= 0 and self.spans[parent][0].startswith("cli.cmd_"):
                top_level_rss[label] = r1 / 1024.0
        for module, factorizations in self.lu.items():
            modules[module]["lu_order"] = max(order for order, _ in factorizations)
            modules[module]["lu_bytes_computed"] = sum(nbytes for _, nbytes in factorizations)
        return {
            "functions": dict(functions),
            "modules": {m: dict(v) for m, v in modules.items()},
            "counts": dict(self.counts),
            "top_level_rss_mb": top_level_rss,
            "spans": n,
        }
