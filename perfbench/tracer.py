"""Layer timers for the traced benchmark run.

The tracer replaces each layer's public functions, at the module names
their callers look them up by, with thin timing wrappers, runs the
normal pipeline, and restores the originals on exit.  Nothing of the
pipeline is copied here: ``SparseSolver``, the drivers and the
simulators run unchanged and simply call the wrapped names.

Wrappers may run on the threaded runtime's worker threads.  Each call
appends one ``(key, seconds)`` row to a plain list (``list.append`` is
atomic under the interpreter lock), so recording takes no lock of its
own; rows are summed when a unit of work is closed with :meth:`take`.
Kernel times summed over several workers are therefore worker-seconds,
not wall seconds.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

from repro.core.factor import NumericFactor
from repro.core.solver import SparseSolver
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.csc import SparseMatrixCSC

#: (module, attribute, timer key): plain functions, wrapped in the
#: namespace of the module that calls them.
_FUNCTIONS = (
    ("repro.symbolic.analyze", "nested_dissection", "ordering.nested_dissection"),
    ("repro.symbolic.analyze", "elimination_tree", "symbolic.etree"),
    ("repro.symbolic.analyze", "postorder", "symbolic.etree"),
    ("repro.symbolic.analyze", "column_counts", "symbolic.colcount"),
    ("repro.symbolic.analyze", "fundamental_supernodes", "symbolic.supernodes"),
    ("repro.symbolic.analyze", "supernode_row_sets", "symbolic.supernodes"),
    ("repro.symbolic.analyze", "amalgamate", "symbolic.amalgamate"),
    ("repro.symbolic.analyze", "split_supernodes", "symbolic.split"),
    ("repro.core.factorization", "panel_factorize", "numeric.panel"),
    ("repro.runtime.threaded", "panel_factorize", "numeric.panel"),
    ("repro.kernels.panel", "panel_update_compute", "numeric.update_gemm"),
    ("repro.runtime.threaded", "panel_update_compute", "numeric.update_gemm"),
    ("repro.kernels.panel", "panel_update_scatter", "numeric.update_scatter"),
    ("repro.runtime.threaded", "panel_update_scatter", "numeric.update_scatter"),
    ("repro.dag.solve_builder", "build_solve_dag", "solve.solve_dag_build"),
)

#: Where ``build_dag`` is looked up: the benchmark's own simulate cells,
#: the threaded runtime, and the distributed simulator.
_BUILD_DAG_SITES = ("repro.dag", "repro.runtime.threaded",
                    "repro.distributed.simulator")

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    "ordering.nested_dissection_s": "s",
    "symbolic.etree_s": "s",
    "symbolic.colcount_s": "s",
    "symbolic.supernodes_s": "s",
    "symbolic.amalgamate_s": "s",
    "symbolic.split_s": "s",
    "symbolic.build_symbol_s": "s",
    "symbolic.n_cblk": "count",
    "symbolic.median_panel_width": "count",
    "indexcache.build_s": "s",
    "indexcache.n_couples": "count",
    "dag.build_s": "s",
    "dag.n_tasks": "count",
    "numeric.assemble_s": "s",
    "numeric.panel_s": "s",
    "numeric.update_gemm_s": "s",
    "numeric.update_scatter_s": "s",
    "numeric.n_update_calls": "count",
    "numeric.gflops": "GFlop/s",
    "runtime.busy_s": "s",
    "runtime.idle_s": "s",
    "runtime.overhead_us_per_task": "us",
    "runtime.lock_wait_s": "s",
    "runtime.steals": "count",
    "solve.raw_solve_s": "s",
    "solve.n_raw_solves": "count",
    "solve.solve_dag_build_s": "s",
    "solve.matvec_s": "s",
    "machine.simulate_s": "s",
    "machine.host_us_per_task": "us",
    "machine.makespan_s": "s",
    "machine.bytes_h2d": "B",
    "distributed.simulate_s": "s",
    "distributed.makespan_s": "s",
    "distributed.n_messages": "count",
    "trace.overhead_s": "s",
}


class LayerTracer:
    """Install with ``with LayerTracer() as tr:``; close each unit of
    work (a set-up repetition, a pass, a step, a cell) with
    :meth:`take`, which returns that unit's per-layer values."""

    def __init__(self) -> None:
        self._rows: list[tuple[str, float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, fn, key: str, on_result=None):
        rows = self._rows

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            rows.append((key, time.perf_counter() - t0))
            if on_result is not None:
                on_result(out, args)
            return out

        return wrapper

    def _stat(self, key: str, value: float) -> None:
        self._rows.append((key, float(value)))

    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        for modname, attr, key in _FUNCTIONS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._timed(getattr(mod, attr), key))

        analyze_mod = importlib.import_module("repro.symbolic.analyze")
        self._patch(analyze_mod, "build_symbol", self._timed(
            analyze_mod.build_symbol, "symbolic.build_symbol",
            lambda sym, _a: self._symbol_stats(sym)))

        cache_mod = importlib.import_module("repro.kernels.indexcache")
        self._patch(cache_mod, "get_couple_cache", self._timed(
            cache_mod.get_couple_cache, "indexcache.build",
            lambda c, _a: self._stat("stat.n_couples", c.n_couples)))

        for modname in _BUILD_DAG_SITES:
            mod = importlib.import_module(modname)
            self._patch(mod, "build_dag", self._timed(
                mod.build_dag, "dag.build",
                lambda d, _a: self._stat("stat.n_tasks", d.n_tasks)))

        self._patch(NumericFactor, "assemble", classmethod(self._timed(
            NumericFactor.__dict__["assemble"].__func__, "numeric.assemble")))
        self._patch(SparseSolver, "_raw_solve", self._timed(
            SparseSolver._raw_solve, "solve.raw_solve"))
        self._patch(SparseMatrixCSC, "matvec", self._timed(
            SparseMatrixCSC.matvec, "solve.matvec"))

        def on_factorize(info, _args):
            self._stat("stat.flops", info.flops)
            self._stat("stat.factor_elapsed", info.elapsed)

        self._patch(SparseSolver, "factorize", self._timed(
            SparseSolver.factorize, "solver.factorize", on_factorize))

        threaded = importlib.import_module("repro.runtime.threaded")
        self._patch(threaded, "factorize_threaded",
                    self._traced_threaded(threaded.factorize_threaded))

        machine = importlib.import_module("repro.machine")

        def on_simulate(res, args):
            self._stat("stat.machine_tasks", args[0].n_tasks)
            self._stat("stat.machine_makespan", res.makespan)
            self._stat("stat.machine_h2d", res.bytes_h2d)

        self._patch(machine, "simulate", self._timed(
            machine.simulate, "machine.simulate", on_simulate))

        dist = importlib.import_module("repro.distributed")

        def on_distributed(res, _args):
            self._stat("stat.dist_makespan", res.makespan)
            self._stat("stat.dist_messages", res.n_messages)

        self._patch(dist, "simulate_distributed", self._timed(
            dist.simulate_distributed, "distributed.simulate",
            on_distributed))

    def _symbol_stats(self, symbol) -> None:
        widths = np.diff(symbol.cblk_ptr)
        self._stat("stat.n_cblk", symbol.n_cblk)
        for w in np.unique(widths):
            self._stat(f"width.{int(w)}", int(np.count_nonzero(widths == w)))

    def _traced_threaded(self, factorize_threaded):
        """Run ``factorize_threaded`` with an :class:`ExecutionTrace`
        and sync recording, and read the runtime's busy, idle, steal and
        lock-wait figures back from that trace."""

        def wrapper(*args, **kwargs):
            trace = ExecutionTrace()
            kwargs.setdefault("trace", trace)
            kwargs.setdefault("record_sync", True)
            out = factorize_threaded(*args, **kwargs)
            trace = kwargs["trace"]
            n_workers = int(trace.meta.get("n_workers", kwargs.get("n_workers", 1)))
            busy = sum(e.duration for e in trace.events)
            idle = sum(e.duration for e in trace.sync_events
                       if e.kind == "park")
            steals = sum(1 for e in trace.sync_events
                         if e.kind == "steal" and e.task >= 0)
            span = (max(e.end for e in trace.events)
                    - min(e.start for e in trace.events)) if trace.events else 0.0
            self._stat("stat.rt_busy", busy)
            self._stat("stat.rt_idle", idle)
            self._stat("stat.rt_other", n_workers * span - busy - idle)
            self._stat("stat.rt_tasks", len(trace.events))
            self._stat("stat.rt_lock_wait",
                       trace.meta.get("sync_stats", {}).get("lock_wait_s", 0.0))
            self._stat("stat.rt_steals", steals)
            return out

        return wrapper

    # -- reading -------------------------------------------------------
    def take(self) -> dict[str, float]:
        """Close the current unit of work and return its per-layer
        values.  A metric is present only if its layer ran in the unit,
        so a run's median skips units where the layer was idle."""
        rows, self._rows[:] = list(self._rows), []
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for key, val in rows:
            total[key] += val
            calls[key] += 1
        out: dict[str, float] = {}
        for key in list(calls):
            if f"{key}_s" in LAYER_METRICS:
                out[f"{key}_s"] = total[key]
        if calls["stat.n_cblk"]:
            out["symbolic.n_cblk"] = total["stat.n_cblk"]
            counts = {int(k.split(".")[1]): v for k, v in total.items()
                      if k.startswith("width.")}
            out["symbolic.median_panel_width"] = _weighted_median(counts)
        if calls["stat.n_couples"]:
            out["indexcache.n_couples"] = total["stat.n_couples"]
        if calls["stat.n_tasks"]:
            out["dag.n_tasks"] = total["stat.n_tasks"]
        if calls["numeric.update_gemm"]:
            out["numeric.n_update_calls"] = calls["numeric.update_gemm"]
        if total["stat.factor_elapsed"] > 0:
            out["numeric.gflops"] = (total["stat.flops"]
                                     / total["stat.factor_elapsed"] / 1e9)
        if calls["stat.rt_busy"]:
            out["runtime.busy_s"] = total["stat.rt_busy"]
            out["runtime.idle_s"] = total["stat.rt_idle"]
            out["runtime.overhead_us_per_task"] = (
                1e6 * total["stat.rt_other"] / max(total["stat.rt_tasks"], 1))
            out["runtime.lock_wait_s"] = total["stat.rt_lock_wait"]
            out["runtime.steals"] = total["stat.rt_steals"]
        if calls["solve.raw_solve"]:
            out["solve.n_raw_solves"] = calls["solve.raw_solve"]
        if calls["machine.simulate"]:
            out["machine.host_us_per_task"] = (
                1e6 * total["machine.simulate"]
                / max(total["stat.machine_tasks"], 1))
            out["machine.makespan_s"] = total["stat.machine_makespan"]
            out["machine.bytes_h2d"] = total["stat.machine_h2d"]
        if calls["distributed.simulate"]:
            out["distributed.makespan_s"] = total["stat.dist_makespan"]
            out["distributed.n_messages"] = total["stat.dist_messages"]
        return out


def _weighted_median(counts: dict[int, float]) -> float:
    """Median of a multiset given as ``{value: multiplicity}``."""
    values = sorted(counts)
    n = sum(counts.values())
    seen = 0.0
    for v in values:
        seen += counts[v]
        if seen * 2 >= n:
            return float(v)
    return 0.0
