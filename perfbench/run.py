"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src/`` directory.  The run sets its workload up several times, repeats
whole rounds of operations until ``--seconds`` have passed, checks every
output, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from rounds run under
the layer tracer, alternating with untraced rounds that give
``trace.overhead_s``.  The line before it records the run's
configuration: host, BLAS threads, library versions and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import scipy

    import repro  # noqa: F401  (fail here, before any output)
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import the solver from {ROOT / 'src'}: {exc}\n")
    sys.exit(2)

from checks import CheckFailed
from tracer import LAYER_METRICS, LayerTracer
from workloads import FULL, QUICK, WORKLOADS

#: End-to-end metrics and their units (the ``end_to_end`` list of
#: ``BENCHMARK.json``).
END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "analyze_s": "s",
    "factorize_s": "s",
    "solve_s": "s",
    "factor_nnz": "count",
    "peak_rss_mb": "MB",
    "sim_cell_s": "s",
}


class Recorder:
    """Samples, operation counts and (in traced rounds) per-layer units."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.traced_samples: dict[str, list[float]] = defaultdict(list)
        self.units: list[dict[str, float]] = []
        self.tracer: LayerTracer | None = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def sample(self, key: str, value: float) -> None:
        target = self.traced_samples if self.tracer else self.samples
        target[key].append(float(value))

    def operation(self, fn):
        """Run one checked operation; count it, and its failure."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            sys.stderr.write(f"perfbench: check failed: {exc}\n")
        except Exception:  # a run reports a failing operation and goes on
            self.failed += 1
            traceback.print_exc()
        return None

    def close_unit(self) -> None:
        """End a unit of work: keep its per-layer values when traced."""
        if self.tracer is not None:
            unit = self.tracer.take()
            if unit:
                self.units.append(unit)

    def run(self, fn, *, traced: bool) -> None:
        """Run ``fn`` as one unit of work, under the layer tracer when
        ``traced``."""
        self.tracer = LayerTracer() if traced else None
        try:
            with self.tracer or nullcontext():
                fn()
                self.close_unit()
        finally:
            self.tracer = None


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, read (not set) via ctypes."""
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def tail(values: list[float]) -> dict | None:
    """The highest percentile with ten samples beyond it (n >= 40)."""
    n = len(values)
    if n < 40:
        return None
    pct = int(100 * (1 - 10 / n))
    return {"percentile": pct, "value": float(np.percentile(values, pct))}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scales) -> tuple[Recorder, dict]:
    rec = Recorder()
    wl = WORKLOADS[workload](seed, scales, rec)
    for _ in range(scales.n_setup):
        rec.run(wl.setup, traced=trace)

    # A traced run alternates untraced and traced rounds.
    min_rounds = max(wl.min_rounds, 2 if trace else 1)
    t0 = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - t0 < seconds:
        rec.run(lambda: wl.round(companions=not trace),
                traced=trace and rounds % 2 == 1)
        rounds += 1
    window = time.perf_counter() - t0
    info = {"rounds": rounds, "window_s": window,
            "main_metric": wl.main_metric}
    return rec, info


def end_to_end_metrics(rec: Recorder) -> dict:
    out = {}
    rec.samples["peak_rss_mb"].append(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for name, unit in END_TO_END.items():
        values = rec.samples.get(name)
        if not values:
            raise RuntimeError(f"no successful sample of {name}")
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def layer_metrics(rec: Recorder, main_metric: str) -> dict:
    out = {}
    for name, unit in LAYER_METRICS.items():
        values = [u[name] for u in rec.units if name in u]
        out[name] = {"value": statistics.median(values) if values else 0.0,
                     "unit": unit}
    traced = rec.traced_samples.get(main_metric)
    plain = rec.samples.get(main_metric)
    if not traced or not plain:
        raise RuntimeError(f"traced and untraced {main_metric} both needed")
    out["trace.overhead_s"]["value"] = (
        statistics.median(traced) - statistics.median(plain))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny inputs, one set-up (the self-test's size)")
    args = p.parse_args(argv)

    t_start = time.perf_counter()
    rec, info = measure(args.workload, args.seed, args.seconds,
                        bool(args.trace), QUICK if args.quick else FULL)
    if args.trace:
        metrics = layer_metrics(rec, info["main_metric"])
    else:
        metrics = end_to_end_metrics(rec)

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "blas_threads": blas_threads(),
                 "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__},
        "rounds": info["rounds"],
        "window_s": info["window_s"],
        "wall_s": time.perf_counter() - t_start,
        "samples": {k: len(v) for k, v in sorted(rec.samples.items())},
        "tails": {k: t for k, v in sorted(rec.samples.items())
                  if (t := tail(v)) is not None},
    }
    for name, m in metrics.items():
        sys.stderr.write(f"{args.workload:>18} {name:<32} {m['value']:.6g} {m['unit']}\n")
    print(json.dumps({"config": config}))
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
