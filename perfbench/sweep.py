"""Run the benchmark over several seeds and keep every run's report.

    python3 perfbench/sweep.py --out perfbench/reports/a --seeds 1-10

Runs ``run.py`` once per (workload, seed), one process at a time, from
the checkout root, and saves each run's standard output as
``<out>/<workload>-seed<n>-trace<t>.txt``.  It then prints, per workload
and end-to-end metric, the median and the quartile spread of the runs
as a share of their median, against the bound in ``BENCHMARK.json``.
Compare two such directories with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_reports, print_spreads

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    cmd = list(bench["command"])
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = subprocess.run(
                cmd + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            name = f"{workload}-seed{seed}-trace{args.trace}.txt"
            (args.out / name).write_text(run.stdout)
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                sys.stderr.write(f"{name}: exit {run.returncode}\n")
                return 1
            sys.stderr.write(f"{name}: {run.stdout.splitlines()[-1][:120]}\n")

    print_spreads(load_reports(args.out), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
