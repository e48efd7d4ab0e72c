"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs one round of every workload of ``BENCHMARK.json`` on tiny inputs
(``run.py --quick --seconds 0``), untraced and traced, and checks that
each run's last line has exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; that no operation failed; and that the
metrics are exactly the end-to-end (untraced) or per-layer (traced)
ones, each a finite number with its declared unit, the end-to-end ones
above zero.  Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "0", "--trace", str(trace), "--quick"])
    if code != 0:
        return [f"exit code {code}"]
    result = json.loads(out.getvalue().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1):
        problems.append(f"attempted {attempted!r}")
    if failed != 0:
        problems.append(f"failed {failed!r}")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name} = {value!r} is not above zero")
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name} unit {m.get('unit')!r} != {declared[name]!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, w["name"], trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"selftest {w['name']} trace={trace}: {status}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
