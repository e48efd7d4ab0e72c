"""Compare two sets of benchmark run reports.

    python3 perfbench/compare.py perfbench/reports/a perfbench/reports/b

Each directory holds run reports: the standard output of ``run.py``, one
file per run (``sweep.py`` writes them).  For every workload and
end-to-end metric of ``BENCHMARK.json`` the command prints each side's
median and quartiles, how many pairs side B won (the i-th run of each
side in seed order), and
whether B's median is within the metric's bound of A's (``worse`` when
B is worse by more than the bound).  It also prints each side's share
of failed operations.  The exit code is 1 when any median is worse by
more than its bound or the failed shares differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_reports(directory: Path) -> dict[str, list[dict]]:
    """``{workload: [run, ...]}``; a run is ``{"seed", "result"}``."""
    out: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.txt")):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError(f"{path}: not a run report")
        config = json.loads(lines[-2])["config"]
        out[config["workload"]].append(
            {"seed": config["seed"], "result": json.loads(lines[-1])})
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(runs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def _seed(run: dict) -> int:
    return run["seed"]


def _failed(runs: list[dict]) -> tuple[int, int]:
    """Failed and attempted operations over all runs."""
    return (sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs))


def print_spreads(reports: dict[str, list[dict]], bench: dict) -> None:
    """Per workload and metric: median, quartile spread / median, bound."""
    print(f"{'workload':<18} {'metric':<20} {'runs':>4} {'median':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, runs in sorted(reports.items()):
        for m in bench["end_to_end"]:
            vals = _values(runs, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread <= m["bound"] / 3 else (
                "  > bound/3" if spread <= m["bound"] else "  > bound")
            print(f"{workload:<18} {m['name']:<20} {len(vals):>4} "
                  f"{med:>12.6g} {spread:>7.3f} {m['bound']:>6.2f}{flag}")
        print(f"{workload:<18} {'failed':<20} {'%d/%d' % _failed(runs):>17}")


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]],
            bench: dict) -> bool:
    ok = True
    print(f"{'workload':<18} {'metric':<20} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32} {'B wins':>7} {'change':>8} {'verdict':>7}")
    for workload in sorted(set(a) | set(b)):
        ra, rb = a.get(workload, []), b.get(workload, [])
        for m in bench["end_to_end"]:
            va, vb = _values(ra, m["name"]), _values(rb, m["name"])
            if not va or not vb:
                print(f"{workload:<18} {m['name']:<20} missing on one side")
                ok = False
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            # Pair the i-th run of A with the i-th of B, both in seed order.
            pairs = list(zip(_values(sorted(ra, key=_seed), m["name"]),
                             _values(sorted(rb, key=_seed), m["name"])))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = sign * change > m["bound"]
            ok &= not worse
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<18} {m['name']:<20} {fmt.format(*qa):>32} "
                  f"{fmt.format(*qb):>32} {wins:>3}/{len(pairs):<3} "
                  f"{change:>+8.3f} {'worse' if worse else 'ok':>7}")
        (fa, aa), (fb, ab) = _failed(ra), _failed(rb)
        same = fa * ab == fb * aa
        ok &= same
        print(f"{workload:<18} {'failed':<20} {f'{fa}/{aa}':>32} {f'{fb}/{ab}':>32} "
              f"{'':>7} {'':>8} {'ok' if same else 'differ':>7}")
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 0 if compare(load_reports(Path(argv[0])),
                        load_reports(Path(argv[1])), bench) else 1


if __name__ == "__main__":
    sys.exit(main())
