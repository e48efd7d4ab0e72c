"""Output checks made outside the program.

Solutions are checked with scipy's own sparse matrix-vector product and,
where asked, against ``scipy.sparse.linalg.splu``.  Simulated schedules
are checked from the trace and the task DAG by the code below, not by
``repro.verify``.  Every failed check raises :class:`CheckFailed`, which
the runner counts as a failed operation.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

#: Refinement targets 1e-12; a residual above this is a wrong answer.
RESIDUAL_TOL = 1e-10
#: Relative distance allowed between our solution and SuperLU's.
SPLU_TOL = 1e-8
#: Slack on the simulated clock when comparing event times.
TIME_TOL = 1e-12


class CheckFailed(Exception):
    """An output did not pass its independent check."""


def check_solution(matrix, x: np.ndarray, b: np.ndarray, *,
                   splu: bool = False) -> None:
    """Relative residual through scipy's matvec; with ``splu`` also the
    distance to SuperLU's solution of the same system."""
    a = matrix.to_scipy()
    res = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    if not np.isfinite(res) or res > RESIDUAL_TOL:
        raise CheckFailed(f"relative residual {res:.3e} > {RESIDUAL_TOL:g}")
    if splu:
        ref = spla.splu(a.tocsc()).solve(b)
        dist = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        if not np.isfinite(dist) or dist > SPLU_TOL:
            raise CheckFailed(f"distance to splu {dist:.3e} > {SPLU_TOL:g}")


def _spans(trace):
    tasks = np.array([e.task for e in trace.events], dtype=np.int64)
    start = np.array([e.start for e in trace.events])
    end = np.array([e.end for e in trace.events])
    res = [e.resource for e in trace.events]
    return tasks, start, end, res


def _max_overlap(start: np.ndarray, end: np.ndarray) -> int:
    """Largest number of the ``[start, end)`` windows open at once."""
    if start.size == 0:
        return 0
    times = np.concatenate([end - TIME_TOL, start])
    delta = np.concatenate([-np.ones(end.size, dtype=np.int64),
                            np.ones(start.size, dtype=np.int64)])
    order = np.lexsort((delta, times))  # closes sort before opens
    return int(np.cumsum(delta[order]).max())


def _check_resources(start, end, res, capacity) -> None:
    by_res: dict[str, list[int]] = defaultdict(list)
    for i, r in enumerate(res):
        by_res[r].append(i)
    for r, idx in by_res.items():
        idx = np.array(idx)
        cap = capacity(r)
        peak = _max_overlap(start[idx], end[idx])
        if peak > cap:
            raise CheckFailed(f"{peak} tasks overlap on {r} (capacity {cap})")


def _check_groups(group, start, end, what) -> None:
    """Tasks in one group (a mutex) never overlap."""
    for g in np.unique(group[group >= 0]):
        idx = np.flatnonzero(group == g)
        if _max_overlap(start[idx], end[idx]) > 1:
            raise CheckFailed(f"two {what} of group {g} overlap")


def check_machine_schedule(dag, trace, *, streams: int) -> None:
    """Each DAG task runs once, after all its predecessors; a CPU runs
    one task at a time, a GPU at most ``streams``; one panel's updates
    never overlap."""
    tasks, start, end, res = _spans(trace)
    n = dag.n_tasks
    counts = np.bincount(tasks, minlength=n) if tasks.size else np.zeros(n)
    if tasks.size and (tasks.min() < 0 or tasks.max() >= n):
        raise CheckFailed("trace names a task outside the DAG")
    if np.any(counts != 1):
        bad = int(np.flatnonzero(counts != 1)[0])
        raise CheckFailed(f"task {bad} ran {int(counts[bad])} times")
    t_start = np.empty(n)
    t_end = np.empty(n)
    t_start[tasks] = start
    t_end[tasks] = end
    heads = np.repeat(np.arange(n), np.diff(dag.succ_ptr))
    late = t_start[dag.succ_list] < t_end[heads] - TIME_TOL
    if np.any(late):
        i = int(np.flatnonzero(late)[0])
        raise CheckFailed(
            f"task {int(dag.succ_list[i])} started before its "
            f"predecessor {int(heads[i])} ended")
    _check_resources(start, end, res,
                     lambda r: streams if r.startswith("gpu") else 1)
    _check_groups(np.asarray(dag.mutex)[tasks], start, end, "updates")


#: Task-id offsets of the distributed simulator's trace (panel k is
#: ``k``, update couple i is ``UPDATE_BASE + i``, a fan-in accumulate
#: into panel t from node s is ``ACC_BASE + t * n_nodes + s``).
UPDATE_BASE = 10**8
ACC_BASE = 2 * 10**8


def check_distributed_schedule(symbol, couples, trace, *,
                               n_nodes: int) -> None:
    """Each panel and update runs once; an update starts after its
    source panel; a panel starts after every update and accumulate
    aimed at it; a core runs one task at a time; the contributions to
    one panel never overlap."""
    src, tgt = couples[0], couples[1]
    tasks, start, end, res = _spans(trace)
    K, n_upd = symbol.n_cblk, src.size
    panel = tasks < UPDATE_BASE
    upd = (tasks >= UPDATE_BASE) & (tasks < ACC_BASE)
    acc = tasks >= ACC_BASE
    pc = np.bincount(tasks[panel], minlength=K)
    uc = np.bincount(tasks[upd] - UPDATE_BASE, minlength=n_upd)
    if pc.size != K or uc.size != n_upd or np.any(pc != 1) or np.any(uc != 1):
        raise CheckFailed("a panel or update did not run exactly once")
    p_start, p_end = np.empty(K), np.empty(K)
    p_start[tasks[panel]] = start[panel]
    p_end[tasks[panel]] = end[panel]
    u_idx = tasks[upd] - UPDATE_BASE
    if np.any(start[upd] < p_end[src[u_idx]] - TIME_TOL):
        raise CheckFailed("an update started before its source panel ended")
    if np.any(p_start[tgt[u_idx]] < end[upd] - TIME_TOL):
        raise CheckFailed("a panel started before an update into it ended")
    a_tgt = (tasks[acc] - ACC_BASE) // n_nodes
    if a_tgt.size and (a_tgt.max() >= K
                       or np.any(p_start[a_tgt] < end[acc] - TIME_TOL)):
        raise CheckFailed("a panel started before its fan-in buffer landed")
    _check_resources(start, end, res, lambda r: 1)
    group = np.full(tasks.size, -1, dtype=np.int64)
    group[upd] = tgt[u_idx]
    group[acc] = a_tgt
    _check_groups(group, start, end, "contributions")
