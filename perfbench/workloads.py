"""The benchmark's three workloads.

Each workload is a closed loop in one process: the next operation
starts when the previous one has finished and been checked.  A
workload provides

* ``setup()`` — one set-up repetition (timed as ``setup_s``);
* ``round(companions)`` — one whole round of its operations; the runner
  repeats rounds until the run's time is up.

Every run reports every end-to-end metric.  The ones that are not on a
workload's own path are measured by *companion* operations on the
workload's own matrices in every round, timed apart from the workload's
operations: a Fig.-4 cell of the solver workloads' analyses
(``sim_cell_s``), sequential refactor steps of the simulated matrix
(``time_to_solution_s``, ``factorize_s``, ``solve_s``), and fresh
analyses of the Serena matrix (``analyze_s``, which is otherwise only
sampled at set-up).  Traced runs leave companions out, so layer metrics
come from the workload alone.

All calls go through the public functions of ``repro`` by module
attribute (``repro.dag.build_dag``, ``repro.machine.simulate``, ...), so
the traced run can wrap them where they are looked up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import repro.dag
import repro.distributed
import repro.machine
import repro.runtime
from repro import SolverOptions, SparseSolver
from repro.sparse.collection import MATRIX_COLLECTION, load_matrix

from checks import (
    CheckFailed,
    check_distributed_schedule,
    check_machine_schedule,
    check_solution,
)


@dataclass(frozen=True)
class Scales:
    """Input sizes: collection scale factors and repetition counts."""

    oneshot: float = 0.6
    serena: float = 0.5
    n_setup: int = 5


#: Default sizes, and the tiny ones the self-test uses.
FULL = Scales()
QUICK = Scales(oneshot=0.3, serena=0.3, n_setup=1)

ONESHOT_MATRICES = ("afshell10", "audi", "pmlDF")
SERENA = "Serena"
N_WORKERS = 2
CORES = 12
#: Fig.-4 cells: (policy, CUDA streams per GPU, GPUs).  Native PaStiX
#: is CPU only.
FIG4_CELLS = [("native", 1, 0)] + [
    (policy, streams, gpus)
    for policy, streams in (("starpu", 1), ("parsec", 1), ("parsec", 3))
    for gpus in range(4)
]
#: Distributed cells: nodes of CORES cores, fan-in and fan-out.
DIST_NODES = 4
DIST_CELLS = (True, False)


def value_seed(seed: int, *keys: int) -> int:
    """A generator seed derived from the run seed and a position."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def factotype(name: str) -> str:
    return MATRIX_COLLECTION[name].method.lower()


def rhs(matrix, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(matrix.n_rows)
    if np.iscomplexobj(matrix.values):
        b = b + 1j * rng.standard_normal(matrix.n_rows)
    return b


class Workload:
    """Base: the runner's view of a workload."""

    #: The end-to-end timing the traced run compares with an untraced
    #: one to give ``trace.overhead_s``.
    main_metric = "time_to_solution_s"
    #: Rounds every run makes, however short.
    min_rounds = 1

    def __init__(self, seed: int, scales: Scales, recorder) -> None:
        self.seed = seed
        self.scales = scales
        self.rec = recorder
        self.n_setup = 0
        self.n_round = 0

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, companions: bool) -> None:
        raise NotImplementedError

    # -- shared operations --------------------------------------------
    def _solve_system(self, solver: SparseSolver, b, *,
                      analyze: bool) -> dict:
        """Analyze (when asked), factorize and solve; return ``x`` and
        the phase times."""
        t0 = time.perf_counter()
        if analyze:
            solver.analyze()
        t1 = time.perf_counter()
        info = solver.factorize()
        t2 = time.perf_counter()
        x = solver.solve(b)
        t3 = time.perf_counter()
        return {"x": x, "analyze_s": t1 - t0, "factorize_s": t2 - t1,
                "solve_s": t3 - t2, "factor_nnz": info.nnz_factor}

    def _machine_cell(self, symbol, ft, dtype, policy_name: str,
                      streams: int, gpus: int) -> tuple[float, float]:
        """One Fig.-4 cell: ``build_dag`` + ``simulate``, checked.
        Returns the host seconds and the simulated makespan."""
        t0 = time.perf_counter()
        policy = repro.runtime.get_policy(policy_name)
        dag = repro.dag.build_dag(
            symbol, ft, granularity=policy.traits.granularity, dtype=dtype,
            recompute_ld=policy.traits.recompute_ld)
        machine = repro.machine.mirage(
            n_cores=CORES, n_gpus=gpus, streams_per_gpu=streams if gpus else 1)
        res = repro.machine.simulate(dag, machine, policy, dtype=dtype,
                                     collect_trace=True)
        host = time.perf_counter() - t0
        check_machine_schedule(dag, res.trace, streams=streams)
        return host, res.makespan

    def _companion_cell(self, solver: SparseSolver) -> None:
        """The CPU-only native Fig.-4 cell of ``solver``'s analysis."""
        def op():
            host, _ = self._machine_cell(
                solver.analysis.symbol, solver.options.factotype,
                solver.matrix.values.dtype, *FIG4_CELLS[0])
            self.rec.sample("sim_cell_s", host)
        self.rec.operation(op)


class OneShot(Workload):
    """A fresh sequential ``SparseSolver`` per system over the afshell10
    (real LU), audi (real LLᵀ) and pmlDF (complex LDLᵀ) analogues.  Each
    pass draws new values; generating them is the set-up."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.queued: list[list] = []

    def setup(self) -> None:
        """Generate one pass's matrices and right-hand sides."""
        t0 = time.perf_counter()
        inputs = []
        for i, name in enumerate(ONESHOT_MATRICES):
            a = load_matrix(name, scale=self.scales.oneshot,
                            seed=value_seed(self.seed, 0, self.n_setup, i))
            inputs.append((name, a, rhs(a, value_seed(self.seed, 1, self.n_setup, i))))
        self.rec.sample("setup_s", time.perf_counter() - t0)
        self.n_setup += 1
        self.queued.append(inputs)

    def round(self, companions: bool) -> None:
        if not self.queued:
            self.setup()
        self.n_round += 1
        totals: dict[str, float] = {}
        solvers = []
        for name, a, b in self.queued.pop(0):
            def op(name=name, a=a, b=b):
                t0 = time.perf_counter()
                solver = SparseSolver(a, SolverOptions(factotype=factotype(name)))
                out = self._solve_system(solver, b, analyze=True)
                out["time_to_solution_s"] = time.perf_counter() - t0
                check_solution(a, out["x"], b, splu=True)
                solvers.append(solver)
                return out
            out = self.rec.operation(op)
            if out is None:
                continue  # a failed system voids the pass's sums
            for key in ("time_to_solution_s", "analyze_s", "factorize_s",
                        "solve_s", "factor_nnz"):
                totals[key] = totals.get(key, 0.0) + out[key]
        if len(solvers) == len(ONESHOT_MATRICES):
            for key, val in totals.items():
                self.rec.sample(key, val)
        if companions:
            for solver in solvers:
                self._companion_cell(solver)


class _SerenaWorkload(Workload):
    """Set-up shared by the two Serena workloads: generate the matrix
    and run ``SparseSolver.analyze()`` once per set-up repetition."""

    options = SolverOptions(factotype="ldlt")

    def setup(self) -> None:
        t0 = time.perf_counter()
        a = load_matrix(SERENA, scale=self.scales.serena,
                        seed=value_seed(self.seed, 0, self.n_setup))
        self.solver = SparseSolver(a, self.options)
        t1 = time.perf_counter()
        self.solver.analyze()
        t2 = time.perf_counter()
        self.rec.sample("setup_s", t2 - t0)
        self.rec.sample("analyze_s", t2 - t1)
        self.n_setup += 1

    def _refactor_step(self, solver: SparseSolver, stream: int, k: int,
                       solves: int = 1) -> None:
        """Hand ``solver`` new values (from ``stream``; right-hand sides
        from ``stream + 1``), factorize, solve ``solves`` systems and
        check each.  ``time_to_solution_s`` ends at the first ``x``."""
        a = load_matrix(SERENA, scale=self.scales.serena,
                        seed=value_seed(self.seed, stream, k))
        bs = [rhs(a, value_seed(self.seed, stream + 1, k, j))
              for j in range(solves)]

        def op():
            t0 = time.perf_counter()
            solver.update_values(a)
            out = self._solve_system(solver, bs[0], analyze=False)
            out["time_to_solution_s"] = time.perf_counter() - t0
            check_solution(a, out["x"], bs[0])
            solve_s = [out["solve_s"]]
            for b in bs[1:]:
                t1 = time.perf_counter()
                x = solver.solve(b)
                solve_s.append(time.perf_counter() - t1)
                check_solution(a, x, b)
            for key in ("time_to_solution_s", "factorize_s", "factor_nnz"):
                self.rec.sample(key, out[key])
            for t in solve_s:
                self.rec.sample("solve_s", t)
        self.rec.operation(op)

    def _companion_analyze(self) -> None:
        """A fresh ``SparseSolver.analyze()`` of the workload's matrix,
        so ``analyze_s`` is sampled across the run and not only at
        set-up; it must repeat the set-up's ordering and structure."""
        def op():
            solver = SparseSolver(self.solver.matrix, self.options)
            t0 = time.perf_counter()
            res = solver.analyze()
            elapsed = time.perf_counter() - t0
            ref = self.solver.analysis
            if (not np.array_equal(res.perm.perm, ref.perm.perm)
                    or res.symbol.nnz() != ref.symbol.nnz()):
                raise CheckFailed("analysis of the same pattern changed")
            self.rec.sample("analyze_s", elapsed)
        self.rec.operation(op)


class RefactorThreaded(_SerenaWorkload):
    """Serena analogue analysed once; each step swaps in new values and
    factorizes and solves on the threaded runtime (two workers)."""

    options = SolverOptions(factotype="ldlt", runtime="threaded",
                            n_workers=N_WORKERS)
    #: Steps per round (one companion cell per round).
    steps = 2

    def round(self, companions: bool) -> None:
        for _ in range(self.steps):
            self.n_round += 1
            self._refactor_step(self.solver, 1, self.n_round)
            self.rec.close_unit()
        if companions:
            self._companion_cell(self.solver)
            self._companion_analyze()


class Simulate(_SerenaWorkload):
    """Paper-figure cells on the Serena analogue: the Fig.-4 machine
    cells and the fan-in / fan-out distributed cells."""

    main_metric = "sim_cell_s"
    #: Determinism is checked by repeating every cell in a later round.
    min_rounds = 2
    #: Companions per round: sequential refactor steps, right-hand
    #: sides solved per step, and fresh analyses.
    companion_steps = 4
    companion_solves = 5
    companion_analyses = 2

    def setup(self) -> None:
        super().setup()
        self.makespans: dict[tuple, float] = {}

    def _deterministic(self, key: tuple, makespan: float) -> None:
        first = self.makespans.setdefault(key, makespan)
        if first != makespan:
            raise CheckFailed(
                f"cell {key}: makespan {makespan!r} != {first!r} on repeat")

    def round(self, companions: bool) -> None:
        self.n_round += 1
        symbol = self.solver.analysis.symbol
        dtype = self.solver.matrix.values.dtype
        for cell in FIG4_CELLS:
            def op(cell=cell):
                host, makespan = self._machine_cell(symbol, "ldlt", dtype, *cell)
                self._deterministic(cell, makespan)
                self.rec.sample("sim_cell_s", host)
            self.rec.operation(op)
            self.rec.close_unit()
        couples = repro.dag.update_couples(symbol)
        for fanin in DIST_CELLS:
            def op(fanin=fanin):
                t0 = time.perf_counter()
                owner = repro.distributed.map_cblks(symbol, DIST_NODES,
                                                    factotype="ldlt")
                cluster = repro.distributed.ClusterSpec(
                    n_nodes=DIST_NODES, cores_per_node=CORES)
                res = repro.distributed.simulate_distributed(
                    symbol, owner, cluster, factotype="ldlt", dtype=dtype,
                    fanin=fanin, collect_trace=True)
                host = time.perf_counter() - t0
                check_distributed_schedule(symbol, couples, res.trace,
                                           n_nodes=DIST_NODES)
                self._deterministic(("distributed", fanin), res.makespan)
                self.rec.sample("sim_cell_s", host)
            self.rec.operation(op)
            self.rec.close_unit()
        if companions:
            # The set-up solver is sequential: a refactor step with it is
            # the host's real time to solution for the simulated system.
            for i in range(self.companion_steps):
                self._refactor_step(self.solver, 3,
                                    self.n_round * self.companion_steps + i,
                                    solves=self.companion_solves)
            for _ in range(self.companion_analyses):
                self._companion_analyze()


WORKLOADS = {
    "oneshot": OneShot,
    "refactor-threaded": RefactorThreaded,
    "simulate": Simulate,
}
