"""Evaluation harness: runs (system × algorithm × dataset) cells and emits
the rows behind every table and figure of the paper's §V.

The figure and system-level scripts under ``benchmarks/`` run their cells
through this module: Fig 12, 13 and 15, Table II, power, crash and service
chaos (``bench_fig12``/``13``/``15``, ``bench_table2``, ``bench_power``,
``bench_crash``, ``bench_service_chaos``), as do ``repro run``/``serve``/
``compare`` and the layered benchmark.  The scripts that measure one
mechanism build their own stack, through
:func:`~repro.engine.config.make_system` or from its parts: Fig 14's
reduction ratios, the ablations, ``bench_chaos``, Table I and the
sort-reduce throughput.

Systems are addressed by the paper's names:

* ``GraFBoost`` / ``GraFBoost2`` / ``GraFSoft`` — the engines of this
  library (fully functional through the simulated flash stack).
* ``GraphLab`` / ``GraphLab5`` / ``FlashGraph`` / ``X-Stream`` /
  ``GraphChi`` — the baseline strategy models.

Every run returns a :class:`~repro.perf.outcome.WorkloadResult`, the
baselines' too; a DNF (out of memory, id-space or patience cutoff) carries
``elapsed_s = NaN`` exactly like the missing bars and ``*`` marks in the
figures.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import ANALYTICS
from repro.algorithms.bc import run_betweenness_centrality
from repro.baselines import BASELINE_ENGINES, SemiExternalEngine
from repro.baselines.base import DNF_CUTOFF_UNLIMITED
from repro.baselines.semiexternal import VERTEX_ID_SPACE
from repro.engine.config import make_system
from repro.flash.wear import WearReport
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DEFAULT_SCALE, build_graph
from repro.perf.outcome import WorkloadResult
from repro.perf.profiles import GB, GRAFBOOST, HardwareProfile, SERVER_SSD_ARRAY
from repro.service.scheduler import ServiceReport
import dataclasses

#: Fig 15 configuration: "GraFBoost also used only one flash card ...
#: matching 512 GB capacity and 1.2 GB/s bandwidth" (§V-D).
GRAFBOOST_ONE_CARD = dataclasses.replace(
    GRAFBOOST, name="GraFBoost-1card", flash_capacity=512 * GB,
    flash_read_bw=1.2 * GB, flash_write_bw=0.5 * GB)

GRAFBOOST_FAMILY = ("GraFBoost", "GraFBoost2", "GraFSoft")
_BASELINE_CLASSES = {cls.name: cls for cls in BASELINE_ENGINES}
BASELINE_SYSTEMS = tuple(_BASELINE_CLASSES)
#: The algorithms of the figure matrix: the kinds the baselines model.
ALGORITHMS = tuple(name for name, analytic in ANALYTICS.items()
                   if analytic.baseline_state_bytes is not None)
#: The algorithms that run under a crash plan: each is one vertex program
#: with a checkpoint protocol.  Betweenness centrality's two phases would
#: need per-phase checkpoint names.
CRASH_ALGORITHMS = tuple(name for name in ALGORITHMS
                         if ANALYTICS[name].factory is not None)


def default_root(graph: CSRGraph) -> int:
    """First vertex with outbound edges — the BFS/BC source."""
    degrees = graph.out_degrees()
    nonzero = np.flatnonzero(degrees > 0)
    if len(nonzero) == 0:
        raise ValueError("graph has no edges")
    return int(nonzero[0])


def _load_graph(system, graph: CSRGraph):
    """Serialize ``graph`` into the stack's store, across power losses.

    A loss mid-write leaves partial ``graph:`` files behind; recovery
    scrubs them and the write starts over.
    """
    def scrub() -> None:
        for name in list(system.store.list_files()):
            if name.startswith("graph:"):
                system.store.delete(name)

    return system.run_recovering(lambda: system.load_graph(graph),
                                 reload=scrub)


def run_grafboost_system(kind: str, graph: CSRGraph, algorithm: str,
                         scale: float = DEFAULT_SCALE,
                         dram_bytes: int | None = None,
                         profile: HardwareProfile | None = None,
                         dataset: str = "?",
                         pagerank_iterations: int = 1,
                         faults=None, crashes=None,
                         checkpoint_every: int = 0,
                         sanitize: bool | None = None,
                         workers: int = 1,
                         mode: str = "sortreduce") -> WorkloadResult:
    """Run one of the GraFBoost-family engines on an algorithm.

    ``faults`` (a :class:`~repro.flash.faults.FaultPlan`) makes the run a
    seeded chaos test; its recovery counters land on the result.
    ``crashes`` (a :class:`~repro.flash.faults.CrashPlan`) additionally
    injects power losses.  The stack is then built durable and every loss
    is answered by :meth:`SystemConfig.run_recovering`: remount the store
    (journal replay and FTL recovery charge real simulated time against the
    shared clock) and re-run the algorithm, which auto-resumes from the
    latest checkpoint.  Op indices are device-lifetime, so remounts and
    re-execution *drain* the finite schedule even with
    ``checkpoint_every=0``, and the final vertex values are bit-identical
    to an uninterrupted run.  Only :data:`CRASH_ALGORITHMS` run under a
    crash plan.  With no crash plan nothing is ever caught and this is the
    plain run.

    ``sanitize`` attaches FlashSan to the device (``None`` defers to
    ``REPRO_SANITIZE``).  ``workers`` turns on parallel sort-reduce;
    results and simulated time are bit-identical for any worker count.
    ``mode`` picks the engine execution mode (see
    :mod:`repro.engine.modes`) — the result carries the per-superstep
    ``mode_trace``.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if crashes is not None and algorithm not in CRASH_ALGORITHMS:
        raise ValueError(f"crash injection supports "
                         f"{'/'.join(CRASH_ALGORITHMS)}, not {algorithm!r}")
    system = make_system(kind.lower(), scale, dram_bytes=dram_bytes,
                         num_vertices_hint=graph.num_vertices, profile=profile,
                         faults=faults, crashes=crashes,
                         sanitize=sanitize, workers=workers, mode=mode)
    start_s = system.clock.elapsed_s
    flash_graph = _load_graph(system, graph)
    root = default_root(graph)
    factory = ANALYTICS[algorithm].factory

    def run_algorithm():
        # After a remount, continue from the newest checkpoint (if any).
        engine = system.engine_for(flash_graph, graph.num_vertices,
                                   checkpoint_every=checkpoint_every,
                                   auto_resume=system.remounts > 0)
        if factory is None:
            return run_betweenness_centrality(engine, root)
        program, limit = factory(graph.num_vertices, root,
                                 {"iters": pagerank_iterations})
        return engine.run(program, max_supersteps=limit)

    def reattach() -> None:
        nonlocal flash_graph
        flash_graph = system.reattach_graph(flash_graph)

    result = system.run_recovering(run_algorithm, reload=reattach)

    if factory is None:
        # Both phases: the forward BFS supersteps *and* the backtracing
        # sort-reduce passes (each one level of the BFS tree).
        forward_modes = [s.mode for s in result.forward.supersteps]
        mode_trace = forward_modes + list(result.backtrace_modes)
        mode_phases = [("forward", len(forward_modes)),
                       ("backtrace", len(result.backtrace_modes))]
        steps = result.forward.supersteps
    else:
        steps = result.supersteps
        mode_trace = [s.mode for s in steps]
        mode_phases = None
    clock = system.clock
    device = system.device
    return WorkloadResult(
        system=kind, algorithm=algorithm, dataset=dataset, completed=True,
        # Under a crash plan the cell's time spans graph load, every
        # interrupted attempt and every remount, not just the last attempt.
        elapsed_s=(result.elapsed_s if crashes is None
                   else clock.elapsed_s - start_s),
        supersteps=result.num_supersteps,
        traversed_edges=result.total_traversed_edges,
        cpu_busy_s=clock.busy_s("cpu") + clock.busy_s("accel"),
        flash_bytes=clock.bytes_moved("flash"),
        memory_bytes=system.memory.peak,
        final_values=result.final_values() if crashes is not None else None,
        mode_trace=mode_trace,
        mode_phases=mode_phases,
        superstep_metrics=list(steps),
        faults=device.faults.stats if device.faults is not None else None,
        crashes=device.crashes.stats if device.crashes is not None else None,
        remounts=system.remounts,
        wear=WearReport.from_device(device),
    )


def run_baseline_system(name: str, graph: CSRGraph, algorithm: str,
                        profile: HardwareProfile,
                        scale: float = DEFAULT_SCALE,
                        cutoff_s: float = DNF_CUTOFF_UNLIMITED,
                        dataset: str = "?") -> WorkloadResult:
    """Run one baseline strategy model on an algorithm."""
    try:
        engine_cls = _BASELINE_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(_BASELINE_CLASSES))
        raise KeyError(f"unknown baseline {name!r}; known: {known}") from None
    if engine_cls is SemiExternalEngine:
        # FlashGraph's 32-bit ids hold at most 2^32 - 1 vertices (scaled):
        # WDC (~0.7 * 2^32) loads, kron32 (exactly 2^32) cannot (Fig 12a).
        engine = SemiExternalEngine(
            graph, profile, cutoff_s=cutoff_s,
            max_vertices=max(1, int(VERTEX_ID_SPACE * scale) - 1))
    else:
        engine = engine_cls(graph, profile, cutoff_s=cutoff_s)
    result = engine.run(algorithm, root=default_root(graph))
    result.dataset = dataset
    return result


def run_cell(system: str, graph: CSRGraph, algorithm: str,
             scale: float = DEFAULT_SCALE,
             server_profile: HardwareProfile | None = None,
             cutoff_s: float = DNF_CUTOFF_UNLIMITED,
             dataset: str = "?",
             grafboost_profile: HardwareProfile | None = None,
             faults=None, crashes=None,
             checkpoint_every: int = 0,
             sanitize: bool | None = None,
             workers: int = 1,
             mode: str = "sortreduce") -> WorkloadResult:
    """Dispatch one (system, algorithm) cell with shared conventions.

    ``server_profile`` is the host every *software* system runs on (the
    32-core server, possibly with a Fig 13 DRAM override); the GraFBoost
    accelerator stacks always use their own device profiles.
    """
    if server_profile is None:
        server_profile = SERVER_SSD_ARRAY.scaled(scale)
    if system in GRAFBOOST_FAMILY:
        # GraFBoost's accelerator memory never depends on host DRAM; GraFSoft
        # is capped at its own 16 GB regardless of the machine (§I).
        # ``grafboost_profile`` overrides the storage device for the
        # accelerated systems (Fig 15 uses a single flash card).
        profile = grafboost_profile if system != "GraFSoft" else None
        return run_grafboost_system(system, graph, algorithm, scale=scale,
                                    dataset=dataset, profile=profile,
                                    faults=faults, crashes=crashes,
                                    checkpoint_every=checkpoint_every,
                                    sanitize=sanitize, workers=workers,
                                    mode=mode)
    return run_baseline_system(system, graph, algorithm, server_profile,
                               scale=scale, cutoff_s=cutoff_s, dataset=dataset)


def run_service_cell(kind: str, graph: CSRGraph, jobs: list,
                     scale: float = DEFAULT_SCALE,
                     quotas=None, config=None,
                     dataset: str = "?",
                     faults=None, crashes=None,
                     sanitize: bool | None = None,
                     workers: int = 1,
                     mode: str = "sortreduce") -> ServiceReport:
    """Run a multi-tenant service workload on a GraFBoost-family stack.

    ``jobs`` is a list of job specs (strings in the CLI syntax or
    :class:`~repro.service.JobSpec` instances) submitted before the
    scheduler starts.  The stack is always built durable: job state lives in
    an on-flash journal, so the cell survives ``crashes`` power-loss
    injection with a bit-identical scheduler trace.  Returns the scheduler's
    report, whose ``elapsed_s`` and ``flash_bytes`` span the graph load and
    the whole run.  ``dataset`` is accepted, like :func:`run_cell`'s, but
    the report does not carry it.
    """
    if kind not in GRAFBOOST_FAMILY:
        raise ValueError(
            f"service cells need a GraFBoost-family system, not {kind!r}")
    system = make_system(kind.lower(), scale,
                         num_vertices_hint=graph.num_vertices,
                         faults=faults, crashes=crashes, durable=True,
                         sanitize=sanitize, workers=workers, mode=mode)
    start_s = system.clock.elapsed_s
    flash_graph = _load_graph(system, graph)
    service = system.service_for(flash_graph, graph.num_vertices,
                                 config=config, quotas=quotas,
                                 default_root=default_root(graph))
    service.submit_all(jobs)
    report = service.run()
    report.elapsed_s = system.clock.elapsed_s - start_s
    report.flash_bytes = system.clock.bytes_moved("flash")
    return report


def run_matrix(systems: list[str], algorithms: list[str], dataset: str,
               scale: float = DEFAULT_SCALE, seed: int = 1,
               server_profile: HardwareProfile | None = None,
               patience_factor: float = 50.0) -> list[WorkloadResult]:
    """Run a full figure matrix: all systems on all algorithms of a dataset.

    The experiment's patience (the paper stopped runs "taking too long"
    manually) is ``patience_factor`` times the slowest completed
    GraFBoost-family time per algorithm.
    """
    graph = build_graph(dataset, scale, seed=seed)
    results: list[WorkloadResult] = []
    for algorithm in algorithms:
        reference_times: list[float] = []
        for system in systems:
            if system in GRAFBOOST_FAMILY:
                cell = run_cell(system, graph, algorithm, scale=scale,
                                server_profile=server_profile, dataset=dataset)
                reference_times.append(cell.elapsed_s)
                results.append(cell)
        cutoff = (max(reference_times) * patience_factor
                  if reference_times else DNF_CUTOFF_UNLIMITED)
        for system in systems:
            if system not in GRAFBOOST_FAMILY:
                results.append(run_cell(system, graph, algorithm, scale=scale,
                                        server_profile=server_profile,
                                        cutoff_s=cutoff, dataset=dataset))
    return results


def results_by(results: list[WorkloadResult], algorithm: str) -> dict[str, WorkloadResult]:
    """Index one algorithm's results by system name."""
    return {r.system: r for r in results if r.algorithm == algorithm}
