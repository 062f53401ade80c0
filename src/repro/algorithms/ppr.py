"""Personalized PageRank through external sort-reduce.

Personalized PageRank replaces PageRank's uniform teleport with a jump back
to a single source vertex: ``r = (1-d)·e_s + d·AᵀD⁻¹r``.  It is the standard
similarity/recommendation primitive on the paper's motivating social-network
workloads, and it exercises sort-reduce with a *growing* sparse active set —
mass spreads outward from the source superstep by superstep, unlike
PageRank's dense all-active iterations.

Each superstep pushes through the engine's push kernel and reduces through
its reduce kernel (:mod:`repro.engine.superstep`); the scan of ``newV`` is
this module's own — the one exception to the engine's single scan: its
finalize depends on the vertex *key* (the source-teleport) and its stop rule
is global (the largest rank change), neither expressible in
:class:`~repro.engine.api.VertexProgram` without two more hooks nothing else
would use.  A zero seed update for the source rides along in every superstep
so the teleport mass is always applied, even when no edge points back at it.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.reference import DAMPING
from repro.core.kvstream import KVArray
from repro.core.reduce_ops import SUM
from repro.engine.engine import GraFBoostEngine, RunResult, SuperstepMetrics
from repro.engine.superstep import push, reduce_into
from repro.graph.vertexdata import VertexArray

#: The run stops once no vertex's rank moves by more than this.
TOL = 1e-10


def run_personalized_pagerank(engine: GraFBoostEngine, source: int,
                              iterations: int) -> RunResult:
    """Personalized PageRank from ``source``; stops early once no vertex's
    rank moves by more than ``TOL`` in an iteration."""
    if not 0 <= source < engine.num_vertices:
        raise ValueError(f"source {source} out of range [0, {engine.num_vertices})")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    clock = engine.clock
    vertices = VertexArray(engine.store, engine.num_vertices, np.dtype("<f8"), 0.0)
    result = RunResult(algorithm="personalized-pagerank", vertices=vertices)
    run_start = clock.elapsed_s
    # Supplies the push kernel's messages: rank / out-degree per edge.
    program = PageRankProgram(engine.num_vertices)
    source_key = np.array([source], dtype=np.uint64)

    def teleport_scan(newv, iteration: int, sink=None) -> tuple[int, float]:
        """Finalize with the source-teleport, stage into ``V`` and (given a
        sink) push; returns (vertices staged, largest rank change)."""
        cursor = vertices.cursor()
        overlay = vertices.overlay_writer(iteration)
        staged, max_change = 0, 0.0
        for chunk in newv:
            if len(chunk) == 0:
                continue
            old_values, _steps = cursor.lookup(chunk.keys)
            teleport = np.where(chunk.keys == np.uint64(source), 1.0 - DAMPING, 0.0)
            ranks = teleport + DAMPING * chunk.values
            max_change = max(max_change, float(np.abs(ranks - old_values).max()))
            overlay.add(KVArray(chunk.keys, ranks))
            staged += len(chunk)
            if sink is not None:
                push(engine.graph, program, engine.backend, sink, chunk.keys, ranks)
        overlay.close()
        if sink is not None:
            # The source's teleport must apply every iteration even when no
            # edge reaches back: a zero-mass seed keeps it in the next newV.
            sink.add(KVArray(source_key, np.zeros(1)))
        return staged, max_change

    # Iteration 0's "incoming mass", chosen so the scan's finalize yields
    # exactly 1.0 at the source: the full unit of teleport probability.
    prev_run = None
    prev_chunks = iter([KVArray(source_key,
                                np.array([1.0 / DAMPING - (1.0 - DAMPING) / DAMPING],
                                         dtype=np.float64))])
    for iteration in range(iterations):
        checkpoint = clock.checkpoint()
        reducer = engine.make_reducer(SUM, np.float64, f"ppr-i{iteration}")
        new_run, (activated, max_change) = reduce_into(
            reducer, lambda sink: teleport_scan(prev_chunks, iteration, sink))
        if prev_run is not None:
            prev_run.delete()
        prev_run = new_run
        result.sort_stats.append(reducer.stats)
        result.supersteps.append(SuperstepMetrics(
            superstep=iteration, activated=activated,
            traversed_edges=reducer.stats.total_input_pairs - 1,  # less the seed
            update_pairs=reducer.stats.total_input_pairs,
            reduced_pairs=prev_run.num_records,
            elapsed_s=checkpoint.elapsed_s,
            flash_busy_s=checkpoint.busy_s("flash"),
        ))
        vertices.maybe_compact()
        prev_chunks = prev_run.chunks()
        if iteration > 0 and max_change < TOL:
            break

    teleport_scan(prev_run.chunks(), len(result.supersteps))  # fold the last newV into V
    prev_run.delete()
    result.elapsed_s = clock.elapsed_s - run_start
    return result
