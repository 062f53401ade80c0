"""The superstep loop of §III-C, once: Algorithms 2, 3 and 4 as three kernels.

Every execution strategy is one pass over the previous superstep's ``newV``
(:func:`scan`), an expansion of the active list into update pairs
(:func:`push`), and a reduction of those pairs into the next ``newV``
(:func:`reduce_into`).  The strategies differ only in where the active list
comes from and which sink reduces the updates — see
:mod:`repro.engine.modes` for the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.external import RunHandle, SortReduceStats
from repro.core.kvstream import KVArray
from repro.engine.api import VertexProgram
from repro.graph.formats import FlashCSR
from repro.graph.vertexdata import VertexArray


@dataclass
class SuperstepOutcome:
    """What one superstep produced."""

    new_run: RunHandle
    sort_stats: SortReduceStats
    activated: int
    traversed_edges: int
    update_pairs: int


def scan(vertices: VertexArray, program: VertexProgram,
         newv: Iterator[KVArray], superstep: int,
         on_active: Callable[[np.ndarray, np.ndarray], None] | None = None) -> int:
    """One sequential pass over ``newV``: finalize each reduced update
    against its old value in ``V``, decide activity, and stage the active
    vertices' finalized values into ``V``'s overlay for this superstep.

    ``on_active(keys, values)`` receives each chunk's active vertices as
    they are found — Algorithm 3's lazy evaluation, which saves the write
    and read-back of a materialized active list.  Returns how many vertices
    activated.
    """
    cursor = vertices.cursor()
    overlay = vertices.overlay_writer(superstep)
    activated = 0
    for chunk in newv:
        if len(chunk) == 0:
            continue
        old_values, old_steps = cursor.lookup(chunk.keys)
        finalized = program.finalize(chunk.values, old_values)
        mask = program.is_active(finalized, old_values, old_steps, superstep)
        active_keys = chunk.keys[mask]
        if len(active_keys) == 0:
            continue
        active_values = np.asarray(finalized)[mask]
        overlay.add(KVArray(active_keys, active_values))
        activated += len(active_keys)
        if on_active is not None:
            on_active(active_keys, active_values)
    overlay.close()
    return activated


def push(graph: FlashCSR, program: VertexProgram, backend, sink,
         active_keys: np.ndarray, active_values: np.ndarray) -> None:
    """Stream the active vertices' out-edges through the edge program into
    ``sink``: one update pair per traversed edge."""
    starts, ends = graph.index_lookup(active_keys)
    degrees = ends - starts
    targets = graph.edges_for(starts, ends)
    if len(targets) == 0:
        return
    weights = graph.weights_for(starts, ends) if program.uses_weights else None
    per_vertex = None
    if weights is None:
        per_vertex = program.vertex_messages(
            active_values, active_keys, degrees.astype(np.uint64))
    if per_vertex is not None:
        messages = np.repeat(per_vertex, degrees)
    else:
        src_values = np.repeat(active_values, degrees)
        src_ids = np.repeat(active_keys, degrees)
        src_degrees = np.repeat(degrees, degrees).astype(np.uint64)
        messages = program.edge_program(src_values, src_ids, weights, src_degrees)
    update = KVArray(targets, np.asarray(messages, dtype=program.value_dtype))
    sink.add(update)
    backend.charge_edge_stream(sink.clock, update.nbytes)


def reduce_into(sink, produce: Callable):
    """Run ``produce(sink)`` and finish the sink into its sorted, reduced
    run; returns ``(run, produce's result)``.

    If anything fails (device error, worker death, bad program output) the
    sink's DRAM buffer and run files are released before the typed error
    propagates.  A ``BaseException`` — an injected power loss — passes
    untouched: the store is dead and its sealed runs are what recovery needs.
    """
    try:
        produced = produce(sink)
        return sink.finish(), produced
    except Exception:
        sink.close()
        raise
