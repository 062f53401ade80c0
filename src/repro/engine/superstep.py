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
from repro.core.kvstream import KEY_DTYPE, KVArray
from repro.engine.api import VertexProgram
from repro.graph.formats import FlashCSR
from repro.graph.vertexdata import VertexArray


#: Most edges one of :func:`push`'s batches of update pairs covers.
#: Host-only: every edge read is charged before a batch is built and the
#: sorter cuts its chunks at ``chunk_bytes`` whatever the batch boundaries,
#: so this bounds host memory and never moves a simulated number.
PUSH_EDGES_PER_BATCH = 1 << 16


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
        active_values = np.asarray(finalized)[mask]
        # The push below holds this chunk's active pairs, nothing else of it.
        del chunk, old_values, old_steps, finalized, mask
        if len(active_keys) == 0:
            continue
        overlay.add(KVArray(active_keys, active_values))
        activated += len(active_keys)
        if on_active is not None:
            on_active(active_keys, active_values)
    overlay.close()
    return activated


def edge_batches(degrees: np.ndarray) -> Iterator[tuple[int, int]]:
    """Cut a run of vertices with these out-degrees into consecutive
    ``(lo, hi)`` batches of at most ``PUSH_EDGES_PER_BATCH`` edges; a vertex
    with more edges than that is a batch of its own."""
    edge_ends = np.cumsum(degrees)
    total = int(edge_ends[-1])
    lo, done = 0, 0
    while done < total:
        if total - done <= PUSH_EDGES_PER_BATCH:
            yield lo, len(degrees)
            return
        hi = int(np.searchsorted(edge_ends, done + PUSH_EDGES_PER_BATCH, side="right"))
        hi = max(hi, int(np.searchsorted(edge_ends, done, side="right")) + 1)
        yield lo, hi
        lo, done = hi, int(edge_ends[hi - 1])


def push(graph: FlashCSR, program: VertexProgram, backend, sink,
         active_keys: np.ndarray, active_values: np.ndarray) -> None:
    """Stream the active vertices' out-edges through the edge program into
    ``sink``: one update pair per traversed edge.

    The edge (and weight) reads are issued and charged first, each as one
    gather; the pairs then reach the sink in one ``add`` of
    :func:`edge_batches`-sized batches, each built from the fetched pages
    only when the sink asks for it, so a superstep holds one batch of update
    pairs, never all of them.
    """
    starts, ends = graph.index_lookup(active_keys)
    degrees = ends - starts
    targets = graph.edges_for(starts, ends)
    if targets.total == 0:
        return
    weights = graph.weights_for(starts, ends) if program.uses_weights else None
    del starts, ends
    per_vertex = None
    if weights is None:
        per_vertex = program.vertex_messages(
            active_values, active_keys, degrees.astype(np.uint64))
    value_dtype = np.dtype(program.value_dtype)

    def batches() -> Iterator[KVArray]:
        for lo, hi in edge_batches(degrees):
            counts = degrees[lo:hi]
            if per_vertex is not None:
                messages = np.repeat(per_vertex[lo:hi], counts)
            else:
                messages = program.edge_program(
                    np.repeat(active_values[lo:hi], counts),
                    np.repeat(active_keys[lo:hi], counts),
                    None if weights is None else weights.take(lo, hi),
                    np.repeat(counts, counts).astype(np.uint64))
            yield KVArray(targets.take(lo, hi),
                          np.asarray(messages, dtype=value_dtype))

    sink.add(batches())
    backend.charge_edge_stream(
        sink.clock, targets.total * (KEY_DTYPE.itemsize + value_dtype.itemsize))


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
