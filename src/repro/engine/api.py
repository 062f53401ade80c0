"""The vertex-program interface (Algorithm 1's vocabulary, vectorized).

A graph algorithm is expressed as a per-edge program, a reduction operator
and two per-vertex functions:

* the per-edge program — combine the source vertex's value with the edge
  property into an update for the destination.  A program that sends the
  same update along every out-edge of a vertex (PageRank, BFS, CC) states
  it once per vertex, :meth:`VertexProgram.vertex_messages`; one whose
  update reads the edge's weight (SSSP) states it per edge,
  :meth:`VertexProgram.edge_program`.
* ``reduce_op`` — *vertex_update*: the binary associative function that
  merges updates targeting the same vertex; this is what sort-reduce
  interleaves into its merge phases.
* :meth:`VertexProgram.finalize` — per-vertex, after reduction (PageRank's
  dampening).
* :meth:`VertexProgram.is_active` — whether the finalized value activates
  the vertex for the next superstep.

All methods are vectorized over numpy arrays — an element-at-a-time API at
these data volumes would make a pure-Python reproduction unusable.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.kvstream import KVArray
from repro.core.reduce_ops import ReduceOp

#: Vertices per chunk of the vertex list generator's stream.
ACTIVE_CHUNK_RECORDS = 1 << 16


class VertexProgram:
    """Base class for push-style vertex programs.

    Subclasses set :attr:`value_dtype`, :attr:`reduce_op`,
    :attr:`default_value` and override one of :meth:`vertex_messages` and
    :meth:`edge_program`, and :meth:`finalize` and :meth:`is_active` where
    the pass-through and always-active defaults do not fit.
    """

    #: Human-readable algorithm name (used in reports).
    name = "vertex-program"
    #: dtype of vertex values and update messages.
    value_dtype: np.dtype = np.dtype("<u8")
    #: vertex_update — must be binary associative (§III-A).
    reduce_op: ReduceOp
    #: Initial value of every vertex in ``V``.
    default_value: object = 0
    #: Whether edge_program consumes edge weights.
    uses_weights = False

    # ------------------------------------------------------------ the program

    def edge_program(self, src_values: np.ndarray, src_ids: np.ndarray,
                     edge_weights: np.ndarray | None,
                     src_degrees: np.ndarray) -> np.ndarray:
        """Per-edge update values, for a program whose
        :meth:`vertex_messages` is None.

        All inputs are aligned per-edge arrays: the source vertex's value and
        id, the edge weight (None for unweighted graphs), and the source's
        out-degree (PageRank's ``numNeighbors``).
        """
        raise NotImplementedError

    def vertex_messages(self, values: np.ndarray, ids: np.ndarray,
                        degrees: np.ndarray) -> np.ndarray | None:
        """Per-active-vertex message value, or None when updates are per-edge.

        Many programs send the same value along every out-edge of a vertex
        (PageRank: value/degree; BFS: the source id; CC: the label).
        Returning that per-vertex array lets the engine expand it with a
        single repeat instead of materializing per-edge source value/id/
        degree arrays first.  Programs whose updates depend on the individual
        edge (weights) keep the default None and override
        :meth:`edge_program`.
        """
        return None

    def finalize(self, new_values: np.ndarray, old_values: np.ndarray) -> np.ndarray:
        """Combine the reduced update with the previous vertex value."""
        return new_values

    def is_active(self, finalized: np.ndarray, old_values: np.ndarray,
                  old_steps: np.ndarray, superstep: int) -> np.ndarray:
        """Mask of vertices that activate for the next superstep."""
        return np.ones(len(finalized), dtype=bool)

    # ----------------------------------------- custom active lists (Algorithm 4)

    def active_list_marker(self, superstep: int):
        """``None`` when the active list is the scan's own output — the
        vertices of ``newV`` that pass :meth:`is_active` (Algorithms 2/3).

        A program whose active list is *not* a subset of ``newV``
        (Algorithm 4) returns a callable ``mark(keys, values)`` instead.
        The engine hands it every chunk of changed vertices during the scan
        of ``newV`` and afterwards pushes from :meth:`sweep_active_list`,
        reading each swept vertex's current value from ``V``.  Called once
        per superstep, before the scan — the place to reset marking state.
        """
        return None

    def sweep_active_list(self) -> Iterator[np.ndarray]:
        """The marked active list as ascending sorted key chunks (only
        called when :meth:`active_list_marker` returned a marker)."""
        raise NotImplementedError

    # --------------------------------------------------------------- kickoff

    def initial_updates(self, num_vertices: int) -> Iterator[KVArray]:
        """The ``newV`` stream that seeds superstep 0.

        Default: every vertex active with the default value (the hardware
        vertex list generator of §IV-D).  :class:`SingleSourceProgram`
        (BFS, SSSP) seeds its root alone.
        """
        return all_active_chunks(num_vertices, self.value_dtype, self.default_value)

    def initial_frontier_hint(self, num_vertices: int) -> int:
        """How many updates :meth:`initial_updates` will emit.

        The adaptive execution mode needs superstep 0's frontier size
        before consuming the (single-pass) update stream.  The default
        matches the dense all-active kickoff; :class:`SingleSourceProgram`
        overrides it alongside :meth:`initial_updates`.
        """
        return num_vertices

    # ------------------------------------------------------------- namespacing

    def namespaced(self, label: str) -> "VertexProgram":
        """Give this program instance a job-scoped name.

        Every file a run writes — sort-reduce runs, vertex data, the
        checkpoint pair — sits under :func:`run_prefix`, ``<name>/``, so
        two concurrent runs of the *same* algorithm over one store must not
        share a name.  The service layer calls ``program.namespaced(job_id)``
        to keep each job's on-flash footprint (and crash/resume state)
        disjoint, and to let one purge of ``<name>/`` give it all back.
        Returns ``self`` for chaining.
        """
        if not label or any(c in label for c in ":/ "):
            raise ValueError(f"bad namespace label {label!r}")
        self.name = f"{self.name}@{label}"
        return self


def run_prefix(program: VertexProgram) -> str:
    """``<program name>/``: the head of every store file a run of ``program``
    writes.  A name holding ``/`` is refused: a purge of one program could
    then reach another's files."""
    if "/" in program.name:
        raise ValueError(f"program name {program.name!r} contains '/', "
                         f"which ends a program's name on flash")
    return program.name + "/"


def all_active_chunks(num_vertices: int, value_dtype: np.dtype,
                      value) -> Iterator[KVArray]:
    """Stream (k, value) for every vertex — the hardware vertex list
    generator module: "emits a stream of active vertex key-value pairs with
    uniform values" (§IV-D).  Generated, not read, so it costs no flash I/O.
    """
    for start in range(0, num_vertices, ACTIVE_CHUNK_RECORDS):
        stop = min(start + ACTIVE_CHUNK_RECORDS, num_vertices)
        keys = np.arange(start, stop, dtype=np.uint64)
        values = np.full(stop - start, value, dtype=np.dtype(value_dtype))
        yield KVArray(keys, values)


class SingleSourceProgram(VertexProgram):
    """A program seeded at one root vertex (BFS, SSSP): superstep 0 pushes
    from the root alone, with ``seed`` as its value."""

    def __init__(self, root: int, seed):
        if root < 0:
            raise ValueError(f"root must be non-negative, got {root}")
        self.root = int(root)
        self.seed = seed

    def initial_updates(self, num_vertices: int) -> Iterator[KVArray]:
        if self.root >= num_vertices:
            raise ValueError(f"root {self.root} out of range [0, {num_vertices})")
        return iter([KVArray(np.array([self.root], dtype=np.uint64),
                             np.array([self.seed], dtype=np.dtype(self.value_dtype)))])

    def initial_frontier_hint(self, num_vertices: int) -> int:
        return 1
