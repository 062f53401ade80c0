"""Execution modes: each strategy is an active-list source and a sink.

GraFBoost's sort-reduce wins on the paper's scenario — sparse frontiers over
vertex data much larger than DRAM — but FlashGraph-style *semi-external*
execution is faster whenever the vertex data fits in DRAM, and
X-Stream-style *dense scans* beat per-vertex gathers once most vertices are
active.  All of them are the one loop of :mod:`repro.engine.superstep`
(scan ``newV`` → push the active list → reduce into the next ``newV``) on
the same simulated flash stack, SimClock, checkpoint protocol and
``--workers`` pool; a strategy only chooses where the active list comes from
and which sink reduces the updates:

==================  ==================================  =====================
strategy            active list                         sink
==================  ==================================  =====================
Algorithm 3 (lazy)  the scan's output, pushed inline    external sort-reducer
Algorithm 2         the scan's output, spooled to       external sort-reducer
(``lazy=False``)    ``A_i`` on flash and read back
``semiexternal``    as Algorithm 3                      :class:`DramAggregator`
``densescan``       staged into a dense mask, then one  external sort-reducer
                    sequential scan of the adjacency
Algorithm 4         the program's marked-and-swept      the mode's own
                    list (any mode)
==================  ==================================  =====================

An :class:`ExecutionMode` covers one superstep end to end and returns a
:class:`~repro.engine.superstep.SuperstepOutcome` whose ``new_run`` is a
sorted, reduced run file, so the engine driver (metrics, checkpoints,
quiescence) is mode-agnostic.  On top, :class:`AdaptivePolicy` picks a
static mode per superstep from stats the engine already tracks, and
:func:`charge_mode_switch` bills the cost of entering a mode to the sim
clock.  Decisions are pure functions of checkpointed state, so adaptive runs
stay bit-identical under ``--workers`` sweeps and crash/resume.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.external import MERGE_IO_BYTES, RunHandle, SortReduceStats
from repro.core.kvstream import KVArray
from repro.engine.superstep import (
    SCAN_EDGES_PER_CHUNK,
    SuperstepOutcome,
    push,
    reduce_into,
    scan,
)
from repro.flash.device import FlashError
from repro.graph.formats import OFFSET_DTYPE, TARGET_DTYPE, WEIGHT_DTYPE

#: Every selectable mode (``adaptive`` picks among the static ones).
MODES = ("sortreduce", "semiexternal", "densescan", "adaptive")
STATIC_MODES = ("sortreduce", "semiexternal", "densescan")

#: Frontier density above which per-vertex random edge reads degrade to a
#: sequential scan (shared with the FlashGraph baseline model).
DENSE_THRESHOLD = 0.3

#: Adaptive only commits to semi-external while the vertex table uses at
#: most this fraction of the DRAM budget, leaving headroom for the chunk
#: buffers the other modes need if a later superstep switches away.
SEMI_FIT_HEADROOM = 0.5


def semiexternal_footprint(num_vertices: int, value_dtype: np.dtype) -> int:
    """DRAM bytes the semi-external vertex table needs: one dense value
    slot plus one touched-mask byte per vertex."""
    return num_vertices * (np.dtype(value_dtype).itemsize + 1)


def charge_page_faults(clock, profile, swap: float, vertices_touched: int) -> int:
    """Charge the swap traffic of ``vertices_touched`` vertex-state accesses
    when a ``swap`` fraction of the state is beyond DRAM; returns the faults.

    Vertex updates arrive in edge order — effectively random — so a miss has
    no page locality: every out-of-core access faults a whole page in and
    writes a dirty one out (FlashGraph's Fig 13 degradation, shared by the
    baseline model and :class:`DramAggregator`).
    """
    faults = int(vertices_touched * swap)
    if faults <= 0:
        return 0
    nbytes = faults * profile.flash_page_bytes
    clock.charge("flash", faults * profile.flash_read_latency_s
                 + nbytes / profile.flash_read_bw, nbytes=nbytes, ops=faults)
    clock.charge("flash", faults * profile.flash_write_latency_s
                 + nbytes / profile.flash_write_bw, nbytes=nbytes, ops=faults)
    return faults


Consume = Callable[[np.ndarray, np.ndarray], None]


class ExecutionMode:
    """One way to run a superstep of ``program`` over ``engine``'s stack."""

    name = "mode"

    def __init__(self, engine, vertices, program):
        self.engine = engine
        self.vertices = vertices
        self.program = program
        self.graph = engine.graph
        self.store = engine.store
        self.backend = engine.backend
        self.memory = engine.memory

    def run_superstep(self, prev_newv: Iterator[KVArray],
                      superstep: int) -> SuperstepOutcome:
        raise NotImplementedError

    def _reducer(self, superstep: int):
        program = self.program
        return self.engine.make_reducer(program.reduce_op, program.value_dtype,
                                        f"{program.name}-s{superstep}")

    def _push_into(self, sink) -> Consume:
        return lambda keys, values: push(self.graph, self.program,
                                         self.backend, sink, keys, values)

    def _active_list(self, prev_newv: Iterator[KVArray], superstep: int,
                     consume: Consume) -> int:
        """Scan ``newV`` and feed this superstep's active list to
        ``consume(keys, values)`` chunk by chunk; returns its length."""
        program = self.program
        mark = program.active_list_marker(superstep)
        if mark is None:
            # Algorithm 3: the list is the scan's output, consumed in-pass.
            return scan(self.vertices, program, prev_newv, superstep, consume)
        # Algorithm 4: the scan only marks; the list is the program's sweep,
        # each vertex pushing its current value in V.
        scan(self.vertices, program, prev_newv, superstep, mark)
        cursor = self.vertices.cursor()
        activated = 0
        for keys in program.sweep_active_list():
            consume(keys, cursor.lookup(keys)[0])
            activated += len(keys)
        return activated

    def _outcome(self, sink, produce: Callable) -> SuperstepOutcome:
        """Reduce what ``produce(sink)`` (returning the activated count)
        feeds the sink.  Every traversed edge emits exactly one update pair."""
        new_run, activated = reduce_into(sink, produce)
        pairs = sink.stats.total_input_pairs
        return SuperstepOutcome(new_run=new_run, sort_stats=sink.stats,
                                activated=activated, traversed_edges=pairs,
                                update_pairs=pairs)


class SortReduceMode(ExecutionMode):
    """The paper's path: selective edge gathers into external sort-reduce."""

    name = "sortreduce"

    def run_superstep(self, prev_newv: Iterator[KVArray],
                      superstep: int) -> SuperstepOutcome:
        source = (self._active_list if self.engine.lazy
                  else self._spooled_active_list)
        return self._outcome(
            self._reducer(superstep),
            lambda sink: source(prev_newv, superstep, self._push_into(sink)))

    def _spooled_active_list(self, prev_newv: Iterator[KVArray], superstep: int,
                             consume: Consume) -> int:
        """Algorithm 2: materialize the active list A_i on flash, then
        consume it from the read-back — two extra I/O operations per active
        vertex vs Algorithm 3 (§III-C), kept for the lazy-evaluation ablation."""
        store = self.store
        name = f"{self.vertices.prefix}:active-{superstep}"
        rec_dtype = np.dtype([("k", "<u8"), ("v", self.program.value_dtype)])

        def spool(keys: np.ndarray, values: np.ndarray) -> None:
            records = np.empty(len(keys), dtype=rec_dtype)
            records["k"] = keys
            records["v"] = values
            store.append(name, records.tobytes())  # extra I/O #1

        activated = self._active_list(prev_newv, superstep, spool)
        if activated:
            store.seal(name)
            item = rec_dtype.itemsize
            per_chunk = max(1, (1 << 22) // item)
            for start in range(0, activated, per_chunk):
                n = min(per_chunk, activated - start)
                records = np.frombuffer(  # extra I/O #2
                    store.read(name, start * item, n * item), dtype=rec_dtype)
                consume(records["k"].copy(), records["v"].copy())
            store.delete(name)
        return activated


class DramAggregator:
    """A dense in-DRAM vertex-update table that quacks like a sort-reducer.

    ``add(kv)`` reduces each update batch straight into a per-vertex value
    array via the shared :meth:`ReduceOp.scatter_into` path — no run files,
    no external merging.  The table pins as much of the DRAM budget as is
    available; updates landing in the unpinned remainder fault whole pages
    in and out (:func:`charge_page_faults`, the FlashGraph model's thrash
    charge).  ``finish()`` emits the touched slots, already sorted by
    construction, as one sealed run file.
    """

    def __init__(self, mode: ExecutionMode, superstep: int):
        program = mode.program
        self.store = mode.store
        self.backend = mode.backend
        self.memory = mode.memory
        self.op = program.reduce_op
        self.value_dtype = np.dtype(program.value_dtype)
        n = max(mode.graph.num_vertices, mode.vertices.num_vertices)
        self.values = np.zeros(n, dtype=self.value_dtype)
        self.touched = np.zeros(n, dtype=bool)
        self.stats = SortReduceStats()
        self._batch_out = 0
        self.name = self.store.unique_name(
            f"{program.name}-s{superstep}") + ":run-0"
        footprint = semiexternal_footprint(n, self.value_dtype)
        self._mem_label = f"{self.name}:vertex-dram"
        pinned = footprint
        if self.memory is not None:
            pinned = min(footprint, self.memory.available)
            self.memory.allocate(self._mem_label, pinned)
        self._mem_allocated = self.memory is not None
        #: Fraction of the vertex table that did not fit in DRAM; accesses
        #: to it fault pages in and out (FlashGraph's Fig 13 degradation).
        self.swap = (footprint - pinned) / footprint if footprint else 0.0

    @property
    def clock(self):
        return self.store.device.clock

    def add(self, kv: KVArray | Iterable[KVArray]) -> None:
        """Reduce one unsorted update batch into the dense table.

        Every charge depends on the call's distinct-key count, so an
        iterable of batches (one :func:`push`) is joined and reduced as one.
        """
        if not isinstance(kv, KVArray):
            batches = [batch for batch in kv if len(batch)]
            if not batches:
                return
            kv = batches[0] if len(batches) == 1 else KVArray.concat(batches)
        if kv.value_dtype != self.value_dtype:
            raise ValueError(f"value dtype {kv.value_dtype} != {self.value_dtype}")
        if len(kv) == 0:
            return
        self.stats.total_input_pairs += len(kv)
        # Sorting + reducing the batch costs the same as a chunk sort of
        # equal volume; the dense scatter is random-access CPU work.
        self.backend.charge_chunk_sort(self.clock, kv.nbytes)
        distinct = self.op.scatter_into(self.values, self.touched,
                                        kv.keys, kv.values)
        self.stats.record(0, len(kv), distinct)
        self._batch_out += distinct
        profile = self.store.device.profile
        scatter_bytes = distinct * (8 + self.value_dtype.itemsize)
        self.clock.charge_pool(
            "cpu", scatter_bytes / profile.cpu_scatter_bw_per_thread,
            profile.cpu_threads)
        charge_page_faults(self.clock, profile, self.swap, distinct)

    def finish(self) -> RunHandle:
        """Emit the touched slots as one sorted, sealed run file."""
        store = self.store
        try:
            idx = np.flatnonzero(self.touched)
            n = len(idx)
            if n == 0:
                self.stats.record(1, self._batch_out, 0)
                return RunHandle(store, self.name, 0, self.value_dtype)
            out = KVArray(idx.astype(np.uint64), self.values[idx])
            per_chunk = max(1, MERGE_IO_BYTES // out.record_bytes)
            for start in range(0, n, per_chunk):
                store.append(self.name,
                             out.slice(start, min(start + per_chunk, n)).to_bytes())
            store.seal(self.name)
            # Folding the per-batch reductions into one table plays the
            # merge phase's role in the stats (Fig 14's written fractions).
            self.stats.record(1, self._batch_out, n)
            return RunHandle(store, self.name, n, self.value_dtype, level=1)
        finally:
            self._free()

    def close(self) -> None:
        """Error path: release DRAM and delete any partial run file."""
        self._free()
        try:
            if self.store.exists(self.name):
                self.store.delete(self.name)
        except FlashError:
            pass  # best-effort cleanup on an already-failing device

    def _free(self) -> None:
        if self._mem_allocated:
            self._mem_allocated = False
            self.memory.free(self._mem_label)


class SemiExternalMode(ExecutionMode):
    """Vertex data pinned in DRAM, selective edge I/O (FlashGraph-style).

    The edge side is the sort-reduce path's — the same coalesced index/edge
    gathers, the same edge-stream charge — but the update stream lands in a
    :class:`DramAggregator`, eliminating all intermediate run traffic.
    """

    name = "semiexternal"

    def run_superstep(self, prev_newv: Iterator[KVArray],
                      superstep: int) -> SuperstepOutcome:
        return self._outcome(
            DramAggregator(self, superstep),
            lambda sink: self._active_list(prev_newv, superstep,
                                           self._push_into(sink)))


class DenseScanMode(ExecutionMode):
    """Whole-adjacency streaming scan for dense frontiers (X-Stream-style).

    Stages the active list into a dense mask, then reads the index and edge
    files sequentially once, filters edges by source activity, and feeds the
    surviving updates to the ordinary external sort-reducer.  I/O volume is
    frontier-independent — the winning trade exactly when most vertices are
    active.
    """

    name = "densescan"

    def run_superstep(self, prev_newv: Iterator[KVArray],
                      superstep: int) -> SuperstepOutcome:
        n = self.graph.num_vertices
        active_mask = np.zeros(n, dtype=bool)
        values_dense = np.zeros(n, dtype=self.program.value_dtype)

        def stage(keys: np.ndarray, values: np.ndarray) -> None:
            idx = keys.astype(np.int64)
            active_mask[idx] = True
            values_dense[idx] = values

        def produce(sink) -> int:
            activated = self._active_list(prev_newv, superstep, stage)
            if activated:
                self._scan_edges(sink, active_mask, values_dense)
            return activated

        return self._outcome(self._reducer(superstep), produce)

    def _scan_edges(self, sink, active_mask: np.ndarray,
                    values_dense: np.ndarray) -> None:
        """One sequential pass over index + edges, pushing active updates."""
        program = self.program
        graph = self.graph
        store = self.store
        n = graph.num_vertices
        offsets = store.read_array(graph.index_file, OFFSET_DTYPE).astype(np.int64)
        degrees = np.diff(offsets)
        srcs_all = np.repeat(np.arange(n, dtype=np.int64), degrees)

        # Per-vertex message fast path, expanded to a dense lookup table so
        # each edge chunk is one fancy index instead of a per-edge call.
        msg_dense = None
        if not program.uses_weights:
            active_idx = np.flatnonzero(active_mask)
            per_vertex = program.vertex_messages(
                values_dense[active_idx], active_idx.astype(np.uint64),
                degrees[active_idx].astype(np.uint64))
            if per_vertex is not None:
                msg_dense = np.zeros(n, dtype=program.value_dtype)
                msg_dense[active_idx] = per_vertex

        for start in range(0, graph.num_edges, SCAN_EDGES_PER_CHUNK):
            cnt = min(SCAN_EDGES_PER_CHUNK, graph.num_edges - start)
            dsts = store.read_array(graph.edge_file, TARGET_DTYPE, start, cnt)
            weights = None
            if program.uses_weights:
                weights = store.read_array(graph.weight_file, WEIGHT_DTYPE,
                                           start, cnt)
            srcs = srcs_all[start:start + cnt]
            sel = active_mask[srcs]
            if not sel.any():
                continue
            src_sel = srcs[sel]
            if msg_dense is not None:
                messages = msg_dense[src_sel]
            else:
                messages = program.edge_program(
                    values_dense[src_sel], src_sel.astype(np.uint64),
                    weights[sel] if weights is not None else None,
                    degrees[src_sel].astype(np.uint64))
            update = KVArray(dsts[sel],
                             np.asarray(messages, dtype=program.value_dtype))
            sink.add(update)
            self.backend.charge_edge_stream(sink.clock, update.nbytes)


def build_modes(engine, vertices, program) -> dict[str, ExecutionMode]:
    """All static modes over one run's state (construction is charge-free)."""
    return {cls.name: cls(engine, vertices, program)
            for cls in (SortReduceMode, SemiExternalMode, DenseScanMode)}


class AdaptivePolicy:
    """Per-superstep mode choice from stats the engine already tracks.

    The decision inputs are all pure functions of checkpointed state — the
    incoming frontier size (the previous run's record count), the graph's
    shape, and the configured DRAM budget — so the trace is deterministic
    across worker counts and identical on crash/resume:

    1. vertex table fits comfortably in DRAM → ``semiexternal`` (no
       external sorting at all beats both scan strategies);
    2. dense frontier, or the selective gather would move at least as many
       bytes as one full scan → ``densescan``;
    3. otherwise → ``sortreduce`` (the paper's scenario: sparse frontier,
       vertex data out of core).
    """

    def __init__(self, num_vertices: int, num_edges: int,
                 value_dtype: np.dtype, dram_budget: int):
        self.num_vertices = max(1, num_vertices)
        self.avg_degree = num_edges / self.num_vertices
        self.scan_bytes = ((num_vertices + 1) * OFFSET_DTYPE.itemsize
                           + num_edges * TARGET_DTYPE.itemsize)
        self.footprint = semiexternal_footprint(num_vertices, value_dtype)
        self.dram_budget = dram_budget

    def choose(self, incoming: int) -> str:
        if self.footprint <= self.dram_budget * SEMI_FIT_HEADROOM:
            return "semiexternal"
        density = incoming / self.num_vertices
        gather_bytes = incoming * self.avg_degree * TARGET_DTYPE.itemsize
        if density >= DENSE_THRESHOLD or gather_bytes >= self.scan_bytes:
            return "densescan"
        return "sortreduce"


def charge_mode_switch(clock, profile, from_mode: str | None, to_mode: str,
                       footprint_bytes: int) -> None:
    """Bill the cost of switching execution modes between supersteps.

    Entering ``semiexternal`` streams the vertex table into DRAM (one
    CPU-side pass over the footprint); leaving it, or moving between the
    two flash-resident modes, is free — their state already lives in the
    run files.  Staying in the same mode costs nothing, so a static
    ``sortreduce`` run charges exactly zero here (golden-preserving) and an
    adaptive run with a constant trace is bit-identical to the matching
    static mode.
    """
    if from_mode is None:
        from_mode = "sortreduce"
    if from_mode == to_mode or to_mode != "semiexternal":
        return
    work = footprint_bytes / profile.cpu_stream_bw_per_thread
    clock.charge_pool("cpu", work, profile.cpu_threads)
