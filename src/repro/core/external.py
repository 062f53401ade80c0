"""External sort-reduce over flash files (§III-B, §IV-E.2, §IV-F).

The full pipeline of Fig 10:

1. **Chunk phase** — unsorted update pairs stream in (from the edge program)
   and accumulate in a DRAM buffer.  Each full chunk (512 MB in the paper)
   is sort-reduced *in memory* and written to flash as one sorted run.
   Because the reduction happens before the write, the heavy-duplication
   graphs shed 80–90% of their data before flash sees any of it (Fig 14).
2. **Merge phases** — up to ``fanout`` (16) sorted runs at a time are
   stream-merged with the reduction interleaved, producing a new sorted run,
   until a single run remains.

The functional work is shared between backends; the active backend
(:mod:`repro.core.accelerator`) decides what the sorting and merging *cost*.
Flash traffic charges itself through the file store.  Per-phase pair counts
are recorded in :class:`SortReduceStats` — the data behind Fig 14.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.inmemory import sort_reduce_in_memory
from repro.core.kvstream import KVArray, record_dtype
from repro.core.merger import StreamingMergeReducer
from repro.core.reduce_ops import ReduceOp
from repro.flash.device import FlashError
from repro.flash.store import FileStore

#: I/O transfer unit for merge-phase reads, matching the software
#: implementation's "large 4 MB chunks" (§IV-F).
MERGE_IO_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class PhaseStat:
    """Pair counts of one sort-reduce phase (phase 0 = in-memory chunk sort)."""

    phase: int
    pairs_in: int
    pairs_out: int

    @property
    def reduction(self) -> float:
        """Fraction of pairs eliminated by the interleaved reduction."""
        if self.pairs_in == 0:
            return 0.0
        return 1.0 - self.pairs_out / self.pairs_in


class SortReduceStats:
    """Accumulates per-phase reduction statistics across one sort-reduce.

    Phases are indexed by number in a dict, so the per-chunk ``record`` calls
    of phase 0 don't rescan a growing list.
    """

    def __init__(self) -> None:
        self._by_phase: dict[int, PhaseStat] = {}
        self.total_input_pairs = 0

    @property
    def phases(self) -> list[PhaseStat]:
        """Phase stats in phase-number order.

        Sorting here (not insertion order) makes every report a pure
        function of the *aggregate* counts: parallel execution may record
        a later phase before an earlier one finishes draining, and shuffled
        record order must not change ``phases``/``to_dict`` output.
        """
        return [self._by_phase[p] for p in sorted(self._by_phase)]

    def record(self, phase: int, pairs_in: int, pairs_out: int) -> None:
        """Accumulate one (partial) phase observation.

        Addition is commutative, so any interleaving of ``record`` calls —
        per-chunk, per-worker, shuffled — yields identical totals.
        """
        existing = self._by_phase.get(phase)
        if existing is not None:
            pairs_in += existing.pairs_in
            pairs_out += existing.pairs_out
        self._by_phase[phase] = PhaseStat(phase, pairs_in, pairs_out)

    def written_fractions(self) -> list[float]:
        """Fig 14's series: data written to storage after each phase, as a
        fraction of what would be written had reduction not been applied
        (i.e. the original intermediate-list size)."""
        if self.total_input_pairs == 0:
            return []
        return [self._by_phase[p].pairs_out / self.total_input_pairs
                for p in sorted(self._by_phase)]

    @property
    def final_pairs(self) -> int:
        if not self._by_phase:
            return 0
        return self._by_phase[max(self._by_phase)].pairs_out

    def to_dict(self) -> dict:
        """JSON-safe form (checkpointed alongside the engine state)."""
        return {"total_input_pairs": self.total_input_pairs,
                "phases": [[s.phase, s.pairs_in, s.pairs_out]
                           for s in self.phases]}

    @classmethod
    def from_dict(cls, d: dict) -> "SortReduceStats":
        stats = cls()
        stats.total_input_pairs = d["total_input_pairs"]
        for phase, pairs_in, pairs_out in d["phases"]:
            stats._by_phase[phase] = PhaseStat(phase, pairs_in, pairs_out)
        return stats


class RunHandle:
    """A sealed, sorted, reduced run file living in a flash file store.

    ``level`` counts how many merge phases produced it (0 = straight from
    an in-memory chunk sort).
    """

    def __init__(self, store: FileStore, name: str, num_records: int, value_dtype: np.dtype,
                 level: int = 0, seq: int = 0):
        self.store = store
        self.name = name
        self.num_records = num_records
        self.value_dtype = np.dtype(value_dtype)
        self.level = level
        # Age of the oldest data in the run; merges order their sources by
        # this so non-commutative reductions (FIRST/LAST) stay correct.
        self.seq = seq

    def __len__(self) -> int:
        return self.num_records

    @property
    def record_bytes(self) -> int:
        return record_dtype(self.value_dtype).itemsize

    @property
    def nbytes(self) -> int:
        return self.num_records * self.record_bytes

    def read_all(self) -> KVArray:
        """Load the entire run (small runs / tests / result collection)."""
        if self.num_records == 0:
            return KVArray.empty(self.value_dtype)
        raw = self.store.read(self.name, 0, self.nbytes)
        return KVArray.from_bytes(raw, self.value_dtype)

    def reads(self) -> Iterator[list[KVArray]]:
        """Stream the run in record-aligned reads of roughly
        ``MERGE_IO_BYTES``, each as the runs of views
        :meth:`KVArray.from_buffers` makes of the read's segments: a merge
        source holds the flash pages the device already keeps, not a copy."""
        rec = self.record_bytes
        per_read = max(1, MERGE_IO_BYTES // rec)
        offset = 0
        while offset < self.num_records:
            n = min(per_read, self.num_records - offset)
            read = self.store.read(self.name, offset * rec, n * rec, segments=True)
            yield KVArray.from_buffers(read.segments, self.value_dtype)
            offset += n

    def chunks(self) -> Iterator[KVArray]:
        """:meth:`reads`, each read as one :class:`KVArray` (joined only when
        it spans more than one run of views)."""
        for parts in self.reads():
            yield KVArray.concat(parts)

    def delete(self) -> None:
        if self.num_records and self.store.exists(self.name):
            self.store.delete(self.name)


class ExternalSortReducer:
    """Sort-reduces an unbounded stream of update pairs using bounded DRAM.

    Feed pairs with :meth:`add`; call :meth:`finish` to obtain the single
    sorted+reduced :class:`RunHandle`.  ``chunk_bytes`` is the DRAM sort
    buffer (the paper's 512 MB), registered against ``memory`` if given.
    """

    def __init__(self, store: FileStore, op: ReduceOp, value_dtype: np.dtype, backend,
                 chunk_bytes: int, fanout: int = 16, name_prefix: str = "sortreduce",
                 memory=None, pool=None):
        if chunk_bytes < 1024:
            raise ValueError(f"chunk_bytes unreasonably small: {chunk_bytes}")
        self.store = store
        self.op = op
        self.value_dtype = np.dtype(value_dtype)
        self.backend = backend
        self.chunk_bytes = chunk_bytes
        self.fanout = fanout
        self.name_prefix = store.unique_name(name_prefix)
        self.memory = memory
        #: Optional :class:`repro.core.parallel.SortReducePool`.  With a pool
        #: chunk sorts and merges are key-range-partitioned across worker
        #: processes; all store I/O, clock charges and stats stay on this
        #: process in the exact serial order, so results and simulated time
        #: are bit-identical to ``pool=None``.
        self.pool = pool
        self.stats = SortReduceStats()
        self._buffer: deque[KVArray] = deque()
        self._buffered_bytes = 0
        self._runs: list[RunHandle] = []
        self._run_counter = 0
        self._finished = False
        self._memory_freed = False
        if memory is not None:
            memory.allocate(self._mem_label, chunk_bytes)

    @property
    def _mem_label(self) -> str:
        return f"{self.name_prefix}:chunk-buffer"

    @property
    def clock(self):
        return self.store.device.clock

    # ------------------------------------------------------------------ input

    def add(self, kv: KVArray | Iterable[KVArray]) -> None:
        """Append unsorted update pairs to the stream: one batch, or an
        iterable of batches taken one at a time.

        The buffer is cut into chunks at ``chunk_bytes`` whatever the batch
        and call boundaries, so one stream gives the same chunks, run files,
        stats and charges however it is split.
        """
        if self._finished:
            raise RuntimeError("add() after finish()")
        for batch in (kv,) if isinstance(kv, KVArray) else kv:
            if batch.value_dtype != self.value_dtype:
                raise ValueError(
                    f"value dtype {batch.value_dtype} != {self.value_dtype}")
            if len(batch) == 0:
                continue
            self._buffer.append(batch)
            self._buffered_bytes += batch.nbytes
            self.stats.total_input_pairs += len(batch)
            while self._buffered_bytes >= self.chunk_bytes:
                self._flush_chunk()

    def _take_chunk(self) -> KVArray:
        """Detach exactly one chunk's worth of buffered pairs."""
        take: list[KVArray] = []
        taken = 0
        while self._buffer and taken < self.chunk_bytes:
            head = self._buffer[0]
            remaining = self.chunk_bytes - taken
            if head.nbytes <= remaining:
                take.append(self._buffer.popleft())
                taken += head.nbytes
            else:
                n = max(1, remaining // head.record_bytes)
                take.append(head.slice(0, n))
                self._buffer[0] = head.slice(n, len(head))
                taken += n * head.record_bytes
        self._buffered_bytes -= taken
        return KVArray.concat(take)

    def _flush_chunk(self) -> None:
        chunk = self._take_chunk()
        if self.pool is not None:
            # Key-range-partitioned across the workers, but *synchronous*:
            # the charges and writes in _finish_chunk happen right here,
            # exactly where the serial path makes them.  (Deferring the
            # drain to overlap with flash I/O would reorder this chunk's
            # charges past any clock charges the caller makes between
            # add() calls, moving the low bits of elapsed_s.)
            reduced = self.pool.sort_reduce_chunk(chunk, self.op)
        else:
            reduced = sort_reduce_in_memory(chunk, self.op)
        self._finish_chunk(reduced, len(chunk), chunk.nbytes)

    def _finish_chunk(self, reduced: KVArray, pairs_in: int,
                      chunk_nbytes: int) -> None:
        """The serial-ordered tail of a chunk flush: charge, record, write."""
        self.backend.charge_chunk_sort(self.clock, chunk_nbytes)
        self.stats.record(0, pairs_in, len(reduced))
        self._write_run(reduced)
        self._merge_full_levels()

    def _write_run(self, run: KVArray) -> None:
        name = f"{self.name_prefix}:run-{self._run_counter}"
        self._run_counter += 1
        self.store.append_array(name, run.to_records())
        self.store.seal(name)
        self._runs.append(RunHandle(self.store, name, len(run), self.value_dtype,
                                    level=0, seq=self._run_counter - 1))

    def _merge_full_levels(self) -> None:
        """Merge eagerly whenever a level fills up with ``fanout`` runs.

        This is how the paper's pipeline behaves — "this process is repeated
        until the full dataset has been sorted" (§IV-E.1) — and it bounds
        the number of coexisting run files to ``fanout`` per level instead
        of letting thousands of chunk-sized runs pile up on flash.
        """
        while True:
            by_level: dict[int, list[RunHandle]] = {}
            for run in self._runs:
                by_level.setdefault(run.level, []).append(run)
            full = [lvl for lvl, runs in by_level.items() if len(runs) >= self.fanout]
            if not full:
                return
            level = min(full)
            # Level merges overlap with ongoing chunk production; the
            # software implementation spawns up to four 16-to-1 mergers.
            self._merge_group(by_level[level][:self.fanout], concurrency=4)

    # ----------------------------------------------------------------- output

    def finish(self) -> RunHandle:
        """Flush the tail chunk and merge all runs down to one.

        Any failure mid-merge cleans up after itself: on an ``Exception``
        every temp run (including the partially-written merge output, see
        :meth:`_merge_group`) is deleted via :meth:`close`.  A
        ``BaseException`` (an injected power loss) propagates untouched —
        the store is dead, and resume's orphan sweep reclaims the runs; the
        pool discards its own in-flight tickets.
        """
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        try:
            if self._buffer:
                self._flush_chunk()
            if not self._runs:
                return RunHandle(self.store, f"{self.name_prefix}:empty", 0, self.value_dtype)
            while len(self._runs) > 1:
                self._runs.sort(key=lambda r: r.level)
                # The last merge is done by a single merger instance — "all
                # chunks need to be merged into one by a single merger"
                # (§IV-F); earlier merges pipeline several instances.
                final = len(self._runs) <= self.fanout
                self._merge_group(self._runs[:self.fanout],
                                  concurrency=1 if final else 4)
            return self._runs[0]
        except Exception:
            self.close()
            raise
        finally:
            self._free_memory()

    def _free_memory(self) -> None:
        if self.memory is not None and not self._memory_freed:
            self._memory_freed = True
            self.memory.free(self._mem_label)

    def close(self) -> None:
        """Abandon the sort-reduce: free the DRAM buffer and delete any run
        files still on flash.

        This is the error-path counterpart of :meth:`finish` — a superstep
        that dies on a :class:`~repro.flash.device.FlashError` must not leak
        its chunk buffer or half-merged runs.  Idempotent; calling it after
        a successful :meth:`finish` would discard the result run.
        """
        self._finished = True
        self._free_memory()
        runs, self._runs = self._runs, []
        for run in runs:
            try:
                run.delete()
            except FlashError:
                pass  # best-effort cleanup on an already-failing device
        self._buffer.clear()
        self._buffered_bytes = 0

    def _merge_group(self, group: list[RunHandle], concurrency: int = 1) -> None:
        """Stream-merge one group of runs into a single higher-level run."""
        group = sorted(group, key=lambda r: r.seq)  # oldest data first
        phase = max(r.level for r in group) + 1
        out_name = f"{self.name_prefix}:run-{self._run_counter}"
        self._run_counter += 1
        out_records = 0

        def sink(kv: KVArray) -> None:
            nonlocal out_records
            self.store.append_array(out_name, kv.to_records())
            out_records += len(kv)

        merger = StreamingMergeReducer(self.op, self.value_dtype,
                                       fanout=self.fanout, pool=self.pool)
        try:
            pairs_in, pairs_out = merger.merge([r.reads() for r in group], sink)
        except Exception:
            # A failed merge (device error, worker death) must not leak its
            # partially-written output: it is not yet in ``self._runs``, so
            # ``close()`` alone would never delete it.
            try:
                if self.store.exists(out_name):
                    self.store.delete(out_name)
            except FlashError:
                pass  # best-effort cleanup on an already-failing device
            raise
        if pairs_out:
            self.store.seal(out_name)
        handle = RunHandle(self.store, out_name, out_records, self.value_dtype,
                           level=phase, seq=min(r.seq for r in group))
        rec = handle.record_bytes
        self.backend.charge_merge_level(self.clock, pairs_in * rec, pairs_out * rec,
                                        groups=concurrency)
        self.stats.record(phase, pairs_in, pairs_out)
        for run in group:
            run.delete()
        self._runs = [r for r in self._runs if r not in group]
        self._runs.append(handle)
