"""Streaming k-way merge-reduce of sorted runs (§IV-E.2, §IV-F).

The hardware implements this as a tree of bitonic tuple mergers fed from
flash through DRAM buffers; the software version is a tree of 2-to-1 merger
threads.  Functionally both compute the same thing: a single sorted run in
which duplicate keys have been collapsed through the reduction operator
*during* the merge — never materializing the unreduced merge result.

:class:`StreamingMergeReducer` is the functional engine used by both
backends.  It consumes chunk iterators (so whole runs never need to be
memory-resident), tracks a safe emission boundary so that a key group is
only reduced once all of its members have arrived, and reports pair counts
for the Fig 14 reduction statistics.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator

import numpy as np

from repro.core.kvstream import KVArray
from repro.core.reduce_ops import ReduceOp

#: Most records one sort-reduce of a merge batch works on at once: a larger
#: batch is cut into key-range slices of at most this many records, so its
#: sort temporaries are a slice's, not the batch's.  A key group larger
#: than a slice stays whole.
EMIT_SLICE_RECORDS = 1 << 17


def _slice_cuts(parts: list[KVArray], total: int) -> list[int]:
    """Keys that cut the merge of sorted ``parts`` (``total`` records) into
    key ranges of at most ``EMIT_SLICE_RECORDS`` records each.

    Candidate cuts are every ``step``-th key of each part, so between two
    candidates lie at most ``len(parts) * step`` records (a quarter slice)
    plus one key's group.  The records below each candidate are counted
    exactly, and each cut is the last candidate that keeps its slice within
    the limit, or the first one past a group that alone outgrows it.
    """
    if total <= EMIT_SLICE_RECORDS:
        return []
    step = max(1, EMIT_SLICE_RECORDS // (4 * len(parts)))
    candidates = np.unique(np.concatenate([p.keys[step::step] for p in parts]))
    below = sum(np.searchsorted(p.keys, candidates, side="left") for p in parts)
    cuts: list[int] = []
    start = 0
    while total - start > EMIT_SLICE_RECORDS:
        i = int(np.searchsorted(below, start + EMIT_SLICE_RECORDS,
                                side="right")) - 1
        if i < 0 or below[i] <= start:
            # One group fills more than a slice: cut just past it.
            i = int(np.searchsorted(below, start, side="right"))
            if i == len(below):
                break
        cuts.append(int(candidates[i]))
        start = int(below[i])
    return cuts


def sort_reduce_parts(parts: list[KVArray], op: ReduceOp) -> KVArray:
    """Merge-reduce non-empty sorted ``parts`` in key-range slices.

    Bitwise ``op.reduce_sorted(KVArray.concat(parts).sorted(runs=len(parts)))``:
    every part is cut at the same keys with ``bisect_left`` (numpy's
    ``searchsorted`` would first copy a part that is a strided view of flash
    pages, and converts the keys for a Python-int key), so a key's records
    all land in one slice, and the stable sort of a key range is the
    restriction of the stable sort of the whole — the argument of
    :meth:`~repro.core.parallel.SortReducePool.merge_reduce`, run serially.
    A batch of at most ``EMIT_SLICE_RECORDS`` records is one slice.
    """
    total = sum(len(p) for p in parts)
    lows = [0] * len(parts)
    outs = []
    for cut in [*_slice_cuts(parts, total), None]:
        pieces = []
        for j, p in enumerate(parts):
            high = len(p) if cut is None else bisect_left(p.keys, cut)
            if high > lows[j]:
                pieces.append(p.slice(lows[j], high))
            lows[j] = high
        outs.append(op.reduce_sorted(
            KVArray.concat(pieces).sorted(runs=len(pieces)), presorted=True))
    return KVArray.concat(outs)


def merge_reduce_arrays(runs: list[KVArray], op: ReduceOp,
                        pool=None) -> KVArray:
    """Merge-reduce fully in-memory runs.

    Because our sorts are stable, concatenating in run order and stable
    sorting is equivalent to an order-preserving k-way merge, so FIRST/LAST
    see values in (run order, position order) — the same order a hardware
    merge tree would present them.  With a
    :class:`~repro.core.parallel.SortReducePool` the work is key-range
    partitioned across workers; the result is bitwise identical.
    """
    runs = [r for r in runs if len(r)]
    if not runs:
        raise ValueError("merge_reduce_arrays needs at least one non-empty run")
    for i, r in enumerate(runs):
        if not r.is_sorted():
            raise ValueError(f"input run {i} is not sorted")
    if pool is not None:
        return pool.merge_reduce(runs, op)
    return sort_reduce_parts(runs, op)


#: What a merge source yields per pull: one sorted chunk, or one read as
#: the consecutive non-empty parts it decodes to (:meth:`RunHandle.reads`).
Chunk = KVArray | list[KVArray]


class _SourceState:
    """Buffer and lifecycle of one input run during a streaming merge.

    The buffer is a *list* of sorted parts, consolidated lazily only when a
    prefix is cut off — repeatedly concatenating into one array would copy
    the surviving suffix on every pull (quadratic on long runs).  Parts may
    be read-only views of flash pages; nothing here writes them.
    """

    __slots__ = ("chunks", "parts", "buffered", "exhausted")

    def __init__(self, chunks: Iterator[Chunk], value_dtype: np.dtype):
        self.chunks = iter(chunks)
        self.parts: list[KVArray] = []   # non-empty, in global key order
        self.buffered = 0                # total records across ``parts``
        self.exhausted = False

    def pull(self) -> bool:
        """Fetch the next chunk into the buffer; False if the run ended."""
        if self.exhausted:
            return False
        for chunk in self.chunks:
            parts = [chunk] if isinstance(chunk, KVArray) else chunk
            if not parts or not len(parts[0]):
                continue
            if self.parts and parts[0].keys[0] < self.parts[-1].keys[-1]:
                raise ValueError("run chunks are not globally sorted")
            self.parts += parts
            self.buffered += sum(map(len, parts))
            return True
        self.exhausted = True
        return False

    @property
    def last_key(self) -> int:
        return int(self.parts[-1].keys[-1])

    def take_all(self) -> list[KVArray]:
        """Detach the whole buffer as an ordered chunk list."""
        parts, self.parts, self.buffered = self.parts, [], 0
        return parts

    def cut_below(self, boundary: int) -> list[KVArray]:
        """Detach the buffered prefix with keys strictly below ``boundary``."""
        out: list[KVArray] = []
        while self.parts:
            head = self.parts[0]
            if int(head.keys[-1]) < boundary:
                out.append(head)
                del self.parts[0]
                self.buffered -= len(head)
                continue
            cut = bisect_left(head.keys, boundary)
            if cut:
                out.append(head.slice(0, cut))
                self.parts[0] = head.slice(cut, len(head))
                self.buffered -= cut
            break
        return out


class StreamingMergeReducer:
    """Merges k chunk-streams of sorted runs into one reduced output stream.

    ``fanout`` only caps how many sources one instance accepts — callers
    build multi-level merges (as external sort-reduce does) when they have
    more runs than the fan-in of one merger, exactly like the hardware's
    16-to-1 tree.
    """

    def __init__(self, op: ReduceOp, value_dtype: np.dtype, fanout: int = 16,
                 refill_records: int = 65536, pool=None):
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if refill_records < 1:
            raise ValueError(f"refill_records must be >= 1, got {refill_records}")
        self.op = op
        self.value_dtype = np.dtype(value_dtype)
        self.fanout = fanout
        self.refill_records = refill_records
        #: Optional :class:`repro.core.parallel.SortReducePool`: emit batches
        #: are then key-range partitioned across worker processes — the leaf
        #: level of the software merge tree — with bitwise-identical output.
        self.pool = pool
        self.pairs_in = 0
        self.pairs_out = 0

    def merge(self, sources: list[Iterator[Chunk]],
              sink: Callable[[KVArray], None]) -> tuple[int, int]:
        """Run the merge; returns (pairs consumed, pairs emitted)."""
        if not sources:
            raise ValueError("merge needs at least one source")
        if len(sources) > self.fanout:
            raise ValueError(f"{len(sources)} sources exceed fanout {self.fanout}")
        states = [_SourceState(src, self.value_dtype) for src in sources]
        pairs_in_start, pairs_out_start = self.pairs_in, self.pairs_out

        while True:
            self._refill(states)
            live = [s for s in states if not s.exhausted]
            pending = [s for s in states if s.buffered]
            if not pending:
                break
            if not live:
                self._emit([p for s in pending for p in s.take_all()], sink)
                break
            boundary = min(s.last_key for s in live)
            cut_parts, made_progress = self._cut(states, boundary)
            if made_progress:
                self._emit(cut_parts, sink)
            else:
                # Every buffered key of the boundary source equals the
                # boundary (a giant duplicate group): pull more data from the
                # sources pinning the boundary until one moves past it.
                for s in live:
                    if s.last_key == boundary:
                        s.pull()
        return self.pairs_in - pairs_in_start, self.pairs_out - pairs_out_start

    # ---------------------------------------------------------------- helpers

    def _refill(self, states: list[_SourceState]) -> None:
        for s in states:
            while not s.exhausted and s.buffered < self.refill_records:
                if not s.pull():
                    break

    def _cut(self, states: list[_SourceState], boundary: int) -> tuple[list[KVArray], bool]:
        """Split off the per-source prefixes with keys strictly below the
        boundary — those groups can never receive more members."""
        parts: list[KVArray] = []
        progress = False
        for s in states:
            got = s.cut_below(boundary)
            if got:
                parts.extend(got)
                progress = True
        return parts, progress

    def _emit(self, parts: list[KVArray], sink: Callable[[KVArray], None]) -> None:
        parts = [p for p in parts if len(p)]
        if not parts:
            return
        if self.pool is not None:
            merged = self.pool.merge_reduce(parts, self.op)
        else:
            merged = sort_reduce_parts(parts, self.op)
        self.pairs_in += sum(len(p) for p in parts)
        self.pairs_out += len(merged)
        sink(merged)
