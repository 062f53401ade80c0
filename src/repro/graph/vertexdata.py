"""The vertex value array ``V``: dense base plus lazy sorted overlays.

AOFFS forbids random updates, and the paper's abstract calls out the
solution: "GraFBoost stores newly updated vertex values generated in each
superstep lazily with the old vertex values".  Concretely, ``V`` is

* an optional **dense base file** of per-vertex records, and
* a stack of **sorted sparse overlays**, one appended per superstep with the
  finalized values of that superstep's active vertices.

Because every reader of ``V`` (the lazy superstep of Algorithm 3) walks keys
in sorted order, each overlay is read sequentially at most once per
superstep through a :class:`VertexScanCursor`.  When the overlay stack gets
deep, :meth:`VertexArray.compact` merges everything into a fresh dense base
with one sequential pass — still append-only.

Each record also stores the superstep index of its last update, which
Algorithm 4 (PageRank's custom active-list generation) uses to ignore stale
sort-reduced values (§III-C).

Sparse-frontier algorithms (BFS on the WDC graph runs for *thousands* of
supersteps, §V-C.2) would otherwise touch every overlay on every lookup, so
each overlay keeps small host-memory metadata — key range plus a bloom
filter, exactly like an LSM tree's per-SSTable filters — letting lookups
skip overlays that cannot contain the queried keys without any flash I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bloom import BloomFilter
from repro.core.kvstream import KVArray
from repro.flash.store import FileStore
from repro.graph.formats import coalesce_ranges, coalescing_gap, span_positions

#: Superstep marker for "never updated".
NEVER = -1

#: Records per chunk when scanning overlays/base sequentially.
SCAN_CHUNK_RECORDS = 1 << 16
#: Keys per chunk of :meth:`VertexArray.scan` (compaction, final values).
#: Its own constant, so the tests that shrink ``SCAN_CHUNK_RECORDS`` to
#: split overlays keep compaction's chunks, which their goldens pin.
SCAN_KEYS = SCAN_CHUNK_RECORDS


@dataclass
class Overlay:
    """One superstep's sorted sparse update file plus its host-memory
    skip metadata (key range and bloom filter, like an LSM SSTable)."""

    name: str
    count: int
    min_key: int
    max_key: int
    bloom: BloomFilter

    def may_contain(self, keys_in_range: np.ndarray) -> bool:
        """False only if none of the queried keys, already cut to
        ``[min_key, max_key]``, can possibly be in this overlay."""
        # Dense probes always pass; bloom checks pay off on sparse frontiers.
        if len(keys_in_range) > 256:
            return True
        return bool(self.bloom.contains(keys_in_range).any())


def _overlay_bloom(count: int) -> BloomFilter:
    """The skip filter of a ``count``-record overlay: one geometry, so a filter
    rebuilt by :meth:`VertexArray.restore` is bit-identical to the writer's."""
    return BloomFilter(max(64, count * 10), num_hashes=3)


class VertexArray:
    """``V`` on flash: default-valued until written, append-only thereafter."""

    def __init__(self, store: FileStore, num_vertices: int, value_dtype: np.dtype,
                 default_value, prefix: str | None = None, max_overlays: int = 8,
                 retire=None):
        if num_vertices < 1:
            raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
        if max_overlays < 1:
            raise ValueError(f"max_overlays must be >= 1, got {max_overlays}")
        self.store = store
        self.num_vertices = num_vertices
        self.value_dtype = np.dtype(value_dtype)
        self._record_dtype = np.dtype([("v", self.value_dtype), ("step", "<i8")])
        self._overlay_dtype = np.dtype(
            [("k", "<u8"), ("v", self.value_dtype), ("step", "<i8")])
        self._base_gap = coalescing_gap(store, self._record_dtype.itemsize)
        self.default_value = default_value
        # The engine names a run's array under its program: ``<name>/v-<n>``.
        self.prefix = prefix or store.unique_name("vertexdata")
        self.max_overlays = max_overlays
        # Compaction normally deletes superseded files immediately; a
        # checkpointing engine passes ``retire`` so files the last durable
        # checkpoint still references outlive the compaction that obsoleted
        # them (they are deleted once the next checkpoint lands).
        self._discard = retire if retire is not None else store.delete
        self._base_generation = 0
        self._base_materialized = False
        self._overlays: list[Overlay] = []
        self._overlay_counter = 0
        self.compactions = 0

    # ---------------------------------------------------------------- naming

    @property
    def _base_file(self) -> str:
        return f"{self.prefix}:base-{self._base_generation}"

    # ---------------------------------------------------------------- staging

    def stage(self, updates: KVArray, step: int) -> None:
        """Append one superstep's finalized active-vertex values as an overlay.

        ``updates`` must be strictly key-sorted (it comes out of sort-reduce,
        so it is).  Staging never compacts — open cursors would be
        invalidated mid-superstep; the engine calls :meth:`maybe_compact`
        between supersteps instead.
        """
        writer = self.overlay_writer(step)
        writer.add(updates)
        writer.close()

    def overlay_writer(self, step: int) -> "OverlayWriter":
        """Incrementally build one superstep's overlay from sorted chunks.

        Algorithm 3 stages active-vertex updates while it scans ``newV``;
        the writer appends them to a single overlay file and registers it on
        close (empty overlays are dropped).
        """
        return OverlayWriter(self, step)

    def maybe_compact(self) -> bool:
        """Compact if the overlay stack is deeper than ``max_overlays``.

        Call between supersteps, never while a cursor is open.
        """
        if len(self._overlays) > self.max_overlays:
            self.compact()
            return True
        return False

    # ---------------------------------------------------------------- lookups

    def cursor(self) -> "VertexScanCursor":
        """A sequential reader for one sorted pass over the key space."""
        return VertexScanCursor(self)

    def read_values(self, sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One-shot sorted lookup (convenience over a fresh cursor)."""
        return self.cursor().lookup(sorted_keys)

    def read_overlay(self, name: str, start: int, count: int) -> tuple[np.ndarray, ...]:
        """Records ``[start, start + count)`` of overlay file ``name`` as
        contiguous ``(keys, values, steps)`` columns — one store read."""
        item = self._overlay_dtype.itemsize
        records = np.frombuffer(self.store.read(name, start * item, count * item),
                                dtype=self._overlay_dtype)
        return tuple(np.ascontiguousarray(records[field]) for field in ("k", "v", "step"))

    def scan(self):
        """Yield (keys, values, steps) over the full key space, merged, in
        chunks of ``SCAN_KEYS`` keys."""
        cursor = self.cursor()
        for start in range(0, self.num_vertices, SCAN_KEYS):
            keys = np.arange(start, min(start + SCAN_KEYS, self.num_vertices),
                             dtype=np.uint64)
            values, steps = cursor.lookup(keys)
            yield keys, values, steps

    def final_values(self) -> np.ndarray:
        """Collect the whole array in memory (result extraction / tests)."""
        out = np.empty(self.num_vertices, dtype=self.value_dtype)
        for keys, values, _steps in self.scan():
            out[keys.astype(np.int64)] = values
        return out

    # ------------------------------------------------------------- compaction

    def compact(self) -> None:
        """Merge base + overlays into a fresh dense base (sequential pass)."""
        new_generation = self._base_generation + 1
        new_name = f"{self.prefix}:base-{new_generation}"
        for keys, values, steps in self.scan():
            records = np.empty(len(keys), dtype=self._record_dtype)
            records["v"] = values
            records["step"] = steps
            records.flags.writeable = False
            self.store.append_array(new_name, records)
        self.store.seal(new_name)
        if self._base_materialized:
            self._discard(self._base_file)
        for overlay in self._overlays:
            self._discard(overlay.name)
        self._overlays = []
        self._base_generation = new_generation
        self._base_materialized = True
        self.compactions += 1

    # ------------------------------------------------------------- checkpoints

    def snapshot_state(self) -> dict:
        """JSON-safe description of the on-flash state (for checkpoints).

        Bloom filters are deliberately absent: they are rebuilt bit-identically
        from the overlay files at :meth:`restore` time, since both the filter
        geometry and the inserted key sets are functions of the file contents.
        """
        return {
            "prefix": self.prefix,
            "num_vertices": self.num_vertices,
            "base_generation": self._base_generation,
            "base_materialized": self._base_materialized,
            "overlay_counter": self._overlay_counter,
            "compactions": self.compactions,
            "overlays": [{"name": o.name, "count": o.count,
                          "min_key": o.min_key, "max_key": o.max_key}
                         for o in self._overlays],
        }

    @classmethod
    def restore(cls, store: FileStore, state: dict, value_dtype: np.dtype, default_value,
                max_overlays: int = 8, retire=None) -> "VertexArray":
        """Reattach to checkpointed vertex data after a remount."""
        array = cls(store, state["num_vertices"], value_dtype, default_value,
                    prefix=state["prefix"], max_overlays=max_overlays,
                    retire=retire)
        array._base_generation = state["base_generation"]
        array._base_materialized = state["base_materialized"]
        array._overlay_counter = state["overlay_counter"]
        array.compactions = state["compactions"]
        for o in state["overlays"]:
            bloom = _overlay_bloom(o["count"])
            for start in range(0, o["count"], SCAN_CHUNK_RECORDS):
                n = min(SCAN_CHUNK_RECORDS, o["count"] - start)
                bloom.add(array.read_overlay(o["name"], start, n)[0])
            array._overlays.append(Overlay(
                name=o["name"], count=o["count"], min_key=o["min_key"],
                max_key=o["max_key"], bloom=bloom))
        return array

    def files_on_flash(self) -> list[str]:
        """Every store file this array currently references."""
        files = [o.name for o in self._overlays]
        if self._base_materialized:
            files.append(self._base_file)
        return files

    @property
    def overlay_depth(self) -> int:
        return len(self._overlays)

    def overlays(self) -> list[Overlay]:
        """The live overlays, oldest first.

        With compaction disabled, overlay ``i`` is exactly superstep ``i``'s
        active-vertex list — what betweenness centrality backtraces over.
        """
        return list(self._overlays)


class OverlayWriter:
    """Builds one overlay file from ascending sorted update chunks."""

    def __init__(self, array: VertexArray, step: int):
        self.array = array
        self.step = step
        self.name = f"{array.prefix}:overlay-{array._overlay_counter}"
        array._overlay_counter += 1
        self.count = 0
        self._last_key = -1
        self._min_key = None
        self._key_chunks: list[np.ndarray] = []
        self._closed = False

    def add(self, updates: KVArray) -> None:
        if self._closed:
            raise RuntimeError("add() after close()")
        if len(updates) == 0:
            return
        if updates.value_dtype != self.array.value_dtype:
            raise ValueError(f"value dtype {updates.value_dtype} != {self.array.value_dtype}")
        if not updates.is_strictly_sorted():
            raise ValueError("overlay updates must be strictly key-sorted")
        if int(updates.keys[0]) <= self._last_key:
            raise ValueError("overlay chunks must be ascending across calls")
        if int(updates.keys[-1]) >= self.array.num_vertices:
            raise ValueError("update key out of range")
        if self._min_key is None:
            self._min_key = int(updates.keys[0])
        self._last_key = int(updates.keys[-1])
        records = np.empty(len(updates), dtype=self.array._overlay_dtype)
        records["k"] = updates.keys
        records["v"] = updates.values
        records["step"] = self.step
        records.flags.writeable = False
        self.array.store.append_array(self.name, records)
        self._key_chunks.append(records["k"])
        self.count += len(updates)

    def close(self) -> int:
        """Seal and register the overlay; returns the staged record count."""
        if self._closed:
            return self.count
        self._closed = True
        if self.count == 0:
            return 0
        self.array.store.seal(self.name)
        bloom = _overlay_bloom(self.count)
        for keys in self._key_chunks:
            bloom.add(keys)
        self._key_chunks = []
        self.array._overlays.append(Overlay(
            name=self.name, count=self.count,
            min_key=self._min_key, max_key=self._last_key, bloom=bloom,
        ))
        return self.count


#: An :class:`_OverlayCursor`'s empty buffer.
_NO_COLUMNS = (np.empty(0, dtype=np.uint64),) * 3


class _OverlayCursor:
    """Sequential chunked reader of one sorted overlay file.

    ``columns`` buffers, as parallel ``(keys, values, steps)`` arrays, every
    record read so far whose key is above the last queried key.
    """

    __slots__ = ("array", "overlay", "pos", "columns")

    def __init__(self, array: VertexArray, overlay: Overlay):
        self.array = array
        self.overlay = overlay
        self.pos = 0
        self.columns: tuple[np.ndarray, ...] = _NO_COLUMNS

    def advance_to(self, max_key: int) -> None:
        """Ensure the buffer covers all records with key <= max_key."""
        count = self.overlay.count
        while self.pos < count and (
            len(self.columns[0]) == 0 or int(self.columns[0][-1]) <= max_key
        ):
            n = min(SCAN_CHUNK_RECORDS, count - self.pos)
            chunk = self.array.read_overlay(self.overlay.name, self.pos, n)
            self.columns = chunk if len(self.columns[0]) == 0 else tuple(
                np.concatenate(pair) for pair in zip(self.columns, chunk))
            self.pos += n

    def extract(self, sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (query positions, values, steps) of matches, then discard
        everything at or below the last queried key.

        Buffered records inside the queried key range are searched into the
        query, so a full-key-space scan does not binary-search every tiny
        overlay; each record is in range for exactly one call (the one that
        discards it).  A key the query repeats is answered at its first
        position only — :meth:`VertexScanCursor.lookup` copies it forward.
        """
        keys, values, steps = self.columns
        lo = int(np.searchsorted(keys, sorted_keys[0], side="left"))
        hi = int(np.searchsorted(keys, sorted_keys[-1], side="right"))
        positions = np.searchsorted(sorted_keys, keys[lo:hi], side="left")
        hits = sorted_keys[positions] == keys[lo:hi]
        # Empty views would keep the whole consumed read alive.
        self.columns = (keys[hi:], values[hi:], steps[hi:]) if hi < len(keys) else _NO_COLUMNS
        return positions[hits], values[lo:hi][hits], steps[lo:hi][hits]


class VertexScanCursor:
    """Sorted-pass reader over a :class:`VertexArray`.

    Successive :meth:`lookup` calls must present non-decreasing key ranges
    (each call's keys sorted, and each call's first key at or after the
    previous call's last).  That is exactly the access pattern of
    Algorithm 3, and it lets every overlay be streamed once.
    """

    def __init__(self, array: VertexArray):
        self.array = array
        self._overlays = list(array._overlays)
        self._min_keys = np.array([o.min_key for o in self._overlays], dtype=np.uint64)
        self._max_keys = np.array([o.max_key for o in self._overlays], dtype=np.uint64)
        #: Overlay index -> its reader, made when the overlay is first read:
        #: a sparse superstep skips most overlays in every lookup.
        self._cursors: dict[int, _OverlayCursor] = {}
        self._last_key = -1
        # (value, step) answered for ``_last_key``.  The overlay records behind
        # it are discarded, so a call starting on that key again reads it here.
        self._last_answer: tuple | None = None

    def lookup(self, sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and last-update steps for a sorted key array."""
        sorted_keys = np.asarray(sorted_keys, dtype=np.uint64)
        if len(sorted_keys) == 0:
            return (np.empty(0, self.array.value_dtype), np.empty(0, np.int64))
        keys_i = sorted_keys.astype(np.int64)
        deltas = keys_i[1:] - keys_i[:-1]
        if np.any(deltas < 0):
            raise ValueError("lookup requires sorted keys")
        if keys_i[0] < self._last_key:
            raise ValueError(
                f"cursor moved backwards: key {keys_i[0]} after {self._last_key}"
            )
        if keys_i[-1] >= self.array.num_vertices:
            raise ValueError("vertex id out of range")
        repeats_boundary = keys_i[0] == self._last_key
        max_key = self._last_key = int(keys_i[-1])

        values = np.full(len(sorted_keys), self.array.default_value,
                         dtype=self.array.value_dtype)
        steps = np.full(len(sorted_keys), NEVER, dtype=np.int64)
        if self.array._base_materialized:
            self._gather_base(keys_i, values, steps)
        # Host-memory range/bloom metadata skips overlays that cannot hold
        # any queried key — no flash I/O for them at all.  The range test
        # runs over every overlay at once; only survivors probe their bloom.
        lo = np.searchsorted(sorted_keys, self._min_keys, side="left").tolist()
        hi = np.searchsorted(sorted_keys, self._max_keys, side="right").tolist()
        # Older overlays first; newer overwrite.
        cursors = self._cursors
        for i, (overlay, first, end) in enumerate(zip(self._overlays, lo, hi)):
            cursor = cursors.get(i)
            if cursor is None or len(cursor.columns[0]) == 0:
                if not (first < end
                        and overlay.may_contain(sorted_keys[first:end])):
                    continue
                if cursor is None:
                    cursor = cursors[i] = _OverlayCursor(self.array, overlay)
            cursor.advance_to(max_key)
            positions, v, s = cursor.extract(sorted_keys)
            values[positions] = v
            steps[positions] = s
        if repeats_boundary:
            values[0], steps[0] = self._last_answer
        duplicate = deltas == 0
        if duplicate.any():
            # Every position takes the answer at its key's first occurrence.
            owner = np.arange(len(keys_i))
            owner[1:][duplicate] = 0
            owner = np.maximum.accumulate(owner)
            values, steps = values[owner], steps[owner]
        self._last_answer = (values[-1], steps[-1])
        return values, steps

    def _gather_base(self, keys_i: np.ndarray, values: np.ndarray,
                     steps: np.ndarray) -> None:
        """One scatter read of the coalesced spans, in ascending order."""
        array = self.array
        spans = coalesce_ranges(keys_i, keys_i + 1, array._base_gap)
        read = array.store.read_spans(array._base_file, array._record_dtype,
                                      spans)
        block = read.take()
        local = span_positions(spans, read.base, keys_i)
        values[:] = block["v"][local]
        steps[:] = block["step"][local]
