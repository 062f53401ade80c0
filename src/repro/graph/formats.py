"""On-flash graph layout (Fig 6) and a latency-aware reader.

A graph is two immutable files in a file store:

* ``{prefix}:index`` — ``num_vertices + 1`` uint64 offsets; entry ``v`` is
  the position of vertex ``v``'s first outbound edge in the edge file.
* ``{prefix}:edges`` — uint64 destination vertex ids, grouped by source.
* ``{prefix}:weights`` — optional float32 edge properties, aligned with the
  edge file.

Reads of edges for a *sorted* active-vertex list are coalesced: byte ranges
separated by less than the device's latency-equivalent gap (``latency ×
bandwidth``) are fetched as one read, trading some wasted bytes for fewer
latency stalls.  This models the lookahead buffers of §V-C.3 — a low-latency
raw-flash device coalesces less and "almost removes unused flash reads",
while a commodity SSD must read ahead more aggressively.  Wasted bytes are
tracked so the effect is measurable.
"""

from __future__ import annotations

import numpy as np

from repro.flash.store import FileStore, SpanRead
from repro.graph.csr import CSRGraph

OFFSET_DTYPE = np.dtype("<u8")
TARGET_DTYPE = np.dtype("<u8")
WEIGHT_DTYPE = np.dtype("<f4")
#: Edges per chunk of a sequential :meth:`FlashCSR.stream_edges` scan.
#: Simulated: each chunk is one charged read, so the figures pin it.
STREAM_EDGES_PER_CHUNK = 1 << 18
#: Items of the fetched read one step of a :meth:`RangeGather.take` copies
#: beyond the ranges it returns, at most.
GATHER_WINDOW_ITEMS = 1 << 16


def coalesce_ranges(starts: np.ndarray, ends: np.ndarray, max_gap: int) -> list[tuple[int, int]]:
    """Merge sorted, possibly-overlapping [start, end) ranges whose gaps are
    at most ``max_gap``; returns merged (start, end) spans.

    A span boundary falls wherever a start exceeds the running maximum of
    all previous ends by more than ``max_gap``.  The global running maximum
    and the per-span running maximum agree at every boundary decision (a
    carried-over larger end from an earlier span implies the gap test fails
    either way), so one cummax pass finds the boundaries and a segmented
    reduction recovers the exact per-span end.  One range is returned as
    it is (a sparse superstep's one-vertex lookups): the numpy pipeline costs
    several times the read it plans.
    """
    if len(starts) == 1:
        start, end = int(starts[0]), int(ends[0])
        return [(start, end)] if end > start else []
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    nonempty = ends > starts
    if not nonempty.all():
        starts, ends = starts[nonempty], ends[nonempty]
    if len(starts) == 0:
        return []
    covered = np.maximum.accumulate(ends)
    first = np.empty(len(starts), dtype=bool)
    first[0] = True
    np.greater(starts[1:] - covered[:-1], max_gap, out=first[1:])
    boundaries = np.flatnonzero(first)
    span_starts = starts[boundaries]
    span_ends = np.maximum.reduceat(ends, boundaries)
    return list(zip(span_starts.tolist(), span_ends.tolist()))


def coalescing_gap(store: FileStore, itemsize: int) -> int:
    """Coalescing window, in items of ``itemsize`` bytes: ranges closer than
    this merge into one read.

    The window is the larger of (a) one access latency's worth of
    sequential transfer — reading the gap is cheaper than a new access —
    and (b) one flash page, since ranges sharing a page are fetched by
    the same physical read anyway.  A lower-latency device keeps a
    smaller window and wastes fewer bytes (§V-C.3's lookahead buffers).
    """
    profile = store.device.profile
    gap_bytes = max(int(profile.flash_read_latency_s * profile.flash_read_bw),
                    profile.flash_page_bytes)
    return max(1, gap_bytes // itemsize)


def span_positions(spans: list[tuple[int, int]], base: np.ndarray,
                   items: np.ndarray) -> np.ndarray:
    """Where each of ``items`` sits in the concatenation a
    ``store.read_spans(..., spans)`` fetched, whose span ``i`` starts at
    ``base[i]``; every item must lie inside one of the spans."""
    if len(spans) == 1:
        return items - spans[0][0]
    span_starts = np.fromiter((start for start, _ in spans), dtype=np.int64,
                              count=len(spans))
    span_idx = np.searchsorted(span_starts, items, side="right") - 1
    return items + (base - span_starts)[span_idx]


def gather_ranges(array: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """``array[s:s + n]`` for each range of ``starts`` and ``lengths``,
    concatenated in one new array by one fancy index.

    The index climbs by one within a range, and by one plus the jump from
    the previous range's end at each range's first item, so it is the
    cumsum of those steps.  Zero-length ranges are dropped first: they have
    no first item to carry their jump.
    """
    nonempty = lengths > 0
    starts, lengths = starts[nonempty], lengths[nonempty]
    if len(starts) == 0:
        return np.empty(0, dtype=array.dtype)
    ends = np.cumsum(lengths)    # where each range ends in the output
    index = np.ones(int(ends[-1]), dtype=np.int64)
    index[0] = starts[0]
    index[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    np.cumsum(index, out=index)
    return array[index]


class RangeGather:
    """The items of a sorted run of ``[start, end)`` ranges of one file, read
    from flash by :meth:`FlashCSR.edges_for` / :meth:`FlashCSR.weights_for`
    and copied out of the fetched pages a run of ranges at a time."""

    __slots__ = ("total", "_read", "_rank", "_first", "_lengths", "_offsets")

    def __init__(self, read: SpanRead, rank: np.ndarray, first: np.ndarray,
                 lengths: np.ndarray):
        self._read = read
        #: ``rank[r]``: how many of the ranges before range ``r`` are non-empty;
        #: the arrays below hold the non-empty ranges only.
        self._rank = rank
        self._first = first          # where each range starts in the read
        self._lengths = lengths
        # Where each range starts in the output; the last entry is the end.
        self._offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        #: Items over all ranges.
        self.total = int(self._offsets[-1])

    def take(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The items of ranges ``lo .. hi - 1`` (default: all), concatenated
        in one new writable array."""
        a = int(self._rank[lo])
        b = int(self._rank[-1 if hi is None else hi])
        offsets = self._offsets
        total = int(offsets[b] - offsets[a])
        if total == 0:
            return np.empty(0, dtype=self._read.dtype)
        first, lengths = self._first[a:b], self._lengths[a:b]
        low = int(first[0])
        # How far each range starts past the end of the one before it in the
        # read.  Adjacent ranges (a dense superstep's shape) jump by zero and
        # are one stretch of the read: the take is that stretch's copy.
        jumps = first[1:] - first[:-1] - lengths[:-1]
        if not jumps.any():
            return self._read.take(low, low + total)
        # Copy the read a window at a time: the ranges starting in one
        # window of GATHER_WINDOW_ITEMS items, from the first one's start to
        # the furthest end among them.
        window = (first - low) // GATHER_WINDOW_ITEMS
        steps = (np.flatnonzero(window[1:] != window[:-1]) + 1).tolist()
        at = offsets[a:b + 1] - offsets[a]   # where each range starts in out
        out = np.empty(total, dtype=self._read.dtype)
        for s, e in zip([0, *steps], [*steps, b - a]):
            block_low = int(first[s])
            block = self._read.take(block_low,
                                    int((first[s:e] + lengths[s:e]).max()))
            out[at[s]:at[e]] = gather_ranges(block, first[s:e] - block_low,
                                             lengths[s:e])
        return out


class FlashCSR:
    """Reader/writer for the on-flash CSR format."""

    def __init__(self, store: FileStore, prefix: str, num_vertices: int, num_edges: int,
                 has_weights: bool = False):
        self.store = store
        self.prefix = prefix
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.has_weights = has_weights
        self.wasted_read_bytes = 0  # coalescing overshoot, for the ablation

    # ---------------------------------------------------------------- layout

    @property
    def index_file(self) -> str:
        return f"{self.prefix}:index"

    @property
    def edge_file(self) -> str:
        return f"{self.prefix}:edges"

    @property
    def weight_file(self) -> str:
        return f"{self.prefix}:weights"

    @property
    def nbytes(self) -> int:
        """Total on-flash size of the graph structure."""
        total = (self.num_vertices + 1) * OFFSET_DTYPE.itemsize
        total += self.num_edges * TARGET_DTYPE.itemsize
        if self.has_weights:
            total += self.num_edges * WEIGHT_DTYPE.itemsize
        return total

    @staticmethod
    def write(store: FileStore, prefix: str, graph: CSRGraph) -> "FlashCSR":
        """Serialize an in-memory CSR graph into flash files."""
        out = FlashCSR(store, prefix, graph.num_vertices, graph.num_edges,
                       has_weights=graph.has_weights)
        store.append_array(out.index_file, graph.offsets.astype(OFFSET_DTYPE, copy=False))
        store.seal(out.index_file)
        store.append_array(out.edge_file, graph.targets.astype(TARGET_DTYPE, copy=False))
        store.seal(out.edge_file)
        if graph.has_weights:
            store.append_array(out.weight_file, graph.weights.astype(WEIGHT_DTYPE, copy=False))
            store.seal(out.weight_file)
        return out

    # ----------------------------------------------------------------- lookups

    def index_lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge-file offset ranges for a sorted array of vertex ids.

        Returns (starts, ends) in *edge units*.  Index entries are fetched
        with coalesced reads over the index file.
        """
        if len(keys) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        keys = np.asarray(keys, dtype=np.int64)
        if np.any(keys[1:] < keys[:-1]):
            raise ValueError("index_lookup requires sorted keys")
        if keys[0] < 0 or keys[-1] >= self.num_vertices:
            raise ValueError("vertex id out of range")
        item = OFFSET_DTYPE.itemsize
        gap = coalescing_gap(self.store, item)
        spans = coalesce_ranges(keys, keys + 2, gap)
        read = self.store.read_spans(self.index_file, OFFSET_DTYPE, spans)
        block = read.take().astype(np.int64)
        local = span_positions(spans, read.base, keys)
        return block[local], block[local + 1]

    def edges_for(self, starts: np.ndarray, ends: np.ndarray) -> RangeGather:
        """Destination ids of the edge ranges, read now; ``take()`` returns
        them concatenated in order, ``take(lo, hi)`` those of ranges
        ``lo .. hi - 1``."""
        return self._gather(self.edge_file, TARGET_DTYPE, starts, ends)

    def weights_for(self, starts: np.ndarray, ends: np.ndarray) -> RangeGather:
        """Weights of the edge ranges, as :meth:`edges_for`."""
        if not self.has_weights:
            raise ValueError(f"graph {self.prefix!r} has no edge weights")
        return self._gather(self.weight_file, WEIGHT_DTYPE, starts, ends)

    def _gather(self, filename: str, dtype: np.dtype, starts: np.ndarray,
                ends: np.ndarray) -> RangeGather:
        """Read the coalesced spans covering the ranges (sorted by start) and
        record the overshoot; the items stay in the fetched pages."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        lengths = np.maximum(ends - starts, 0)
        nonempty = lengths > 0
        rank = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(nonempty, out=rank[1:])
        if not nonempty.all():
            starts, lengths = starts[nonempty], lengths[nonempty]
        item = dtype.itemsize
        spans = coalesce_ranges(starts, starts + lengths,
                                coalescing_gap(self.store, item))
        read = self.store.read_spans(filename, dtype, spans)
        gather = RangeGather(read, rank, span_positions(spans, read.base, starts),
                             lengths)
        self.wasted_read_bytes += (read.size - gather.total) * item
        return gather

    # ---------------------------------------------------------------- streams

    def out_degrees(self) -> np.ndarray:
        """Every vertex's out-degree, from one sequential read of the index."""
        offsets = self.store.read_array(self.index_file, OFFSET_DTYPE).astype(np.int64)
        return np.diff(offsets)

    def stream_edges(self, degrees: np.ndarray | None = None,
                     weights: bool | None = None):
        """Sequentially scan the whole graph, yielding (srcs, dsts, weights).

        The access pattern edge-centric systems (X-Stream) and dense
        supersteps use: pure sequential reads of the index and edge files.
        ``degrees`` are :meth:`out_degrees`, read here unless the caller
        already has them; ``weights`` (default: the graph has them) reads
        the weight file alongside, else each chunk's weights are None.
        """
        if degrees is None:
            degrees = self.out_degrees()
        if weights is None:
            weights = self.has_weights
        srcs_all = np.repeat(np.arange(self.num_vertices, dtype=np.uint64), degrees)
        for start in range(0, self.num_edges, STREAM_EDGES_PER_CHUNK):
            n = min(STREAM_EDGES_PER_CHUNK, self.num_edges - start)
            dsts = self.store.read_array(self.edge_file, TARGET_DTYPE, start, n)
            chunk_weights = None
            if weights:
                chunk_weights = self.store.read_array(self.weight_file, WEIGHT_DTYPE,
                                                      start, n)
            yield srcs_all[start:start + n], dsts, chunk_weights
