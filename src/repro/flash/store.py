"""The file-store core: one interface, two placements.

Everything above the storage layer (sort-reduce runs, graph files, vertex
data, checkpoints) talks to a *file store* through the append → seal →
stream → delete pattern of sort-reduce (§IV-A, §V-C.3).  The paper's two
stacks serve that same pattern and differ only in who owns the
logical→physical mapping, and the code is split the same way:
:class:`FileStore` owns everything placement-independent — the file record
and its RAM tail buffer, queries, the sequence behind ``unique_name``,
``create``/``append``/``seal``, bounded
commit records, the one range-read kernel under ``read``/``read_array``/
``stream``/``read_spans`` (one pass over a call's spans, one placement
fetch and one device call for all of them, each span still its own device
read with its own CRC verify/repair and lookahead charge), the numpy
helpers, ``delete``/``rename`` with their crash ordering, the snapshot
record list, replay of the shared metadata records — and a placement
supplies the hooks at the bottom of the class.
:class:`~repro.flash.aoffs.AppendOnlyFlashFS` places files on whole erase
blocks of raw flash, :class:`~repro.flash.filestore.SSDFileSystem` on
logical pages of an FTL-backed SSD.  ``FileStore`` is also the declared
interface of the layers above (``store: FileStore``; mypy holds both
placements to it).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Literal, TypeGuard, overload

import numpy as np

from repro.flash.device import FlashDevice, FlashError
from repro.flash.faults import page_crc, verify_pages
from repro.flash.journal import (
    RecoveryStats,
    chunked_file_records,
    compact_json,
    frame_capacity,
)

#: Most pages one commit or snapshot record lists; :meth:`FileStore._record_pages`
#: lowers it where that many do not fit one metadata frame (small pages).
COMMIT_CHUNK_PAGES = 128


def is_frozen(array: np.ndarray) -> bool:
    """Whether no reference can write ``array``'s memory any more: it and
    every array under it are read-only, down to one that owns its memory or
    to a ``bytes`` object.  Memory from any other buffer (a ``bytearray``, a
    ``memoryview``, a mapped file) may still change, so it is not frozen.

    An owner that made itself read-only promises to stay so; the store keeps
    a frozen array's buffer instead of a copy (:meth:`FileStore.append_array`).
    """
    base = array
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        if base.base is None:
            return True
        base = base.base
    return isinstance(base, bytes)


def _frozen_bytes(data: bytes | bytearray | memoryview) -> TypeGuard[memoryview]:
    """Whether ``data`` is a contiguous byte view of a frozen array."""
    return (isinstance(data, memoryview) and data.format == "B"
            and data.c_contiguous and isinstance(data.obj, np.ndarray)
            and is_frozen(data.obj))


@dataclass(slots=True)
class StoredFile:
    """Metadata of one file: where its flushed pages live, and its RAM tail."""

    name: str
    #: One entry per ``pages_per_extent`` flushed pages: an LPN per page on
    #: the SSD store, an erase block per block of pages on AOFFS.
    extents: list[int] = field(default_factory=list)
    size: int = 0                  # logical bytes, including the tail buffer
    #: Partial last page, not yet on flash, kept as a fragment list so
    #: appends never recopy the accumulated tail; a flush joins once.
    tail_parts: list[bytes | memoryview] = field(default_factory=list)
    tail_len: int = 0
    flushed_pages: int = 0         # pages already programmed to flash
    sealed: bool = False
    #: Per-flushed-page CRC-32, recorded only under fault injection or
    #: durability: the end-to-end check that catches ECC miscorrections.
    page_crcs: list[int] = field(default_factory=list)
    #: ``(first page, buffer)`` of every flush this store object made, in
    #: order: the buffer the flush cut its pages from, so a read can return
    #: them as contiguous segments (:meth:`FileStore.read` with
    #: ``segments=True``).  They cover every flushed page only when the
    #: first starts at page 0: a remounted file starts with none, and
    #: ``write_at`` drops them.
    buffers: list[tuple[int, memoryview]] = field(default_factory=list)
    #: A sealed file's snapshot records, JSON-encoded by the first
    #: compaction that lists it and reused by every later one; whatever
    #: changes a sealed file's record (rename, ``write_at`` patch, AOFFS
    #: remap) drops it.
    encoded: list[str] | None = None

    def tail_bytes(self) -> bytes | memoryview:
        """The unflushed tail as one buffer (consolidates in place): ``bytes``,
        or a view of a frozen array's tail."""
        if len(self.tail_parts) != 1:
            joined = b"".join(self.tail_parts)
            self.tail_parts = [joined] if joined else []
            return joined
        return self.tail_parts[0]


class SpanRead:
    """What one :meth:`FileStore.read_spans` fetched: the spans' items,
    concatenated, still in the fetched page buffers.

    ``base[i]`` is where span ``i`` starts in the concatenation and ``size``
    is its length in items.  Nothing is copied until :meth:`take`, so a
    reader that consumes the items a batch at a time holds one batch, not
    all of them.  The buffers are the device's immutable pages: a later
    write or delete cannot change what a take returns.
    """

    __slots__ = ("dtype", "base", "size", "_pieces", "_piece_ends")

    def __init__(self, dtype: np.dtype, pieces: list, base: np.ndarray,
                 size: int):
        self.dtype = dtype
        self.base = base
        self.size = size
        self._pieces = pieces
        self._piece_ends: np.ndarray | None = None

    def take(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Items ``[lo, hi)`` of the concatenation (default: all of it),
        copied into one new writable array by a single ``bytearray`` join
        over the pieces they lie in, the first and last cut to the range."""
        if hi is None:
            hi = self.size
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"take [{lo}, {hi}) out of range for {self.size} items")
        pieces = self._pieces
        if lo or hi != self.size:
            if lo == hi:
                return np.empty(0, dtype=self.dtype)
            if self._piece_ends is None:
                self._piece_ends = np.cumsum([len(p) for p in pieces])
            ends, item = self._piece_ends, self.dtype.itemsize
            i, j = np.searchsorted(ends, [lo * item, hi * item - 1], side="right")
            head = lo * item - (int(ends[i - 1]) if i else 0)
            stop = hi * item - (int(ends[j - 1]) if j else 0)
            if i == j:
                pieces = [memoryview(pieces[i])[head:stop]]
            else:
                pieces = [memoryview(pieces[i])[head:], *pieces[i + 1:j],
                          memoryview(pieces[j])[:stop]]
        return np.frombuffer(bytearray().join(pieces), dtype=self.dtype)


_first_page = itemgetter(0)


class SegmentRead:
    """What one :meth:`FileStore.read` with ``segments=True`` fetched: the
    byte range as the contiguous buffers it lies in, in order, each a view
    of a buffer the file's pages were cut from (or of the RAM tail), so
    nothing is copied.  ``len()`` is the byte count, as of the ``bytes`` it
    stands for.  Under a fault plan, and for a file whose pages this store
    object did not flush, it is one joined copy of the fetched pages."""

    __slots__ = ("segments", "nbytes")

    def __init__(self, segments: list, nbytes: int):
        self.segments = segments
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes


class FileStore:
    """Append-only files over flash; subclasses decide where pages live.

    ``prefetch_pages`` is the lookahead buffer applied to small reads: a
    read shorter than the buffer still transfers the whole buffer (up to
    end-of-file) and the overshoot is charged to the flash clock — the
    "unused flash reads" of §V-C.3.  Each subclass sets its own.
    """

    #: Names the store in error messages and CRC-repair labels.
    label = "file-store"
    prefetch_pages: int

    def __init__(self, device: FlashDevice, pages_per_extent: int,
                 durable: bool):
        self.device = device
        # A plain attribute, not a property: the shared read/append paths
        # touch it on every call.
        self.page_bytes = device.geometry.page_bytes
        self.pages_per_extent = pages_per_extent
        self.durable = durable
        self.recovery = RecoveryStats()
        #: How many names :meth:`unique_name` has handed out.  A remount
        #: carries it over (``SystemConfig.remount``).
        self.names_issued = 0
        self._files: dict[str, StoredFile] = {}
        self._pending_records: list[dict] = []
        # Worst-case JSON size of a frame holding one ``file`` record (the
        # longest of the page-listing records) with no name and no pages,
        # and of each page it then lists: a CRC-32 and an extent id, which
        # has no more digits than the device has pages, a comma each.
        pages = device.geometry.num_blocks * device.geometry.pages_per_block
        bare = chunked_file_records("", pages * self.page_bytes, pages, False,
                                    [], [], COMMIT_CHUNK_PAGES)
        self._record_room = frame_capacity(self.page_bytes) - len(
            compact_json(bare))
        self._record_page_bytes = len(f"{2 ** 32 - 1},{pages},")

    # ---------------------------------------------------------------- queries

    def exists(self, name: str) -> bool:
        return name in self._files

    def is_sealed(self, name: str) -> bool:
        return self._file(name).sealed

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def size(self, name: str) -> int:
        return self._file(name).size

    def _file(self, name: str) -> StoredFile:
        if name not in self._files:
            raise FileNotFoundError(f"no {self.label} file named {name!r}")
        return self._files[name]

    def unique_name(self, stem: str) -> str:
        """``"<stem>-<n>"``, with ``n`` from one sequence per store.

        The engine names its run files and vertex data here.  Durable stores
        journal those names, so the sequence is part of the simulated cost:
        it depends only on what this store has been asked for, never on
        other stores in the same process.
        """
        n = self.names_issued
        self.names_issued += 1
        return f"{stem}-{n}"

    # ---------------------------------------------------------------- writing

    def create(self, name: str) -> None:
        """Create an empty file; the name must be unused."""
        if name in self._files:
            raise FileExistsError(f"{self.label} file {name!r} already exists")
        self._files[name] = StoredFile(name)
        self._log({"op": "create", "name": name})
        self._commit_log()

    def append(self, name: str, data: bytes | bytearray | memoryview) -> None:
        """Append bytes to a file, creating it if needed.

        Complete pages stream to flash at once (one device program: its
        latency is amortized over the call); the partial last page stays in
        the host tail buffer until more data arrives or the file is sealed.
        ``bytes`` and byte views of frozen arrays (:meth:`append_array`) are
        stored as handed over, never copied; any other buffer is copied
        first, since its owner may still change it.
        """
        kept = data if isinstance(data, bytes) or _frozen_bytes(data) else bytes(data)
        f = self._files.get(name)
        if f is None:
            f = self._files[name] = StoredFile(name)
            self._log({"op": "create", "name": name})
        if f.sealed:
            raise FlashError(f"append to sealed {self.label} file {name!r}")
        if kept:
            f.tail_parts.append(kept)
            f.tail_len += len(kept)
        f.size += len(kept)
        page_bytes = self.page_bytes
        flush_bytes = f.tail_len // page_bytes * page_bytes
        if flush_bytes:
            blob = f.tail_bytes()
            # Zero-copy page views into the joined tail (or a frozen
            # array); the device stores them as-is, and every consumer goes
            # through the buffer protocol.
            view = memoryview(blob)
            self._flush(f, [view[start:start + page_bytes]
                            for start in range(0, flush_bytes, page_bytes)],
                        view[:flush_bytes])
            remainder = blob[flush_bytes:]
            f.tail_parts = [remainder] if remainder else []
            f.tail_len -= flush_bytes
        self._commit_log()

    def seal(self, name: str) -> None:
        """Flush the tail (padded to a page) and make the file immutable."""
        f = self._file(name)
        if f.sealed:
            return
        if f.tail_len:
            tail = f.tail_bytes()
            page = b"".join((tail, bytes(self.page_bytes - len(tail))))
            self._flush(f, [page], memoryview(page))
            f.tail_parts = []
            f.tail_len = 0
        f.sealed = True
        self._log({"op": "seal", "name": name, "size": f.size})
        self._commit_log()

    def _flush(self, f: StoredFile, pages: list, buffer: memoryview) -> None:
        """Program ``pages``, consecutive page-sized slices of ``buffer``,
        at the file's end, then log their commit records.

        Records only after the data is on flash (write-behind for data,
        write-ahead for deletes): a crash in between leaves programmed but
        unreferenced pages that mount discards, never a torn file.  Chunked
        so every record fits one metadata frame; ``flushed`` is
        absolute and extents/crcs extend on replay, so a crash mid-sequence
        recovers a consistent prefix of the flush.
        """
        first, logged = f.flushed_pages, len(f.extents)
        crcs = None
        if self.device.faults is not None or self.durable:
            crcs = [page_crc(data) for data in pages]
        self._program(f, pages, crcs)
        if crcs is not None:
            f.page_crcs += crcs
        f.buffers.append((first, buffer))
        f.flushed_pages = end = first + len(pages)
        if self.durable:
            per_extent = self.pages_per_extent
            chunk = self._record_pages(f.name)
            for cs in range(first, end, chunk):
                ce = min(cs + chunk, end)
                covered = (ce - 1) // per_extent + 1
                self._log({"op": "commit", "name": f.name, "flushed": ce,
                           "blocks": f.extents[logged:covered],
                           "crcs": f.page_crcs[cs:ce]})
                logged = covered

    # ---------------------------------------------------------------- reading

    @overload
    def read(self, name: str, offset: int = 0, nbytes: int | None = None,
             *, segments: Literal[False] = False) -> bytes: ...

    @overload
    def read(self, name: str, offset: int = 0, nbytes: int | None = None,
             *, segments: Literal[True]) -> SegmentRead: ...

    def read(self, name: str, offset: int = 0, nbytes: int | None = None,
             *, segments: bool = False) -> bytes | SegmentRead:
        """Read a byte range; one device access latency per call.

        Streaming readers should read in large chunks; a caller doing many
        small reads pays the per-access latency each time, exactly like a
        real host doing fine-grained random flash I/O.  The range comes
        back as one ``bytes`` copy or, with ``segments=True``, as a
        :class:`SegmentRead` of views; the device read and its charges are
        the same either way.
        """
        f = self._file(name)
        if nbytes is None:
            nbytes = f.size - offset
        end = offset + nbytes
        pieces = self._read_spans(f, 1, [(offset, end)])
        if not segments:
            return b"".join(pieces)
        return SegmentRead(self._segments(f, offset, end, pieces), nbytes)

    def _segments(self, f: StoredFile, start: int, end: int,
                  pieces: list) -> list:
        """Bytes ``[start, end)`` of ``f``, which ``_read_spans`` just
        fetched as ``pieces``, as views of ``f.buffers``: one per buffer the
        range crosses, then the RAM-tail piece.  The device kept the pages
        it returned as slices of those buffers and no later write changes a
        page, so the views hold the same bytes; a fault plan may hand back
        other bytes, and a remounted file has no buffers, so there the
        fetched pieces are joined.  O(log buffers + segments)."""
        page_bytes = self.page_bytes
        flushed = f.flushed_pages * page_bytes
        stop = end if end < flushed else flushed
        if start >= stop:
            return pieces              # the RAM tail alone, or nothing
        buffers = f.buffers
        if self.device.faults is not None or not buffers or buffers[0][0]:
            return [b"".join(pieces)]
        i = bisect_right(buffers, start // page_bytes, key=_first_page) - 1
        j = bisect_right(buffers, (stop - 1) // page_bytes, key=_first_page)
        out = [buffer for _first, buffer in buffers[i:j]]
        out[-1] = out[-1][:stop - buffers[j - 1][0] * page_bytes]
        out[0] = out[0][start - buffers[i][0] * page_bytes:]
        if end > flushed:
            out += pieces[-1:]
        return out

    def read_spans(self, name: str, dtype: np.dtype,
                   spans: list[tuple[int, int]]) -> SpanRead:
        """Scatter read: one :meth:`read` per ``(start_item, end_item)`` span
        of ``dtype`` items, in order.

        Spans are never merged — each pays its own access latency and
        lookahead, exactly as the same reads issued one by one, all of them
        here and now, and a span out of range raises after the reads before
        it.  The host work is one pass over the spans (:meth:`_read_spans`)
        and one device call; the fetched pages are kept as they are, and the
        :class:`SpanRead` copies items out of them on request.
        """
        dtype = np.dtype(dtype)
        pieces = self._read_spans(self._file(name), dtype.itemsize, spans)
        starts = list(accumulate([end - start for start, end in spans], initial=0))
        return SpanRead(dtype, pieces,
                        np.fromiter(starts, np.int64, len(spans)), starts[-1])

    def _read_spans(self, f: StoredFile, item: int,
                    spans: list[tuple[int, int]]) -> list:
        """The one range-read kernel: the byte ranges ``[start * item, end *
        item)`` of ``f``, in order, as buffers to concatenate — the fetched
        flash pages, the first and last memoryview-cut to the range, then
        the part of the range that is still in the RAM tail.

        One pass over the spans finds each one's pages and cuts, up to the
        first span out of range; one :meth:`_fetch` reads them, one device
        read per span, and after each read (``after``) verifies its CRCs,
        charges its lookahead and cuts its pages; the tail parts are spliced
        in; then the error, if any, is raised.
        """
        page_bytes = self.page_bytes
        flushed_pages = f.flushed_pages
        flushed = flushed_pages * page_bytes
        size, prefetch = f.size, self.prefetch_pages
        # Per device read: its first page, its page count, and (head of its
        # first page, stop of its last page, lookahead pages beyond it).
        firsts: list[int] = []
        counts: list[int] = []
        cuts = []
        tails = []   # per span reaching the RAM tail: (reads before, offset, end)
        error = None
        for start, end in spans:
            offset, end = start * item, end * item
            if offset < 0 or end < offset or end > size:
                error = ValueError(f"read [{offset}, {end}) out of range for "
                                   f"{f.name!r} of size {size}")
                break
            if end == offset:
                continue
            if offset < flushed:
                # Conditional expressions, not min(): this runs per span.
                first = offset // page_bytes
                flash_end = end if end < flushed else flushed
                last = (flash_end - 1) // page_bytes
                count = last + 1 - first
                firsts.append(first)
                counts.append(count)
                # Readahead stops at end-of-file, so reading a small file
                # whole wastes nothing; the waste appears on short reads
                # inside large files.
                ahead = flushed_pages - first
                cuts.append((offset - first * page_bytes,
                             flash_end - last * page_bytes,
                             (prefetch if prefetch < ahead else ahead) - count))
            if end > flushed:
                tails.append((len(counts), offset, end))
        pieces: list = []
        if counts:
            device = self.device

            # What the reads need is bound as defaults, not closed over:
            # cells would cost every read, and every span of the pass above.
            def after(i: int, pages: list, cuts=cuts, firsts=firsts, f=f,
                      store=self, faults=device.faults, clock=device.clock,
                      read_bw=device.profile.flash_read_bw,
                      page_bytes=page_bytes) -> list:
                head, stop, shortfall = cuts[i]
                if faults is not None:
                    pages = verify_pages(
                        pages, f.page_crcs, firsts[i],
                        lambda index: store._fetch(f, [index], [1])[0],
                        faults, f"{store.label.lower()}:{f.name}")
                if shortfall > 0:
                    nbytes = shortfall * page_bytes
                    clock.charge("flash", nbytes / read_bw, nbytes=nbytes)
                if len(pages) == 1:
                    pages[0] = memoryview(pages[0])[head:stop]
                else:
                    pages[0] = memoryview(pages[0])[head:]
                    pages[-1] = memoryview(pages[-1])[:stop]
                return pages
            pieces = self._fetch(f, firsts, counts, after)
        if tails:
            page_ends = list(accumulate(counts, initial=0))
            tail = memoryview(f.tail_bytes())
            spliced: list = []
            k = 0
            for reads, offset, end in tails:
                spliced += pieces[k:page_ends[reads]]
                k = page_ends[reads]
                spliced.append(tail[max(0, offset - flushed):end - flushed])
            pieces = spliced + pieces[k:]
        if error is not None:
            raise error
        return pieces

    def stream(self, name: str, chunk_bytes: int) -> Iterator[bytes]:
        """Yield the file's contents in ``chunk_bytes`` pieces (sequential scan)."""
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        size = self._file(name).size
        offset = 0
        while offset < size:
            n = min(chunk_bytes, size - offset)
            yield self.read(name, offset, n)
            offset += n

    # ----------------------------------------------------------- numpy helpers

    def append_array(self, name: str, array: np.ndarray) -> None:
        """Append a numpy array's raw bytes to a file.

        A C-contiguous array that :func:`is_frozen` is not copied: the
        device keeps page views of its buffer, which holds the array alive.
        Any other array is copied, as :meth:`append` copies.
        """
        if array.flags.c_contiguous and is_frozen(array):
            self.append(name, memoryview(array.reshape(-1).view(np.uint8)))
        else:
            self.append(name, np.ascontiguousarray(array).tobytes())

    def read_array(self, name: str, dtype: np.dtype, start_item: int = 0,
                   count: int | None = None) -> np.ndarray:
        """Read ``count`` items of ``dtype`` starting at item ``start_item``."""
        dtype = np.dtype(dtype)
        if count is None:
            count = self.size(name) // dtype.itemsize - start_item
        raw = self.read(name, start_item * dtype.itemsize, count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype)

    # --------------------------------------------------------------- deletion

    def delete(self, name: str) -> None:
        """Delete a file and return its extents to the free pool.

        Metadata first: a crash mid-reclaim leaves orphaned extents (mount
        reclaims them), never a file referencing reclaimed ones.  The table
        changes before the commit so a compaction fired inside it snapshots
        the post-delete state.
        """
        f = self._file(name)
        self._log({"op": "delete", "name": name})
        del self._files[name]
        self._commit_log()
        self._reclaim(f.extents)

    def rename(self, old: str, new: str, overwrite: bool = False) -> None:
        """Rename a file (metadata only, no flash traffic).

        With ``overwrite=True`` an existing target is atomically replaced:
        the delete and the rename land in one metadata commit, so after any
        crash the target is either entirely the old file or entirely the
        new one — the primitive checkpoint publication relies on.
        """
        f = self._file(old)
        victim = None
        if new in self._files:
            if not overwrite or new == old:
                raise FileExistsError(
                    f"{self.label} file {new!r} already exists")
            victim = self._files[new]
            self._log({"op": "delete", "name": new})
        self._log({"op": "rename", "old": old, "new": new})
        f.name = new
        f.encoded = None
        del self._files[old]
        self._files[new] = f
        self._commit_log()
        if victim is not None:
            self._reclaim(victim.extents)

    # ------------------------------------------------------- metadata records
    #
    # One schema for both durable logs (table in DESIGN.md "File stores"):
    # the shared ops are emitted and replayed here, and a placement wraps
    # :meth:`_apply_record` with its own.

    def _log(self, *records: dict) -> None:
        """Buffer metadata records for the current public call (no-op unless
        durable); :meth:`_commit_log` writes them out."""
        if self.durable:
            self._pending_records.extend(records)

    def _snapshot_records(self) -> list[str]:
        """The whole file table as encoded ``file``/``filex`` records
        (compaction).  A sealed file's are encoded once and kept
        (:attr:`StoredFile.encoded`); an open file's change with every
        flush, so they are encoded afresh."""
        records: list[str] = []
        for name in sorted(self._files):
            f = self._files[name]
            encoded = f.encoded
            if encoded is None:
                encoded = [compact_json(r) for r in chunked_file_records(
                    name, f.size, f.flushed_pages, f.sealed, f.extents,
                    f.page_crcs, self._record_pages(name))]
                if f.sealed:
                    f.encoded = encoded
            records += encoded
        return records

    def _record_pages(self, name: str) -> int:
        """Pages one commit or snapshot record of file ``name`` may list and
        still fit a metadata frame whatever the CRCs and extent ids turn out
        to be.  ``COMMIT_CHUNK_PAGES`` wherever that fits — every page size
        from 4 KB up — so those geometries' frames never depend on this."""
        room = self._record_room - len(compact_json(name))
        return max(1, min(COMMIT_CHUNK_PAGES, room // self._record_page_bytes))

    def _replay_frame(self, records: list[dict]) -> None:
        for record in records:
            self._apply_record(record)
        self.recovery.replayed_records += len(records)
        self.recovery.replayed_frames += 1

    def _apply_record(self, r: dict) -> None:
        """Replay one shared record.  Tolerant of records about files a
        later-discarded frame would have introduced: they are skipped."""
        op = r.get("op")
        files = self._files
        if op == "create":
            files.setdefault(r["name"], StoredFile(r["name"]))
        elif op == "commit":
            f = files.setdefault(r["name"], StoredFile(r["name"]))
            f.extents.extend(r["blocks"])
            f.flushed_pages = r["flushed"]
            f.size = r["flushed"] * self.page_bytes
            f.page_crcs.extend(r["crcs"])
        elif op == "seal":
            if r["name"] in files:
                f = files[r["name"]]
                f.sealed = True
                f.size = r["size"]
        elif op == "delete":
            files.pop(r["name"], None)
        elif op == "rename":
            if r["old"] in files:
                f = files.pop(r["old"])
                f.name = r["new"]
                files[r["new"]] = f
        elif op == "file":
            files[r["name"]] = StoredFile(
                r["name"], extents=list(r["blocks"]), size=r["size"],
                flushed_pages=r["flushed"], sealed=r["sealed"],
                page_crcs=list(r["crcs"]))
        elif op == "filex":
            if r["name"] in files:
                f = files[r["name"]]
                f.extents.extend(r["blocks"])
                f.page_crcs.extend(r["crcs"])

    def _drop_lost_tail(self, f: StoredFile) -> None:
        """The RAM tail died with power: an unsealed file ends at its last
        committed page."""
        committed = f.flushed_pages * self.page_bytes
        if not f.sealed and f.size != committed:
            f.size = committed
            self.recovery.truncated_files += 1

    # ------------------------------------------------------- placement hooks

    @property
    def free_bytes(self) -> int:
        """Bytes the free pool can still hold."""
        raise NotImplementedError

    def _program(self, f: StoredFile, pages: list,
                 crcs: list[int] | None) -> None:
        """Program ``pages`` from page index ``f.flushed_pages`` on, as one
        device program, moving extents from the free pool (checked *before*
        any is taken: a failed append leaves the pool untouched) to
        ``f.extents``.  ``crcs`` are the pages' CRC-32s when the store keeps
        them (else ``None``), for a placement that tags pages with one."""
        raise NotImplementedError

    def _fetch(self, f: StoredFile, firsts: list[int], counts: list[int],
               after=None) -> list:
        """Pages ``firsts[i] .. firsts[i] + counts[i] - 1`` of the file for
        every ``i``, concatenated: one device call, in which each range is a
        device read of its own followed by ``after(i, pages)``
        (:meth:`FlashDevice.read_pages`).  A CRC repair re-reads one page as
        ``_fetch(f, [index], [1])``."""
        raise NotImplementedError

    def _reclaim(self, extents: list[int]) -> None:
        """Return a dead file's extents to the free pool."""
        raise NotImplementedError

    def _commit_log(self) -> None:
        """Write the buffered metadata records to the durable log."""
        raise NotImplementedError
