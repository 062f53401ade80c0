"""The file-store core: one interface, two placements.

Everything above the storage layer (sort-reduce runs, graph files, vertex
data, checkpoints) talks to a *file store* through the append → seal →
stream → delete pattern of sort-reduce (§IV-A, §V-C.3).  The paper's two
stacks serve that same pattern and differ only in who owns the
logical→physical mapping, and the code is split the same way:
:class:`FileStore` owns everything placement-independent — the file record
and its RAM tail buffer, queries, the sequence behind ``unique_name``,
``create``/``append``/``seal``, bounded
commit records, the one range-read kernel with CRC verify/repair and the
lookahead charge under ``read``/``stream``/``read_spans``, the numpy helpers, ``delete``/``rename`` with their
crash ordering, the snapshot record list, replay of the shared metadata
records — and a placement supplies the hooks at the bottom of the class.
:class:`~repro.flash.aoffs.AppendOnlyFlashFS` places files on whole erase
blocks of raw flash, :class:`~repro.flash.filestore.SSDFileSystem` on
logical pages of an FTL-backed SSD.  ``FileStore`` is also the declared
interface of the layers above (``store: FileStore``; mypy holds both
placements to it).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.flash.device import FlashDevice, FlashError
from repro.flash.faults import page_crc, verify_pages
from repro.flash.journal import (
    RecoveryStats,
    chunked_file_records,
    frame_capacity,
)

#: Most pages one commit or snapshot record lists; :meth:`FileStore._record_pages`
#: lowers it where that many do not fit one metadata frame (small pages).
COMMIT_CHUNK_PAGES = 128


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
    tail_parts: list[bytes] = field(default_factory=list)
    tail_len: int = 0
    flushed_pages: int = 0         # pages already programmed to flash
    sealed: bool = False
    #: Per-flushed-page CRC-32, recorded only under fault injection or
    #: durability: the end-to-end check that catches ECC miscorrections.
    page_crcs: list[int] = field(default_factory=list)

    def tail_bytes(self) -> bytes:
        """The unflushed tail as one bytes object (consolidates in place)."""
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
        copied into one new writable array."""
        if hi is None:
            hi = self.size
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"take [{lo}, {hi}) out of range for {self.size} items")
        item = self.dtype.itemsize
        data = np.empty(hi - lo, dtype=self.dtype)
        out = memoryview(data.view(np.uint8))
        pieces = self._pieces
        i, skip = 0, 0
        if lo:
            if self._piece_ends is None:
                self._piece_ends = np.cumsum([len(p) for p in pieces])
            i = int(np.searchsorted(self._piece_ends, lo * item, side="right"))
            skip = lo * item - (int(self._piece_ends[i - 1]) if i else 0)
        pos, nbytes = 0, len(out)
        while pos < nbytes:
            piece = pieces[i]
            i += 1
            if skip or len(piece) > nbytes - pos:
                piece = memoryview(piece)[skip:skip + nbytes - pos]
                skip = 0
            end = pos + len(piece)
            out[pos:end] = piece
            pos = end
        return data


class FileStore:
    """Append-only files over flash; subclasses decide where pages live.

    ``prefetch_pages`` is the lookahead buffer applied to small reads: a
    read shorter than the buffer still transfers the whole buffer (up to
    end-of-file) and the overshoot is charged to the flash clock — the
    "unused flash reads" of §V-C.3.
    """

    #: Names the store in error messages and CRC-repair labels.
    label = "file-store"

    def __init__(self, device: FlashDevice, pages_per_extent: int,
                 prefetch_pages: int, durable: bool):
        self.device = device
        # A plain attribute, not a property: the shared read/append paths
        # touch it on every call.
        self.page_bytes = device.geometry.page_bytes
        self.pages_per_extent = pages_per_extent
        self.prefetch_pages = prefetch_pages
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
            json.dumps(bare, separators=(",", ":")))
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

    def append(self, name: str, data: bytes) -> None:
        """Append bytes to a file, creating it if needed.

        Complete pages stream to flash at once (one device program: its
        latency is amortized over the call); the partial last page stays in
        the host tail buffer until more data arrives or the file is sealed.
        """
        f = self._files.get(name)
        if f is None:
            f = self._files[name] = StoredFile(name)
            self._log({"op": "create", "name": name})
        if f.sealed:
            raise FlashError(f"append to sealed {self.label} file {name!r}")
        if data:
            f.tail_parts.append(bytes(data))
            f.tail_len += len(data)
        f.size += len(data)
        page_bytes = self.page_bytes
        flush_bytes = f.tail_len // page_bytes * page_bytes
        if flush_bytes:
            blob = f.tail_bytes()
            # Zero-copy page views into the joined tail; the device stores
            # them as-is, and every consumer goes through the buffer protocol.
            view = memoryview(blob)
            self._flush(f, [view[start:start + page_bytes]
                            for start in range(0, flush_bytes, page_bytes)])
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
            self._flush(f, [tail + b"\x00" * (self.page_bytes - len(tail))])
            f.tail_parts = []
            f.tail_len = 0
        f.sealed = True
        self._log({"op": "seal", "name": name, "size": f.size})
        self._commit_log()

    def _flush(self, f: StoredFile, pages: list) -> None:
        """Program ``pages`` at the file's end, then log their commit records.

        Records only after the data is on flash (write-behind for data,
        write-ahead for deletes): a crash in between leaves programmed but
        unreferenced pages that mount discards, never a torn file.  Chunked
        so every record fits one metadata frame; ``flushed`` is
        absolute and extents/crcs extend on replay, so a crash mid-sequence
        recovers a consistent prefix of the flush.
        """
        first, logged = f.flushed_pages, len(f.extents)
        self._program(f, pages)
        if self.device.faults is not None or self.durable:
            f.page_crcs.extend(page_crc(data) for data in pages)
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

    def read(self, name: str, offset: int = 0, nbytes: int | None = None) -> bytes:
        """Read a byte range; one device access latency per call.

        Streaming readers should read in large chunks; a caller doing many
        small reads pays the per-access latency each time, exactly like a
        real host doing fine-grained random flash I/O.
        """
        f = self._file(name)
        if nbytes is None:
            nbytes = f.size - offset
        return b"".join(self._read_span(f, offset, nbytes))

    def read_spans(self, name: str, dtype: np.dtype,
                   spans: list[tuple[int, int]]) -> SpanRead:
        """Scatter read: one :meth:`read` per ``(start_item, end_item)`` span
        of ``dtype`` items, in order.

        Spans are never merged — each pays its own access latency and
        lookahead, exactly as the same reads issued one by one, all of them
        here and now.  The fetched pages are kept as they are; the
        :class:`SpanRead` copies items out of them on request.
        """
        dtype = np.dtype(dtype)
        item = dtype.itemsize
        f = self._file(name)
        pieces: list = []
        base = []
        filled = 0
        for start, end in spans:
            base.append(filled)
            pieces += self._read_span(f, start * item, (end - start) * item)
            filled += end - start
        return SpanRead(dtype, pieces, np.array(base, dtype=np.int64), filled)

    def _read_span(self, f: StoredFile, offset: int, nbytes: int) -> list:
        """The one read path: bytes ``[offset, offset + nbytes)`` of ``f`` as
        buffers to concatenate — the fetched flash pages, first and last cut
        to the range, then the part that is still in the RAM tail."""
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > f.size:
            raise ValueError(
                f"read [{offset}, {end}) out of range for "
                f"{f.name!r} of size {f.size}"
            )
        pieces: list = []
        if nbytes == 0:
            return pieces
        page_bytes = self.page_bytes
        flushed_bytes = f.flushed_pages * page_bytes
        if offset < flushed_bytes:
            flash_end = min(end, flushed_bytes)
            first_page = offset // page_bytes
            last_page = (flash_end - 1) // page_bytes
            pieces = self._fetch(f, first_page, last_page)
            faults = self.device.faults
            if faults is not None:
                pieces = verify_pages(
                    pieces, f.page_crcs, first_page,
                    lambda i: self._fetch(f, i, i)[0],
                    faults, f"{self.label.lower()}:{f.name}")
            self._charge_prefetch(f, first_page, last_page + 1 - first_page)
            pieces[-1] = pieces[-1][:flash_end - last_page * page_bytes]
            pieces[0] = pieces[0][offset - first_page * page_bytes:]
        if end > flushed_bytes:
            pieces.append(f.tail_bytes()[max(0, offset - flushed_bytes):
                                         end - flushed_bytes])
        return pieces

    def _charge_prefetch(self, f: StoredFile, first_page: int, pages_read: int) -> None:
        """Charge the unused tail of the lookahead buffer on a small read.

        Readahead stops at end-of-file, so reading a small file whole wastes
        nothing; the waste appears on short reads *inside* large files.
        """
        effective = min(self.prefetch_pages, f.flushed_pages - first_page)
        shortfall = effective - pages_read
        if shortfall <= 0:
            return
        nbytes = shortfall * self.page_bytes
        self.device.clock.charge(
            "flash", nbytes / self.device.profile.flash_read_bw, nbytes=nbytes)

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
        """Append a numpy array's raw bytes to a file."""
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

    def _snapshot_records(self) -> list[dict]:
        """The whole file table as ``file``/``filex`` records (compaction)."""
        records: list[dict] = []
        for name in sorted(self._files):
            f = self._files[name]
            records.extend(chunked_file_records(
                name, f.size, f.flushed_pages, f.sealed, f.extents,
                f.page_crcs, self._record_pages(name)))
        return records

    def _record_pages(self, name: str) -> int:
        """Pages one commit or snapshot record of file ``name`` may list and
        still fit a metadata frame whatever the CRCs and extent ids turn out
        to be.  ``COMMIT_CHUNK_PAGES`` wherever that fits — every page size
        from 4 KB up — so those geometries' frames never depend on this."""
        room = self._record_room - len(json.dumps(name))
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

    def _program(self, f: StoredFile, pages: list) -> None:
        """Program ``pages`` from page index ``f.flushed_pages`` on, as one
        device program, moving extents from the free pool (checked *before*
        any is taken: a failed append leaves the pool untouched) to
        ``f.extents``."""
        raise NotImplementedError

    def _fetch(self, f: StoredFile, first_page: int, last_page: int) -> list:
        """Pages ``first_page..last_page`` of the file as one device read —
        a CRC repair re-reads one page as ``_fetch(f, i, i)``."""
        raise NotImplementedError

    def _reclaim(self, extents: list[int]) -> None:
        """Return a dead file's extents to the free pool."""
        raise NotImplementedError

    def _commit_log(self) -> None:
        """Write the buffered metadata records to the durable log."""
        raise NotImplementedError
