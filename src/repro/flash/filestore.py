"""The SSD placement of the file store: files on logical pages of an FTL.

A conventional file system on a commodity SSD — what GraFSoft and the
baseline systems run on, and the other arm of the AOFFS-vs-FTL ablation.
Everything placement-independent is :class:`~repro.flash.store.FileStore`;
here is what the SSD decides.  A file's extents are logical page numbers,
one per page, popped from a free-LPN pool; every page operation goes
through the page-mapped FTL and pays its translation overhead, and deleted
pages are trimmed back to the FTL, whose garbage collector owns the
physical side.  Because the FTL can remap a logical page, this store also
offers in-place updates (:meth:`SSDFileSystem.write_at`, the ``patch``
record), which AOFFS deliberately cannot — baselines that random-update
their state exercise the FTL's garbage collector exactly as they would a
real SSD.  Durable metadata is a ping-pong log on the low logical pages
(``reset`` heads each snapshot).
"""

from __future__ import annotations

import mmap
from array import array
from collections.abc import Collection

import numpy as np

from repro.flash.device import FlashError, FlashOutOfSpaceError
from repro.flash.faults import page_crc
from repro.flash.ftl import SSD
from repro.flash.journal import (
    METALOG_MAGIC,
    decode_frame,
    encode_frame,
    encode_frames,
    pack_frames,
)
from repro.flash.store import FileStore, StoredFile


class FreeLPNPool:
    """The free logical pages of a store owning LPNs ``start .. end - 1``.

    A pop hands out recycled LPNs first, the last one pushed first, then
    the lowest LPN never handed out: the order of one stack that held every
    free LPN from the highest down, the lowest on top.  Only the recycled
    LPNs are stored, below ``fresh``, the never-used mark; above it every
    LPN is free.  Their stack is one anonymous mapping with room for every
    LPN, made once and never resized (a buffer that moved on every grow
    fragmented the host heap), of which the kernel commits only the pages
    the stack has reached.  ``used`` are the LPNs live files hold at
    mount: the free ones below the highest of them start out recycled,
    lowest on top, so pops keep that one stack's order.
    """

    __slots__ = ("end", "fresh", "_stack", "_top")

    def __init__(self, start: int, end: int, used: Collection[int] = ()):
        self.end = end
        self.fresh = max(max(used, default=start - 1) + 1, start)
        holes = np.arange(self.fresh - 1, start - 1, -1, dtype=np.int64)
        if used:
            holes = holes[~np.isin(holes, np.fromiter(used, np.int64, len(used)))]
        mapping = mmap.mmap(-1, 8 * max(1, end - start), flags=mmap.MAP_PRIVATE)
        mapping[:holes.nbytes] = holes.tobytes()
        self._stack = memoryview(mapping).cast("q")
        self._top = len(holes)

    def __len__(self) -> int:
        return self._top + self.end - self.fresh

    def pop(self, n: int) -> list[int] | None:
        """The next ``n`` LPNs, in the order of ``n`` single pops, or
        ``None``, taking none, when fewer are free."""
        top = self._top
        if top + self.end - self.fresh < n:
            return None
        k = n if n < top else top
        lpns = [*self._stack[top - k:top][::-1]]
        self._top = top - k
        if k < n:
            fresh = self.fresh
            lpns += range(fresh, fresh + n - k)
            self.fresh = fresh + n - k
        return lpns

    def push(self, lpns: list[int]) -> None:
        """Recycle ``lpns``, in order: the last is popped first."""
        top = self._top
        self._stack[top:top + len(lpns)] = array("q", lpns)
        self._top = top + len(lpns)

    def free(self) -> list[int]:
        """Every free LPN, in the order pops hand them out."""
        return self._stack[:self._top].tolist()[::-1] + list(
            range(self.fresh, self.end))


class SSDFileSystem(FileStore):
    """A minimal extent-per-page file system over an FTL-backed SSD.

    ``prefetch_pages`` models the deep lookahead/readahead a software stack
    runs on a commodity SSD to hide its access latency (§V-C.3's lookahead
    buffers, §IV-F's 4 MB transfer chunks).
    """

    label = "SSD"
    prefetch_pages = 64

    def __init__(self, ssd: SSD, durable: bool = False,
                 meta_lpns: int | None = None):
        super().__init__(ssd.device, 1, durable)
        self.ssd = ssd
        if not durable:
            self._free = FreeLPNPool(0, ssd.logical_pages)
            return
        # Durable mode reserves the low logical pages as a metadata log:
        # two ping-pong halves, each large enough for a full snapshot, so a
        # crash mid-compaction never destroys the only copy of the table.
        # Below that sits the FTL's own OOB recovery, so the log's physical
        # placement is itself crash-safe.
        if not ssd.ftl.durable:
            raise FlashError(
                "durable SSDFileSystem needs a durable SSD (OOB records)")
        if meta_lpns is None:
            meta_lpns = max(8, min(64, ssd.logical_pages // 8))
        meta_lpns -= meta_lpns % 2
        if ssd.logical_pages <= 2 * meta_lpns or meta_lpns < 4:
            raise FlashError(
                f"device too small for a {meta_lpns}-page metadata log")
        self.meta_lpns = meta_lpns
        self._half_lpns = meta_lpns // 2
        self._free = FreeLPNPool(meta_lpns, ssd.logical_pages)
        self._meta_seq = 0
        self._meta_half = 0
        self._meta_cursor = 0
        if any(ssd.ftl.is_mapped(lpn) for lpn in range(meta_lpns)):
            self._mount()
        else:
            self._write_snapshot()

    @classmethod
    def mount(cls, ssd: SSD, meta_lpns: int | None = None) -> "SSDFileSystem":
        """Remount a durable store after power loss (replays the metadata log)."""
        return cls(ssd, durable=True, meta_lpns=meta_lpns)

    # The layered benchmark's tracer patches these names in *this* class's
    # ``__dict__`` so host time lands on flash.filestore, not flash.aoffs.
    create = FileStore.create
    append = FileStore.append
    seal = FileStore.seal
    read = FileStore.read
    read_spans = FileStore.read_spans
    stream = FileStore.stream
    delete = FileStore.delete
    rename = FileStore.rename

    # -------------------------------------------------------------- placement

    @property
    def free_bytes(self) -> int:
        return len(self._free) * self.page_bytes

    def _program(self, f: StoredFile, pages: list,
                 crcs: list[int] | None) -> None:
        lpns = self._free.pop(len(pages))
        if lpns is None:
            raise FlashOutOfSpaceError(
                f"SSD file system out of space appending to {f.name!r}: "
                f"{len(pages)} pages needed, {len(self._free)} free")
        f.extents.extend(lpns)
        self.ssd.write_pages(list(zip(lpns, pages)), crcs)

    def _fetch(self, f: StoredFile, firsts: list[int], counts: list[int],
               after=None) -> list:
        extents = f.extents
        lpns: list[int] = []
        for first, count in zip(firsts, counts):
            lpns += extents[first:first + count]
        return self.ssd.read_pages(lpns, counts, after)

    def _reclaim(self, extents: list[int]) -> None:
        for lpn in extents:
            self.ssd.trim(lpn)
        self._free.push(extents)

    def write_at(self, name: str, offset: int, data: bytes) -> None:
        """In-place update of already-flushed bytes (page-aligned regions may
        span pages).  This is the random-update path AOFFS refuses to offer;
        it reads, modifies and rewrites every touched page through the FTL.
        """
        f = self._file(name)
        flushed_bytes = f.flushed_pages * self.page_bytes
        if offset < 0 or offset + len(data) > flushed_bytes:
            raise ValueError(
                f"write_at [{offset}, {offset + len(data)}) outside flushed "
                f"region [0, {flushed_bytes}) of {name!r}"
            )
        page_bytes = self.page_bytes
        # The pages stop being slices of the buffers they were cut from.
        f.buffers = []
        pos = 0
        while pos < len(data):
            page_index, in_page = divmod(offset + pos, page_bytes)
            n = min(page_bytes - in_page, len(data) - pos)
            lpn = f.extents[page_index]
            page = bytearray(self.ssd.read_page(lpn))
            page[in_page:in_page + n] = data[pos:pos + n]
            updated = bytes(page)
            self.ssd.write_page(lpn, updated)
            if page_index < len(f.page_crcs):
                f.page_crcs[page_index] = page_crc(updated)
                f.encoded = None
                self._log({"op": "patch", "name": f.name, "index": page_index,
                           "crc": f.page_crcs[page_index]})
            pos += n
        self._commit_log()

    # ----------------------------------------------------- durable metadata log
    #
    # The log lives in logical pages [0, meta_lpns), split into two halves.
    # Incremental frames append at a cursor inside the active half; when the
    # half fills, a snapshot of the whole file table is written to the OTHER
    # half (first frame: a "reset" record naming the snapshot's frame count)
    # and the cursor moves there.  Replay picks the newest reset whose
    # snapshot is complete, so a crash mid-compaction falls back to the
    # previous generation, which is still intact in the other half, and
    # stops at the unfinished snapshot's head.

    def _commit_log(self) -> None:
        if not self.durable or not self._pending_records:
            return
        records = self._pending_records
        self._pending_records = []
        frames = encode_frames(METALOG_MAGIC, self._meta_seq, records,
                               self.page_bytes)
        if self._meta_cursor + len(frames) > self._half_lpns:
            # Compact instead: the snapshot is built from the live file
            # table, which already reflects every pending record, so
            # re-logging them after it would double-apply on replay.
            self._write_snapshot()
            return
        self._meta_seq += len(frames)
        base = self._meta_half * self._half_lpns
        for frame in frames:
            self.ssd.write_page(base + self._meta_cursor, frame)
            self._meta_cursor += 1

    def _write_snapshot(self) -> None:
        """Compact: snapshot the file table into the other half."""
        body = pack_frames(METALOG_MAGIC, self._meta_seq + 1,
                           self._snapshot_records(), self.page_bytes)
        total = 1 + len(body)
        if total > self._half_lpns:
            raise FlashOutOfSpaceError(
                f"metadata snapshot of {total} frames exceeds the "
                f"{self._half_lpns}-page log half")
        head = encode_frame(METALOG_MAGIC, self._meta_seq,
                            [{"op": "reset", "frames": total}],
                            self.page_bytes)
        target = 1 - self._meta_half if self._meta_cursor else self._meta_half
        base = target * self._half_lpns
        for i, frame in enumerate([head] + body):
            self.ssd.write_page(base + i, frame)
        self._meta_half = target
        self._meta_cursor = total
        self._meta_seq += total

    def _mount(self) -> None:
        stats = self.recovery
        stats.mounts += 1
        frames: dict[int, tuple[int, list[dict]]] = {}
        for lpn in range(self.meta_lpns):
            if not self.ssd.ftl.is_mapped(lpn):
                continue
            decoded = decode_frame(METALOG_MAGIC, self.ssd.read_page(lpn))
            if decoded is None:
                stats.torn_frames += 1
                continue
            seq, records = decoded
            frames[seq] = (lpn, records)
        # Newest complete snapshot wins; an incomplete one (crash mid-
        # compaction) is skipped in favour of the previous generation.
        start_seq = None
        for seq in sorted(frames, reverse=True):
            records = frames[seq][1]
            if records and records[0].get("op") == "reset":
                total = int(records[0]["frames"])
                if all(seq + k in frames for k in range(total)):
                    start_seq = seq
                    break
        self._files = {}
        applied_lpns = [-1]
        if start_seq is not None:
            seq = start_seq
            while seq in frames:
                lpn, records = frames[seq]
                if (seq != start_seq and records
                        and records[0].get("op") == "reset"):
                    # Head of a newer snapshot that never completed.  Its
                    # sequence number continues this generation's, but it
                    # is not part of it: applying it would empty the table.
                    break
                applied_lpns.append(lpn)
                self._replay_frame(records)
                seq += 1
            self._meta_seq = seq
        else:
            # Nothing replayable (all frames torn): start a fresh generation
            # above every sequence number ever seen.
            self._meta_seq = max(frames, default=-1) + 1
        stats.recovered_files = len(self._files)
        self._fix_tails()
        self._rebuild_free_lpns()
        last = max(applied_lpns)
        if last >= 0:
            self._meta_half = last // self._half_lpns
            self._meta_cursor = last % self._half_lpns + 1
            newest = max(frames)
            if newest >= self._meta_seq:
                # Frames of the interrupted compaction hold the sequence
                # numbers the next commits would take; start a fresh
                # generation above them instead of colliding.
                self._meta_seq = newest + 1
                self._write_snapshot()
        else:
            self._meta_half = 0
            self._meta_cursor = 0
            self._write_snapshot()

    def _apply_record(self, r: dict) -> None:
        op = r.get("op")
        if op == "reset":
            self._files = {}
        elif op == "patch":
            f = self._files.get(r["name"])
            if f is not None and r["index"] < len(f.page_crcs):
                f.page_crcs[r["index"]] = r["crc"]
        else:
            super()._apply_record(r)

    def _fix_tails(self) -> None:
        """Snap recovered files back to their last committed, mapped page."""
        stats = self.recovery
        is_mapped = self.ssd.ftl.is_mapped
        for f in self._files.values():
            lpns = f.extents
            mapped = next((i for i, lpn in enumerate(lpns)
                           if not is_mapped(lpn)), len(lpns))
            if mapped < len(lpns):
                if f.sealed:
                    raise FlashError(
                        f"sealed SSD file {f.name!r} lost page {mapped}: "
                        f"lpn {lpns[mapped]} is unmapped after recovery")
                stats.discarded_pages += len(lpns) - mapped
                del lpns[mapped:]
                del f.page_crcs[mapped:]
                f.flushed_pages = mapped
            self._drop_lost_tail(f)

    def _rebuild_free_lpns(self) -> None:
        """Free = everything above the log not owned by a file; orphaned
        mapped pages (committed data whose metadata commit never landed) are
        trimmed back to the FTL."""
        used = {lpn for f in self._files.values() for lpn in f.extents}
        for lpn in self.ssd.ftl.mapped_lpns():
            if lpn >= self.meta_lpns and lpn not in used:
                self.ssd.trim(lpn)
                self.recovery.discarded_pages += 1
        self._free = FreeLPNPool(self.meta_lpns, self.ssd.logical_pages, used)
