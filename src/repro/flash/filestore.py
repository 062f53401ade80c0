"""File stores: one interface, two storage stacks.

Everything above the storage layer (sort-reduce runs, graph files, vertex
data) talks to a *file store* with an append/seal/read/delete interface.
Two implementations exist:

* :class:`~repro.flash.aoffs.AppendOnlyFlashFS` — the paper's AOFFS on raw
  flash (used by GraFBoost's storage device).
* :class:`SSDFileSystem` (here) — a conventional file system on a commodity
  SSD: every operation goes through the page-mapped FTL and pays its
  translation overhead.  This is what GraFSoft and the baseline systems run
  on, and the AOFFS-vs-FTL ablation compares the two directly.

The SSD store also supports in-place page updates (:meth:`write_at`), which
AOFFS deliberately cannot do — baselines that random-update their state
exercise the FTL's garbage collector exactly as they would a real SSD.
"""

from __future__ import annotations

import numpy as np

from repro.flash.device import FlashDevice, FlashError, FlashOutOfSpaceError
from repro.flash.faults import page_crc, verify_pages
from repro.flash.ftl import SSD
from repro.flash.journal import (
    METALOG_MAGIC,
    RecoveryStats,
    chunked_file_records,
    decode_frame,
    encode_frame,
    encode_frames,
)

#: Pages per metadata-log commit record: bounds the record's JSON size so
#: it always fits one log frame, whatever the append size.
COMMIT_CHUNK_PAGES = 128


class _SSDFile:
    __slots__ = ("name", "lpns", "size", "tail_parts", "tail_len",
                 "flushed_pages", "sealed", "page_crcs")

    def __init__(self, name: str):
        self.name = name
        self.lpns: list[int] = []
        self.size = 0
        # Unflushed bytes as a fragment list: appending never recopies the
        # accumulated tail, and a flush joins the fragments exactly once.
        self.tail_parts: list[bytes] = []
        self.tail_len = 0
        self.flushed_pages = 0
        self.sealed = False
        # Per-flushed-page CRC-32, recorded only under fault injection.
        self.page_crcs: list[int] = []

    def tail_bytes(self) -> bytes:
        """The unflushed tail as one bytes object (consolidates in place)."""
        if len(self.tail_parts) != 1:
            joined = b"".join(self.tail_parts)
            self.tail_parts = [joined] if joined else []
            return joined
        return self.tail_parts[0]


class SSDFileSystem:
    """A minimal extent-per-page file system over an FTL-backed SSD.

    ``prefetch_pages`` models the deep lookahead/readahead a software stack
    runs on a commodity SSD to hide its access latency (§V-C.3's lookahead
    buffers, §IV-F's 4 MB transfer chunks): reads shorter than the buffer
    still transfer the whole buffer, and the overshoot is charged and
    tracked in ``prefetch_waste_bytes``.
    """

    def __init__(self, ssd: SSD, prefetch_pages: int = 64,
                 durable: bool = False, meta_lpns: int | None = None):
        self.ssd = ssd
        self.prefetch_pages = prefetch_pages
        self.prefetch_waste_bytes = 0
        self.durable = durable
        self.recovery = RecoveryStats()
        self._files: dict[str, _SSDFile] = {}
        if not durable:
            self._free_lpns: list[int] = list(
                range(ssd.logical_pages - 1, -1, -1))
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
        self._free_lpns = list(range(ssd.logical_pages - 1, meta_lpns - 1, -1))
        self._pending_records: list[dict] = []
        self._meta_seq = 0
        self._meta_half = 0
        self._meta_cursor = 0
        if any(lpn in ssd.ftl._map for lpn in range(meta_lpns)):
            self._mount()
        else:
            self._write_snapshot()

    @classmethod
    def mount(cls, ssd: SSD, prefetch_pages: int = 64,
              meta_lpns: int | None = None) -> "SSDFileSystem":
        """Remount a durable store after power loss (replays the metadata log)."""
        return cls(ssd, prefetch_pages=prefetch_pages, durable=True,
                   meta_lpns=meta_lpns)

    def _charge_prefetch(self, f: _SSDFile, first_page: int, pages_read: int) -> None:
        """Charge the unused tail of the readahead buffer on a small read.

        Readahead stops at end-of-file, so reading a small file whole wastes
        nothing; the waste appears on short reads inside large files.
        """
        effective = min(self.prefetch_pages, f.flushed_pages - first_page)
        shortfall = effective - pages_read
        if shortfall <= 0:
            return
        nbytes = shortfall * self.page_bytes
        profile = self.device.profile
        self.device.clock.charge("flash", nbytes / profile.flash_read_bw, nbytes=nbytes)
        self.prefetch_waste_bytes += nbytes

    @property
    def device(self) -> FlashDevice:
        return self.ssd.device

    @property
    def page_bytes(self) -> int:
        return self.ssd.page_bytes

    # ---------------------------------------------------------------- queries

    def exists(self, name: str) -> bool:
        return name in self._files

    def is_sealed(self, name: str) -> bool:
        return self._file(name).sealed

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def size(self, name: str) -> int:
        return self._file(name).size

    @property
    def free_bytes(self) -> int:
        return len(self._free_lpns) * self.page_bytes

    def _file(self, name: str) -> _SSDFile:
        if name not in self._files:
            raise FileNotFoundError(f"no SSD file named {name!r}")
        return self._files[name]

    # ---------------------------------------------------------------- writing

    def create(self, name: str) -> None:
        if name in self._files:
            raise FileExistsError(f"SSD file {name!r} already exists")
        self._files[name] = _SSDFile(name)
        self._log({"op": "create", "name": name})
        self._commit_log()

    def append(self, name: str, data: bytes) -> None:
        if name not in self._files:
            self._files[name] = _SSDFile(name)
            self._log({"op": "create", "name": name})
        f = self._files[name]
        if f.sealed:
            raise FlashError(f"append to sealed SSD file {name!r}")
        if data:
            f.tail_parts.append(bytes(data))
            f.tail_len += len(data)
        f.size += len(data)
        self._flush_full_pages(f)
        self._commit_log()

    def _allocate_lpn(self, f: _SSDFile) -> int:
        return self._allocate_lpns(f, 1)[0]

    def _allocate_lpns(self, f: _SSDFile, n: int) -> list[int]:
        """Batch allocation, in the same order as ``n`` single pops."""
        if len(self._free_lpns) < n:
            raise FlashOutOfSpaceError(
                f"SSD file system out of space appending to {f.name!r}: "
                f"{n} pages needed, {len(self._free_lpns)} free")
        lpns = self._free_lpns[-n:][::-1]
        del self._free_lpns[len(self._free_lpns) - n:]
        f.lpns.extend(lpns)
        return lpns

    def _flush_full_pages(self, f: _SSDFile) -> None:
        page_bytes = self.page_bytes
        n_full = f.tail_len // page_bytes
        if n_full == 0:
            return
        flush_bytes = n_full * page_bytes
        blob = f.tail_bytes()
        lpns = self._allocate_lpns(f, n_full)
        # Zero-copy page views into the joined tail; the device stores them
        # as-is, and every consumer goes through the buffer protocol.
        view = memoryview(blob)
        writes = [(lpn, view[start:start + page_bytes])
                  for lpn, start in zip(lpns, range(0, flush_bytes, page_bytes))]
        self.ssd.write_pages(writes)
        if self.device.faults is not None or self.durable:
            f.page_crcs.extend(page_crc(d) for _lpn, d in writes)
        remainder = blob[flush_bytes:]
        f.tail_parts = [remainder] if remainder else []
        f.tail_len -= flush_bytes
        first = f.flushed_pages
        f.flushed_pages += n_full
        # Commit records written only after the data pages are on flash:
        # a crash in between leaves unreferenced pages, never torn files.
        # Chunked so a multi-megabyte append's page list always fits one
        # metadata-log frame; ``flushed`` is absolute and lpns/crcs extend
        # on replay, so a crash mid-sequence recovers a consistent prefix.
        if self.durable:
            crcs = f.page_crcs[-n_full:]
            for cs in range(0, n_full, COMMIT_CHUNK_PAGES):
                ce = min(cs + COMMIT_CHUNK_PAGES, n_full)
                self._log({"op": "commit", "name": f.name,
                           "flushed": first + ce, "blocks": lpns[cs:ce],
                           "crcs": crcs[cs:ce]})

    def seal(self, name: str) -> None:
        f = self._file(name)
        if f.sealed:
            return
        if f.tail_len:
            tail = f.tail_bytes()
            padded = tail + b"\x00" * (self.page_bytes - len(tail))
            lpn = self._allocate_lpn(f)
            self.ssd.write_page(lpn, padded)
            if self.device.faults is not None or self.durable:
                f.page_crcs.append(page_crc(padded))
            f.tail_parts = []
            f.tail_len = 0
            f.flushed_pages += 1
            self._log({"op": "commit", "name": f.name,
                       "flushed": f.flushed_pages, "blocks": [lpn],
                       "crcs": f.page_crcs[-1:]})
        f.sealed = True
        self._log({"op": "seal", "name": f.name, "size": f.size})
        self._commit_log()

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
        pos = 0
        while pos < len(data):
            page_index, in_page = divmod(offset + pos, page_bytes)
            n = min(page_bytes - in_page, len(data) - pos)
            lpn = f.lpns[page_index]
            page = bytearray(self.ssd.read_page(lpn))
            page[in_page:in_page + n] = data[pos:pos + n]
            updated = bytes(page)
            self.ssd.write_page(lpn, updated)
            if page_index < len(f.page_crcs):
                f.page_crcs[page_index] = page_crc(updated)
                self._log({"op": "patch", "name": f.name, "index": page_index,
                           "crc": f.page_crcs[page_index]})
            pos += n
        self._commit_log()

    # ---------------------------------------------------------------- reading

    def read(self, name: str, offset: int = 0, nbytes: int | None = None) -> bytes:
        f = self._file(name)
        if nbytes is None:
            nbytes = f.size - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > f.size:
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) out of range for "
                f"{name!r} of size {f.size}"
            )
        if nbytes == 0:
            return b""
        page_bytes = self.page_bytes
        flushed_bytes = f.flushed_pages * page_bytes
        parts: list[bytes] = []
        flash_end = min(offset + nbytes, flushed_bytes)
        if offset < flushed_bytes:
            first_page = offset // page_bytes
            last_page = (flash_end - 1) // page_bytes
            pages = self.ssd.read_pages(f.lpns[first_page:last_page + 1])
            if self.device.faults is not None:
                pages = verify_pages(
                    pages, f.page_crcs, first_page,
                    lambda i: self.ssd.read_page(f.lpns[i]),
                    self.device.faults, f"ssd:{f.name}")
            self._charge_prefetch(f, first_page, last_page + 1 - first_page)
            blob = b"".join(pages)
            start = offset - first_page * page_bytes
            parts.append(blob[start:start + (flash_end - offset)])
        if offset + nbytes > flushed_bytes:
            tail_start = max(0, offset - flushed_bytes)
            tail_end = offset + nbytes - flushed_bytes
            parts.append(f.tail_bytes()[tail_start:tail_end])
        return b"".join(parts)

    def stream(self, name: str, chunk_bytes: int):
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
        self.append(name, np.ascontiguousarray(array).tobytes())

    def read_array(self, name: str, dtype: np.dtype, start_item: int = 0,
                   count: int | None = None) -> np.ndarray:
        dtype = np.dtype(dtype)
        if count is None:
            count = self.size(name) // dtype.itemsize - start_item
        raw = self.read(name, start_item * dtype.itemsize, count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype)

    # --------------------------------------------------------------- deletion

    def delete(self, name: str) -> None:
        f = self._file(name)
        # Metadata before trims: a crash mid-trim then leaves orphaned pages
        # (which mount reclaims), never a file referencing trimmed pages.
        # The table mutation must precede the commit so a compaction fired
        # inside it snapshots the post-delete state.
        self._log({"op": "delete", "name": name})
        del self._files[name]
        self._commit_log()
        for lpn in f.lpns:
            self.ssd.trim(lpn)
            self._free_lpns.append(lpn)

    def rename(self, old: str, new: str, overwrite: bool = False) -> None:
        f = self._file(old)
        victim = None
        if new in self._files:
            if not overwrite or new == old:
                raise FileExistsError(f"SSD file {new!r} already exists")
            # Atomic replace: delete + rename land in one journal commit, so
            # a crash shows either the old target or the renamed file, never
            # neither.
            victim = self._files[new]
            self._log({"op": "delete", "name": new})
        self._log({"op": "rename", "old": old, "new": new})
        f.name = new
        del self._files[old]
        self._files[new] = f
        self._commit_log()
        if victim is not None:
            for lpn in victim.lpns:
                self.ssd.trim(lpn)
                self._free_lpns.append(lpn)

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

    def _log(self, *records: dict) -> None:
        if self.durable:
            self._pending_records.extend(records)

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
        records: list[dict] = []
        for name in sorted(self._files):
            f = self._files[name]
            records.extend(chunked_file_records(
                name, f.size, f.flushed_pages, f.sealed, f.lpns, f.page_crcs))
        body = encode_frames(METALOG_MAGIC, self._meta_seq + 1, records,
                             self.page_bytes)
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
        ftl_map = self.ssd.ftl._map
        frames: dict[int, tuple[int, list[dict]]] = {}
        for lpn in range(self.meta_lpns):
            if lpn not in ftl_map:
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
                for record in records:
                    self._apply_record(record)
                    stats.replayed_records += 1
                stats.replayed_frames += 1
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
        op = r["op"]
        if op == "reset":
            self._files = {}
        elif op == "create":
            self._files[r["name"]] = _SSDFile(r["name"])
        elif op == "commit":
            f = self._files[r["name"]]
            f.lpns.extend(r["blocks"])
            f.flushed_pages = int(r["flushed"])
            f.size = f.flushed_pages * self.page_bytes
            f.page_crcs.extend(r["crcs"])
        elif op == "seal":
            f = self._files[r["name"]]
            f.sealed = True
            f.size = int(r["size"])
        elif op == "delete":
            self._files.pop(r["name"], None)
        elif op == "rename":
            f = self._files.pop(r["old"])
            f.name = r["new"]
            self._files[r["new"]] = f
        elif op == "patch":
            f = self._files[r["name"]]
            f.page_crcs[int(r["index"])] = int(r["crc"])
        elif op == "file":
            f = _SSDFile(r["name"])
            f.size = int(r["size"])
            f.flushed_pages = int(r["flushed"])
            f.sealed = bool(r["sealed"])
            f.lpns = list(r["blocks"])
            f.page_crcs = list(r["crcs"])
            self._files[r["name"]] = f
        elif op == "filex":
            f = self._files[r["name"]]
            f.lpns.extend(r["blocks"])
            f.page_crcs.extend(r["crcs"])

    def _fix_tails(self) -> None:
        """Snap recovered files back to their last committed page."""
        stats = self.recovery
        ftl_map = self.ssd.ftl._map
        for f in self._files.values():
            mapped = len(f.lpns)
            for i, lpn in enumerate(f.lpns):
                if lpn not in ftl_map:
                    mapped = i
                    break
            if mapped < len(f.lpns):
                if f.sealed:
                    raise FlashError(
                        f"sealed SSD file {f.name!r} lost page {mapped}: "
                        f"lpn {f.lpns[mapped]} is unmapped after recovery")
                stats.discarded_pages += len(f.lpns) - mapped
                stats.truncated_files += 1
                del f.lpns[mapped:]
                del f.page_crcs[mapped:]
                f.flushed_pages = mapped
                f.size = mapped * self.page_bytes
            elif not f.sealed and f.size != f.flushed_pages * self.page_bytes:
                # The unflushed RAM tail died with power.
                stats.truncated_files += 1
                f.size = f.flushed_pages * self.page_bytes

    def _rebuild_free_lpns(self) -> None:
        """Free = everything above the log not owned by a file; orphaned
        mapped pages (committed data whose metadata commit never landed) are
        trimmed back to the FTL."""
        stats = self.recovery
        used = {lpn for f in self._files.values() for lpn in f.lpns}
        for lpn in list(self.ssd.ftl._map):
            if lpn >= self.meta_lpns and lpn not in used:
                self.ssd.trim(lpn)
                stats.discarded_pages += 1
        self._free_lpns = [lpn for lpn
                           in range(self.ssd.logical_pages - 1,
                                    self.meta_lpns - 1, -1)
                           if lpn not in used]
