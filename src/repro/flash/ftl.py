"""Page-mapped Flash Translation Layer and the commodity-SSD wrapper.

This is the "off-the-shelf SSD" the baseline systems run on, and the foil for
AOFFS: a page-level logical-to-physical map, an over-provisioned block pool,
greedy garbage collection (victim = fewest valid pages) for wear management,
and a per-operation translation-layer latency overhead.  Random updates are
legal here — at the cost of write amplification from GC relocations, which
the ablation benchmark measures directly.
"""

from __future__ import annotations

import struct
import zlib
from typing import NoReturn

from repro.flash.device import (
    FlashDevice,
    FlashEraseError,
    FlashError,
    FlashOutOfSpaceError,
    FlashProgramError,
    FlashWearOutError,
)

#: Extra latency a commodity FTL adds to every host-visible operation
#: (mapping lookup, queueing, internal scheduling).  Removing this overhead
#: is one of the stated benefits of AOFFS (§IV-A, §V-C.3).
DEFAULT_FTL_OVERHEAD_S = 40e-6

#: Per-page spare-area record in durable mode: logical page number, global
#: write sequence number (newest copy wins at mount), payload CRC-32.
OOB_RECORD = struct.Struct("<QQI")


class PageMappedFTL:
    """Logical-page to physical-page translation with greedy GC.

    ``overprovision`` reserves a fraction of physical blocks so GC always has
    somewhere to relocate valid pages; the usable logical capacity shrinks
    accordingly, like a real SSD.

    ``durable=True`` tags every programmed page with an OOB record
    (:data:`OOB_RECORD`) so the logical-to-physical map — which lives in
    controller RAM and dies with power — can be rebuilt by
    :meth:`mount`: scan valid pages' spare areas, keep the highest write
    sequence number per logical page, and drop torn pages (their spare area
    never finished programming).
    """

    def __init__(self, device: FlashDevice, overprovision: float = 0.08,
                 gc_reserve_blocks: int = 2, durable: bool = False):
        if not 0 < overprovision < 1:
            raise ValueError(f"overprovision must be in (0, 1), got {overprovision}")
        self.device = device
        self.durable = durable
        geometry = device.geometry
        usable_blocks = int(geometry.num_blocks * (1 - overprovision))
        if usable_blocks < 1:
            raise ValueError("device too small for requested over-provisioning")
        self.logical_pages = usable_blocks * geometry.pages_per_block
        self.gc_reserve_blocks = max(1, gc_reserve_blocks)
        # The over-provisioned region doubles as the bad-block spare pool:
        # each retired block consumes one spare, and running out means the
        # drive can no longer guarantee its logical capacity.
        self.spare_blocks_remaining = geometry.num_blocks - usable_blocks
        self.blocks_retired = 0

        self._map: dict[int, tuple[int, int]] = {}
        self._reverse: dict[tuple[int, int], int] = {}
        self._free_blocks: list[int] = list(range(geometry.num_blocks - 1, -1, -1))
        # Write cursor: the block currently accepting programs, and the next
        # page to program within it.
        self._active_block: int | None = None
        self._active_page = 0
        self._in_gc = False
        self._write_seq = 0
        self.user_pages_written = 0
        self.gc_relocations = 0
        self.gc_runs = 0
        if device.sanitizer is not None:
            device.sanitizer.track_ftl(self)

    def _sanity_check(self, mutated: int | None = None) -> None:
        """FlashSan bookkeeping audit after mutations (write_many, GC,
        mount).  The audit is O(map size), so trim skips it entirely and
        ``write_many`` passes its batch size to run it on an amortized
        schedule; drift those paths introduce is still caught at the next
        scheduled audit or at erase time."""
        sanitizer = self.device.sanitizer
        if sanitizer is None:
            return
        if mutated is None:
            sanitizer.check_ftl(self)
        else:
            sanitizer.maybe_check_ftl(self, mutated)

    def _make_oob(self, lpn: int, data, crc: int | None = None) -> bytes | None:
        """The next OOB record for ``data`` at ``lpn`` (``None`` unless
        durable); ``crc`` is ``data``'s CRC-32 when the caller has it."""
        if not self.durable:
            return None
        seq = self._write_seq
        self._write_seq += 1
        return OOB_RECORD.pack(lpn, seq, zlib.crc32(data) if crc is None else crc)

    @classmethod
    def mount(cls, device: FlashDevice) -> "PageMappedFTL":
        """Rebuild the mapping table from per-page OOB records after power
        loss.

        The newest write sequence number wins per logical page — which
        resolves the crash window between programming a page's new copy and
        invalidating its old one (both copies are valid on flash; real FTLs
        face exactly this at every update).  Pages without a parseable OOB
        record (torn programs) and superseded old copies are invalidated so
        GC can reclaim them.
        """
        ftl = cls(device, durable=True)
        best: dict[int, tuple[int, tuple[int, int]]] = {}
        stale: list[tuple[int, int]] = []
        max_seq = -1
        for block, page, oob in device.mount_scan():
            if oob is None or len(oob) != OOB_RECORD.size:
                stale.append((block, page))
                continue
            lpn, seq, _crc = OOB_RECORD.unpack(oob)
            if not 0 <= lpn < ftl.logical_pages:
                stale.append((block, page))
                continue
            max_seq = max(max_seq, seq)
            prev = best.get(lpn)
            if prev is None or seq > prev[0]:
                if prev is not None:
                    stale.append(prev[1])
                best[lpn] = (seq, (block, page))
            else:
                stale.append((block, page))
        for block, page in stale:
            device.invalidate_page(block, page)
        for lpn, (_seq, addr) in best.items():
            ftl._map[lpn] = addr
            ftl._reverse[addr] = lpn
        ftl._write_seq = max_seq + 1
        ftl._free_blocks = [
            block for block in range(device.geometry.num_blocks - 1, -1, -1)
            if device.block_is_erased(block) and not device.is_bad(block)]
        ftl._active_block = None
        ftl._active_page = 0
        ftl.blocks_retired = device.bad_block_count
        ftl.spare_blocks_remaining = (
            device.geometry.num_blocks -
            ftl.logical_pages // device.geometry.pages_per_block -
            device.bad_block_count)
        if ftl.spare_blocks_remaining < 0:
            raise FlashWearOutError(
                "mounted device has more retired blocks than spare capacity")
        ftl.user_pages_written = len(best)
        ftl._sanity_check()
        return ftl

    # ----------------------------------------------------------------- lookup

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise FlashError(f"logical page {lpn} out of range [0, {self.logical_pages})")

    def is_mapped(self, lpn: int) -> bool:
        self._check_lpn(lpn)
        return lpn in self._map

    def mapped_lpns(self) -> list[int]:
        """Every mapped logical page, in mapping order."""
        return list(self._map)

    def translate(self, lpn: int) -> tuple[int, int]:
        """Physical (block, page) address of a mapped logical page."""
        self._check_lpn(lpn)
        if lpn not in self._map:
            raise FlashError(f"translate of unwritten logical page {lpn}")
        return self._map[lpn]

    @property
    def write_amplification(self) -> float:
        """Physical pages programmed per user page written (>= 1.0)."""
        if self.user_pages_written == 0:
            return 1.0
        return self.device.total_pages_written / self.user_pages_written

    # ------------------------------------------------------------------- I/O

    def read(self, lpn: int) -> bytes:
        block, page = self.translate(lpn)
        return self.device.read_page(block, page)

    def write_many(self, writes: list[tuple[int, bytes]],
                   crcs: list[int] | None = None) -> None:
        """Write/overwrite logical pages; each old physical copy becomes
        garbage.  Sequential: device latency is paid once per block's share.
        ``crcs``, when given, are the pages' CRC-32s (the file store
        computed them already); the OOB records take them as they are.

        A program failure retires the block: pages that landed stay readable
        in place (grown defects) and the rest retry on a fresh block.
        Pending allocations are flushed to the device before any garbage
        collection can run, so GC never erases a block that holds allocated
        but not-yet-programmed pages.  GC relocations are charged as the
        individual (random) operations they physically are.
        """
        pages_per_block = self.device.geometry.pages_per_block
        for lpn, _data in writes:
            self._check_lpn(lpn)
        i, n = 0, len(writes)
        while i < n:
            if self._active_block is None or self._active_page >= pages_per_block:
                self._active_block = self._take_free_block()
                self._active_page = 0
            take = min(n - i, pages_per_block - self._active_page)
            block, page0 = self._active_block, self._active_page
            self._active_page += take
            batch = writes[i:i + take]
            oobs = None
            if self.durable:
                oobs = [self._make_oob(lpn, data,
                                       None if crcs is None else crcs[i + j])
                        for j, (lpn, data) in enumerate(batch)]
            try:
                self.device.write_pages(
                    [(block, page0 + j, data) for j, (_lpn, data) in enumerate(batch)],
                    oobs=oobs)
            except FlashProgramError as e:
                # Pages before the failure landed and stay readable in the
                # retired block; map them, then retry the rest elsewhere.
                take = e.batch_committed
                batch = batch[:take]
                self._on_block_retired(block)
            lpn_map, reverse = self._map, self._reverse
            invalidate = self.device.invalidate_page
            for j, (lpn, _data) in enumerate(batch):
                old = lpn_map.get(lpn)
                if old is not None:
                    invalidate(old[0], old[1])
                    del reverse[old]
                addr = (block, page0 + j)
                lpn_map[lpn] = addr
                reverse[addr] = lpn
            self.user_pages_written += take
            i += take
        self._sanity_check(mutated=n)

    def trim(self, lpn: int) -> None:
        """Discard a logical page (TRIM), making its physical copy garbage."""
        self._check_lpn(lpn)
        old = self._map.pop(lpn, None)
        if old is not None:
            self.device.invalidate_page(*old)
            del self._reverse[old]

    # ------------------------------------------------------------- allocation

    def _allocate_page(self) -> tuple[int, int]:
        geometry = self.device.geometry
        if self._active_block is None or self._active_page >= geometry.pages_per_block:
            self._active_block = self._take_free_block()
            self._active_page = 0
        block, page = self._active_block, self._active_page
        self._active_page += 1
        return block, page

    def _take_free_block(self) -> int:
        if len(self._free_blocks) <= self.gc_reserve_blocks and not self._in_gc:
            self._collect_garbage()
        if not self._free_blocks:
            raise FlashOutOfSpaceError(
                "SSD full: garbage collection found no reclaimable space "
                f"({self.blocks_retired} blocks retired)")
        return self._free_blocks.pop()

    def _on_block_retired(self, block: int) -> None:
        """Account for a block the device just retired (program/erase failure).

        The retired block leaves the writable pool; its slot is covered by
        the over-provisioned spares until those run out, at which point the
        drive can no longer back its logical capacity.
        """
        if block in self._free_blocks:
            self._free_blocks.remove(block)
        if self._active_block == block:
            self._active_block = None
        self.blocks_retired += 1
        self.spare_blocks_remaining -= 1
        if self.spare_blocks_remaining < 0:
            raise FlashWearOutError(
                f"spare pool exhausted: {self.blocks_retired} retired blocks "
                f"exceed the over-provisioned spare capacity")

    def _collect_garbage(self) -> None:
        """Greedy GC: relocate the blocks with the fewest valid pages."""
        geometry = self.device.geometry
        self._in_gc = True
        try:
            candidates = [
                b for b in range(geometry.num_blocks)
                if b != self._active_block and b not in self._free_blocks
                and not self.device.is_bad(b)
            ]
            while len(self._free_blocks) <= self.gc_reserve_blocks and candidates:
                victim = min(candidates, key=self.device.valid_pages)
                if self.device.valid_pages(victim) >= geometry.pages_per_block:
                    break  # every page valid: erasing gains nothing
                candidates.remove(victim)
                self._relocate_and_erase(victim)
                self.gc_runs += 1
        finally:
            self._in_gc = False
        self._sanity_check()

    def _relocate_and_erase(self, victim: int) -> None:
        geometry = self.device.geometry
        for page in range(geometry.pages_per_block):
            addr = (victim, page)
            lpn = self._reverse.get(addr)
            if lpn is None:
                continue
            data = self.device.read_page(victim, page)
            while True:
                new_block, new_page = self._allocate_page()
                try:
                    # Relocations re-tag the page with a fresh sequence number
                    # so the moved copy wins over the stale one at mount time.
                    self.device.write_page(new_block, new_page, data,
                                           oob=self._make_oob(lpn, data))
                except FlashProgramError:
                    self._on_block_retired(new_block)
                    continue
                break
            self._map[lpn] = (new_block, new_page)
            self._reverse[(new_block, new_page)] = lpn
            del self._reverse[addr]
            self.gc_relocations += 1
        try:
            self.device.erase_block(victim)
        except FlashEraseError:
            # Every valid page was already relocated; the block just never
            # rejoins the free pool.
            self._on_block_retired(victim)
            return
        self._free_blocks.insert(0, victim)


class SSD:
    """A commodity SSD: FTL plus per-op translation overhead charged as time."""

    def __init__(self, device: FlashDevice,
                 ftl_overhead_s: float = DEFAULT_FTL_OVERHEAD_S,
                 durable: bool = False):
        self.device = device
        self.ftl = PageMappedFTL(device, durable=durable)
        self.ftl_overhead_s = ftl_overhead_s

    @classmethod
    def mount(cls, device: FlashDevice,
              ftl_overhead_s: float = DEFAULT_FTL_OVERHEAD_S) -> "SSD":
        """Remount after power loss: rebuild the FTL map from OOB records."""
        ssd = cls.__new__(cls)
        ssd.device = device
        ssd.ftl = PageMappedFTL.mount(device)
        ssd.ftl_overhead_s = ftl_overhead_s
        return ssd

    @property
    def logical_pages(self) -> int:
        return self.ftl.logical_pages

    def read_page(self, lpn: int) -> bytes:
        return self.read_pages([lpn])[0]

    def write_page(self, lpn: int, data: bytes) -> None:
        self.write_pages([(lpn, data)])

    def read_pages(self, lpns: list[int], spans: list[int] | None = None,
                   after=None) -> list[bytes]:
        """Sequential read: one FTL overhead for the whole batch, or for each
        of the consecutive reads ``spans`` splits it into
        (:meth:`FlashDevice.read_pages`, which also calls ``after``)."""
        if not lpns:
            return []
        lpn_map = self.ftl._map
        try:
            addresses = [lpn_map[lpn] for lpn in lpns]
        except KeyError:
            return self._read_untranslatable(lpns, spans, after)
        return self.device.read_pages(addresses, spans, self.ftl_overhead_s,
                                      after)

    def _read_untranslatable(self, lpns: list[int], spans: list[int] | None,
                             after) -> NoReturn:
        """Issue the reads before the first one holding a page that does not
        translate, then charge that read's overhead and raise the exact
        range/unmapped error of :meth:`PageMappedFTL.translate`."""
        lpn_map = self.ftl._map
        bad = next(i for i, lpn in enumerate(lpns) if lpn not in lpn_map)
        counts = spans or [len(lpns)]
        done = reads = 0
        while done + counts[reads] <= bad:
            done += counts[reads]
            reads += 1
        if reads:
            self.read_pages(lpns[:done], counts[:reads], after)
        self.device.clock.charge("flash", self.ftl_overhead_s)
        self.ftl.translate(lpns[bad])
        raise FlashError(f"logical page {lpns[bad]} is unmapped yet translates")

    def write_pages(self, writes: list[tuple[int, bytes]],
                    crcs: list[int] | None = None) -> None:
        """Sequential write: one FTL overhead for the whole batch.
        ``crcs`` are the pages' CRC-32s, if the caller has them."""
        if not writes:
            return
        self.device.clock.charge("flash", self.ftl_overhead_s)
        self.ftl.write_many(writes, crcs)

    def trim(self, lpn: int) -> None:
        self.ftl.trim(lpn)
