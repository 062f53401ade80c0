"""Append-Only Flash File System (AOFFS), §IV-A: the raw-flash placement.

AOFFS manages the logical-to-physical flash mapping in the host instead of an
FTL.  Its one restriction — every file only ever grows by appending — is all
sort-reduce needs, and it makes flash management trivial.  Everything
placement-independent is :class:`~repro.flash.store.FileStore`, shared with
the SSD placement; here is what owning the mapping means:

* Files own whole erase blocks (a file's extents are block numbers) taken
  from a free pool as they grow, so deleting a file erases exactly its own
  blocks and no garbage collection or relocation ever happens (write
  amplification is exactly 1.0); pages program in order by construction.
* No translation layer sits on the data path, which removes the FTL latency
  overhead — the reason hardware GraFBoost keeps its lookahead buffers small
  and "almost removes unused flash reads" (§V-C.3).
* Wear leveling (§II-B) is a one-line policy instead of an FTL: allocation
  picks the least-erased free block.  A block that fails to program is
  retired and its pages remapped (the ``remap`` record).
* Durable metadata is an append-only journal chain on blocks of its own
  (``extend`` records link it), found through a superblock ping-pong pair.
"""

from __future__ import annotations

import heapq

from repro.flash.device import (
    PAGE_VALID,
    FlashDevice,
    FlashEraseError,
    FlashError,
    FlashOutOfSpaceError,
    FlashProgramError,
    FlashWearOutError,
)
from repro.flash.faults import page_crc
from repro.flash.journal import (
    JOURNAL_MAGIC,
    SUPERBLOCK_MAGIC,
    decode_frame,
    encode_frame,
    encode_frames,
    pack_frames,
)
from repro.flash.store import FileStore, StoredFile

#: Durable mode reserves these two blocks as the superblock ping-pong pair.
SUPERBLOCK_BLOCKS = (0, 1)
#: Journal blocks the chain may hold before it is compacted.
JOURNAL_LIMIT_BLOCKS = 8


class AppendOnlyFlashFS(FileStore):
    """Host-managed append-only file system over a raw :class:`FlashDevice`.

    The low access latency of raw flash lets GraFBoost keep the
    ``prefetch_pages`` lookahead tiny, "which almost removes unused flash
    reads" (§V-C.3); the commodity-SSD file system needs a much deeper one
    (see :class:`~repro.flash.filestore.SSDFileSystem`).
    """

    label = "AOFFS"
    prefetch_pages = 2

    def __init__(self, device: FlashDevice, durable: bool = False):
        """``durable=True`` turns on crash-consistent metadata: blocks 0/1
        become a superblock ping-pong pair, file-table mutations are logged
        to an append-only journal chain written through the same device,
        and construction either formats a blank device or *mounts* it —
        replaying the journal, discarding torn tails, and rebuilding the
        file table and free pool.  The default (``False``) keeps the
        historical all-in-host-memory behaviour, bit-identical in timing.
        """
        self.geometry = device.geometry
        super().__init__(device, self.geometry.pages_per_block, durable)
        if device.sanitizer is not None:
            # FlashSan audits every erase against the live file table,
            # journal chain and active superblock of the registered owner.
            device.sanitizer.track_owner(self)
        self._free_blocks: list[tuple[int, int]] = []
        if durable:
            if self.geometry.num_blocks < 4:
                raise FlashError("durable AOFFS needs at least 4 blocks")
            self._journal_blocks: list[int] = []
            self._journal_seq = 0
            self._generation = 0
            self._sb_active: int | None = None
            found = self._read_superblock()
            if found is None:
                self._format()
            else:
                self._mount(found)
        else:
            # Min-heap of (erase count at release time, block): wear-leveled
            # allocation without FTL machinery.
            self._free_blocks = [
                (0, block) for block in range(self.geometry.num_blocks)]
            heapq.heapify(self._free_blocks)

    # The layered benchmark's tracer patches these names in *this* class's
    # ``__dict__`` so host time lands on flash.aoffs, not flash.filestore.
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
        return len(self._free_blocks) * self.geometry.block_bytes

    def _allocate_block(self, why: str = "data") -> int:
        """Wear-leveled allocation: the least-erased free block wins."""
        if not self._free_blocks:
            raise FlashOutOfSpaceError(
                f"AOFFS out of space allocating a {why} block: free pool "
                f"exhausted (bad blocks: {self.device.bad_block_count})")
        _wear, block = heapq.heappop(self._free_blocks)
        return block

    def _release_block(self, block: int) -> None:
        heapq.heappush(self._free_blocks,
                       (self.device.erase_counts[block], block))

    def _program(self, f: StoredFile, pages: list,
                 crcs: list[int] | None) -> None:
        """Program pages, surviving program failures by block remapping.

        A failed program retires the block; the pages it already holds are
        copied to a fresh block which takes over the retired block's slot in
        ``f.extents`` (file addressing never changes), and the remaining
        writes retarget it.
        """
        ppb = self.pages_per_extent
        first = f.flushed_pages
        demand = (first + len(pages) - 1) // ppb + 1 - len(f.extents)
        if demand > len(self._free_blocks):
            raise FlashOutOfSpaceError(
                f"AOFFS out of space appending to {f.name!r}: {demand} "
                f"blocks needed, {len(self._free_blocks)} free (bad blocks: "
                f"{self.device.bad_block_count})")
        # Claimed in ascending page order: the wear-leveled allocation
        # sequence of a page-at-a-time writer.
        f.extents.extend(self._allocate_block() for _ in range(demand))
        blocks = f.extents
        pending = [(blocks[i // ppb], i % ppb, data)
                   for i, data in enumerate(pages, first)]
        while True:
            try:
                self.device.write_pages(pending)
                return
            except FlashProgramError as e:
                bad = e.block
                fresh = self._remap_bad_block(f, bad)
                pending = [(fresh if b == bad else b, p, d)
                           for b, p, d in pending[e.batch_committed:]]

    def _remap_bad_block(self, f: StoredFile, bad: int) -> int:
        """Copy a retired block's programmed pages onto a fresh block and
        swap it into the file's block list."""
        count = self.device.programmed_pages(bad)
        while True:
            if not self._free_blocks:
                raise FlashWearOutError(
                    f"no spare block left to remap retired block {bad} "
                    f"of AOFFS file {f.name!r}")
            fresh = self._allocate_block()
            try:
                if count:
                    pages = self.device.read_pages([(bad, 0, count)])
                    self.device.write_pages(
                        [(fresh, p, d) for p, d in enumerate(pages)])
                break
            except FlashProgramError:
                continue  # the replacement died too; try another spare
        f.extents[f.extents.index(bad)] = fresh
        f.encoded = None
        self._log({"op": "remap", "name": f.name, "bad": bad, "fresh": fresh})
        return fresh

    def _fetch(self, f: StoredFile, firsts: list[int], counts: list[int],
               after=None) -> list:
        """Each range's ``(block, page)`` addresses from extent arithmetic."""
        blocks, ppb = f.extents, self.pages_per_extent
        addresses: list = []
        append = addresses.append
        for page, count in zip(firsts, counts):
            index, page0 = divmod(page, ppb)
            if count == 1:      # most reads: one page, no loops
                append((blocks[index], page0))
                continue
            end = page0 + count
            while end > ppb:    # the range runs on into the next extent
                block = blocks[index]
                for p in range(page0, ppb):
                    append((block, p))
                index, page0, end = index + 1, 0, end - ppb
            block = blocks[index]
            for p in range(page0, end):
                append((block, p))
        return self.device.read_pages(addresses, counts, after=after)

    def _reclaim(self, extents: list[int]) -> None:
        """Erase blocks back into the free pool.

        Erases run in the background: with block-per-file allocation there
        is never data to relocate, so the device pipelines reclamation
        behind foreground traffic (unlike FTL garbage collection).
        """
        for block in extents:
            try:
                if not self.device.block_is_erased(block):
                    self.device.erase_block(block, background=True)
            except FlashEraseError:
                continue  # block retired: it never rejoins the free pool
            self._release_block(block)

    # ----------------------------------------------------- durable metadata

    def _commit_log(self) -> None:
        """Flush buffered records as journal frames, then maybe compact."""
        if not self.durable or not self._pending_records:
            return
        records, self._pending_records = self._pending_records, []
        frames = encode_frames(JOURNAL_MAGIC, self._journal_seq, records,
                               self.page_bytes)
        self._journal_seq += len(frames)
        for frame in frames:
            self._journal_write(frame)
        if len(self._journal_blocks) > JOURNAL_LIMIT_BLOCKS:
            self._compact_journal()

    def _journal_write(self, frame: bytes) -> None:
        while True:
            block = self._journal_blocks[-1]
            page = self.device.programmed_pages(block)
            if page >= self.geometry.pages_per_block - 1:
                # The last page of every journal block is reserved for the
                # chain-extension record.
                self._journal_extend()
                continue
            try:
                self.device.write_page(block, page, frame)
                return
            except FlashProgramError:
                # The journal block went bad mid-write; its surviving frames
                # stay readable but nothing more can be appended (including
                # an extend record), so start a fresh tail and re-point the
                # superblock at the full chain.
                self._journal_blocks.append(self._allocate_block("journal"))
                self._write_superblock()

    def _journal_extend(self) -> None:
        block = self._journal_blocks[-1]
        fresh = self._allocate_block("journal")
        if self.device.programmed_pages(block) >= self.geometry.pages_per_block:
            # A power loss tore a previous extend attempt: the reserved
            # last page is consumed by garbage no replay can read, so the
            # chain can only continue through a fresh superblock generation.
            self._journal_blocks.append(fresh)
            self._write_superblock()
            return
        frame = encode_frame(JOURNAL_MAGIC, self._journal_seq,
                             [{"op": "extend", "block": fresh}],
                             self.page_bytes)
        self._journal_seq += 1
        try:
            self.device.write_page(
                block, self.geometry.pages_per_block - 1, frame)
            self._journal_blocks.append(fresh)
        except FlashProgramError:
            self._journal_blocks.append(fresh)
            self._write_superblock()

    def _compact_journal(self) -> None:
        """Snapshot the file table into a fresh journal chain.

        Crash-safe by construction: the old chain stays intact until the
        new superblock generation lands, so a crash at any point replays
        either the old chain or the new snapshot — both describe the same
        durable state (unflushed host tails are never journaled).
        """
        old_chain = self._journal_blocks
        records = self._snapshot_records()
        self._journal_blocks = [self._allocate_block("journal")]
        frames = pack_frames(JOURNAL_MAGIC, self._journal_seq, records,
                             self.page_bytes)
        self._journal_seq += len(frames)
        for frame in frames:
            self._journal_write(frame)
        self._write_superblock()
        self._reclaim([b for b in old_chain
                       if b not in self._journal_blocks])

    # -------------------------------------------------- superblock handling

    def _read_superblock(self) -> dict | None:
        """Latest valid superblock record across the ping-pong pair."""
        best = None
        for block in SUPERBLOCK_BLOCKS:
            if self.device.is_bad(block):
                continue
            for page in range(self.device.programmed_pages(block)):
                if self.device.page_state(block, page) != PAGE_VALID:
                    continue
                try:
                    raw = self.device.read_page(block, page)
                except FlashError:
                    continue
                decoded = decode_frame(SUPERBLOCK_MAGIC, raw)
                if decoded is None:
                    continue
                generation, records = decoded
                if records and (best is None or generation > best[0]):
                    best = (generation, records[0], block)
        if best is None:
            return None
        self._generation = best[0]
        self._sb_active = best[2]
        return best[1]

    def _write_superblock(self) -> None:
        self._generation += 1
        frame = encode_frame(SUPERBLOCK_MAGIC, self._generation,
                             [{"journal": self._journal_blocks}],
                             self.page_bytes)
        first = (1 - self._sb_active) if self._sb_active is not None \
            else SUPERBLOCK_BLOCKS[0]
        for target in (first, 1 - first):
            if self.device.is_bad(target):
                continue
            try:
                if self.device.programmed_pages(target) >= \
                        self.geometry.pages_per_block:
                    if target == self._sb_active:
                        continue  # never erase the only valid copy
                    self.device.erase_block(target)
                self.device.write_page(
                    target, self.device.programmed_pages(target), frame)
                self._sb_active = target
                return
            except (FlashProgramError, FlashEraseError):
                continue
        raise FlashWearOutError("both AOFFS superblock slots have failed")

    # -------------------------------------------------------- format / mount

    def _format(self) -> None:
        """Initialize a blank (or crashed-before-first-superblock) device."""
        for block in SUPERBLOCK_BLOCKS:
            if not self.device.is_bad(block) and \
                    not self.device.block_is_erased(block):
                self.device.erase_block(block)
        self._free_blocks = []
        for block in range(len(SUPERBLOCK_BLOCKS), self.geometry.num_blocks):
            if self.device.is_bad(block):
                continue
            if not self.device.block_is_erased(block):
                self.device.erase_block(block)
            self._free_blocks.append(
                (self.device.erase_counts[block], block))
        heapq.heapify(self._free_blocks)
        self._journal_blocks = [self._allocate_block("journal")]
        self._write_superblock()

    def _mount(self, superblock: dict) -> None:
        """Rebuild the file table and free pool from the on-flash journal.

        The free pool must exist before :meth:`_fix_tails` runs — relocating
        committed pages off a dirty block allocates fresh blocks.  Dirty
        blocks still belong to their files at rebuild time, so the pool
        complement never hands one out early.
        """
        self.recovery.mounts += 1
        self._replay_journal(list(superblock.get("journal", [])))
        self._rebuild_free_pool()
        self._fix_tails()
        if not self._journal_blocks:
            self._journal_blocks = [self._allocate_block("journal")]
            self._write_superblock()

    def _replay_journal(self, chain: list[int]) -> None:
        frames: list[tuple[int, list[dict]]] = []
        seen = set(chain)
        i = 0
        while i < len(chain):
            block = chain[i]
            i += 1
            if not 0 <= block < self.geometry.num_blocks:
                continue
            for page in range(self.device.programmed_pages(block)):
                if self.device.page_state(block, page) != PAGE_VALID:
                    continue
                try:
                    raw = self.device.read_page(block, page)
                except FlashError:
                    self.recovery.torn_frames += 1
                    continue
                decoded = decode_frame(JOURNAL_MAGIC, raw)
                if decoded is None:
                    self.recovery.torn_frames += 1
                    continue
                frames.append(decoded)
                for record in decoded[1]:
                    if record.get("op") == "extend" and \
                            record["block"] not in seen:
                        seen.add(record["block"])
                        chain.append(record["block"])
        self._journal_blocks = chain
        frames.sort(key=lambda item: item[0])
        applied = set()
        for seq, records in frames:
            if seq in applied:
                continue
            applied.add(seq)
            self._replay_frame(records)
        self._journal_seq = (max(applied) + 1) if applied else 0
        self.recovery.recovered_files += len(self._files)

    def _apply_record(self, r: dict) -> None:
        if r.get("op") == "remap":
            f = self._files.get(r["name"])
            if f is not None and r["bad"] in f.extents:
                f.extents[f.extents.index(r["bad"])] = r["fresh"]
        else:
            # "extend" records steer chain discovery and are no-ops there.
            super()._apply_record(r)

    def _fix_tails(self) -> None:
        """Discard uncommitted state the crash left behind.

        Unsealed files lose their host tail buffer by definition (size
        snaps back to the committed page count).  A file's last block may
        additionally hold pages programmed by an append whose commit record
        never landed — including a torn page — so any pages beyond the
        committed count make the block *dirty*: the committed pages are
        relocated onto a fresh block (verified against their journaled
        CRCs) and the dirty block is scrubbed.
        """
        ppb = self.geometry.pages_per_block
        for f in list(self._files.values()):
            self._drop_lost_tail(f)
            if not f.extents:
                continue
            last = f.extents[-1]
            expected = f.flushed_pages - (len(f.extents) - 1) * ppb
            actual = self.device.programmed_pages(last)
            if actual <= expected:
                continue
            self.recovery.discarded_pages += actual - expected
            if expected == 0:
                f.extents.pop()
            else:
                f.extents[-1] = self._relocate_committed(f, last, expected)
            try:
                if not self.device.block_is_erased(last):
                    self.device.erase_block(last)
                    self.recovery.scrubbed_blocks += 1
                self._release_block(last)
            except FlashEraseError:
                pass

    def _relocate_committed(self, f: StoredFile, dirty: int,
                            count: int) -> int:
        """Copy the committed prefix of a dirty block onto a fresh one."""
        pages = self.device.read_pages([(dirty, 0, count)])
        base = (len(f.extents) - 1) * self.geometry.pages_per_block
        if f.page_crcs:
            for offset, data in enumerate(pages):
                index = base + offset
                if index < len(f.page_crcs) and \
                        page_crc(data) != f.page_crcs[index]:
                    raise FlashError(
                        f"journaled CRC mismatch on committed page {index} "
                        f"of {f.name!r} during recovery")
        while True:
            fresh = self._allocate_block("relocation")
            try:
                self.device.write_pages(
                    [(fresh, p, d) for p, d in enumerate(pages)])
                break
            except FlashProgramError:
                continue
        self.recovery.relocated_pages += count
        return fresh

    def _rebuild_free_pool(self) -> None:
        """Free pool = everything not owned by a file, the journal, the
        superblocks, or the bad-block list — scrubbed back to erased."""
        owned: set[int] = set()
        for f in self._files.values():
            owned.update(f.extents)
        owned.update(self._journal_blocks)
        owned.update(SUPERBLOCK_BLOCKS)
        pool = []
        for block in range(self.geometry.num_blocks):
            if block in owned or self.device.is_bad(block):
                continue
            if not self.device.block_is_erased(block):
                try:
                    self.device.erase_block(block)
                except FlashEraseError:
                    continue
                self.recovery.scrubbed_blocks += 1
            pool.append((self.device.erase_counts[block], block))
        # Merge with anything _fix_tails already released.
        pool.extend(self._free_blocks)
        self._free_blocks = sorted(set(pool))
        heapq.heapify(self._free_blocks)
