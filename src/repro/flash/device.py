"""Page/block-granular NAND flash device simulator.

The device enforces the three physical constraints that shape every flash
system design (§II-B of the paper):

1. **Erase-before-write** — a page can only be programmed if its block has
   been erased since the page was last written.
2. **Program order** — pages within a block must be written in order.
3. **Coarse erase granularity** — erasing is per block (megabytes), not per
   page, and physically wears the cells (tracked per block).

Timing is charged to a :class:`~repro.perf.clock.SimClock` under the
``flash`` resource.  A read or program is a batch of pages
(:meth:`FlashDevice.read_pages`, :meth:`FlashDevice.write_pages`) that
models a deep command queue: one access latency is paid for the whole batch
plus bandwidth time for every byte.  A single-page call is a batch of one,
so it pays the full latency each time — which is exactly why fine-grained
random access destroys effective flash bandwidth (the paper's
factor-of-2048 example), and why sort-reduce's sequentialization wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.sanitizer import FlashSanitizer, sanitizer_enabled
from repro.perf.clock import SimClock
from repro.perf.profiles import HardwareProfile

PAGE_ERASED = 0
PAGE_VALID = 1
PAGE_INVALID = 2  # written, then superseded; space reclaimable by erase
_ERASED = bytes([PAGE_ERASED])
_VALID = bytes([PAGE_VALID])


class FlashError(RuntimeError):
    """Base of the flash error taxonomy.

    Raised directly for logic errors against the device's state machine
    (write to un-erased page, read of erased/invalidated page, bad address).
    Physical failures raise the typed subclasses below so every layer above
    — FTL, AOFFS, file stores, sort-reduce, engine — can react precisely:

    * :class:`FlashTransientError` — one read attempt failed recoverably;
      internal retry machinery (ECC read-retry, checksum re-reads) catches
      it, so callers only observe it when retries are disabled.
    * :class:`FlashUncorrectableError` — data loss: bit errors exceeded ECC
      strength after every read-retry, or a checksum mismatch persisted.
    * :class:`FlashProgramError` — a page program reported failure; the
      device retires the block, the owning layer must remap.
    * :class:`FlashEraseError` — an erase reported failure (including
      endurance-limit failures); also retires the block.
    * :class:`FlashWearOutError` — the device can no longer provide spare
      capacity (spare pool exhausted / no free block to remap onto).
    """


class FlashTransientError(FlashError):
    """A single read attempt failed but is retryable."""


class FlashUncorrectableError(FlashError):
    """Data is lost: ECC plus every read-retry (or checksum re-read) failed."""

    def __init__(self, message: str, block: int | None = None,
                 page: int | None = None):
        super().__init__(message)
        self.block = block
        self.page = page


class FlashProgramError(FlashError):
    """A page program failed; the containing block has been retired.

    ``batch_committed`` counts the pages of the failed
    :meth:`FlashDevice.write_pages` call that landed before the failure:
    the caller resumes from there after remapping.
    """

    committed = 0        # pages of the failing program-order run that landed
    batch_committed = 0

    def __init__(self, message: str, block: int | None = None,
                 page: int | None = None):
        super().__init__(message)
        self.block = block
        self.page = page


class FlashEraseError(FlashProgramError):
    """A block erase failed; the block has been retired."""


class FlashWearOutError(FlashError):
    """No spare capacity remains to remap around failed blocks."""


class FlashOutOfSpaceError(FlashError):
    """The free block/page pool is exhausted (including shrinkage from
    retired bad blocks).  Raised by AOFFS and FTL allocation so callers can
    distinguish "device is full" from device logic errors."""


class FlashRecoveryExhaustedError(FlashError):
    """Crash recovery made no forward progress: the remount retry loop hit
    its give-up bound.  Raised by the recovery driver instead of a bare
    ``RuntimeError`` so callers can react inside the taxonomy; carries the
    exhausted :class:`~repro.flash.faults.CrashPlan` for diagnosis."""

    def __init__(self, message: str, plan=None):
        super().__init__(message)
        self.plan = plan


class PowerLossError(BaseException):
    """Simulated whole-system power loss at a flash operation boundary.

    Deliberately derives from :class:`BaseException`, *not*
    :class:`FlashError` (nor even :class:`Exception`): when power is cut the
    host dies instantly, so no error-recovery or cleanup handler in the
    stack may observe, swallow, or react to it.  Only the recovery driver
    (:meth:`repro.engine.config.SystemConfig.run_recovering`) catches it,
    then remounts the device and resumes from durable state.
    """

    def __init__(self, message: str, op_index: int | None = None):
        super().__init__(message)
        self.op_index = op_index


@dataclass(frozen=True)
class FlashGeometry:
    """Physical layout of the simulated device.

    ``channels`` models the parallel NAND buses of a real card (BlueDBM's
    flash boards have 8 per card): aggregate bandwidth is only reachable
    when transfers stripe across channels; a single-page access runs at one
    channel's share.  The default of 1 keeps the aggregate-bandwidth model
    used by the calibrated experiments.
    """

    page_bytes: int
    pages_per_block: int
    num_blocks: int
    channels: int = 1

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.channels > self.num_blocks:
            raise ValueError("more channels than blocks")

    @property
    def block_bytes(self) -> int:
        return self.page_bytes * self.pages_per_block


def _program_order_runs(items: list) -> list[tuple[int, int, int]]:
    """Group ``(block, page, ...)`` tuples, in order, into ``(block, first
    page, count)`` runs of consecutive pages of one block, so a batch is
    validated with one array-slice check per run instead of per page."""
    runs = []
    i, n = 0, len(items)
    while i < n:
        block, page0 = items[i][0], items[i][1]
        j = i + 1
        while j < n and items[j][0] == block and items[j][1] == page0 + j - i:
            j += 1
        runs.append((block, page0, j - i))
        i = j
    return runs


class FlashDevice:
    """A raw NAND device: data integrity plus timing/wear accounting.

    Page contents are stored as the program call hands them over, never
    copied: a file store's appends are zero-copy ``memoryview`` slices of
    the appended blob or of a frozen array
    (:meth:`repro.flash.store.FileStore.append`), other writes ``bytes``;
    all of them are immutable.  The simulator is *functional*,
    so anything an engine writes really does round-trip through the device.
    """

    def __init__(self, geometry: FlashGeometry, profile: HardwareProfile, clock: SimClock,
                 traffic_scale: float = 1.0, faults=None, crashes=None,
                 sanitize: bool | None = None):
        """``traffic_scale`` discounts charged transfer volume for devices
        whose datapath stores records densely bit-packed (Fig 7): GraFBoost
        packs key-value pairs into 256-bit words, so each aligned byte the
        functional layer moves costs only ``traffic_scale`` bytes of
        physical flash traffic.

        ``faults`` is an optional :class:`~repro.flash.faults.FaultPlan`;
        when given, every read/program/erase runs through the seeded
        :class:`~repro.flash.faults.FaultInjector` built from it (ECC,
        read-retry, program/erase failures, latency jitter).  ``None`` — and
        a plan with all rates zero — leave the device's behaviour and timing
        untouched.

        ``crashes`` is an optional :class:`~repro.flash.faults.CrashPlan`:
        a seeded schedule of power-loss points expressed as global flash
        operation indices, run by the
        :class:`~repro.flash.faults.PowerLossInjector` built from it.  When
        the device reaches a scheduled op it kills the host mid-operation —
        possibly leaving a *torn* page — by raising :class:`PowerLossError`.  The op counter is device-lifetime
        global, so it keeps advancing across remounts and a finite schedule
        always drains.  ``None`` adds zero overhead and zero RNG draws.

        ``sanitize`` attaches a :class:`~repro.flash.sanitizer.FlashSanitizer`
        (FlashSan) that shadows every committed page and raises
        :class:`~repro.flash.sanitizer.SanitizerError` on invariant
        violations.  ``None`` defers to the ``REPRO_SANITIZE`` environment
        variable; the sanitizer charges no time and draws no randomness, so
        sanitized runs stay bit-identical.
        """
        if not 0 < traffic_scale <= 1:
            raise ValueError(f"traffic_scale must be in (0, 1], got {traffic_scale}")
        self.geometry = geometry
        self.profile = profile
        self.clock = clock
        self.traffic_scale = traffic_scale
        from repro.flash.faults import FaultInjector, PowerLossInjector  # import cycle
        self.faults = FaultInjector(faults, self) if faults is not None else None
        self.crashes = (PowerLossInjector(crashes, self)
                        if crashes is not None else None)
        n = geometry.num_blocks
        self._bad_blocks: set[int] = set()
        self._data: dict[tuple[int, int], bytes] = {}
        # Per-page out-of-band (spare-area) metadata: real NAND pages carry a
        # few dozen spare bytes the controller uses for logical-address tags
        # and checksums; recovery paths scan it to rebuild mappings.
        self._oob: dict[tuple[int, int], bytes] = {}
        # Page states live in one int8 matrix so writes and reads can
        # validate and update whole program-order runs with array slices.
        self._page_state = np.full((n, geometry.pages_per_block), PAGE_ERASED, dtype=np.int8)
        self._next_program_page = [0] * n
        self.erase_counts = [0] * n
        self.total_pages_written = 0
        self.total_pages_read = 0
        self.total_blocks_erased = 0
        if sanitize is None:
            sanitize = sanitizer_enabled()
        self.sanitizer: FlashSanitizer | None = (
            FlashSanitizer(self) if sanitize else None)

    # ------------------------------------------------------------------ checks

    def _retire(self, block: int) -> None:
        if block not in self._bad_blocks:
            self._bad_blocks.add(block)
            if self.faults is not None:
                self.faults.stats.blocks_retired += 1

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.geometry.num_blocks:
            raise FlashError(f"block {block} out of range [0, {self.geometry.num_blocks})")

    def _check_page(self, block: int, page: int) -> None:
        self._check_block(block)
        if not 0 <= page < self.geometry.pages_per_block:
            raise FlashError(f"page {page} out of range [0, {self.geometry.pages_per_block})")

    # ------------------------------------------------------------------- reads

    @property
    def _channel_write_bw(self) -> float:
        return self.profile.flash_write_bw / self.geometry.channels

    def read_page(self, block: int, page: int) -> bytes:
        """Random single-page read: a batch of one, so a full access latency
        and one channel's share of the bandwidth."""
        return self.read_pages([(block, page, 1)])[0]

    def read_pages(self, addresses: list, spans: list[int] | None = None,
                   overhead_s: float | None = None, after=None) -> list[bytes]:
        """Streamed read of a batch: one latency, bandwidth for all bytes.

        ``addresses`` holds ``(block, page)`` pairs or, from a caller that
        knows its extents, ``(block, first_page, count)`` runs.

        ``spans`` splits the pages into consecutive reads of ``spans[i]``
        pages each (default: one read of all of them).  Each is a read of its
        own, in order — ``overhead_s`` charged first when given (the FTL's
        translation), then crash-op advance, FlashSan, jitter, the charge,
        the fault filter and ``after(i, pages)``, whose result (it may edit
        the list it is handed) becomes the read's pages: a file store's CRC
        verify, lookahead charge and cut — exactly as the same reads issued
        one call each.

        One gather of the contents map fetches and validates every page up
        front: the device holds contents for exactly its valid pages.  A
        read that holds an invalid page raises, after the reads before it,
        the error of its first invalid page, as :meth:`_check_run` names it.
        """
        if not addresses:
            return []
        if len(addresses[0]) == 3:
            addresses = [(block, page) for block, page0, count in addresses
                         for page in range(page0, page0 + count)]
        data = self._data
        try:
            pages = list(map(data.__getitem__, addresses))
            bad = len(pages)
        except KeyError:
            bad = next(i for i, address in enumerate(addresses)
                       if address not in data)
            pages = list(map(data.__getitem__, addresses[:bad]))
        if spans is None:
            spans = [len(addresses)]
        clock, sanitizer = self.clock, self.sanitizer
        crashes, faults = self.crashes, self.faults
        latency, scale = self.profile.flash_read_latency_s, self.traffic_scale
        channels = self.geometry.channels
        channel_bw = self.profile.flash_read_bw / channels
        start = 0
        for i, n in enumerate(spans):
            end = start + n
            if overhead_s is not None:
                clock.charge("flash", overhead_s)
            op_start = sanitizer.op_begin() if sanitizer is not None else 0.0
            if crashes is not None and crashes.advance(n) is not None:
                crashes.fire(f"read of {n} page(s)")
            if end > bad:
                self._raise_unreadable(addresses[start:end])
            span = pages[start:end]
            if sanitizer is not None:
                for (block, page), content in zip(addresses[start:end], span):
                    sanitizer.on_read(block, page, content)
            # The busiest channel decides the transfer time (one channel:
            # bytes / bandwidth); bytes are scaled exactly, never rounded.
            if channels == 1:
                busiest = total = sum(map(len, span))
            else:
                per_channel = [0] * channels
                for (block, _page), content in zip(addresses[start:end], span):
                    per_channel[block % channels] += len(content)
                busiest, total = max(per_channel), sum(per_channel)
            seconds = latency + busiest * scale / channel_bw
            if faults is not None:
                seconds += faults.jitter_s(latency)
            clock.charge("flash", seconds, nbytes=int(total * scale), ops=n)
            self.total_pages_read += n
            if sanitizer is not None:
                sanitizer.op_end("read_pages", op_start)
            got = span
            if faults is not None:
                got = faults.filter_read_batch(addresses[start:end], got)
            if after is not None:
                pages[start:end] = after(i, got)
            elif got is not span:
                pages[start:end] = got
            start = end
        return pages

    def _striped_seconds(self, per_channel: list[int], channel_bw: float) -> float:
        """Transfer time of a batch from its bytes per channel: they run in
        parallel, so the busiest decides (one channel: bytes/bandwidth).
        Bytes are scaled by ``traffic_scale`` exactly, never rounded."""
        return max(per_channel) * self.traffic_scale / channel_bw

    def _raise_unreadable(self, addresses: list) -> None:
        """Raise what a read of ``addresses``, which holds an invalid page,
        meets first: run by run, the run's check, then FlashSan on its pages."""
        for block, page0, count in _program_order_runs(addresses):
            self._check_run(block, page0, count)
            if self.sanitizer is not None:
                for page in range(page0, page0 + count):
                    self.sanitizer.on_read(block, page, self._data[(block, page)])
        raise FlashError(f"a valid page without contents among {addresses}")

    def _read_silent(self, block: int, page: int) -> bytes:
        self._check_run(block, page, 1)
        content = self._data[(block, page)]
        if self.sanitizer is not None:
            self.sanitizer.on_read(block, page, content)
        return content

    def _check_run(self, block: int, page0: int, count: int) -> None:
        """Check that pages ``page0 .. page0 + count - 1`` of ``block`` exist
        and hold valid data."""
        geometry = self.geometry
        if not (0 <= block < geometry.num_blocks
                and 0 <= page0 <= geometry.pages_per_block - count):
            self._check_page(block, page0)
            self._check_page(block, page0 + count - 1)
        # The int8 states compared as bytes: runs are a page or a few, where
        # a ufunc reduction costs several times the comparison.
        states = self._page_state[block, page0:page0 + count]
        if states.tobytes() != _VALID * count:
            # Reading an erased page returns all-ones in real NAND, and an
            # invalidated page's contents are host/FTL garbage; engines must
            # not depend on either, so both are logic errors (never a bare
            # KeyError out of the backing dict).
            offset = int(np.flatnonzero(states != PAGE_VALID)[0])
            kind = "erased" if states[offset] == PAGE_ERASED else "invalidated"
            raise FlashError(f"read of {kind} page ({block}, {page0 + offset})")

    # ------------------------------------------------------------------ writes

    def write_page(self, block: int, page: int, data: bytes,
                   oob: bytes | None = None) -> None:
        """Program one page: a batch of one (:meth:`write_pages`).

        ``oob`` is optional spare-area metadata programmed atomically with
        the page (no extra time: real controllers transfer data+spare in one
        page program).
        """
        self.write_pages([(block, page, data)], None if oob is None else [oob])

    def write_pages(self, writes: list[tuple[int, int, bytes]],
                    oobs: list[bytes | None] | None = None) -> None:
        """Sequential program of a batch: one latency for the batch.

        Enforces erase-before-write and program order.  ``oobs``, when
        given, must parallel ``writes``: spare-area metadata programmed with
        each page.
        """
        if not writes:
            return
        sanitizer = self.sanitizer
        op_start = sanitizer.op_begin() if sanitizer is not None else 0.0
        if self.crashes is not None:
            hit = self.crashes.advance(len(writes))
            if hit is not None:
                self._crash_during_batch(writes, oobs, hit)
        # Each program-order run is validated and committed with one
        # array-slice state update instead of per-page bookkeeping.
        done = 0
        try:
            for block, page0, count in _program_order_runs(writes):
                self._program_run(block, page0, writes[done:done + count],
                                  oobs[done:done + count] if oobs else None)
                done += count
        except FlashProgramError as e:
            # Charge the pages that really landed plus tProg of the failure
            # (a failed program is only discovered after tProg elapses);
            # callers resume from ``batch_committed`` after remapping.
            e.batch_committed = done + e.committed
            self._charge_program(writes[:e.batch_committed], jitter=False)
            raise
        self._charge_program(writes, jitter=True)
        if sanitizer is not None:
            sanitizer.op_end("write_pages", op_start)

    def _charge_program(self, writes: list[tuple[int, int, bytes]],
                        jitter: bool) -> None:
        """One program latency plus the striped transfer of ``writes``."""
        channels = self.geometry.channels
        per_channel = [0] * channels
        for block, _page, data in writes:
            per_channel[block % channels] += len(data)
        seconds = self.profile.flash_write_latency_s + self._striped_seconds(
            per_channel, self._channel_write_bw)
        if jitter and self.faults is not None:
            seconds += self.faults.jitter_s(self.profile.flash_write_latency_s)
        self.clock.charge("flash", seconds,
                          nbytes=int(sum(per_channel) * self.traffic_scale),
                          ops=max(1, len(writes)))

    def _crash_during_batch(self, writes, oobs, hit: int) -> None:
        """Power loss hit page ``hit`` of a program.

        Pages before the hit landed completely (deep-queued programs ahead
        of the cut had already reported status); the hit page itself may be
        committed *torn* — partially-programmed cells that read back as
        garbage — which is exactly what per-page CRCs and OOB records exist
        to detect at mount.  No time is charged: the host never observes
        the operation completing, and the dead host draws no faults.
        """
        done = 0
        for block, page0, count in _program_order_runs(writes[:hit]):
            self._commit_run(block, page0, writes[done:done + count],
                             oobs[done:done + count] if oobs else None)
            done += count
        block, page, data = writes[hit]
        if self._can_tear(block, page, data) and self.crashes.tears_page():
            self._commit_torn(block, page, data)
        self.crashes.fire(f"program ({block}, {page})")

    def _can_tear(self, block: int, page: int, data: bytes) -> bool:
        """A torn commit only makes sense where the program would have been
        legal; otherwise the cut simply precedes an invalid operation."""
        return (0 <= block < self.geometry.num_blocks
                and 0 <= page < self.geometry.pages_per_block
                and block not in self._bad_blocks
                and len(data) <= self.geometry.page_bytes
                and page == self._next_program_page[block]
                and self._page_state[block, page] == PAGE_ERASED)

    def _commit_torn(self, block: int, page: int, data: bytes) -> None:
        """Commit a torn page: a corrupted prefix of the intended data with
        garbage beyond it, no OOB (the spare area never finished)."""
        torn = self.crashes.torn_data(data)
        if self.sanitizer is not None:
            self.sanitizer.on_program(block, page, torn, None, torn=True)
        self._data[(block, page)] = torn
        self._page_state[block, page] = PAGE_VALID
        self._next_program_page[block] = page + 1
        self.total_pages_written += 1

    def _program_run(self, block: int, page0: int, run: list[tuple[int, int, bytes]],
                     oobs: list[bytes | None] | None = None) -> None:
        """Program a contiguous in-order run of pages within one block.

        Enforces the address range, the retired-block list, the page-size
        bound, erase-before-write and program order — in that order, so a
        rewrite of a programmed page is named un-erased — then draws
        program failures and commits the run.
        """
        count = len(run)
        last = page0 + count - 1
        self._check_page(block, page0)
        self._check_page(block, last)
        if block in self._bad_blocks:
            raise FlashProgramError(
                f"program to retired bad block {block}", block=block, page=page0)
        page_bytes = self.geometry.page_bytes
        oversize = next((len(d) for _, _, d in run if len(d) > page_bytes), None)
        if oversize is not None:
            raise FlashError(f"write of {oversize} B exceeds page size {page_bytes}")
        states = self._page_state[block, page0:last + 1]
        if states.tobytes() != _ERASED * count:  # as in _check_run
            bad = page0 + int(np.flatnonzero(states)[0])
            raise FlashError(f"write to un-erased page ({block}, {bad})")
        if page0 != self._next_program_page[block]:
            raise FlashError(
                f"out-of-order program of page {page0} in block {block}; "
                f"next programmable page is {self._next_program_page[block]}"
            )
        failed = (self.faults.first_program_failure(block, page0, count)
                  if self.faults is not None else None)
        if failed is None:
            self._commit_run(block, page0, run, oobs)
            return
        # Pages before the failure landed; the block is retired at the
        # first program-status failure (the controller policy).
        if failed:
            self._commit_run(block, page0, run[:failed],
                             oobs[:failed] if oobs is not None else None)
        self._retire(block)
        error = FlashProgramError(
            f"program failure at ({block}, {page0 + failed}); block retired",
            block=block, page=page0 + failed)
        error.committed = failed
        raise error

    def _commit_run(self, block: int, page0: int, run: list[tuple[int, int, bytes]],
                    oobs: list[bytes | None] | None) -> None:
        """Commit a run :meth:`_program_run` validated — or the prefix of a
        power-cut batch, which would have passed that validation — with one
        state-slice assignment and one dict update."""
        if self.sanitizer is not None:
            for k, (_, p, d) in enumerate(run):
                self.sanitizer.on_program(
                    block, p, d, oobs[k] if oobs is not None else None)
        self._data.update(((block, p), d) for _, p, d in run)
        if oobs is not None:
            self._oob.update(((block, p), o) for (_, p, _), o in zip(run, oobs)
                             if o is not None)
        end = page0 + len(run)
        self._page_state[block, page0:end] = PAGE_VALID
        self._next_program_page[block] = end
        self.total_pages_written += len(run)

    def _write_silent(self, block: int, page: int, data: bytes) -> None:
        self._program_run(block, page, [(block, page, data)], None)

    # ------------------------------------------------------------ invalidation

    # Free by design: invalidation flips host/FTL metadata, no flash command
    # is issued, so there is no time to charge.
    def invalidate_page(self, block: int, page: int) -> None:  # repro-lint: disable=RL006
        """Mark a written page's contents dead (host/FTL metadata, no flash op)."""
        self._check_page(block, page)
        if self._page_state[block, page] != PAGE_VALID:
            raise FlashError(f"invalidate of non-valid page ({block}, {page})")
        if self.sanitizer is not None:
            self.sanitizer.on_invalidate(block, page)
        self._page_state[block, page] = PAGE_INVALID
        self._data.pop((block, page), None)
        self._oob.pop((block, page), None)

    # ------------------------------------------------------------------ erases

    def erase_block(self, block: int, background: bool = False) -> None:
        """Erase a whole block; any valid pages in it are destroyed.

        ``background=True`` models an erase pipelined by the device behind
        other work (AOFFS reclaiming deleted files): wear and busy time are
        still accounted, but the foreground clock does not stall.  GC-driven
        erases inside an FTL stay foreground — they really do block writes.
        """
        self._check_block(block)
        if block in self._bad_blocks:
            raise FlashEraseError(f"erase of retired bad block {block}", block=block)
        sanitizer = self.sanitizer
        op_start, busy_start = 0.0, 0.0
        if sanitizer is not None:
            sanitizer.on_erase(block)
            op_start = sanitizer.op_begin()
            busy_start = self.clock.busy_s("flash")
        if self.crashes is not None and self.crashes.advance(1) is not None:
            # Power loss during the erase pulse: the cells either finished
            # clearing or kept their (now half-stressed) contents; the host
            # never saw status either way, so no time is charged.
            if self.crashes.erase_completes():
                self._complete_erase(block)
            self.crashes.fire(f"erase of block {block}")
        if self.faults is not None:
            reason = self.faults.erase_fails(block)
            if reason is not None:
                # The failed erase still cycles (and stresses) the cells
                # before status comes back; data in the block stays readable.
                self.erase_counts[block] += 1
                self._retire(block)
                if background:
                    self.clock.charge_background("flash", self.profile.flash_erase_latency_s)
                else:
                    self.clock.charge("flash", self.profile.flash_erase_latency_s)
                detail = ("endurance limit reached" if reason == "wear"
                          else "erase-status failure")
                raise FlashEraseError(
                    f"erase failure on block {block} ({detail}); block retired",
                    block=block)
        self._complete_erase(block)
        seconds = self.profile.flash_erase_latency_s
        if self.faults is not None:
            seconds += self.faults.jitter_s(self.profile.flash_erase_latency_s)
        if background:
            self.clock.charge_background("flash", seconds)
            if sanitizer is not None:
                sanitizer.op_end_background("erase_block", busy_start)
        else:
            self.clock.charge("flash", seconds)
            if sanitizer is not None:
                sanitizer.op_end("erase_block", op_start)

    def _complete_erase(self, block: int) -> None:
        """The cells cleared: every page erased and forgotten, one more cycle
        of wear."""
        if self.sanitizer is not None:
            self.sanitizer.on_erased(block)
        self._page_state[block, :] = PAGE_ERASED
        for page in range(self.geometry.pages_per_block):
            self._data.pop((block, page), None)
            self._oob.pop((block, page), None)
        self._next_program_page[block] = 0
        self.erase_counts[block] += 1
        self.total_blocks_erased += 1

    # --------------------------------------------------------------- recovery

    def mount_scan(self) -> list[tuple[int, int, bytes | None]]:
        """Recovery-time sweep: every valid page's ``(block, page, oob)``.

        Models the controller's mount scan reading just the spare areas of
        non-erased blocks — charged as one page-read latency per scanned
        block (the OOB bytes themselves are noise next to the latency).
        Retired bad blocks are included: they may still hold the only valid
        copy of data whose relocation a crash interrupted.
        """
        sanitizer = self.sanitizer
        op_start = sanitizer.op_begin() if sanitizer is not None else 0.0
        results: list[tuple[int, int, bytes | None]] = []
        scanned = 0
        for block in range(self.geometry.num_blocks):
            if not self._page_state[block].any():  # fully erased
                continue
            if self.crashes is not None and self.crashes.advance(1) is not None:
                self.crashes.fire(f"mount scan of block {block}")
            scanned += 1
            valid = np.flatnonzero(self._page_state[block] == PAGE_VALID)
            results.extend((block, int(p), self._oob.get((block, int(p))))
                           for p in valid)
        if scanned:
            self.clock.charge("flash",
                              scanned * self.profile.flash_read_latency_s,
                              ops=scanned)
            if sanitizer is not None:
                for block, page, oob in results:
                    sanitizer.on_read_oob(block, page, oob)
                sanitizer.op_end("mount_scan", op_start)
        return results

    # ------------------------------------------------------------------- state

    def page_state(self, block: int, page: int) -> int:
        self._check_page(block, page)
        return int(self._page_state[block, page])

    def valid_pages(self, block: int) -> int:
        self._check_block(block)
        return int(np.count_nonzero(self._page_state[block] == PAGE_VALID))

    def block_is_erased(self, block: int) -> bool:
        self._check_block(block)
        return not self._page_state[block].any()  # PAGE_ERASED == 0

    def programmed_pages(self, block: int) -> int:
        """Pages of ``block`` already programmed (valid or invalidated)."""
        self._check_block(block)
        return self._next_program_page[block]

    def is_bad(self, block: int) -> bool:
        self._check_block(block)
        return block in self._bad_blocks

    @property
    def bad_block_count(self) -> int:
        return len(self._bad_blocks)
