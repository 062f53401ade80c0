"""FlashSan: a runtime sanitizer for the flash invariants.

The device model *enforces* NAND's physical rules (erase-before-program,
program order, per-block erase) and the layers above it maintain their own
bookkeeping (FTL map, AOFFS file table, free pools, sim-clock charges).
FlashSan mirrors every committed page in independent *shadow state* and
cross-checks each operation against it, so a bookkeeping bug in any layer
— device state corruption, an FTL map that drifted from flash, an erase of
pages a file still owns, a device op that forgot to charge the clock —
raises :class:`SanitizerError` at the first operation that proves it,
instead of surfacing runs later as silent data loss or a wrong golden.

Enabled with ``REPRO_SANITIZE=1`` in the environment (picked up by every
newly built :class:`~repro.flash.device.FlashDevice`) or per-run via the
CLI ``--sanitize`` flag.  The sanitizer never charges the clock and never
draws randomness, so a sanitized run is bit-identical to an unsanitized
one — ``tests/test_perf_invariance.py`` pins that.

:class:`SanitizerError` deliberately derives from :class:`Exception`
directly, *not* from ``FlashError``: the recovery machinery (ECC retries,
block remapping, crash remounts) must never be able to swallow a report
that the simulation itself is broken.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

#: Shadow page states (independent of the device's constants by design:
#: the sanitizer must not trust the code it checks).
SH_ERASED = 0
SH_VALID = 1
SH_INVALID = 2


class SanitizerError(Exception):
    """A flash invariant was violated — a bug in the stack, not modeled
    physics.  Never caught by any recovery path."""


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for sanitized devices."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on")


class FlashSanitizer:
    """Shadow state plus invariant checks for one :class:`FlashDevice`.

    The device calls the ``on_*`` hooks at every commit point; the FTL and
    AOFFS register themselves via :meth:`track_ftl` / :meth:`track_owner`
    so erase-time liveness and free-pool accounting can be checked against
    the layer that owns the blocks.

    Checks (each named for the bug class it catches):

    * **program-to-non-erased / double-program** — shadow state says the
      target page was already written or invalidated, i.e. the device's own
      state matrix was corrupted or bypassed.
    * **out-of-order program** — the commit does not match the shadow
      program cursor for the block.
    * **read-of-never-written** — a read returned data for a page the
      shadow never saw programmed (the uncorrectable-loss path corrupts
      *returned* data after this check, so it is exempt by construction).
    * **content/OOB divergence** — CRC of the data (or spare area) handed
      back differs from what was programmed.
    * **erase-of-live-pages** — an erase would destroy pages still mapped
      by the FTL, owned by a live AOFFS file, or part of the AOFFS journal
      chain / active superblock.
    * **free-pool drift** — the FTL's free list disagrees with the shadow
      (non-erased or bad blocks in the pool, map/reverse inconsistency,
      spare-accounting identity broken).
    * **zero-cost / non-monotonic device ops** — a foreground device op
      that did not advance the sim clock, or a clock that moved backwards
      between ops.
    """

    def __init__(self, device) -> None:
        self.device = device
        geometry = device.geometry
        self._state = np.full(
            (geometry.num_blocks, geometry.pages_per_block), SH_ERASED,
            dtype=np.int8)
        self._next_page = [0] * geometry.num_blocks
        self._crc: dict[tuple[int, int], int] = {}
        self._oob_crc: dict[tuple[int, int], int | None] = {}
        self._ftl = None
        self._owner = None
        self._clock_high = device.clock.elapsed_s
        self._audit_debt = 0
        self.pages_checked = 0
        self.ftl_checks = 0

    # ------------------------------------------------------------ registration

    def track_ftl(self, ftl) -> None:
        """Register the FTL owning this device (replaces any previous one,
        e.g. across a crash remount)."""
        self._ftl = ftl
        self._owner = None

    def track_owner(self, fs) -> None:
        """Register the AOFFS instance owning this device's blocks."""
        self._owner = fs
        self._ftl = None

    # ----------------------------------------------------------- commit hooks

    def on_program(self, block: int, page: int, data: bytes,
                   oob: bytes | None, torn: bool = False) -> None:
        state = int(self._state[block, page])
        if state == SH_VALID:
            raise SanitizerError(
                f"double program of page ({block}, {page}): the shadow "
                "already holds data the device never saw erased")
        if state == SH_INVALID:
            raise SanitizerError(
                f"program to non-erased page ({block}, {page}): the page "
                "was invalidated but its block was never erased")
        if page != self._next_page[block]:
            raise SanitizerError(
                f"out-of-order program of page ({block}, {page}); shadow "
                f"program cursor is at page {self._next_page[block]}")
        self._state[block, page] = SH_VALID
        self._next_page[block] = page + 1
        self._crc[(block, page)] = zlib.crc32(data)
        # A torn page's spare area never finished programming; None means
        # "no OOB on flash" and the mount scan must agree.
        self._oob_crc[(block, page)] = (
            None if torn or oob is None else zlib.crc32(oob))

    def on_invalidate(self, block: int, page: int) -> None:
        if self._state[block, page] != SH_VALID:
            raise SanitizerError(
                f"invalidate of page ({block}, {page}) the shadow never "
                "saw programmed")
        self._state[block, page] = SH_INVALID
        self._crc.pop((block, page), None)
        self._oob_crc.pop((block, page), None)

    # ------------------------------------------------------------ erase hooks

    def on_erase(self, block: int) -> None:
        """Pre-erase liveness audit against the registered owning layer."""
        ftl = self._ftl
        if ftl is not None:
            for page in range(self.device.geometry.pages_per_block):
                if self._state[block, page] == SH_VALID and \
                        (block, page) in ftl._reverse:
                    raise SanitizerError(
                        f"erase of block {block} would destroy page "
                        f"({block}, {page}) still mapped to logical page "
                        f"{ftl._reverse[(block, page)]} by the FTL")
        fs = self._owner
        if fs is not None:
            for f in fs._files.values():
                if block in f.extents:
                    raise SanitizerError(
                        f"erase of block {block} still owned by live AOFFS "
                        f"file {f.name!r}")
            if block in getattr(fs, "_journal_blocks", ()):
                raise SanitizerError(
                    f"erase of block {block}: it is part of the live AOFFS "
                    "journal chain")
            if block == getattr(fs, "_sb_active", None):
                raise SanitizerError(
                    f"erase of block {block}: it holds the only valid AOFFS "
                    "superblock")

    def on_erased(self, block: int) -> None:
        """The cells actually cleared (normal erase or crash-completed)."""
        self._state[block, :] = SH_ERASED
        self._next_page[block] = 0
        for page in range(self.device.geometry.pages_per_block):
            self._crc.pop((block, page), None)
            self._oob_crc.pop((block, page), None)

    # ------------------------------------------------------------- read hooks

    def on_read(self, block: int, page: int, data: bytes) -> None:
        """Called with the *stored* bytes, before fault injection corrupts
        the returned copy — so the uncorrectable path is naturally exempt."""
        if self._state[block, page] != SH_VALID:
            raise SanitizerError(
                f"read of never-written page ({block}, {page}): the device "
                "returned data for a page the shadow saw erased/invalidated")
        if zlib.crc32(data) != self._crc[(block, page)]:
            raise SanitizerError(
                f"content of page ({block}, {page}) diverged from what was "
                "programmed")
        self.pages_checked += 1

    def on_read_oob(self, block: int, page: int, oob: bytes | None) -> None:
        if self._state[block, page] != SH_VALID:
            raise SanitizerError(
                f"OOB read of never-written page ({block}, {page})")
        expected = self._oob_crc.get((block, page))
        got = None if oob is None else zlib.crc32(oob)
        if got != expected:
            raise SanitizerError(
                f"OOB of page ({block}, {page}) diverged from what was "
                "programmed")

    # ------------------------------------------------------------ clock hooks

    def op_begin(self) -> float:
        elapsed = self.device.clock.elapsed_s
        if elapsed < self._clock_high:
            raise SanitizerError(
                f"sim clock moved backwards: {elapsed} s after having "
                f"reached {self._clock_high} s")
        return elapsed

    def op_end(self, name: str, start_elapsed: float) -> None:
        elapsed = self.device.clock.elapsed_s
        if elapsed <= start_elapsed:
            raise SanitizerError(
                f"zero-cost device op: {name} completed without advancing "
                "the sim clock")
        self._clock_high = elapsed

    def op_end_background(self, name: str, start_busy: float) -> None:
        if self.device.clock.busy_s("flash") <= start_busy:
            raise SanitizerError(
                f"zero-cost background device op: {name} accrued no flash "
                "busy time")

    # ------------------------------------------------------- layer-wide audit

    def maybe_check_ftl(self, ftl, mutated: int) -> None:
        """Amortized audit: run :meth:`check_ftl` once enough mutations have
        accumulated to pay for its O(map) cost.

        ``write_many`` calls this with the batch size; auditing every batch
        would make long append workloads quadratic (the audit walks the
        whole map).  Auditing once per ~quarter-map of mutations keeps total
        audit work linear in pages written while still catching drift within
        a bounded window.
        """
        self._audit_debt += mutated
        if self._audit_debt >= max(64, len(ftl._map) // 4):
            self.check_ftl(ftl)

    def check_ftl(self, ftl) -> None:
        """Full FTL bookkeeping audit (map/reverse/free-pool/spares).

        Called unconditionally after garbage collection and mount recovery,
        and on an amortized schedule from the FTL write path.
        """
        self._audit_debt = 0
        self.ftl_checks += 1
        if len(ftl._map) != len(ftl._reverse):
            raise SanitizerError(
                f"FTL map ({len(ftl._map)} entries) and reverse map "
                f"({len(ftl._reverse)} entries) disagree")
        for lpn, addr in ftl._map.items():
            if ftl._reverse.get(addr) != lpn:
                raise SanitizerError(
                    f"FTL reverse map of {addr} is {ftl._reverse.get(addr)}, "
                    f"expected logical page {lpn}")
            block, page = addr
            if self._state[block, page] != SH_VALID:
                raise SanitizerError(
                    f"FTL maps logical page {lpn} to ({block}, {page}) but "
                    "the shadow never saw that page programmed")
        free = ftl._free_blocks
        if len(set(free)) != len(free):
            raise SanitizerError("duplicate block in the FTL free pool")
        for block in free:
            if self.device.is_bad(block):
                raise SanitizerError(
                    f"retired bad block {block} sits in the FTL free pool")
            if self._state[block].any():
                raise SanitizerError(
                    f"free-pool drift: block {block} is in the FTL free "
                    "pool but holds programmed pages")
        geometry = self.device.geometry
        expected_spares = (geometry.num_blocks -
                           ftl.logical_pages // geometry.pages_per_block -
                           ftl.blocks_retired)
        if ftl.spare_blocks_remaining != expected_spares:
            raise SanitizerError(
                f"FTL spare accounting drift: {ftl.spare_blocks_remaining} "
                f"spares recorded, identity requires {expected_spares}")
