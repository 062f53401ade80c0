"""Deterministic fault injection and ECC/read-retry recovery (§II-B).

Real NAND is not the reliable byte store the rest of the stack pretends it
is: cells suffer read-disturb and retention bit errors, programs and erases
fail outright, and every program/erase cycle makes all of it worse.
Controllers hide the physics behind per-page ECC, read-retry voltage
escalation, and bad-block remapping — machinery the paper's raw-flash design
(and any commodity SSD under the baselines) depends on being present.

This module makes that machinery explicit and *deterministic*:

* :class:`FaultPlan` — a seeded, declarative description of how unreliable
  the simulated device should be: per-read raw bit-error rate (BER),
  program/erase failure probabilities, latency jitter, and optional
  wear-acceleration that scales all of it with each block's erase count.
* :class:`FaultInjector` — the per-device runtime built from a plan.  It
  draws from one seeded generator in operation order, so the same plan on
  the same workload injects byte-for-byte the same faults — a chaos test is
  just another reproducible benchmark.
* The **ECC model**: each page read draws its raw bit-error count from
  ``Binomial(page_bits, BER)``.  Up to ``ecc_correctable_bits`` errors are
  corrected inline (real controllers run BCH/LDPC in the datapath, so a
  corrected read costs nothing extra).  Beyond that the controller
  *read-retries* with tuned reference voltages: every retry re-reads the
  page — charging a full access latency plus the page transfer to the
  :class:`~repro.perf.clock.SimClock` — at ``retry_ber_scale`` times the
  previous BER.  A page that stays uncorrectable after
  ``read_retry_limit`` retries raises
  :class:`~repro.flash.device.FlashUncorrectableError` (or, with
  ``silent_corruption_p``, escapes as corrupted data for the file-store
  checksum layer to catch).

A plan with every rate at zero is free: no generator draws, no extra
charges, bit-identical sim-clock accounting — the invariance goldens pin
this.

RNG audit (repro-lint RL001): all randomness flows through generators
seeded from the plan's explicit ``seed`` field — ``FaultInjector`` uses
``default_rng(plan.seed)`` and ``PowerLossInjector`` derives its stream
from ``SeedSequence([plan.seed, 0x51A5])`` so fault and crash draws never
alias.  Nothing reads the global numpy state or host entropy.

The exception taxonomy itself lives in :mod:`repro.flash.device` (the layer
that raises it) and is re-exported here for convenience.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.flash.device import (
    FlashError,
    FlashEraseError,
    FlashOutOfSpaceError,
    FlashProgramError,
    FlashTransientError,
    FlashUncorrectableError,
    FlashWearOutError,
    PowerLossError,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "CrashPlan",
    "CrashStats",
    "MAX_REMOUNTS",
    "PowerLossInjector",
    "verify_pages",
    "FlashError",
    "FlashTransientError",
    "FlashUncorrectableError",
    "FlashProgramError",
    "FlashEraseError",
    "FlashWearOutError",
    "FlashOutOfSpaceError",
    "PowerLossError",
]


#: CLI spec keys (``--faults seed=3,ber=5e-5``) mapped to field name + type.
_SPEC_KEYS: dict[str, tuple[str, type]] = {
    "seed": ("seed", int),
    "ber": ("read_ber", float),
    "pfail": ("program_fail_p", float),
    "efail": ("erase_fail_p", float),
    "jitter": ("latency_jitter", float),
    "wear_ber": ("wear_ber_scale", float),
    "wear_fail": ("wear_fail_scale", float),
    "pe_limit": ("pe_cycle_limit", int),
    "ecc": ("ecc_correctable_bits", int),
    "retries": ("read_retry_limit", int),
    "retry_scale": ("retry_ber_scale", float),
    "silent": ("silent_corruption_p", float),
}


#: CLI spec keys for ``--crash seed=3,ops=5`` mapped to field name + parser.
_CRASH_SPEC_KEYS: dict[str, tuple[str, str]] = {
    "seed": ("seed", "int"),
    "ops": ("crashes", "int"),
    "first": ("first_op", "int"),
    "gap": ("mean_gap", "float"),
    "torn": ("torn_write_p", "float"),
    "at": ("at_ops", "ops"),
}


def _spec_int(raw: str) -> int:
    """An integer spec value: ``1e3`` is 1000; ``2.5`` and ``inf`` are errors."""
    value = float(raw)
    if not value.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(value)


def split_spec(spec: str, what: str) -> dict[str, str]:
    """Split a ``key=value,...`` spec into a key -> raw value map.

    Blank entries are skipped; an entry without ``=`` and a repeated key are
    errors, named by ``what`` (``"fault"``, ``"crash"``, ``"job"``).  Each
    caller owns its keys and their value types.

    >>> split_spec("seed=3, ber=5e-5,", "fault")
    {'seed': '3', 'ber': '5e-5'}
    """
    entries: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        if not sep:
            raise ValueError(f"{what} spec entry {part!r} is not key=value")
        key = key.strip()
        if key in entries:
            raise ValueError(f"duplicate {what} spec key {key!r}")
        entries[key] = raw.strip()
    return entries


#: Remounts after which the crash recovery driver
#: (:meth:`repro.engine.config.SystemConfig.run_recovering`) gives up, and so
#: the most power losses a :class:`CrashPlan` may schedule: each costs one.
MAX_REMOUNTS = 10_000


@dataclass(frozen=True)
class CrashPlan:
    """Seeded schedule of power-loss injection points.

    Crash points are *global flash operation indices*: every page read,
    page program, block erase, and mount-scan block counts as one op, so
    the schedule is deterministic for a fixed workload and keeps advancing
    across remounts (recovery itself can be crashed).  A drained schedule
    injects nothing, which guarantees the recovery driver
    (:meth:`repro.engine.config.SystemConfig.run_recovering`) terminates.
    """

    seed: int = 0
    #: Number of power losses to inject (ignored when ``at_ops`` is given).
    crashes: int = 5
    #: Earliest eligible op index (lets the schedule skip formatting).
    first_op: int = 50
    #: Mean ops between consecutive losses (exponential gaps).
    mean_gap: float = 2000.0
    #: Probability an interrupted page program leaves a *torn* page —
    #: partially-programmed cells committed as garbage — rather than
    #: nothing at all.
    torn_write_p: float = 0.5
    #: Explicit absolute op indices; overrides the seeded drawing.
    at_ops: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.crashes <= MAX_REMOUNTS:
            raise ValueError(
                f"crashes must be in [0, {MAX_REMOUNTS}] (recovery gives up "
                f"after {MAX_REMOUNTS} remounts), got {self.crashes}")
        if not 0 < self.mean_gap < math.inf:
            raise ValueError(f"mean_gap must be finite and > 0, got {self.mean_gap}")
        if not 0.0 <= self.torn_write_p <= 1.0:
            raise ValueError(
                f"torn_write_p must be in [0, 1], got {self.torn_write_p}")
        if any(op < 0 for op in self.at_ops):
            raise ValueError("at_ops indices must be >= 0")
        try:
            with np.errstate(over="ignore"):
                self.schedule()
        except OverflowError:   # gaps so long their sum reaches infinity
            raise ValueError(
                f"first_op={self.first_op} and mean_gap={self.mean_gap} draw "
                f"crash op indices beyond any integer") from None

    def schedule(self) -> list[int]:
        """Sorted absolute op indices at which power is cut."""
        if self.at_ops:
            return sorted({int(op) for op in self.at_ops})
        if self.crashes == 0:
            return []
        rng = np.random.default_rng(self.seed)
        gaps = 1.0 + rng.exponential(self.mean_gap, size=self.crashes)
        return sorted({int(op) for op in self.first_op + np.cumsum(gaps)})

    @staticmethod
    def parse(spec: str) -> "CrashPlan":
        """Build a plan from a ``key=value,...`` CLI spec.

        Keys: ``seed``, ``ops`` (number of losses), ``first``, ``gap``,
        ``torn``, and ``at`` (explicit ``/``-separated op indices).

        >>> CrashPlan.parse("seed=3,ops=7").crashes
        7
        >>> CrashPlan.parse("at=10/250/9000").at_ops
        (10, 250, 9000)
        """
        kwargs: dict[str, object] = {}
        for key, raw in split_spec(spec, "crash").items():
            if key not in _CRASH_SPEC_KEYS:
                known = ", ".join(sorted(_CRASH_SPEC_KEYS))
                raise ValueError(f"unknown crash spec key {key!r}; known: {known}")
            field, kind = _CRASH_SPEC_KEYS[key]
            try:
                if kind == "ops":
                    kwargs[field] = tuple(_spec_int(x) for x in raw.split("/"))
                elif kind == "int":
                    kwargs[field] = _spec_int(raw)
                else:
                    kwargs[field] = float(raw)
            except ValueError as exc:
                raise ValueError(f"bad value {raw!r} for crash key {key!r}") from exc
        return CrashPlan(**kwargs)


@dataclass
class CrashStats:
    """Observable outcome counters of one device's power-loss injector."""

    power_losses: int = 0
    torn_writes: int = 0


class PowerLossInjector:
    """Runtime crash state for one :class:`~repro.flash.device.FlashDevice`.

    Lives on the *device* (the hardware), so it survives every host
    remount: the op counter and remaining schedule are global across the
    crash → mount → resume loop.  The torn-write generator is separate from
    the fault injector's so attaching a crash plan never perturbs fault
    determinism.
    """

    def __init__(self, plan: CrashPlan, device) -> None:
        self.plan = plan
        self.device = device
        self.stats = CrashStats()
        self._pending = list(plan.schedule())  # sorted; consumed from front
        self._rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 0x51A5]))
        self.op_index = 0

    def advance(self, count: int = 1) -> int | None:
        """Advance the global op counter by ``count`` ops.

        Returns the offset within ``[0, count)`` of a scheduled power loss,
        or ``None``.  The caller applies partial effects up to the offset
        and then :meth:`fire`\\ s.  On a hit the counter stops at the
        interrupted op — the rest of the batch never executed — so every
        later scheduled point stays in the future and fires on its own.
        """
        start = self.op_index
        self.op_index += count
        if self._pending and self._pending[0] < self.op_index:
            offset = max(0, self._pending[0] - start)
            self.op_index = start + offset + 1
            return offset
        return None

    def fire(self, where: str) -> None:
        """Cut power: consume the due crash point(s) and kill the host."""
        while self._pending and self._pending[0] < self.op_index:
            self._pending.pop(0)
        self.stats.power_losses += 1
        raise PowerLossError(
            f"simulated power loss during {where} "
            f"(flash op #{self.op_index - 1})", op_index=self.op_index - 1)

    # The interrupted-operation physics below draw from the injector's own
    # seeded generator, in schedule order — deterministic per (plan, workload).

    def tears_page(self) -> bool:
        """Does the interrupted program leave a torn (committed-garbage) page?"""
        return float(self._rng.random()) < self.plan.torn_write_p

    def torn_data(self, data: bytes) -> bytes:
        """A torn page: an intact prefix, then garbage where programming
        stopped mid-cell."""
        keep = int(len(data) * float(self._rng.random()))
        tail = self._rng.integers(0, 256, size=len(data) - keep, dtype=np.uint8)
        self.stats.torn_writes += 1
        return bytes(data[:keep]) + tail.tobytes()

    def erase_completes(self) -> bool:
        """Did an interrupted erase pulse finish clearing the cells?"""
        return bool(self._rng.random() < 0.5)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative fault model for one simulated device.

    All probabilities are per-operation; a plan with every rate at zero
    injects nothing and perturbs nothing (including the sim clock).
    """

    seed: int = 0
    #: Raw bit-error rate per stored bit on every page read.
    read_ber: float = 0.0
    #: Probability any single page program fails (block is then retired).
    program_fail_p: float = 0.0
    #: Probability a block erase fails (block is then retired).
    erase_fail_p: float = 0.0
    #: Uniform extra latency per device op, as a fraction of the op latency.
    latency_jitter: float = 0.0
    #: Wear acceleration: effective BER = read_ber * (1 + scale * erases).
    wear_ber_scale: float = 0.0
    #: Same acceleration applied to program/erase failure probabilities.
    wear_fail_scale: float = 0.0
    #: Endurance limit: erases of a block at/beyond this count always fail
    #: (0 disables the limit).
    pe_cycle_limit: int = 0
    #: ECC strength: bit errors per page correctable without a retry.
    ecc_correctable_bits: int = 8
    #: Read-retry escalation budget once ECC is exceeded.
    read_retry_limit: int = 4
    #: Each retry re-reads at this multiple of the previous BER (tuned read
    #: voltages recover most of the signal; 1.0 models a device whose
    #: retries never help).
    retry_ber_scale: float = 0.25
    #: Probability an uncorrectable read escapes as silently corrupted data
    #: (ECC miscorrection) instead of an error — the case the file-store
    #: checksums exist to catch.
    silent_corruption_p: float = 0.0

    def __post_init__(self) -> None:
        for field in ("read_ber", "program_fail_p", "erase_fail_p",
                      "silent_corruption_p"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {value}")
        for field in ("latency_jitter", "wear_ber_scale", "wear_fail_scale",
                      "retry_ber_scale"):
            value = getattr(self, field)
            if not 0 <= value < math.inf:
                raise ValueError(f"{field} must be finite and >= 0, got {value}")
        for field in ("pe_cycle_limit", "ecc_correctable_bits",
                      "read_retry_limit"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")

    @property
    def injects_read_faults(self) -> bool:
        return self.read_ber > 0.0

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Build a plan from a ``key=value,key=value`` CLI spec.

        Keys are the short names of :data:`_SPEC_KEYS` (``seed``, ``ber``,
        ``pfail``, ``efail``, ``jitter``, ``wear_ber``, ``wear_fail``,
        ``pe_limit``, ``ecc``, ``retries``, ``retry_scale``, ``silent``) or
        full field names.

        >>> FaultPlan.parse("seed=3,ber=5e-5").read_ber
        5e-05
        """
        keys = {field: (field, cast) for field, cast in _SPEC_KEYS.values()}
        keys.update(_SPEC_KEYS)
        kwargs: dict[str, object] = {}
        for key, raw in split_spec(spec, "fault").items():
            if key not in keys:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise ValueError(f"unknown fault spec key {key!r}; known: {known}")
            field, cast = keys[key]
            if field in kwargs:   # a short name and its field name are one key
                raise ValueError(f"duplicate fault spec key {key!r}")
            try:
                kwargs[field] = _spec_int(raw) if cast is int else cast(raw)
            except ValueError as exc:
                raise ValueError(f"bad value {raw!r} for fault key {key!r}") from exc
        return FaultPlan(**kwargs)


@dataclass
class FaultStats:
    """Observable outcome counters of one device's fault injector."""

    bit_errors_injected: int = 0
    bits_corrected: int = 0
    pages_corrected: int = 0
    read_retries: int = 0
    retry_recoveries: int = 0
    uncorrectable_reads: int = 0
    silent_corruptions: int = 0
    checksum_mismatches: int = 0
    checksum_recoveries: int = 0
    program_failures: int = 0
    erase_failures: int = 0
    blocks_retired: int = 0


class FaultInjector:
    """Runtime fault state for one :class:`~repro.flash.device.FlashDevice`.

    All randomness flows through one seeded generator consumed in operation
    order, so a fixed (plan, workload) pair replays identically.  Zero-rate
    paths never touch the generator, which keeps a zero plan bit-identical
    to no plan at all.
    """

    def __init__(self, plan: FaultPlan, device) -> None:
        self.plan = plan
        self.device = device
        self.stats = FaultStats()
        self._rng = np.random.default_rng(plan.seed)

    # -------------------------------------------------------------- read path

    def _effective_ber(self, block: int) -> float:
        ber = self.plan.read_ber
        if self.plan.wear_ber_scale:
            ber *= 1.0 + self.plan.wear_ber_scale * self.device.erase_counts[block]
        return min(ber, 0.5)

    def filter_read_batch(self, addresses, pages: list) -> list:
        """Inject bit errors into the pages of one read; recover via
        ECC/retries.

        ``addresses`` holds each page's ``(block, page)``.  Returns the
        pages — functionally intact on recovery, possibly corrupted under
        ``silent_corruption_p`` — or raises :class:`FlashUncorrectableError`.
        """
        if not self.plan.injects_read_faults or not pages:
            return pages
        p = [self._effective_ber(block) for block, _page in addresses]
        errs = self._rng.binomial([len(d) * 8 for d in pages], p)
        self.stats.bit_errors_injected += int(errs.sum())
        t = self.plan.ecc_correctable_bits
        corrected = (errs > 0) & (errs <= t)
        self.stats.bits_corrected += int(errs[corrected].sum())
        self.stats.pages_corrected += int(corrected.sum())
        bad = np.flatnonzero(errs > t)
        if len(bad) == 0:
            return pages
        out = list(pages)
        for i in bad:
            block, page = addresses[int(i)]
            out[int(i)] = self._retry_page(block, page, pages[int(i)],
                                           p[int(i)], int(errs[int(i)]))
        return out

    def _retry_page(self, block: int, page: int, data, base_p: float, n: int):
        """Read-retry escalation after ECC is exceeded on a page read."""
        plan = self.plan
        nbits = len(data) * 8
        for attempt in range(1, plan.read_retry_limit + 1):
            self.stats.read_retries += 1
            self._charge_retry(len(data))
            retry_p = min(base_p * plan.retry_ber_scale ** attempt, 0.5)
            n = int(self._rng.binomial(nbits, retry_p))
            self.stats.bit_errors_injected += n
            if n <= plan.ecc_correctable_bits:
                self.stats.retry_recoveries += 1
                if n:
                    self.stats.bits_corrected += n
                    self.stats.pages_corrected += 1
                return data
        if plan.silent_corruption_p > 0 and \
                float(self._rng.random()) < plan.silent_corruption_p:
            self.stats.silent_corruptions += 1
            return self._corrupt(data, n)
        self.stats.uncorrectable_reads += 1
        raise FlashUncorrectableError(
            f"uncorrectable read at ({block}, {page}): {n} bit errors exceed "
            f"ECC t={plan.ecc_correctable_bits} after {plan.read_retry_limit} "
            f"read-retries", block=block, page=page)

    def _charge_retry(self, raw_bytes: int) -> None:
        """One read-retry is a full extra page access: latency + transfer."""
        device = self.device
        nbytes = int(raw_bytes * device.traffic_scale)
        bw = device.profile.flash_read_bw / device.geometry.channels
        device.clock.charge(
            "flash", device.profile.flash_read_latency_s + nbytes / bw,
            nbytes=nbytes)

    def _corrupt(self, data, n_errors: int) -> bytes:
        """Flip ``n_errors`` (capped) bits — an ECC miscorrection escaping."""
        corrupted = bytearray(data)
        flips = self._rng.integers(0, len(corrupted) * 8,
                                   size=min(max(n_errors, 1), 64))
        for position in flips:
            corrupted[int(position) // 8] ^= 1 << (int(position) % 8)
        return bytes(corrupted)

    # ------------------------------------------------------------- write path

    def first_program_failure(self, block: int, page0: int, count: int) -> int | None:
        """Index (within a program run) of the first injected failure."""
        p = self.plan.program_fail_p
        if p <= 0.0:
            return None
        if self.plan.wear_fail_scale:
            p *= 1.0 + self.plan.wear_fail_scale * self.device.erase_counts[block]
        draws = self._rng.random(count) < min(p, 1.0)
        failed = np.flatnonzero(draws)
        if len(failed) == 0:
            return None
        self.stats.program_failures += 1
        return int(failed[0])

    def erase_fails(self, block: int) -> str | None:
        """Why this erase fails (``"wear"``/``"fault"``), or None."""
        plan = self.plan
        if plan.pe_cycle_limit and \
                self.device.erase_counts[block] >= plan.pe_cycle_limit:
            self.stats.erase_failures += 1
            return "wear"
        p = plan.erase_fail_p
        if p <= 0.0:
            return None
        if plan.wear_fail_scale:
            p *= 1.0 + plan.wear_fail_scale * self.device.erase_counts[block]
        if float(self._rng.random()) < min(p, 1.0):
            self.stats.erase_failures += 1
            return "fault"
        return None

    # ----------------------------------------------------------------- timing

    def jitter_s(self, base_latency_s: float) -> float:
        """Uniform extra latency for one op (0.0 when jitter is disabled)."""
        if self.plan.latency_jitter <= 0.0 or base_latency_s <= 0.0:
            return 0.0
        return base_latency_s * self.plan.latency_jitter * float(self._rng.random())


# --------------------------------------------------------------------------
# file-store checksum verification
# --------------------------------------------------------------------------


def page_crc(data) -> int:
    """CRC-32 of one flushed page (the file stores record this at write)."""
    return zlib.crc32(data)


def verify_pages(pages: list, crcs: list[int], first_page: int, reread,
                 injector: FaultInjector | None, label: str) -> list:
    """Verify freshly-read pages against stored CRCs; re-read mismatches.

    ``reread(page_index)`` must perform a real single-page re-read (charging
    the clock and re-running ECC).  Each failed attempt raises
    :class:`FlashTransientError` internally; the bounded retry loop either
    recovers the page or escalates to :class:`FlashUncorrectableError`.
    Returns the (possibly repaired) page list.
    """
    if injector is None or not crcs:
        return pages
    out = pages
    for offset, data in enumerate(pages):
        index = first_page + offset
        if index >= len(crcs) or zlib.crc32(data) == crcs[index]:
            continue
        injector.stats.checksum_mismatches += 1
        if out is pages:
            out = list(pages)
        out[offset] = _repair_page(reread, index, crcs[index], injector, label)
    return out


def _repair_page(reread, index: int, expected_crc: int,
                 injector: FaultInjector, label: str) -> bytes:
    retries = max(1, injector.plan.read_retry_limit)
    for _attempt in range(retries):
        try:
            data = reread(index)
            if zlib.crc32(data) != expected_crc:
                raise FlashTransientError(
                    f"checksum mismatch on re-read of {label} page {index}")
        except FlashTransientError:
            continue
        injector.stats.checksum_recoveries += 1
        return data
    raise FlashUncorrectableError(
        f"persistent checksum mismatch on {label} page {index} after "
        f"{retries} re-reads")


def error_context(exc: BaseException) -> dict:
    """JSON-safe flash-op context of a taxonomy error.

    Collects whatever structured attributes the raising layer attached —
    device-level block/page addresses, the power-loss op index, the engine's
    superstep and (namespaced) algorithm name — into a plain dict for
    durable failure records (:class:`repro.service.jobs.JobFailure`).
    Absent attributes are simply omitted, so the helper is total over the
    whole taxonomy.
    """
    context: dict = {}
    for attr in ("block", "page", "op_index", "superstep", "algorithm"):
        value = getattr(exc, attr, None)
        if value is not None:
            context[attr] = value
    notes = getattr(exc, "__notes__", None)
    if notes:
        context["notes"] = [str(n) for n in notes]
    return context
