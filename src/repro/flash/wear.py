"""Flash wear and lifetime accounting.

Flash cells wear out with program/erase cycles (§II-B).  The paper argues
sort-reduce improves flash lifetime by cutting total writes by over 90%
(§V-C.5); this module turns the device's erase/write counters into the
numbers that claim is made of: total bytes written, erase-count distribution,
and write amplification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.device import FlashDevice

#: Device health levels the admission controller reacts to (see
#: :func:`health` and :mod:`repro.service.admission`).
HEALTHY = "healthy"
DEGRADED = "degraded"
CRITICAL = "critical"

#: Rated program/erase cycles of a block.
RATED_PE_CYCLES = 3000

# Thresholds of :func:`health`.  They are deliberately coarse: the level
# must be stable under the small wear differences crash re-execution
# introduces, or scheduler traces would stop being bit-identical across
# crash schedules.
#: ``lifetime_writes_remaining`` at or below this is degraded...
DEGRADED_LIFETIME = 0.5
#: ...and at or below this is critical (device nearly worn out).
CRITICAL_LIFETIME = 0.1
#: Retired bad blocks at or above this count the device as degraded...
DEGRADED_BAD_BLOCKS = 16
#: ...and at or above this as critical.
CRITICAL_BAD_BLOCKS = 64
#: Fraction of nominal bandwidth capacity usable while degraded —
#: reservations shrink with the device instead of overcommitting it.
DEGRADED_CAPACITY_FRACTION = 0.5


@dataclass(frozen=True)
class WearReport:
    """Snapshot of device wear at one point in time."""

    pages_written: int
    blocks_erased: int
    bytes_written: int
    max_erase_count: int
    mean_erase_count: float
    erase_count_stddev: float
    bad_blocks: int = 0

    @staticmethod
    def from_device(device: FlashDevice) -> "WearReport":
        counts = device.erase_counts
        n = len(counts)
        mean = sum(counts) / n if n else 0.0
        var = sum((c - mean) ** 2 for c in counts) / n if n else 0.0
        return WearReport(
            pages_written=device.total_pages_written,
            blocks_erased=device.total_blocks_erased,
            bytes_written=device.total_pages_written * device.geometry.page_bytes,
            max_erase_count=max(counts) if counts else 0,
            mean_erase_count=mean,
            erase_count_stddev=var ** 0.5,
            bad_blocks=device.bad_block_count,
        )

    def wear_evenness(self) -> float:
        """0..1 score: 1.0 means perfectly even wear across blocks.

        Defined as ``1 - stddev / (mean + 1)`` floored at 0, so a device with
        no erases scores 1.0 and heavily skewed wear approaches 0.
        """
        return max(0.0, 1.0 - self.erase_count_stddev / (self.mean_erase_count + 1.0))

    @property
    def lifetime_writes_remaining(self) -> float:
        """Fraction of the rated program/erase budget the most-worn block
        has left."""
        return _lifetime_left(self.max_erase_count)


def lifetime_writes_remaining(device: FlashDevice) -> float:
    """Fraction of the device's rated program/erase budget still unused."""
    return _lifetime_left(max(device.erase_counts) if device.erase_counts else 0)


def _lifetime_left(max_erase_count: int) -> float:
    return max(0.0, 1.0 - max_erase_count / RATED_PE_CYCLES)


def health(lifetime_remaining: float, bad_blocks: int) -> str:
    """Map (lifetime fraction, bad-block count) to a health level.

    The admission controller asks before every analytics decision:
    ``degraded`` shrinks the bandwidth capacity it reserves against (fewer
    concurrent runs fit) and sheds queued load, ``critical`` stops
    admitting analytics entirely.
    """
    if lifetime_remaining <= CRITICAL_LIFETIME or bad_blocks >= CRITICAL_BAD_BLOCKS:
        return CRITICAL
    if lifetime_remaining <= DEGRADED_LIFETIME or bad_blocks >= DEGRADED_BAD_BLOCKS:
        return DEGRADED
    return HEALTHY
