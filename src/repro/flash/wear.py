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
#: :class:`DegradePolicy` and :mod:`repro.service.admission`).
HEALTHY = "healthy"
DEGRADED = "degraded"
CRITICAL = "critical"


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


def lifetime_writes_remaining(device: FlashDevice, rated_pe_cycles: int = 3000) -> float:
    """Fraction of the device's rated program/erase budget still unused."""
    if rated_pe_cycles <= 0:
        raise ValueError(f"rated_pe_cycles must be positive, got {rated_pe_cycles}")
    worst = max(device.erase_counts) if device.erase_counts else 0
    return max(0.0, 1.0 - worst / rated_pe_cycles)


@dataclass(frozen=True)
class DegradePolicy:
    """Thresholds mapping device wear onto a service health level.

    The admission controller consults :meth:`classify` before every
    analytics decision: ``degraded`` shrinks the bandwidth capacity it
    reserves against (fewer concurrent runs fit) and sheds queued load,
    ``critical`` stops admitting analytics entirely.  Thresholds are
    deliberately coarse — classification must be stable under the small
    wear differences crash re-execution introduces, or scheduler traces
    would stop being bit-identical across crash schedules.
    """

    #: ``lifetime_writes_remaining`` at or below this is degraded.
    degraded_lifetime: float = 0.5
    #: ...and at or below this is critical (device nearly worn out).
    critical_lifetime: float = 0.1
    #: Retired bad blocks at or above this count the device as degraded.
    degraded_bad_blocks: int = 16
    #: ...and at or above this as critical.
    critical_bad_blocks: int = 64
    #: Fraction of nominal bandwidth capacity usable while degraded —
    #: reservations shrink with the device instead of overcommitting it.
    degraded_capacity_fraction: float = 0.5

    def classify(self, lifetime_remaining: float, bad_blocks: int) -> str:
        """Map (lifetime fraction, bad-block count) to a health level."""
        if (lifetime_remaining <= self.critical_lifetime
                or bad_blocks >= self.critical_bad_blocks):
            return CRITICAL
        if (lifetime_remaining <= self.degraded_lifetime
                or bad_blocks >= self.degraded_bad_blocks):
            return DEGRADED
        return HEALTHY
