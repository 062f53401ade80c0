"""Simulated clock with per-resource busy-time and byte accounting.

The clock is the single source of truth for "how long did this run take" in
the reproduction.  Components charge time against named *resources* (``flash``,
``cpu``, ``accel``, ``dram``, ``net``) and optionally record the number of
bytes moved, which lets the reporting layer compute achieved bandwidth and
utilization exactly the way Table II of the paper does.

Three charging methods exist:

* :meth:`SimClock.charge` — serial work; elapsed time advances by the full
  duration.
* :meth:`SimClock.charge_pool` — work spread over a pool of units; busy time
  accrues the full work while elapsed time advances by its share per unit.
* :meth:`SimClock.charge_background` — work hidden behind other activity;
  busy time accrues, elapsed time does not advance.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Resource names used throughout the reproduction.
FLASH = "flash"
CPU = "cpu"
ACCEL = "accel"
DRAM = "dram"
NET = "net"


@dataclass
class ResourceUsage:
    """Accumulated usage of one named resource."""

    busy_s: float = 0.0
    bytes_moved: int = 0
    ops: int = 0

    def add(self, seconds: float, nbytes: int = 0, ops: int = 1) -> None:
        self.busy_s += seconds
        self.bytes_moved += nbytes
        self.ops += ops


class SimClock:
    """Accumulates simulated elapsed time and per-resource busy time.

    >>> clock = SimClock()
    >>> clock.charge("flash", 0.5, nbytes=1024)
    >>> clock.charge_pool("cpu", 1.0, parallelism=4)
    >>> clock.elapsed_s
    0.75
    >>> clock.usage["cpu"].busy_s
    1.0
    """

    def __init__(self) -> None:
        self.elapsed_s: float = 0.0
        self.usage: dict[str, ResourceUsage] = {}

    def _usage(self, resource: str) -> ResourceUsage:
        if resource not in self.usage:
            self.usage[resource] = ResourceUsage()
        return self.usage[resource]

    def charge(self, resource: str, seconds: float, nbytes: int = 0, ops: int = 1) -> None:
        """Charge serial work: elapsed time advances by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds}")
        self._usage(resource).add(seconds, nbytes, ops)
        self.elapsed_s += seconds

    def charge_background(self, resource: str, seconds: float) -> None:
        """Charge work fully hidden behind other activity (e.g. NAND block
        erases pipelined by the storage device): busy time accrues, elapsed
        time does not advance."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds}")
        self._usage(resource).add(seconds)

    def charge_pool(self, resource: str, work_seconds: float, parallelism: float,
                    nbytes: int = 0) -> None:
        """Charge work spread over a pool of units (threads, sorter instances).

        Busy time accrues the full ``work_seconds`` (unit-seconds, so
        utilization reports busy-unit counts the way Table II reports CPU%),
        while elapsed time advances by ``work_seconds / parallelism``.
        """
        if work_seconds < 0:
            raise ValueError(f"negative charge: {work_seconds}")
        if parallelism <= 0:
            raise ValueError(f"parallelism must be positive, got {parallelism}")
        self._usage(resource).add(work_seconds, nbytes)
        self.elapsed_s += work_seconds / parallelism

    def busy_s(self, resource: str) -> float:
        """Total busy seconds accrued by ``resource`` (0.0 if never charged)."""
        usage = self.usage.get(resource)
        return usage.busy_s if usage else 0.0

    def bytes_moved(self, resource: str) -> int:
        """Total bytes recorded against ``resource``."""
        usage = self.usage.get(resource)
        return usage.bytes_moved if usage else 0

    def utilization(self, resource: str) -> float:
        """Fraction of elapsed time ``resource`` was busy (may exceed 1.0 for
        multi-unit resources like a thread pool if callers charge per-unit)."""
        if self.elapsed_s == 0:
            return 0.0
        return self.busy_s(resource) / self.elapsed_s

    def checkpoint(self) -> "ClockCheckpoint":
        """Snapshot for measuring a sub-interval (e.g. a single superstep)."""
        return ClockCheckpoint(self, self.elapsed_s, {k: v.busy_s for k, v in self.usage.items()})


@dataclass
class ClockCheckpoint:
    """Delta-measurement helper returned by :meth:`SimClock.checkpoint`."""

    clock: SimClock
    start_elapsed: float
    start_busy: dict[str, float] = field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return self.clock.elapsed_s - self.start_elapsed

    def busy_s(self, resource: str) -> float:
        return self.clock.busy_s(resource) - self.start_busy.get(resource, 0.0)
