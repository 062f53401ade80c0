"""Performance substrate: simulated clock, hardware profiles, cost and power models.

Every engine in this reproduction (GraFBoost, GraFSoft and the four baseline
systems) runs *functionally* on a simulated flash device, and every storage or
compute operation charges simulated time to a shared :class:`SimClock`.  The
clock plus the active :class:`HardwareProfile` is what turns counted work into
the execution-time and utilization numbers reported by the benchmark harness.
"""

from repro.perf.clock import SimClock, ResourceUsage
from repro.perf.profiles import (
    HardwareProfile,
    GRAFBOOST,
    GRAFBOOST2,
    GRAFSOFT,
    SERVER_SSD_ARRAY,
    SINGLE_SSD_SERVER,
)
from repro.perf.memory import MemoryTracker, MemoryBudgetExceeded
from repro.perf.power import PowerModel, PowerBreakdown
from repro.perf.report import format_table, normalize_series

__all__ = [
    "SimClock",
    "ResourceUsage",
    "HardwareProfile",
    "GRAFBOOST",
    "GRAFBOOST2",
    "GRAFSOFT",
    "SERVER_SSD_ARRAY",
    "SINGLE_SSD_SERVER",
    "MemoryTracker",
    "MemoryBudgetExceeded",
    "PowerModel",
    "PowerBreakdown",
    "format_table",
    "normalize_series",
]
