"""The outcome of one run: the record the harness and the baselines return.

The paper reports every cell of §V as a few numbers — time, flash traffic,
memory and supersteps (Fig 12–15, Table II).  :class:`WorkloadResult` holds
them for a GraFBoost-family engine and a baseline model alike.  The fault,
crash and wear figures are the objects that did the counting, not copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from repro.flash.faults import CrashStats, FaultStats
    from repro.flash.wear import WearReport


@dataclass
class WorkloadResult:
    """One cell of an evaluation matrix.

    A DNF (out of memory, id space or patience cutoff) has
    ``completed=False`` and ``elapsed_s = NaN``, like the missing bars and
    ``*`` marks of the figures.
    """

    system: str
    algorithm: str
    dataset: str
    completed: bool
    elapsed_s: float
    supersteps: int = 0
    traversed_edges: int = 0
    cpu_busy_s: float = 0.0
    flash_bytes: int = 0
    memory_bytes: int = 0
    dnf_reason: str = ""
    # Final vertex values: a baseline's answer, and a GraFBoost-family
    # run's under a crash plan (for divergence checks against an
    # uninterrupted run).
    final_values: np.ndarray | None = None
    # Per-superstep execution modes (GraFBoost-family engines only; the
    # adaptive decision trace — constant for static modes).  Multi-phase
    # algorithms (bc) concatenate all phases; ``mode_phases`` labels the
    # segments, e.g. ``[("forward", 4), ("backtrace", 3)]``.
    mode_trace: list[str] | None = None
    mode_phases: list[tuple[str, int]] | None = None
    # Per-superstep metrics of the (forward) run — what ``--timeline``
    # renders.  Carried on the result so the timeline path goes through the
    # same fault/crash/sanitize wiring as every other cell.
    superstep_metrics: list | None = None
    # The simulated device's injector counters (None without a fault or
    # crash plan), the stack's remounts and the device's wear at the end of
    # the run: GraFBoost-family stacks only, the baseline models have no
    # simulated device.
    faults: FaultStats | None = None
    crashes: CrashStats | None = None
    remounts: int = 0
    wear: WearReport | None = None

    @property
    def time_or_nan(self) -> float:
        return self.elapsed_s if self.completed else float("nan")

    @property
    def mteps(self) -> float:
        if not self.completed or self.elapsed_s <= 0:
            return 0.0
        return self.traversed_edges / self.elapsed_s / 1e6
