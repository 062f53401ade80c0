"""Component-level power model reproducing §V-C.6.

The paper reports:

* GraFBoost prototype: ~160 W total, of which ~110 W is the near-idle host
  Xeon; the accelerated storage device accounts for the rest (~50 W).
* Replacing the host with a 30 W wimpy/embedded server halves total power to
  ~80 W without performance loss, because the host does almost no work.
* The FlashGraph setup draws over 410 W: the host under full 3200% CPU load
  plus five SSDs at under 6 W each.

The model composes exactly those terms: host power interpolated between idle
and busy by CPU utilization, the accelerator board when present, and the SSD
array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.profiles import HardwareProfile


@dataclass(frozen=True)
class PowerBreakdown:
    """Average power draw of one run, by component (watts)."""

    host_w: float
    accelerator_w: float
    storage_w: float

    @property
    def total_w(self) -> float:
        return self.host_w + self.accelerator_w + self.storage_w


class PowerModel:
    """Turns a run's CPU utilization into an average power figure.

    ``cpu_utilization`` is expressed the way the paper's Table II reports it:
    as a multiple of one core (e.g. 3200% = 32.0 busy cores).
    """

    def __init__(self, profile: HardwareProfile):
        self.profile = profile

    def average_power(self, cpu_utilization: float, host_idle_w: float | None = None) -> PowerBreakdown:
        """Average power for a run with the given busy-core count.

        ``host_idle_w`` overrides the host's idle floor, which models the
        paper's "wimpy 30 W server" projection for the accelerated system.
        """
        profile = self.profile
        idle = profile.host_idle_w if host_idle_w is None else host_idle_w
        busy_fraction = min(1.0, max(0.0, cpu_utilization / profile.host_cores))
        # Scale the *dynamic* range of the host with load; the idle floor is
        # whatever platform the accelerator is plugged into.
        host = idle + (profile.host_busy_w - profile.host_idle_w) * busy_fraction
        accel = profile.accel_board_w if profile.has_accelerator else 0.0
        storage = profile.ssd_unit_w * profile.ssd_count
        return PowerBreakdown(host_w=host, accelerator_w=accel, storage_w=storage)
