"""Admission control: quotas and flash-bandwidth reservations.

The service's bottleneck is the same one the paper measures: flash channel
bandwidth.  Every admitted analytics run streams edge data and sort-reduce
runs through the device, so each one *reserves* a fixed fraction of
``profile.flash_read_bw`` for its lifetime.  When the reservations would
exceed device bandwidth the run waits in the tenant's queue; when the queue
is full the submission is rejected outright.  Point queries are not
reserved against — they are batched into shared passes (see
:mod:`repro.service.queries`) whose cost is amortized across the batch —
but they do count against a per-tenant outstanding-query quota.

The controller holds configuration only (capacity, quotas, wear probe).
Who holds what is read from the scheduler's journaled job table on every
decision (:func:`usage`): a running job *is* a reservation
and a queued job *is* a queue slot, so reloading the journaled table after
a crash restores every one of them.  Every decision is a pure
function of (quota table, job table, device wear, spec); no clock reads, no
randomness — the same inputs always produce the same decision, which is
what makes scheduler traces bit-identical across worker counts and
crash/resume.

Wear-aware degraded mode: the controller optionally consults a *wear probe*
(``() -> (lifetime_writes_remaining, bad_block_count)``, see
:mod:`repro.flash.wear`).  As the device degrades, the bandwidth capacity
reservations are made against shrinks — fewer concurrent analytics runs fit
— and submissions that would have queued are shed with an explicit
``DEGRADED`` rejection instead of starving admitted work.  A critical
device stops admitting analytics entirely.  Decisions are still journaled
once at arrival and never recomputed, so recovery replays them verbatim
even if wear crossed a threshold in between.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Collection

from repro.flash.wear import (
    CRITICAL,
    DEGRADED,
    DEGRADED_CAPACITY_FRACTION,
    HEALTHY,
    health,
)
from repro.service.jobs import PENDING, QUEUED, REJECTED, RUNNING, Job

#: Fraction of device read bandwidth one analytics run reserves.  0.45 means
#: two concurrent runs fit (0.9) and a third (1.35) saturates the channel —
#: matching the paper's observation that sort-reduce keeps the flash array
#: near peak utilization, so co-running more than ~2 jobs only adds queueing.
ANALYTICS_BW_FRACTION = 0.45

ADMITTED = "admitted"
QUEUED_DECISION = "queued"
REJECTED_DECISION = "rejected"
#: Rejection because the device is degraded/critical, not because quotas or
#: healthy-capacity limits were hit — tenants can tell device trouble apart
#: from their own oversubscription.
DEGRADED_DECISION = "degraded"
#: Not a decision of this controller: the scheduler failed the spec at
#: arrival because it does not fit the graph, so it never asked for quota.
INVALID_DECISION = "invalid"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits; the default is deliberately tight for one node."""

    #: Concurrent analytics runs actually executing.
    max_running: int = 1
    #: Analytics runs allowed to wait for bandwidth (beyond this: reject).
    max_queued: int = 1
    #: Point queries outstanding (pending or batched) at once.
    max_point: int = 8

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0, "
                                 f"got {getattr(self, f.name)}")


DEFAULT_QUOTA = TenantQuota()


def usage(jobs: Collection[Job], tenant: str | None = None) -> Counter:
    """Jobs per state, of ``tenant`` or (None) of every tenant.

    ``[RUNNING]`` counts bandwidth reservations and ``[QUEUED]`` queue
    slots — only analytics runs take either state — and ``[PENDING]``
    outstanding point queries: a control op leaves PENDING at its arrival.
    """
    return Counter(job.state for job in jobs
                   if tenant is None or job.spec.tenant == tenant)


class AdmissionController:
    """Decide admit / queue / reject for each submission.

    Every method takes the job table (``jobs``: the :class:`Job` records of
    every arrived submission) and reads current usage from it.  The
    controller itself has no mutable state beyond the ``wear_probe`` hook.
    """

    def __init__(self, flash_read_bw: float,
                 quotas: dict[str, TenantQuota] | None = None,
                 wear_probe: Callable[[], tuple[float, int]] | None = None):
        self.capacity = float(flash_read_bw)
        self.reservation = ANALYTICS_BW_FRACTION * self.capacity
        self.quotas = dict(quotas or {})
        #: ``() -> (lifetime_writes_remaining, bad_block_count)``; None means
        #: the device is always treated as healthy (the pre-wear behaviour).
        self.wear_probe = wear_probe

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, DEFAULT_QUOTA)

    # ------------------------------------------------------------------ wear

    def wear_level(self) -> str:
        """Current device health level (healthy / degraded / critical)."""
        if self.wear_probe is None:
            return HEALTHY
        lifetime_remaining, bad_blocks = self.wear_probe()
        return health(lifetime_remaining, bad_blocks)

    def effective_capacity(self, level: str | None = None) -> float:
        """Bandwidth capacity reservations are made against, derated by
        device health: degraded shrinks it, critical zeroes it."""
        level = self.wear_level() if level is None else level
        if level == CRITICAL:
            return 0.0
        if level == DEGRADED:
            return self.capacity * DEGRADED_CAPACITY_FRACTION
        return self.capacity

    # ------------------------------------------------------------- decisions

    def can_start(self, tenant: str, jobs: Collection[Job],
                  level: str | None = None) -> bool:
        """Whether one more analytics run of ``tenant`` may execute now:
        within the tenant's running quota, and its reservation fits the
        device's effective capacity on top of every running job's.  The
        one check behind arrival, promotion and retry resumption."""
        return (usage(jobs, tenant)[RUNNING]
                < self.quota_for(tenant).max_running
                and (usage(jobs)[RUNNING] + 1) * self.reservation
                <= self.effective_capacity(level))

    def decide_analytics(self, tenant: str, jobs: Collection[Job]) -> str:
        """Arrival decision for one analytics submission (no side effect)."""
        quota = self.quota_for(tenant)
        if quota.max_running == 0:
            # Could never start: queueing it would only spin the service.
            return REJECTED_DECISION
        level = self.wear_level()
        if self.can_start(tenant, jobs, level):
            return ADMITTED
        if level != HEALTHY:
            # Degraded mode sheds load instead of queueing it: a queue the
            # device can no longer drain would just starve its tenants.
            return DEGRADED_DECISION
        if usage(jobs, tenant)[QUEUED] < quota.max_queued:
            return QUEUED_DECISION
        return REJECTED_DECISION

    def decide_point(self, tenant: str, jobs: Collection[Job]) -> str:
        """Arrival decision for one point query (no side effect)."""
        if usage(jobs, tenant)[PENDING] < self.quota_for(tenant).max_point:
            return ADMITTED
        return REJECTED_DECISION

    # -------------------------------------------------------------- recording

    def admit_analytics(self, job: Job, jobs: Collection[Job]) -> str:
        """Decide an arriving analytics job and record the outcome on it."""
        decision = self.decide_analytics(job.spec.tenant, jobs)
        job.admission = decision
        if decision == ADMITTED:
            job.state = RUNNING
        elif decision == QUEUED_DECISION:
            job.state = QUEUED
        else:
            job.state = REJECTED
            if decision == DEGRADED_DECISION:
                job.reason = "device degraded: analytics admission shed"
            elif self.quota_for(job.spec.tenant).max_running == 0:
                job.reason = "tenant quota allows no analytics runs"
            else:
                job.reason = "flash bandwidth saturated and tenant queue full"
        return decision

    def admit_point(self, job: Job, jobs: Collection[Job]) -> str:
        """Decide an arriving point query and record the outcome on it."""
        decision = self.decide_point(job.spec.tenant, jobs)
        job.admission = decision
        if decision == ADMITTED:
            job.state = PENDING
        else:
            job.state = REJECTED
            job.reason = "tenant point-query quota exceeded"
        return decision
