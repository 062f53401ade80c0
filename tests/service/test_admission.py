"""Admission control: bandwidth reservations and per-tenant quotas.

Every case is a table of (job table, tenant asking, expected outcome): the
controller reads who holds what from the :class:`Job` records it is handed.
"""

import pytest

from repro.service import AdmissionController, Job, JobSpec, TenantQuota
from repro.service.admission import (
    ADMITTED,
    QUEUED_DECISION,
    REJECTED_DECISION,
    usage,
)
from repro.service.jobs import DONE, PENDING, QUEUED, REJECTED, RUNNING

BW = 1000.0  # arbitrary device read bandwidth for the unit tests


def run(tenant, state=RUNNING):
    """An analytics job of ``tenant`` in ``state``."""
    return Job(job_id="svc-0", spec=JobSpec(tenant=tenant, kind="pagerank"),
               state=state)


def point(tenant, state=PENDING):
    return Job(job_id="svc-0", spec=JobSpec(tenant=tenant, kind="neighborhood",
                                            params={"v": 0}),
               state=state)


def check(table, method, **quotas):
    """Call controller ``method(tenant, jobs)`` on every row of ``table``."""
    decide = getattr(AdmissionController(BW, quotas), method)
    for jobs, tenant, expected in table:
        assert decide(tenant, jobs) == expected, (jobs, tenant)


def test_two_runs_fit_third_queues():
    # 0.45 reservations: two fit under the channel, the third must wait.
    check([
        ([], "a", ADMITTED),
        ([run("a")], "a", ADMITTED),
        ([run("a"), run("a")], "a", QUEUED_DECISION),
    ], "decide_analytics", a=TenantQuota(max_running=3, max_queued=2))


def test_full_queue_rejects():
    check([
        ([], "a", ADMITTED),
        ([run("a")], "a", QUEUED_DECISION),
        ([run("a"), run("a", QUEUED)], "a", REJECTED_DECISION),
    ], "decide_analytics", a=TenantQuota(max_running=1, max_queued=1))


def test_tenant_running_quota_queues_even_with_bandwidth():
    # Channel has room for a second reservation, but the tenant does not.
    check([
        ([run("a")], "a", QUEUED_DECISION),
        ([run("b")], "a", ADMITTED),
    ], "decide_analytics", a=TenantQuota(max_running=1, max_queued=1))


def test_saturation_is_cross_tenant():
    # Tenant b is within its own quota but the channel is saturated by a and
    # b has no queue slots: rejected.  One run of a leaves b room.
    check([
        ([run("a"), run("a")], "b", REJECTED_DECISION),
        ([run("a")], "b", ADMITTED),
    ], "decide_analytics", a=TenantQuota(max_running=2, max_queued=0),
        b=TenantQuota(max_running=1, max_queued=0))


def test_release_then_promote():
    # A queued run may start once a completion leaves RUNNING: the finished
    # job's reservation is gone because its state changed, nothing else.
    check([
        ([run("a"), run("a"), run("a", QUEUED)], "a", False),
        ([run("a", DONE), run("a"), run("a", QUEUED)], "a", True),
        ([run("a", DONE), run("a"), run("a")], "a", False),
    ], "can_start", a=TenantQuota(max_running=2, max_queued=2))


def test_point_query_quota():
    check([
        ([], "a", ADMITTED),
        ([point("a")], "a", ADMITTED),
        ([point("a"), point("a")], "a", REJECTED_DECISION),
        ([point("a"), point("a", DONE)], "a", ADMITTED),
        ([point("b"), point("b")], "a", ADMITTED),
    ], "decide_point", a=TenantQuota(max_point=2))


def test_point_queries_do_not_reserve_bandwidth():
    pending = [point("a")] * 8 + [point("b")] * 8
    assert usage(pending)[RUNNING] == 0
    check([
        (pending, "a", ADMITTED),
        (pending + [run("b")], "a", ADMITTED),
    ], "decide_analytics")


def test_default_quota_for_unknown_tenant():
    assert AdmissionController(BW).quota_for("anyone") == TenantQuota()
    check([
        ([], "anyone", ADMITTED),
        ([run("anyone")], "anyone", QUEUED_DECISION),
        ([run("anyone"), run("anyone", QUEUED)], "anyone", REJECTED_DECISION),
    ], "decide_analytics")


def test_decide_has_no_side_effects():
    ctrl = AdmissionController(BW, {"a": TenantQuota(max_running=1,
                                                     max_queued=0)})
    jobs = [run("b"), point("a")]
    before = [job.to_dict() for job in jobs]
    assert ctrl.decide_analytics("a", jobs) == ADMITTED
    assert ctrl.decide_analytics("a", jobs) == ADMITTED  # nothing was reserved
    assert ctrl.decide_point("a", jobs) == ADMITTED
    assert [job.to_dict() for job in jobs] == before


@pytest.mark.parametrize("decide,jobs,state,reason", [
    ("analytics", [], RUNNING, ""),
    ("analytics", [run("a")], QUEUED, ""),
    ("analytics", [run("a"), run("a", QUEUED)], REJECTED,
     "flash bandwidth saturated and tenant queue full"),
    ("point", [point("a")] * 8, REJECTED, "tenant point-query quota exceeded"),
], ids=["admitted", "queued", "rejected", "point-rejected"])
def test_admit_records_the_decision_on_the_job(decide, jobs, state, reason):
    ctrl = AdmissionController(BW)
    job = run("a", state=PENDING) if decide == "analytics" else point("a")
    admit = ctrl.admit_analytics if decide == "analytics" else ctrl.admit_point
    decision = admit(job, jobs)
    assert (job.admission, job.state, job.reason) == (decision, state, reason)


def test_zero_running_quota_rejects_at_arrival():
    # Queueing a run that can never start used to spin the service until
    # the device wore out.
    ctrl = AdmissionController(BW, {"a": TenantQuota(max_running=0)})
    job = run("a", state=PENDING)
    assert ctrl.admit_analytics(job, []) == REJECTED_DECISION
    assert job.reason == "tenant quota allows no analytics runs"


@pytest.mark.parametrize("limits", [(-1, 1, 8), (1, -1, 8), (1, 1, -2)])
def test_negative_quota_is_refused(limits):
    with pytest.raises(ValueError, match="must be >= 0"):
        TenantQuota(*limits)
