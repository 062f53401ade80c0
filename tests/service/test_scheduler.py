"""Scheduler end-to-end: demo workload, determinism, crash durability."""

import gc
import weakref

import numpy as np
import pytest

from repro import harness
from repro.flash.faults import CrashPlan
from repro.service import (
    GraphService,
    JobSpec,
    ServiceConfig,
    TenantQuota,
    demo_quotas,
    demo_workload,
    parse_job_spec,
)
from repro.service.admission import usage
from repro.service.jobs import PENDING
from repro.service.scheduler import JOURNAL_FILE


def run_demo(make_service, **kwargs):
    service = make_service(quotas=demo_quotas(), **kwargs)
    service.submit_all(demo_workload())
    return service.run()


# ------------------------------------------------------------------ the demo

def test_demo_workload_completes(make_service):
    report = run_demo(make_service)
    # 2 analytics + 6 point queries complete; 1 submission rejected.
    assert len(report.jobs) == 9
    assert len(report.jobs_by_state("done")) == 8
    assert len(report.jobs_by_state("rejected")) == 1
    assert report.rejections == 1
    rejected = report.jobs_by_state("rejected")[0]
    assert rejected.spec.kind == "bfs" and rejected.spec.tenant == "tB"


def test_demo_trace_shape(make_service):
    report = run_demo(make_service)
    assert len(report.trace) == 10  # 9 jobs + rejection count
    assert report.trace[-1] == "rejections=1"
    assert any("admission=rejected" in line for line in report.trace)
    assert all("checksum=" in line for line in report.trace
               if "state=done" in line)


# -------------------------------------------------------------- determinism

@pytest.mark.parametrize("workers", [2, 4])
def test_trace_bit_identical_across_workers(make_service, workers):
    base = run_demo(make_service, workers=1)
    other = run_demo(make_service, workers=workers)
    assert other.trace == base.trace


def test_trace_bit_identical_under_power_loss(make_service):
    base = run_demo(make_service)
    crashed = run_demo(make_service, crashes=CrashPlan.parse("seed=3,ops=40"))
    assert crashed.crashes.power_losses > 0      # the plan actually fired
    assert crashed.remounts > 0
    assert crashed.trace == base.trace   # ...and left no trace of itself


def test_trace_bit_identical_under_power_loss_with_workers(make_service):
    base = run_demo(make_service)
    crashed = run_demo(make_service, workers=2,
                       crashes=CrashPlan.parse("at=300/1500/4000"))
    assert crashed.crashes.power_losses > 0
    assert crashed.trace == base.trace


def test_power_loss_inside_journal_reload_lands_on_fault_free_trace(
        make_service):
    """Recovery reads flash too: a loss during the reload hook's journal
    read re-enters the one recovery driver and leaves no trace."""
    base = run_demo(make_service)

    def run_counting(at_ops):
        service = make_service(quotas=demo_quotas(),
                               crashes=CrashPlan(at_ops=at_ops))
        service.submit_all(demo_workload())
        reload, entered, completed = service._reload_journal, [], []

        def counting():
            entered.append(service.system.device.crashes.op_index)
            reload()
            completed.append(True)

        service._reload_journal = counting
        return service.run(), entered, completed

    # Op 500 is mid-run (900 ops in all), after the first journal commit.
    _, entered, completed = run_counting((500,))
    assert len(entered) == len(completed) == 1
    # The reload's first flash op is the journal read: crash exactly there.
    report, entered, completed = run_counting((500, entered[0]))
    assert (len(entered), len(completed)) == (2, 1)
    assert report.crashes.power_losses == report.remounts == 2
    assert report.trace == base.trace


def test_adaptive_mode_completes(make_service):
    report = run_demo(make_service, mode="adaptive")
    assert len(report.jobs_by_state("done")) == 8
    assert report.rejections == 1


def test_rerun_is_reproducible(make_service):
    assert run_demo(make_service).trace == run_demo(make_service).trace


# ---------------------------------------------------------------- durability

def test_job_state_survives_in_journal(make_service):
    service = make_service(quotas=demo_quotas())
    service.submit_all(demo_workload())
    report = service.run()
    store = service.system.store
    assert store.exists(JOURNAL_FILE)
    import json

    state = json.loads(bytes(store.read(JOURNAL_FILE)))
    assert state["round"] == report.rounds
    assert len(state["jobs"]) == 9
    done = [j for j in state["jobs"] if j["state"] == "done"]
    assert len(done) == 8


def test_analytics_values_durable_and_crash_invariant(make_service):
    def values_of(report, job_id):
        job = next(j for j in report.jobs if j.job_id == job_id)
        return job.result["checksum"], job.result["values_file"]

    base = run_demo(make_service)
    crashed = run_demo(make_service,
                       crashes=CrashPlan.parse("at=500/2500/6000"))
    assert crashed.crashes.power_losses > 0
    for job_id in ("svc-1", "svc-2"):
        assert values_of(base, job_id) == values_of(crashed, job_id)


def test_job_starting_after_power_loss_keeps_clear_of_resumed_state(
        make_service):
    """A job that first starts after a remount must not be handed the name
    of a resumed job's checkpointed vertex data.  svc-2 names its vertex
    data first and checkpoints it at superstep 2; svc-1 arrives in round 3,
    and the loss lands in that round, so after the remount svc-1 asks for
    the first name, before svc-2 resumes."""
    jobs = ["t1:bfs@3", "t0:pagerank:iters=6"]

    def run(crashes, round_ops=None):
        service = make_service(crashes=crashes)
        service.submit_all(jobs)
        if round_ops is not None:
            run_round = service._run_round

            def counting():
                round_ops.append(service.system.device.crashes.op_index)
                run_round()

            service._run_round = counting
        return service.run()

    base = run(None)
    round_ops = []
    run(CrashPlan(crashes=0), round_ops)
    crashed = run(CrashPlan(at_ops=((round_ops[3] + round_ops[4]) // 2,)))
    assert crashed.crashes.power_losses == 1
    assert crashed.trace == base.trace


def test_vstate_reads_finished_run(make_service, service_graph):
    service = make_service()
    pr = service.submit("t0:pagerank:iters=1")
    service.submit(JobSpec(tenant="t0", kind="vstate",
                           params={"ref": pr, "v": [0, 1, 2]}))
    report = service.run()
    vstate = report.jobs[1]
    assert vstate.state == "done"
    assert vstate.result["vertices"] == [0, 1, 2]
    assert len(vstate.result["values"]) == 3
    # Cross-check against the durable values file.
    ref = report.jobs[0]
    values = service.system.store.read_array(
        ref.result["values_file"], np.dtype(ref.result["dtype"]))
    assert vstate.result["values"] == [float(values[v]) for v in (0, 1, 2)]


def test_vstate_unknown_ref_fails(make_service):
    service = make_service()
    service.submit("t0:vstate:ref=nope,v=0")
    report = service.run()
    job = report.jobs[0]
    assert job.state == "failed"
    assert "unknown ref" in job.reason


def test_vstate_on_rejected_ref_fails(make_service):
    service = make_service(quotas={"t0": TenantQuota(max_running=1,
                                                     max_queued=0)})
    service.submit("t0:pagerank:iters=1")
    service.submit("t0:cc")        # admitted? no — t0 already running
    service.submit("t0:vstate:ref=svc-2,v=0")
    report = service.run()
    assert report.jobs[1].state == "rejected"
    vstate = report.jobs[2]
    assert vstate.state == "failed"
    assert "rejected" in vstate.reason


@pytest.mark.parametrize("jobs", [
    ["t0:vstate:ref=svc-1,v=0"],                              # self-reference
    ["t0:vstate:ref=svc-2,v=0", "t1:vstate:ref=svc-1,v=0"],   # 2-cycle
])
def test_vstate_on_non_analytics_ref_fails_at_once(make_service, jobs):
    """Only analytics runs publish values: a vstate waiting on itself or on
    another vstate used to stay pending until ``max_rounds``."""
    service = make_service()
    service.submit_all(jobs)
    report = service.run()
    assert report.rounds == 1
    for job in report.jobs:
        assert job.state == "failed"
        assert job.reason == (f"ref job {job.spec.params['ref']} is not an "
                              f"analytics run")
        assert usage(service.jobs.values(), job.spec.tenant)[PENDING] == 0


# ------------------------------------------------------------------ arrivals

def test_arrival_rounds_defer_admission(make_service):
    service = make_service(quotas={"t0": TenantQuota(max_running=1,
                                                     max_queued=0)})
    service.submit("t0:pagerank:iters=1")
    # Arrives only after the first run has finished: admitted, not rejected.
    service.submit("t0:bfs@10")
    report = service.run()
    assert [j.state for j in report.jobs] == ["done", "done"]
    assert report.rejections == 0


def test_queued_job_runs_after_release(make_service):
    service = make_service(quotas={"t0": TenantQuota(max_running=1,
                                                     max_queued=1)})
    service.submit("t0:pagerank:iters=1")
    service.submit("t0:bfs")
    report = service.run()
    states = {j.job_id: (j.admission, j.state) for j in report.jobs}
    assert states["svc-1"] == ("admitted", "done")
    assert states["svc-2"] == ("queued", "done")


def test_point_quota_rejection(make_service):
    service = make_service(quotas={"t0": TenantQuota(max_point=1)})
    service.submit("t0:neighborhood:v=0,depth=1")
    service.submit("t0:neighborhood:v=1,depth=1")
    report = service.run()
    assert [j.state for j in report.jobs] == ["done", "rejected"]
    assert "quota" in report.jobs[1].reason


def test_zero_running_quota_rejects_at_arrival(make_service):
    # A run that can never start used to queue forever: the service spun
    # until its own journal writes wore the device out, then shed the job
    # as "device degraded".
    service = make_service(quotas={"t0": TenantQuota(max_running=0)},
                           config=ServiceConfig(max_rounds=50))
    service.submit("t0:pagerank")
    report = service.run()
    job = report.jobs[0]
    assert (job.state, job.reason) == ("rejected",
                                       "tenant quota allows no analytics runs")
    assert report.rounds == 1
    assert report.wear.lifetime_writes_remaining == 1.0


# ------------------------------------------------------------------- parsing

def test_parse_job_spec_forms():
    spec = parse_job_spec("t0:pagerank:iters=3")
    assert spec.tenant == "t0" and spec.kind == "pagerank"
    assert spec.params == {"iters": 3} and spec.at_round == 0
    spec = parse_job_spec("t1:vstate:ref=svc-2,v=0+3+7@4")
    assert spec.params == {"ref": "svc-2", "v": [0, 3, 7]}
    assert spec.at_round == 4


@pytest.mark.parametrize("bad", [
    "noseparator", "t0:unknownkind", "t0:bfs@x", "t0:bfs:rootless",
    "bad tenant:bfs",
])
def test_parse_job_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_job_spec(bad)


def test_namespaced_program_names_are_scoped():
    from repro.algorithms.pagerank import PageRankProgram

    p = PageRankProgram(8).namespaced("svc-3")
    assert p.name.endswith("@svc-3")
    with pytest.raises(ValueError):
        PageRankProgram(8).namespaced("bad label")


def test_service_for_wires_through_config(make_service):
    service = make_service()
    assert isinstance(service, GraphService)
    assert service.system.durable


def test_a_service_cell_frees_its_stack_without_the_cycle_collector(
        service_graph, monkeypatch):
    # Reference counting alone frees the stack run_service_cell built (system,
    # store, FTL, device pages, service) when it returns: nothing in it is
    # held by a reference cycle that waits for the cyclic collector.
    built, make_system = [], harness.make_system

    def recording(*args, **kwargs):
        system = make_system(*args, **kwargs)
        built.append(weakref.ref(system))
        return system
    monkeypatch.setattr(harness, "make_system", recording)
    gc.collect()
    gc.disable()
    try:
        report = harness.run_service_cell(
            "GraFBoost", service_graph, ["tA:pagerank:iters=2", "tB:bfs@1"],
            scale=2.0 ** -16)
        assert len(built) == 1 and built[0]() is None
        assert all(job.state == "done" for job in report.jobs)
    finally:
        gc.enable()
