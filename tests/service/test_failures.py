"""Failure domains: per-job fault isolation, deterministic retry/backoff,
deadlines, cancellation, quarantine, and wear-aware degraded admission."""

import pytest

from repro.flash.device import FlashRecoveryExhaustedError
from repro.flash.faults import CrashPlan
from repro.service import (
    TERMINAL_STATES,
    PoisonSpec,
    ServiceConfig,
    TenantQuota,
    demo_quotas,
    demo_workload,
)
from repro.service.admission import usage
from repro.service.jobs import PENDING, QUEUED, RUNNING

# --------------------------------------------------------------- scaffolding

POISONED = "svc-10"   # the tenant-C analytics job the chaos workload poisons


def chaos_quotas():
    quotas = demo_quotas()
    quotas["tC"] = TenantQuota(max_running=1, max_queued=3, max_point=8)
    return quotas


def chaos_workload():
    """Demo workload plus a third tenant exercising every failure path:
    a poisoned analytics job, a deadline-bound queued job, a cancelled
    long run, and a healthy point query that must survive all of it."""
    return demo_workload() + [
        "tC:pagerank:iters=2",           # svc-10: poisoned -> quarantined
        "tC:bfs:deadline=2",             # svc-11: expires while queued
        "tC:pagerank:iters=6@1",         # svc-12: cancelled mid-flight
        "tC:cancel:ref=svc-12@3",        # svc-13: the control op
        "tC:neighborhood:v=1,depth=1",   # svc-14: unaffected bystander
    ]


def poison_config(**kwargs):
    return ServiceConfig(poison={POISONED: PoisonSpec(superstep=1,
                                                      attempts=99)}, **kwargs)


def run_chaos(make_service, poison=True, **kwargs):
    service = make_service(quotas=chaos_quotas(),
                           config=poison_config() if poison
                           else ServiceConfig(), **kwargs)
    service.submit_all(chaos_workload())
    return service, service.run()


# ----------------------------------------------------------- fault isolation

def test_poisoned_job_is_quarantined_others_unaffected(make_service):
    _, clean = run_chaos(make_service, poison=False)
    _, poisoned = run_chaos(make_service, poison=True)
    by_line = dict(zip([line.split()[0] for line in clean.trace], clean.trace))
    for line in poisoned.trace:
        job_id = line.split()[0]
        if job_id == POISONED:
            assert "state=quarantined" in line
            assert "error=FlashUncorrectableError" in line
            continue
        # Every other job's trace line is byte-identical to the fault-free
        # run — one tenant's flash failure is invisible to the rest.
        assert line == by_line.get(job_id, clean.trace[-1])


def test_failure_record_is_typed_and_journaled(make_service):
    service, report = run_chaos(make_service)
    job = next(j for j in report.jobs if j.job_id == POISONED)
    assert job.state == "quarantined"
    assert "retries exhausted" in job.reason
    # Default budget: 2 retries -> 3 attempts, each with a typed record.
    assert job.retries == 2 and len(job.failures) == 3
    for attempt, failure in enumerate(job.failures):
        assert failure["error"] == "FlashUncorrectableError"
        assert failure["superstep"] == 1
        assert failure["attempt"] == attempt
        assert failure["context"]["block"] == 0
    # ...and the journal round-trips the history durably.
    import json

    from repro.service.scheduler import JOURNAL_FILE

    state = json.loads(bytes(service.system.store.read(JOURNAL_FILE)))
    journaled = next(j for j in state["jobs"] if j["job_id"] == POISONED)
    assert journaled["failures"] == job.failures
    assert sum(len(j.failures) for j in report.jobs) >= 3
    assert report.jobs_by_state("quarantined")


def test_retry_resumes_and_matches_fault_free_checksum(make_service):
    def run_one(config):
        service = make_service(config=config)
        service.submit("t0:pagerank:iters=4")
        return service.run().jobs[0]

    base = run_one(ServiceConfig())
    # One failure at superstep 3 (after the superstep-2 checkpoint sealed):
    # the retry resumes from the checkpoint and completes bit-identically.
    retried = run_one(ServiceConfig(
        poison={"svc-1": PoisonSpec(superstep=3, attempts=1)}))
    assert retried.state == "done" and retried.retries == 1
    assert len(retried.failures) == 1
    assert retried.result["checksum"] == base.result["checksum"]
    assert retried.result["supersteps"] == base.result["supersteps"]


def test_backoff_charges_simulated_time(make_service):
    service = make_service(config=ServiceConfig(
        poison={"svc-1": PoisonSpec(superstep=1, attempts=1)}))
    before = service.system.clock.busy_s("cpu")
    service.submit("t0:pagerank:iters=2")
    report = service.run()
    assert sum(j.retries for j in report.jobs) == 1
    assert service.system.clock.busy_s("cpu") > before


# ------------------------------------------------------ quarantine reclaims

def test_quarantine_reclaims_flash_and_quota(make_service):
    service = make_service(config=poison_config())
    service.submit("tC:pagerank:iters=2")   # svc-1... but poison keys svc-10
    service.config.poison = {"svc-1": PoisonSpec(superstep=1, attempts=99)}
    report = service.run()
    assert report.jobs[0].state == "quarantined"
    # Flash: nothing but the graph and the job journal survives — run files,
    # vertex data, checkpoints and values of the quarantined job are gone.
    leftovers = [name for name in service.system.store.list_files()
                 if not name.startswith("graph:") and name != "svc:jobs"]
    assert leftovers == []
    # Quota: the bandwidth reservation was returned.
    assert usage(service.jobs.values())[RUNNING] == 0


def test_quarantine_with_sealed_checkpoint_reclaims_everything(make_service):
    # Fail at superstep 3 so a checkpoint (superstep 2) exists at abandon
    # time; retries keep failing, and the final quarantine must reach the
    # checkpoint-referenced vertex files too.
    service = make_service(config=ServiceConfig(
        poison={"svc-1": PoisonSpec(superstep=3, attempts=99)}))
    service.submit("t0:pagerank:iters=4")
    report = service.run()
    assert report.jobs[0].state == "quarantined"
    leftovers = [name for name in service.system.store.list_files()
                 if not name.startswith("graph:") and name != "svc:jobs"]
    assert leftovers == []


# One case per way an analytics job ends: (jobs, config, the job's end state).
ENDINGS = {
    "done": (["t0:cc"], ServiceConfig(), "done"),
    "deadline": (["t0:pagerank:iters=8,deadline=2"], ServiceConfig(),
                 "quarantined"),
    "cancel": (["t0:pagerank:iters=8", "t0:cancel:ref=svc-1@1"],
               ServiceConfig(), "cancelled"),
    "retries_exhausted": (["t0:pagerank:iters=4"], ServiceConfig(
        poison={"svc-1": PoisonSpec(superstep=3, attempts=99)}), "quarantined"),
    "round_limit": (["t0:cc"], ServiceConfig(max_rounds=3), "quarantined"),
}


@pytest.mark.parametrize("ending", ENDINGS)
def test_every_ending_gives_the_jobs_flash_back(make_service, ending):
    # In the done case finish() has cleared the checkpoint, so only the
    # finished run still names its vertex data.
    jobs, config, state = ENDINGS[ending]
    service = make_service(config=config)
    service.submit_all(jobs)
    report = service.run()
    assert report.jobs[0].state == state
    kept = ["svc:jobs"] + [f"svc:{job.job_id}:values"
                           for job in report.jobs_by_state("done")
                           if job.is_analytics]
    assert [name for name in service.system.store.list_files()
            if not name.startswith("graph:")] == sorted(kept)


# ------------------------------------------------------------------ deadlines

def test_deadline_expires_running_analytics(make_service):
    service = make_service()
    service.submit("t0:pagerank:iters=8,deadline=2")
    report = service.run()
    job = report.jobs[0]
    assert job.state == "quarantined"
    assert job.reason == "deadline of 2 rounds exceeded"
    assert usage(service.jobs.values())[RUNNING] == 0
    leftovers = [name for name in service.system.store.list_files()
                 if not name.startswith("graph:") and name != "svc:jobs"]
    assert leftovers == []


def test_deadline_fails_stuck_point_query(make_service):
    service = make_service()
    service.submit("t0:pagerank:iters=6")
    # vstate blocks on the running job; its deadline fires first.
    service.submit("t0:vstate:ref=svc-1,v=0,deadline=1")
    report = service.run()
    vstate = report.jobs[1]
    assert vstate.state == "failed"
    assert "deadline of 1 rounds exceeded" in vstate.reason
    assert report.jobs[0].state == "done"   # the analytics job is untouched


def test_no_deadline_means_no_expiry(make_service):
    service = make_service()
    service.submit("t0:pagerank:iters=6")
    report = service.run()
    assert report.jobs[0].state == "done"


# ---------------------------------------------------------------- cancellation

def test_cancel_running_job(make_service):
    service = make_service()
    service.submit("t0:pagerank:iters=8")
    service.submit("t0:cancel:ref=svc-1@1")
    report = service.run()
    target, cancel = report.jobs
    assert target.state == "cancelled"
    assert target.reason == "cancelled by svc-2"
    assert cancel.state == "done"
    assert cancel.result["outcome"] == "cancelled"
    assert usage(service.jobs.values())[RUNNING] == 0
    leftovers = [name for name in service.system.store.list_files()
                 if not name.startswith("graph:") and name != "svc:jobs"]
    assert leftovers == []


def test_cancel_queued_job_releases_queue_slot(make_service):
    quotas = {"t0": TenantQuota(max_running=1, max_queued=1)}
    service = make_service(quotas=quotas)
    service.submit("t0:pagerank:iters=6")
    service.submit("t0:pagerank:iters=6")      # queued behind the first
    service.submit("t0:cancel:ref=svc-2@1")
    report = service.run()
    assert report.jobs[0].state == "done"
    assert report.jobs[1].state == "cancelled"
    assert usage(service.jobs.values(), "t0")[QUEUED] == 0


def test_cancel_before_arrival_leaves_tombstone(make_service):
    service = make_service()
    service.submit("t0:bfs@5")
    service.submit("t0:cancel:ref=svc-1@1")
    report = service.run()
    target, cancel = report.jobs
    assert target.state == "cancelled"
    assert "before arrival" in target.reason
    assert cancel.result["outcome"] == "cancelled"


def test_cancel_finished_job_is_noop(make_service):
    service = make_service()
    service.submit("t0:neighborhood:v=0,depth=1")
    service.submit("t0:cancel:ref=svc-1@2")
    report = service.run()
    assert report.jobs[0].state == "done"
    assert report.jobs[1].result["outcome"] == "noop"


def test_cancel_unknown_ref_fails(make_service):
    service = make_service()
    service.submit("t0:cancel:ref=nope")
    report = service.run()
    assert report.jobs[0].state == "failed"
    assert "unknown ref" in report.jobs[0].reason


def test_cancel_cross_tenant_is_refused(make_service):
    service = make_service()
    service.submit("t0:pagerank:iters=4")
    service.submit("t1:cancel:ref=svc-1@1")
    report = service.run()
    assert report.jobs[0].state == "done"       # untouched
    cancel = report.jobs[1]
    assert cancel.state == "failed"
    assert "belongs to tenant" in cancel.reason


# ------------------------------------------------------- degraded admission

def test_degraded_device_shrinks_concurrency(make_service):
    service = make_service(quotas={"t0": TenantQuota(max_running=2,
                                                     max_queued=2)})
    service.controller.wear_probe = lambda: (0.3, 0)   # degraded lifetime
    service.submit("t0:pagerank:iters=1")
    service.submit("t0:pagerank:iters=1")
    report = service.run()
    # Healthy capacity fits two 0.45 reservations; degraded capacity (0.5x)
    # fits only one — the second submission is shed, not queued.
    first, second = report.jobs
    assert first.state == "done"
    assert second.state == "rejected" and second.admission == "degraded"
    assert "degraded" in second.reason
    assert sum(1 for j in report.jobs if j.admission == "degraded") == 1


def test_critical_device_stops_admitting_analytics(make_service):
    service = make_service()
    service.controller.wear_probe = lambda: (0.05, 0)  # critical lifetime
    service.submit("t0:pagerank:iters=1")
    service.submit("t0:neighborhood:v=0,depth=1")
    report = service.run()
    analytics, point = report.jobs
    assert analytics.state == "rejected" and analytics.admission == "degraded"
    assert point.state == "done"    # point queries are not derated
    assert sum(1 for j in report.jobs if j.admission == "degraded") == 1


def test_degrading_device_sheds_queued_load(make_service):
    service = make_service(quotas={"t0": TenantQuota(max_running=1,
                                                     max_queued=1)})
    # Healthy at admission time, degraded from round 1 on: the queued run
    # is shed by promotion instead of waiting for bandwidth forever.
    service.controller.wear_probe = (
        lambda: (1.0, 0) if service.round < 1 else (0.3, 64))
    service.submit("t0:pagerank:iters=4")
    service.submit("t0:bfs")
    report = service.run()
    queued = report.jobs[1]
    assert queued.admission == "degraded" and queued.state == "rejected"
    assert "queued load shed" in queued.reason
    assert usage(service.jobs.values(), "t0")[QUEUED] == 0


# ------------------------------------------------- invariants after each round

def check_invariants(service):
    """Quota bounds and reservation conservation over the job table, and a
    journal that reloads — twice — into the very same table and trace."""
    ctrl, jobs = service.controller, service.jobs.values()
    for tenant in {job.spec.tenant for job in jobs}:
        held, quota = usage(jobs, tenant), ctrl.quota_for(tenant)
        assert held[RUNNING] <= quota.max_running
        assert held[QUEUED] <= quota.max_queued
        assert held[PENDING] <= quota.max_point
    assert usage(jobs)[RUNNING] * ctrl.reservation <= ctrl.effective_capacity()
    replica = service.system.service_for(service.graph, service.num_vertices,
                                         config=service.config,
                                         quotas=ctrl.quotas)
    for _ in range(2):
        replica._reload_journal()
        assert replica.round == service.round
        assert ({jid: job.to_dict() for jid, job in replica.jobs.items()}
                == {jid: job.to_dict() for jid, job in service.jobs.items()})
        assert replica.trace() == service.trace()


def degrade_from_round_1(service):
    # Degraded, not critical: wear never preempts a running job, so only a
    # device whose derated capacity still holds the running set keeps
    # reservations within effective capacity.
    return lambda: (1.0, 0) if service.round < 1 else (0.3, 0)


@pytest.mark.parametrize("quotas,jobs,poison,wear", [
    (demo_quotas(), demo_workload(), {}, None),
    (chaos_quotas(), chaos_workload(),
     {POISONED: PoisonSpec(superstep=1, attempts=99)}, None),
    ({"t0": TenantQuota(max_running=1, max_queued=2)},
     ["t0:pagerank:iters=6", "t0:pagerank:iters=6", "t0:bfs:deadline=2",
      "t0:cancel:ref=svc-2@1", "t0:cancel:ref=svc-1@2",
      "t0:vstate:ref=svc-1,v=0,deadline=1"], {}, None),
    ({"t0": TenantQuota(max_running=1, max_queued=1)},
     ["t0:pagerank:iters=4", "t0:bfs", "t0:cc@2"], {}, degrade_from_round_1),
], ids=["demo", "poison-quarantine", "cancel-deadline", "degraded-shed"])
def test_invariants_hold_after_every_round(make_service, quotas, jobs, poison,
                                           wear):
    service = make_service(quotas=quotas,
                           config=ServiceConfig(poison=dict(poison)))
    if wear is not None:
        service.controller.wear_probe = wear(service)
    service.submit_all(jobs)
    rounds, one_round = [], service._run_round

    def checked_round():
        one_round()
        check_invariants(service)
        rounds.append(service.round)

    service._run_round = checked_round
    report = service.run()
    assert rounds == list(range(1, report.rounds + 1))
    assert all(job.state in TERMINAL_STATES for job in report.jobs)


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize("mode", ["sortreduce", "adaptive"])
def test_chaos_trace_bit_identical_across_workers(make_service, mode):
    # The determinism contract is per-mode: within one execution mode the
    # full trace — states, retries, errors, checksums, outcomes — is
    # bit-identical for any worker count, failures included.
    _, base = run_chaos(make_service, workers=1, mode=mode)
    _, other = run_chaos(make_service, workers=4, mode=mode)
    assert other.trace == base.trace
    assert "state=quarantined" in next(line for line in base.trace
                                       if line.startswith(POISONED))


@pytest.mark.parametrize("plan", ["seed=3,ops=40", "at=300/1500/4000"])
def test_chaos_trace_bit_identical_under_power_loss(make_service, plan):
    _, base = run_chaos(make_service)
    _, crashed = run_chaos(make_service, crashes=CrashPlan.parse(plan))
    assert crashed.crashes.power_losses > 0
    assert crashed.trace == base.trace


@pytest.mark.parametrize("plan", ["seed=3,ops=40", "at=300/1500/4000",
                                  "at=500/2500/6000"])
def test_power_loss_leaves_no_flash_behind(make_service, plan):
    """An attempt killed before its first checkpoint leaves vertex data that
    no checkpoint names; the job's end reclaims it all the same."""
    service, report = run_chaos(make_service, crashes=CrashPlan.parse(plan))
    assert report.crashes.power_losses > 0
    kept = ["svc:jobs"] + [f"svc:{job.job_id}:values"
                           for job in report.jobs_by_state("done")
                           if job.is_analytics]
    assert [name for name in service.system.store.list_files()
            if not name.startswith("graph:")] == sorted(kept)


def test_chaos_rerun_is_reproducible(make_service):
    assert run_chaos(make_service)[1].trace == run_chaos(make_service)[1].trace


# ----------------------------------------------------------- typed give-up

def test_recovery_exhaustion_is_typed_with_plan(make_service):
    # Op 300 fires mid-run (after graph load) on the sortreduce path; with a
    # zero remount budget the very first recovery attempt must give up with
    # the typed error.  Mode/workers are pinned — other modes reach op 300
    # at different points (or not at all on this tiny workload).
    crashes = CrashPlan.parse("at=300")
    service = make_service(crashes=crashes, workers=1, mode="sortreduce")
    service.system.max_remounts = 0
    service.submit("t0:pagerank:iters=2")
    with pytest.raises(FlashRecoveryExhaustedError) as excinfo:
        service.run()
    assert "no forward progress" in str(excinfo.value)
    assert excinfo.value.plan is not None


def test_bad_root_fails_only_its_own_job(make_service, service_graph):
    # A BFS root past the last vertex used to raise out of the round and
    # abort the whole service: no tenant's job finished.
    n = service_graph.num_vertices
    quotas = {"t1": TenantQuota(max_running=1, max_queued=0, max_point=8)}
    good = ["t0:pagerank:iters=2", "t1:neighborhood:v=1,depth=1", "t1:cc@1"]
    clean = make_service(quotas=quotas)
    clean.submit_all(good)
    clean_report = clean.run()
    service = make_service(quotas=quotas)
    service.submit_all(good[:2] + [f"t1:bfs:root={n + 99}@1"] + good[2:])
    report = service.run()
    bad = report.jobs[2]
    assert (bad.admission, bad.state) == ("invalid", "failed")
    assert bad.reason == (f"invalid query: ValueError: root {n + 99} out of "
                          f"range [0, {n})")
    # It held no reservation: tenant t1 may run one job and queue none, and
    # its cc, arriving in the same round right behind it, still ran.  Every
    # other job's line (job ids aside) is the clean run's.
    assert [line.partition(" ")[2] for line in report.trace[:2] + report.trace[3:]] \
        == [line.partition(" ")[2] for line in clean_report.trace]
    assert clean_report.jobs_by_state("done") == clean_report.jobs


def test_a_limit_past_the_last_round_fails_only_its_own_job():
    # The PageRank used to run until the service raised "exceeded 40
    # rounds", which lost the BFS result finished in round 7.
    from repro.graph.datasets import build_graph
    from repro.harness import run_service_cell

    scale = 2.0 ** -16
    graph = build_graph("kron28", scale)
    report = run_service_cell("GraFBoost", graph,
                              ["tA:bfs", "tB:pagerank:iters=60"], scale=scale,
                              config=ServiceConfig(max_rounds=40))
    bfs, pagerank = report.jobs
    assert bfs.state == "done" and report.rounds < 40
    assert (pagerank.admission, pagerank.state) == ("invalid", "failed")
    assert pagerank.reason == ("invalid query: ValueError: 60 supersteps "
                               "from round 0 run past the last round 39")
    # A limit that ends exactly in the last round is admitted.
    report = run_service_cell("GraFBoost", graph, ["tB:pagerank:iters=3@1"],
                              scale=scale, config=ServiceConfig(max_rounds=4))
    assert report.jobs[0].state == "done" and report.rounds == 4


def test_the_round_limit_ends_only_the_jobs_still_live():
    # BFS and CC take 6 supersteps each; CC arrives in round 2, so it is
    # still running when round 6, the last, ends.  The finished jobs'
    # results must come back all the same.
    from repro.graph.datasets import build_graph
    from repro.harness import run_service_cell

    scale = 1.6e-5
    graph = build_graph("twitter", scale)
    jobs = ["tA:bfs", "tB:cc@2", "tA:neighborhood:v=0,depth=1@1"]
    full = run_service_cell("GraFBoost", graph, jobs, scale=scale,
                            config=ServiceConfig(max_rounds=8))
    assert [job.state for job in full.jobs] == ["done"] * 3
    report = run_service_cell("GraFBoost", graph, jobs, scale=scale,
                              config=ServiceConfig(max_rounds=7))
    assert report.rounds == 7
    assert [report.trace[0], report.trace[2]] == [full.trace[0], full.trace[2]]
    assert report.trace[1] == ("svc-2 tenant=tB kind=cc admission=admitted "
                               "state=quarantined reason='round limit 7 reached'")


# --------------------------------------------------------- point-query domain

def test_invalid_point_query_fails_alone(make_service, service_graph):
    service = make_service()
    bad_vertex = service_graph.num_vertices + 7
    service.submit(f"t0:neighborhood:v={bad_vertex},depth=1")
    service.submit("t1:neighborhood:v=0,depth=1")
    report = service.run()
    bad, good = report.jobs
    assert bad.state == "failed" and "invalid query" in bad.reason
    assert good.state == "done"


@pytest.mark.parametrize("v,error", [
    ("999999", "ValueError: vertex 999999 out of range"),
    ("-1", "ValueError: vertex -1 out of range"),
    ("abc", "TypeError: vertex 'abc' is not an integer"),
    ("0+x", "TypeError: vertex 'x' is not an integer"),
])
def test_invalid_vstate_fails_alone(make_service, v, error):
    # A vstate read of a vertex outside the values file used to abort the
    # whole service, and v=abc read the vertices 'a', 'b' and 'c'.
    service = make_service()
    service.submit_all(["tA:pagerank:iters=1", f"tB:vstate:ref=svc-1,v={v}@3",
                        "tA:neighborhood:v=0,depth=1@4"])
    report = service.run()
    pagerank, bad, good = report.jobs
    assert bad.state == "failed"
    assert bad.reason.startswith(f"invalid query: {error}")
    assert pagerank.state == good.state == "done"
