"""The deterministic service scheduler: many jobs, one sim clock.

:class:`GraphService` turns one assembled system stack into a multi-tenant
analytics service.  Clients :meth:`~GraphService.submit` jobs (analytics
runs and point queries, tagged with an arrival round); :meth:`~GraphService.run`
then drives everything to completion in discrete *rounds*:

1. **Arrivals** — submissions tagged with this round get their admission
   decision (admit / queue / reject; see :mod:`repro.service.admission`).
2. **Analytics steps** — every running job advances exactly one superstep,
   in job-id order, via the engine's cooperative :class:`EngineRun` handle.
   A job that completes writes its vertex values to a durable result file;
   leaving RUNNING frees its bandwidth reservation.
3. **Promotion** — queued runs start executing if a completion freed
   bandwidth.
4. **Point batch** — all outstanding point queries advance together in one
   shared batch (:func:`repro.service.queries.run_point_batch`); ``vstate``
   reads resolve once their referenced job is done.
5. **Journal** — the whole job table is published to flash through
   :func:`repro.flash.publish.publish`, the staging → seal → atomic-rename
   helper the engine checkpoint uses, so job state survives power loss.

Every decision above is a pure function of (submission list, journaled job
table): no wall clock, no randomness, no dependence on absolute sim time.
The job table is also the only record of who holds what: admission counts
running, queued and pending jobs in it on every decision, so changing a
job's state is all it takes to take or give back a reservation, a queue
slot or a point-query slot.  Combined with the engine's own determinism
across worker counts and crash/resume, the service's
:meth:`~GraphService.trace` is bit-identical across ``--workers`` and
power-loss injection — absolute round/time quantities are deliberately
excluded, because crash re-execution legitimately repeats work.

Every round runs under :meth:`SystemConfig.run_recovering`: on a power loss
the driver remounts the store (charging real recovery time) and calls the
service's reload hook, which reloads the journal — and with the job table,
every reservation that was committed — and drops the dead engines.  They
are re-created with ``auto_resume=True`` so each interrupted run continues
from its own checkpoint: every file a job's run writes, checkpoint pair
included, is named under its job-scoped program (``<kind>@<job-id>/``).

**Failure domains.**  A :class:`FlashError` raised inside one job's
superstep (uncorrectable ECC, out-of-space, bad-block exhaustion) is *that
job's* failure, never the service's: the scheduler records a typed
:class:`~repro.service.jobs.JobFailure` on the job (journaled durably),
abandons the dead attempt back to its last sealed checkpoint, and moves
the job out of RUNNING, which returns its bandwidth reservation; every
other job's round proceeds exactly as if the failed job had completed its
reservation early.  Failed analytics jobs retry up to their budget with
exponential backoff — backoff rounds are a pure function of journaled
state (retry count), and the backoff *time* is charged to the sim clock —
resuming from the last checkpoint.  Jobs that exhaust retries or outlive
their ``deadline_rounds`` are *quarantined*, and a tombstone stays in the
journal.  ``config.max_rounds`` is the last deadline of all: a job still
live when the last round ends expires by the same rule.  A tenant can also
tear a job down explicitly with a ``cancel`` control op.  Every ending
after arrival goes through one transition, :meth:`GraphService._end`,
which sweeps an analytics job's whole flash footprint (run files, vertex
data of every attempt, checkpoint) with the engine's one
:func:`~repro.engine.engine.purge`; a DONE job keeps only its published
values file.  A power loss deliberately stays outside all
of this — it kills the whole host, not one job, and only the recovery
driver may observe it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import ANALYTICS
from repro.engine.engine import purge
from repro.flash.device import (
    FlashError,
    FlashUncorrectableError,
)
from repro.flash.faults import CrashStats, FaultStats, error_context
from repro.flash.publish import discard, publish
from repro.flash.store import FileStore
from repro.flash.wear import HEALTHY, WearReport, lifetime_writes_remaining
from repro.service.admission import (
    ADMITTED,
    DEGRADED_DECISION,
    INVALID_DECISION,
    AdmissionController,
    TenantQuota,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    QUEUED,
    REJECTED,
    RETRYING,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobFailure,
    JobSpec,
    parse_job_spec,
)
from repro.service.queries import checksum, read_vstate, run_point_batch, vstate_vertices

JOURNAL_FILE = "svc:jobs"
JOURNAL_STAGING = "svc:jobs:staging"
JOURNAL_VERSION = 1

#: Per-job engine checkpoint cadence (supersteps); every admitted run is
#: crash→remount→resume durable.
CHECKPOINT_EVERY = 2
#: Retry budget of a failed analytics job, unless its ``retries=N`` spec
#: param sets its own.
MAX_RETRIES = 2
#: Base backoff in scheduler rounds; attempt ``k`` waits
#: ``RETRY_BACKOFF_ROUNDS << k`` rounds before re-admission.
RETRY_BACKOFF_ROUNDS = 1
#: Simulated seconds charged to the shared clock per failed attempt
#: (scaled ``<< attempt``) — backoff costs real simulated time.
RETRY_BACKOFF_S = 0.05


def _values_files(job_id: str) -> tuple[str, str]:
    """(staging, final) names of a finished job's vertex-values file."""
    return f"svc:{job_id}:values:staging", f"svc:{job_id}:values"


@dataclass(frozen=True)
class PoisonSpec:
    """Deterministic per-job fault injection (tests and the chaos bench).

    Raises :class:`FlashUncorrectableError` when the job is about to
    execute ``superstep``, on its first ``attempts`` attempts.  The trigger is a
    pure function of journaled state — the run's resume superstep and the
    job's journaled retry count — so it fires at exactly the same logical
    point across ``--workers``, ``--mode`` and arbitrary crash schedules.
    (Device-level BER injection cannot make that promise: its RNG advances
    with every re-executed flash op.)
    """

    superstep: int = 1
    attempts: int = 1


@dataclass
class ServiceConfig:
    """Service-wide settings (all deterministic)."""

    #: Number of scheduler rounds: a job still live when round
    #: ``max_rounds - 1`` ends expires like one past its deadline.
    max_rounds: int = 100_000
    #: Deterministic per-job fault injection: job id -> PoisonSpec.
    poison: dict = field(default_factory=dict)


@dataclass
class ServiceReport:
    """What :meth:`GraphService.run` hands back.

    Per-job outcomes (state, retries, failures) are read from ``jobs``.
    ``faults`` and ``crashes`` are the device's injector counters (None
    without a plan), ``wear`` its wear at the end of the run (see
    :mod:`repro.flash.wear`).
    """

    jobs: list
    trace: list
    rounds: int
    remounts: int
    rejections: int
    faults: FaultStats | None
    crashes: CrashStats | None
    wear: WearReport
    #: Simulated seconds and flash bytes of the whole cell, graph load
    #: included; set by :func:`repro.harness.run_service_cell`.
    elapsed_s: float = 0.0
    flash_bytes: int = 0

    def jobs_by_state(self, state: str) -> list:
        return [j for j in self.jobs if j.state == state]


class GraphService:
    """A multi-tenant graph analytics service over one system stack."""

    def __init__(self, system, graph, num_vertices: int,
                 config: ServiceConfig | None = None,
                 quotas: dict[str, TenantQuota] | None = None,
                 default_root: int = 0):
        self.system = system
        self.graph = graph
        self.num_vertices = num_vertices
        self.config = config or ServiceConfig()
        self.default_root = default_root
        # The probe holds the device, which survives remounts, and not the
        # service: a bound method would tie the whole stack into a cycle
        # only the cyclic collector frees.
        device = system.device
        self.controller = AdmissionController(
            system.profile.flash_read_bw, quotas,
            wear_probe=lambda: (lifetime_writes_remaining(device),
                                device.bad_block_count))
        #: (job_id, spec) in submission order — the workload definition.
        #: Journaled alongside the job table so future arrivals replay
        #: identically after a crash.
        self.submissions: list[tuple[str, JobSpec]] = []
        self.jobs: dict[str, Job] = {}
        self.round = 0
        self._engines: dict = {}
        self._next_id = 1

    # -------------------------------------------------------------- submission

    def submit(self, spec: JobSpec | str) -> str:
        """Register a job; returns its deterministic id (``svc-<n>``).

        Admission is decided at the spec's arrival round, not here — a
        submission is just workload input.  A spec that arrives at or past
        ``config.max_rounds`` is refused here: no round would ever admit it.
        """
        if isinstance(spec, str):
            spec = parse_job_spec(spec)
        if spec.at_round >= self.config.max_rounds:
            raise ValueError(f"job arrives at round {spec.at_round}, past the "
                             f"service's last round {self.config.max_rounds - 1}")
        job_id = f"svc-{self._next_id}"
        self._next_id += 1
        self.submissions.append((job_id, spec))
        return job_id

    def submit_all(self, specs) -> list[str]:
        return [self.submit(spec) for spec in specs]

    # --------------------------------------------------------------- main loop

    def run(self) -> ServiceReport:
        """Drive all submitted jobs to a terminal state, by the end of round
        ``config.max_rounds - 1`` at the latest."""
        while not self._finished():
            self.system.run_recovering(self._run_round,
                                       reload=self._reload_journal)
        device = self.system.device
        jobs = list(self._jobs())
        return ServiceReport(
            jobs=jobs,
            trace=self.trace(),
            rounds=self.round,
            remounts=self.system.remounts,
            rejections=sum(1 for j in jobs if j.state == REJECTED),
            faults=device.faults.stats if device.faults is not None else None,
            crashes=device.crashes.stats if device.crashes is not None else None,
            wear=WearReport.from_device(device),
        )

    def _jobs(self, *states):
        """Arrived jobs in submission order; only those in ``states``, if
        any are given."""
        for job_id, _ in self.submissions:
            job = self.jobs.get(job_id)
            if job is not None and (not states or job.state in states):
                yield job

    def _finished(self) -> bool:
        return all(job_id in self.jobs
                   and self.jobs[job_id].state in TERMINAL_STATES
                   for job_id, _ in self.submissions)

    def _run_round(self) -> None:
        r = self.round
        # 1. Arrivals (submission order): one admission decision each,
        # recorded once — never recomputed, part of the canonical trace.
        for job_id, spec in self.submissions:
            if spec.at_round == r and job_id not in self.jobs:
                self._arrive(job_id, spec)
        # 2. Deadlines are enforced before work: a job past its budget does
        # not get another superstep it will only throw away.
        self._expire_deadlines()
        # 3. Retrying jobs whose backoff expired try to re-acquire bandwidth.
        self._resume_retries()
        # 4. One superstep per running analytics job, job-id order.
        for job in self._jobs(RUNNING):
            self._step_job(job)
        # 5. Completions/failures may have freed bandwidth: promote queued
        # runs (or shed them, if the device has degraded under us).
        self._promote()
        # 6. All outstanding point queries advance as one shared batch.
        self._run_points()
        # 7. Whatever the last round leaves live has run out of rounds.
        if r == self.config.max_rounds - 1:
            self._expire_deadlines(last_round=True)
        # 8. Publish the new job table; this is the round's commit point.
        self.round = r + 1
        self._write_journal()

    # ---------------------------------------------------------------- arrivals

    def _arrive(self, job_id: str, spec: JobSpec) -> None:
        job = Job(job_id=job_id, spec=spec)
        if spec.is_control:
            # Control ops hold no quota and never schedule: they act at
            # arrival and finish in the same round.
            job.admission = ADMITTED
            self.jobs[job_id] = job
            self._do_cancel(job)
            return
        if spec.is_analytics:
            try:
                _, limit = self._program(spec)
                rounds = self.config.max_rounds
                if limit is not None and spec.at_round + limit > rounds:
                    raise ValueError(
                        f"{limit} supersteps from round {spec.at_round} run "
                        f"past the last round {rounds - 1}")
            except ValueError as exc:
                # A spec that does not fit the graph (a root past the last
                # vertex) or the service (a superstep limit no run can reach
                # by the last round) fails alone, before it takes any quota.
                job.admission = INVALID_DECISION
                job.state = FAILED
                job.reason = f"invalid query: {type(exc).__name__}: {exc}"
            else:
                self.controller.admit_analytics(job, self.jobs.values())
        else:
            self.controller.admit_point(job, self.jobs.values())
        self.jobs[job_id] = job

    # ----------------------------------------------------------- analytics jobs

    def _program(self, spec: JobSpec):
        """``(program, superstep limit)`` of an analytics spec, from its
        :data:`ANALYTICS` row."""
        factory = ANALYTICS[spec.kind].factory
        assert factory is not None  # every service analytics kind has one
        return factory(self.num_vertices, self.default_root, spec.params)

    def _job_program(self, job: Job):
        """``(program, superstep limit)`` of an analytics job.  The program
        is namespaced by job id, so two concurrent runs of the same algorithm
        keep disjoint on-flash state."""
        program, limit = self._program(job.spec)
        return program.namespaced(job.job_id), limit

    def _build_run(self, job: Job):
        """(Re)create the cooperative engine run for an admitted job.

        ``auto_resume=True`` unconditionally: with no checkpoint on flash a
        run is a fresh start, after a crash it resumes from the job's own
        checkpoint.
        """
        program, limit = self._job_program(job)
        engine = self.system.engine_for(
            self.graph, self.num_vertices,
            checkpoint_every=CHECKPOINT_EVERY, auto_resume=True)
        run = engine.start(program, max_supersteps=limit)
        self._engines[job.job_id] = run
        return run

    def _step_job(self, job: Job) -> None:
        try:
            run = self._engines.get(job.job_id)
            if run is None:
                run = self._build_run(job)
            self._maybe_poison(job, run)
            if run.step():
                return
            result = run.finish()
            values = result.final_values()
            values_file = self._write_values(job.job_id, values)
        except FlashError as exc:
            # This job's failure domain ends here: record it, tear down the
            # attempt, and let every other job's round proceed untouched.
            self._job_failed(job, exc)
            return
        job.result = {
            "kind": job.spec.kind,
            "supersteps": result.num_supersteps,
            "modes": [m.mode for m in result.supersteps],
            "checksum": checksum(values),
            "values_file": values_file,
            "dtype": values.dtype.str,
            "elapsed_s": result.elapsed_s,
        }
        self._end(job, DONE)

    def _maybe_poison(self, job: Job, run) -> None:
        """Fire the job's deterministic fault injection, if configured."""
        spec = self.config.poison.get(job.job_id)
        if spec is None:
            return
        if job.retries < spec.attempts and run.superstep == spec.superstep:
            exc = FlashUncorrectableError(
                f"poisoned uncorrectable fault for {job.job_id}", block=0, page=0)
            exc.superstep = run.superstep
            exc.algorithm = run.program.name
            raise exc

    # ---------------------------------------------------------- failure domain

    def _job_failed(self, job: Job, exc: FlashError) -> None:
        """One job's flash error: journal it, abandon the attempt, back off.

        The dead attempt is rolled back to its last sealed checkpoint (files
        from the doomed superstep are swept; the checkpoint itself is kept
        so the retry resumes rather than restarts); a RETRYING job holds no
        bandwidth reservation for the duration of the backoff.
        """
        run = self._engines.pop(job.job_id, None)
        exhausted = self._attempt_failed(job, exc, getattr(
            exc, "superstep", run.superstep if run is not None else -1))
        if run is not None:
            run.abandon()
        if exhausted:
            self._end(job, QUARANTINED,
                      f"retries exhausted after {job.retries + 1} attempts")
            return
        attempt = job.retries
        job.retries += 1
        # Exponential backoff, a pure function of the journaled retry count:
        # the resume round replays identically after any crash, and the
        # backoff cost is real simulated time on the shared clock.
        job.retry_round = self.round + (RETRY_BACKOFF_ROUNDS << attempt)
        self.system.clock.charge("cpu", RETRY_BACKOFF_S * (1 << attempt))
        job.state = RETRYING

    def _attempt_failed(self, job: Job, exc: FlashError,
                        superstep: int) -> bool:
        """Journal one failed attempt; True if it used up the retry budget."""
        failure = JobFailure(error=type(exc).__name__, message=str(exc),
                             superstep=superstep, attempt=job.retries,
                             context=error_context(exc))
        job.failures.append(failure.to_dict())
        return job.retries >= job.retry_limit(MAX_RETRIES)

    def _end(self, job: Job, state: str, reason: str = "") -> None:
        """Move an arrived job to a terminal ``state``: the one way it ends.

        An analytics job drops its run, if it has one, and gives back every
        flash file its program's name covers: those of every attempt, live,
        finished, abandoned or killed by a power loss.  Only a DONE job
        keeps its published values file.
        """
        if job.is_analytics:
            self._engines.pop(job.job_id, None)
            purge(self.system.store, self._job_program(job)[0])
            if state != DONE:
                discard(self.system.store, *_values_files(job.job_id))
        job.state = state
        job.reason = reason

    def _write_values(self, job_id: str, values: np.ndarray) -> str:
        """Durably publish a finished job's vertex values.

        A crash between completion and the journal commit re-runs the job,
        and the rewrite lands over the partial file instead of appending to
        it.
        """
        staging, final = _values_files(job_id)
        publish(self.system.store, staging, final,
                np.ascontiguousarray(values).tobytes())
        return final

    # ------------------------------------------------------ cancel & deadlines

    def _ref(self, job: Job) -> tuple[str, JobSpec | None]:
        """The job id a ``cancel`` or ``vstate`` names, and that job's
        submission (``None`` if no such job was submitted)."""
        ref = str(job.spec.params.get("ref", ""))
        return ref, next((s for jid, s in self.submissions if jid == ref),
                         None)

    def _do_cancel(self, job: Job) -> None:
        """Act on a ``cancel`` control op at its arrival round."""
        ref, ref_spec = self._ref(job)
        if ref_spec is None:
            self._end(job, FAILED, f"unknown ref job {ref!r}")
            return
        if ref_spec.tenant != job.spec.tenant:
            self._end(job, FAILED, f"ref job {ref} belongs to tenant "
                                   f"{ref_spec.tenant!r}")
            return
        target = self.jobs.get(ref)
        if target is None:
            # Cancelling a job that has not arrived yet: leave a tombstone so
            # the arrival loop skips it entirely.
            self.jobs[ref] = Job(job_id=ref, spec=ref_spec, state=CANCELLED,
                                 admission="cancelled",
                                 reason=f"cancelled by {job.job_id} "
                                        f"before arrival")
            outcome = "cancelled"
        elif target.state in TERMINAL_STATES:
            outcome = "noop"
        else:
            self._end(target, CANCELLED, f"cancelled by {job.job_id}")
            outcome = "cancelled"
        job.result = {"kind": "cancel", "ref": ref, "outcome": outcome}
        self._end(job, DONE)

    def _expire_deadlines(self, last_round: bool = False) -> None:
        """Expire every live job past its ``deadline_rounds`` — or, once the
        last round's work is done, every live job.

        Analytics jobs are quarantined (their partial flash state is dead
        weight the service must reclaim); point queries simply fail.
        """
        for job in self._jobs():
            d = job.spec.deadline_rounds
            if last_round:
                reason = f"round limit {self.config.max_rounds} reached"
            elif d and self.round - job.spec.at_round >= d:
                reason = f"deadline of {d} rounds exceeded"
            else:
                continue
            if job.state not in TERMINAL_STATES:
                self._end(job, QUARANTINED if job.is_analytics else FAILED,
                          reason)

    def _resume_retries(self) -> None:
        """Re-admit RETRYING jobs whose backoff expired, job-id order."""
        for job in self._jobs(RETRYING):
            if (self.round >= job.retry_round
                    and self.controller.can_start(job.spec.tenant,
                                                  self.jobs.values())):
                # The engine run is rebuilt lazily in _step_job with
                # auto_resume=True: the retry continues from the last sealed
                # checkpoint, not from scratch.
                job.state = RUNNING

    def _promote(self) -> None:
        """Move queued runs into execution — or shed them in degraded mode."""
        level = self.controller.wear_level()
        if level != HEALTHY:
            # A queue the device can no longer drain only starves tenants:
            # shed it with explicit DEGRADED rejections.
            for job in self._jobs(QUEUED):
                job.admission = DEGRADED_DECISION
                job.state = REJECTED
                job.reason = f"device {level}: queued load shed"
            return
        for job in self._jobs(QUEUED):
            if self.controller.can_start(job.spec.tenant, self.jobs.values(),
                                         level):
                job.state = RUNNING

    # ------------------------------------------------------------ point queries

    def _run_points(self) -> None:
        batch: list[tuple[str, str, dict]] = []
        for job in self._jobs(PENDING):
            if job.spec.kind in ("neighborhood", "path"):
                batch.append((job.job_id, job.spec.kind, job.spec.params))
            else:
                self._try_vstate(job)
        if not batch:
            return
        try:
            results = run_point_batch(self.graph, self.system.backend,
                                      self.system.clock, batch)
        except FlashError as exc:
            # The shared batch pass died on flash: every member shares the
            # failure, each against its own retry budget.
            for job_id, _, _ in batch:
                job = self.jobs[job_id]
                if self._attempt_failed(job, exc, -1):
                    self._end(job, FAILED, "retries exhausted in point batch")
                else:
                    job.retries += 1   # stays PENDING, rebatched next round
            return
        for job_id, _, _ in batch:
            job = self.jobs[job_id]
            res = results[job_id]
            if "error" in res:
                # Per-query failure domain: one tenant's bad input fails only
                # its own query, the rest of the batch completed above.
                self._end(job, FAILED, f"invalid query: {res['error']}")
            else:
                job.result = res
                self._end(job, DONE)

    def _try_vstate(self, job: Job) -> None:
        """Resolve a vertex-state read once its referenced job is terminal."""
        try:
            vertices = vstate_vertices(job.spec.params, self.num_vertices)
        except (TypeError, ValueError) as exc:
            # Bad input fails this query only, like a bad batched query.
            self._end(job, FAILED,
                      f"invalid query: {type(exc).__name__}: {exc}")
            return
        ref, ref_spec = self._ref(job)
        target = self.jobs.get(ref)
        reason = None
        if ref_spec is None:
            reason = f"unknown ref job {ref!r}"
        elif not ref_spec.is_analytics:
            # Only analytics runs publish vertex values; waiting on anything
            # else (itself and another vstate included) can never resolve.
            reason = f"ref job {ref} is not an analytics run"
        elif target is None or target.state not in TERMINAL_STATES:
            return  # dependency still in flight; stays pending
        elif target.state != DONE:
            reason = f"ref job {ref} ended {target.state}"
        if reason is not None:
            self._end(job, FAILED, reason)
            return
        job.result = read_vstate(self.system.store,
                                 target.result["values_file"],
                                 np.dtype(target.result["dtype"]), vertices)
        self._end(job, DONE)

    # ------------------------------------------------------------- durability

    def _write_journal(self) -> None:
        state = {
            "version": JOURNAL_VERSION,
            "round": self.round,
            "next_id": self._next_id,
            "submissions": [{"job_id": jid, "spec": spec.to_dict()}
                            for jid, spec in self.submissions],
            "jobs": [job.to_dict() for job in self._jobs()],
        }
        publish(self.system.store, JOURNAL_STAGING, JOURNAL_FILE,
                json.dumps(state).encode())

    def _reload_journal(self) -> None:
        """The recovery driver's reload hook: after a remount, rebuild the
        host state that died from the journal."""
        self._engines = {}
        self.graph = self.system.reattach_graph(self.graph)
        store: FileStore = self.system.store
        if store.exists(JOURNAL_FILE):
            state = json.loads(bytes(store.read(JOURNAL_FILE)))
            if state.get("version") != JOURNAL_VERSION:
                raise RuntimeError(
                    f"service journal version {state.get('version')!r} "
                    f"unsupported (want {JOURNAL_VERSION})")
            self.round = int(state["round"])
            self._next_id = int(state["next_id"])
            self.submissions = [(d["job_id"], JobSpec.from_dict(d["spec"]))
                                for d in state["submissions"]]
            self.jobs = {d["job_id"]: Job.from_dict(d)
                         for d in state["jobs"]}
        else:
            # Crash before the first commit point: the whole first round
            # replays from the (in-memory) workload definition.
            self.round = 0
            self.jobs = {}

    # ------------------------------------------------------------------ trace

    def trace(self) -> list[str]:
        """The canonical scheduler trace — the determinism suite's artifact.

        One line per submission (in submission order) plus a rejection
        count.  Absolute rounds and simulated times are excluded on
        purpose: crash re-execution repeats work, shifting both, while
        admission decisions, superstep counts, mode traces and result
        checksums are invariants.
        """
        from repro.perf.report import mode_trace_summary

        lines = []
        for job_id, spec in self.submissions:
            job = self.jobs.get(job_id)
            if job is None:
                lines.append(f"{job_id} tenant={spec.tenant} "
                             f"kind={spec.kind} state=unarrived")
                continue
            parts = [job_id, f"tenant={spec.tenant}", f"kind={spec.kind}",
                     f"admission={job.admission}", f"state={job.state}"]
            if job.retries:
                parts.append(f"retries={job.retries}")
            if job.failures:
                parts.append(f"error={job.failures[-1]['error']}")
            res = job.result
            if job.state == DONE and job.is_analytics:
                parts.append(f"supersteps={res['supersteps']}")
                parts.append(f"modes={mode_trace_summary(res['modes'])}")
                parts.append(f"checksum={res['checksum']:08x}")
            elif job.state == DONE and res.get("kind") == "cancel":
                parts.append(f"outcome={res['outcome']}")
            elif job.state == DONE:
                if res.get("kind") == "path":
                    parts.append(f"found={res['found']}")
                parts.append(f"checksum={res['checksum']:08x}")
            elif job.reason:
                parts.append(f"reason={job.reason!r}")
            lines.append(" ".join(parts))
        lines.append(f"rejections={sum(1 for _ in self._jobs(REJECTED))}")
        return lines


def demo_quotas() -> dict[str, TenantQuota]:
    """Quotas of the two-tenant demo: tenant B cannot queue, so its second
    analytics submission is rejected once the flash channel saturates."""
    return {"tA": TenantQuota(max_running=1, max_queued=1, max_point=8),
            "tB": TenantQuota(max_running=1, max_queued=0, max_point=8)}


def demo_workload() -> list[str]:
    """The acceptance demo: 2 admitted analytics runs + 6 point queries
    across 2 tenants, plus one analytics submission that admission control
    rejects (9 submitted, 8 complete)."""
    return [
        "tA:pagerank:iters=2",
        "tB:cc",
        "tB:bfs",                         # rejected: saturated, no queue slot
        "tA:neighborhood:v=0,depth=2",
        "tA:path:src=0,dst=5",
        "tA:vstate:ref=svc-1,v=0+1+2",
        "tB:neighborhood:v=3,depth=1",
        "tB:path:src=1,dst=4",
        "tB:vstate:ref=svc-2,v=0+1",
    ]
