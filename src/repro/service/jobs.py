"""Job vocabulary of the analytics service: specs, states, results.

A *job* is either a full analytics run (each :data:`ANALYTICS_KINDS` kind
is one vertex program, which the engine checkpoint protocol covers, so
every admitted run is crash→remount→resume durable for free) or a cheap
*point query* answered in milliseconds of simulated time:

* ``neighborhood`` — all vertices within ``depth`` hops of ``v``;
* ``path`` — an unweighted shortest path ``src → dst`` (BFS, depth-capped);
* ``vstate`` — vertex values of a *finished* analytics job (``ref`` names
  the job), read back from its durable result file.

Specs are plain data (tenant, kind, params, arrival round), so a workload
is a JSON-able list and scheduler decisions stay pure functions of it.
CLI syntax: ``tenant:kind[:k=v[,k=v...]][@round]`` — e.g.
``t0:pagerank:iters=2``, ``t1:neighborhood:v=5,depth=2``,
``t0:path:src=0,dst=9@1``, ``t1:vstate:ref=svc-1,v=0+3+7``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms import ANALYTICS
from repro.flash.faults import split_spec

#: The analytics kinds the service runs: every :data:`ANALYTICS` row that
#: is one vertex program.
ANALYTICS_KINDS = tuple(kind for kind, analytic in ANALYTICS.items()
                        if analytic.factory is not None)
POINT_KINDS = ("neighborhood", "path", "vstate")
#: Control operations: processed at arrival, never scheduled.  ``cancel``
#: takes ``ref=<job-id>`` and tears down that job (same tenant only).
CONTROL_KINDS = ("cancel",)
JOB_KINDS = ANALYTICS_KINDS + POINT_KINDS + CONTROL_KINDS

#: Terminal and non-terminal job states.
QUEUED = "queued"          # admitted to the system but waiting for bandwidth
RUNNING = "running"        # analytics job with an in-flight engine run
PENDING = "pending"        # point query waiting for its batch (or dependency)
RETRYING = "retrying"      # failed analytics job in deterministic backoff
DONE = "done"
REJECTED = "rejected"      # admission control refused the submission
FAILED = "failed"          # dependency missing/failed, or retries exhausted
QUARANTINED = "quarantined"  # poison job: flash state swept, quota released
CANCELLED = "cancelled"    # torn down by a tenant's cancel control op
TERMINAL_STATES = (DONE, REJECTED, FAILED, QUARANTINED, CANCELLED)

#: BFS depth cap for ``path`` queries without an explicit ``cap`` param.
DEFAULT_PATH_CAP = 64

#: Stands for a param a spec of its kind must give.
REQUIRED = "required"
#: The params each kind takes, checked when a spec is made: an integer is
#: the minimum of an optional integer param, ``REQUIRED`` a param the spec
#: must give, None an optional one.  A bad value would otherwise surface
#: rounds later (``retries`` only at the job's first failure, ``depth=abc``
#: when the query runs) or run nothing (``iters=0``), and an unknown key
#: would be dropped.  An analytics kind takes its :data:`ANALYTICS` row's
#: params and ``retries``.  Vertex ids and job refs are checked when the job
#: arrives or runs, against the graph and the jobs submitted.
PARAMS: dict[str, dict[str, int | str | None]] = {
    kind: {**ANALYTICS[kind].params, "retries": 0} for kind in ANALYTICS_KINDS}
PARAMS.update({
    "neighborhood": {"v": REQUIRED, "depth": 0},
    "path": {"src": REQUIRED, "dst": REQUIRED, "cap": 0},
    "vstate": {"ref": REQUIRED, "v": None},
    "cancel": {"ref": REQUIRED},
})


@dataclass(frozen=True)
class JobSpec:
    """One submission: who wants what, when it arrives, and its deadline."""

    tenant: str
    kind: str
    params: dict = field(default_factory=dict)
    at_round: int = 0
    #: Rounds after arrival before the job is expired (0 = no deadline).
    #: Analytics jobs past their deadline are quarantined (flash state
    #: swept, quota released); point queries simply fail.
    deadline_rounds: int = 0

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; known: "
                             + ", ".join(JOB_KINDS))
        if not self.tenant or any(c in self.tenant for c in ":/ @"):
            raise ValueError(f"bad tenant name {self.tenant!r}")
        if self.at_round < 0:
            raise ValueError(f"at_round must be >= 0, got {self.at_round}")
        if self.deadline_rounds < 0:
            raise ValueError(
                f"deadline_rounds must be >= 0, got {self.deadline_rounds}")
        known = PARAMS[self.kind]
        unknown = sorted(self.params.keys() - known.keys())
        if unknown:
            raise ValueError(f"unknown {self.kind} param {unknown[0]!r}; known: "
                             + ", ".join(known))
        for key, rule in known.items():
            if rule == REQUIRED and key not in self.params:
                raise ValueError(f"{self.kind} needs param {key!r}")
            value = self.params.get(key, rule)
            if isinstance(rule, int) and (not isinstance(value, int) or value < rule):
                raise ValueError(f"{key} must be an integer >= {rule}, "
                                 f"got {value!r}")

    @property
    def is_analytics(self) -> bool:
        return self.kind in ANALYTICS_KINDS

    @property
    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

    def to_dict(self) -> dict:
        return {"tenant": self.tenant, "kind": self.kind,
                "params": dict(self.params), "at_round": self.at_round,
                "deadline_rounds": self.deadline_rounds}

    @staticmethod
    def from_dict(d: dict) -> "JobSpec":
        return JobSpec(tenant=d["tenant"], kind=d["kind"],
                       params=dict(d.get("params", {})),
                       at_round=int(d.get("at_round", 0)),
                       deadline_rounds=int(d.get("deadline_rounds", 0)))


def parse_job_spec(text: str) -> JobSpec:
    """Parse the CLI job syntax (see module docstring)."""
    body, _, round_part = text.partition("@")
    at_round = 0
    if round_part:
        try:
            at_round = int(round_part)
        except ValueError:
            raise ValueError(f"bad @round suffix in job spec {text!r}") from None
    pieces = body.split(":", 2)
    if len(pieces) < 2:
        raise ValueError(
            f"job spec {text!r} needs tenant:kind[:params][@round]")
    tenant, kind, *rest = pieces
    params = {key: _parse_param(raw)
              for key, raw in split_spec("".join(rest), "job").items()}
    deadline = params.pop("deadline", 0)
    if not isinstance(deadline, int):
        raise ValueError(f"deadline must be an integer round count, "
                         f"got {deadline!r} in job spec {text!r}")
    return JobSpec(tenant=tenant, kind=kind, params=params, at_round=at_round,
                   deadline_rounds=deadline)


def _parse_param(value: str):
    """Param values: int where possible, ``a+b+c`` as an int list, else str."""
    if "+" in value:
        return [_parse_scalar(v) for v in value.split("+")]
    return _parse_scalar(value)


def _parse_scalar(value: str):
    try:
        return int(value)
    except ValueError:
        return value


@dataclass(frozen=True)
class JobFailure:
    """One failed attempt of a job: the typed flash error plus its context.

    Journaled durably on the job record, so failure history survives power
    loss exactly like every other scheduler decision.  ``error`` is the
    taxonomy class name (``FlashUncorrectableError``, ...), ``context`` the
    structured flash-op attributes :func:`repro.flash.faults.error_context`
    collected (block/page addresses, superstep, namespaced algorithm).
    """

    error: str
    message: str
    superstep: int
    attempt: int
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"error": self.error, "message": self.message,
                "superstep": self.superstep, "attempt": self.attempt,
                "context": dict(self.context)}


@dataclass
class Job:
    """Scheduler-side record of one submission; journaled as a dict.

    Everything here is JSON-safe so the table round-trips through the
    durable journal byte-for-byte — job state survives the same power-loss
    injection the engine does.
    """

    job_id: str
    spec: JobSpec
    state: str = PENDING
    #: Initial admission decision ("admitted" | "queued" | "rejected" |
    #: "degraded" | "invalid") — recorded once at arrival and never
    #: recomputed, part of the trace.
    admission: str = ""
    #: Result summary of a finished job (small, JSON-safe): per-kind fields
    #: plus a crc32 checksum of the full payload for determinism checks.
    result: dict = field(default_factory=dict)
    #: Why a job was rejected/failed/quarantined/cancelled.
    reason: str = ""
    #: Completed retry count (attempts beyond the first).
    retries: int = 0
    #: Earliest round a RETRYING job may resume (exponential backoff; a pure
    #: function of journaled state, so it replays identically after a crash).
    retry_round: int = 0
    #: Failure history: one :meth:`JobFailure.to_dict` entry per failed
    #: attempt, newest last.
    failures: list = field(default_factory=list)

    @property
    def is_analytics(self) -> bool:
        return self.spec.is_analytics

    def retry_limit(self, default: int) -> int:
        """Per-job retry budget: the ``retries=N`` spec param, else the
        service default."""
        return int(self.spec.params.get("retries", default))

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "spec": self.spec.to_dict(),
                "state": self.state, "admission": self.admission,
                "result": self.result, "reason": self.reason,
                "retries": self.retries, "retry_round": self.retry_round,
                "failures": list(self.failures)}

    @staticmethod
    def from_dict(d: dict) -> "Job":
        return Job(job_id=d["job_id"], spec=JobSpec.from_dict(d["spec"]),
                   state=d["state"], admission=d["admission"],
                   result=dict(d["result"]), reason=d.get("reason", ""),
                   retries=int(d.get("retries", 0)),
                   retry_round=int(d.get("retry_round", 0)),
                   failures=list(d.get("failures", [])))
