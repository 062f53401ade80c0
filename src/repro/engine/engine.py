"""The superstep driver: runs a vertex program to quiescence and collects
per-superstep metrics (the numbers behind every evaluation figure).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.external import ExternalSortReducer, RunHandle, SortReduceStats
from repro.core.parallel import get_pool
from repro.engine.api import VertexProgram, run_prefix
from repro.engine.modes import (
    MODES,
    AdaptivePolicy,
    build_modes,
    charge_mode_switch,
    semiexternal_footprint,
)
from repro.engine.superstep import scan
from repro.flash.device import FlashError
from repro.flash.publish import discard, publish
from repro.flash.store import FileStore
from repro.graph.formats import FlashCSR
from repro.graph.vertexdata import VertexArray

#: Checkpoint format version (bumped on incompatible layout changes).
CHECKPOINT_VERSION = 1
#: Overlays a run's vertex array stacks before it compacts them.
MAX_OVERLAYS = 64


def checkpoint_files(program: VertexProgram) -> tuple[str, str]:
    """(staging, latest) names of ``program``'s checkpoint pair."""
    prefix = run_prefix(program)
    return f"{prefix}ckpt:staging", f"{prefix}ckpt:latest"


def purge(store: FileStore, program: VertexProgram, keep=()) -> None:
    """Delete every file under ``program``'s :func:`run_prefix` that ``keep``
    does not name: run files, vertex data, active lists, and the checkpoint
    pair last.  Every file a run writes is named there, so no checkpoint is
    read to find them; graph files and other programs' files are left
    alone.  With ``keep`` empty this reclaims every run ``program`` ever
    had on ``store``, dead attempts included."""
    prefix = run_prefix(program)
    pair = checkpoint_files(program)
    for name in store.list_files():
        if name.startswith(prefix) and name not in keep and name not in pair:
            store.delete(name)
    for name in pair:
        if name not in keep and store.exists(name):
            store.delete(name)


@dataclass
class SuperstepMetrics:
    """One superstep's observable behaviour, including resource deltas —
    the per-superstep breakdown behind the paper's §V-C analysis."""

    superstep: int
    activated: int
    traversed_edges: int
    update_pairs: int
    reduced_pairs: int
    elapsed_s: float
    flash_bytes: int = 0
    flash_busy_s: float = 0.0
    compute_busy_s: float = 0.0
    #: Execution mode this superstep ran under (the adaptive decision
    #: trace; trailing default keeps old checkpoints restorable).
    mode: str = "sortreduce"


@dataclass
class RunResult:
    """Everything a completed run exposes to callers and benchmarks."""

    algorithm: str
    vertices: VertexArray
    supersteps: list[SuperstepMetrics] = field(default_factory=list)
    sort_stats: list[SortReduceStats] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_traversed_edges(self) -> int:
        return sum(s.traversed_edges for s in self.supersteps)

    @property
    def total_activated(self) -> int:
        return sum(s.activated for s in self.supersteps)

    @property
    def mode_trace(self) -> list[str]:
        """Execution mode of each superstep, in order (constant for static
        modes; the per-superstep decision record for adaptive runs)."""
        return [s.mode for s in self.supersteps]

    @property
    def mteps(self) -> float:
        """Millions of traversed edges per (simulated) second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.total_traversed_edges / self.elapsed_s / 1e6

    def final_values(self) -> np.ndarray:
        return self.vertices.final_values()


class GraFBoostEngine:
    """Drives a vertex program over one assembled system stack.

    The engine owns no hardware state of its own: the graph, vertex array,
    file store and cost-model backend are injected, so the same driver runs
    as GraFBoost (accelerator + AOFFS), GraFBoost2, or GraFSoft (software +
    commodity SSD file system).
    """

    def __init__(self, graph: FlashCSR, store: FileStore, backend,
                 num_vertices: int, chunk_bytes: int, memory=None, lazy: bool = True,
                 checkpoint_every: int = 0, auto_resume: bool = False, workers: int = 1,
                 mode: str = "sortreduce"):
        if mode not in MODES:
            raise ValueError(f"unknown execution mode {mode!r}; known: "
                             + ", ".join(MODES))
        # Execution mode: a static mode runs every superstep one way;
        # "adaptive" picks per superstep (see repro.engine.modes).  The
        # default "sortreduce" path is byte-for-byte the classic engine.
        self.mode = mode
        self.graph = graph
        self.store = store
        self.backend = backend
        self.num_vertices = num_vertices
        self.chunk_bytes = chunk_bytes
        self.memory = memory
        self.lazy = lazy
        self.max_overlays = MAX_OVERLAYS
        # Parallel sort-reduce: N >= 2 attaches the shared worker pool;
        # N == 1 is byte-for-byte the serial path (pool is None).  Either
        # way results and simulated time are bit-identical.
        self.workers = workers
        self.pool = get_pool(workers)
        # Crash tolerance: every `checkpoint_every` supersteps, persist the
        # vertex data, frontier run and superstep counter to the (durable)
        # store; `auto_resume` makes run() continue from the newest matching
        # checkpoint after a remount.  Both default off — checkpointing
        # writes real (simulated) flash traffic.  Checkpoints are named after
        # the program (:func:`checkpoint_files`).
        self.checkpoint_every = checkpoint_every
        self.auto_resume = auto_resume
        self.resumed_from_superstep: int | None = None
        self._retired: list[str] = []

    @property
    def clock(self):
        return self.store.device.clock

    def run(self, program: VertexProgram, max_supersteps: int | None = None) -> RunResult:
        """Execute supersteps until quiescence or the superstep limit.

        On a limit cut (fixed-iteration algorithms like the paper's one-pass
        PageRank measurement), a final apply pass folds the outstanding
        ``newV`` into ``V`` so :meth:`RunResult.final_values` is consistent.
        """
        run = self.start(program, max_supersteps=max_supersteps)
        while run.step():
            pass
        return run.finish()

    def start(self, program: VertexProgram,
              max_supersteps: int | None = None) -> "EngineRun":
        """Begin a run that the caller advances one superstep at a time.

        The service layer interleaves many in-flight :class:`EngineRun`
        instances over one stack (cooperative multitasking on the shared sim
        clock); :meth:`run` is exactly ``start()`` + a ``step()`` loop +
        ``finish()``, so the decomposition is behaviour-preserving.
        """
        return EngineRun(self, program, max_supersteps=max_supersteps)

    def make_reducer(self, op, value_dtype, name_prefix: str) -> ExternalSortReducer:
        """An external sort-reducer over this stack.  Feed and finish it
        through :func:`repro.engine.superstep.reduce_into`, which releases
        its chunk buffer and run files if the sort-reduce fails."""
        return ExternalSortReducer(
            self.store, op, value_dtype, self.backend, self.chunk_bytes,
            name_prefix=name_prefix, memory=self.memory,
            pool=self.pool)

    # ----------------------------------------------------- checkpoint/restart

    def _flush_retired(self) -> None:
        retired, self._retired = self._retired, []
        for name in retired:
            if self.store.exists(name):
                self.store.delete(name)

    def _retire_file(self, name: str) -> None:
        """Defer a deletion until the next checkpoint supersedes the one that
        may still reference this file."""
        self._retired.append(name)

    def _discard_run(self, run) -> None:
        if not self.checkpoint_every:
            run.delete()
        elif run.num_records and self.store.exists(run.name):
            self._retire_file(run.name)

    def _write_checkpoint(self, program: VertexProgram, result: RunResult,
                          vertices: VertexArray, prev_run, superstep: int) -> None:
        """Persist resumable state through the store's crash-consistent path.

        Ordering is the whole protocol: every file the checkpoint references
        is already sealed on flash, the staging file is sealed before the
        atomic rename publishes it, and only *after* publication are the
        files retired since the previous checkpoint actually deleted.  A
        power loss at any point leaves either the old or the new checkpoint
        fully intact (plus, at worst, some orphaned files that resume's
        sweep reclaims).
        """
        files = vertices.files_on_flash()
        state = {
            "version": CHECKPOINT_VERSION,
            "algorithm": program.name,
            "superstep": superstep,
            "vertices": vertices.snapshot_state(),
            "prev_run": {
                "name": prev_run.name, "num_records": prev_run.num_records,
                "level": prev_run.level, "seq": prev_run.seq,
            },
            "supersteps": [asdict(m) for m in result.supersteps],
            "sort_stats": [s.to_dict() for s in result.sort_stats],
            "files": files + ([prev_run.name] if prev_run.num_records else []),
        }
        publish(self.store, *checkpoint_files(program),
                json.dumps(state).encode())
        self._flush_retired()

    def _load_checkpoint(self, program: VertexProgram) -> dict | None:
        latest = checkpoint_files(program)[1]
        if not self.store.exists(latest):
            return None
        state = json.loads(bytes(self.store.read(latest)))
        return state if state.get("version") == CHECKPOINT_VERSION else None

    def _restore(self, program: VertexProgram, state: dict):
        """Rebuild engine state from a checkpoint and sweep crash orphans."""
        retire = self._retire_file if self.checkpoint_every else None
        vertices = VertexArray.restore(
            self.store, state["vertices"], program.value_dtype,
            program.default_value, max_overlays=self.max_overlays,
            retire=retire)
        run_state = state["prev_run"]
        prev_run = RunHandle(self.store, run_state["name"],
                             run_state["num_records"], program.value_dtype,
                             level=run_state["level"], seq=run_state["seq"])
        result = RunResult(algorithm=program.name, vertices=vertices)
        result.supersteps = [SuperstepMetrics(**m) for m in state["supersteps"]]
        result.sort_stats = [SortReduceStats.from_dict(d)
                             for d in state["sort_stats"]]
        self._sweep_orphans(program, state)
        return vertices, prev_run, int(state["superstep"]), result

    def _sweep_orphans(self, program: VertexProgram, state: dict) -> None:
        """Delete the program's files the checkpoint does not reference.

        These are the half-written leftovers of the interrupted superstep
        (overlay/run files whose metadata committed but whose logical role
        died with the crash), anything retired after the checkpoint
        published, and whatever an attempt killed before that checkpoint
        left behind.
        """
        purge(self.store, program,
              keep=set(state["files"]) | {checkpoint_files(program)[1]})

    def _clear_checkpoint(self, program: VertexProgram) -> None:
        """Completion: drop checkpoint files and flush deferred deletions."""
        discard(self.store, *checkpoint_files(program))
        self._flush_retired()


class EngineRun:
    """One in-flight vertex-program run, advanced superstep by superstep.

    Holds exactly the loop state of the classic ``run()`` driver —
    checkpoint cadence, mode policy, the previous superstep's run file —
    so that a ``step()`` loop followed by :meth:`finish` reproduces the
    monolithic loop byte for byte.  Between ``step()`` calls other work
    (another job's superstep, a point-query batch) may charge the shared
    clock; per-superstep metrics are deltas around each step, so they stay
    exact, while :attr:`RunResult.elapsed_s` spans submit-to-finish wall
    (simulated) time — the job latency a service reports.
    """

    def __init__(self, engine: GraFBoostEngine, program: VertexProgram,
                 max_supersteps: int | None = None):
        self.engine = engine
        self.program = program
        # No limit: the run stops only on quiescence.
        self.limit = 1 << 30 if max_supersteps is None else max_supersteps
        self.run_start = engine.clock.elapsed_s
        retire = engine._retire_file if engine.checkpoint_every else None

        state = engine._load_checkpoint(program) if engine.auto_resume else None
        engine.resumed_from_superstep = None
        if state is not None:
            (self.vertices, self.prev_run, self.superstep,
             self.result) = engine._restore(program, state)
            self.prev_chunks = self.prev_run.chunks()
            engine.resumed_from_superstep = self.superstep
        else:
            self.vertices = VertexArray(
                engine.store, engine.num_vertices, program.value_dtype,
                program.default_value,
                prefix=engine.store.unique_name(run_prefix(program) + "v"),
                max_overlays=engine.max_overlays, retire=retire,
            )
            self.result = RunResult(algorithm=program.name, vertices=self.vertices)
            self.prev_chunks = program.initial_updates(engine.num_vertices)
            self.prev_run = None
            self.superstep = 0
        self.mode_table = build_modes(engine, self.vertices, program)
        self.footprint = semiexternal_footprint(engine.num_vertices,
                                                program.value_dtype)
        self.policy = None
        if engine.mode == "adaptive":
            budget = (engine.memory.budget if engine.memory is not None
                      else engine.store.device.profile.dram_capacity)
            self.policy = AdaptivePolicy(engine.num_vertices,
                                         engine.graph.num_edges,
                                         program.value_dtype, budget)
        # The mode of the superstep before this one — restored from the
        # checkpointed metrics on resume, so switch charges land at the
        # same supersteps in crashed and uninterrupted runs.
        self.prev_mode = (self.result.supersteps[-1].mode
                          if self.result.supersteps else None)
        self.last_checkpoint = self.superstep
        self.done = False
        self._finished = False

    @property
    def pending_records(self) -> int:
        """Incoming frontier size of the next superstep (a pure function of
        checkpointed state — the scheduler's decision input)."""
        if self.prev_run is not None:
            return self.prev_run.num_records
        return self.program.initial_frontier_hint(self.engine.num_vertices)

    def step(self) -> bool:
        """Run one superstep; returns False once the run needs no more."""
        if self.done or self.superstep >= self.limit:
            self.done = True
            return False
        engine = self.engine
        program = self.program
        if (engine.checkpoint_every and self.superstep > self.last_checkpoint
                and self.superstep % engine.checkpoint_every == 0):
            engine._write_checkpoint(program, self.result, self.vertices,
                                     self.prev_run, self.superstep)
            self.last_checkpoint = self.superstep
        if self.policy is not None:
            mode_name = self.policy.choose(self.pending_records)
        else:
            mode_name = engine.mode
        checkpoint = engine.clock.checkpoint()
        flash_bytes_start = engine.clock.bytes_moved("flash")
        charge_mode_switch(engine.clock, engine.store.device.profile,
                           self.prev_mode, mode_name, self.footprint)
        try:
            outcome = self.mode_table[mode_name].run_superstep(
                self.prev_chunks, self.superstep)
        except FlashError as e:
            e.add_note(f"while running {program.name} superstep {self.superstep}")
            # Structured context for failure records: which run, where.
            e.superstep = self.superstep
            e.algorithm = program.name
            raise
        if self.prev_run is not None:
            engine._discard_run(self.prev_run)
        self.prev_run = outcome.new_run
        self.result.supersteps.append(SuperstepMetrics(
            superstep=self.superstep,
            activated=outcome.activated,
            traversed_edges=outcome.traversed_edges,
            update_pairs=outcome.update_pairs,
            reduced_pairs=outcome.new_run.num_records,
            elapsed_s=checkpoint.elapsed_s,
            flash_bytes=engine.clock.bytes_moved("flash") - flash_bytes_start,
            flash_busy_s=checkpoint.busy_s("flash"),
            compute_busy_s=checkpoint.busy_s("cpu") + checkpoint.busy_s("accel"),
            mode=mode_name,
        ))
        self.prev_mode = mode_name
        self.result.sort_stats.append(outcome.sort_stats)
        self.vertices.maybe_compact()
        self.superstep += 1
        if outcome.new_run.num_records == 0 and outcome.activated == 0:
            self.done = True
            return False
        self.prev_chunks = self.prev_run.chunks()
        if outcome.new_run.num_records == 0:
            # Frontier died this superstep: one more (empty) pass would
            # change nothing, stop now.
            self.done = True
            return False
        if self.superstep >= self.limit:
            self.done = True
            return False
        return True

    def abandon(self) -> None:
        """Tear down a *failed* run but keep its last sealed checkpoint.

        A retry rebuilt with ``auto_resume=True`` continues from that
        checkpoint; everything the dead attempt wrote after it — overlay
        files, run files, the staging checkpoint — is swept through the
        same orphan logic crash recovery uses.  With no checkpoint on flash
        the attempt's whole footprint is purged (the retry restarts from
        scratch, which is what resuming "from the last sealed checkpoint"
        means when none was ever sealed).
        """
        self.done = True
        self._finished = True
        engine = self.engine
        state = engine._load_checkpoint(self.program)
        if state is not None:
            engine._sweep_orphans(self.program, state)
        else:
            purge(engine.store, self.program)
        engine._retired = []

    def finish(self) -> RunResult:
        """Final apply pass, checkpoint cleanup, and elapsed accounting."""
        if self._finished:
            return self.result
        self._finished = True
        self.done = True
        engine = self.engine
        if self.prev_run is not None and self.prev_run.num_records:
            # Fold the unconsumed newV into V: a scan that pushes nothing.
            scan(self.vertices, self.program, self.prev_run.chunks(),
                 self.superstep)
            self.prev_run.delete()
        if engine.checkpoint_every:
            engine._clear_checkpoint(self.program)
        self.result.elapsed_s = engine.clock.elapsed_s - self.run_start
        return self.result
