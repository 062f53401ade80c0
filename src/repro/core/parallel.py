"""Multi-core sort-reduce: a software merge tree that uses every core.

The paper's hardware keeps flash the bottleneck by running a wire-rate
16-to-1 merge tree on the FPGA; the software implementation (§IV-F) gets the
same effect from worker threads — "up to four concurrent merge operations"
overlapped with chunk sorting.  This module is that worker pool for the
Python reproduction: ``multiprocessing`` workers (true parallelism, no GIL)
fed through ``SharedMemory`` numpy buffers.

Determinism is the design constraint.  Everything *stateful* — the simulated
flash device (per-op crash counters, fault RNG, program-order checks), the
``SimClock`` (a sequential float accumulation, so charge order changes the
bits of ``elapsed_s``) and the run-file bookkeeping — stays on the main
process in exactly the serial order.  Workers only ever execute *pure
functions* of their input arrays:

* **partitioned chunk sort** — the host splits an unsorted chunk at key
  splitters (equal keys always land in one range, original order preserved
  within each range); each worker runs ``sort_reduce_in_memory`` on its
  range; the host concatenates range outputs in key order.
* **range merge** — the reduction-interleaved merge of one disjoint key
  range of an emit batch, partitioned the same way over already-sorted
  parts.

Both rest on the same argument: a stable sort restricted to a key range
equals the restriction of the stable sort, and no reduction group straddles
a range boundary, so the concatenation is bitwise what the serial
single-sort path produces — for any worker count, including non-commutative
FIRST/LAST.

Both entry points are *synchronous*: the host blocks until every range
returns, then performs the store writes and clock charges itself.  The
tempting alternative — submitting a chunk sort and draining it a few chunks
later, overlapping with flash I/O — is functionally safe but breaks
bit-identity of ``SimClock.elapsed_s`` whenever the *caller* charges the
clock between ``add()`` calls (BFS's executor does): float accumulation is
not associative, so reordering charges moves the low bits.  The async
``submit``/``collect`` API therefore exists for callers that own the whole
charge stream (benchmarks, bulk jobs); the reducer path stays in lockstep.

Results therefore satisfy the invariance contract enforced by
``tests/test_perf_invariance.py``: ``--workers N`` is bit-identical to the
serial path for results, stats and simulated time.

This file is host-side orchestration, not simulation: its queue timeouts and
process joins legitimately read the host clock, which is why repro-lint
RL001 allowlists it (see ``repro.lint.rules``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue
import time
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.inmemory import sort_reduce_in_memory
from repro.core.kvstream import KVArray
from repro.core.reduce_ops import ReduceOp, is_builtin_op, op_by_name

#: Tasks below this record count run inline on the host: at small sizes the
#: fork/queue/shared-memory round trip costs more than the sort itself.
#: Thresholds can never change results — inline and worker code paths are
#: the same functions — only where they execute.
DEFAULT_INLINE_RECORDS = 4096


class WorkerTaskError(RuntimeError):
    """A sort-reduce worker failed (raised, or its process died)."""


# ---------------------------------------------------------------- transport
# One shared-memory block per task: the key array followed by the value
# array (values start at ``n * 8``, which keeps any numeric dtype aligned).


def _kv_to_shm(kv: KVArray) -> str:
    """Copy a KVArray into a fresh SharedMemory block; returns its name."""
    key_bytes = kv.keys.nbytes
    shm = shared_memory.SharedMemory(create=True,
                                     size=max(1, key_bytes + kv.values.nbytes))
    try:
        dst_keys = np.ndarray(len(kv), dtype=np.uint64, buffer=shm.buf)
        dst_keys[:] = kv.keys
        dst_values = np.ndarray(len(kv), dtype=kv.values.dtype,
                                buffer=shm.buf, offset=key_bytes)
        dst_values[:] = kv.values
        del dst_keys, dst_values
    finally:
        shm.close()
    return shm.name


def _kv_from_shm(name: str, n: int, dtype_str: str, unlink: bool) -> KVArray:
    """Copy a KVArray out of a SharedMemory block (and optionally free it)."""
    shm = shared_memory.SharedMemory(name=name)
    try:
        keys = np.ndarray(n, dtype=np.uint64, buffer=shm.buf).copy()
        values = np.ndarray(n, dtype=np.dtype(dtype_str),
                            buffer=shm.buf, offset=n * 8).copy()
    finally:
        shm.close()
        if unlink:
            shm.unlink()
    return KVArray._wrap(keys, values)


def _sort_reduce(kv: KVArray, op: ReduceOp, runs: int) -> KVArray:
    """One task, on a worker or inline: ``runs == 0`` is a chunk sort
    (``sort_reduce_in_memory``); otherwise a range merge of ``runs``
    concatenated sorted slices (stable sort, then the interleaved
    reduction) — exactly the expressions the serial path runs, so outputs
    are bitwise identical."""
    if runs:
        return op.reduce_sorted(kv.sorted(runs), presorted=True)
    return sort_reduce_in_memory(kv, op)


def _worker_main(tasks, results) -> None:
    """Worker-process loop: pure numpy compute, zero simulated state."""
    while True:
        task = tasks.get()
        if task is None:
            return
        try:
            ticket, name, n, dtype_str, op_name, runs = task
            kv = _kv_from_shm(name, n, dtype_str, unlink=True)
            out = _sort_reduce(kv, op_by_name(op_name), runs)
            results.put((ticket, _kv_to_shm(out), len(out),
                         out.values.dtype.str, None))
        except Exception as exc:
            results.put((task[0], None, 0, None,
                         f"{type(exc).__name__}: {exc}"))


# --------------------------------------------------------------------- pool


class SortReducePool:
    """A pool of fork-spawned sort-reduce workers.

    ``sort_reduce_chunk`` and ``merge_reduce`` are the synchronous
    key-range-partitioned entry points the external sorter uses: all
    workers chew on disjoint ranges of one chunk (or one emit batch) while
    the host blocks, which keeps every store write and clock charge in
    exact serial order.  ``submit_chunk_sort``/``collect`` expose the
    underlying async tickets for callers that own their whole charge
    stream and can afford reordering (benchmarks, bulk jobs).  Tasks that
    are too small, or whose operator is not a registry built-in (custom
    ops don't transport across processes), run inline — same functions,
    same bits.
    """

    def __init__(self, workers: int, inline_records: int = DEFAULT_INLINE_RECORDS):
        if workers < 2:
            raise ValueError(f"a pool needs >= 2 workers, got {workers}")
        self.workers = workers
        self.inline_records = inline_records
        # The resource tracker must exist *before* the fork: forked workers
        # inherit its fd, so register/unregister calls from every process
        # reach the same tracker and shared blocks are never reported leaked.
        resource_tracker.ensure_running()
        ctx = multiprocessing.get_context("fork")
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._procs = [ctx.Process(target=_worker_main,
                                   args=(self._tasks, self._results),
                                   daemon=True, name=f"sortreduce-w{i}")
                       for i in range(workers)]
        for p in self._procs:
            p.start()
        self._next_ticket = 0
        self._arrived: dict[int, KVArray | WorkerTaskError] = {}
        self._discarded: set[int] = set()
        self.closed = False

    # ------------------------------------------------------------- submission

    def _offloadable(self, kv: KVArray, op: ReduceOp) -> bool:
        return (not self.closed
                and len(kv) >= self.inline_records
                and is_builtin_op(op)
                and not kv.values.dtype.hasobject)

    def submit(self, kv: KVArray, op: ReduceOp, runs: int = 0) -> int:
        """Queue one sort-reduce task — a chunk sort, or with ``runs`` a merge
        of that many concatenated sorted runs; returns a ticket for
        :meth:`collect`."""
        ticket = self._next_ticket
        self._next_ticket += 1
        if not self._offloadable(kv, op):
            self._arrived[ticket] = _sort_reduce(kv, op, runs)
            return ticket
        self._tasks.put((ticket, _kv_to_shm(kv), len(kv),
                         kv.values.dtype.str, op.name, runs))
        return ticket

    def submit_chunk_sort(self, chunk: KVArray, op: ReduceOp) -> int:
        """Async in-memory sort-reduce of one unsorted chunk."""
        return self.submit(chunk, op)

    # ------------------------------------------------------------- collection

    def collect(self, ticket: int) -> KVArray:
        """Block until ``ticket``'s result is available and return it."""
        if ticket in self._discarded:
            raise ValueError(f"ticket {ticket} was discarded")
        while ticket not in self._arrived:
            self._pump(block=True)
        result = self._arrived.pop(ticket)
        if isinstance(result, WorkerTaskError):
            raise result
        return result

    def discard(self, ticket: int) -> None:
        """Drop a pending ticket (host error path); frees its result shm
        whenever it arrives.  Host-side only — never touches simulated
        state, so it is safe even while a ``PowerLossError`` unwinds."""
        self._discarded.add(ticket)
        self._arrived.pop(ticket, None)

    def _pump(self, block: bool) -> None:
        """Move one arrived worker result into ``_arrived``.

        A dead worker may have taken the awaited task with it, or died
        holding the task queue's lock, so the others can take nothing more:
        while a ticket is awaited, any dead worker closes the pool
        (:func:`get_pool` then builds a fresh one) and raises.
        """
        try:
            msg = self._results.get(timeout=1.0) if block \
                else self._results.get_nowait()
        except queue.Empty:
            if block and not all(p.is_alive() for p in self._procs):
                self.shutdown(join_timeout_s=1.0)
                raise WorkerTaskError(
                    "a sort-reduce worker died without replying; "
                    "the pool is closed") from None
            return
        ticket, name, n, dtype_str, error = msg
        if ticket in self._discarded:
            self._discarded.discard(ticket)
            if name is not None:
                _kv_from_shm(name, n, dtype_str, unlink=True)
            return
        if error is not None:
            self._arrived[ticket] = WorkerTaskError(
                f"sort-reduce worker failed: {error}")
        else:
            self._arrived[ticket] = _kv_from_shm(name, n, dtype_str,
                                                 unlink=True)

    # --------------------------------------------------- partitioned compute

    def _splitters(self, all_keys: np.ndarray, total: int) -> np.ndarray:
        """Key splitters that cut ``total`` records into worker-sized ranges.

        ``np.partition`` selects the quantile keys without a full sort;
        ``np.unique`` collapses duplicates so a heavily-skewed key never
        appears as two splitters (equal keys must share a range).
        """
        ways = min(self.workers, max(2, total // self.inline_records))
        kth = sorted({len(all_keys) * i // ways for i in range(1, ways)})
        return np.unique(np.partition(all_keys, kth)[kth])

    def sort_reduce_chunk(self, chunk: KVArray, op: ReduceOp) -> KVArray:
        """Sort-reduce one unsorted chunk, key-range-partitioned across
        workers; blocks until done.

        Bitwise-identical to ``sort_reduce_in_memory(chunk, op)``: boolean
        masking preserves each range's original record order, the stable
        sort of a range is the restriction of the stable sort of the chunk,
        and no duplicate-key group crosses a splitter.
        """
        if (len(chunk) < 2 * self.inline_records
                or not self._offloadable(chunk, op)):
            return sort_reduce_in_memory(chunk, op)
        splitters = self._splitters(chunk.keys, len(chunk))
        # Range index per record: range i holds keys in
        # (splitters[i-1], splitters[i]] — any disjoint cover works, as
        # long as equal keys map to the same range.
        sel = np.searchsorted(splitters, chunk.keys, side="right")
        tickets = []
        for i in range(len(splitters) + 1):
            mask = sel == i
            if mask.any():
                tickets.append(self.submit(
                    KVArray._wrap(chunk.keys[mask], chunk.values[mask]), op))
        return self._collect_ranges(tickets)

    def _collect_ranges(self, tickets: list[int]) -> KVArray:
        try:
            outs = [self.collect(t) for t in tickets]
        except BaseException:
            for t in tickets:
                self.discard(t)
            raise
        return KVArray.concat(outs)

    def merge_reduce(self, parts: list[KVArray], op: ReduceOp) -> KVArray:
        """Merge-reduce sorted parts, partitioned by key range across workers.

        Bitwise-identical to the serial
        ``op.reduce_sorted(concat(parts).sorted(runs=len(parts)))``:
        ranges partition the key space, the stable sort of each range is the
        restriction of the stable sort of the whole, and no duplicate-key
        group crosses a splitter, so concatenating range outputs in key
        order reproduces the serial output exactly.
        """
        parts = [p for p in parts if len(p)]
        if not parts:
            raise ValueError("merge_reduce needs at least one non-empty part")
        total = sum(len(p) for p in parts)
        if (total < 2 * self.inline_records
                or not self._offloadable(parts[0], op)):
            return _sort_reduce(KVArray.concat(parts), op, len(parts))
        all_keys = np.concatenate([p.keys for p in parts])
        splitters = self._splitters(all_keys, total)
        tickets = []
        for i in range(len(splitters) + 1):
            slices = []
            for p in parts:
                a = 0 if i == 0 else int(
                    np.searchsorted(p.keys, splitters[i - 1], side="left"))
                b = len(p) if i == len(splitters) else int(
                    np.searchsorted(p.keys, splitters[i], side="left"))
                if b > a:
                    slices.append(p.slice(a, b))
            if slices:
                tickets.append(self.submit(KVArray.concat(slices), op,
                                           runs=len(slices)))
        return self._collect_ranges(tickets)

    # --------------------------------------------------------------- lifecycle

    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        """Stop the workers and free any unclaimed result buffers.

        Escalates until every worker is actually gone: cooperative sentinel
        → ``terminate()`` (SIGTERM) → ``kill()`` (SIGKILL), re-joining after
        each signal.  A worker stuck in uninterruptible state must not leak
        past shutdown — a long-lived serving process would otherwise
        accumulate zombie workers across pool generations.
        """
        if self.closed:
            return
        self.closed = True
        for _ in self._procs:
            self._tasks.put(None)
        deadline = time.monotonic() + join_timeout_s
        for p in self._procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        survivors = [p for p in self._procs if p.is_alive()]
        for p in survivors:
            p.terminate()
        for p in survivors:
            p.join(timeout=1.0)
        for p in survivors:
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
        while True:
            try:
                ticket, name, n, dtype_str, _error = self._results.get_nowait()
            except (queue.Empty, OSError, EOFError):
                break
            if name is not None:
                _kv_from_shm(name, n, dtype_str, unlink=True)
        self._tasks.close()
        self._results.close()
        self._arrived.clear()


# ------------------------------------------------------------------ registry


def resolve_workers(workers: int) -> int:
    """Check a worker count (1 = serial) and return it."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


_POOLS: dict[int, SortReducePool] = {}


def get_pool(workers: int = 1) -> SortReducePool | None:
    """Shared pool for a worker count; ``None`` for the serial path (N=1).

    Pools are keyed by worker count and reused across engines — workers are
    stateless, so sharing is free.  On platforms without ``fork`` the pool
    cannot be built and the serial path is used instead.
    """
    n = resolve_workers(workers)
    if n <= 1:
        return None
    pool = _POOLS.get(n)
    if pool is not None and not pool.closed:
        return pool
    try:
        pool = SortReducePool(n)
    except (ValueError, OSError):
        return None  # no fork start method (or no shm): serial fallback
    _POOLS[n] = pool
    return pool


def shutdown_pools() -> None:
    """Stop every shared pool (registered atexit; callable from tests)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)
