"""Parallel sort-reduce pool: bit-identity with the serial path, inline
fallbacks, error propagation, and merge-failure space hygiene."""

import os
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.accelerator import SoftwareBackend
from repro.core.external import ExternalSortReducer
from repro.core.inmemory import sort_reduce_in_memory
from repro.core.kvstream import KVArray
from repro.core.parallel import (
    SortReducePool,
    WorkerTaskError,
    get_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.core.reduce_ops import FIRST, MIN, SUM, ReduceOp
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import FlashDevice, FlashGeometry
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT


@pytest.fixture(scope="module")
def pool():
    """A low-threshold pool so tiny test inputs actually reach the workers."""
    p = SortReducePool(4, inline_records=64)
    yield p
    p.shutdown()


def random_kv(n, key_range, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return KVArray(rng.integers(0, key_range, n).astype(np.uint64),
                   rng.integers(1, 100, n).astype(dtype))


def serial_merge(parts, op):
    """The exact serial expression the range merge must reproduce."""
    return op.reduce_sorted(KVArray.concat(parts).sorted(runs=len(parts)),
                            presorted=True)


def assert_kv_equal(a: KVArray, b: KVArray):
    assert np.array_equal(a.keys, b.keys)
    assert a.values.dtype == b.values.dtype
    assert np.array_equal(a.values, b.values)


# --------------------------------------------------------------- chunk sorts


@pytest.mark.parametrize("op", [SUM, MIN, FIRST], ids=lambda o: o.name)
def test_chunk_sort_bitwise_identical(pool, op):
    # int64 values tagged by position make FIRST's stability observable.
    dtype = np.int64 if op is FIRST else np.float64
    kv = random_kv(5000, 300, seed=5, dtype=dtype)
    if op is FIRST:
        kv = KVArray(kv.keys, np.arange(5000, dtype=np.int64))
    serial = sort_reduce_in_memory(kv, op)
    out = pool.collect(pool.submit_chunk_sort(kv, op))
    assert_kv_equal(out, serial)


def test_many_inflight_chunk_sorts_collect_fifo(pool):
    chunks = [random_kv(2000, 100, seed=s) for s in range(10)]
    tickets = [pool.submit_chunk_sort(c, SUM) for c in chunks]
    for ticket, chunk in zip(tickets, chunks):
        assert_kv_equal(pool.collect(ticket), sort_reduce_in_memory(chunk, SUM))


# --------------------------------------------------------------- range merge


@pytest.mark.parametrize("op", [SUM, FIRST], ids=lambda o: o.name)
def test_merge_reduce_bitwise_identical(pool, op):
    # Four sorted runs with overlapping key ranges; each run's values encode
    # the run index so FIRST must keep the earliest *run's* value.
    parts = []
    for i in range(4):
        kv = random_kv(1500, 400, seed=20 + i, dtype=np.float64)
        kv = KVArray(kv.keys, np.full(1500, float(i)))
        parts.append(sort_reduce_in_memory(kv, FIRST))
    out = pool.merge_reduce(parts, op)
    assert_kv_equal(out, serial_merge(parts, op))


def test_merge_reduce_duplicate_heavy_degenerate_splitters(pool):
    # Every part holds the same eight keys: np.unique collapses the
    # splitters, so fewer ranges than workers — still bitwise identical.
    parts = [KVArray(np.arange(8, dtype=np.uint64),
                     np.full(8, float(i))) for i in range(6)]
    # Pad one part so the total crosses the offload threshold.
    big = sort_reduce_in_memory(random_kv(600, 8, seed=9), SUM)
    parts.append(big)
    out = pool.merge_reduce(parts, SUM)
    assert_kv_equal(out, serial_merge(parts, SUM))


def test_merge_reduce_single_key(pool):
    parts = [KVArray(np.zeros(200, dtype=np.uint64),
                     np.full(200, float(i))) for i in range(4)]
    out = pool.merge_reduce(parts, SUM)
    assert_kv_equal(out, serial_merge(parts, SUM))


def test_merge_reduce_small_total_runs_inline(pool):
    parts = [KVArray(np.arange(5, dtype=np.uint64),
                     np.ones(5)) for _ in range(3)]
    out = pool.merge_reduce(parts, SUM)
    assert_kv_equal(out, serial_merge(parts, SUM))


def test_merge_reduce_rejects_all_empty(pool):
    with pytest.raises(ValueError):
        pool.merge_reduce([KVArray.empty(np.dtype(np.float64))], SUM)


# ---------------------------------------------------------- inline fallbacks


def test_small_tasks_run_inline(pool):
    kv = random_kv(10, 5, seed=1)
    ticket = pool.submit_chunk_sort(kv, SUM)
    assert_kv_equal(pool.collect(ticket), sort_reduce_in_memory(kv, SUM))


def test_custom_op_shadowing_builtin_name_runs_inline(pool):
    # A user-defined operator named "sum" but computing max: the pool must
    # not ship it by name (the worker would resolve the builtin SUM); the
    # identity check keeps it on the host where its real function runs.
    shadow = ReduceOp("sum", np.maximum)
    kv = random_kv(5000, 50, seed=3)
    out = pool.collect(pool.submit_chunk_sort(kv, shadow))
    expected = sort_reduce_in_memory(kv, shadow)
    assert_kv_equal(out, expected)
    wrong = sort_reduce_in_memory(kv, SUM)
    assert not np.array_equal(out.values, wrong.values)


# ------------------------------------------------------------- error paths


def test_worker_error_propagates(pool):
    # A task naming a shared-memory block that does not exist makes the
    # worker raise; the error must surface as WorkerTaskError on collect.
    ticket = pool._next_ticket
    pool._next_ticket += 1
    pool._tasks.put((ticket, "repro-no-such-shm-block", 8, "<f8", "sum", False))
    with pytest.raises(WorkerTaskError):
        pool.collect(ticket)
    # The pool stays usable after a task failure.
    kv = random_kv(2000, 100, seed=8)
    assert_kv_equal(pool.collect(pool.submit_chunk_sort(kv, SUM)),
                    sort_reduce_in_memory(kv, SUM))


def test_collect_after_discard_raises(pool):
    kv = random_kv(2000, 100, seed=12)
    ticket = pool.submit_chunk_sort(kv, SUM)
    pool.discard(ticket)
    with pytest.raises(ValueError):
        pool.collect(ticket)
    # Later submissions still work (the discarded result is freed on arrival).
    other = pool.submit_chunk_sort(kv, SUM)
    assert_kv_equal(pool.collect(other), sort_reduce_in_memory(kv, SUM))


@contextmanager
def deadline(seconds):
    """Fail the block with ``TimeoutError`` instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_malformed_task_is_reported_and_the_worker_lives():
    p = SortReducePool(2, inline_records=64)
    try:
        ticket = p._next_ticket
        p._next_ticket += 1
        p._tasks.put((ticket, "repro-no-such-shm-block", 8, "<f8", "sum"))
        with deadline(20), pytest.raises(WorkerTaskError, match="ValueError"):
            p.collect(ticket)
        assert all(proc.is_alive() for proc in p._procs)
        kv = random_kv(2000, 100, seed=8)
        with deadline(20):
            assert_kv_equal(p.collect(p.submit_chunk_sort(kv, SUM)),
                            sort_reduce_in_memory(kv, SUM))
    finally:
        p.shutdown()


def test_one_dead_worker_fails_the_wait_and_closes_the_pool(monkeypatch):
    # The live worker never takes the task (as when the dead one held the
    # task queue's lock), so only the dead worker can end the wait.
    import repro.core.parallel as parallel_mod

    def idle_worker(tasks, results):
        time.sleep(600)

    monkeypatch.setattr(parallel_mod, "_worker_main", idle_worker)
    p = SortReducePool(2, inline_records=64)
    monkeypatch.undo()
    parallel_mod._POOLS[2] = p
    try:
        ticket = p.submit_chunk_sort(random_kv(2000, 100, seed=4), SUM)
        os.kill(p._procs[0].pid, signal.SIGKILL)
        with deadline(20), pytest.raises(WorkerTaskError, match="died"):
            p.collect(ticket)
        assert p.closed
        assert not any(proc.is_alive() for proc in p._procs)
        fresh = get_pool(2)
        assert fresh is not p and not fresh.closed
    finally:
        shutdown_pools()


def test_all_workers_dead_raises():
    p = SortReducePool(2, inline_records=64)
    try:
        for proc in p._procs:
            proc.terminate()
            proc.join()
        ticket = p.submit_chunk_sort(random_kv(2000, 100, seed=4), SUM)
        with pytest.raises(WorkerTaskError, match="died"):
            p.collect(ticket)
    finally:
        p.shutdown()


def test_pool_rejects_single_worker():
    with pytest.raises(ValueError):
        SortReducePool(1)


def test_shutdown_kills_hung_workers(monkeypatch):
    # A worker stuck ignoring SIGTERM (simulating uninterruptible state)
    # must still be gone after shutdown: sentinel → terminate → kill.
    import repro.core.parallel as parallel_mod

    def hung_worker(tasks, results):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        while True:
            time.sleep(60)

    monkeypatch.setattr(parallel_mod, "_worker_main", hung_worker)
    p = SortReducePool(2, inline_records=64)
    try:
        p.shutdown(join_timeout_s=0.2)
    finally:
        for proc in p._procs:   # belt and braces if the fix ever regresses
            if proc.is_alive():
                proc.kill()
    assert not any(proc.is_alive() for proc in p._procs)
    assert all(proc.exitcode is not None for proc in p._procs)


# ----------------------------------------------------------------- registry


def test_resolve_workers():
    assert resolve_workers(3) == 3
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_get_pool_serial_and_reuse():
    assert get_pool(1) is None
    first = get_pool(2)
    try:
        assert first is not None
        assert get_pool(2) is first  # keyed by worker count, reused
    finally:
        shutdown_pools()
    assert first.closed


# ------------------------------------------- end-to-end reducer bit-identity


SMALL_GEOMETRY = FlashGeometry(page_bytes=4096, pages_per_block=16,
                               num_blocks=256)


def run_reducer_once(pool, op=SUM, dtype=np.float64):
    clock = SimClock()
    store = AppendOnlyFlashFS(FlashDevice(SMALL_GEOMETRY, GRAFBOOST, clock))
    reducer = ExternalSortReducer(store, op, np.dtype(dtype),
                                  SoftwareBackend(GRAFSOFT), 2048,
                                  fanout=4, pool=pool)
    updates = random_kv(20000, 500, seed=11, dtype=dtype)
    for i in range(0, 20000, 700):
        reducer.add(updates.slice(i, min(20000, i + 700)))
    run = reducer.finish()
    out = run.read_all()
    return out, clock.elapsed_s, reducer.stats.to_dict()


@pytest.mark.parametrize("workers", [2, 4])
def test_reducer_bit_identical_across_worker_counts(workers):
    base_out, base_elapsed, base_stats = run_reducer_once(None)
    p = SortReducePool(workers, inline_records=64)
    try:
        out, elapsed, stats = run_reducer_once(p)
    finally:
        p.shutdown()
    assert_kv_equal(out, base_out)
    assert elapsed == base_elapsed  # bitwise: same charges in the same order
    assert stats == base_stats


def test_reducer_bit_identical_first_op():
    # Non-commutative FIRST end-to-end: chunk order and merge seniority
    # must survive the parallel path exactly.
    base_out, base_elapsed, base_stats = run_reducer_once(
        None, op=FIRST, dtype=np.int64)
    p = SortReducePool(3, inline_records=64)
    try:
        out, elapsed, stats = run_reducer_once(p, op=FIRST, dtype=np.int64)
    finally:
        p.shutdown()
    assert_kv_equal(out, base_out)
    assert elapsed == base_elapsed
    assert stats == base_stats


# ----------------------------------------- merge-failure space hygiene


class ExplodingMerger:
    """StreamingMergeReducer stand-in: writes one batch, then dies."""

    def __init__(self, op, value_dtype, fanout=16, pool=None):
        pass

    def merge(self, sources, sink):
        sink(KVArray(np.array([1], dtype=np.uint64), np.array([1.0])))
        raise RuntimeError("merge died")


@pytest.mark.parametrize("with_pool", [False, True], ids=["serial", "parallel"])
def test_failed_merge_deletes_partial_output(aoffs, monkeypatch, pool,
                                             with_pool):
    # Regression: a merge that raises mid-stream leaves its partially
    # written output run on flash unless _merge_group deletes it — the run
    # is not yet in self._runs, so close() alone never would.
    monkeypatch.setattr("repro.core.external.StreamingMergeReducer",
                        ExplodingMerger)
    files_before = set(aoffs.list_files())
    reducer = ExternalSortReducer(aoffs, SUM, np.dtype(np.float64),
                                  SoftwareBackend(GRAFSOFT), 2048,
                                  pool=pool if with_pool else None)
    reducer.add(random_kv(600, 50, seed=6))  # several chunks, merged in finish
    with pytest.raises(RuntimeError, match="merge died"):
        reducer.finish()
    assert set(aoffs.list_files()) == files_before
