"""External sort-reduce over flash files: correctness, stats, space hygiene."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import external
from repro.core.accelerator import AcceleratorBackend, SoftwareBackend
from repro.core.external import ExternalSortReducer
from repro.core.kvstream import KVArray
from repro.core.reduce_ops import FIRST, SUM
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import FlashDevice
from repro.flash.store import is_frozen
from repro.perf.clock import SimClock
from repro.perf.memory import MemoryTracker
from repro.perf.profiles import GRAFBOOST, GRAFSOFT
from tests.support import kv_pairs


def make_reducer(store, op=SUM, dtype=np.float64, chunk_bytes=4096, **kw):
    backend = SoftwareBackend(GRAFSOFT)
    return ExternalSortReducer(store, op, np.dtype(dtype), backend,
                               chunk_bytes, **kw)


def random_updates(n, key_range, seed=0):
    rng = np.random.default_rng(seed)
    return KVArray(rng.integers(0, key_range, n).astype(np.uint64),
                   rng.integers(1, 5, n).astype(np.float64))


def histogram(kv, key_range):
    out = np.zeros(key_range)
    np.add.at(out, kv.keys.astype(np.int64), kv.values)
    return out


def test_single_chunk_sorts_in_memory(aoffs):
    reducer = make_reducer(aoffs, chunk_bytes=1 << 20)
    updates = random_updates(500, 100)
    reducer.add(updates)
    run = reducer.finish()
    out = run.read_all()
    assert out.is_strictly_sorted()
    expected = histogram(updates, 100)
    assert np.allclose(out.values, expected[out.keys.astype(np.int64)])
    # Only one phase: no external merging happened.
    assert [p.phase for p in reducer.stats.phases] == [0]


def test_multi_chunk_external_merge(aoffs):
    reducer = make_reducer(aoffs, chunk_bytes=2048)
    updates = random_updates(20000, 500, seed=1)
    for i in range(0, 20000, 700):
        reducer.add(updates.slice(i, min(20000, i + 700)))
    run = reducer.finish()
    out = run.read_all()
    expected = histogram(updates, 500)
    nonzero = np.flatnonzero(expected)
    assert out.keys.astype(np.int64).tolist() == nonzero.tolist()
    assert np.allclose(out.values, expected[nonzero])
    assert len(reducer.stats.phases) >= 2  # at least one merge level


def test_results_identical_across_backends(aoffs, ssd_fs):
    updates = random_updates(8000, 300, seed=2)
    hardware = ExternalSortReducer(aoffs, SUM, np.float64,
                                   AcceleratorBackend(GRAFBOOST), 2048)
    software = ExternalSortReducer(ssd_fs, SUM, np.float64,
                                   SoftwareBackend(GRAFSOFT), 2048)
    hardware.add(updates)
    software.add(updates)
    out_hw = hardware.finish().read_all()
    out_sw = software.finish().read_all()
    assert np.array_equal(out_hw.keys, out_sw.keys)
    assert np.allclose(out_hw.values, out_sw.values)


def test_first_reduction_keeps_earliest(aoffs):
    reducer = make_reducer(aoffs, op=FIRST, dtype=np.int64, chunk_bytes=2048)
    n = 3000
    keys = np.repeat(np.arange(100, dtype=np.uint64), 30)
    values = np.arange(n, dtype=np.int64)
    reducer.add(KVArray(keys, values))
    out = reducer.finish().read_all()
    # Earliest value for key k is k*30.
    assert np.array_equal(out.values, np.arange(100, dtype=np.int64) * 30)


def test_empty_input(aoffs):
    reducer = make_reducer(aoffs)
    run = reducer.finish()
    assert len(run) == 0
    assert len(run.read_all()) == 0
    assert reducer.stats.written_fractions() == []


def test_temporary_runs_are_deleted(aoffs):
    files_before = set(aoffs.list_files())
    reducer = make_reducer(aoffs, chunk_bytes=2048)
    reducer.add(random_updates(10000, 50, seed=3))
    run = reducer.finish()
    files_after = set(aoffs.list_files())
    # Only the final run file remains.
    assert files_after - files_before == {run.name}
    run.delete()
    assert set(aoffs.list_files()) == files_before


def test_stats_fig14_shape(aoffs):
    # Heavy duplication: fractions after each phase must be non-increasing
    # and end at unique-keys/total.
    reducer = make_reducer(aoffs, chunk_bytes=2048)
    updates = random_updates(30000, 64, seed=4)
    reducer.add(updates)
    run = reducer.finish()
    fractions = reducer.stats.written_fractions()
    assert all(0 < f <= 1 for f in fractions)
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == pytest.approx(len(run) / 30000)
    assert reducer.stats.final_pairs == len(run)


def test_memory_tracker_lifecycle(aoffs):
    memory = MemoryTracker(budget=1 << 20)
    reducer = make_reducer(aoffs, chunk_bytes=4096, memory=memory)
    assert memory.in_use == 4096
    reducer.add(random_updates(100, 10))
    reducer.finish()
    assert memory.in_use == 0


def test_add_after_finish_rejected(aoffs):
    reducer = make_reducer(aoffs)
    reducer.finish()
    with pytest.raises(RuntimeError):
        reducer.add(random_updates(10, 5))
    with pytest.raises(RuntimeError):
        reducer.finish()


def test_dtype_mismatch_rejected(aoffs):
    reducer = make_reducer(aoffs, dtype=np.float64)
    with pytest.raises(ValueError):
        reducer.add(kv_pairs([(1, 2)], np.int64))


def test_chunk_handles_oversized_add(aoffs):
    # A single add() far larger than the chunk buffer is split internally.
    reducer = make_reducer(aoffs, chunk_bytes=4096)
    updates = random_updates(20000, 1000, seed=5)
    reducer.add(updates)
    out = reducer.finish().read_all()
    expected = histogram(updates, 1000)
    assert np.allclose(out.values, expected[out.keys.astype(np.int64)])


def test_a_chunk_inside_one_batch_is_sorted_as_views(aoffs, monkeypatch):
    sorted_chunks, sort = [], external.sort_reduce_in_memory

    def record(chunk, op):
        sorted_chunks.append(chunk)
        return sort(chunk, op)

    monkeypatch.setattr(external, "sort_reduce_in_memory", record)
    reducer = make_reducer(aoffs, chunk_bytes=4096)
    batch = random_updates(1000, 100, seed=9)      # 16 000 B: 3 full chunks
    reducer.add(batch)
    reducer.finish()
    assert [len(c) for c in sorted_chunks] == [256, 256, 256, 232]
    assert all(np.shares_memory(c.keys, batch.keys)
               and np.shares_memory(c.values, batch.values)
               for c in sorted_chunks)


def test_chunk_bytes_validation(aoffs):
    with pytest.raises(ValueError):
        make_reducer(aoffs, chunk_bytes=16)


def test_run_chunks_iteration(aoffs, monkeypatch):
    reducer = make_reducer(aoffs, chunk_bytes=2048)
    updates = random_updates(5000, 2000, seed=6)
    reducer.add(updates)
    run = reducer.finish()
    whole = run.read_all()
    monkeypatch.setattr(external, "MERGE_IO_BYTES", 512)
    streamed = [c for c in run.chunks()]
    assert len(streamed) > 1
    joined = KVArray.concat(streamed)
    assert np.array_equal(joined.keys, whole.keys)
    assert np.allclose(joined.values, whole.values)


def test_a_merge_source_holds_no_copy_of_a_contiguous_read(aoffs, monkeypatch):
    monkeypatch.setattr(external, "MERGE_IO_BYTES", 1 << 16)
    reducer = make_reducer(aoffs, chunk_bytes=1 << 20)
    n = 2 * (1 << 16) // 16                    # two reads of 16-byte records
    reducer.add(KVArray(np.arange(n, dtype=np.uint64), np.ones(n)))
    run = reducer.finish()
    tracemalloc.start()
    try:
        reads = run.reads()
        [first] = next(reads)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Views of the pages the device keeps, and a few objects: no decoded
    # copy (the whole read, 20x the bound), no joined bytes.
    assert not first.keys.flags.writeable and first.keys.base is not None
    assert held <= 0.05 * first.nbytes, f"{held} B held for a {first.nbytes} B read"
    [second] = next(reads)
    assert np.array_equal(np.concatenate([first.keys, second.keys]),
                          np.arange(n, dtype=np.uint64))


def test_a_run_goes_to_flash_as_its_frozen_records(raw_device):
    # Without FlashSan, whose shadow state would be counted too.
    aoffs = AppendOnlyFlashFS(FlashDevice(raw_device.geometry, raw_device.profile,
                                          SimClock(), sanitize=False))
    reducer = make_reducer(aoffs, chunk_bytes=1 << 20)
    run = KVArray(np.arange(1 << 16, dtype=np.uint64), np.ones(1 << 16))
    tracemalloc.start()
    try:
        reducer._write_run(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One array of records, not that array and a byte copy of it.
    assert peak <= 1.1 * run.nbytes, f"traced peak {peak} B for a {run.nbytes} B run"
    [handle] = reducer._runs
    page = aoffs._fetch(aoffs._file(handle.name), [0], [1])[0]
    assert isinstance(page, memoryview) and is_frozen(page.obj)
    assert handle.read_all().keys.tolist() == run.keys.tolist()


def test_clock_advances(aoffs):
    clock = aoffs.device.clock
    reducer = make_reducer(aoffs, chunk_bytes=2048)
    reducer.add(random_updates(20000, 100, seed=7))
    reducer.finish()
    assert clock.elapsed_s > 0
    assert clock.busy_s("cpu") > 0  # software backend charges CPU


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 5000), st.integers(1, 200), st.integers(0, 100))
def test_external_equals_in_memory(n, key_range, seed):
    """External sort-reduce over flash is semantically the paper's simple
    in-memory loop: x[k] = f(x[k], v) for all pairs."""
    from repro.flash.aoffs import AppendOnlyFlashFS
    from repro.flash.device import FlashDevice, FlashGeometry
    from repro.perf.clock import SimClock

    geometry = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=512)
    store = AppendOnlyFlashFS(FlashDevice(geometry, GRAFSOFT, SimClock()))
    updates = random_updates(n, key_range, seed=seed)
    reducer = ExternalSortReducer(store, SUM, np.float64,
                                  SoftwareBackend(GRAFSOFT), chunk_bytes=2048)
    reducer.add(updates)
    out = reducer.finish().read_all()
    expected = histogram(updates, key_range)
    nonzero = np.flatnonzero(expected)
    assert out.keys.astype(np.int64).tolist() == nonzero.tolist()
    assert np.allclose(out.values, expected[nonzero])
    assert reducer.stats.total_input_pairs == n


def sort_reduce_split(kind, op, updates, cuts, as_one_call):
    """Feed ``updates`` to a fresh reducer cut at ``cuts``, as one ``add``
    per piece or as one ``add`` of all the pieces (how ``push`` feeds it);
    returns everything the stream left behind."""
    from repro.flash.aoffs import AppendOnlyFlashFS
    from repro.flash.device import FlashDevice, FlashGeometry
    from repro.flash.filestore import SSDFileSystem
    from repro.flash.ftl import SSD
    from repro.perf.clock import SimClock

    geometry = FlashGeometry(page_bytes=512, pages_per_block=8, num_blocks=1024)
    if kind == "aoffs":
        store = AppendOnlyFlashFS(FlashDevice(geometry, GRAFBOOST, SimClock()))
    else:
        store = SSDFileSystem(SSD(FlashDevice(geometry, GRAFSOFT, SimClock())))
    written = []
    append = store.append

    def recording_append(name, data):
        written.append((name, bytes(data)))
        append(name, data)

    store.append = recording_append
    reducer = ExternalSortReducer(store, op, np.float64,
                                  SoftwareBackend(GRAFSOFT), chunk_bytes=1024,
                                  fanout=3)
    bounds = [0, *sorted(cuts), len(updates)]
    pieces = [updates.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if as_one_call:
        reducer.add(iter(pieces))
    else:
        for piece in pieces:
            reducer.add(piece)
    final = reducer.finish().read_all()
    clock = store.device.clock
    return (written, final.to_records().tobytes(), reducer.stats.to_dict(),
            reducer.stats.total_input_pairs, clock.elapsed_s, dict(clock.usage))


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(["aoffs", "ssd"]),
       op=st.sampled_from([SUM, FIRST]),
       n=st.integers(0, 1500), key_range=st.integers(1, 400),
       seed=st.integers(0, 100), as_one_call=st.booleans(),
       cut_fractions=st.lists(st.integers(0, 1000), max_size=12))
def test_add_splits_do_not_change_anything(kind, op, n, key_range, seed,
                                           as_one_call, cut_fractions):
    """The chunks are cut at ``chunk_bytes`` whatever the ``add`` boundaries:
    the run files (every byte appended, names included), the stats and the
    clock (elapsed time; busy time, bytes and ops of every resource) are
    those of one ``add`` of the whole stream.  FIRST makes arrival order
    visible in the result."""
    updates = random_updates(n, key_range, seed=seed)
    cuts = [n * f // 1000 for f in cut_fractions]
    whole = sort_reduce_split(kind, op, updates, [], False)
    split = sort_reduce_split(kind, op, updates, cuts, as_one_call)
    assert split == whole


# ---------------------------------------------------------- stats aggregation


def test_stats_record_order_independent():
    """Per-phase accumulation is commutative: shuffled record order (as a
    parallel drain may produce) yields identical phases and fractions."""
    from repro.core.external import SortReduceStats

    records = [(0, 100, 40), (1, 70, 30), (0, 50, 20), (2, 30, 10),
               (1, 30, 20), (0, 25, 5)]
    shuffled = [records[i] for i in (3, 0, 5, 1, 4, 2)]
    a, b = SortReduceStats(), SortReduceStats()
    a.total_input_pairs = b.total_input_pairs = 175
    for r in records:
        a.record(*r)
    for r in shuffled:
        b.record(*r)
    assert a.to_dict() == b.to_dict()
    assert a.written_fractions() == b.written_fractions()
    assert [p.phase for p in a.phases] == [0, 1, 2]
    assert a.final_pairs == b.final_pairs == 10
