"""Guard rails for simulator performance work.

Wall-clock optimizations (vectorized flash I/O, batched page flushes, numpy
edge gathers) must never change what the simulator *computes*: neither the
functional results nor the simulated-time accounting.  Two layers of guards:

* golden-equivalence property tests pit the vectorized hot paths against
  straightforward scalar reference implementations on randomized patterns;
* sim-clock invariance tests pin the exact ``elapsed_s``/flash-byte/Fig 14
  numbers of fixed workloads, so any accounting drift fails loudly.

If a sim-clock golden here changes, the PR is not a pure perf PR — either
revert the accounting change or update the golden *and* say why in the PR.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro.graph.vertexdata as vertexdata_mod
from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.bfs import run_bfs
from repro.algorithms.cc import run_label_propagation
from repro.algorithms.pagerank import run_pagerank
from repro.baselines import (
    ClusterInMemoryEngine,
    EdgeCentricEngine,
    InMemoryEngine,
    SemiExternalEngine,
    ShardedExternalEngine,
)
from repro.core import backend_for_profile
from repro.core.bloom import BloomFilter
from repro.core.external import ExternalSortReducer
from repro.core.kvstream import KVArray
from repro.core.parallel import SortReducePool
from repro.core.reduce_ops import SUM
from repro.engine.config import make_system
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import FlashDevice, FlashGeometry
from repro.flash.faults import CrashPlan, FaultPlan
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.graph.formats import FlashCSR, coalesce_ranges, coalescing_gap
from repro.graph.vertexdata import VertexArray
from repro.harness import (
    default_root,
    load_dataset,
    run_grafboost_system,
    run_service_cell,
)
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT, SERVER_SSD_ARRAY
from repro.service import demo_quotas, demo_workload

# --------------------------------------------------------------------------
# scalar reference implementations
# --------------------------------------------------------------------------


def reference_coalesce(starts, ends, max_gap):
    """Straightforward one-range-at-a-time coalescing."""
    spans = []
    for s, e in zip(starts, ends):
        s, e = int(s), int(e)
        if e <= s:
            continue
        if spans and s - spans[-1][1] <= max_gap:
            spans[-1][1] = max(spans[-1][1], e)
        else:
            spans.append([s, e])
    return [(s, e) for s, e in spans]


def reference_gather(data, starts, ends):
    """One-range-at-a-time gather from the full backing array."""
    parts = [data[int(s):int(e)] for s, e in zip(starts, ends) if e > s]
    if not parts:
        return np.empty(0, dtype=data.dtype)
    return np.concatenate(parts)


def reference_pages(stream: bytes, page_bytes: int) -> list[bytes]:
    """One-page-at-a-time split of an append stream, tail zero-padded."""
    pages = []
    for start in range(0, len(stream), page_bytes):
        page = stream[start:start + page_bytes]
        pages.append(page + b"\x00" * (page_bytes - len(page)))
    return pages


def random_ranges(rng, n, domain, max_len):
    """Sorted-by-start ranges: overlapping, empty, and adjacent mixed in."""
    starts = np.sort(rng.integers(0, domain, n))
    lengths = rng.integers(0, max_len, n)
    lengths[rng.random(n) < 0.2] = 0  # sprinkle empties
    ends = np.minimum(starts + lengths, domain)
    return starts.astype(np.int64), ends.astype(np.int64)


# --------------------------------------------------------------------------
# golden equivalence: coalesce_ranges
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_coalesce_matches_reference_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    starts, ends = random_ranges(rng, n, domain=5000, max_len=60)
    for gap in (0, 1, 7, 64, 10_000):
        assert coalesce_ranges(starts, ends, gap) == \
            reference_coalesce(starts, ends, gap)


def test_coalesce_edge_patterns():
    cases = [
        ([], []),                          # empty input
        ([5], [5]),                        # single empty range
        ([0], [1]),                        # single element
        ([0, 0, 0], [10, 5, 7]),           # duplicate starts, nested ends
        ([0, 2, 4], [10, 3, 5]),           # ranges swallowed by a big first
        ([0, 10], [10, 20]),               # exactly adjacent
    ]
    for starts, ends in cases:
        s, e = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
        for gap in (0, 1, 5):
            assert coalesce_ranges(s, e, gap) == reference_coalesce(s, e, gap)


# --------------------------------------------------------------------------
# golden equivalence: FlashCSR._gather
# --------------------------------------------------------------------------


def _flash_array(values: np.ndarray):
    clock = SimClock()
    device = FlashDevice(FlashGeometry(4096, 16, 512), GRAFSOFT, clock)
    store = SSDFileSystem(SSD(device))
    store.append_array("g:edges", values)
    store.seal("g:edges")
    fcsr = FlashCSR(store, "g", num_vertices=1, num_edges=len(values))
    return fcsr


@pytest.mark.parametrize("seed", range(6))
def test_gather_matches_reference_random(seed):
    rng = np.random.default_rng(100 + seed)
    data = rng.integers(0, 1 << 40, 20_000).astype("<u8")
    fcsr = _flash_array(data)
    n = int(rng.integers(1, 150))
    starts, ends = random_ranges(rng, n, domain=len(data), max_len=400)
    got = fcsr._gather(fcsr.edge_file, data.dtype, starts, ends).take()
    assert np.array_equal(got, reference_gather(data, starts, ends))
    assert got.flags.writeable
    # wasted_read_bytes is exactly (bytes read in coalesced spans) - (bytes
    # requested) under the same gap the gather used.
    gap = coalescing_gap(fcsr.store, data.dtype.itemsize)
    spans = reference_coalesce(starts, ends, gap)
    span_items = sum(e - s for s, e in spans)
    requested = int(np.maximum(ends - starts, 0).sum())
    assert fcsr.wasted_read_bytes == (span_items - requested) * data.dtype.itemsize


def test_gather_identity_fast_path_matches_reference():
    """Adjacent ranges tiling the file exactly (dense superstep shape)."""
    data = np.arange(4096, dtype="<u8")
    fcsr = _flash_array(data)
    bounds = np.array([0, 1000, 1000, 2500, 4096], dtype=np.int64)
    starts, ends = bounds[:-1], bounds[1:]
    got = fcsr._gather(fcsr.edge_file, data.dtype, starts, ends).take()
    assert np.array_equal(got, reference_gather(data, starts, ends))
    assert got.flags.writeable
    assert fcsr.wasted_read_bytes == 0


def test_gather_eof_straddling_and_single_page():
    data = np.arange(1024, dtype="<u8")  # exactly 2 pages of 4096 B
    fcsr = _flash_array(data)
    for starts, ends in [
        (np.array([1020]), np.array([1024])),   # last items of the file
        (np.array([0]), np.array([3])),         # single-page prefix
        (np.array([510]), np.array([514])),     # straddles the page boundary
        (np.array([0, 5]), np.array([0, 5])),   # all empty
    ]:
        got = fcsr._gather(fcsr.edge_file, data.dtype,
                           starts.astype(np.int64), ends.astype(np.int64)).take()
        assert np.array_equal(got, reference_gather(data, starts, ends))


# --------------------------------------------------------------------------
# golden equivalence: batched page flush (filestore + aoffs)
# --------------------------------------------------------------------------


def _random_append_stream(rng, page_bytes):
    """Append sizes crossing every interesting boundary: sub-page, page-exact,
    multi-page, multi-block, and empty."""
    sizes = []
    for _ in range(int(rng.integers(5, 25))):
        kind = rng.integers(0, 5)
        if kind == 0:
            sizes.append(0)
        elif kind == 1:
            sizes.append(int(rng.integers(1, page_bytes)))
        elif kind == 2:
            sizes.append(page_bytes * int(rng.integers(1, 4)))
        elif kind == 3:
            sizes.append(page_bytes * int(rng.integers(1, 4)) + int(rng.integers(1, page_bytes)))
        else:
            sizes.append(int(rng.integers(1, 6 * page_bytes)))
    return [bytes(rng.integers(0, 256, s, dtype=np.uint8)) for s in sizes]


@pytest.mark.parametrize("fs_kind", ["ssd", "aoffs"])
@pytest.mark.parametrize("seed", range(4))
def test_page_flush_matches_reference(fs_kind, seed):
    rng = np.random.default_rng(200 + seed)
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=128)
    clock = SimClock()
    device = FlashDevice(geometry, GRAFSOFT, clock)
    fs = (SSDFileSystem(SSD(device)) if fs_kind == "ssd"
          else AppendOnlyFlashFS(device))

    fragments = _random_append_stream(rng, geometry.page_bytes)
    for frag in fragments:
        fs.append("f", frag)
    fs.seal("f")
    stream = b"".join(fragments)

    # Full and random partial reads round-trip against the reference stream.
    assert fs.read("f") == stream
    for _ in range(10):
        off = int(rng.integers(0, len(stream) + 1))
        n = int(rng.integers(0, len(stream) - off + 1))
        assert fs.read("f", off, n) == stream[off:off + n]

    # Exactly the pages the scalar reference would program, with the same
    # zero-padded tail, landed on the device.
    ref = reference_pages(stream, geometry.page_bytes)
    assert device.total_pages_written == len(ref)
    if fs_kind == "ssd":
        stored = [device._read_silent(*fs.ssd.ftl.translate(lpn))
                  for lpn in fs._file("f").extents]
    else:
        f = fs._file("f")
        ppb = geometry.pages_per_block
        stored = [device._read_silent(f.extents[i // ppb], i % ppb)
                  for i in range(f.flushed_pages)]
    assert [bytes(p) for p in stored] == ref


# --------------------------------------------------------------------------
# sim-clock invariance: pinned goldens
# --------------------------------------------------------------------------
# These exact values were produced by the pre-vectorization scalar simulator
# and must survive every perf-only PR bit-for-bit.


@pytest.mark.parametrize("faults", [None, FaultPlan()],
                         ids=["no-plan", "zero-rate-plan"])
def test_sim_clock_invariance_external_sort_reduce(faults):
    # The zero-rate FaultPlan variant pins that merely *attaching* the fault
    # layer (with every rate at 0) changes nothing: no RNG draws, no extra
    # latency, bit-identical accounting.
    clock = SimClock()
    device = FlashDevice(FlashGeometry(8192, 32, 2048), GRAFSOFT, clock,
                         faults=faults)
    store = SSDFileSystem(SSD(device))
    backend = backend_for_profile(GRAFSOFT)
    red = ExternalSortReducer(store, SUM, np.float64, backend,
                              chunk_bytes=1 << 18, fanout=4)
    rng = np.random.default_rng(42)
    for _ in range(40):
        red.add(KVArray(rng.integers(0, 5000, 20000).astype(np.uint64),
                        rng.random(20000)))
    out = red.finish()

    assert red.stats.written_fractions() == [0.29457, 0.07499875, 0.01875, 0.00625]
    assert clock.elapsed_s == 0.1007425589028993
    assert clock.bytes_moved("flash") == 10567680
    result = out.read_all()
    assert len(result) == 5000
    assert result.is_strictly_sorted()
    assert float(result.values.sum()) == pytest.approx(399794.22426748613, abs=1e-6)


@pytest.mark.parametrize("system,golden_elapsed,golden_flash", [
    ("GraFSoft", 0.020262423304451636, 19759104),
    ("GraFBoost", 0.006711056717236828, 9875456),
])
@pytest.mark.parametrize("faults", [None, FaultPlan()],
                         ids=["no-plan", "zero-rate-plan"])
def test_sim_clock_invariance_pagerank(system, golden_elapsed, golden_flash,
                                       faults):
    graph = load_dataset("kron30", scale=1 / 65536, seed=7)
    result = run_grafboost_system(system, graph, "pagerank", scale=1 / 65536,
                                  dataset="kron30", pagerank_iterations=2,
                                  faults=faults, mode="sortreduce")
    assert result.elapsed_s == golden_elapsed
    assert result.flash_bytes == golden_flash
    assert result.traversed_edges == 521983
    if faults is not None:
        assert result.corrected_bit_errors == 0
        assert result.read_retries == 0
        assert result.retired_blocks == 0


# --------------------------------------------------------------------------
# sanitizer invariance: FlashSan must be a pure observer
# --------------------------------------------------------------------------
# FlashSan never charges the clock and never draws randomness, so attaching
# it must reproduce the unsanitized goldens bit-for-bit.


@pytest.mark.parametrize("system,golden_elapsed,golden_flash", [
    ("GraFSoft", 0.020262423304451636, 19759104),
    ("GraFBoost", 0.006711056717236828, 9875456),
])
def test_sanitized_pagerank_bit_identical(system, golden_elapsed,
                                          golden_flash):
    graph = load_dataset("kron30", scale=1 / 65536, seed=7)
    result = run_grafboost_system(system, graph, "pagerank", scale=1 / 65536,
                                  dataset="kron30", pagerank_iterations=2,
                                  sanitize=True, mode="sortreduce")
    assert result.elapsed_s == golden_elapsed
    assert result.flash_bytes == golden_flash
    assert result.traversed_edges == 521983


@pytest.mark.parametrize("system", ["GraFBoost", "GraFSoft"])
def test_sanitized_bfs_bit_identical(system):
    graph = load_dataset("kron30", scale=1 / 65536, seed=7)
    plain = run_grafboost_system(system, graph, "bfs", scale=1 / 65536,
                                 dataset="kron30", sanitize=False)
    sanitized = run_grafboost_system(system, graph, "bfs", scale=1 / 65536,
                                     dataset="kron30", sanitize=True)
    assert sanitized.elapsed_s == plain.elapsed_s
    assert sanitized.flash_bytes == plain.flash_bytes
    assert sanitized.traversed_edges == plain.traversed_edges
    assert sanitized.supersteps == plain.supersteps


# --------------------------------------------------------------------------
# parallel sort-reduce invariance: --workers N is bit-identical to serial
# --------------------------------------------------------------------------
# The worker pool only parallelizes pure numpy compute; every store write,
# clock charge and stats record replays the serial order on the main
# process.  These tests enforce that contract end to end: the same pinned
# goldens as above, for every worker count.


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_sim_clock_invariance_external_sort_reduce_parallel(workers):
    clock = SimClock()
    device = FlashDevice(FlashGeometry(8192, 32, 2048), GRAFSOFT, clock)
    store = SSDFileSystem(SSD(device))
    backend = backend_for_profile(GRAFSOFT)
    pool = SortReducePool(workers)
    try:
        red = ExternalSortReducer(store, SUM, np.float64, backend,
                                  chunk_bytes=1 << 18, fanout=4, pool=pool)
        rng = np.random.default_rng(42)
        for _ in range(40):
            red.add(KVArray(rng.integers(0, 5000, 20000).astype(np.uint64),
                            rng.random(20000)))
        out = red.finish()
    finally:
        pool.shutdown()

    # Exactly the serial goldens, bit for bit.
    assert red.stats.written_fractions() == [0.29457, 0.07499875, 0.01875, 0.00625]
    assert clock.elapsed_s == 0.1007425589028993
    assert clock.bytes_moved("flash") == 10567680
    result = out.read_all()
    assert len(result) == 5000
    assert result.is_strictly_sorted()
    assert float(result.values.sum()) == pytest.approx(399794.22426748613, abs=1e-6)


def _run_algorithm_with_workers(algorithm: str, workers: int):
    graph = load_dataset("kron30", scale=1 / 65536, seed=7)
    system = make_system("grafsoft", 1 / 65536,
                         num_vertices_hint=graph.num_vertices, workers=workers)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    if algorithm == "pagerank":
        result = run_pagerank(engine, graph.num_vertices, 2)
    elif algorithm == "bfs":
        result = run_bfs(engine, default_root(graph))
    else:
        result = run_label_propagation(engine)
    return (result.final_values(), result.elapsed_s,
            system.clock.bytes_moved("flash"),
            [s.to_dict() for s in result.sort_stats])


@pytest.mark.parametrize("algorithm", ["pagerank", "bfs", "cc"])
def test_worker_sweep_bit_identical(algorithm):
    base_values, base_elapsed, base_flash, base_stats = \
        _run_algorithm_with_workers(algorithm, 1)
    for workers in (2, 4, 8):
        values, elapsed, flash, stats = \
            _run_algorithm_with_workers(algorithm, workers)
        assert np.array_equal(values, base_values), (algorithm, workers)
        assert elapsed == base_elapsed, (algorithm, workers)
        assert flash == base_flash, (algorithm, workers)
        assert stats == base_stats, (algorithm, workers)


def test_crash_recovery_bit_identical_under_parallel_merge():
    """Power loss mid sort-reduce with workers in flight: the crash →
    remount → resume loop must land on the same bits as the serial run."""
    graph = load_dataset("kron30", scale=1 / 65536, seed=7)
    # Count device ops on an uninterrupted run to aim the crash inside the
    # engine run (past graph load), then crash both a serial and a parallel
    # run at the same op index.
    system = make_system("grafsoft", 1 / 65536,
                         num_vertices_hint=graph.num_vertices,
                         crashes=CrashPlan(crashes=0))
    flash_graph = system.load_graph(graph)
    load_ops = system.device.crashes.op_index
    engine = system.engine_for(flash_graph, graph.num_vertices)
    clean = run_pagerank(engine, graph.num_vertices, 2)
    total_ops = system.device.crashes.op_index
    plan_ops = (load_ops + (total_ops - load_ops) // 2,)

    def crashed(workers):
        return run_grafboost_system(
            "GraFSoft", graph, "pagerank", scale=1 / 65536,
            crashes=CrashPlan(at_ops=plan_ops, torn_write_p=0.5),
            checkpoint_every=1, pagerank_iterations=2, workers=workers)

    serial = crashed(1)
    parallel = crashed(4)
    assert serial.completed and parallel.completed
    assert serial.power_losses == parallel.power_losses == 1
    assert np.array_equal(parallel.final_values, serial.final_values)
    assert parallel.elapsed_s == serial.elapsed_s
    assert parallel.flash_bytes == serial.flash_bytes
    assert parallel.remounts == serial.remounts
    assert np.array_equal(serial.final_values, clean.final_values())


# --------------------------------------------------------------------------
# durable stacks: simulated time is a function of the job alone
# --------------------------------------------------------------------------
# A durable store journals file names, so a name's digit count is journal
# bytes.  Names come from the store's own sequence, so neither earlier jobs
# nor other stores in the process may move a job's simulated time.


def _name_files_elsewhere() -> None:
    """What earlier jobs leave behind in a process: sort-reducers and vertex
    arrays named on a store of their own."""
    store = AppendOnlyFlashFS(FlashDevice(
        FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=64),
        GRAFSOFT, SimClock()))
    backend = backend_for_profile(GRAFSOFT)
    for _ in range(10_000):
        ExternalSortReducer(store, SUM, np.float64, backend, chunk_bytes=1024)
        VertexArray(store, 1, np.float64, 0.0)


DURABLE_SCALE = 1 / 65536
DURABLE_JOBS = {
    "GraFSoft-pagerank-checkpointed": lambda graph: run_grafboost_system(
        "GraFSoft", graph, "pagerank", scale=DURABLE_SCALE, durable=True,
        checkpoint_every=1, pagerank_iterations=2),
    "GraFBoost-bfs": lambda graph: run_grafboost_system(
        "GraFBoost", graph, "bfs", scale=DURABLE_SCALE, durable=True),
    "service-demo": lambda graph: run_service_cell(
        "GraFBoost", graph, demo_workload(), scale=DURABLE_SCALE,
        quotas=demo_quotas()),
}


@pytest.mark.parametrize("job", sorted(DURABLE_JOBS))
def test_durable_job_reruns_bit_identical(job):
    graph = load_dataset("kron30", scale=DURABLE_SCALE, seed=7)
    first = DURABLE_JOBS[job](graph)
    _name_files_elsewhere()
    again = DURABLE_JOBS[job](graph)
    assert again.elapsed_s == first.elapsed_s
    assert again.flash_bytes == first.flash_bytes


def test_sanitizer_actually_observed_the_run():
    """Guard against the invariance tests passing because the sanitizer was
    silently detached: a sanitized system run performs shadow checks."""
    from repro.algorithms.pagerank import run_pagerank
    from repro.engine.config import make_system

    graph = load_dataset("kron30", scale=1 / 65536, seed=7)
    system = make_system("grafboost", 1 / 65536,
                         num_vertices_hint=graph.num_vertices, sanitize=True)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    run_pagerank(engine, graph.num_vertices, 1)
    sanitizer = system.device.sanitizer
    assert sanitizer is not None
    assert sanitizer.pages_checked > 0


# --------------------------------------------------------------------------
# vertex-data read path: pinned goldens
# --------------------------------------------------------------------------
# Recorded on the commit before the read side of graph/vertexdata.py was
# vectorised.  The layered benchmark bounds sim_elapsed_s at 5 %; one skipped
# or extra overlay read is a 1e-4 effect, so it is pinned here exactly.


def _bfs_fingerprint(result) -> str:
    rows = [[s.activated, s.traversed_edges, s.reduced_pairs]
            for s in result.superstep_metrics]
    return hashlib.sha1(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize(
    "system,golden_elapsed,golden_flash,golden_supersteps,golden_fingerprint", [
        ("GraFBoost", 0.09376059032136268, 208744448, 916,
         "88cd1a8cedf4a7ff74f0bced447420c04c5a1bde"),
        ("GraFSoft", 0.6933206309136102, 4047642624, 916,
         "88cd1a8cedf4a7ff74f0bced447420c04c5a1bde"),
    ])
def test_sim_clock_invariance_wdc_bfs(system, golden_elapsed, golden_flash,
                                      golden_supersteps, golden_fingerprint):
    """~900 supersteps of overlay lookups, bloom skips and compactions, on
    AOFFS (GraFBoost) and on the FTL-backed file system (GraFSoft)."""
    graph = load_dataset("wdc", scale=1 / 65536, seed=7)
    result = run_grafboost_system(system, graph, "bfs", scale=1 / 65536,
                                  dataset="wdc", mode="sortreduce")
    assert result.completed
    assert result.elapsed_s == golden_elapsed
    assert result.flash_bytes == golden_flash
    assert result.supersteps == golden_supersteps
    assert _bfs_fingerprint(result) == golden_fingerprint


def _cursor_script(store, record_reads):
    """A fixed multi-call cursor workout over a materialised base plus four
    overlays; returns every ``store.read`` it caused, in order, and the
    slice of them that the five ``cursor.lookup`` calls issued."""
    def stage(array, keys, step):
        keys = np.asarray(keys, dtype=np.uint64)
        array.stage(KVArray(keys, keys * np.uint64(10) + np.uint64(step)), step)

    calls = record_reads(store)
    array = VertexArray(store, 60_000, np.uint64, np.uint64(999),
                        prefix="golden", max_overlays=16)
    stage(array, range(0, 60_000, 5), 0)
    array.compact()                              # materialise the base
    stage(array, range(10, 50_000, 370), 1)      # wide and sparse, 3 chunks
    stage(array, range(20_000, 20_300), 2)       # narrow and dense
    stage(array, [7, 20_100, 59_999], 3)         # range covers everything
    stage(array, range(45_000, 45_100, 2), 4)
    cursor = array.cursor()
    first_lookup_read = len(calls)
    for keys in (
        [3, 7, 10, 380],
        [380, 750, 1999, 5000],                  # repeats the boundary key
        np.arange(20_000, 20_400),               # > 256 in range: no bloom probe
        [20_400, 20_400, 36_000, 52_000],        # duplicates; three base spans
        [52_001, 59_998, 59_999],
    ):
        cursor.lookup(np.asarray(keys, dtype=np.uint64))
    lookup_reads = calls[first_lookup_read:]
    array.read_values(np.array([5, 15_000, 30_000, 45_050], dtype=np.uint64))
    array.final_values()
    return calls, lookup_reads


def _digest(calls) -> str:
    return hashlib.sha1(json.dumps(calls).encode()).hexdigest()


#: The reads of the five ``cursor.lookup`` calls of :func:`_cursor_script`,
#: around the fourth call's base gather (which depends on the profile's
#: coalescing gap).  overlay-4 is never read: the bloom filter rejects every
#: probe.
_LOOKUP_READS_HEAD = [
    ("golden:base-1", 48, 6048), ("golden:overlay-1", 0, 1536),
    ("golden:overlay-3", 0, 72),
    ("golden:base-1", 6080, 73936),
    ("golden:base-1", 320000, 6400),
    ("golden:overlay-2", 0, 1536), ("golden:overlay-2", 1536, 1536),
    ("golden:overlay-2", 3072, 1536), ("golden:overlay-2", 4608, 1536),
    ("golden:overlay-2", 6144, 1056),
]
_LOOKUP_READS_TAIL = [
    ("golden:overlay-1", 1536, 1536), ("golden:overlay-1", 3072, 192),
    ("golden:base-1", 832016, 127984),
]


@pytest.mark.parametrize(
    "fs_kind,fourth_base_gather,golden_count,golden_digest,golden_elapsed", [
        # GraFBoost's gap (12 079 records) splits keys 20 400 / 36 000 /
        # 52 000 into three spans; GraFSoft's (48 318) keeps them in one.
        ("aoffs", [("golden:base-1", 326400, 16), ("golden:base-1", 576000, 16),
                   ("golden:base-1", 832000, 16)],
         222, "f91b7eb43b99ad1875b4e3f62a691d142a1c9209", 0.021660117085774692),
        ("ssd", [("golden:base-1", 326400, 505616)],
         217, "a3a80e6bc7ab6dd41a52c5ce05d227e6db21c809", 0.05147498189290331),
    ])
def test_cursor_read_sequence_golden(monkeypatch, record_reads, fs_kind,
                                     fourth_base_gather, golden_count,
                                     golden_digest, golden_elapsed):
    monkeypatch.setattr(vertexdata_mod, "SCAN_CHUNK_RECORDS", 64)
    clock = SimClock()
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=1024)
    if fs_kind == "aoffs":
        store = AppendOnlyFlashFS(FlashDevice(geometry, GRAFBOOST, clock))
    else:
        store = SSDFileSystem(SSD(FlashDevice(geometry, GRAFSOFT, clock)))
    calls, lookup_reads = _cursor_script(store, record_reads)
    assert lookup_reads == (_LOOKUP_READS_HEAD + fourth_base_gather
                            + _LOOKUP_READS_TAIL)
    assert len(calls) == golden_count
    assert _digest(calls) == golden_digest
    assert clock.elapsed_s == golden_elapsed


def test_bloom_bits_golden():
    bloom = BloomFilter(640, 3)
    bloom.add(np.arange(3, 3 + 64 * 11, 11, dtype=np.uint64))
    assert bloom._bits.tobytes().hex() == (
        "2144040048c00016881235122e844550020d8ed960aa808502880440e09445402a040168"
        "40100c6020400c868000c6a08383c248002001820885020ae570025358431004084e4580"
        "100892890050360a")


# --------------------------------------------------------------------------
# every execution strategy: pinned goldens
# --------------------------------------------------------------------------
# The goldens above pin absolute numbers only for mode="sortreduce", lazy.
# These were recorded on the commit before engine/ was consolidated into one
# superstep loop, for the strategies that consolidation rewrites: Algorithm 2
# (lazy=False), the semi-external and dense-scan modes, and the betweenness
# backtrace.  kron30 @ 1/65536, seed 7; BFS activates the same frontier under
# every strategy.

_BFS_ACTIVATED = [1, 1, 422, 8265, 2316, 36, 0]
_PAGERANK_ACTIVATED = [16384, 11050]


def _strategy_run(kind, algorithm, mode="sortreduce", lazy=True):
    graph = load_dataset("kron30", scale=1 / 65536, seed=7)
    system = make_system(kind, 1 / 65536, num_vertices_hint=graph.num_vertices,
                         mode=mode)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices, lazy=lazy)
    if algorithm == "pagerank":
        result = run_pagerank(engine, graph.num_vertices, 2)
    elif algorithm == "bfs":
        result = run_bfs(engine, default_root(graph))
    else:
        result = run_betweenness_centrality(engine, default_root(graph))
    return result, system.clock.bytes_moved("flash")


@pytest.mark.parametrize("kind,golden_elapsed,golden_flash", [
    ("grafsoft", 0.01800202051507097, 61366272),
    ("grafboost", 0.004437884881746925, 8228864),
])
def test_sim_clock_invariance_eager_bfs(kind, golden_elapsed, golden_flash):
    """Algorithm 2: the active list A_i is written and read back."""
    result, flash = _strategy_run(kind, "bfs", lazy=False)
    assert result.elapsed_s == golden_elapsed
    assert flash == golden_flash
    assert [s.activated for s in result.supersteps] == _BFS_ACTIVATED


@pytest.mark.parametrize("mode,algorithm,golden_elapsed,golden_flash", [
    ("semiexternal", "pagerank", 0.017783634334140333, 9420800),
    ("semiexternal", "bfs", 0.016690191387600348, 56025088),
    ("densescan", "pagerank", 0.020262423304451667, 19759104),
    ("densescan", "bfs", 0.01192108667718039, 22405120),
])
def test_sim_clock_invariance_static_modes(mode, algorithm, golden_elapsed,
                                           golden_flash):
    result, flash = _strategy_run("grafsoft", algorithm, mode=mode)
    assert result.elapsed_s == golden_elapsed
    assert flash == golden_flash
    assert result.mode_trace == [mode] * result.num_supersteps
    assert [s.activated for s in result.supersteps] == (
        _PAGERANK_ACTIVATED if algorithm == "pagerank" else _BFS_ACTIVATED)


@pytest.mark.parametrize(
    "kind,golden_forward,golden_backtrace,golden_flash", [
        ("grafsoft", 0.01790268457757097, 0.0004255283196766928, 61407232),
        ("grafboost", 0.0042973333782475795, 0.00014528896159871248, 8249344),
    ])
def test_sim_clock_invariance_bc(kind, golden_forward, golden_backtrace,
                                 golden_flash):
    """Forward BFS, then one sort-reduce per BFS-tree level, deepest first."""
    result, flash = _strategy_run(kind, "bc")
    assert result.forward.elapsed_s == golden_forward
    assert result.backtrace_elapsed_s == golden_backtrace
    assert flash == golden_flash
    assert [s.activated for s in result.forward.supersteps] == _BFS_ACTIVATED
    assert [s.to_dict()["phases"] for s in result.backtrace_stats] == [
        [[0, 36, 35]], [[0, 2316, 1403]], [[0, 8265, 672], [1, 672, 354]],
        [[0, 422, 1]], [[0, 1, 1]]]
    assert float(result.centrality.sum()) == 35084.0


# --------------------------------------------------------------------------
# baseline strategy models: pinned goldens
# --------------------------------------------------------------------------
# The figure files pin baselines only as 2-decimal ratios.  These pin each
# model's absolute numbers, recorded before the five models were folded into
# one driver: every model x algorithm on a roomy machine, on a tight-DRAM one
# (FlashGraph thrashes or refuses, X-Stream partitions, GraphLab refuses), on
# WDC with a patience that cuts the long traversals off, and on kron28; plus
# FlashGraph refusing kron32 for its id space.

_BASELINE_MODELS = {cls.name: cls for cls in (
    InMemoryEngine, ClusterInMemoryEngine, SemiExternalEngine,
    EdgeCentricEngine, ShardedExternalEngine)}


def _baseline_case(system, algorithm, case):
    """Run one model on one case; returns every pinned number, floats as repr."""
    scale = 2.0 ** -17 if case == "wdc" else 2.0 ** -16
    dataset = {"wdc": "wdc", "kron28": "kron28", "idspace": "kron32"}.get(
        case, "twitter")
    graph = load_dataset(dataset, scale=scale, seed=1)
    profile = SERVER_SSD_ARRAY.scaled(scale)
    if case == "tight":
        profile = profile.with_dram(int(graph.num_vertices * 16 * 0.95))
    kwargs = {"cutoff_s": 0.05} if case == "wdc" else {}
    if case == "idspace":
        kwargs["max_vertices"] = int(2 ** 32 * scale) - 1
    engine = _BASELINE_MODELS[system](graph, profile, **kwargs)
    root = default_root(graph)
    if algorithm == "pagerank":
        result = engine.run_pagerank(iterations=2)
    elif algorithm == "bfs":
        result = engine.run_bfs(root)
    else:
        result = engine.run_bc(root)
    digest = ("" if result.values is None
              else hashlib.sha256(result.values.tobytes()).hexdigest())
    return (result.completed, repr(result.elapsed_s), result.supersteps,
            result.traversed_edges, result.dnf_reason, result.peak_memory,
            repr(result.cpu_busy_s), result.flash_bytes,
            repr(engine.clock.elapsed_s), digest)


_BASELINE_GOLDENS = {
    ('GraphLab', 'bfs', 'roomy'): (
        True, '0.00020980173667271935', 5, 22445, '', 1865080,
        '0.005794652303059897', 185008, '0.00020980173667271935',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('GraphLab', 'pagerank', 'roomy'): (
        True, '0.0002994272541999817', 2, 45000, '', 1865080,
        '0.008662668863932292', 185008, '0.0002994272541999817',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('GraphLab', 'bc', 'roomy'): (
        True, '0.00021220976432164513', 5, 22445, '', 1865080,
        '0.005871709187825522', 185008, '0.00021220976432164513',
        'b8a0671a1beda49d5a47f3e988071f148d89e0c44e1502dbc77e20c696bddcd7'),
    ('GraphLab5', 'bfs', 'roomy'): (
        True, '0.0051021676864140275', 5, 22445, '', 1865080,
        '0.005794652303059897', 37001, '0.0051021676864140275',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('GraphLab5', 'pagerank', 'roomy'): (
        True, '0.002184279217823692', 2, 45000, '', 1865080,
        '0.008662668863932292', 37001, '0.002184279217823692',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('GraphLab5', 'bc', 'roomy'): (
        True, '0.006102649291943813', 5, 22445, '', 1865080,
        '0.005871709187825522', 37001, '0.006102649291943813',
        'b8a0671a1beda49d5a47f3e988071f148d89e0c44e1502dbc77e20c696bddcd7'),
    ('FlashGraph', 'bfs', 'roomy'): (
        True, '0.00035846154054005935', 5, 22445, '', 5000,
        '0.004365984598795572', 1435952, '0.0003594890681902567',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('FlashGraph', 'pagerank', 'roomy'): (
        True, '0.00038246496836344407', 2, 45000, '', 10000,
        '0.008678436279296875', 725008, '0.0003837408487002055',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('FlashGraph', 'bc', 'roomy'): (
        True, '0.00036086956818898527', 5, 22445, '', 25000,
        '0.004474830627441404', 1435952, '0.0003628905065854391',
        'b8a0671a1beda49d5a47f3e988071f148d89e0c44e1502dbc77e20c696bddcd7'),
    ('X-Stream', 'bfs', 'roomy'): (
        True, '0.0007232096950213115', 5, 22445, '', 2097152,
        '0.01643689473470052', 1350000, '0.0007232096950213115',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('X-Stream', 'pagerank', 'roomy'): (
        True, '0.0005755610132217407', 2, 45000, '', 2097152,
        '0.015735626220703125', 540000, '0.0005755610132217407',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('X-Stream', 'bc', 'roomy'): (
        True, '0.0012728586117426556', 5, 22445, '', 2097152,
        '0.027319844563802084', 2700000, '0.0012728586117426556',
        'b8a0671a1beda49d5a47f3e988071f148d89e0c44e1502dbc77e20c696bddcd7'),
    ('GraphChi', 'bfs', 'roomy'): (
        True, '0.004593322610855103', 5, 22445, '', 1048576,
        '0.015020370483398438', 4050000, '0.004593322610855103',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('GraphChi', 'pagerank', 'roomy'): (
        True, '0.001837329044342041', 2, 45000, '', 1048576,
        '0.006008148193359375', 1620000, '0.001837329044342041',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('GraphChi', 'bc', 'roomy'): (
        True, '0.009186645221710206', 5, 22445, '', 1048576,
        '0.030040740966796875', 8100000, '0.009186645221710206',
        'b8a0671a1beda49d5a47f3e988071f148d89e0c44e1502dbc77e20c696bddcd7'),
    ('GraphLab', 'bfs', 'tight'): (
        False, 'nan', 0, 0, 'out of memory: needs 1865080 B of 9500 B DRAM',
        1865080, '0.0', 0, '0.0', ''),
    ('GraphLab', 'pagerank', 'tight'): (
        False, 'nan', 0, 0, 'out of memory: needs 1865080 B of 9500 B DRAM',
        1865080, '0.0', 0, '0.0', ''),
    ('GraphLab', 'bc', 'tight'): (
        False, 'nan', 0, 0, 'out of memory: needs 1865080 B of 9500 B DRAM',
        1865080, '0.0', 0, '0.0', ''),
    ('GraphLab5', 'bfs', 'tight'): (
        False, 'nan', 0, 0, 'out of memory: needs 1865080 B of 47500 B DRAM',
        1865080, '0.0', 0, '0.0', ''),
    ('GraphLab5', 'pagerank', 'tight'): (
        False, 'nan', 0, 0, 'out of memory: needs 1865080 B of 47500 B DRAM',
        1865080, '0.0', 0, '0.0', ''),
    ('GraphLab5', 'bc', 'tight'): (
        False, 'nan', 0, 0, 'out of memory: needs 1865080 B of 47500 B DRAM',
        1865080, '0.0', 0, '0.0', ''),
    ('FlashGraph', 'bfs', 'tight'): (
        True, '0.00035846154054005935', 5, 22445, '', 5000,
        '0.004365984598795572', 1435952, '0.0003594890681902567',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('FlashGraph', 'pagerank', 'tight'): (
        True, '0.000731228682200114', 2, 45000, '', 10000,
        '0.008678436279296875', 2460816, '0.0007325045625368755',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('FlashGraph', 'bc', 'tight'): (
        False, 'nan', 0, 0,
        'vertex state 25000 B exceeds DRAM 9500 B beyond thrashing tolerance',
        25000, '0.0', 0, '0.0', ''),
    ('X-Stream', 'bfs', 'tight'): (
        True, '0.0008904776493708293', 5, 22445, '', 9500,
        '0.01643689473470052', 2068240, '0.0008904776493708293',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('X-Stream', 'pagerank', 'tight'): (
        True, '0.000910853009223938', 2, 45000, '', 9500,
        '0.015735626220703125', 1980000, '0.000910853009223938',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('X-Stream', 'bc', 'tight'): (
        True, '0.0014446812907854714', 5, 22445, '', 9500,
        '0.027319844563802084', 3437632, '0.0014446812907854714',
        'b8a0671a1beda49d5a47f3e988071f148d89e0c44e1502dbc77e20c696bddcd7'),
    ('GraphChi', 'bfs', 'tight'): (
        True, '0.004593322610855103', 5, 22445, '', 4750,
        '0.015020370483398438', 4050000, '0.004593322610855103',
        'a33ca8e74bddb83b01d746e93d53afc9fe251497bcefe5b589e92ddb820a9ffd'),
    ('GraphChi', 'pagerank', 'tight'): (
        True, '0.001837329044342041', 2, 45000, '', 4750,
        '0.006008148193359375', 1620000, '0.001837329044342041',
        'c4988b497e46482b62e9054f8591782d7e16e8d3b93b1811154fbcadee97a2da'),
    ('GraphChi', 'bc', 'tight'): (
        True, '0.009186645221710206', 5, 22445, '', 4750,
        '0.030040740966796875', 8100000, '0.009186645221710206',
        'b8a0671a1beda49d5a47f3e988071f148d89e0c44e1502dbc77e20c696bddcd7'),
    ('GraphLab', 'bfs', 'wdc'): (
        False, 'nan', 0, 0,
        'out of memory: needs 79579632 B of 1048576 B DRAM', 79579632, '0.0',
        0, '0.0', ''),
    ('GraphLab', 'pagerank', 'wdc'): (
        False, 'nan', 0, 0,
        'out of memory: needs 79579632 B of 1048576 B DRAM', 79579632, '0.0',
        0, '0.0', ''),
    ('GraphLab', 'bc', 'wdc'): (
        False, 'nan', 0, 0,
        'out of memory: needs 79579632 B of 1048576 B DRAM', 79579632, '0.0',
        0, '0.0', ''),
    ('GraphLab5', 'bfs', 'wdc'): (
        False, 'nan', 0, 0,
        'out of memory: needs 79579632 B of 5242880 B DRAM', 79579632, '0.0',
        0, '0.0', ''),
    ('GraphLab5', 'pagerank', 'wdc'): (
        False, 'nan', 0, 0,
        'out of memory: needs 79579632 B of 5242880 B DRAM', 79579632, '0.0',
        0, '0.0', ''),
    ('GraphLab5', 'bc', 'wdc'): (
        False, 'nan', 0, 0,
        'out of memory: needs 79579632 B of 5242880 B DRAM', 79579632, '0.0',
        0, '0.0', ''),
    ('FlashGraph', 'bfs', 'wdc'): (
        True, '0.039759171663920075', 458, 964990, '', 183104,
        '0.18725856781006253', 218553096, '0.03979669017672538',
        '12ea3cf60cd02d17d67cf26a1a33f3e49e311d57109bb19f8f9bf56d1333ca02'),
    ('FlashGraph', 'pagerank', 'wdc'): (
        True, '0.02075717234929403', 2, 1929980, '', 366208,
        '0.3716069030761719', 59213000, '0.02080378573616346',
        '47455c736d84b71eee117fc23f9f95efb75b4ef74778504d348c15e7e2aae380'),
    ('FlashGraph', 'bc', 'wdc'): (
        True, '0.03985012040456098', 458, 964990, '', 915520,
        '0.1913330713907908', 218553096, '0.039924018413622794',
        'aa7c973986381ae4637d779baa15042d4d308285ce9b02484a2ccf4fcc0d056f'),
    ('X-Stream', 'bfs', 'wdc'): (
        False, 'nan', 10, 605803, 'exceeded patience of 0s simulated time',
        1048576, '0.0', 0, '0.051589795111020395', ''),
    ('X-Stream', 'pagerank', 'wdc'): (
        True, '0.03906424078385035', 2, 1929980, '', 1048576,
        '0.6748765309651693', 84919120, '0.03906424078385035',
        '47455c736d84b71eee117fc23f9f95efb75b4ef74778504d348c15e7e2aae380'),
    ('X-Stream', 'bc', 'wdc'): (
        False, 'nan', 10, 605803, 'exceeded patience of 0s simulated time',
        1048576, '0.0', 0, '0.051589795111020395', ''),
    ('GraphChi', 'bfs', 'wdc'): (
        False, 'nan', 2, 585, 'exceeded patience of 0s simulated time', 524288,
        '0.0', 0, '0.05579235751152038', ''),
    ('GraphChi', 'pagerank', 'wdc'): (
        False, 'nan', 2, 1929980, 'exceeded patience of 0s simulated time',
        524288, '0.0', 0, '0.05579235751152038', ''),
    ('GraphChi', 'bc', 'wdc'): (
        False, 'nan', 2, 585, 'exceeded patience of 0s simulated time', 524288,
        '0.0', 0, '0.05579235751152038', ''),
    ('GraphLab', 'bfs', 'kron28'): (
        False, 'nan', 0, 0, 'out of memory: needs 5668944 B of 2097152 B DRAM',
        5668944, '0.0', 0, '0.0', ''),
    ('GraphLab', 'pagerank', 'kron28'): (
        False, 'nan', 0, 0, 'out of memory: needs 5668944 B of 2097152 B DRAM',
        5668944, '0.0', 0, '0.0', ''),
    ('GraphLab', 'bc', 'kron28'): (
        False, 'nan', 0, 0, 'out of memory: needs 5668944 B of 2097152 B DRAM',
        5668944, '0.0', 0, '0.0', ''),
    ('GraphLab5', 'bfs', 'kron28'): (
        True, '0.006420020980403044', 6, 64967, '', 5668944,
        '0.017115275065104168', 111412, '0.006420020980403044',
        '752ec83fa442f0edd97105e94d57b2bc2275f109e299ca731c6106517bb23e5e'),
    ('GraphLab5', 'pagerank', 'kron28'): (
        True, '0.0029920187680444856', 2, 131072, '', 5668944,
        '0.025520960489908852', 111412, '0.0029920187680444856',
        '405f10429d7dc4c722f4dcd946e1dc34762282c099ae3c5ae59d11b8df985404'),
    ('GraphLab5', 'bc', 'kron28'): (
        True, '0.00742238370852194', 6, 64967, '', 5668944,
        '0.017493311564127607', 111412, '0.00742238370852194',
        '5fcb5a088a41e302b530f696d082699c40e470a7517e5871ed51aa3b563e3738'),
    ('FlashGraph', 'bfs', 'kron28'): (
        True, '0.001541809105873108', 6, 64967, '', 32768,
        '0.012821528116861979', 7387368, '0.0015485260458787283',
        '752ec83fa442f0edd97105e94d57b2bc2275f109e299ca731c6106517bb23e5e'),
    ('FlashGraph', 'pagerank', 'kron28'): (
        True, '0.0011230487060546876', 2, 131072, '', 65536,
        '0.025625000000000002', 2129928, '0.0011313932502269746',
        '405f10429d7dc4c722f4dcd946e1dc34762282c099ae3c5ae59d11b8df985404'),
    ('FlashGraph', 'bc', 'kron28'): (
        True, '0.0015536227464675904', 6, 64967, '', 163840,
        '0.013407897949218749', 7387368, '0.0015668501031398773',
        '5fcb5a088a41e302b530f696d082699c40e470a7517e5871ed51aa3b563e3738'),
    ('X-Stream', 'bfs', 'kron28'): (
        True, '0.0024206191889444987', 6, 64967, '', 2097152,
        '0.05402196248372396', 4718592, '0.0024206191889444987',
        '752ec83fa442f0edd97105e94d57b2bc2275f109e299ca731c6106517bb23e5e'),
    ('X-Stream', 'pagerank', 'kron28'): (
        True, '0.0016764359537760416', 2, 131072, '', 2097152,
        '0.04583333333333333', 1572864, '0.0016764359537760416',
        '405f10429d7dc4c722f4dcd946e1dc34762282c099ae3c5ae59d11b8df985404'),
    ('X-Stream', 'bc', 'kron28'): (
        True, '0.004348554331461589', 6, 64967, '', 2097152,
        '0.09227803548177084', 9437184, '0.004348554331461589',
        '5fcb5a088a41e302b530f696d082699c40e470a7517e5871ed51aa3b563e3738'),
    ('GraphChi', 'bfs', 'kron28'): (
        True, '0.016054735107421877', 6, 64967, '', 1048576,
        '0.052500000000000005', 14155776, '0.016054735107421877',
        '752ec83fa442f0edd97105e94d57b2bc2275f109e299ca731c6106517bb23e5e'),
    ('GraphChi', 'pagerank', 'kron28'): (
        True, '0.005351578369140625', 2, 131072, '', 1048576, '0.0175',
        4718592, '0.005351578369140625',
        '405f10429d7dc4c722f4dcd946e1dc34762282c099ae3c5ae59d11b8df985404'),
    ('GraphChi', 'bc', 'kron28'): (
        True, '0.03210947021484375', 6, 64967, '', 1048576,
        '0.10500000000000004', 28311552, '0.03210947021484375',
        '5fcb5a088a41e302b530f696d082699c40e470a7517e5871ed51aa3b563e3738'),
    ('FlashGraph', 'bfs', 'idspace'): (
        False, 'nan', 0, 0,
        '65536 vertices exceed the (scaled) vertex id space of 65535', 524288,
        '0.0', 0, '0.0', ''),
    ('FlashGraph', 'pagerank', 'idspace'): (
        False, 'nan', 0, 0,
        '65536 vertices exceed the (scaled) vertex id space of 65535', 1048576,
        '0.0', 0, '0.0', ''),
    ('FlashGraph', 'bc', 'idspace'): (
        False, 'nan', 0, 0,
        '65536 vertices exceed the (scaled) vertex id space of 65535', 2621440,
        '0.0', 0, '0.0', ''),
}


@pytest.mark.parametrize("case", list(_BASELINE_GOLDENS), ids="-".join)
def test_baseline_model_goldens(case):
    assert _baseline_case(*case) == _BASELINE_GOLDENS[case]
