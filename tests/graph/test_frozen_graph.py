"""A graph on flash without a second copy: ``CSRGraph`` freezes its arrays
and the file store keeps their buffers as the edge pages (DESIGN.md
"Performance of the simulator").  The aliased pages must verify, remount
and sanitize like any other page."""

import tracemalloc

import numpy as np
import pytest

from repro.engine.config import PAGE_BYTES
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import FlashDevice, FlashGeometry, PowerLossError
from repro.flash.faults import CrashPlan, FaultPlan
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.graph.csr import CSRGraph
from repro.graph.formats import FlashCSR
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT

# The engine's page size: the stores' per-page metadata is a share of it.
GEOMETRY = FlashGeometry(page_bytes=PAGE_BYTES, pages_per_block=16,
                         num_blocks=256)
VERTICES = 1000


def make_store(kind: str, durable: bool = False, **device_options):
    if kind == "aoffs":
        return AppendOnlyFlashFS(
            FlashDevice(GEOMETRY, GRAFBOOST, SimClock(), **device_options),
            durable=durable)
    ssd = SSD(FlashDevice(GEOMETRY, GRAFSOFT, SimClock(), **device_options),
              durable=durable)
    return SSDFileSystem(ssd, durable=durable)


def make_graph(edges: int, seed: int = 5) -> CSRGraph:
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(rng.integers(0, VERTICES, edges, dtype=np.uint64),
                               rng.integers(0, VERTICES, edges, dtype=np.uint64),
                               VERTICES)


def check_edges(flash: FlashCSR, graph: CSRGraph) -> None:
    """Every vertex's edges, read back through the index, are the graph's."""
    keys = np.arange(VERTICES, dtype=np.uint64)
    starts, ends = flash.index_lookup(keys)
    assert np.array_equal(flash.edges_for(starts, ends).take(), graph.targets)
    sample = keys[::7]
    starts, ends = flash.index_lookup(sample)
    expected = np.concatenate([graph.neighbors(int(v)) for v in sample])
    assert np.array_equal(flash.edges_for(starts, ends).take(), expected)


def test_graph_arrays_are_read_only(tiny_graph):
    for array in (tiny_graph.offsets, tiny_graph.targets):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    weighted = CSRGraph.from_edges(np.array([0, 1], dtype=np.uint64),
                                   np.array([1, 0], dtype=np.uint64), 2,
                                   np.array([1.0, 2.0], dtype=np.float32))
    with pytest.raises(ValueError, match="read-only"):
        weighted.weights[0] = 3.0


def test_graph_copies_only_memory_that_can_still_change():
    offsets = np.array([0, 2, 3], dtype=np.uint64)
    targets = np.array([1, 0, 0], dtype=np.uint64)
    graph = CSRGraph(2, offsets, targets)
    # Arrays that own their memory are frozen in place, not copied.
    assert graph.offsets is offsets and graph.targets is targets
    buffer = np.array([1, 0, 0, 9], dtype=np.uint64)
    graph = CSRGraph(2, offsets, buffer[:3])     # a view of writable memory
    buffer[:] = 1
    assert graph.targets.tolist() == [1, 0, 0]


@pytest.mark.parametrize("kind", ["aoffs", "ssd"])
def test_write_keeps_the_graph_arrays(kind):
    graph = make_graph(1 << 19)
    store = make_store(kind)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flash = FlashCSR.write(store, "g", graph)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A copy of the edge array alone would be graph.targets.nbytes (4 MiB).
    assert grown < 0.1 * graph.targets.nbytes, f"grew {grown} B"
    check_edges(flash, graph)


@pytest.mark.parametrize("kind", ["aoffs", "ssd"])
def test_aliased_pages_verify_under_faults(kind):
    # Uncorrectable reads escape as silent corruption, so every clean read
    # back is the CRC re-read path repairing an aliased page.
    plan = FaultPlan(seed=13, read_ber=1.2e-4, retry_ber_scale=1.0,
                     read_retry_limit=2, silent_corruption_p=1.0)
    graph = make_graph(40_000)
    store = make_store(kind, faults=plan)
    check_edges(FlashCSR.write(store, "g", graph), graph)
    stats = store.device.faults.stats
    assert stats.checksum_mismatches > 0
    assert stats.checksum_recoveries == stats.checksum_mismatches
    assert np.array_equal(graph.targets, make_graph(40_000).targets)


@pytest.mark.parametrize("kind", ["aoffs", "ssd"])
def test_aliased_pages_survive_a_remount(kind):
    graph = make_graph(40_000)
    probe = make_store(kind, durable=True, crashes=CrashPlan(at_ops=(10**9,)))
    FlashCSR.write(probe, "g", graph)
    at = probe.device.crashes.op_index + 3   # inside the next append
    store = make_store(kind, durable=True,
                       crashes=CrashPlan(at_ops=(at,), torn_write_p=1.0))
    FlashCSR.write(store, "g", graph)
    with pytest.raises(PowerLossError):
        store.append("scratch", bytes(64 * GEOMETRY.page_bytes))
    if kind == "aoffs":
        remounted = AppendOnlyFlashFS(store.device, durable=True)
    else:
        remounted = SSDFileSystem.mount(SSD.mount(store.device))
    check_edges(FlashCSR(remounted, "g", VERTICES, graph.num_edges), graph)


@pytest.mark.parametrize("kind", ["aoffs", "ssd"])
def test_aliased_pages_pass_flashsan(kind):
    graph = make_graph(40_000)
    store = make_store(kind, sanitize=True)
    check_edges(FlashCSR.write(store, "g", graph), graph)
    assert store.device.sanitizer.pages_checked > 0
