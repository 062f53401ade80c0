"""Shared fixtures: small simulated stacks and graphs for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import FlashDevice, FlashGeometry
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.graph.csr import CSRGraph
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT


SMALL_GEOMETRY = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=256)


@pytest.fixture(autouse=True, scope="session")
def _isolated_dataset_cache(tmp_path_factory):
    """Point the on-disk dataset cache at a per-session tmp dir so tests never
    read or pollute the user's ~/.cache (while still exercising the cache)."""
    import os
    old = os.environ.get("REPRO_DATASET_CACHE")
    os.environ["REPRO_DATASET_CACHE"] = str(tmp_path_factory.mktemp("dataset-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_DATASET_CACHE", None)
    else:
        os.environ["REPRO_DATASET_CACHE"] = old


@pytest.fixture(scope="session")
def record_reads():
    """``record_reads(store)`` starts logging every logical read of one
    store as ``(name, offset, nbytes)`` and returns the live list.  It hooks
    the range-read kernel and logs each span it is handed, so a read is
    logged whichever of ``read``, ``read_array``, ``stream`` and
    ``read_spans`` issued it."""
    def start(store) -> list[tuple[str, int, int]]:
        calls: list[tuple[str, int, int]] = []
        real_read_spans = store._read_spans

        def read_spans(f, item, spans):
            calls.extend((f.name, start * item, (end - start) * item)
                         for start, end in spans)
            return real_read_spans(f, item, spans)

        store._read_spans = read_spans
        return calls
    return start


@pytest.fixture(scope="session")
def reference_from_edges():
    """``CSRGraph.from_edges`` as first written — a stable argsort of the
    sources.  The reference the CSR build is held to, and the code that wrote
    the version-1 dataset-cache entries still on users' disks."""
    def build(src, dst, num_vertices, weights=None) -> CSRGraph:
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src[order].astype(np.int64), minlength=num_vertices)
        offsets = np.zeros(num_vertices + 1, dtype=np.uint64)
        np.cumsum(counts, out=offsets[1:])
        return CSRGraph(num_vertices, offsets, dst[order],
                        None if weights is None else weights[order])
    return build


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def device(clock) -> FlashDevice:
    return FlashDevice(SMALL_GEOMETRY, GRAFSOFT, clock)


@pytest.fixture
def raw_device(clock) -> FlashDevice:
    return FlashDevice(SMALL_GEOMETRY, GRAFBOOST, clock)


@pytest.fixture
def aoffs(raw_device) -> AppendOnlyFlashFS:
    return AppendOnlyFlashFS(raw_device)


@pytest.fixture
def ssd_fs(device) -> SSDFileSystem:
    return SSDFileSystem(SSD(device))


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """A 6-vertex graph with a known structure:

        0 -> 1, 2
        1 -> 3
        2 -> 3
        3 -> 4
        5 is isolated
    """
    src = np.array([0, 0, 1, 2, 3], dtype=np.uint64)
    dst = np.array([1, 2, 3, 3, 4], dtype=np.uint64)
    return CSRGraph.from_edges(src, dst, 6)


@pytest.fixture
def random_graph() -> CSRGraph:
    """A reproducible 500-vertex random multigraph."""
    rng = np.random.default_rng(1234)
    src = rng.integers(0, 500, 4000).astype(np.uint64)
    dst = rng.integers(0, 500, 4000).astype(np.uint64)
    return CSRGraph.from_edges(src, dst, 500)
