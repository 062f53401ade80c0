"""On-flash CSR format: lookups, gathers, streaming, coalescing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import FlashDevice, FlashGeometry
from repro.graph import formats
from repro.graph.csr import CSRGraph
from repro.graph.formats import (
    TARGET_DTYPE,
    FlashCSR,
    coalesce_ranges,
    coalescing_gap,
)
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST
from tests.support import random_weights


def test_coalesce_ranges_merges_close():
    starts = np.array([0, 10, 100])
    ends = np.array([5, 15, 110])
    assert coalesce_ranges(starts, ends, max_gap=5) == [(0, 15), (100, 110)]
    assert coalesce_ranges(starts, ends, max_gap=200) == [(0, 110)]
    assert coalesce_ranges(starts, ends, max_gap=0) == [(0, 5), (10, 15), (100, 110)]


def test_coalesce_skips_empty_ranges():
    assert coalesce_ranges(np.array([3, 5]), np.array([3, 8]), 0) == [(5, 8)]
    assert coalesce_ranges(np.array([]), np.array([]), 10) == []


def test_write_and_lookup(aoffs, random_graph):
    flash = FlashCSR.write(aoffs, "g", random_graph)
    keys = np.array([0, 7, 100, 499], dtype=np.uint64)
    starts, ends = flash.index_lookup(keys)
    for key, start, end in zip(keys, starts, ends):
        assert start == random_graph.offsets[int(key)]
        assert end == random_graph.offsets[int(key) + 1]


def test_edges_for_matches_neighbors(aoffs, random_graph):
    flash = FlashCSR.write(aoffs, "g", random_graph)
    keys = np.unique(np.random.default_rng(0).integers(0, 500, 80)).astype(np.uint64)
    starts, ends = flash.index_lookup(keys)
    edges = flash.edges_for(starts, ends).take()
    expected = np.concatenate([random_graph.neighbors(int(k)) for k in keys])
    assert np.array_equal(edges, expected)


def test_weights_roundtrip(aoffs, random_graph):
    weighted = CSRGraph.from_edges(*random_graph.edge_list(), 500,
                                   random_weights(random_graph.num_edges, seed=1))
    flash = FlashCSR.write(aoffs, "w", weighted)
    keys = np.arange(0, 500, 37, dtype=np.uint64)
    starts, ends = flash.index_lookup(keys)
    weights = flash.weights_for(starts, ends).take()
    offsets = weighted.offsets
    expected = np.concatenate([weighted.weights[offsets[k]:offsets[k + 1]]
                               for k in keys.tolist()])
    assert np.allclose(weights, expected)


def test_weights_for_unweighted_rejected(aoffs, random_graph):
    flash = FlashCSR.write(aoffs, "g", random_graph)
    with pytest.raises(ValueError, match="weights"):
        flash.weights_for(np.array([0]), np.array([1]))


def test_index_lookup_validation(aoffs, random_graph):
    flash = FlashCSR.write(aoffs, "g", random_graph)
    with pytest.raises(ValueError, match="sorted"):
        flash.index_lookup(np.array([5, 3], dtype=np.uint64))
    with pytest.raises(ValueError, match="range"):
        flash.index_lookup(np.array([9999], dtype=np.uint64))
    empty_starts, empty_ends = flash.index_lookup(np.array([], dtype=np.uint64))
    assert len(empty_starts) == 0 and len(empty_ends) == 0


def test_stream_edges_covers_graph(aoffs, random_graph, monkeypatch):
    monkeypatch.setattr(formats, "STREAM_EDGES_PER_CHUNK", 999)
    flash = FlashCSR.write(aoffs, "g", random_graph)
    seen_src, seen_dst = [], []
    for srcs, dsts, weights in flash.stream_edges():
        assert weights is None
        assert len(srcs) == len(dsts)
        seen_src.append(srcs)
        seen_dst.append(dsts)
    src, dst = random_graph.edge_list()
    assert np.array_equal(np.concatenate(seen_src), src)
    assert np.array_equal(np.concatenate(seen_dst), dst)


def test_out_degrees(aoffs, random_graph):
    # The on-flash index gives each vertex's degree as ``ends - starts``.
    flash = FlashCSR.write(aoffs, "g", random_graph)
    starts, ends = flash.index_lookup(np.arange(random_graph.num_vertices, dtype=np.uint64))
    assert np.array_equal(ends - starts, random_graph.out_degrees())


def test_nbytes(aoffs, tiny_graph):
    flash = FlashCSR.write(aoffs, "t", tiny_graph)
    assert flash.nbytes == 7 * 8 + 5 * 8


def test_wasted_bytes_tracked(aoffs, random_graph):
    flash = FlashCSR.write(aoffs, "g", random_graph)
    # Sparse keys far apart: with a large latency gap the reader coalesces
    # and wastes bytes, which must be recorded.
    keys = np.array([0, 250, 499], dtype=np.uint64)
    starts, ends = flash.index_lookup(keys)
    flash.edges_for(starts, ends)
    assert flash.wasted_read_bytes >= 0


def test_reads_charge_flash_time(aoffs, random_graph):
    flash = FlashCSR.write(aoffs, "g", random_graph)
    clock = aoffs.device.clock
    before = clock.elapsed_s
    starts, ends = flash.index_lookup(np.arange(0, 500, 3, dtype=np.uint64))
    flash.edges_for(starts, ends)
    assert clock.elapsed_s > before


# ------------------------------------------------ _gather vs naive slicing

#: With no access latency the coalescing gap is its floor, one 8 KiB flash
#: page = 1024 edge ids, so ranges further apart than that split into spans.
PAGE_GAP_PROFILE = dataclasses.replace(GRAFBOOST, flash_read_latency_s=1e-9)
GATHER_EDGES = 6000


@pytest.fixture(scope="module")
def gather_csr():
    rng = np.random.default_rng(7)
    graph = CSRGraph.from_edges(rng.integers(0, 300, GATHER_EDGES).astype(np.uint64),
                                rng.integers(0, 300, GATHER_EDGES).astype(np.uint64), 300)
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=256)
    store = AppendOnlyFlashFS(FlashDevice(geometry, PAGE_GAP_PROFILE, SimClock()))
    return FlashCSR.write(store, "g", graph), graph.targets


def check_gather(flash, targets, starts, ends):
    """``edges_for`` equals per-range slicing, whole and taken a run of
    ranges at a time, and what it records as wasted is exactly what the
    coalesced spans read beyond the requested edges."""
    item = TARGET_DTYPE.itemsize
    spans = coalesce_ranges(starts, ends, coalescing_gap(flash.store, item))
    wanted = [targets[s:max(s, e)] for s, e in zip(starts.tolist(), ends.tolist())]
    before = flash.wasted_read_bytes
    gather = flash.edges_for(starts, ends)
    got = gather.take()
    assert got.dtype == TARGET_DTYPE
    assert np.array_equal(got, np.concatenate(wanted))
    for step in (1, 2, 5):
        cuts = list(range(0, len(starts), step)) + [len(starts)]
        batched = [gather.take(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        assert all(b.dtype == TARGET_DTYPE for b in batched)
        assert np.array_equal(np.concatenate(batched), got)
    got[:] = 0  # the result is the caller's to overwrite
    assert flash.wasted_read_bytes - before == \
        (sum(e - s for s, e in spans) - len(got)) * item
    return spans


def test_gather_shapes(gather_csr):
    flash, targets = gather_csr
    # Empty, adjacent, overlapping, duplicate and inverted ranges over three
    # spans (the gaps 400→2000 and 2110→5000 exceed one page of edge ids).
    starts = np.array([10, 50, 50, 90, 90, 120, 300, 2000, 2000, 2100, 5000, 5990])
    ends = np.array([50, 50, 90, 200, 200, 110, 400, 2050, 2050, 2110, 5001, 6000])
    assert len(check_gather(flash, targets, starts, ends)) == 3
    # Nothing requested; and the dense identity path (ranges tile one span).
    assert len(flash.edges_for(np.array([5, 9]), np.array([5, 3])).take()) == 0
    tiles = np.arange(0, GATHER_EDGES + 1, 500)
    assert len(check_gather(flash, targets, tiles[:-1], tiles[1:])) == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from([0, 0, 1, 7, 40, 1500]),     # start − previous start
    st.sampled_from([-3, 0, 0, 1, 5, 60, 900])), # length (≤ 0: empty)
    min_size=1, max_size=30))
def test_gather_matches_naive_slices(gather_csr, steps):
    flash, targets = gather_csr
    starts = np.minimum(np.cumsum([d for d, _ in steps]), GATHER_EDGES)
    ends = np.minimum(starts + np.array([n for _, n in steps]), GATHER_EDGES)
    if (ends > starts).any():
        check_gather(flash, targets, starts, ends)
    else:
        assert len(flash.edges_for(starts, ends).take()) == 0


@pytest.mark.parametrize("window", [1, 37, 1000, formats.GATHER_WINDOW_ITEMS])
def test_gather_in_windows_equals_reference_slices(gather_csr, monkeypatch,
                                                   window):
    # Non-adjacent ranges: every one starts past the previous one's end, so
    # take() copies the read a window at a time, not as one block.
    monkeypatch.setattr(formats, "GATHER_WINDOW_ITEMS", window)
    flash, targets = gather_csr
    rng = np.random.default_rng(window)
    for _ in range(20):
        count = int(rng.integers(2, 40))
        lengths = rng.integers(1, 120, count)
        gaps = rng.integers(1, 300, count)
        starts = np.cumsum(gaps) + np.concatenate([[0], np.cumsum(lengths[:-1])])
        keep = starts + lengths <= GATHER_EDGES
        starts, ends = starts[keep], (starts + lengths)[keep]
        check_gather(flash, targets, starts, ends)
