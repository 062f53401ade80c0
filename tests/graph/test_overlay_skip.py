"""Overlay skip filters: sparse lookups must not touch irrelevant overlays."""

import numpy as np

from repro.graph.vertexdata import VertexArray
from tests.support import kv_pairs


def kv(pairs):
    return kv_pairs(pairs, np.uint64)


def test_bloom_skips_unrelated_overlays(aoffs):
    array = VertexArray(aoffs, 10_000, np.uint64, np.uint64(0))
    # Forty overlays covering disjoint low key ranges.
    for step in range(40):
        base = step * 100
        array.stage(kv([(base + i, step) for i in range(0, 50, 7)]), step=step)
    reads_before = aoffs.device.total_pages_read
    # A lookup far above every overlay's range: zero flash reads.
    values, _ = array.read_values(np.array([9000, 9500], dtype=np.uint64))
    assert values.tolist() == [0, 0]
    assert aoffs.device.total_pages_read == reads_before


def test_range_overlapping_but_bloom_missing(aoffs):
    array = VertexArray(aoffs, 1000, np.uint64, np.uint64(0))
    # Sparse overlay: keys 0 and 999 (range covers everything).
    array.stage(kv([(0, 1), (999, 2)]), step=0)
    reads_before = aoffs.device.total_pages_read
    # Query a key inside the range but absent: the bloom filter should
    # reject it with high probability (no false negatives guaranteed, so
    # allow at most one spurious read).
    values, _ = array.read_values(np.array([500], dtype=np.uint64))
    assert values.tolist() == [0]
    assert aoffs.device.total_pages_read - reads_before <= 1


def test_dense_scan_reads_all_overlays(aoffs):
    array = VertexArray(aoffs, 2000, np.uint64, np.uint64(0))
    for step in range(4):
        array.stage(kv([(i, step + 1) for i in range(step, 2000, 13)]),
                    step=step)
    final = array.final_values()
    # Last writer wins on collisions.
    assert final[3] == 4  # key 3 written at step 3 (3 % 13 == 3)
    assert final[0] == 1
