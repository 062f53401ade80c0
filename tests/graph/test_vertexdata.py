"""VertexArray: lazy overlays, cursors, compaction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kvstream import KVArray
from repro.graph import vertexdata
from repro.graph.vertexdata import NEVER, VertexArray
from tests.support import kv_pairs


def kv(pairs):
    return kv_pairs(pairs, np.uint64)


def make_array(store, n=100, default=999, **kw):
    return VertexArray(store, n, np.uint64, np.uint64(default), **kw)


def test_default_values(aoffs):
    array = make_array(aoffs)
    values, steps = array.read_values(np.array([0, 50, 99], dtype=np.uint64))
    assert values.tolist() == [999, 999, 999]
    assert steps.tolist() == [NEVER] * 3


def test_overlay_lookup(aoffs):
    array = make_array(aoffs)
    array.stage(kv([(3, 30), (7, 70)]), step=0)
    values, steps = array.read_values(np.array([2, 3, 7, 8], dtype=np.uint64))
    assert values.tolist() == [999, 30, 70, 999]
    assert steps.tolist() == [NEVER, 0, 0, NEVER]


def test_a_consumed_overlay_read_is_released(aoffs):
    array = make_array(aoffs)
    array.stage(kv([(3, 30), (7, 70), (40, 400)]), step=0)
    cursor = array.cursor()
    cursor.lookup(np.array([3, 7], dtype=np.uint64))
    overlay_cursor = cursor._cursors[0]
    assert overlay_cursor.columns[0].tolist() == [40]
    cursor.lookup(np.array([40, 99], dtype=np.uint64))
    # Every buffered record is consumed: no view of the read is left.
    assert all(column.base is None for column in overlay_cursor.columns)


def test_newer_overlay_wins(aoffs):
    array = make_array(aoffs)
    array.stage(kv([(5, 1), (6, 1)]), step=0)
    array.stage(kv([(5, 2)]), step=1)
    values, steps = array.read_values(np.array([5, 6], dtype=np.uint64))
    assert values.tolist() == [2, 1]
    assert steps.tolist() == [1, 0]


def test_stage_validation(aoffs):
    array = make_array(aoffs)
    with pytest.raises(ValueError, match="sorted"):
        array.stage(kv([(5, 1), (3, 1)]), step=0)
    with pytest.raises(ValueError, match="sorted"):
        array.stage(kv([(5, 1), (5, 2)]), step=0)  # duplicate keys
    with pytest.raises(ValueError, match="range"):
        array.stage(kv([(100, 1)]), step=0)
    with pytest.raises(ValueError, match="dtype"):
        array.stage(kv_pairs([(1, 1.0)], np.float64), step=0)
    array.stage(KVArray.empty(np.uint64), step=0)  # empty is fine, no overlay
    assert array.overlay_depth == 0


def test_compaction_preserves_contents(aoffs):
    array = make_array(aoffs, max_overlays=2)
    array.stage(kv([(1, 10)]), step=0)
    array.stage(kv([(2, 20)]), step=1)
    array.stage(kv([(1, 11), (3, 30)]), step=2)
    assert array.overlay_depth == 3
    assert array.maybe_compact()
    assert array.overlay_depth == 0
    assert array.compactions == 1
    values, steps = array.read_values(np.array([0, 1, 2, 3], dtype=np.uint64))
    assert values.tolist() == [999, 11, 20, 30]
    assert steps.tolist() == [NEVER, 2, 1, 2]
    assert not array.maybe_compact()


def test_final_values_merges_everything(aoffs):
    array = make_array(aoffs, n=50)
    array.stage(kv([(10, 1)]), step=0)
    array.compact()
    array.stage(kv([(10, 2), (20, 3)]), step=1)
    final = array.final_values()
    assert final[10] == 2
    assert final[20] == 3
    assert final[0] == 999


def test_scan_covers_key_space(aoffs, monkeypatch):
    monkeypatch.setattr(vertexdata, "SCAN_KEYS", 16)
    array = make_array(aoffs, n=70)
    array.stage(kv([(69, 7)]), step=0)
    seen = []
    for keys, values, steps in array.scan():
        seen.extend(keys.tolist())
    assert seen == list(range(70))


def test_cursor_monotonicity_enforced(aoffs):
    array = make_array(aoffs)
    cursor = array.cursor()
    cursor.lookup(np.array([10, 20], dtype=np.uint64))
    with pytest.raises(ValueError, match="backwards"):
        cursor.lookup(np.array([5], dtype=np.uint64))
    with pytest.raises(ValueError, match="sorted"):
        array.cursor().lookup(np.array([5, 3], dtype=np.uint64))
    with pytest.raises(ValueError, match="range"):
        array.cursor().lookup(np.array([1000], dtype=np.uint64))


def test_cursor_repeated_boundary_key(aoffs, record_reads):
    """A call may start on the key the previous call ended on.  The overlay
    records behind that key are already discarded, so it is answered from
    the previous call's result — with no additional flash read."""
    array = make_array(aoffs)
    array.stage(kv([(3, 30), (7, 70)]), step=0)
    cursor = array.cursor()
    values, _ = cursor.lookup(np.array([3, 7], dtype=np.uint64))
    assert values.tolist() == [30, 70]
    reads = record_reads(aoffs)
    values, steps = cursor.lookup(np.array([7, 7, 8], dtype=np.uint64))
    assert values.tolist() == [70, 70, 999]
    assert steps.tolist() == [0, 0, NEVER]
    values, steps = cursor.lookup(np.array([8], dtype=np.uint64))
    assert (values.tolist(), steps.tolist()) == ([999], [NEVER])
    assert reads == []


def test_cursor_incremental_lookup(aoffs):
    array = make_array(aoffs, n=1000)
    updates = kv([(i, i * 2) for i in range(0, 1000, 7)])
    array.stage(updates, step=0)
    cursor = array.cursor()
    collected = {}
    for start in range(0, 1000, 100):
        keys = np.arange(start, start + 100, dtype=np.uint64)
        values, _ = cursor.lookup(keys)
        collected.update(zip(keys.tolist(), values.tolist()))
    for i in range(1000):
        assert collected[i] == (i * 2 if i % 7 == 0 else 999)


def test_overlay_writer_chunked(aoffs):
    array = make_array(aoffs, n=200)
    writer = array.overlay_writer(step=3)
    writer.add(kv([(1, 1), (5, 5)]))
    writer.add(kv([(10, 10)]))
    with pytest.raises(ValueError, match="ascending"):
        writer.add(kv([(10, 99)]))
    assert writer.close() == 3
    assert writer.close() == 3  # idempotent
    with pytest.raises(RuntimeError):
        writer.add(kv([(20, 20)]))
    values, steps = array.read_values(np.array([1, 5, 10], dtype=np.uint64))
    assert values.tolist() == [1, 5, 10]
    assert steps.tolist() == [3, 3, 3]


def test_empty_overlay_writer_drops_file(aoffs):
    array = make_array(aoffs)
    files_before = set(aoffs.list_files())
    writer = array.overlay_writer(step=0)
    assert writer.close() == 0
    assert array.overlay_depth == 0
    assert set(aoffs.list_files()) == files_before


def test_overlays_accessor_ordered(aoffs):
    array = make_array(aoffs)
    array.stage(kv([(1, 1)]), step=0)
    array.stage(kv([(2, 2), (3, 3)]), step=1)
    overlays = array.overlays()
    assert len(overlays) == 2
    assert overlays[0].count == 1
    assert overlays[1].count == 2
    assert overlays[1].min_key == 2 and overlays[1].max_key == 3


def test_construction_validation(aoffs):
    with pytest.raises(ValueError):
        VertexArray(aoffs, 0, np.uint64, 0)
    with pytest.raises(ValueError):
        VertexArray(aoffs, 10, np.uint64, 0, max_overlays=0)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.lists(st.tuples(st.integers(0, 49), st.integers(0, 1000)),
                         max_size=20), max_size=6),
       st.booleans())
def test_overlay_semantics_match_dict(stages, compact_midway):
    """V behaves like a plain dict with last-writer-wins semantics."""
    from repro.flash.aoffs import AppendOnlyFlashFS
    from repro.flash.device import FlashDevice, FlashGeometry
    from repro.perf.clock import SimClock
    from repro.perf.profiles import GRAFBOOST

    geometry = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=128)
    store = AppendOnlyFlashFS(FlashDevice(geometry, GRAFBOOST, SimClock()))
    array = VertexArray(store, 50, np.uint64, np.uint64(7))
    expected = {}
    for step, stage in enumerate(stages):
        unique = {}
        for k, v in stage:
            unique[k] = v  # keep last per key, then sort
        pairs = sorted(unique.items())
        array.stage(kv_pairs(pairs, np.uint64), step=step)
        expected.update(unique)
        if compact_midway and step == len(stages) // 2:
            array.compact()
    final = array.final_values()
    for key in range(50):
        assert final[key] == expected.get(key, 7)
