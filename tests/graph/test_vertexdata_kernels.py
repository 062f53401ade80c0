"""The vectorised vertex-value read path against its scalar reference.

``ReferenceCursor`` below is the read path as it was before it was
vectorised — one interpreter iteration per queried key in the base gather,
the whole query binary-searched into every overlay buffer, boolean masks in
the overlay range test — plus the repeated-boundary-key fix.  It lives only
here.  The production cursor must give the same answers as the reference and
as a plain dict model, *and* issue the same ``store.read`` calls in the same
order, because every read is a simulated charge.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graph.vertexdata as vertexdata
from repro.core.kvstream import KVArray
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import FlashDevice, FlashGeometry
from repro.graph.formats import coalesce_ranges, coalescing_gap
from repro.graph.vertexdata import NEVER, VertexArray
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST
from tests.support import kv_pairs

NUM_VERTICES = 4000
DEFAULT = 999
#: With no access latency the coalescing gap is its floor, one 8 KiB flash
#: page = 512 base records, so scattered keys over 4000 vertices split into
#: several spans.
PAGE_GAP_PROFILE = dataclasses.replace(GRAFBOOST, flash_read_latency_s=1e-9)
CHUNK = 8  # SCAN_CHUNK_RECORDS during these tests: overlays span many chunks

RECORD_DTYPE = np.dtype([("v", "<u8"), ("step", "<i8")])
OVERLAY_DTYPE = np.dtype([("k", "<u8"), ("v", "<u8"), ("step", "<i8")])


# --------------------------------------------------------------------------
# scalar reference
# --------------------------------------------------------------------------


def reference_may_contain(overlay, sorted_keys: np.ndarray) -> bool:
    if len(sorted_keys) == 0:
        return False
    if int(sorted_keys[-1]) < overlay.min_key or int(sorted_keys[0]) > overlay.max_key:
        return False
    in_range = sorted_keys[
        (sorted_keys >= np.uint64(overlay.min_key))
        & (sorted_keys <= np.uint64(overlay.max_key))
    ]
    if len(in_range) == 0:
        return False
    if len(in_range) > 256:
        return True
    return bool(overlay.bloom.contains(in_range).any())


class _ReferenceOverlayCursor:
    def __init__(self, store, overlay):
        self.store = store
        self.overlay = overlay
        self.pos = 0
        self.buffer = np.empty(0, dtype=OVERLAY_DTYPE)

    def advance_to(self, max_key: int) -> None:
        item = OVERLAY_DTYPE.itemsize
        while self.pos < self.overlay.count and (
            len(self.buffer) == 0 or int(self.buffer["k"][-1]) <= max_key
        ):
            n = min(CHUNK, self.overlay.count - self.pos)
            raw = self.store.read(self.overlay.name, self.pos * item, n * item)
            chunk = np.frombuffer(raw, dtype=OVERLAY_DTYPE)
            self.buffer = np.concatenate([self.buffer, chunk]) if len(self.buffer) else chunk
            self.pos += n

    def extract(self, sorted_keys: np.ndarray):
        if len(self.buffer) == 0:
            return (np.empty(0, np.intp),) * 3
        idx = np.searchsorted(self.buffer["k"], sorted_keys)
        valid = idx < len(self.buffer)
        hits = np.zeros(len(sorted_keys), dtype=bool)
        hits[valid] = self.buffer["k"][idx[valid]] == sorted_keys[valid]
        positions = np.flatnonzero(hits)
        values = self.buffer["v"][idx[hits]]
        steps = self.buffer["step"][idx[hits]]
        cutoff = int(np.searchsorted(self.buffer["k"], sorted_keys[-1], side="right"))
        self.buffer = self.buffer[cutoff:]
        return positions, values, steps


class ReferenceCursor:
    def __init__(self, array: VertexArray):
        self.array = array
        self.overlays = [_ReferenceOverlayCursor(array.store, overlay)
                         for overlay in array.overlays()]
        self.last_key = -1
        self.last_answer = None

    def lookup(self, sorted_keys: np.ndarray):
        keys_i = sorted_keys.astype(np.int64)
        boundary_key, self.last_key = self.last_key, int(keys_i[-1])
        values = np.full(len(sorted_keys), self.array.default_value, dtype=np.uint64)
        steps = np.full(len(sorted_keys), NEVER, dtype=np.int64)
        if self.array._base_materialized:
            self._gather_base(keys_i, values, steps)
        for cursor in self.overlays:
            if len(cursor.buffer) == 0 and not reference_may_contain(
                    cursor.overlay, sorted_keys):
                continue
            cursor.advance_to(self.last_key)
            positions, v, s = cursor.extract(sorted_keys)
            values[positions] = v
            steps[positions] = s
        for qi, key in enumerate(keys_i):
            if key == boundary_key:
                values[qi], steps[qi] = self.last_answer
        self.last_answer = (values[-1], steps[-1])
        return values, steps

    def _gather_base(self, keys_i, values, steps) -> None:
        array = self.array
        item = RECORD_DTYPE.itemsize
        spans = coalesce_ranges(keys_i, keys_i + 1, coalescing_gap(array.store, item))
        span_index = 0
        block = None
        for qi, key in enumerate(keys_i):
            while block is None or key >= spans[span_index][1]:
                if block is not None:
                    span_index += 1
                span_start, span_end = spans[span_index]
                raw = array.store.read(array._base_file, span_start * item,
                                       (span_end - span_start) * item)
                block = np.frombuffer(raw, dtype=RECORD_DTYPE)
            record = block[key - spans[span_index][0]]
            values[qi] = record["v"]
            steps[qi] = record["step"]


# --------------------------------------------------------------------------
# scenarios: staged overlays, a compaction midway, several lookup calls
# --------------------------------------------------------------------------


def new_store() -> AppendOnlyFlashFS:
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=256)
    return AppendOnlyFlashFS(FlashDevice(geometry, PAGE_GAP_PROFILE, SimClock()))


def build(store, stages, compact_after):
    """Stage every key list as one overlay (value = key * 1000 + step) and
    compact after stage ``compact_after``; returns the array and the dict
    model ``key -> (value, step)``."""
    array = VertexArray(store, NUM_VERTICES, np.uint64, np.uint64(DEFAULT),
                        prefix="prop", max_overlays=64)
    model = {}
    for step, keys in enumerate(stages):
        keys = np.array(sorted(keys), dtype=np.uint64)
        array.stage(KVArray(keys, keys * np.uint64(1000) + np.uint64(step)), step)
        model.update((int(k), (int(k) * 1000 + step, step)) for k in keys)
        if step == compact_after:
            array.compact()
    return array, model


def answers(cursor, calls):
    out = []
    for keys in calls:
        values, steps = cursor.lookup(np.array(keys, dtype=np.uint64))
        out.append(list(zip(values.tolist(), steps.tolist())))
    return out


def check_scenario(record_reads, stages, compact_after, calls):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vertexdata, "SCAN_CHUNK_RECORDS", CHUNK)
        fast_store, reference_store = new_store(), new_store()
        array, model = build(fast_store, stages, compact_after)
        reference_array, _ = build(reference_store, stages, compact_after)
        expected = [[model.get(k, (DEFAULT, NEVER)) for k in keys] for keys in calls]

        fast_reads = record_reads(fast_store)
        reference_reads = record_reads(reference_store)
        assert answers(array.cursor(), calls) == expected
        assert answers(ReferenceCursor(reference_array), calls) == expected
        assert fast_reads == reference_reads

        state = json.loads(json.dumps(array.snapshot_state()))
        restored = VertexArray.restore(fast_store, state, np.uint64, np.uint64(DEFAULT))
        assert len(restored.overlays()) == len(array.overlays())
        for rebuilt, original in zip(restored.overlays(), array.overlays()):
            assert rebuilt.bloom._bits.tobytes() == original.bloom._bits.tobytes()
        del fast_reads[:]
        del reference_reads[:]
        assert answers(restored.cursor(), calls) == expected
        answers(ReferenceCursor(reference_array), calls)
        assert fast_reads == reference_reads
    return fast_reads


def key_range(start_and_length):
    start, length = start_and_length
    return list(range(start, min(NUM_VERTICES, start + length)))


contiguous = st.tuples(st.integers(0, NUM_VERTICES - 1), st.integers(1, 300)).map(key_range)
# Scattered keys sit on a 250-point grid so that queries often hit staged
# keys and repeat themselves; contiguous pieces cover everything in between.
scattered = st.lists(st.integers(0, NUM_VERTICES // 16 - 1).map(lambda i: i * 16),
                     max_size=30)


@st.composite
def lookup_calls(draw):
    """Several calls' worth of keys: pieces are drawn scattered (duplicates
    welcome) or contiguous, pooled, sorted, and dealt back out in the drawn
    sizes; a call may also start by repeating the previous call's last key."""
    pieces = draw(st.lists(st.one_of(scattered, contiguous), min_size=1, max_size=5))
    pool = sorted(key for piece in pieces for key in piece)
    calls, start = [], 0
    for piece in pieces:
        if piece:
            repeat = [calls[-1][-1]] if calls and draw(st.booleans()) else []
            calls.append(repeat + pool[start:start + len(piece)])
            start += len(piece)
    return calls


@settings(deadline=None, max_examples=60)
@given(stages=st.lists(st.one_of(scattered, contiguous).map(set), max_size=6),
       compact_after=st.integers(-1, 5),
       calls=lookup_calls())
def test_lookup_matches_model_and_scalar_reference(record_reads, stages,
                                                   compact_after, calls):
    check_scenario(record_reads, stages, compact_after, calls)


def test_lookup_scenario_covers_every_kernel(record_reads):
    """One fixed scenario guaranteed to hit what the generated ones usually
    do: multi-chunk overlays, a materialised base gathered in three spans,
    duplicate query keys, a repeated boundary key and a dense query."""
    stages = [set(range(0, NUM_VERTICES, 3)), set(range(100, 160)),
              {5, 1500, 3999}, set(range(1490, 1530, 2))]
    calls = [[5, 5, 100, 101], [101, 101, 150, 1500], [1500, 1501, 2600, 3999],
             list(range(3999, 4000))]
    reads = check_scenario(record_reads, stages, 1, calls)
    third_call_base = [r for r in reads if r[0] == "prop:base-1"][3:6]
    assert [offset // 16 for _, offset, _ in third_call_base] == [1500, 2600, 3999]


def test_lookup_empty_query_reads_nothing(aoffs, record_reads):
    array = VertexArray(aoffs, 100, np.uint64, np.uint64(DEFAULT))
    array.stage(kv_pairs([(3, 30)], np.uint64), step=0)
    reads = record_reads(aoffs)
    values, steps = array.cursor().lookup(np.empty(0, dtype=np.uint64))
    assert len(values) == len(steps) == 0
    assert reads == []
