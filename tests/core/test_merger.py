"""Streaming k-way merge-reduce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.inmemory import sort_reduce_in_memory
from repro.core.kvstream import TIMSORT_MAX_RUNS, KVArray
from repro.core import merger as merger_module
from repro.core.merger import (
    StreamingMergeReducer,
    merge_reduce_arrays,
    sort_reduce_parts,
)
from repro.core.parallel import SortReducePool
from repro.core.reduce_ops import FIRST, LAST, MIN, SUM
from tests.support import kv_pairs


def kv(pairs, dtype=np.int64):
    return kv_pairs(pairs, dtype)


def chunked(run: KVArray, size: int):
    for i in range(0, len(run), size):
        yield run.slice(i, min(len(run), i + size))


def collect(merger, sources):
    out = []
    merger.merge(sources, out.append)
    if not out:
        return KVArray.empty(np.int64)
    return KVArray.concat(out)


def test_merge_reduce_arrays_basic():
    a = kv([(1, 1), (3, 3)])
    b = kv([(1, 10), (2, 2)])
    out = merge_reduce_arrays([a, b], SUM)
    assert out.keys.tolist() == [1, 2, 3]
    assert out.values.tolist() == [11, 2, 3]


def test_merge_reduce_arrays_validates():
    with pytest.raises(ValueError):
        merge_reduce_arrays([], SUM)
    with pytest.raises(ValueError):
        merge_reduce_arrays([kv([(2, 1), (1, 1)])], SUM)


def test_streaming_merge_matches_in_memory():
    rng = np.random.default_rng(3)
    runs = []
    for _ in range(5):
        keys = np.sort(rng.integers(0, 300, 400)).astype(np.uint64)
        values = rng.integers(0, 10, 400).astype(np.int64)
        runs.append(KVArray(keys, values))
    merger = StreamingMergeReducer(SUM, np.int64, refill_records=64)
    out = collect(merger, [chunked(r, 37) for r in runs])
    expected = merge_reduce_arrays(runs, SUM)
    assert out.keys.tolist() == expected.keys.tolist()
    assert out.values.tolist() == expected.values.tolist()


def test_output_is_globally_sorted_and_unique():
    rng = np.random.default_rng(4)
    runs = [KVArray(np.sort(rng.integers(0, 50, 200)).astype(np.uint64),
                    np.ones(200, dtype=np.int64)) for _ in range(3)]
    merger = StreamingMergeReducer(SUM, np.int64, refill_records=16)
    out = collect(merger, [chunked(r, 13) for r in runs])
    assert out.is_strictly_sorted()
    assert int(out.values.sum()) == 600  # SUM conserves total count


def test_first_semantics_respect_run_order():
    a = kv([(5, 100)])
    b = kv([(5, 200)])
    merger = StreamingMergeReducer(FIRST, np.int64)
    out = collect(merger, [iter([a]), iter([b])])
    assert out.values.tolist() == [100]
    merger = StreamingMergeReducer(FIRST, np.int64)
    out = collect(merger, [iter([b]), iter([a])])
    assert out.values.tolist() == [200]


def test_giant_duplicate_group_spanning_buffers():
    # One run is a single repeated key longer than the refill size: the
    # merger must extend past the boundary instead of stalling.
    a = KVArray(np.full(500, 7, dtype=np.uint64), np.ones(500, dtype=np.int64))
    b = kv([(6, 1), (7, 1), (8, 1)])
    merger = StreamingMergeReducer(SUM, np.int64, refill_records=8)
    out = collect(merger, [chunked(a, 9), chunked(b, 2)])
    assert out.keys.tolist() == [6, 7, 8]
    assert out.values.tolist() == [1, 501, 1]


# ------------------------------------- emits on both sides of the crossover

#: One emit of k runs sorts with ``runs=k``: timsort up to TIMSORT_MAX_RUNS,
#: the composite sort above — 1…17 covers both and the 16-way tree's fan-in.
EMIT_RUN_COUNTS = range(1, 18)
assert EMIT_RUN_COUNTS[0] <= TIMSORT_MAX_RUNS < EMIT_RUN_COUNTS[-1]


def tagged_runs(k: int, per: int = 40) -> list[KVArray]:
    """k sorted runs over 12 keys — every key repeats inside a run and in
    other runs — whose values name their (run, position)."""
    rng = np.random.default_rng(k)
    return [KVArray(np.sort(rng.integers(0, 12, per)).astype(np.uint64),
                    1000 * r + np.arange(per, dtype=np.int64))
            for r in range(k)]


def model(runs: list[KVArray], op) -> tuple[list[int], list[int]]:
    """Per key, fold the values in (run, position) order."""
    folded: dict[int, int] = {}
    for run in runs:
        for k, v in zip(run.keys.tolist(), run.values.tolist()):
            folded[k] = v if k not in folded else \
                {"first": folded[k], "last": v, "sum": folded[k] + v}[op.name]
    return sorted(folded), [folded[k] for k in sorted(folded)]


@pytest.mark.parametrize("op", [FIRST, LAST, SUM], ids=lambda o: o.name)
@pytest.mark.parametrize("k", EMIT_RUN_COUNTS)
def test_emit_of_k_runs_folds_in_run_then_position_order(k, op):
    runs = tagged_runs(k)
    keys, values = model(runs, op)
    out = merge_reduce_arrays(runs, op)
    assert (out.keys.tolist(), out.values.tolist()) == (keys, values)
    # Whole runs as single chunks: the streaming merger makes it one emit.
    merger = StreamingMergeReducer(op, np.int64, fanout=len(EMIT_RUN_COUNTS))
    emits = []
    merger.merge([iter([r]) for r in runs], emits.append)
    assert len(emits) == 1
    assert (emits[0].keys.tolist(), emits[0].values.tolist()) == (keys, values)


def assert_same(a: KVArray, b: KVArray):
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.values, b.values)


def test_emits_through_a_two_worker_pool_equal_serial():
    pool = SortReducePool(2, inline_records=16)  # 40-record runs reach workers
    try:
        for k in EMIT_RUN_COUNTS:
            runs = tagged_runs(k)
            # The same records as one unsorted chunk (runs interleaved).
            whole = KVArray.concat(runs)
            interleave = np.arange(40 * k).reshape(k, 40).T.ravel()
            chunk = KVArray(whole.keys[interleave], whole.values[interleave])
            for op in (FIRST, LAST, SUM):
                serial = merge_reduce_arrays(runs, op)
                assert_same(merge_reduce_arrays(runs, op, pool=pool), serial)
                merger = StreamingMergeReducer(op, np.int64, pool=pool,
                                               fanout=len(EMIT_RUN_COUNTS))
                assert_same(collect(merger, [chunked(r, 7) for r in runs]), serial)
                assert_same(pool.sort_reduce_chunk(chunk, op),
                            sort_reduce_in_memory(chunk, op))
    finally:
        pool.shutdown()


def test_empty_sources():
    merger = StreamingMergeReducer(SUM, np.int64)
    out = collect(merger, [iter([]), iter([])])
    assert len(out) == 0


def test_one_source_passthrough_reduces():
    run = kv([(1, 1), (1, 2), (4, 4)])
    merger = StreamingMergeReducer(SUM, np.int64)
    out = collect(merger, [chunked(run, 2)])
    assert out.keys.tolist() == [1, 4]
    assert out.values.tolist() == [3, 4]


def test_fanout_limit():
    merger = StreamingMergeReducer(SUM, np.int64, fanout=2)
    with pytest.raises(ValueError, match="fanout"):
        merger.merge([iter([])] * 3, lambda _: None)
    with pytest.raises(ValueError):
        merger.merge([], lambda _: None)


def test_unsorted_chunks_rejected():
    bad = iter([kv([(5, 1)]), kv([(3, 1)])])
    merger = StreamingMergeReducer(SUM, np.int64, refill_records=1)
    with pytest.raises(ValueError, match="sorted"):
        merger.merge([bad], lambda _: None)


def test_pair_accounting():
    runs = [kv([(1, 1), (2, 1)]), kv([(1, 1), (3, 1)])]
    merger = StreamingMergeReducer(SUM, np.int64)
    pairs_in, pairs_out = merger.merge([iter([r]) for r in runs], lambda _: None)
    assert pairs_in == 4
    assert pairs_out == 3


def test_invalid_parameters():
    with pytest.raises(ValueError):
        StreamingMergeReducer(SUM, np.int64, fanout=1)
    with pytest.raises(ValueError):
        StreamingMergeReducer(SUM, np.int64, refill_records=0)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 9)), max_size=60),
        min_size=1, max_size=6,
    ),
    st.integers(1, 7),
)
def test_streaming_merge_property(runs_pairs, chunk_size):
    runs = [kv(sorted(pairs, key=lambda p: p[0])) for pairs in runs_pairs]
    merger = StreamingMergeReducer(SUM, np.int64, refill_records=4)
    out = collect(merger, [chunked(r, chunk_size) for r in runs])
    expected = {}
    for pairs in runs_pairs:
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
    assert out.keys.astype(int).tolist() == sorted(expected)
    assert out.values.tolist() == [expected[k] for k in sorted(expected)]


# ------------------------------------------------------- key-range slices


def reference(parts: list[KVArray], op) -> KVArray:
    """The unsliced merge-reduce of a batch: one concat, one stable sort."""
    return op.reduce_sorted(KVArray.concat(parts).sorted(runs=len(parts)))


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=40),
             min_size=1, max_size=7),
    st.integers(1, 9),
    st.sampled_from([SUM, MIN, FIRST, LAST]),
    st.integers(0, 2**32 - 1),
)
def test_sliced_merge_reduce_is_bitwise_the_unsliced_one(part_keys, limit, op,
                                                         seed):
    # Few distinct keys and small slices: duplicate groups straddle every
    # candidate cut, in several parts at once.
    rng = np.random.default_rng(seed)
    parts = [KVArray(np.sort(np.array(keys, dtype=np.uint64)),
                     rng.standard_normal(len(keys)).astype(np.float32))
             for keys in part_keys]
    expected = reference(parts, op)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(merger_module, "EMIT_SLICE_RECORDS", limit)
        got = sort_reduce_parts(parts, op)
    assert got.keys.tobytes() == expected.keys.tobytes()
    assert got.values.dtype == expected.values.dtype
    assert got.values.tobytes() == expected.values.tobytes()


def slice_sizes(parts: list[KVArray]) -> list[int]:
    total = sum(len(p) for p in parts)
    cuts = merger_module._slice_cuts(parts, total)
    below = [sum(int(np.searchsorted(p.keys, c, side="left")) for p in parts)
             for c in cuts]
    return np.diff([0, *below, total]).tolist()


def test_slices_hold_at_most_the_limit_unless_one_key_is_larger(monkeypatch):
    monkeypatch.setattr(merger_module, "EMIT_SLICE_RECORDS", 1000)
    rng = np.random.default_rng(4)
    parts = [KVArray(np.sort(rng.choice(10**6, 3000, replace=False)).astype(np.uint64),
                     np.zeros(3000, dtype=np.float32)) for _ in range(5)]
    sizes = slice_sizes(parts)
    assert sum(sizes) == 15_000
    assert max(sizes) <= 1000 and min(sizes[:-1]) >= 750
    # A key with 2 500 records is one slice; the rest keep the limit.
    heavy = KVArray(np.full(2500, 500_000, dtype=np.uint64),
                    np.ones(2500, dtype=np.float32))
    sizes = slice_sizes([*parts, heavy])
    assert sum(sizes) == 17_500
    assert [s for s in sizes if s > 1000] == [max(sizes)]
    assert max(sizes) >= 2500
    # A batch within the limit is one slice.
    assert slice_sizes([parts[0].slice(0, 400), parts[1].slice(0, 600)]) == [1000]
