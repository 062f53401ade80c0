"""KVArray: construction, sorting, serialization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.kvstream import TIMSORT_MAX_RUNS, KVArray, record_dtype, stable_sort
from tests.support import kv_pairs


def test_construction_validates_alignment():
    with pytest.raises(ValueError):
        KVArray(np.array([1, 2], dtype=np.uint64), np.array([1.0]))
    with pytest.raises(ValueError):
        KVArray(np.zeros((2, 2)), np.zeros(4))


def test_from_pairs_and_len():
    kv = kv_pairs([(3, 1.5), (1, 2.5)], np.float64)
    assert len(kv) == 2
    assert kv.keys.dtype == np.dtype("<u8")
    assert kv.value_dtype == np.float64


def test_empty():
    kv = KVArray.empty(np.uint64)
    assert len(kv) == 0
    assert kv.is_sorted() and kv.is_strictly_sorted()


def test_sorted_is_stable():
    kv = KVArray(
        np.array([2, 1, 2, 1], dtype=np.uint64),
        np.array([10, 20, 30, 40], dtype=np.int64),
    )
    out = kv.sorted()
    assert out.keys.tolist() == [1, 1, 2, 2]
    # Ties keep arrival order: 20 before 40, 10 before 30.
    assert out.values.tolist() == [20, 40, 10, 30]


def test_sortedness_predicates():
    assert kv_pairs([(1, 0), (2, 0), (2, 0)], np.int64).is_sorted()
    assert not kv_pairs([(2, 0), (1, 0)], np.int64).is_sorted()
    assert kv_pairs([(1, 0), (2, 0)], np.int64).is_strictly_sorted()
    assert not kv_pairs([(1, 0), (1, 0)], np.int64).is_strictly_sorted()


def test_concat_preserves_run_order():
    a = kv_pairs([(5, 1)], np.int64)
    b = kv_pairs([(5, 2)], np.int64)
    out = KVArray.concat([a, b])
    assert out.values.tolist() == [1, 2]


def test_concat_of_one_nonempty_run_is_that_run():
    run = kv_pairs([(3, 1), (1, 2)], np.int64)
    assert KVArray.concat([KVArray.empty(np.int64), run]) is run


def test_concat_requires_nonempty():
    with pytest.raises(ValueError):
        KVArray.concat([KVArray.empty(np.int64)])


def test_slice():
    kv = kv_pairs([(1, 10), (2, 20), (3, 30)], np.int64)
    assert kv.slice(1, 3).keys.tolist() == [2, 3]
    assert kv.slice(1, 3).values.tolist() == [20, 30]


def test_nbytes_and_record_size():
    kv = kv_pairs([(1, 0.5)], np.float64)
    assert kv.record_bytes == 16
    assert kv.nbytes == 16
    assert record_dtype(np.float32).itemsize == 12


@given(st.lists(st.tuples(st.integers(0, 2 ** 63), st.integers(-2 ** 31, 2 ** 31)),
                max_size=200))
def test_bytes_roundtrip(pairs):
    kv = kv_pairs(pairs, np.int64)
    records = kv.to_records()
    assert not records.flags.writeable
    back = KVArray.from_bytes(records.tobytes(), np.int64)
    assert np.array_equal(back.keys, kv.keys)
    assert np.array_equal(back.values, kv.values)


@given(st.lists(st.integers(0, 1000), max_size=300))
def test_sorted_really_sorts(keys):
    kv = KVArray(np.array(keys, dtype=np.uint64),
                 np.arange(len(keys), dtype=np.int64))
    out = kv.sorted()
    assert out.is_sorted()
    assert len(out) == len(kv)
    # Same multiset of keys.
    assert sorted(keys) == out.keys.astype(int).tolist()


def assert_stable_sorted(kv: KVArray, out: KVArray):
    """``out`` is ``kv`` under the stable permutation, keys *and* values."""
    order = np.argsort(kv.keys, kind="stable")
    assert out.keys.dtype == kv.keys.dtype and out.values.dtype == kv.values.dtype
    assert np.array_equal(out.keys, kv.keys[order])
    assert np.array_equal(out.values, kv.values[order])


#: 0, 1, 2 and every 2^k, 2^k ± 1 up to 2^12 + 1: each one is a value of
#: ``pos_bits`` at its first and last n.
KERNEL_SIZES = sorted({0, 1, 2} | {2 ** k + d for k in range(1, 13) for d in (-1, 0, 1)})
#: Value dtypes the engine sorts: BFS/CC labels, PageRank/SSSP/BC floats,
#: the float32 weights of the benchmarks, the int64 tags of these tests.
VALUE_DTYPES = ["<u8", "<f8", "<f4", "<i8"]


@given(st.sampled_from(KERNEL_SIZES),
       st.sampled_from([1, 3, 1000, 2 ** 20, 2 ** 40]),
       st.sampled_from(VALUE_DTYPES),
       st.sampled_from([0, 1, TIMSORT_MAX_RUNS, TIMSORT_MAX_RUNS + 1, 17]),
       st.integers(0, 2 ** 32))
def test_sorted_is_the_stable_permutation(n, key_space, dtype, runs, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_space, n).astype(np.uint64)
    # Make the hint true: ``runs`` sorted segments, concatenated.
    for segment in np.array_split(keys, runs) if runs else ():
        segment.sort()
    # Position-tagged values (exact in float32 up to 2^24) expose any
    # permutation that is sorted but not the stable one.
    kv = KVArray(keys, np.arange(n).astype(dtype))
    assert_stable_sorted(kv, kv.sorted(runs))


@given(st.sampled_from(KERNEL_SIZES),
       # 1 and 3: nothing but duplicates; 2^64: keys that leave no room for
       # the position bits, so the stable-argsort fallback runs.
       st.sampled_from([1, 3, 1000, 2 ** 40, 2 ** 64]),
       st.sampled_from(["random", "sorted", "reversed"]),
       st.integers(0, 2 ** 32))
def test_stable_sort_is_the_stable_argsort(n, key_space, shape, seed):
    keys = np.random.default_rng(seed).integers(0, key_space, n, dtype=np.uint64)
    if shape != "random":
        keys.sort()
    if shape == "reversed":
        keys = keys[::-1]
    before = keys.copy()
    expected = np.argsort(keys, kind="stable")
    for runs in (0, 1) if shape == "sorted" else (0,):
        sorted_keys, order = stable_sort(keys, runs)
        assert sorted_keys.dtype == keys.dtype
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_keys, keys[expected])
    assert np.array_equal(keys, before)  # the caller's array is not the scratch


@pytest.mark.parametrize("n", [2, 5, 8, 9, 1024, 1025])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_sorted_at_the_composite_encoding_limit(n, delta):
    # The composite word leaves 64 - pos_bits bits for the key: the largest
    # key sits one below (composite), at and one above (stable argsort) the
    # limit, duplicated so that ties among the top keys must keep order.
    limit = 2 ** (64 - (n - 1).bit_length())
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 4, n).astype(np.uint64) + np.uint64(limit + delta - 3)
    keys[[0, n // 2]] = limit + delta
    keys[-1] = 0
    assert int(keys.max()) == limit + delta
    kv = KVArray(keys, np.arange(n, dtype=np.int64))
    assert_stable_sorted(kv, kv.sorted())


@pytest.mark.parametrize("n", [4, 5, 300])  # 2^62 fits beside 2 position bits only
def test_sorted_with_keys_around_2_to_the_62(n):
    rng = np.random.default_rng(62)
    keys = (np.uint64(2 ** 62) + rng.integers(-2, 3, n).astype(np.int64).view(np.uint64))
    keys[-1] = 2 ** 64 - 1
    kv = KVArray(keys, np.arange(n, dtype=np.float64))
    assert_stable_sorted(kv, kv.sorted())


def test_repr_preview():
    kv = kv_pairs([(i, i) for i in range(10)], np.int64)
    text = repr(kv)
    assert "n=10" in text and "…" in text


@given(count=st.integers(0, 300), value=st.sampled_from([np.float32, np.float64]),
       cuts=st.lists(st.integers(0, 4000), max_size=12))
def test_from_buffers_decodes_records_cut_anywhere(count, value, cuts):
    # VIEW_MIN_BYTES is 64 KB; these buffers are made of one bytes object
    # cut at arbitrary byte offsets, so records straddle boundaries and
    # both small (copied) and large (viewed) buffers occur.
    kv = KVArray(np.arange(count, dtype=np.uint64) * 7, np.arange(count, dtype=value))
    data = kv.to_records().tobytes() * (1 + (1 << 16) // max(1, kv.nbytes))
    size = record_dtype(np.dtype(value)).itemsize
    data = data[:len(data) // size * size]
    edges = sorted({0, len(data), *(c * len(data) // 4000 for c in cuts)})
    view = memoryview(data)
    parts = KVArray.from_buffers([view[a:b] for a, b in zip(edges, edges[1:])], value)
    whole = KVArray.from_bytes(data, value) if data else None
    if whole is None:
        assert parts == []
        return
    joined = KVArray.concat(parts)
    assert np.array_equal(joined.keys, whole.keys)
    assert np.array_equal(joined.values, whole.values)
    assert all(len(p) and not p.keys.flags.writeable for p in parts)


def test_from_buffers_views_a_large_buffer_in_place():
    kv = KVArray(np.arange(1 << 13, dtype=np.uint64), np.ones(1 << 13))
    records = kv.to_records()
    [part] = KVArray.from_buffers([memoryview(records.view(np.uint8))], np.float64)
    assert np.shares_memory(part.keys, records) and np.shares_memory(part.values, records)
    with pytest.raises(ValueError):
        KVArray.from_buffers([memoryview(records.view(np.uint8))[:-1]], np.float64)
