"""Reduction operators: group reduction, associativity, FIRST/LAST semantics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.kvstream import KVArray
from repro.core.reduce_ops import (
    FIRST,
    LAST,
    MAX,
    MIN,
    PROD,
    SUM,
    ReduceOp,
    group_starts,
    op_by_name,
)
from tests.support import kv_pairs


def kv(pairs, dtype=np.int64):
    return kv_pairs(pairs, dtype)


def test_group_starts():
    keys = np.array([1, 1, 2, 5, 5, 5], dtype=np.uint64)
    assert group_starts(keys).tolist() == [0, 2, 3]
    assert group_starts(np.array([], dtype=np.uint64)).tolist() == []


def test_sum_reduce():
    out = SUM.reduce_sorted(kv([(1, 10), (1, 5), (2, 7)]))
    assert out.keys.tolist() == [1, 2]
    assert out.values.tolist() == [15, 7]
    assert out.is_strictly_sorted()


def test_min_max_reduce():
    data = kv([(1, 10), (1, 5), (1, 8), (3, -2), (3, 4)])
    assert MIN.reduce_sorted(data).values.tolist() == [5, -2]
    assert MAX.reduce_sorted(data).values.tolist() == [10, 4]


def test_first_last_reduce():
    data = kv([(1, 10), (1, 5), (2, 7), (2, 9)])
    assert FIRST.reduce_sorted(data).values.tolist() == [10, 7]
    assert LAST.reduce_sorted(data).values.tolist() == [5, 9]


def test_prod_reduce():
    out = PROD.reduce_sorted(kv([(0, 2), (0, 3), (0, 4)]))
    assert out.values.tolist() == [24]


def test_reduce_requires_sorted():
    with pytest.raises(ValueError, match="sorted"):
        SUM.reduce_sorted(kv([(2, 1), (1, 1)]))


def test_reduce_unique_passthrough():
    data = kv([(1, 1), (2, 2), (3, 3)])
    out = SUM.reduce_sorted(data)
    assert out.keys.tolist() == [1, 2, 3]
    assert out.values.tolist() == [1, 2, 3]


def test_reduce_empty():
    out = SUM.reduce_sorted(KVArray.empty(np.int64))
    assert len(out) == 0


def test_custom_ufunc_op():
    gcd = ReduceOp("gcd", np.gcd)
    out = gcd.reduce_sorted(kv([(1, 12), (1, 18), (2, 7)]))
    assert out.values.tolist() == [6, 7]


def test_op_needs_some_implementation():
    with pytest.raises(ValueError):
        ReduceOp("nothing", None)


def test_combine_elementwise():
    # A key a later batch scatters again combines with the value it holds.
    keys = np.array([0, 1, 2], dtype=np.uint64)
    for op, expected in ((SUM, [11, 2, 6]), (MIN, [1, 0, 3]),
                         (FIRST, [1, 2, 3]), (LAST, [10, 0, 3])):
        out, touched = np.zeros(3, dtype=np.int64), np.zeros(3, dtype=bool)
        op.scatter_into(out, touched, keys, np.array([1, 2, 3]))
        op.scatter_into(out, touched, keys, np.array([10, 0, 3]))
        assert out.tolist() == expected


def test_op_by_name():
    assert op_by_name("sum") is SUM
    with pytest.raises(KeyError):
        op_by_name("xor")


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-100, 100)), max_size=200))
def test_sum_reduce_matches_dict(pairs):
    data = kv(pairs).sorted()
    out = SUM.reduce_sorted(data)
    expected = {}
    for k, v in pairs:
        expected[k] = expected.get(k, 0) + v
    assert out.keys.astype(int).tolist() == sorted(expected)
    assert out.values.tolist() == [expected[k] for k in sorted(expected)]


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=200))
def test_reduction_is_split_invariant(pairs):
    """Associativity in action: reducing in two stages equals reducing once.

    This is the property that makes interleaving reduction into every merge
    level legal (§III-A).
    """
    data = kv(pairs).sorted()
    whole = SUM.reduce_sorted(data)
    cut = len(data) // 2
    left = SUM.reduce_sorted(data.slice(0, cut))
    right = SUM.reduce_sorted(data.slice(cut, len(data)))
    merged = SUM.reduce_sorted(KVArray.concat([left, right]).sorted()) \
        if len(left) + len(right) else whole
    assert merged.keys.tolist() == whole.keys.tolist()
    assert merged.values.tolist() == whole.values.tolist()
