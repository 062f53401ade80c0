"""In-memory CSR graph structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.csr import CSRGraph


def test_from_edges_tiny(tiny_graph):
    assert tiny_graph.num_vertices == 6
    assert tiny_graph.num_edges == 5
    assert sorted(tiny_graph.neighbors(0).tolist()) == [1, 2]
    assert tiny_graph.neighbors(3).tolist() == [4]
    assert tiny_graph.neighbors(5).tolist() == []
    assert tiny_graph.out_degrees()[0] == 2
    assert tiny_graph.out_degrees()[5] == 0


def test_out_degrees(tiny_graph):
    assert tiny_graph.out_degrees().tolist() == [2, 1, 1, 1, 0, 0]


def test_duplicate_edges_kept():
    src = np.array([0, 0, 0], dtype=np.uint64)
    dst = np.array([1, 1, 1], dtype=np.uint64)
    graph = CSRGraph.from_edges(src, dst, 2)
    assert graph.num_edges == 3
    assert graph.neighbors(0).tolist() == [1, 1, 1]


def test_weights_follow_edges():
    src = np.array([1, 0], dtype=np.uint64)
    dst = np.array([0, 1], dtype=np.uint64)
    weights = np.array([10.0, 20.0], dtype=np.float32)
    graph = CSRGraph.from_edges(src, dst, 2, weights)
    assert graph.targets.tolist() == [1, 0]
    assert graph.weights.tolist() == [20.0, 10.0]


def test_validation():
    with pytest.raises(ValueError):
        CSRGraph.from_edges(np.array([0], dtype=np.uint64),
                            np.array([5], dtype=np.uint64), 2)
    with pytest.raises(ValueError):
        CSRGraph.from_edges(np.array([0, 1], dtype=np.uint64),
                            np.array([1], dtype=np.uint64), 2)
    with pytest.raises(ValueError):
        CSRGraph(2, np.array([0, 1], dtype=np.uint64),
                 np.array([1], dtype=np.uint64))  # offsets too short
    with pytest.raises(ValueError):
        CSRGraph.from_edges(np.array([0], dtype=np.uint64),
                            np.array([1], dtype=np.uint64), 2,
                            weights=np.array([1.0, 2.0]))


def test_reversed_transposes(tiny_graph):
    rev = tiny_graph.reversed()
    assert rev.num_edges == tiny_graph.num_edges
    assert sorted(rev.neighbors(3).tolist()) == [1, 2]
    assert rev.neighbors(0).tolist() == []
    # Transposing twice restores the edge multiset.
    back = rev.reversed()
    src_a, dst_a = tiny_graph.edge_list()
    src_b, dst_b = back.edge_list()
    assert sorted(zip(src_a.tolist(), dst_a.tolist())) == \
        sorted(zip(src_b.tolist(), dst_b.tolist()))


def test_edge_list_roundtrip(random_graph):
    src, dst = random_graph.edge_list()
    rebuilt = CSRGraph.from_edges(src, dst, random_graph.num_vertices)
    assert np.array_equal(rebuilt.offsets, random_graph.offsets)
    assert np.array_equal(rebuilt.targets, random_graph.targets)


def test_nbytes_accounts_structure(random_graph):
    expected = random_graph.offsets.nbytes + random_graph.targets.nbytes
    assert random_graph.nbytes == expected


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=200))
def test_from_edges_preserves_multiset(edges):
    src = np.array([s for s, _ in edges], dtype=np.uint64)
    dst = np.array([d for _, d in edges], dtype=np.uint64)
    graph = CSRGraph.from_edges(src, dst, 20)
    out_src, out_dst = graph.edge_list()
    assert sorted(zip(src.tolist(), dst.tolist())) == \
        sorted(zip(out_src.tolist(), out_dst.tolist()))
    assert int(graph.out_degrees().sum()) == len(edges)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40),
       st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=300),
       st.booleans())
def test_from_edges_equals_the_stable_argsort_reference(
        reference_from_edges, n, edges, weighted):
    # Ids are folded into [0, n): small n gives duplicate edges and
    # self-loops, large n isolated vertices, the empty list zero edges.
    edges = [(s % n, d % n) for s, d in edges]
    src = np.array([s for s, _ in edges], dtype=np.uint64)
    dst = np.array([d for _, d in edges], dtype=np.uint64)
    # Position-tagged weights expose any order that is not the input order.
    weights = np.arange(len(edges), dtype=np.float32) if weighted else None
    graph = CSRGraph.from_edges(src, dst, n, weights)
    reference = reference_from_edges(src, dst, n, weights)
    for name in ("offsets", "targets", "weights"):
        got, expected = getattr(graph, name), getattr(reference, name)
        if expected is None:
            assert got is None
        else:
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
    # "Target order within a vertex follows input order", said directly.
    for v in range(n):
        assert graph.neighbors(v).tolist() == [d for s, d in edges if s == v]
    if weighted:
        assert np.array_equal(src[graph.weights.astype(np.int64)], graph.sources())

