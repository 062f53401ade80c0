"""SSSP and label propagation against trusted references."""

import numpy as np
import pytest

from repro.algorithms.cc import NO_LABEL, run_label_propagation
from repro.algorithms.reference import min_label_closure, sssp_distances
from repro.algorithms.sssp import SSSPProgram, run_sssp
from repro.engine.config import make_system
from repro.graph.csr import CSRGraph
from tests.support import random_weights, uniform_edges

SCALE = 2.0 ** -15


def make_engine(graph, kind="grafsoft"):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    return system.engine_for(flash_graph, graph.num_vertices)


@pytest.fixture
def weighted_graph():
    src, dst, n = uniform_edges(800, 6400, seed=21)
    return CSRGraph.from_edges(src, dst, n, random_weights(6400, seed=21))


def test_sssp_matches_dijkstra(weighted_graph):
    engine = make_engine(weighted_graph)
    result = run_sssp(engine, root=0)
    distances = result.final_values()
    expected = sssp_distances(weighted_graph, 0)
    assert np.array_equal(np.isinf(distances), np.isinf(expected))
    finite = ~np.isinf(expected)
    assert np.allclose(distances[finite], expected[finite], atol=1e-5)


def test_sssp_root_distance_zero(weighted_graph):
    engine = make_engine(weighted_graph)
    assert run_sssp(engine, root=0).final_values()[0] == 0.0


def test_sssp_requires_weights(random_graph):
    engine = make_engine(random_graph)
    with pytest.raises(ValueError, match="weights"):
        run_sssp(engine, root=0)


def test_sssp_program_validation():
    with pytest.raises(ValueError):
        SSSPProgram(-3)


def test_sssp_triangle_inequality(weighted_graph):
    # Every edge (u, v, w): dist[v] <= dist[u] + w — the Bellman-Ford
    # fixed-point invariant.
    engine = make_engine(weighted_graph)
    distances = run_sssp(engine, root=0).final_values()
    src, dst = weighted_graph.edge_list()
    du = distances[src.astype(np.int64)]
    dv = distances[dst.astype(np.int64)]
    finite = ~np.isinf(du)
    assert (dv[finite] <= du[finite] + weighted_graph.weights[finite] + 1e-6).all()


def test_label_propagation_matches_reference():
    src, dst, n = uniform_edges(600, 2400, seed=8)
    both = CSRGraph.from_edges(np.concatenate([src, dst]),
                               np.concatenate([dst, src]), n)
    engine = make_engine(both)
    result = run_label_propagation(engine)
    labels = result.final_values()
    resolved = np.where(labels == NO_LABEL, np.arange(n, dtype=np.uint64),
                        labels).astype(np.int64)
    assert np.array_equal(resolved, min_label_closure(both))


def test_label_propagation_on_disconnected_components():
    # Two disjoint cliques: labels are each clique's minimum id.
    src = np.array([0, 1, 2, 5, 6, 7], dtype=np.uint64)
    dst = np.array([1, 2, 0, 6, 7, 5], dtype=np.uint64)
    graph = CSRGraph.from_edges(np.concatenate([src, dst]),
                                np.concatenate([dst, src]), 8)
    engine = make_engine(graph)
    labels = run_label_propagation(engine).final_values()
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[5] == labels[6] == labels[7] == 5
    assert labels[3] == NO_LABEL or labels[3] == 3  # isolated, never updated
