"""Betweenness centrality: traversal plus sort-reduced backtracing."""

import numpy as np

from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.bfs import UNVISITED
from repro.algorithms.reference import validate_parents
from repro.engine.config import make_system
from repro.graph.datasets import build_graph
from tests.support import bfs_tree_descendants

SCALE = 2.0 ** -15


def run_on(graph, root, kind="grafsoft"):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    return run_betweenness_centrality(engine, root)


def test_bc_on_tiny_graph(tiny_graph):
    result = run_on(tiny_graph, root=0)
    # Tree: 0 -> {1, 2}, one of them -> 3, 3 -> 4.
    centrality = result.centrality
    assert centrality[0] == 4.0  # root: all four reachable descendants
    assert centrality[3] == 1.0  # one descendant (4)
    assert centrality[4] == 0.0
    assert centrality[5] == 0.0  # unreachable
    assert centrality[1] + centrality[2] == 2.0  # 3 hangs off exactly one


def test_bc_matches_reference(random_graph):
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    result = run_on(random_graph, root)
    parents = result.forward.final_values()
    assert validate_parents(random_graph, root, parents, UNVISITED)
    expected = bfs_tree_descendants(random_graph, root, parents, UNVISITED)
    assert np.allclose(result.centrality, expected)


def test_bc_on_kron():
    graph = build_graph("kron28", SCALE, seed=3)
    root = int(np.flatnonzero(graph.out_degrees() > 0)[0])
    result = run_on(graph, root, kind="grafboost")
    parents = result.forward.final_values()
    expected = bfs_tree_descendants(graph, root, parents, UNVISITED)
    assert np.allclose(result.centrality, expected)
    # Backtracing really ran sort-reduces: one per level below the root
    # (the final superstep may be empty and produce no level list).
    levels = result.forward.vertices.overlay_depth
    assert len(result.backtrace_stats) == levels - 1
    assert result.backtrace_elapsed_s > 0
    assert result.elapsed_s > result.forward.elapsed_s


def test_bc_root_credit_counts_reachable(random_graph):
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    result = run_on(random_graph, root)
    parents = result.forward.final_values()
    reachable = int((parents != UNVISITED).sum()) - 1  # excluding the root
    assert result.centrality[root] == reachable


def test_bc_engine_restores_overlay_policy(random_graph):
    system = make_system("grafsoft", SCALE, num_vertices_hint=random_graph.num_vertices)
    flash_graph = system.load_graph(random_graph)
    engine = system.engine_for(flash_graph, random_graph.num_vertices)
    saved = engine.max_overlays
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    run_betweenness_centrality(engine, root)
    assert engine.max_overlays == saved
