"""BFS vertex program and parent-tree validity."""

import numpy as np
import pytest

from repro.algorithms.bfs import BFSProgram, UNVISITED, run_bfs
from repro.algorithms.reference import validate_parents
from repro.engine.config import make_system
from repro.graph.datasets import build_graph

SCALE = 2.0 ** -14


def run_on(graph, kind="grafsoft", root=0):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    return run_bfs(engine, root)


def test_program_pieces():
    program = BFSProgram(3)
    ids = np.array([1, 2, 3], dtype=np.uint64)
    assert np.array_equal(
        program.vertex_messages(np.zeros(3, np.uint64), ids, np.ones(3, np.uint64)),
        ids)
    old = np.array([UNVISITED, 7], dtype=np.uint64)
    active = program.is_active(np.zeros(2, np.uint64), old, np.zeros(2), 1)
    assert active.tolist() == [True, False]


def test_bfs_on_kron_dataset():
    graph = build_graph("kron28", SCALE, seed=11)
    root = int(np.flatnonzero(graph.out_degrees() > 0)[0])
    result = run_on(graph, root=root)
    assert validate_parents(graph, root, result.final_values(), UNVISITED)
    # Kronecker graphs have a small diameter.
    assert result.num_supersteps < 15


def test_bfs_on_webcrawl_has_long_tail():
    graph = build_graph("wdc", 2.0 ** -18, seed=11)
    result = run_on(graph, root=0)
    # The pendant-path tail drives superstep counts way up (§V-C.1).
    assert result.num_supersteps > 50
    tail = [s for s in result.supersteps if s.activated <= 2]
    assert len(tail) > 30


def test_bfs_mteps_positive():
    graph = build_graph("twitter", SCALE, seed=2)
    root = int(np.flatnonzero(graph.out_degrees() > 0)[0])
    result = run_on(graph, kind="grafboost", root=root)
    assert result.mteps > 0
    assert result.total_traversed_edges <= graph.num_edges * result.num_supersteps


def test_bfs_traversed_edge_count(random_graph):
    # Every out-edge of every reachable vertex is traversed exactly once.
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    result = run_on(random_graph, root=root)
    parents = result.final_values()
    reachable = np.flatnonzero(parents != UNVISITED)
    expected = int(random_graph.out_degrees()[reachable].sum())
    assert result.total_traversed_edges == expected
