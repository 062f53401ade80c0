"""Engine driver: supersteps, quiescence, metrics, lazy vs eager."""

import numpy as np
import pytest

from repro.algorithms.bfs import BFSProgram, UNVISITED, run_bfs
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.reference import pagerank_push, validate_parents
from repro.engine import api
from repro.engine.api import VertexProgram, all_active_chunks
from repro.engine.config import make_system
from repro.core.reduce_ops import SUM


SCALE = 2.0 ** -14


def build(system_kind, graph, lazy=True, mode="sortreduce"):
    system = make_system(system_kind, SCALE, num_vertices_hint=graph.num_vertices,
                         mode=mode)
    flash_graph = system.load_graph(graph)
    return system, system.engine_for(flash_graph, graph.num_vertices, lazy=lazy)


def test_bfs_on_tiny_graph(tiny_graph):
    _, engine = build("grafboost", tiny_graph)
    result = run_bfs(engine, root=0)
    parents = result.final_values()
    assert parents[0] == 0
    assert parents[1] == 0 and parents[2] == 0
    assert parents[3] in (1, 2)
    assert parents[4] == 3
    assert parents[5] == UNVISITED
    assert result.num_supersteps == 4  # waves: {0},{1,2},{3},{4}
    assert result.total_traversed_edges == 5
    assert result.total_activated == 5  # all reachable vertices


def test_bfs_matches_reference_on_random_graph(random_graph):
    _, engine = build("grafsoft", random_graph)
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    result = run_bfs(engine, root)
    assert validate_parents(random_graph, root, result.final_values(), UNVISITED)


def test_lazy_and_eager_agree(random_graph):
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    _, lazy_engine = build("grafsoft", random_graph, lazy=True)
    _, eager_engine = build("grafsoft", random_graph, lazy=False)
    lazy_result = run_bfs(lazy_engine, root)
    eager_result = run_bfs(eager_engine, root)
    assert np.array_equal(lazy_result.final_values(), eager_result.final_values())
    assert lazy_result.num_supersteps == eager_result.num_supersteps


def test_eager_costs_more_io(random_graph):
    # Algorithm 3 vs Algorithm 2: the lazy path does "two fewer I/O
    # operations per active vertex" (§III-C).
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    lazy_system, lazy_engine = build("grafsoft", random_graph, lazy=True)
    eager_system, eager_engine = build("grafsoft", random_graph, lazy=False)
    run_bfs(lazy_engine, root)
    run_bfs(eager_engine, root)
    assert eager_system.clock.bytes_moved("flash") > lazy_system.clock.bytes_moved("flash")


def test_pagerank_first_iteration_matches_reference(random_graph):
    _, engine = build("grafboost", random_graph)
    result = run_pagerank(engine, random_graph.num_vertices, iterations=1)
    assert np.allclose(result.final_values(), pagerank_push(random_graph, 1))
    assert result.num_supersteps == 1


def test_pagerank_metrics(random_graph):
    _, engine = build("grafsoft", random_graph)
    result = run_pagerank(engine, random_graph.num_vertices, iterations=1)
    step = result.supersteps[0]
    assert step.activated == random_graph.num_vertices
    assert step.traversed_edges == random_graph.num_edges
    assert step.update_pairs == random_graph.num_edges
    assert step.reduced_pairs <= step.update_pairs
    assert step.elapsed_s > 0
    assert result.mteps > 0


def test_engines_agree_across_stacks(random_graph):
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    values = []
    for kind in ("grafboost", "grafboost2", "grafsoft"):
        _, engine = build(kind, random_graph)
        values.append(run_bfs(engine, root).final_values())
    assert np.array_equal(values[0], values[1])
    assert np.array_equal(values[0], values[2])


def test_hardware_faster_than_software():
    # §V: hardware acceleration gives "typically between a factor of two to
    # four" over the software implementation on large graphs.  Use a graph
    # big enough for sort-reduce to dominate (tiny graphs are noise).
    from repro.graph.datasets import build_graph
    graph = build_graph("kron28", SCALE, seed=7)
    hw_system, hw_engine = build("grafboost", graph)
    sw_system, sw_engine = build("grafsoft", graph)
    run_pagerank(hw_engine, graph.num_vertices, 1)
    run_pagerank(sw_engine, graph.num_vertices, 1)
    assert hw_system.clock.elapsed_s < sw_system.clock.elapsed_s
    ratio = sw_system.clock.elapsed_s / hw_system.clock.elapsed_s
    assert 1.2 < ratio < 10


def test_unreachable_root_terminates(tiny_graph):
    _, engine = build("grafsoft", tiny_graph)
    result = run_bfs(engine, root=5)  # isolated vertex
    assert result.num_supersteps == 1
    parents = result.final_values()
    assert parents[5] == 5
    assert (parents[:5] == UNVISITED).all()


def test_max_supersteps_cuts_and_folds(random_graph):
    _, engine = build("grafsoft", random_graph)
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    result = engine.run(BFSProgram(root), max_supersteps=2)
    assert result.num_supersteps == 2
    # The apply pass folded the frontier of superstep 2 into V even though
    # its edges were never pushed.
    parents = result.final_values()
    visited = int((parents != UNVISITED).sum())
    assert visited >= result.total_activated


def test_superstep_zero_with_all_active_generator(tiny_graph):
    class CountingProgram(VertexProgram):
        name = "counting"
        value_dtype = np.dtype("<f8")
        reduce_op = SUM
        default_value = 0.0

        def edge_program(self, src_values, src_ids, edge_weights, src_degrees):
            return np.ones(len(src_values))

    _, engine = build("grafsoft", tiny_graph)
    result = engine.run(CountingProgram(), max_supersteps=1)
    # newV counts in-degree; folded into V by the apply pass.
    counts = result.final_values()
    assert counts[3] == 2.0  # two in-edges (from 1 and 2)
    assert counts[0] == 0.0


def test_initial_generators(monkeypatch):
    monkeypatch.setattr(api, "ACTIVE_CHUNK_RECORDS", 4)
    chunks = list(all_active_chunks(10, np.float64, 0.5))
    assert [len(c) for c in chunks] == [4, 4, 2]
    assert chunks[0].values[0] == 0.5
    seed = list(BFSProgram(3).initial_updates(10))
    assert len(seed) == 1 and seed[0].keys[0] == 3


def test_bfs_program_validation():
    with pytest.raises(ValueError):
        BFSProgram(-1)
    with pytest.raises(ValueError):
        list(BFSProgram(100).initial_updates(10))
