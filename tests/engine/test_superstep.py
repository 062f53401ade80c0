"""Superstep executor details: weighted programs, eager path, edge cases."""

import numpy as np
import pytest

from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.pagerank import (
    run_pagerank,
    run_pagerank_alg4,
    run_weighted_pagerank,
)
from repro.algorithms.ppr import run_personalized_pagerank
from repro.algorithms.sssp import run_sssp
from repro.core.external import ExternalSortReducer
from repro.engine import superstep
from repro.engine.config import make_system
from repro.flash.device import FlashError
from repro.graph.csr import CSRGraph
from repro.graph.formats import FlashCSR
from repro.graph.generators import random_weights, uniform_edges

SCALE = 2.0 ** -14


@pytest.fixture
def weighted_graph():
    src, dst, n = uniform_edges(300, 2400, seed=6)
    return CSRGraph.from_edges(src, dst, n, random_weights(2400, seed=6))


def build(graph, kind="grafsoft", lazy=True, mode="sortreduce"):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices,
                         mode=mode)
    flash_graph = system.load_graph(graph)
    return system, system.engine_for(flash_graph, graph.num_vertices, lazy=lazy)


def test_weighted_program_through_lazy_and_eager(weighted_graph):
    _, lazy_engine = build(weighted_graph, lazy=True)
    _, eager_engine = build(weighted_graph, lazy=False)
    lazy_result = run_weighted_pagerank(lazy_engine, weighted_graph, 1)
    eager_result = run_weighted_pagerank(eager_engine, weighted_graph, 1)
    assert np.allclose(lazy_result.final_values(), eager_result.final_values())


def test_sssp_eager_agrees_with_lazy(weighted_graph):
    _, lazy_engine = build(weighted_graph, lazy=True)
    _, eager_engine = build(weighted_graph, lazy=False)
    a = run_sssp(lazy_engine, 0).final_values()
    b = run_sssp(eager_engine, 0).final_values()
    finite = ~np.isinf(a)
    assert np.array_equal(np.isinf(a), np.isinf(b))
    assert np.allclose(a[finite], b[finite])


@pytest.mark.parametrize("degrees,batches", [
    ([0, 0, 5, 300, 0, 1, 0, 299, 2, 0], [(0, 3), (3, 5), (5, 8), (8, 10)]),
    ([0, 700, 1], [(0, 2), (2, 3)]),      # a vertex above the cap: alone
    ([3, 4], [(0, 2)]),
])
def test_edge_batches(monkeypatch, degrees, batches):
    monkeypatch.setattr(superstep, "SCAN_EDGES_PER_CHUNK", 300)
    assert list(superstep.edge_batches(np.array(degrees, dtype=np.int64))) == batches


def _outcome(graph, algorithm, mode):
    system, engine = build(graph, mode=mode)
    result = algorithm(engine, graph)
    return (result.final_values().tobytes(), result.elapsed_s,
            [s.to_dict() for s in result.sort_stats],
            {name: (u.busy_s, u.bytes_moved, u.ops)
             for name, u in system.clock.usage.items()})


@pytest.mark.parametrize("mode", ["sortreduce", "semiexternal"])
@pytest.mark.parametrize("algorithm", [
    lambda engine, graph: run_weighted_pagerank(engine, graph, 2),
    lambda engine, graph: run_sssp(engine, 0),
    lambda engine, graph: run_pagerank(engine, graph.num_vertices, 2),
], ids=["weighted-pagerank", "sssp", "pagerank"])
def test_push_batch_size_changes_nothing(monkeypatch, weighted_graph, mode,
                                         algorithm):
    """Pushing ~2 400 edges in batches of 97 — per-edge programs with their
    weights, and per-vertex messages — gives the values, sort stats and
    clock of one batch per push."""
    whole = _outcome(weighted_graph, algorithm, mode)
    monkeypatch.setattr(superstep, "SCAN_EDGES_PER_CHUNK", 97)
    assert _outcome(weighted_graph, algorithm, mode) == whole


def test_superstep_metrics_resource_deltas(weighted_graph):
    _, engine = build(weighted_graph)
    result = run_sssp(engine, 0)
    for step in result.supersteps:
        assert step.flash_bytes >= 0
        assert step.flash_busy_s >= 0
        assert step.elapsed_s > 0
    total_flash = sum(s.flash_bytes for s in result.supersteps)
    assert total_flash > 0
    busiest = max(result.supersteps, key=lambda s: s.traversed_edges)
    assert busiest.flash_bandwidth > 0


def test_vertex_with_no_outgoing_edges_terminates():
    # A star pointing at a sink: the sink activates but pushes nothing.
    src = np.array([0, 0, 0], dtype=np.uint64)
    dst = np.array([1, 2, 3], dtype=np.uint64)
    graph = CSRGraph.from_edges(src, dst, 4)
    _, engine = build(graph, kind="grafboost")
    from repro.algorithms.bfs import run_bfs

    result = run_bfs(engine, 0)
    parents = result.final_values()
    assert parents[1] == 0 and parents[2] == 0 and parents[3] == 0
    assert result.num_supersteps == 2


def test_self_loops_are_harmless():
    src = np.array([0, 0, 1, 1], dtype=np.uint64)
    dst = np.array([0, 1, 1, 0], dtype=np.uint64)
    graph = CSRGraph.from_edges(src, dst, 2)
    _, engine = build(graph)
    from repro.algorithms.bfs import run_bfs

    result = run_bfs(engine, 0)
    parents = result.final_values()
    assert parents[0] == 0 and parents[1] in (0, 1)


# ------------------------------------------------- error-path cleanup (reduce)


def _alg4(system, engine, graph):
    in_graph = FlashCSR.write(system.store, "in", graph.reversed())
    return run_pagerank_alg4(engine, in_graph, iterations=3, tol=0.0)


@pytest.mark.parametrize("failing_call", ["add", "finish"])
@pytest.mark.parametrize("run,failing_prefix,superstep", [
    (_alg4, "pagerank-alg4-s1-", 1),
    (lambda system, engine, graph: run_personalized_pagerank(engine, 0, iterations=3),
     "ppr-i1-", None),
    (lambda system, engine, graph: run_betweenness_centrality(engine, 0),
     "bc-back-2-", None),
    # The engine's own path: the control row.
    (lambda system, engine, graph: run_pagerank(engine, graph.num_vertices, 3),
     "pagerank-s1-", 1),
], ids=["alg4", "ppr", "bc-backtrace", "pagerank"])
def test_failed_sort_reduce_leaks_nothing(monkeypatch, run, failing_prefix,
                                          superstep, failing_call):
    """A FlashError out of one sort-reduce — while it is being fed, or while
    it merges — releases that reducer's chunk buffer and run files, whichever
    driver owns it."""
    rng = np.random.default_rng(3)
    graph = CSRGraph.from_edges(rng.integers(0, 600, 9000).astype(np.uint64),
                                rng.integers(0, 600, 9000).astype(np.uint64), 600)
    system, engine = build(graph, mode="sortreduce")
    real = getattr(ExternalSortReducer, failing_call)
    fired = []

    def fail_once(self, *args):
        if not fired and self.name_prefix.startswith(failing_prefix):
            if failing_call == "add":
                real(self, *args)     # leave sorted runs behind, then fail
            fired.append(self.name_prefix)
            raise FlashError("injected")
        return real(self, *args)

    monkeypatch.setattr(ExternalSortReducer, failing_call, fail_once)
    in_use = system.memory.in_use
    with pytest.raises(FlashError, match="injected") as exc:
        run(system, engine, graph)
    assert fired
    assert system.memory.in_use == in_use
    assert [name for name in system.store.list_files()
            if name.startswith(fired[0])] == []
    if superstep is not None:
        assert exc.value.superstep == superstep
        assert any(f"superstep {superstep}" in note
                   for note in exc.value.__notes__)
