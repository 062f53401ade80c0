"""Cross-system integration: every engine and every baseline must compute
identical answers on every dataset shape.

This is the reproduction's strongest correctness net: the fully-functional
flash-backed engines (GraFBoost / GraFBoost2 / GraFSoft) and the four
baseline strategy models all run the same algorithms on the same graphs and
are compared pairwise and against independent references.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import UNVISITED, run_bfs
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.reference import bfs_levels, pagerank_push, validate_parents
from repro.baselines import (
    ClusterInMemoryEngine,
    EdgeCentricEngine,
    InMemoryEngine,
    SemiExternalEngine,
    ShardedExternalEngine,
)
from repro.engine.config import make_system
from repro.graph.datasets import build_graph
from repro.harness import default_root
from tests.support import bfs_tree_descendants
from repro.perf.profiles import SERVER_SSD_ARRAY

SCALE = 2.0 ** -16
DATASETS = ["twitter", "kron28", "wdc"]
BASELINES = [InMemoryEngine, SemiExternalEngine, EdgeCentricEngine,
             ShardedExternalEngine, ClusterInMemoryEngine]


def engine_for(kind, graph):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    return system.engine_for(flash_graph, graph.num_vertices)


@pytest.mark.parametrize("dataset", DATASETS)
def test_bfs_levels_agree_everywhere(dataset):
    graph = build_graph(dataset, SCALE)
    root = default_root(graph)
    reference = bfs_levels(graph, root)

    for kind in ("grafboost", "grafsoft"):
        parents = run_bfs(engine_for(kind, graph), root).final_values()
        assert validate_parents(graph, root, parents, UNVISITED), (dataset, kind)

    big_profile = SERVER_SSD_ARRAY  # unscaled: everything fits, no DNFs
    for baseline_cls in BASELINES:
        result = baseline_cls(graph, big_profile).run_bfs(root)
        assert result.completed, (dataset, baseline_cls.__name__)
        parents = result.final_values
        visited = parents != UNVISITED
        assert np.array_equal(visited, reference >= 0), (dataset, baseline_cls.__name__)


@pytest.mark.parametrize("dataset", DATASETS)
def test_pagerank_agrees_everywhere(dataset):
    graph = build_graph(dataset, SCALE)
    reference = pagerank_push(graph, 1)

    for kind in ("grafboost", "grafsoft"):
        engine = engine_for(kind, graph)
        ranks = run_pagerank(engine, graph.num_vertices, 1).final_values()
        assert np.allclose(ranks, reference, atol=1e-12), (dataset, kind)

    for baseline_cls in BASELINES:
        result = baseline_cls(graph, SERVER_SSD_ARRAY).run("pagerank", iterations=1)
        assert result.completed
        assert np.allclose(result.final_values, reference), \
            (dataset, baseline_cls.__name__)


@pytest.mark.parametrize("dataset", ["twitter", "kron28"])
def test_bc_agrees_everywhere(dataset):
    graph = build_graph(dataset, SCALE)
    root = default_root(graph)

    engine = engine_for("grafboost", graph)
    bc = run_betweenness_centrality(engine, root)
    expected = bfs_tree_descendants(graph, root, bc.forward.final_values(),
                                    UNVISITED)
    assert np.allclose(bc.centrality, expected)

    for baseline_cls in BASELINES:
        baseline_bfs = baseline_cls(graph, SERVER_SSD_ARRAY).run_bfs(root)
        result = baseline_cls(graph, SERVER_SSD_ARRAY).run("bc", root=root)
        baseline_expected = bfs_tree_descendants(
            graph, root, baseline_bfs.final_values, UNVISITED)
        assert np.allclose(result.final_values, baseline_expected), \
            (dataset, baseline_cls.__name__)


def test_flash_data_really_round_trips():
    """The engines' storage is not a mock: corrupting one flash page changes
    the observable file contents."""
    graph = build_graph("twitter", SCALE)
    # sanitize=False: this test corrupts raw flash behind the device API,
    # which is precisely the tampering FlashSan exists to report.
    system = make_system("grafboost", SCALE, num_vertices_hint=graph.num_vertices,
                         sanitize=False)
    flash_graph = system.load_graph(graph)
    # Reach into the device and flip a page of the edge file.
    store = system.store
    edge_file = store._files[flash_graph.edge_file]
    block = edge_file.extents[0]
    page_data = system.device._data[(block, 0)]
    system.device._data[(block, 0)] = b"\xff" * len(page_data)
    corrupted = store.read_array(flash_graph.edge_file, np.uint64, 0, 8)
    assert (corrupted == np.uint64(0xFFFFFFFFFFFFFFFF)).all()


def test_memory_budget_enforced_end_to_end():
    """Engines must never exceed their DRAM budget (strict tracker):
    a full run leaves zero outstanding allocations."""
    graph = build_graph("kron28", SCALE)
    system = make_system("grafsoft", SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    run_pagerank(engine, graph.num_vertices, 1)
    assert system.memory.peak <= system.memory.budget
    assert system.memory.in_use == 0


def test_flash_space_fully_reclaimed():
    """After a run, only the graph, V and the final newV remain on flash —
    every temporary sort-reduce file was deleted."""
    graph = build_graph("twitter", SCALE)
    system = make_system("grafboost", SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    run_bfs(engine, default_root(graph))
    temp_runs = [name for name in system.store.list_files() if "bfs/s" in name]
    assert temp_runs == []
