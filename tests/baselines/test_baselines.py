"""Baseline engines: correct answers, characteristic behaviours, DNF modes."""

import numpy as np
import pytest

from repro.algorithms.bfs import UNVISITED
from repro.algorithms.reference import pagerank_push, validate_parents
from repro.baselines import (
    ClusterInMemoryEngine,
    EdgeCentricEngine,
    InMemoryEngine,
    SemiExternalEngine,
    ShardedExternalEngine,
)
from repro.graph.datasets import build_graph
from repro.perf.profiles import SERVER_SSD_ARRAY
from tests.support import bfs_tree_descendants

SCALE = 2.0 ** -14
SERVER = SERVER_SSD_ARRAY.scaled(SCALE)
ALL_ENGINES = [InMemoryEngine, SemiExternalEngine, EdgeCentricEngine,
               ShardedExternalEngine, ClusterInMemoryEngine]


@pytest.fixture(scope="module")
def twitter():
    # twitter is the one dataset every system handles in the paper.
    return build_graph("twitter", SCALE, seed=13)


@pytest.fixture(scope="module")
def twitter_root(twitter):
    return int(np.flatnonzero(twitter.out_degrees() > 0)[0])


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_bfs_correct(engine_cls, twitter, twitter_root):
    result = engine_cls(twitter, SERVER).run_bfs(twitter_root)
    assert result.completed
    assert validate_parents(twitter, twitter_root, result.final_values, UNVISITED)
    assert result.elapsed_s > 0
    assert result.supersteps > 0


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_pagerank_correct(engine_cls, twitter):
    result = engine_cls(twitter, SERVER).run("pagerank", iterations=2)
    assert result.completed
    assert np.allclose(result.final_values, pagerank_push(twitter, 2))


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_bc_correct(engine_cls, twitter, twitter_root):
    bfs = engine_cls(twitter, SERVER).run_bfs(twitter_root)
    result = engine_cls(twitter, SERVER).run("bc", root=twitter_root)
    assert result.completed
    expected = bfs_tree_descendants(twitter, twitter_root,
                                    bfs.final_values, UNVISITED)
    assert np.allclose(result.final_values, expected)


def test_graphlab_oom_on_kron28():
    # §V-D: "GraphLab cannot handle graphs larger than the twitter graph."
    kron = build_graph("kron28", SCALE, seed=13)
    engine = InMemoryEngine(kron, SERVER)
    assert not engine.fits()
    result = engine.run("pagerank")
    assert not result.completed
    assert "out of memory" in result.dnf_reason
    assert result.elapsed_s != result.elapsed_s  # NaN
    assert result.final_values is None


def test_graphlab5_handles_kron28_not_kron30():
    # §V-D: "GraphLab5 cannot handle graphs larger than Kron28."
    kron28 = build_graph("kron28", SCALE, seed=13)
    assert ClusterInMemoryEngine(kron28, SERVER).run("pagerank").completed
    kron30 = build_graph("kron30", SCALE, seed=13)
    assert not ClusterInMemoryEngine(kron30, SERVER).run("pagerank").completed


def test_graphlab5_network_hurts_bfs(twitter, twitter_root):
    # §V-D: GraphLab5 "is relatively slow for BFS, even against single-node
    # GraphLab ... the network becoming the bottleneck."
    single = InMemoryEngine(twitter, SERVER).run_bfs(twitter_root)
    cluster = ClusterInMemoryEngine(twitter, SERVER).run_bfs(twitter_root)
    assert cluster.elapsed_s > single.elapsed_s


def test_flashgraph_dnf_on_kron32():
    # Fig 12a: FlashGraph "did not finish for any algorithms" on kron32 —
    # its (scaled) vertex id space cannot hold 2^32 vertices.
    kron32 = build_graph("kron32", SCALE, seed=13)
    engine = SemiExternalEngine(kron32, SERVER,
                                max_vertices=int(2 ** 32 * SCALE) - 1)
    result = engine.run_bfs(0)
    assert not result.completed
    assert "id space" in result.dnf_reason


def test_flashgraph_oom_when_state_cannot_swap(twitter):
    # Vertex state beyond the thrashing tolerance refuses to run.
    tiny = SERVER.with_dram(max(4096, twitter.num_vertices * 2))
    result = SemiExternalEngine(twitter, tiny).run("bc", root=0)
    assert not result.completed
    assert "vertex state" in result.dnf_reason


def test_flashgraph_degrades_with_less_memory(twitter):
    # Fig 13b: FlashGraph's performance "degrades sharply" as memory shrinks.
    roomy = SemiExternalEngine(twitter, SERVER).run("pagerank")
    vertex_state = SemiExternalEngine(twitter, SERVER).state_bytes("pagerank")
    tight_profile = SERVER.with_dram(int(vertex_state * 0.95))
    tight = SemiExternalEngine(twitter, tight_profile).run("pagerank")
    assert roomy.completed and tight.completed
    assert tight.elapsed_s > roomy.elapsed_s


def test_flashgraph_bfs_needs_little_memory(twitter, twitter_root):
    # §V-C.2: BFS memory requirements are low; FlashGraph stays fast on
    # machines with small memory.
    vertex_state = SemiExternalEngine(twitter, SERVER).state_bytes("bfs")
    small_profile = SERVER.with_dram(int(vertex_state * 1.2))
    result = SemiExternalEngine(twitter, small_profile).run_bfs(twitter_root)
    assert result.completed


def test_xstream_immune_to_memory_pressure(twitter):
    # Fig 13b: X-Stream keeps performance with little memory by splitting
    # into more streaming partitions.
    state = twitter.num_vertices * 24  # X-Stream vertex state bytes
    tiny_profile = SERVER.with_dram(max(4096, state // 2))
    engine = EdgeCentricEngine(twitter, tiny_profile)
    assert engine.num_partitions() > 1
    result = engine.run("pagerank")
    assert result.completed
    roomy = EdgeCentricEngine(twitter, SERVER).run("pagerank")
    # Partitioning costs extra update-log traffic but not collapse.
    assert result.elapsed_s < 10 * max(roomy.elapsed_s, 1e-9)


def test_xstream_pays_full_scan_per_superstep(twitter, twitter_root):
    engine = EdgeCentricEngine(twitter, SERVER)
    result = engine.run_bfs(twitter_root)
    # Every superstep streams all edges: flash traffic is at least
    # supersteps * edge bytes.
    assert result.flash_bytes >= result.supersteps * twitter.num_edges * 12


def test_xstream_dnf_on_long_tail_bfs():
    # §V-C.1: X-Stream on WDC BFS would take "two million seconds, or 23
    # days" — the experiment's patience runs out first.
    wdc = build_graph("wdc", 2.0 ** -17, seed=13)
    sparse_cutoff = EdgeCentricEngine(wdc, SERVER, cutoff_s=0.05)
    result = sparse_cutoff.run_bfs(0)
    assert not result.completed
    assert "patience" in result.dnf_reason


def test_graphchi_constant_memory():
    # GraphChi works even when vertex data exceeds DRAM.
    kron32 = build_graph("kron32", SCALE, seed=13)
    engine = ShardedExternalEngine(kron32, SERVER)
    result = engine.run("pagerank")
    assert result.completed
    assert result.memory_bytes <= SERVER.dram_capacity


def test_graphchi_slowest_on_pagerank(twitter):
    # "Its performance is not competitive with any of the other systems."
    times = {}
    for engine_cls in ALL_ENGINES:
        result = engine_cls(twitter, SERVER).run("pagerank")
        if result.completed:
            times[engine_cls.__name__] = result.elapsed_s
    assert times["ShardedExternalEngine"] == max(times.values())


def test_inmemory_fastest_when_it_fits(twitter):
    fast = InMemoryEngine(twitter, SERVER).run("pagerank")
    slow = ShardedExternalEngine(twitter, SERVER).run("pagerank")
    assert fast.elapsed_s < slow.elapsed_s


def test_result_time_or_nan(twitter, twitter_root):
    good = InMemoryEngine(twitter, SERVER).run_bfs(twitter_root)
    assert good.time_or_nan == good.elapsed_s
    bad = InMemoryEngine(build_graph("kron30", SCALE), SERVER).run_bfs(0)
    assert bad.time_or_nan != bad.time_or_nan
