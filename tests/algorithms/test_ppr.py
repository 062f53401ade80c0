"""Personalized PageRank via sort-reduce."""

import numpy as np
import pytest

from repro.algorithms.ppr import run_personalized_pagerank
from repro.engine.config import make_system
from repro.graph.csr import CSRGraph
from repro.graph.datasets import build_graph

SCALE = 2.0 ** -15


def reference_ppr(graph, source, damping=0.85, iterations=300):
    """Dense fixed-point iteration with push-engine dangling semantics
    (dangling vertices forward no mass)."""
    n = graph.num_vertices
    src, dst = graph.edge_list()
    src_i, dst_i = src.astype(np.int64), dst.astype(np.int64)
    degrees = graph.out_degrees().astype(np.float64)
    rank = np.zeros(n)
    rank[source] = 1.0
    teleport = np.zeros(n)
    teleport[source] = 1.0 - damping
    for _ in range(iterations):
        contributions = np.zeros(n)
        pushing = degrees[src_i] > 0
        np.add.at(contributions, dst_i[pushing],
                  rank[src_i[pushing]] / degrees[src_i[pushing]])
        rank = teleport + damping * contributions
    return rank


def make_engine(graph, kind="grafsoft"):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    return system.engine_for(flash_graph, graph.num_vertices)


def test_ppr_converges_to_fixed_point():
    graph = build_graph("kron28", SCALE, seed=9)
    source = int(np.flatnonzero(graph.out_degrees() > 0)[0])
    engine = make_engine(graph)
    result = run_personalized_pagerank(engine, source, iterations=60)
    reference = reference_ppr(graph, source)
    got = result.final_values()
    # Reached vertices converge to the fixed point; unreached stay 0.
    assert np.abs(got - reference).max() < 1e-4
    assert got[source] == pytest.approx(reference[source], abs=1e-4)


def test_ppr_mass_concentrates_near_source(tiny_graph):
    engine = make_engine(tiny_graph, kind="grafboost")
    result = run_personalized_pagerank(engine, 0, iterations=40)
    ranks = result.final_values()
    assert ranks[0] == max(ranks)       # the source dominates
    assert ranks[5] == 0.0              # unreachable vertex gets nothing
    assert (ranks >= 0).all()
    # Mass is bounded by the teleport budget.
    assert ranks.sum() <= 1.0 + 1e-9


def test_ppr_active_set_grows_then_settles():
    graph = build_graph("twitter", SCALE, seed=9)
    source = int(np.flatnonzero(graph.out_degrees() > 0)[0])
    engine = make_engine(graph)
    result = run_personalized_pagerank(engine, source, iterations=15)
    activated = [s.activated for s in result.supersteps]
    assert activated[0] == 1            # only the source at first
    assert max(activated) > 10          # mass spread outward
    assert result.elapsed_s > 0


def test_ppr_early_stop_on_tiny_mass(tiny_graph):
    engine = make_engine(tiny_graph)
    result = run_personalized_pagerank(engine, 0, iterations=500)
    assert result.num_supersteps < 500


def test_ppr_different_sources_differ(tiny_graph):
    a = run_personalized_pagerank(make_engine(tiny_graph), 0, iterations=30)
    b = run_personalized_pagerank(make_engine(tiny_graph), 3, iterations=30)
    assert not np.allclose(a.final_values(), b.final_values())


def test_ppr_validation(tiny_graph):
    engine = make_engine(tiny_graph)
    with pytest.raises(ValueError):
        run_personalized_pagerank(engine, 99, iterations=1)
    with pytest.raises(ValueError):
        run_personalized_pagerank(engine, 0, iterations=0)
