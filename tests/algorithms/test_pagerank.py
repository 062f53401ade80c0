"""PageRank: program, measured iteration, Algorithm 4 custom actives."""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankProgram, run_pagerank, run_pagerank_alg4
from repro.algorithms.reference import pagerank_push
from repro.engine.config import make_system
from repro.graph.datasets import build_graph
from repro.graph.formats import FlashCSR

SCALE = 2.0 ** -15


@pytest.fixture(scope="module")
def kron():
    return build_graph("kron28", SCALE, seed=5)


def make_engine(graph, kind="grafsoft"):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    return system, system.engine_for(flash_graph, graph.num_vertices)


def test_program_pieces():
    program = PageRankProgram(num_vertices=100)
    assert program.default_value == pytest.approx(0.01)
    messages = program.vertex_messages(
        np.array([0.4, 0.9]), None, np.array([2, 3], dtype=np.uint64))
    assert np.allclose(messages, [0.2, 0.3])
    finalized = program.finalize(np.array([0.5]), np.zeros(1))
    assert finalized[0] == pytest.approx(0.15 / 100 + 0.85 * 0.5)
    # 1/N is the fixed point of finalize (the all-active seed trick).
    assert program.finalize(np.array([0.01]), np.zeros(1))[0] == pytest.approx(0.01)


def test_program_validation():
    with pytest.raises(ValueError):
        PageRankProgram(0)
    with pytest.raises(ValueError):
        run_pagerank(None, 10, iterations=0)


def test_first_iteration_exact(kron):
    _, engine = make_engine(kron)
    result = run_pagerank(engine, kron.num_vertices, iterations=1)
    assert np.allclose(result.final_values(), pagerank_push(kron, 1), atol=1e-14)


def test_rank_is_conserved_modulo_damping(kron):
    _, engine = make_engine(kron)
    result = run_pagerank(engine, kron.num_vertices, iterations=1)
    ranks = result.final_values()
    assert (ranks > 0).all()
    # Total mass stays near 1 (exact only without dangling vertices).
    assert ranks.sum() == pytest.approx(1.0, rel=0.2)


def test_engine_iterations_update_receivers(kron):
    # Multi-iteration run_pagerank pushes only from vertices in newV
    # (vertices with inbound edges); no-inbound sources stop pushing after
    # superstep 0 — the exact behaviour Algorithm 4 exists to fix.  The
    # reference below mirrors those semantics precisely.
    _, engine = make_engine(kron)
    two = run_pagerank(engine, kron.num_vertices, iterations=2).final_values()

    n = kron.num_vertices
    damping = 0.85
    rank1 = pagerank_push(kron, 1)
    src, dst = kron.edge_list()
    src_i, dst_i = src.astype(np.int64), dst.astype(np.int64)
    degrees = kron.out_degrees().astype(np.float64)
    has_inbound = np.zeros(n, dtype=bool)
    has_inbound[dst_i] = True
    pushing = has_inbound[src_i] & (degrees[src_i] > 0)
    contributions = np.zeros(n)
    np.add.at(contributions, dst_i[pushing], rank1[src_i[pushing]] / degrees[src_i[pushing]])
    receives = np.zeros(n, dtype=bool)
    receives[dst_i[pushing]] = True
    expected = np.where(receives, (1 - damping) / n + damping * contributions, rank1)
    assert np.allclose(two, expected, atol=1e-14)


def test_alg4_exact_with_zero_tolerance(kron):
    system, engine = make_engine(kron)
    in_graph = FlashCSR.write(system.store, "in", kron.reversed())
    result = run_pagerank_alg4(engine, in_graph, iterations=3, tol=0.0)
    assert np.allclose(result.final_values(), pagerank_push(kron, 3), atol=1e-12)
    assert result.num_supersteps == 3


def test_alg4_tolerance_bounds_error(kron):
    system, engine = make_engine(kron)
    in_graph = FlashCSR.write(system.store, "in", kron.reversed())
    result = run_pagerank_alg4(engine, in_graph, iterations=10, tol=1e-9)
    # Delta-filtered activation is approximate: a vertex whose rank
    # transiently stops moving freezes.  The error stays tiny.
    assert np.abs(result.final_values() - pagerank_push(kron, 10)).max() < 1e-3


def test_alg4_converges_and_stops_early(kron):
    system, engine = make_engine(kron)
    in_graph = FlashCSR.write(system.store, "in", kron.reversed())
    result = run_pagerank_alg4(engine, in_graph, iterations=500, tol=1e-7)
    assert result.num_supersteps < 500  # quiesced before the limit
    converged = pagerank_push(kron, 200)
    assert np.abs(result.final_values() - converged).max() < 1e-3


def test_alg4_activity_shrinks_over_iterations(kron):
    system, engine = make_engine(kron)
    in_graph = FlashCSR.write(system.store, "in", kron.reversed())
    result = run_pagerank_alg4(engine, in_graph, iterations=30, tol=1e-6)
    activated = [s.activated for s in result.supersteps]
    assert activated[-1] < activated[0]


def test_alg4_frees_bloom_memory(kron):
    system, engine = make_engine(kron)
    in_graph = FlashCSR.write(system.store, "in", kron.reversed())
    in_use_before = system.memory.in_use
    run_pagerank_alg4(engine, in_graph, iterations=2)
    assert system.memory.in_use == in_use_before
