"""Every analytics kind × every execution mode, and the service's point
queries, against the references, on small adversarial shapes.

Each kind with a factory in :data:`repro.algorithms.ANALYTICS` runs on
each shape in each of the four engine modes and is checked against
:mod:`repro.algorithms.reference`; then the four modes must agree bit for
bit, for BC's two-phase driver too.  ``neighborhood`` and ``path`` queries
from every vertex are checked against :func:`reference.bfs_levels`, and a
shape's queries run in one shared batch must answer as each run alone.
"""

import functools
import zlib

import numpy as np
import pytest

from repro.algorithms import ANALYTICS
from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.bfs import UNVISITED
from repro.algorithms.cc import NO_LABEL
from repro.algorithms.reference import (
    bfs_levels,
    min_label_closure,
    pagerank_push,
    validate_parents,
)
from repro.engine.config import make_system
from repro.engine.modes import MODES
from repro.graph.csr import CSRGraph
from repro.harness import default_root
from repro.service.queries import run_point_batch

SCALE = 2.0 ** -16


def _graph(edges, n):
    src, dst = (np.array(side, dtype=np.uint64) for side in zip(*edges))
    return CSRGraph.from_edges(src, dst, n)


SHAPES = {
    "chain": _graph([(v, v + 1) for v in range(9)], 10),
    "out_star": _graph([(0, v) for v in range(1, 10)], 10),
    "in_star": _graph([(v, 0) for v in range(1, 10)], 10),
    "cycle": _graph([(v, (v + 1) % 8) for v in range(8)], 8),
    "self_loops_parallel": _graph(
        [(0, 0), (0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (2, 3),
         (2, 3), (3, 3)], 5),
    "two_components": _graph(
        [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 6), (6, 5), (9, 10)],
        12),
    # A level on which two frontier vertices each discover new vertices, so
    # a path query must keep each new vertex's own parent.
    "binary_tree": _graph(
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)], 7),
}

PROGRAM_KINDS = [kind for kind, analytic in ANALYTICS.items()
                 if analytic.factory is not None]


@functools.cache
def run(shape: str, kind: str, mode: str) -> np.ndarray:
    """Final values of ``kind`` on ``shape`` in ``mode`` (BC: centrality)."""
    graph = SHAPES[shape]
    system = make_system("grafsoft", SCALE,
                         num_vertices_hint=graph.num_vertices, mode=mode)
    engine = system.engine_for(system.load_graph(graph), graph.num_vertices)
    root = default_root(graph)
    factory = ANALYTICS[kind].factory
    if factory is None:
        return run_betweenness_centrality(engine, root).centrality
    program, limit = factory(graph.num_vertices, root, {"iters": 1})
    return engine.run(program, max_supersteps=limit).final_values()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", PROGRAM_KINDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_matches_reference(shape, kind, mode):
    graph = SHAPES[shape]
    values = run(shape, kind, mode)
    if kind == "pagerank":
        # Equal up to the order the in-edge contributions are summed in.
        np.testing.assert_allclose(values, pagerank_push(graph, 1),
                                   rtol=1e-12, atol=0)
    elif kind == "bfs":
        assert validate_parents(graph, default_root(graph), values, UNVISITED)
    else:
        # A vertex no label reached keeps its own id in the closure.
        own = np.arange(graph.num_vertices, dtype=np.uint64)
        assert np.array_equal(np.where(values == NO_LABEL, own, values),
                              min_label_closure(graph))


@pytest.mark.parametrize("kind", ANALYTICS)
@pytest.mark.parametrize("shape", SHAPES)
def test_modes_agree_bit_for_bit(shape, kind):
    first, *others = (run(shape, kind, mode) for mode in MODES)
    for values in others:
        assert values.dtype == first.dtype
        assert values.tobytes() == first.tobytes()


def point_queries(n: int) -> list[tuple[str, str, dict]]:
    """Neighborhoods of every vertex at depths 0, 1, 2 and 5, and paths
    between every pair at caps 1, 3 and 64."""
    queries = [("neighborhood", {"v": v, "depth": depth})
               for v in range(n) for depth in (0, 1, 2, 5)]
    queries += [("path", {"src": src, "dst": dst, "cap": cap})
                for src in range(n) for dst in range(n) for cap in (1, 3, 64)]
    return [(f"q{i}", kind, params) for i, (kind, params) in enumerate(queries)]


@functools.cache
def point_results(shape: str, batched: bool) -> dict[str, dict]:
    """Every query's result, from one shared batch or each run alone."""
    graph = SHAPES[shape]
    system = make_system("grafsoft", SCALE, num_vertices_hint=graph.num_vertices)
    flash = system.load_graph(graph)
    queries = point_queries(graph.num_vertices)
    if batched:
        return run_point_batch(flash, system.backend, system.clock, queries)
    results: dict[str, dict] = {}
    for query in queries:
        results.update(run_point_batch(flash, system.backend, system.clock,
                                       [query]))
    return results


@pytest.mark.parametrize("shape", SHAPES)
def test_point_queries_match_reference(shape):
    graph = SHAPES[shape]
    levels = [bfs_levels(graph, v) for v in range(graph.num_vertices)]
    results = point_results(shape, batched=True)
    for job_id, kind, params in point_queries(graph.num_vertices):
        result = results[job_id]
        if kind == "neighborhood":
            level = levels[params["v"]]
            expected = np.flatnonzero((level >= 0) & (level <= params["depth"]))
            assert result["vertices"] == expected.tolist(), (job_id, params)
            assert result["checksum"] == zlib.crc32(expected.astype(np.int64).tobytes())
            continue
        src, dst = params["src"], params["dst"]
        level = int(levels[src][dst])
        assert result["found"] == (0 <= level <= params["cap"]), (job_id, params)
        if result["found"]:
            path = result["path"]
            assert result["hops"] == level == len(path) - 1, (job_id, params)
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert b in graph.neighbors(a), (job_id, params, path)


@pytest.mark.parametrize("shape", SHAPES)
def test_point_batch_equals_solo_runs(shape):
    assert point_results(shape, batched=True) == point_results(shape, batched=False)
