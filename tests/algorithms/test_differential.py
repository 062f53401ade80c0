"""Every analytics kind × every execution mode, the baseline engines, and the
service's point queries, against the references, on small adversarial
shapes and on generated graphs.

Each kind with a factory in :data:`repro.algorithms.ANALYTICS` runs on
each graph in each of the four engine modes and is checked against
:mod:`repro.algorithms.reference`; BC's two-phase driver is checked
against the descendant counts of its own BFS tree; then the four modes
must agree bit for bit.  A BFS parent is the vertex's first discoverer
(:func:`tests.support.first_parents`), as the paper's
``vertex_update(v1, v2) = v1`` keeps it, in GraFBoost and in every
baseline engine alike.  ``neighborhood`` and ``path`` queries from every
vertex are checked against :func:`reference.bfs_levels` and the
first-discoverer tree, and a graph's queries run in one shared batch must
answer as each run alone.

The fixed :data:`SHAPES` are parametrized cases on GraFSoft's stack; the
generated-graph oracle draws a family of
:data:`tests.support.GRAPH_FAMILIES`, a vertex count, a seed and the stack
(GraFBoost's raw flash or GraFSoft's SSD), and runs every check on one
graph.
"""

import functools
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.algorithms import ANALYTICS
from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.bfs import UNVISITED
from repro.algorithms.cc import NO_LABEL
from repro.algorithms.reference import (
    bfs_levels,
    min_label_closure,
    pagerank_push,
)
from repro.baselines import BASELINE_ENGINES
from repro.engine.config import make_system
from repro.engine.modes import MODES
from repro.graph.csr import CSRGraph
from repro.harness import default_root
from repro.perf.profiles import SERVER_SSD_ARRAY
from repro.service.queries import run_point_batch
from tests.support import (
    GRAPH_FAMILIES,
    bfs_tree_descendants,
    first_parents,
    generated_graph,
)

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
    # Vertex 3 is discovered by 1 and then by 2 on one level: its parent is
    # 1, the first discoverer, in every engine and in a path query.
    "diamond": _graph([(0, 1), (0, 2), (1, 3), (2, 3)], 4),
}


def outcome(graph: CSRGraph, kind: str, mode: str, stack: str = "grafsoft"):
    """Final values of ``kind`` on ``graph`` in ``mode`` on ``stack``, and
    for BC (whose values are the centrality) the BFS tree its backtrace
    walked."""
    system = make_system(stack, SCALE,
                         num_vertices_hint=graph.num_vertices, mode=mode)
    engine = system.engine_for(system.load_graph(graph), graph.num_vertices)
    root = default_root(graph)
    factory = ANALYTICS[kind].factory
    if factory is None:
        bc = run_betweenness_centrality(engine, root)
        return bc.centrality, bc.forward.final_values()
    program, limit = factory(graph.num_vertices, root, {"iters": 1})
    return engine.run(program, max_supersteps=limit).final_values(), None


def check_reference(graph: CSRGraph, kind: str, values: np.ndarray,
                    tree: np.ndarray | None) -> None:
    root = default_root(graph)
    if kind == "pagerank":
        # Equal up to the order the in-edge contributions are summed in.
        np.testing.assert_allclose(values, pagerank_push(graph, 1),
                                   rtol=1e-12, atol=0)
    elif kind == "bfs":
        assert values.tobytes() == first_parents(graph, root, UNVISITED).tobytes()
    elif kind == "bc":
        assert np.array_equal(
            values, bfs_tree_descendants(graph, root, tree, UNVISITED))
    else:
        # A vertex no label reached keeps its own id in the closure.
        own = np.arange(graph.num_vertices, dtype=np.uint64)
        assert np.array_equal(np.where(values == NO_LABEL, own, values),
                              min_label_closure(graph))


def check_modes(graph: CSRGraph, kind: str, outcomes: list) -> None:
    """Each mode's values against the reference, and bit for bit against
    the first mode's."""
    first = outcomes[0][0]
    for values, tree in outcomes:
        check_reference(graph, kind, values, tree)
        assert values.dtype == first.dtype
        assert values.tobytes() == first.tobytes()


def check_baselines(graph: CSRGraph) -> None:
    """Every baseline engine's BFS, 1-iteration PageRank and BC."""
    root = default_root(graph)
    profile = SERVER_SSD_ARRAY.scaled(SCALE)
    parents = first_parents(graph, root, UNVISITED)
    descendants = bfs_tree_descendants(graph, root, parents, UNVISITED)
    for engine_cls in BASELINE_ENGINES:
        bfs, pagerank, bc = (engine_cls(graph, profile).run(kind, root=root)
                             for kind in ("bfs", "pagerank", "bc"))
        assert bfs.final_values.tobytes() == parents.tobytes(), engine_cls.name
        np.testing.assert_allclose(pagerank.final_values,
                                   pagerank_push(graph, 1), rtol=1e-12, atol=0,
                                   err_msg=engine_cls.name)
        assert np.array_equal(bc.final_values, descendants), engine_cls.name


def point_queries(n: int) -> list[tuple[str, str, dict]]:
    """Neighborhoods of every vertex at depths 0, 1, 2 and 5, and paths
    between every pair at caps 1, 3 and 64."""
    queries = [("neighborhood", {"v": v, "depth": depth})
               for v in range(n) for depth in (0, 1, 2, 5)]
    queries += [("path", {"src": src, "dst": dst, "cap": cap})
                for src in range(n) for dst in range(n) for cap in (1, 3, 64)]
    return [(f"q{i}", kind, params) for i, (kind, params) in enumerate(queries)]


def point_results_of(graph: CSRGraph, queries: list, batched: bool,
                     stack: str = "grafsoft") -> dict[str, dict]:
    """The results of ``queries`` on ``stack``, from one shared batch or
    each run alone."""
    system = make_system(stack, SCALE, num_vertices_hint=graph.num_vertices)
    flash = system.load_graph(graph)
    if batched:
        return run_point_batch(flash, system.backend, system.clock, queries)
    results: dict[str, dict] = {}
    for query in queries:
        results.update(run_point_batch(flash, system.backend, system.clock,
                                       [query]))
    return results


def check_point_queries(graph: CSRGraph, results: dict[str, dict]) -> None:
    """Neighborhoods are the vertices within depth; a found path is the
    first-discoverer chain from ``src`` to ``dst``."""
    n = graph.num_vertices
    levels = [bfs_levels(graph, v) for v in range(n)]
    trees = [first_parents(graph, v, UNVISITED) for v in range(n)]
    for job_id, kind, params in point_queries(n):
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
            path = [dst]
            while path[-1] != src:
                path.append(int(trees[src][path[-1]]))
            assert result["hops"] == level, (job_id, params)
            assert result["path"] == path[::-1], (job_id, params)


# ------------------------------------------------------------ fixed shapes


@functools.cache
def run(shape: str, kind: str, mode: str):
    return outcome(SHAPES[shape], kind, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ANALYTICS)
@pytest.mark.parametrize("shape", SHAPES)
def test_matches_reference(shape, kind, mode):
    check_reference(SHAPES[shape], kind, *run(shape, kind, mode))


@pytest.mark.parametrize("kind", ANALYTICS)
@pytest.mark.parametrize("shape", SHAPES)
def test_modes_agree_bit_for_bit(shape, kind):
    check_modes(SHAPES[shape], kind, [run(shape, kind, mode) for mode in MODES])


@pytest.mark.parametrize("shape", SHAPES)
def test_baselines_match_reference(shape):
    check_baselines(SHAPES[shape])


@functools.cache
def point_results(shape: str, batched: bool) -> dict[str, dict]:
    graph = SHAPES[shape]
    return point_results_of(graph, point_queries(graph.num_vertices), batched)


@pytest.mark.parametrize("shape", SHAPES)
def test_point_queries_match_reference(shape):
    check_point_queries(SHAPES[shape], point_results(shape, batched=True))


@pytest.mark.parametrize("shape", SHAPES)
def test_point_batch_equals_solo_runs(shape):
    assert point_results(shape, batched=True) == point_results(shape, batched=False)


# --------------------------------------------------------- generated graphs


# Twenty draws can miss a family, so each family also has a fixed example.
@settings(derandomize=True, max_examples=14, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(family="erdos_renyi", n=32, seed=0, solo_sources={0}, stack="grafboost")
@example(family="barbell", n=32, seed=1, solo_sources={0}, stack="grafsoft")
@example(family="small_world", n=32, seed=2, solo_sources={0}, stack="grafboost")
@example(family="scale_free", n=32, seed=3, solo_sources={0}, stack="grafsoft")
@example(family="random_tree", n=32, seed=4, solo_sources={0}, stack="grafboost")
@example(family="lsystem_tree", n=32, seed=5, solo_sources={0}, stack="grafsoft")
@given(family=st.sampled_from(sorted(GRAPH_FAMILIES)),
       n=st.integers(8, 48), seed=st.integers(0, 2 ** 32 - 1),
       solo_sources=st.sets(st.integers(0, 47), min_size=1, max_size=3),
       stack=st.sampled_from(["grafboost", "grafsoft"]))
def test_generated_graphs_match_reference(family, n, seed, solo_sources, stack):
    graph = generated_graph(family, n, seed)
    assume(graph.num_edges > 0)
    for kind in ANALYTICS:
        check_modes(graph, kind,
                    [outcome(graph, kind, mode, stack) for mode in MODES])
    check_baselines(graph)
    queries = point_queries(n)
    batched = point_results_of(graph, queries, batched=True, stack=stack)
    check_point_queries(graph, batched)
    # Alone: every neighborhood, and the paths from a few sources (all n²
    # paths alone would cost seconds per graph).
    solo = [query for query in queries if query[1] == "neighborhood"
            or query[2]["src"] in {v % n for v in solo_sources}]
    assert point_results_of(graph, solo, batched=False, stack=stack) == {
        job_id: batched[job_id] for job_id, _, _ in solo}
