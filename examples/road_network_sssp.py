#!/usr/bin/env python3
"""Weighted shortest paths and connectivity on a road-like network.

BFS "forms the basis and shares the characteristics of many other
algorithms such as Single-Source Shortest Path and Label Propagation"
(§V-A).  This example exercises both on a grid-with-shortcuts network:
SSSP with MIN as the sort-reduce operator (distances validated against
Dijkstra) and label propagation for connected components (labels validated
against the minimum-label closure).

Run:  python examples/road_network_sssp.py
"""

import numpy as np

from repro.algorithms.cc import NO_LABEL, run_label_propagation
from repro.algorithms.reference import min_label_closure, sssp_distances
from repro.algorithms.sssp import run_sssp
from repro.engine.config import make_system
from repro.graph.csr import CSRGraph
from repro.perf.report import human_seconds

SCALE = 2.0 ** -14


def build_road_network(side: int = 120, shortcut_fraction: float = 0.02,
                       seed: int = 11) -> CSRGraph:
    """A side x side grid of intersections with km-ish edge weights plus a
    few long highway shortcuts; a detached block models an island."""
    rng = np.random.default_rng(seed)
    n = side * side + side  # grid plus a detached island ring
    ids = np.arange(side * side).reshape(side, side)
    east = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    south = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    grid = np.concatenate([east, east[::-1], south, south[::-1]], axis=1)

    n_short = int(n * shortcut_fraction)
    a = rng.integers(0, side * side, n_short)  # shortcuts stay on the mainland
    b = rng.integers(0, side * side, n_short)
    shortcuts = np.stack([np.concatenate([a, b]), np.concatenate([b, a])])

    src = np.concatenate([grid[0], shortcuts[0]]).astype(np.uint64)
    dst = np.concatenate([grid[1], shortcuts[1]]).astype(np.uint64)
    weights = np.concatenate([
        rng.uniform(0.5, 2.0, grid.shape[1]),       # local streets
        rng.uniform(0.2, 0.6, shortcuts.shape[1]),  # fast highways
    ]).astype(np.float32)
    # The island: `side` extra vertices beyond the grid form their own ring.
    island = np.arange(side * side, n, dtype=np.uint64)
    ring_src = np.concatenate([island, np.roll(island, 1)])
    ring_dst = np.concatenate([np.roll(island, 1), island])
    src = np.concatenate([src, ring_src])
    dst = np.concatenate([dst, ring_dst])
    weights = np.concatenate([weights, np.full(2 * side, 1.0, dtype=np.float32)])
    return CSRGraph.from_edges(src, dst, n, weights)


def main() -> None:
    graph = build_road_network()
    print(f"Road network: {graph.num_vertices:,} intersections, "
          f"{graph.num_edges:,} road segments (weighted)")

    system = make_system("grafboost", SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)

    depot = 0
    print(f"\n== SSSP from depot {depot} (MIN reduction through sort-reduce) ==")
    result = run_sssp(engine, depot)
    distances = result.final_values()
    reachable = ~np.isinf(distances)
    print(f"  supersteps        : {result.num_supersteps}")
    print(f"  reachable         : {int(reachable.sum()):,} intersections")
    print(f"  farthest          : {distances[reachable].max():.2f} km")
    print(f"  simulated time    : {human_seconds(result.elapsed_s)}")

    reference = sssp_distances(graph, depot)
    # The engine must reach exactly the vertices Dijkstra reaches.
    assert np.array_equal(np.isinf(distances), np.isinf(reference)), "reachable sets differ"
    max_err = np.max(np.abs(distances[reachable] - reference[reachable]))
    print(f"  vs Dijkstra       : max |error| = {max_err:.2e}")

    print("\n== Connected components (label propagation, MIN) ==")
    system2 = make_system("grafsoft", SCALE, num_vertices_hint=graph.num_vertices)
    flash2 = system2.load_graph(graph)
    engine2 = system2.engine_for(flash2, graph.num_vertices)
    cc = run_label_propagation(engine2)
    labels = cc.final_values()
    resolved = np.where(labels == NO_LABEL,
                        np.arange(graph.num_vertices, dtype=np.uint64), labels)
    # Every label must be the minimum id that reaches its vertex.
    assert np.array_equal(resolved, min_label_closure(graph)), "labels differ"
    components, sizes = np.unique(resolved, return_counts=True)
    print(f"  components        : {len(components)}")
    for label, size in sorted(zip(components, sizes), key=lambda t: -t[1])[:3]:
        print(f"    component rooted at {int(label):6d}: {size:,} intersections")
    print(f"  simulated time    : {human_seconds(cc.elapsed_s)}")


if __name__ == "__main__":
    main()
