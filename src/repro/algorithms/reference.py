"""Trusted in-memory reference implementations for cross-validation.

Every engine in this reproduction — GraFBoost, GraFSoft and the four
baseline strategies — must produce answers that agree with these simple,
obviously-correct implementations on the same graphs.  They operate on
:class:`~repro.graph.csr.CSRGraph` directly with no storage simulation.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

#: PageRank's damping factor, the paper's one setting; every PageRank here
#: (the engine's programs, the baselines' kernel, this reference) uses it.
DAMPING = 0.85


def bfs_levels(graph: CSRGraph, root: int) -> np.ndarray:
    """BFS level per vertex (-1 = unreachable)."""
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        starts = graph.offsets[frontier].astype(np.int64)
        ends = graph.offsets[frontier + 1].astype(np.int64)
        neighbors = np.concatenate(
            [graph.targets[s:e] for s, e in zip(starts, ends)]
        ).astype(np.int64) if len(frontier) else np.empty(0, np.int64)
        if len(neighbors) == 0:
            break
        fresh = np.unique(neighbors[levels[neighbors] == -1])
        levels[fresh] = level
        frontier = fresh
    return levels


def validate_parents(graph: CSRGraph, root: int, parents: np.ndarray,
                     unvisited) -> bool:
    """A parent array is valid iff visited set matches reachability, the
    root parents itself, and every parent is one BFS level shallower with a
    real edge to its child (the Graph500 validation conditions)."""
    levels = bfs_levels(graph, root)
    visited = parents != unvisited
    if not np.array_equal(visited, levels >= 0):
        return False
    if parents[root] != root:
        return False
    for v in np.flatnonzero(visited):
        v = int(v)
        if v == root:
            continue
        p = int(parents[v])
        if levels[p] != levels[v] - 1:
            return False
        if v not in graph.neighbors(p):
            return False
    return True


def pagerank_push(graph: CSRGraph, iterations: int) -> np.ndarray:
    """Push-semantics PageRank matching the vertex-program formulation.

    Every vertex pushes ``rank/out_degree`` along its out-edges; receivers
    dampen the sum.  Vertices with no in-edges keep their previous rank (no
    update ever reaches them) — the same semantics as the push-style engines
    being validated, which differs from textbook PageRank for such vertices.
    """
    n = graph.num_vertices
    rank = np.full(n, 1.0 / n)
    degrees = graph.out_degrees().astype(np.float64)
    src, dst = graph.edge_list()
    src_i = src.astype(np.int64)
    dst_i = dst.astype(np.int64)
    has_inbound = np.zeros(n, dtype=bool)
    has_inbound[dst_i] = True
    for _ in range(iterations):
        contributions = np.zeros(n)
        pushing = degrees[src_i] > 0
        np.add.at(contributions, dst_i[pushing], rank[src_i[pushing]] / degrees[src_i[pushing]])
        new_rank = (1 - DAMPING) / n + DAMPING * contributions
        rank = np.where(has_inbound, new_rank, rank)
    return rank


def min_label_closure(graph: CSRGraph) -> np.ndarray:
    """Label propagation's fixed point on the directed graph: for each
    vertex, the minimum id among the vertices that reach it, itself
    included (its component's minimum id on a symmetrized graph)."""
    labels = np.arange(graph.num_vertices, dtype=np.uint64)
    src, dst = graph.edge_list()
    src_i, dst_i = src.astype(np.int64), dst.astype(np.int64)
    while True:
        pushed = labels.copy()
        np.minimum.at(pushed, dst_i, labels[src_i])
        if np.array_equal(pushed, labels):
            return labels
        labels = pushed


def sssp_distances(graph: CSRGraph, root: int) -> np.ndarray:
    """Dijkstra via scipy (weighted; inf = unreachable)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    if not graph.has_weights:
        raise ValueError("reference SSSP needs a weighted graph")
    n = graph.num_vertices
    src, dst = graph.edge_list()
    src_i = src.astype(np.int64)
    dst_i = dst.astype(np.int64)
    weights = graph.weights.astype(np.float64)
    # csr_matrix sums duplicate entries; parallel edges must keep the
    # minimum weight instead, matching multigraph shortest-path semantics.
    pair = src_i * n + dst_i
    order = np.lexsort((weights, pair))
    pair, weights = pair[order], weights[order]
    first = np.concatenate([[True], pair[1:] != pair[:-1]]) if len(pair) else np.empty(0, bool)
    pair, weights = pair[first], weights[first]
    matrix = csr_matrix((weights, (pair // n, pair % n)), shape=(n, n))
    return dijkstra(matrix, directed=True, indices=root)
