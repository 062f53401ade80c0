"""Shared numpy compute kernels for the baseline engines.

The baseline models differ in *where data lives and what I/O each superstep
costs*, not in what they compute — so the per-superstep computation is
factored here, driven once by :class:`~repro.baselines.base.BaselineEngine`,
and every model produces identical (cross-validated) answers.

Reductions go through :mod:`repro.core.reduce_ops` — the same audited op
table the sort-reduce engine and the execution modes use — so FIRST/LAST
ordering semantics are defined in exactly one place.
"""

from __future__ import annotations

import numpy as np

from repro.core.kvstream import KVArray
from repro.core.reduce_ops import FIRST, SUM
from repro.algorithms.reference import DAMPING
from repro.graph.csr import CSRGraph

#: Parent/label marker for untouched vertices (matches the engine's value).
UNVISITED = np.uint64(0xFFFFFFFFFFFFFFFF)


def bfs_expand(graph: CSRGraph, frontier: np.ndarray,
               parents: np.ndarray) -> tuple[np.ndarray, int]:
    """One BFS superstep: returns (next frontier, edges traversed).

    ``parents`` is updated in place for newly discovered vertices.
    """
    if len(frontier) == 0:
        return frontier, 0
    starts = graph.offsets[frontier].astype(np.int64)
    ends = graph.offsets[frontier + 1].astype(np.int64)
    degrees = ends - starts
    total = int(degrees.sum())
    if total == 0:
        return np.empty(0, np.int64), 0
    targets = np.concatenate(
        [graph.targets[s:e] for s, e in zip(starts, ends)]
    ).astype(np.int64)
    sources = np.repeat(frontier, degrees)
    fresh_mask = parents[targets] == UNVISITED
    targets, sources = targets[fresh_mask], sources[fresh_mask]
    if len(targets) == 0:
        return np.empty(0, np.int64), total
    # First writer wins — the engine's FIRST reduction, via the shared op
    # table (stable sort keeps stream order within equal keys).
    pairs = KVArray(targets.astype(np.uint64),
                    sources.astype(np.uint64)).sorted()
    winners = FIRST.reduce_sorted(pairs, presorted=True)
    next_frontier = winners.keys.astype(np.int64)
    parents[next_frontier] = winners.values.astype(parents.dtype)
    return next_frontier, total


def pagerank_iteration(graph: CSRGraph, rank: np.ndarray, degrees: np.ndarray,
                       has_inbound: np.ndarray) -> np.ndarray:
    """One push-PageRank iteration with retained rank for no-inbound vertices."""
    n = graph.num_vertices
    src, dst = graph.edge_list()
    src_i, dst_i = src.astype(np.int64), dst.astype(np.int64)
    contributions = np.zeros(n)
    touched = np.zeros(n, dtype=bool)
    pushing = degrees[src_i] > 0
    # SUM through the shared dense-aggregation path (stable sort keeps the
    # per-key addition sequence in stream order, matching np.add.at).
    SUM.scatter_into(contributions, touched, dst_i[pushing],
                     rank[src_i[pushing]] / degrees[src_i[pushing]])
    new_rank = (1 - DAMPING) / n + DAMPING * contributions
    return np.where(has_inbound, new_rank, rank)


def bc_backtrace(levels_lists: list[tuple[np.ndarray, np.ndarray]],
                 num_vertices: int) -> np.ndarray:
    """Descendant-count backtrace over per-level (vertices, parents) lists.

    Level 0 is the root level; deeper levels push ``1 + credit`` to their
    parents, exactly as the sort-reduce backtrace does.
    """
    centrality = np.zeros(num_vertices, dtype=np.float64)
    credit: dict[int, float] = {}
    for level_index in range(len(levels_lists) - 1, -1, -1):
        vertices, parents = levels_lists[level_index]
        level_credit = np.array([credit.get(int(v), 0.0) for v in vertices])
        centrality[vertices.astype(np.int64)] = level_credit
        if level_index == 0:
            break
        credit = {}
        for v, p, c in zip(vertices, parents, level_credit):
            if int(p) != int(v):
                credit[int(p)] = credit.get(int(p), 0.0) + 1.0 + c
    return centrality
