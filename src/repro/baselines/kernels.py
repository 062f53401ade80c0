"""Shared numpy compute kernels for the baseline engines.

The baseline models differ in *where data lives and what I/O each superstep
costs*, not in what they compute — so the per-superstep computation is
factored here, driven once by :class:`~repro.baselines.base.BaselineEngine`,
and every model produces identical (cross-validated) answers.

PageRank's SUM goes through :mod:`repro.core.reduce_ops`, the op table the
sort-reduce engine and the execution modes use.  A BFS level is
:func:`repro.algorithms.bfs.expand_level`, which the service's point
queries share.
"""

from __future__ import annotations

import numpy as np

from repro.core.reduce_ops import SUM
from repro.algorithms.reference import DAMPING
from repro.graph.csr import CSRGraph


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


def bc_backtrace(levels: list[np.ndarray], parents: np.ndarray) -> np.ndarray:
    """Each vertex's descendant count in the BFS tree of ``parents``.

    ``levels`` are the BFS levels' vertices, level 0 the root's.  Deepest
    level first, every vertex pushes ``1 + credit`` to its parent, in level
    order, exactly as the sort-reduce backtrace does.
    """
    credit = np.zeros(len(parents), dtype=np.float64)
    for level in reversed(levels[1:]):
        np.add.at(credit, parents[level].astype(np.int64), 1 + credit[level])
    return credit
