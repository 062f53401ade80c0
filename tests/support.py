"""Helpers only the tests use: literal key-value runs, graph generators
and reference answers.

The reference answers, like :mod:`repro.algorithms.reference`, work on a
:class:`~repro.graph.csr.CSRGraph` directly, with no storage simulation.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.reference import bfs_levels
from repro.core.kvstream import KEY_DTYPE, KVArray
from repro.graph.csr import CSRGraph
from repro.graph import generators
from repro.graph.datasets import DATASETS


def kv_pairs(pairs: list[tuple[int, object]], value_dtype: np.dtype) -> KVArray:
    """A :class:`KVArray` from a list of ``(key, value)`` tuples."""
    if not pairs:
        return KVArray.empty(value_dtype)
    keys = np.array([k for k, _ in pairs], dtype=KEY_DTYPE)
    values = np.array([v for _, v in pairs], dtype=np.dtype(value_dtype))
    return KVArray(keys, values)


def rmat_words(rng: np.random.Generator, scale: int, m: int,
               a: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """``m`` R-MAT (src, dst) pairs of ``scale``-bit ids as uint32 words from
    ``rng`` (a fresh PCG64), on the package's block kernel and dealer, with
    ``rng`` left where one serial loop over all ``m`` edges leaves it."""
    src, dst = (np.zeros(m, dtype=np.uint32) for _ in range(2))
    generators._deal_blocks(m, lambda lo, hi: generators._rmat_range(
        rng, scale, m, lo, a, b, c, src[lo:hi], dst[lo:hi]))
    rng.bit_generator.advance(2 * m * scale)
    return src, dst


def rmat_edges(scale: int, edgefactor: int, a: float, b: float, c: float,
               seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """General R-MAT with caller-chosen quadrant probabilities (the
    recursion of :func:`~repro.graph.generators.kronecker_csr`)."""
    if not 0 < a + b + c < 1:
        raise ValueError(f"a+b+c must be in (0, 1), got {a + b + c}")
    if scale > 32:
        raise ValueError(f"R-MAT scale above 32 is not supported: {scale}")
    n = 1 << scale
    rng = np.random.default_rng(seed)
    src, dst = rmat_words(rng, scale, n * edgefactor, a, b, c)
    return src.astype(np.uint64), dst.astype(np.uint64), n


def kronecker_edges(scale: int, edgefactor: int = 16, seed: int = 1,
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """The edge list :func:`~repro.graph.generators.kronecker_csr` builds
    its CSR from, in generation order: R-MAT words, then the Graph500
    permutation drawn after them.  Returns (src, dst, num_vertices)."""
    if scale < 1 or scale > 30:
        raise ValueError(f"kronecker scale out of supported range [1, 30]: {scale}")
    n = 1 << scale
    rng = np.random.default_rng(seed)
    src, dst = rmat_words(rng, scale, n * edgefactor, generators.KRON_A,
                          generators.KRON_B, generators.KRON_C)
    perm = rng.permutation(n).astype(np.uint64)
    return perm[src], perm[dst], n


def dataset_edges(name: str, scale_factor: float, seed: int,
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """A Table I dataset's (src, dst, num_vertices) in generation order:
    what ``build_graph`` sorts into its CSR."""
    dataset = DATASETS[name]
    n, edgefactor = dataset.scaled_nodes(scale_factor), dataset.paper_edgefactor
    if name.startswith("kron"):
        return kronecker_edges(n.bit_length() - 1, edgefactor, seed=seed)
    if name == "twitter":
        return generators.powerlaw_edges(n, n * edgefactor, exponent=1.3, seed=seed)
    return generators.webcrawl_edges(n, edgefactor, seed=seed)


def uniform_edges(num_vertices: int, num_edges: int, seed: int,
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Uniform random (Erdős–Rényi-style multigraph) edges, for tests."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, num_edges).astype(np.uint64)
    dst = rng.integers(0, num_vertices, num_edges).astype(np.uint64)
    return src, dst, num_vertices


def random_weights(num_edges: int, seed: int) -> np.ndarray:
    """Uniform edge weights in [0.1, 10) for weighted-graph tests."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 10.0, num_edges).astype(np.float32)


def bfs_tree_descendants(graph: CSRGraph, root: int, parents: np.ndarray,
                         unvisited) -> np.ndarray:
    """Number of BFS-parent-tree descendants per vertex — the score the
    sort-reduce backtrace computes."""
    levels = bfs_levels(graph, root)
    counts = np.zeros(graph.num_vertices, dtype=np.float64)
    order = np.argsort(levels)  # -1 (unreachable) first, then by depth
    for v in order[::-1]:
        v = int(v)
        if levels[v] <= 0:
            continue  # unreachable or root: root pushes to nobody
        p = int(parents[v])
        counts[p] += 1.0 + counts[v]
    return counts
