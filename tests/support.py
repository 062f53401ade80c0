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


# ----------------------------------------------- small generated shapes
# Six topology families after graph-accel's benchmark generators.  Each
# takes a vertex count ``n`` (at least 8) and a numpy Generator and returns
# (src, dst) edge lists on exactly ``n`` vertices; :func:`generated_graph`
# seeds the Generator and builds the CSR.


def _erdos_renyi(n: int, rng: np.random.Generator):
    """G(n, p) with about two out-edges per vertex, self-loops included."""
    return np.nonzero(rng.random((n, n)) < 2.0 / n)


def _both_ways(src, dst):
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    return np.concatenate([src, dst]), np.concatenate([dst, src])


def _barbell(n: int, rng: np.random.Generator):
    """Two cliques joined by a path through the remaining vertices, each
    edge in both directions, under a random relabelling."""
    k = max(3, n // 3)
    label = rng.permutation(n)
    src, dst = [], []
    for lo in (0, n - k):
        for a in range(lo, lo + k):
            src += [a] * (k - 1 - (a - lo))
            dst += range(a + 1, lo + k)
    src += range(k - 1, n - k)
    dst += range(k, n - k + 1)
    src, dst = _both_ways(src, dst)
    return label[src], label[dst]


def _small_world(n: int, rng: np.random.Generator):
    """A ring where each vertex links its two clockwise successors, each
    link rewired to a random target with probability 0.2."""
    src = np.repeat(np.arange(n), 2)
    dst = (src + np.tile([1, 2], n)) % n
    rewire = rng.random(len(dst)) < 0.2
    dst[rewire] = rng.integers(0, n, int(rewire.sum()))
    return src, dst


def _scale_free(n: int, rng: np.random.Generator):
    """Preferential attachment: each new vertex links to two earlier ones
    picked by degree, in both directions."""
    src, dst = [1], [0]
    ends = [0, 1]                # one entry per edge end: a degree-weighted urn
    for v in range(2, n):
        for u in {int(ends[i]) for i in rng.integers(0, len(ends), 2)}:
            src.append(v)
            dst.append(u)
            ends += [u, v]
    return _both_ways(src, dst)


def _random_tree(n: int, rng: np.random.Generator):
    """A DLA-like tree: each vertex sticks to one of the four vertices
    grown just before it, so branches stay long; edges point away from
    vertex 0, with one in ten also pointing back."""
    child = np.arange(1, n)
    parent = child - rng.integers(1, 5, n - 1).clip(max=child)
    back = rng.random(n - 1) < 0.1
    return (np.concatenate([parent, child[back]]),
            np.concatenate([child, parent[back]]))


def _lsystem_tree(n: int, rng: np.random.Generator):
    """An L-system-like binary tree in heap order (children ``2v + 1`` and
    ``2v + 2``) with a link from each left child to its right sibling,
    under a random relabelling that keeps the root vertex 0."""
    child = np.arange(1, n)
    left = child[(child % 2 == 1) & (child + 1 < n)]
    label = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    src = np.concatenate([(child - 1) // 2, left])
    return label[src], label[np.concatenate([child, left + 1])]


#: Family name -> generator; see the note above.
GRAPH_FAMILIES = {
    "erdos_renyi": _erdos_renyi,
    "barbell": _barbell,
    "small_world": _small_world,
    "scale_free": _scale_free,
    "random_tree": _random_tree,
    "lsystem_tree": _lsystem_tree,
}


def generated_graph(family: str, n: int, seed: int) -> CSRGraph:
    """A graph of family ``family`` on ``n`` vertices, drawn from ``seed``."""
    src, dst = GRAPH_FAMILIES[family](n, np.random.default_rng(seed))
    return CSRGraph.from_edges(np.asarray(src, dtype=np.uint64),
                               np.asarray(dst, dtype=np.uint64), n)


def first_parents(graph: CSRGraph, root: int, unvisited) -> np.ndarray:
    """The BFS parent array in which every vertex's parent is its first
    discoverer: the smallest vertex one level shallower with an edge to
    it, as a level-synchronous BFS over sorted frontiers finds it."""
    levels = bfs_levels(graph, root)
    src, dst = (side.astype(np.int64) for side in graph.edge_list())
    tree = (levels[src] >= 0) & (levels[dst] == levels[src] + 1)
    parents = np.full(graph.num_vertices, unvisited, dtype=np.uint64)
    np.minimum.at(parents, dst[tree], src[tree].astype(np.uint64))
    parents[root] = root
    return parents


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
