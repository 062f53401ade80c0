"""PageRank as a vertex program, plus Algorithm 4's custom active lists.

The push-style program (§V-A):

* ``edge_program(vertexValue, edgeValue, numNeighbors) = vertexValue / numNeighbors``
* ``vertex_update(v1, v2) = v1 + v2`` (SUM)
* ``finalize(v) = 0.15 / NumVertices + 0.85 * v`` (dampening)

PageRank's active set is *dense*: in the paper's measured configuration all
vertices are active, seeded by the hardware vertex list generator.  The
initial value is ``1/N`` — the fixed point of the dampening, so the seed
passes through ``finalize`` unchanged and superstep ``k`` holds the rank
after ``k`` iterations.

For convergence runs the active list is not a subset of ``newV`` (a vertex
must push when any of its *out*-neighbours changed), so the paper's
Algorithm 4 marks the sources of edges into changed vertices in a bloom
filter while scanning ``newV``'s in-edges, then sweeps the key space pushing
from every marked vertex: :class:`PageRankAlg4Program`, run by the engine
like every other program.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.bloom import BloomFilter
from repro.core.kvstream import KVArray
from repro.core.reduce_ops import SUM
from repro.engine.api import VertexProgram, all_active_chunks
from repro.engine.engine import GraFBoostEngine, RunResult
from repro.graph.formats import FlashCSR


class PageRankProgram(VertexProgram):
    """Push-style PageRank over out-edges."""

    name = "pagerank"
    value_dtype = np.dtype("<f8")
    reduce_op = SUM

    def __init__(self, num_vertices: int, damping: float = 0.85):
        if num_vertices < 1:
            raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
        if not 0 < damping < 1:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        self.num_vertices = num_vertices
        self.damping = damping
        self.default_value = 1.0 / num_vertices

    def edge_program(self, src_values: np.ndarray, src_ids: np.ndarray,
                     edge_weights: np.ndarray | None,
                     src_degrees: np.ndarray) -> np.ndarray:
        return src_values / src_degrees.astype(np.float64)

    def vertex_messages(self, values: np.ndarray, ids: np.ndarray,
                        degrees: np.ndarray) -> np.ndarray:
        # Zero-degree vertices produce no edges, so their (inf/nan) quotient
        # is dropped by the engine's repeat; suppress the warning only.
        with np.errstate(divide="ignore", invalid="ignore"):
            return values / degrees.astype(np.float64)

    def finalize(self, new_values: np.ndarray, old_values: np.ndarray) -> np.ndarray:
        return (1.0 - self.damping) / self.num_vertices + self.damping * new_values

    def initial_updates(self, num_vertices: int) -> Iterator[KVArray]:
        return all_active_chunks(num_vertices, self.value_dtype, self.default_value)


class WeightedPageRankProgram(PageRankProgram):
    """PageRank over weighted edges: rank flows proportionally to edge
    weight instead of uniformly across out-edges.

    ``out_weight_sums`` is the per-vertex total outgoing weight, computed
    once at graph load (the weighted analogue of the system-provided
    ``numNeighbors``); it lives in host memory like FlashGraph's vertex
    metadata, one float per vertex.
    """

    name = "pagerank-weighted"
    uses_weights = True

    def __init__(self, num_vertices: int, out_weight_sums: np.ndarray,
                 damping: float = 0.85):
        super().__init__(num_vertices, damping)
        if len(out_weight_sums) != num_vertices:
            raise ValueError(
                f"out_weight_sums length {len(out_weight_sums)} != "
                f"num_vertices {num_vertices}")
        self.out_weight_sums = np.asarray(out_weight_sums, dtype=np.float64)

    def edge_program(self, src_values: np.ndarray, src_ids: np.ndarray,
                     edge_weights: np.ndarray | None,
                     src_degrees: np.ndarray) -> np.ndarray:
        if edge_weights is None:
            raise ValueError("weighted PageRank requires a weighted graph")
        sums = self.out_weight_sums[src_ids.astype(np.int64)]
        return src_values * edge_weights.astype(np.float64) / sums


def out_weight_sums(graph) -> np.ndarray:
    """Per-vertex total outgoing edge weight of a weighted CSR graph."""
    if not graph.has_weights:
        raise ValueError("graph has no edge weights")
    src, _dst = graph.edge_list()
    sums = np.zeros(graph.num_vertices)
    np.add.at(sums, src.astype(np.int64), graph.weights.astype(np.float64))
    return sums


def run_weighted_pagerank(engine: GraFBoostEngine, graph, iterations: int = 1,
                          damping: float = 0.85) -> RunResult:
    """Weighted PageRank; ``graph`` is the in-memory CSR (for weight sums)."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    program = WeightedPageRankProgram(graph.num_vertices, out_weight_sums(graph),
                                      damping)
    return engine.run(program, max_supersteps=iterations)


def run_pagerank(engine: GraFBoostEngine, num_vertices: int,
                 iterations: int = 1, damping: float = 0.85) -> RunResult:
    """The paper's measured configuration: ``iterations`` all-active passes.

    ``iterations=1`` reproduces §V's "very first iteration of PageRank, when
    all vertices are active".
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    program = PageRankProgram(num_vertices, damping)
    return engine.run(program, max_supersteps=iterations)


class PageRankAlg4Program(PageRankProgram):
    """Algorithm 4: PageRank whose active list the program generates.

    ``is_active`` keeps the vertices whose rank moved by at least ``tol``;
    each of them marks the sources of its in-edges in the bloom filter, and
    the sweep of the key space returns every marked vertex.  Filter false
    positives only cost extra pushes, never correctness (§III-C).
    """

    name = "pagerank-alg4"

    def __init__(self, in_graph: FlashCSR, bloom: BloomFilter, tol: float,
                 damping: float = 0.85):
        super().__init__(in_graph.num_vertices, damping)
        self.in_graph = in_graph
        self.bloom = bloom
        self.tol = tol

    def is_active(self, finalized: np.ndarray, old_values: np.ndarray,
                  old_steps: np.ndarray, superstep: int) -> np.ndarray:
        if superstep == 0:
            return np.ones(len(finalized), dtype=bool)
        # The step index stored with V (§III-C): a vertex's incoming sum is
        # only complete if the vertex changed last superstep (then *all* its
        # in-edge sources were marked); sums for other vertices are ignored.
        fresh = old_steps == superstep - 1
        # ``>=`` keeps tol=0 an *exact* mode: every fresh vertex stays
        # active, so every receiver's sum stays complete.
        return fresh & (np.abs(finalized - old_values) >= self.tol)

    def active_list_marker(self, superstep: int):
        self.bloom.clear()
        return self._mark_in_neighbours

    def _mark_in_neighbours(self, keys: np.ndarray, values: np.ndarray) -> None:
        starts, ends = self.in_graph.index_lookup(keys)
        self.bloom.add(self.in_graph.edges_for(starts, ends).take())

    def sweep_active_list(self) -> Iterator[np.ndarray]:
        for start in range(0, self.num_vertices, 1 << 16):
            keys = np.arange(start, min(start + (1 << 16), self.num_vertices),
                             dtype=np.uint64)
            marked = keys[self.bloom.contains(keys)]
            if len(marked):
                yield marked


def run_pagerank_alg4(engine: GraFBoostEngine, in_graph: FlashCSR,
                      iterations: int = 10, tol: float = 1e-9,
                      damping: float = 0.85) -> RunResult:
    """Algorithm 4 over ``engine``'s (out-edge) graph; ``in_graph`` is its
    transpose.  Stops early when no rank moves by ``tol``."""
    # One bit of filter per vertex: coarse, but see the class docstring.
    bloom = BloomFilter(max(64, engine.num_vertices), num_hashes=2)
    if engine.memory is not None:
        engine.memory.allocate("pagerank:bloom", bloom.nbytes)
    try:
        return engine.run(PageRankAlg4Program(in_graph, bloom, tol, damping),
                          max_supersteps=iterations)
    finally:
        if engine.memory is not None:
            engine.memory.free("pagerank:bloom")
