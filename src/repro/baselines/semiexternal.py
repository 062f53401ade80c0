"""FlashGraph-like semi-external engine: vertices in DRAM, edges on SSD.

FlashGraph pins all vertex state in memory and reads edge lists from SSD on
demand (§II-A).  Its behaviour across the paper's figures:

* comparable to in-memory systems while vertex state fits (Fig 12b),
* BFS needs little memory (frontier-driven, §V-C.2) and stays fast on small
  machines,
* performance "degrades sharply" once vertex state outgrows DRAM — swap
  thrashing — and runs get "stopped manually" (the ``*`` marks of Fig 13),
* it fails outright on kron32, whose vertex state exceeds 128 GB (Fig 12a).

The model: per-algorithm vertex state must (mostly) fit; the DRAM left over
acts as an edge page cache whose hit rate scales with how much of the edge
file it covers; sparse supersteps issue per-vertex random reads
(latency-bound), dense supersteps degrade to sequential scans.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BaselineResult,
    ChargingMixin,
    DNF_CUTOFF_UNLIMITED,
    RunCutoff,
    graph_bytes_on_flash,
)
from repro.baselines import kernels
from repro.engine.modes import DENSE_THRESHOLD
from repro.graph.csr import CSRGraph
from repro.perf.clock import SimClock
from repro.perf.profiles import HardwareProfile

#: Framework bookkeeping per vertex (message queues, indices) on top of the
#: algorithm's own state.  Calibrated against Fig 13's x-axis (percent of
#: 8-byte-per-vertex data): BFS state equals vertex data (degradation only
#: below the 100% point), PageRank needs twice that (slowdown visible from
#: 150%), BC five times (degrades from 400%) — the orderings of Fig 13b-d.
VERTEX_OVERHEAD_BYTES = 0

#: Algorithm state per vertex; BC's is largest (parents, levels, credits,
#: per-level bookkeeping), which is why its "performance degradation [is]
#: faster" in Fig 13d.
ALG_STATE_BYTES = {"bfs": 8, "pagerank": 16, "bc": 40}

#: Beyond this much vertex-state overflow the run is declared failed rather
#: than thrashed (the paper's runs "stopped manually", Fig 13b).
MAX_SWAP_FRACTION = 0.6

#: FlashGraph (FAST'15) uses 32-bit vertex ids; a graph whose vertex count
#: exceeds the id space cannot be loaded at all — the kron32 DNF of Fig 12a
#: ("128 GB of memory was not enough ... to fit all vertex data").
VERTEX_ID_SPACE = 2 ** 32

#: Average wasted bytes per random edge-list read (page-granularity slack).
RANDOM_READ_WASTE = 2048

#: Fraction of the array's streaming bandwidth FlashGraph's request-granular
#: I/O engine achieves: Table II reports 1.5 GB/s of the 6 GB/s array.
BW_EFFICIENCY = 0.25


class SemiExternalEngine(ChargingMixin):
    """FlashGraph-like execution over one simulated SSD array."""

    name = "FlashGraph"

    def __init__(self, graph: CSRGraph, profile: HardwareProfile,
                 clock: SimClock | None = None,
                 cutoff_s: float = DNF_CUTOFF_UNLIMITED,
                 max_vertices: int | None = None):
        """``max_vertices`` is the vertex-id-space limit; scaled experiments
        pass ``VERTEX_ID_SPACE * scale_factor`` so the limit shrinks with
        everything else."""
        self.graph = graph
        self.profile = profile
        self.clock = clock or SimClock()
        self.cutoff_s = cutoff_s
        self.max_vertices = max_vertices
        self.edge_file_bytes = graph.num_edges * 8
        # Bytes of the edge file never yet read: the page cache starts cold,
        # so the first touch of every byte is a miss regardless of cache
        # size (the paper measures PageRank's *first* iteration).
        self._cold_bytes = self.edge_file_bytes

    # ------------------------------------------------------------- provision

    def state_bytes(self, algorithm: str) -> int:
        per_vertex = ALG_STATE_BYTES[algorithm] + VERTEX_OVERHEAD_BYTES
        return self.graph.num_vertices * per_vertex

    def swap_fraction(self, algorithm: str) -> float:
        state = self.state_bytes(algorithm)
        return max(0.0, state - self.profile.dram_capacity) / state

    def cache_hit_rate(self, algorithm: str) -> float:
        cache = max(0, self.profile.dram_capacity - self.state_bytes(algorithm))
        if self.edge_file_bytes == 0:
            return 1.0
        return min(1.0, cache / self.edge_file_bytes)

    def _setup(self, algorithm: str) -> float | None:
        """Load vertex state; returns the swap fraction, or None on DNF."""
        if self.max_vertices is not None and self.graph.num_vertices > self.max_vertices:
            return None
        swap = self.swap_fraction(algorithm)
        if swap > MAX_SWAP_FRACTION:
            return None
        self.charge_seq_read((self.graph.num_vertices + 1) * 8)  # index file
        self.charge_cpu_stream(self.state_bytes(algorithm))
        return swap

    def _oom(self, algorithm: str) -> BaselineResult:
        if self.max_vertices is not None and self.graph.num_vertices > self.max_vertices:
            reason = (f"{self.graph.num_vertices} vertices exceed the "
                      f"(scaled) vertex id space of {self.max_vertices}")
        else:
            reason = (f"vertex state {self.state_bytes(algorithm)} B exceeds DRAM "
                      f"{self.profile.dram_capacity} B beyond thrashing tolerance")
        return BaselineResult(
            system=self.name, algorithm=algorithm, completed=False,
            elapsed_s=float("nan"), dnf_reason=reason,
            peak_memory=self.state_bytes(algorithm),
        )

    # ---------------------------------------------------------------- charges

    def _charge_edge_access(self, algorithm: str, active: int, edge_bytes: int) -> None:
        """Edge reads for one superstep: random when sparse, a scan when dense."""
        if active == 0 or edge_bytes == 0:
            return
        # Cold first-touch bytes always miss; re-reads hit per cache share.
        cold = min(edge_bytes, self._cold_bytes)
        self._cold_bytes -= cold
        warm = edge_bytes - cold
        miss = 1.0 - self.cache_hit_rate(algorithm)
        edge_bytes = cold + warm * miss
        if edge_bytes <= 0:
            return
        miss = 1.0
        if active > DENSE_THRESHOLD * self.graph.num_vertices:
            # Request-granular I/O reaches only a fraction of the array's
            # streaming bandwidth (Table II), charged as extra volume.
            self.charge_seq_read(edge_bytes / BW_EFFICIENCY)
        else:
            accesses = max(1, int(active * min(1.0, edge_bytes / max(1, cold + warm))))
            self.charge_random_reads(
                accesses,
                (edge_bytes + accesses * RANDOM_READ_WASTE) / BW_EFFICIENCY)

    def _charge_thrash(self, algorithm: str, swap: float, vertices_touched: int) -> None:
        """Swap traffic for vertex-state accesses that miss DRAM.

        Vertex updates arrive in edge order — effectively random — so a
        miss has no page locality: every out-of-core access faults a whole
        page in (and usually evicts a dirty one).  This is what makes
        FlashGraph's degradation "sharp" once state outgrows DRAM (Fig 13b).
        """
        if swap <= 0 or vertices_touched == 0:
            return
        page = self.profile.flash_page_bytes
        faults = int(vertices_touched * swap)
        if faults == 0:
            return
        self.charge_random_reads(faults, faults * page)
        self.charge_random_writes(faults, faults * page)

    def _charge_compute(self, edges: int, vertices: int) -> None:
        # Per edge: read the edge record and random-update the destination's
        # in-memory vertex state (Table II: FlashGraph runs all 32 cores at
        # 3200% while its flash moves only 1.5 GB/s — it is compute-bound).
        self.charge_cpu_scatter(edges * 24 + vertices * 8)

    # ------------------------------------------------------------ algorithms

    def run_bfs(self, root: int) -> BaselineResult:
        swap = self._setup("bfs")
        if swap is None:
            return self._oom("bfs")
        start = self.clock.elapsed_s
        graph = self.graph
        parents = np.full(graph.num_vertices, kernels.UNVISITED, dtype=np.uint64)
        parents[root] = root
        frontier = np.array([root], dtype=np.int64)
        supersteps = 0
        traversed = 0
        try:
            while len(frontier):
                active = len(frontier)
                degrees = (graph.offsets[frontier + 1] - graph.offsets[frontier]).astype(np.int64)
                edge_bytes = int(degrees.sum()) * 8
                frontier, edges = kernels.bfs_expand(graph, frontier, parents)
                traversed += edges
                supersteps += 1
                self._charge_edge_access("bfs", active, edge_bytes)
                self._charge_compute(edges, active + len(frontier))
                self._charge_thrash("bfs", swap, active + len(frontier))
        except RunCutoff as cut:
            return self._cutoff("bfs", cut, supersteps, traversed)
        return self._done("bfs", start, parents, supersteps, traversed)

    def run_pagerank(self, iterations: int = 1, damping: float = 0.85) -> BaselineResult:
        swap = self._setup("pagerank")
        if swap is None:
            return self._oom("pagerank")
        start = self.clock.elapsed_s
        graph = self.graph
        rank = np.full(graph.num_vertices, 1.0 / graph.num_vertices)
        degrees = graph.out_degrees().astype(np.float64)
        has_inbound = np.zeros(graph.num_vertices, dtype=bool)
        has_inbound[graph.targets.astype(np.int64)] = True
        supersteps = 0
        try:
            for _ in range(iterations):
                rank = kernels.pagerank_iteration(graph, rank, degrees,
                                                  has_inbound, damping)
                supersteps += 1
                self._charge_edge_access("pagerank", graph.num_vertices,
                                         self.edge_file_bytes)
                self._charge_compute(graph.num_edges, graph.num_vertices)
                self._charge_thrash("pagerank", swap, graph.num_vertices)
        except RunCutoff as cut:
            return self._cutoff("pagerank", cut, supersteps,
                                supersteps * graph.num_edges)
        return self._done("pagerank", start, rank, supersteps,
                          supersteps * graph.num_edges)

    def run_bc(self, root: int) -> BaselineResult:
        swap = self._setup("bc")
        if swap is None:
            return self._oom("bc")
        start = self.clock.elapsed_s
        graph = self.graph
        parents = np.full(graph.num_vertices, kernels.UNVISITED, dtype=np.uint64)
        parents[root] = root
        frontier = np.array([root], dtype=np.int64)
        levels_lists = [(frontier.copy(), np.array([root], dtype=np.uint64))]
        supersteps = 0
        traversed = 0
        try:
            while len(frontier):
                active = len(frontier)
                degrees = (graph.offsets[frontier + 1] - graph.offsets[frontier]).astype(np.int64)
                edge_bytes = int(degrees.sum()) * 8
                frontier, edges = kernels.bfs_expand(graph, frontier, parents)
                traversed += edges
                supersteps += 1
                self._charge_edge_access("bc", active, edge_bytes)
                self._charge_compute(edges, active + len(frontier))
                self._charge_thrash("bc", swap, active + len(frontier))
                if len(frontier):
                    levels_lists.append((frontier.copy(), parents[frontier]))
            centrality = kernels.bc_backtrace(levels_lists, graph.num_vertices)
            for vertices, _parents in levels_lists[::-1]:
                self._charge_compute(0, 2 * len(vertices))
                self._charge_thrash("bc", swap, 2 * len(vertices))
        except RunCutoff as cut:
            return self._cutoff("bc", cut, supersteps, traversed)
        return self._done("bc", start, centrality, supersteps, traversed)

    # --------------------------------------------------------------- results

    def _done(self, algorithm: str, start: float, values: np.ndarray,
              supersteps: int, traversed: int) -> BaselineResult:
        return BaselineResult(
            system=self.name, algorithm=algorithm, completed=True,
            elapsed_s=self.clock.elapsed_s - start, values=values,
            supersteps=supersteps, traversed_edges=traversed,
            peak_memory=self.state_bytes(algorithm),
            cpu_busy_s=self.clock.busy_s("cpu"),
            flash_bytes=self.clock.bytes_moved("flash"),
        )

    def _cutoff(self, algorithm: str, cut: RunCutoff, supersteps: int,
                traversed: int) -> BaselineResult:
        return BaselineResult(
            system=self.name, algorithm=algorithm, completed=False,
            elapsed_s=float("nan"), dnf_reason=str(cut),
            supersteps=supersteps, traversed_edges=traversed,
            peak_memory=self.state_bytes(algorithm),
        )
