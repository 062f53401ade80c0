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

from repro.algorithms import ANALYTICS
from repro.baselines.base import BaselineEngine, DNF_CUTOFF_UNLIMITED
from repro.engine.modes import DENSE_THRESHOLD, charge_page_faults
from repro.graph.csr import CSRGraph
from repro.perf.profiles import HardwareProfile

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


class SemiExternalEngine(BaselineEngine):
    """FlashGraph-like execution over one simulated SSD array."""

    name = "FlashGraph"

    def __init__(self, graph: CSRGraph, profile: HardwareProfile,
                 cutoff_s: float = DNF_CUTOFF_UNLIMITED,
                 max_vertices: int | None = None):
        """``max_vertices`` is the vertex-id-space limit; scaled experiments
        pass ``VERTEX_ID_SPACE * scale_factor`` so the limit shrinks with
        everything else."""
        super().__init__(graph, profile, cutoff_s)
        self.max_vertices = max_vertices
        self.edge_file_bytes = graph.num_edges * 8
        # Bytes of the edge file never yet read: the page cache starts cold,
        # so the first touch of every byte is a miss regardless of cache
        # size (the paper measures PageRank's *first* iteration).
        self._cold_bytes = self.edge_file_bytes

    def state_bytes(self, algorithm: str) -> int:
        per_vertex = ANALYTICS[algorithm].baseline_state_bytes
        assert per_vertex is not None  # run() takes only the modelled kinds
        return self.graph.num_vertices * per_vertex

    def swap_fraction(self, algorithm: str) -> float:
        state = self.state_bytes(algorithm)
        return max(0.0, state - self.profile.dram_capacity) / state

    def cache_hit_rate(self, algorithm: str) -> float:
        cache = max(0, self.profile.dram_capacity - self.state_bytes(algorithm))
        if self.edge_file_bytes == 0:
            return 1.0
        return min(1.0, cache / self.edge_file_bytes)

    def refusal(self, algorithm: str) -> str | None:
        if self.max_vertices is not None and self.graph.num_vertices > self.max_vertices:
            return (f"{self.graph.num_vertices} vertices exceed the "
                    f"(scaled) vertex id space of {self.max_vertices}")
        if self.swap_fraction(algorithm) > MAX_SWAP_FRACTION:
            return (f"vertex state {self.state_bytes(algorithm)} B exceeds DRAM "
                    f"{self.profile.dram_capacity} B beyond thrashing tolerance")
        return None

    def setup(self, algorithm: str) -> None:
        """Load the index file and the vertex state (outside the run's time)."""
        self.charge_seq_read((self.graph.num_vertices + 1) * 8)
        self.charge_cpu_stream(self.state_bytes(algorithm))

    def peak_memory(self, algorithm: str) -> int:
        return self.state_bytes(algorithm)

    def charge_superstep(self, algorithm: str, frontier: int, edges: int,
                         updated: int, accesses: int) -> None:
        self._charge_edge_access(algorithm, frontier, edges * 8)
        # Per edge: read the edge record and random-update the destination's
        # in-memory vertex state (Table II: FlashGraph runs all 32 cores at
        # 3200% while its flash moves only 1.5 GB/s — it is compute-bound).
        self.charge_cpu_scatter(edges * 24 + accesses * 8)
        # Vertex-state accesses that miss DRAM fault pages in and out: the
        # "sharp" degradation once state outgrows DRAM (Fig 13b).
        if charge_page_faults(self.clock, self.profile,
                              self.swap_fraction(algorithm), accesses):
            self._check_cutoff()

    def charge_backtrace(self, algorithm: str, level_sizes: list[int]) -> None:
        # Each level reads and credits its vertices' and parents' state.
        for size in level_sizes:
            self.charge_superstep(algorithm, 0, 0, 0, 2 * size)

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
        if active > DENSE_THRESHOLD * self.graph.num_vertices:
            # Request-granular I/O reaches only a fraction of the array's
            # streaming bandwidth (Table II), charged as extra volume.
            self.charge_seq_read(edge_bytes / BW_EFFICIENCY)
        else:
            accesses = max(1, int(active * min(1.0, edge_bytes / max(1, cold + warm))))
            self.charge_random_reads(
                accesses,
                (edge_bytes + accesses * RANDOM_READ_WASTE) / BW_EFFICIENCY)
