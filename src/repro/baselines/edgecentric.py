"""X-Stream-like edge-centric engine with streaming partitions.

X-Stream (§II-A) never does random storage access: every superstep it
streams the *entire* edge list sequentially, emits updates for edges whose
source is active into per-partition logs, and then streams the logs back to
apply them.  Vertex state is split into however many streaming partitions it
takes to fit one in memory, so it "maintains performance with smaller
memory ... by simply splitting the stream" (§V-C.2, Fig 13b) — the paper
even notes its update logs outgrew the flash array at high partition counts.

The fatal flaw the paper highlights: the full edge scan happens every
superstep *regardless of how sparse the frontier is*.  On WDC BFS, with
thousands of near-empty supersteps, each pass took ~500 s, projecting to
"two million seconds, or 23 days" (§V-C.1) — here that surfaces as a cutoff
DNF.
"""

from __future__ import annotations

from repro.baselines.base import BaselineEngine, DNF_CUTOFF_UNLIMITED
from repro.graph.csr import CSRGraph
from repro.perf.profiles import HardwareProfile

#: Bytes per logged update record (destination id + value).
UPDATE_RECORD_BYTES = 16

#: Vertex state bytes per vertex (value + degree + flags).
VERTEX_STATE_BYTES = 24


class EdgeCentricEngine(BaselineEngine):
    """X-Stream-like execution: full edge scans, streaming partitions."""

    name = "X-Stream"

    def __init__(self, graph: CSRGraph, profile: HardwareProfile,
                 cutoff_s: float = DNF_CUTOFF_UNLIMITED):
        super().__init__(graph, profile, cutoff_s)
        self.edge_scan_bytes = graph.num_edges * 12  # src+dst packed records
        self.update_log_overflow = False

    def num_partitions(self) -> int:
        """Streaming partitions needed so one partition's vertices fit in DRAM."""
        state = self.graph.num_vertices * VERTEX_STATE_BYTES
        return max(1, -(-state * 2 // self.profile.dram_capacity))

    def peak_memory(self, algorithm: str) -> int:
        return self.profile.dram_capacity

    def charge_superstep(self, algorithm: str, frontier: int, edges: int,
                         updated: int, accesses: int) -> None:
        """Scan all edges, shuffle the ``edges`` updates out and back."""
        partitions = self.num_partitions()
        # Full sequential edge scan — the defining cost, frontier-independent.
        self.charge_seq_read(self.edge_scan_bytes)
        update_bytes = edges * UPDATE_RECORD_BYTES
        if partitions > 1:
            # Updates spill to per-partition logs on flash and stream back.
            if update_bytes > self.profile.flash_capacity:
                self.update_log_overflow = True
            self.charge_seq_write(update_bytes)
            self.charge_seq_read(update_bytes)
        # Edge processing and update shuffling are scatter-heavy: X-Stream
        # runs all 32 cores flat out yet moves only ~2 GB/s of a 6 GB/s
        # array (Table II) — it is compute-bound, not I/O-bound.
        self.charge_cpu_scatter(self.edge_scan_bytes + 2 * update_bytes)
