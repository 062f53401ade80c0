"""GraphLab-like in-memory engine, single-node and 5-node cluster.

GraphLab stores the entire graph — vertices and edges, with PowerGraph-style
replication overhead — in DRAM.  When it fits it is among the fastest
systems; when it does not, the paper reports it "thrashes swap space and
fails to complete within reasonable time" (§I-B), so this engine refuses
with an out-of-memory DNF rather than pretending.

:class:`ClusterInMemoryEngine` models the paper's GraphLab5: five 48 GB
nodes over 1 G Ethernet.  Memory pools across nodes, compute parallelizes,
but every superstep pays network synchronization — which is why GraphLab5
wins PageRank on kron28 yet loses BFS on twitter even to single-node
GraphLab ("the network becoming the bottleneck with irregular data transfer
patterns", §V-D).
"""

from __future__ import annotations

from repro.baselines.base import BaselineEngine, graph_bytes_on_flash
from repro.perf.profiles import MB

#: PowerGraph-style in-memory blow-up over the compact binary size
#: (vertex/edge objects, mirrors, locks).  Calibrated so the paper's
#: feasibility boundary holds: twitter (6 GB) fits in 128 GB, kron28
#: (18 GB) does not; kron28 fits in GraphLab5's pooled 240 GB, kron30
#: (72 GB) does not.
REPLICATION_FACTOR = 10.0

#: 1 G Ethernet payload bandwidth.
GIGABIT_BW = 115 * MB
#: Per-superstep barrier/synchronization cost in the cluster (a bulk
#: synchronous barrier over 1 G Ethernet with a software stack).
SYNC_LATENCY_S = 1e-3
#: Average remote mirrors per vertex under PowerGraph-style vertex cuts
#: (grows ~sqrt(nodes); ~1.5 for a 5-node cluster).
MIRRORS_PER_VERTEX = 1.5

#: Bytes of in-memory work per edge traversed (index + target + value).
EDGE_TOUCH_BYTES = 16


class InMemoryEngine(BaselineEngine):
    """Single-node GraphLab-like execution."""

    name = "GraphLab"
    num_nodes = 1

    def memory_required(self) -> int:
        """DRAM needed: replicated graph structure plus vertex state."""
        return int(self.graph.nbytes * REPLICATION_FACTOR
                   + self.graph.num_vertices * 24)

    def memory_available(self) -> int:
        return self.profile.dram_capacity * self.num_nodes

    def fits(self) -> bool:
        return self.memory_required() <= self.memory_available()

    def refusal(self, algorithm: str) -> str | None:
        if self.fits():
            return None
        return (f"out of memory: needs {self.memory_required()} B of "
                f"{self.memory_available()} B DRAM")

    def peak_memory(self, algorithm: str) -> int:
        return self.memory_required()

    def load(self, algorithm: str) -> None:
        """Read the graph from storage and build the in-memory structure;
        each node of a cluster loads (and replicates) its own partition."""
        self.charge_seq_read(graph_bytes_on_flash(self.graph) / self.num_nodes)
        self.charge_cpu_stream(self.graph.nbytes * REPLICATION_FACTOR,
                               self.profile.cpu_threads * self.num_nodes)

    def charge_superstep(self, algorithm: str, frontier: int, edges: int,
                         updated: int, accesses: int) -> None:
        self.charge_cpu_scatter(edges * EDGE_TOUCH_BYTES,
                                self.profile.cpu_threads * self.num_nodes)

    def charge_backtrace(self, algorithm: str, level_sizes: list[int]) -> None:
        # One pass touching every tree edge of every level.
        self.charge_superstep(algorithm, 0, sum(level_sizes), 0, 0)


class ClusterInMemoryEngine(InMemoryEngine):
    """GraphLab5: five pooled nodes over 1 G Ethernet (§V-D)."""

    name = "GraphLab5"
    num_nodes = 5

    def charge_superstep(self, algorithm: str, frontier: int, edges: int,
                         updated: int, accesses: int) -> None:
        super().charge_superstep(algorithm, frontier, edges, updated, accesses)
        # Mirror synchronization: every updated vertex's value crosses the
        # network to its remote mirrors, plus a per-superstep barrier.
        # Sparse many-superstep algorithms (BFS) drown in the barrier
        # latency — "the network becoming the bottleneck" (§V-D).
        sync_bytes = int(updated * 8 * MIRRORS_PER_VERTEX)
        self.clock.charge("net", SYNC_LATENCY_S + sync_bytes / GIGABIT_BW,
                          nbytes=sync_bytes)
        self._check_cutoff()
