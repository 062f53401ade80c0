"""GraphChi-like fully-external engine: parallel sliding windows over shards.

GraphChi (§II-A) targets machines where even vertex data does not fit in
DRAM.  The graph is pre-sharded by destination interval, each shard sorted
by source; an iteration loads each shard as the "memory shard" and slides a
window over every other shard — which means the *whole graph is re-read
(and partly re-written, since updated values live on the edges) every
iteration*, with "additional work" that leaves it "uncompetitive with
memory-based systems" (the paper could not even collect GraphChi numbers on
its large graphs due to low performance).

The strength modeled here: its memory requirement is a constant shard
budget, so it never DNFs on memory — only on patience.
"""

from __future__ import annotations

from repro.baselines.base import BaselineEngine

#: GraphChi stores values on edges: each edge record is (src, dst, value).
EDGE_RECORD_BYTES = 24

#: Disk-era engineering: effective CPU parallelism is low (the paper's
#: GraphChi was designed for disks and a few threads).
EFFECTIVE_THREADS = 4

#: Fraction of edge data rewritten per iteration (updated edge values).
REWRITE_FRACTION = 0.5


class ShardedExternalEngine(BaselineEngine):
    """GraphChi-like execution with constant memory use."""

    name = "GraphChi"

    def peak_memory(self, algorithm: str) -> int:
        return min(self.profile.dram_capacity // 2, 4 * (1 << 30))

    def charge_superstep(self, algorithm: str, frontier: int, edges: int,
                         updated: int, accesses: int) -> None:
        """One full parallel-sliding-windows pass over all shards, however
        few vertices are active."""
        # Memory shard + sliding windows: the whole edge data is read once,
        # and updated edge values are written back.
        edge_data_bytes = self.graph.num_edges * EDGE_RECORD_BYTES
        self.charge_seq_read(edge_data_bytes)
        self.charge_seq_write(edge_data_bytes * REWRITE_FRACTION)
        self.charge_cpu_stream(edge_data_bytes, threads=EFFECTIVE_THREADS)
        # Re-sorting updates into shard order is extra work GraphChi pays.
        self.charge_cpu_scatter(edge_data_bytes * 0.5,
                                threads=EFFECTIVE_THREADS)
