"""Baseline graph-analytics systems the paper compares against (§II-A, §V).

Each baseline models the published *storage and execution strategy* of one
competing system, computes real answers on the same graphs, and charges its
storage traffic and compute against the same simulated clock and device
model the GraFBoost engines use.  The algorithms themselves exist once:
:class:`~repro.baselines.base.BaselineEngine` runs BFS, PageRank and BC over
the shared kernels, and a model is only its set of cost hooks (refusal,
untimed setup, timed load, per-superstep charge, BC backtrace charge, peak
memory):

* :class:`InMemoryEngine` — GraphLab-like: the whole (replicated) graph in
  DRAM; fastest when it fits, refuses with an out-of-memory DNF when it
  does not.  :class:`ClusterInMemoryEngine` adds the 5-node GraphLab5
  configuration.
* :class:`SemiExternalEngine` — FlashGraph-like: vertex arrays pinned in
  DRAM, edges read from SSD on demand through a page cache; DNF when even
  vertex data outgrows memory.
* :class:`EdgeCentricEngine` — X-Stream-like: streams *every* edge each
  superstep through streaming partitions; immune to memory pressure,
  hopeless on long sparse frontiers.
* :class:`ShardedExternalEngine` — GraphChi-like: parallel sliding windows
  over on-disk shards, re-reading the whole graph every iteration.

Unlike the GraFBoost engines (whose data physically round-trips through the
simulated flash device), baselines compute functionally in memory and meter
their storage traffic through the cost model — the comparison the paper
makes is about I/O strategy, and that is what is simulated.
"""

from repro.baselines.base import BaselineEngine, DNF_CUTOFF_UNLIMITED
from repro.baselines.inmemory import InMemoryEngine, ClusterInMemoryEngine
from repro.baselines.semiexternal import SemiExternalEngine
from repro.baselines.edgecentric import EdgeCentricEngine
from repro.baselines.shard import ShardedExternalEngine

#: Every model, in the order the paper's figures list them; each class's
#: ``name`` is the system name the harness and the CLI accept.
BASELINE_ENGINES = (InMemoryEngine, ClusterInMemoryEngine, SemiExternalEngine,
                    EdgeCentricEngine, ShardedExternalEngine)

__all__ = [
    "BASELINE_ENGINES",
    "BaselineEngine",
    "DNF_CUTOFF_UNLIMITED",
    "InMemoryEngine",
    "ClusterInMemoryEngine",
    "SemiExternalEngine",
    "EdgeCentricEngine",
    "ShardedExternalEngine",
]
