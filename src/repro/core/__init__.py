"""Sort-reduce: the paper's primary contribution (§III).

Given a stream of ``(key, value)`` update requests and a binary associative
reduction function ``f``, sort-reduce produces the list of keys in sorted
order with all duplicate keys merged through ``f`` — turning fine-grained
random array updates into fully sequential storage traffic, and shrinking the
update list at *every* merge step along the way (Fig 1).

Layers, bottom-up:

* :mod:`repro.core.kvstream` — columnar key-value runs (numpy-backed).
* :mod:`repro.core.reduce_ops` — associative reduction operators.
* :mod:`repro.core.inmemory` — in-memory sort-reduce of one chunk.
* :mod:`repro.core.merger` — streaming k-way merge-reduce of sorted runs.
* :mod:`repro.core.external` — external sort-reduce over flash files with
  per-phase reduction statistics (Fig 14).
* :mod:`repro.core.parallel` — the multi-core worker pool behind
  ``--workers N``: parallel chunk sorts and key-range-partitioned merges
  with bit-identical results and simulated time for any worker count.
* :mod:`repro.core.packing` / :mod:`repro.core.accelerator` — the FPGA
  datapath's 256-bit tuple packing (Fig 7) and its throughput model, plus
  the software backend's cost model.
* :mod:`repro.core.bloom` — the bloom filter behind Algorithm 4's active
  list.
"""

from repro.core.kvstream import KVArray
from repro.core.reduce_ops import ReduceOp, SUM, MIN, MAX, FIRST, LAST, PROD
from repro.core.inmemory import sort_reduce_in_memory
from repro.core.merger import merge_reduce_arrays, StreamingMergeReducer
from repro.core.external import ExternalSortReducer, SortReduceStats
from repro.core.parallel import (
    SortReducePool,
    WorkerTaskError,
    get_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.core.accelerator import AcceleratorBackend, SoftwareBackend
from repro.core.packing import PackingSpec

__all__ = [
    "KVArray",
    "ReduceOp",
    "SUM",
    "MIN",
    "MAX",
    "FIRST",
    "LAST",
    "PROD",
    "sort_reduce_in_memory",
    "merge_reduce_arrays",
    "StreamingMergeReducer",
    "ExternalSortReducer",
    "SortReduceStats",
    "SortReducePool",
    "WorkerTaskError",
    "get_pool",
    "resolve_workers",
    "shutdown_pools",
    "AcceleratorBackend",
    "SoftwareBackend",
    "PackingSpec",
]
