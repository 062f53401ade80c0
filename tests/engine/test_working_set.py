"""The host working set of a run: what the simulator itself holds, measured.

``tracemalloc`` counts every byte Python and numpy allocate, exactly and the
same on every run, where the process's resident high-water mark depends on
the allocator (DESIGN.md "Performance of the simulator").  Each test prints
its reading; ``pytest -s`` shows them.
"""

import math
import tracemalloc

from repro.harness import run_grafboost_system
from repro.graph.datasets import build_graph


def traced_peak(graph, system: str, algorithm: str, scale: float,
                dataset: str, **options) -> int:
    """Bytes at the traced high-water mark of one run (graph build excluded)."""
    tracemalloc.start()
    try:
        run_grafboost_system(system, graph, algorithm, scale=scale,
                             dataset=dataset, sanitize=False, **options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"\n{system} {algorithm} on {dataset} @ 2^{math.log2(scale):g}: "
          f"traced peak {peak / 1e6:.2f} MB")
    return peak


def test_pagerank_traced_peak_is_bounded():
    # GraFSoft PageRank x2 on kron30 @ 2^-14: 1 048 576 edges, every one of
    # them pushed by superstep 0.  Traced peak of the run, MB = 10^6 B:
    # 54.5-57.1 when a push built all its update pairs before the first sink
    # add; 36.0-38.9 once it streamed them in batches; 28.1 since the store
    # keeps the graph's frozen arrays instead of a copy and merge batches
    # sort-reduce in key-range slices; 23.7 since a superstep frees what it
    # no longer reads and runs and overlays go to flash as the frozen arrays
    # they were built in; 21.2 since merge sources hold views of the flash
    # pages instead of a decoded copy, bloom filters are built in blocks and
    # the free-LPN pool stores only recycled LPNs (22.3 later, with 2^18-edge
    # push batches); 19.0 since a push batch covers 2^16 edges and a sort
    # chunk inside one batch is sorted as views of it.  The rest is mostly
    # the device's payload, which grows with the graph by design.  Bound:
    # that measurement + 8 %.
    scale = 2.0 ** -14
    graph = build_graph("kron30", scale, seed=1)
    assert graph.num_edges == 1 << 20
    peak = traced_peak(graph, "GraFSoft", "pagerank", scale, "kron30",
                       pagerank_iterations=2)
    assert peak <= 20.5e6, f"traced peak {peak / 1e6:.1f} MB"


def test_sparse_bfs_traced_peak_is_bounded():
    # GraFBoost BFS on wdc @ 2^-16 (the layered benchmark's bfs_sparse):
    # ~900 supersteps of tiny frontiers over 1 929 938 edges.  Traced peak
    # 35.1 MB when the file store copied the edge array and a gather copied
    # the whole fetched read before picking its ranges out; 7.8 MB after
    # that; 6.9 MB since a superstep frees what it no longer reads.
    # Bound: that measurement + 15 %.
    scale = 2.0 ** -16
    graph = build_graph("wdc", scale, seed=1)
    assert graph.num_edges == 1_929_938
    peak = traced_peak(graph, "GraFBoost", "bfs", scale, "wdc")
    assert peak <= 7.9e6, f"traced peak {peak / 1e6:.1f} MB"


def test_cold_kronecker_build_holds_little_beyond_the_graph(monkeypatch):
    # A cold build_graph("kron30", 2^-14), cache off: 2^20 edges dealt to up
    # to two threads, a CSR of 8.91 MB.  Traced peak over the CSR's bytes:
    # 4.83 when the whole edge list was drawn, permuted to uint64 and sorted
    # through an int64 order; 1.89 after this file's other tests, 1.96 alone,
    # since each R-MAT block writes its sort words and permuted uint32
    # targets and the sorted words become the targets.  Above the 12.8 MB of
    # words, targets and permutation is the blocks' scratch, ~2.3 MB per
    # thread, both threads' at once (one CPU reads 1.80).  Bound: the higher
    # reading + 7 %.
    monkeypatch.setenv("REPRO_DATASET_CACHE", "off")
    tracemalloc.start()
    try:
        graph = build_graph("kron30", 2.0 ** -14, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / graph.nbytes
    print(f"\ncold kron30 @ 2^-14 build: traced peak {peak / 1e6:.2f} MB, "
          f"{ratio:.2f}x the CSR's {graph.nbytes / 1e6:.2f} MB")
    assert graph.num_edges == 1 << 20
    assert ratio <= 2.1, f"traced peak {ratio:.2f}x the CSR's bytes"
