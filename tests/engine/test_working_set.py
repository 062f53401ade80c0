"""The host working set of a run: what the simulator itself holds, measured.

``tracemalloc`` counts every byte Python and numpy allocate, exactly and the
same on every run, where the process's resident high-water mark depends on
the allocator (DESIGN.md "Performance of the simulator").
"""

import tracemalloc

from repro.harness import run_grafboost_system
from repro.graph.datasets import build_graph


def test_pagerank_traced_peak_is_bounded():
    # GraFSoft PageRank x2 on kron30 @ 2^-14: 1 048 576 edges, every one of
    # them pushed by superstep 0.  Traced peak of the run (graph build
    # excluded), MB = 10^6 B: 54.5-57.1 when a push built all its update
    # pairs before the first sink add, 36.0-38.9 since it streams them in
    # batches.  The rest is mostly the device's payload, which grows with
    # the graph by design.
    scale = 2.0 ** -14
    graph = build_graph("kron30", scale, seed=1)
    assert graph.num_edges == 1 << 20
    tracemalloc.start()
    try:
        run_grafboost_system("GraFSoft", graph, "pagerank", scale=scale,
                             dataset="kron30", pagerank_iterations=2,
                             sanitize=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45e6, f"traced peak {peak / 1e6:.1f} MB"
