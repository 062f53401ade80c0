"""Graph algorithms expressed as vertex programs (§V-A).

The paper evaluates breadth-first search, PageRank and betweenness
centrality (§V-A), the three the benchmarks run.  BFS "forms the basis and
shares the characteristics of many other algorithms such as Single-Source
Shortest Path and Label Propagation", so those two are provided as well;
the examples run them.

* :mod:`repro.algorithms.bfs` — BFS parent tree (FIRST reduction).
* :mod:`repro.algorithms.pagerank` — PageRank, both the paper's measured
  all-active iteration and Algorithm 4's bloom-filter custom-active driver.
* :mod:`repro.algorithms.bc` — single-source betweenness centrality via BFS
  traversal plus per-level backtracing sort-reduces (§V-A).
* :mod:`repro.algorithms.sssp` — single-source shortest paths (MIN).
* :mod:`repro.algorithms.cc` — connected components / label propagation.
* :mod:`repro.algorithms.reference` — trusted in-memory implementations used
  for cross-validation in tests.

Every driver runs its program through the engine's one superstep loop;
the BC backtrace adds one sort-reduce per BFS level, not a scan.
"""

from repro.algorithms.bfs import BFSProgram, run_bfs
from repro.algorithms.pagerank import PageRankProgram, run_pagerank, run_pagerank_alg4
from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.sssp import SSSPProgram, run_sssp
from repro.algorithms.cc import LabelPropagationProgram, run_label_propagation

__all__ = [
    "BFSProgram",
    "run_bfs",
    "PageRankProgram",
    "run_pagerank",
    "run_pagerank_alg4",
    "run_betweenness_centrality",
    "SSSPProgram",
    "run_sssp",
    "LabelPropagationProgram",
    "run_label_propagation",
]
