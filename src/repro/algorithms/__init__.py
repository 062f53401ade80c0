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

:data:`ANALYTICS` is the one table of the kinds a user names by string:
the CLI, the harness, the baselines, the service and the figure scripts
read it.  The package exports nothing else; import a driver from its
module.
"""

from dataclasses import dataclass
from typing import Callable

from repro.algorithms.bfs import BFSProgram
from repro.algorithms.cc import LabelPropagationProgram
from repro.algorithms.pagerank import PageRankProgram


@dataclass(frozen=True)
class Analytic:
    """One row of :data:`ANALYTICS`: how a kind's name becomes a run."""

    #: Each param the kind takes (an optional integer) -> its minimum.
    params: dict[str, int]
    #: ``(num_vertices, root, params) -> (program, superstep limit)``: ``root``
    #: is the graph's default source, which a ``root`` param overrides, and a
    #: None limit runs to quiescence.  None for BC, whose two phases
    #: :func:`~repro.algorithms.bc.run_betweenness_centrality` drives.
    factory: Callable[[int, int, dict], tuple] | None
    #: DRAM bytes of algorithm state per vertex in the FlashGraph model,
    #: calibrated against Fig 13's x-axis (percent of 8-byte vertex data):
    #: BFS degrades only below 100 %, PageRank from 150 %, BC from 400 %.
    #: None where no baseline models the kind; the figures leave it out.
    baseline_state_bytes: int | None


def _pagerank(num_vertices: int, root: int, params: dict):
    iters = params.get("iters", 1)
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    return PageRankProgram(num_vertices), iters


def _bfs(num_vertices: int, root: int, params: dict):
    root = params.get("root", root)
    if not 0 <= root < num_vertices:
        raise ValueError(f"root {root} out of range [0, {num_vertices})")
    return BFSProgram(root), None


def _label_propagation(num_vertices: int, root: int, params: dict):
    return LabelPropagationProgram(), None


#: The analytics kinds, in the order every listing of them follows: the
#: paper's three (§V-A), then label propagation, which only the service runs.
ANALYTICS: dict[str, Analytic] = {
    "pagerank": Analytic({"iters": 1}, _pagerank, baseline_state_bytes=16),
    "bfs": Analytic({"root": 0}, _bfs, baseline_state_bytes=8),
    "bc": Analytic({}, None, baseline_state_bytes=40),
    "cc": Analytic({}, _label_propagation, baseline_state_bytes=None),
}
