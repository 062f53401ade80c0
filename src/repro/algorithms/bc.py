"""Betweenness centrality via BFS traversal plus sort-reduced backtracing.

The paper's BC (§V-A) runs BFS programs forward, keeping each superstep's
generated vertex list (vertex → parent id).  Backtracing then walks the
levels deepest-first: each list is "made ready for backtracing by taking the
vertex values as keys and initializing vertex values to 1, and sort-reducing
them" — i.e. every vertex sends ``1 + credit`` to its parent, and a
sort-reduce with SUM accumulates per-parent credit.  Each backtrack step is
"another execution of sort-reduce", with the random updates to parent data
sequentialized exactly like forward updates.

The resulting score of a vertex is the number of BFS-tree descendants it
has — the path-counting surrogate this traversal computes (the paper's exact
union-cascade combination is described only loosely; tests pin this
definition against an independent reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.bfs import BFSProgram
from repro.core.external import SortReduceStats
from repro.core.kvstream import KVArray
from repro.core.reduce_ops import SUM
from repro.engine.engine import GraFBoostEngine, RunResult
from repro.engine.superstep import reduce_into


@dataclass
class BCResult:
    """Forward traversal plus backtraced centrality scores."""

    forward: RunResult
    centrality: np.ndarray
    backtrace_elapsed_s: float
    backtrace_stats: list[SortReduceStats] = field(default_factory=list)
    #: Execution mode of each backtracing pass (one per BFS-tree level,
    #: deepest first) — always a sort-reduce, recorded so reports can show
    #: the full two-phase mode trace instead of silently dropping the
    #: backward half.
    backtrace_modes: list[str] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return self.forward.elapsed_s + self.backtrace_elapsed_s

    @property
    def num_supersteps(self) -> int:
        return self.forward.num_supersteps

    @property
    def total_traversed_edges(self) -> int:
        return self.forward.total_traversed_edges


def run_betweenness_centrality(engine: GraFBoostEngine, root: int) -> BCResult:
    """BFS forward from ``root``, then per-level backtracing sort-reduces."""
    saved_max_overlays = engine.max_overlays
    engine.max_overlays = 1 << 30  # keep every level's list for backtracing
    try:
        forward = engine.run(BFSProgram(root))
    finally:
        engine.max_overlays = saved_max_overlays

    clock = engine.clock
    backtrace_start = clock.elapsed_s
    levels = forward.vertices.overlays()
    centrality = np.zeros(engine.num_vertices, dtype=np.float64)
    stats: list[SortReduceStats] = []
    modes: list[str] = []

    credit = KVArray.empty(np.dtype("<f8"))  # per-vertex descendant counts
    for level_index in range(len(levels) - 1, -1, -1):
        vertices_k, parents = _read_level(forward.vertices, levels[level_index])
        # Credits computed for this level by the previous (deeper) pass.
        level_credit = _join_credit(vertices_k, credit)
        centrality[vertices_k.astype(np.int64)] = level_credit
        if level_index == 0:
            break
        push_mask = parents != vertices_k  # the root parents itself; stop there
        updates = KVArray(parents[push_mask], 1.0 + level_credit[push_mask])
        reducer = engine.make_reducer(SUM, np.dtype("<f8"),
                                      f"bc-back-{level_index}")
        run, _ = reduce_into(reducer, lambda sink: sink.add(updates))
        stats.append(reducer.stats)
        modes.append("sortreduce")
        credit = run.read_all()
        run.delete()

    return BCResult(
        forward=forward,
        centrality=centrality,
        backtrace_elapsed_s=clock.elapsed_s - backtrace_start,
        backtrace_stats=stats,
        backtrace_modes=modes,
    )


def _read_level(vertex_array, overlay) -> tuple[np.ndarray, np.ndarray]:
    """Read one superstep's (vertex, parent) list from its overlay file."""
    vertices, parents, _steps = vertex_array.read_overlay(overlay.name, 0, overlay.count)
    return vertices, parents


def _join_credit(keys: np.ndarray, credit: KVArray) -> np.ndarray:
    """Per-key credit values (0 where absent); both inputs key-sorted."""
    out = np.zeros(len(keys), dtype=np.float64)
    if len(credit) == 0 or len(keys) == 0:
        return out
    idx = np.searchsorted(credit.keys, keys)
    valid = idx < len(credit)
    hit = np.zeros(len(keys), dtype=bool)
    hit[valid] = credit.keys[idx[valid]] == keys[valid]
    out[hit] = credit.values[idx[hit]]
    return out
