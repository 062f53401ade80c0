"""Breadth-first search as a vertex program (§V-A).

BFS maintains a parent id per visited vertex so every vertex can be traced
back to the root.  The paper's program is exactly two lines:

* ``edge_program(vertexValue, edgeValue, vertexID) = vertexID`` — push your
  own id to your neighbours (the same value along every out-edge, so
  :meth:`BFSProgram.vertex_messages` states it once per vertex);
* ``vertex_update(v1, v2) = v1`` — keep any one parent (FIRST; associative).

A vertex is active when its old value is still UNVISITED.  BFS is the
paper's example of an algorithm with *sparse* active lists — thousands of
near-empty supersteps on the WDC graph's tail, the workload that breaks
edge-centric systems.
"""

from __future__ import annotations

import numpy as np

from repro.core.reduce_ops import FIRST
from repro.engine.api import SingleSourceProgram
from repro.engine.engine import GraFBoostEngine, RunResult

#: Parent value of a vertex no BFS wave has reached.
UNVISITED = np.uint64(0xFFFFFFFFFFFFFFFF)


def expand_level(frontier: np.ndarray, degrees: np.ndarray, targets: np.ndarray,
                 visited: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One BFS level outside the engine: the vertices the sorted
    ``frontier`` discovers, ascending, and the parent of each.

    ``targets`` are the frontier's out-neighbours, ``degrees[i]`` of them
    for ``frontier[i]``, in frontier order and then edge order.  Each target
    not yet ``visited`` is marked visited, and its parent is its first
    discoverer in that order: ``vertex_update(v1, v2) = v1``.
    """
    sources = np.repeat(frontier, degrees)
    fresh = ~visited[targets]
    new, first = np.unique(targets[fresh], return_index=True)
    visited[new] = True
    return new, sources[fresh][first]


class BFSProgram(SingleSourceProgram):
    """BFS from a single root; vertex values are parent ids."""

    name = "bfs"
    value_dtype = np.dtype("<u8")
    reduce_op = FIRST
    default_value = UNVISITED

    def __init__(self, root: int):
        # The root's recorded parent is itself, as in Graph500 outputs.
        super().__init__(root, seed=root)

    def vertex_messages(self, values: np.ndarray, ids: np.ndarray,
                        degrees: np.ndarray) -> np.ndarray:
        return ids

    def is_active(self, finalized: np.ndarray, old_values: np.ndarray,
                  old_steps: np.ndarray, superstep: int) -> np.ndarray:
        return old_values == UNVISITED


def run_bfs(engine: GraFBoostEngine, root: int) -> RunResult:
    """Run BFS from ``root``; ``result.final_values()`` is the parent array
    (UNVISITED where unreachable)."""
    return engine.run(BFSProgram(root))
