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
