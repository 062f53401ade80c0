"""Breadth-first search as a vertex program (§V-A).

BFS maintains a parent id per visited vertex so every vertex can be traced
back to the root.  The paper's program is exactly two lines:

* ``edge_program(vertexValue, edgeValue, vertexID) = vertexID`` — push your
  own id to your neighbours;
* ``vertex_update(v1, v2) = v1`` — keep any one parent (FIRST; associative).

A vertex is active when its old value is still UNVISITED.  BFS is the
paper's example of an algorithm with *sparse* active lists — thousands of
near-empty supersteps on the WDC graph's tail, the workload that breaks
edge-centric systems.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.kvstream import KVArray
from repro.core.reduce_ops import FIRST
from repro.engine.api import VertexProgram, single_seed
from repro.engine.engine import GraFBoostEngine, RunResult

#: Parent value of a vertex no BFS wave has reached.
UNVISITED = np.uint64(0xFFFFFFFFFFFFFFFF)


class BFSProgram(VertexProgram):
    """BFS from a single root; vertex values are parent ids."""

    name = "bfs"
    value_dtype = np.dtype("<u8")
    reduce_op = FIRST
    default_value = UNVISITED

    def __init__(self, root: int):
        if root < 0:
            raise ValueError(f"root must be non-negative, got {root}")
        self.root = int(root)

    def edge_program(self, src_values: np.ndarray, src_ids: np.ndarray,
                     edge_weights: np.ndarray | None,
                     src_degrees: np.ndarray) -> np.ndarray:
        return src_ids

    def vertex_messages(self, values: np.ndarray, ids: np.ndarray,
                        degrees: np.ndarray) -> np.ndarray:
        return ids

    def is_active(self, finalized: np.ndarray, old_values: np.ndarray,
                  old_steps: np.ndarray, superstep: int) -> np.ndarray:
        return old_values == UNVISITED

    def initial_updates(self, num_vertices: int) -> Iterator[KVArray]:
        if self.root >= num_vertices:
            raise ValueError(f"root {self.root} out of range [0, {num_vertices})")
        # The root's recorded parent is itself, as in Graph500 outputs.
        return single_seed(self.root, np.uint64(self.root), self.value_dtype)

    def initial_frontier_hint(self, num_vertices: int) -> int:
        return 1  # single-root seed


def run_bfs(engine: GraFBoostEngine, root: int) -> RunResult:
    """Run BFS from ``root``; ``result.final_values()`` is the parent array
    (UNVISITED where unreachable)."""
    return engine.run(BFSProgram(root))
