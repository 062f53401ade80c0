"""Connected components via label propagation.

The paper groups Label Propagation with BFS as algorithms "sharing the
characteristics" of sparse-frontier traversal (§V-A).  Every vertex starts
with its own id as its label and repeatedly adopts the minimum label pushed
by any in-neighbour; MIN is associative, so sort-reduce applies directly.

On a directed graph this computes forward label closure; pass a symmetrized
graph (both edge directions) to get weakly connected components.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.kvstream import KVArray
from repro.core.reduce_ops import MIN
from repro.engine.api import VertexProgram
from repro.engine.engine import GraFBoostEngine, RunResult

#: Label of a vertex that never received any update.
NO_LABEL = np.uint64(0xFFFFFFFFFFFFFFFF)


class LabelPropagationProgram(VertexProgram):
    """Minimum-label propagation; converges to per-component minima."""

    name = "label-propagation"
    value_dtype = np.dtype("<u8")
    reduce_op = MIN
    default_value = NO_LABEL

    def vertex_messages(self, values: np.ndarray, ids: np.ndarray,
                        degrees: np.ndarray) -> np.ndarray:
        return values

    def finalize(self, new_values: np.ndarray, old_values: np.ndarray) -> np.ndarray:
        return np.minimum(new_values, old_values)

    def is_active(self, finalized: np.ndarray, old_values: np.ndarray,
                  old_steps: np.ndarray, superstep: int) -> np.ndarray:
        return finalized < old_values

    def initial_updates(self, num_vertices: int) -> Iterator[KVArray]:
        """Every vertex seeds its own id (key-dependent, unlike the uniform
        generator)."""
        chunk = 1 << 16
        for start in range(0, num_vertices, chunk):
            keys = np.arange(start, min(start + chunk, num_vertices), dtype=np.uint64)
            yield KVArray(keys, keys.copy())


def run_label_propagation(engine: GraFBoostEngine) -> RunResult:
    """Run to convergence; ``result.final_values()`` maps each vertex to the
    minimum vertex id it can be reached from (its component id on a
    symmetrized graph)."""
    return engine.run(LabelPropagationProgram())
