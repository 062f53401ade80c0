"""Single-source shortest path (Bellman-Ford-style label correcting).

The paper's example for edge programs (§IV-D): "the edge program adds the
vertex and edge values and produces it as a vertex value", with MIN as the
vertex update.  A vertex is active when its distance improved.
"""

from __future__ import annotations

import numpy as np

from repro.core.reduce_ops import MIN
from repro.engine.api import SingleSourceProgram
from repro.engine.engine import GraFBoostEngine, RunResult

#: Distance of an unreached vertex.
UNREACHED = np.float64(np.inf)


class SSSPProgram(SingleSourceProgram):
    """Shortest path distances from one root over weighted out-edges."""

    name = "sssp"
    value_dtype = np.dtype("<f8")
    reduce_op = MIN
    default_value = UNREACHED
    uses_weights = True

    def __init__(self, root: int):
        super().__init__(root, seed=0.0)

    def edge_program(self, src_values: np.ndarray, src_ids: np.ndarray,
                     edge_weights: np.ndarray | None,
                     src_degrees: np.ndarray) -> np.ndarray:
        if edge_weights is None:
            raise ValueError("SSSP requires a weighted graph")
        return src_values + edge_weights.astype(np.float64)

    def finalize(self, new_values: np.ndarray, old_values: np.ndarray) -> np.ndarray:
        return np.minimum(new_values, old_values)

    def is_active(self, finalized: np.ndarray, old_values: np.ndarray,
                  old_steps: np.ndarray, superstep: int) -> np.ndarray:
        return finalized < old_values


def run_sssp(engine: GraFBoostEngine, root: int) -> RunResult:
    """Run SSSP; ``result.final_values()`` holds distances (inf = unreached)."""
    return engine.run(SSSPProgram(root))
