"""The GraFBoost vertex-centric engine (§III-C, §IV).

Push-style vertex programs (a per-vertex or per-edge message /
vertex_update / finalize / is_active, Algorithm 1's vocabulary) are
executed in bulk-synchronous supersteps whose random vertex updates are
routed through external sort-reduce:

* :mod:`repro.engine.api` — the :class:`VertexProgram` interface and the
  all-active vertex list generator (§IV-D's hardware generator module).
* :mod:`repro.engine.superstep` — the superstep loop's three kernels
  (scan ``newV``, push the active list, reduce into the next ``newV``).
* :mod:`repro.engine.modes` — the execution strategies over those kernels
  (Algorithms 2–4, semi-external, dense scan, the adaptive policy).
* :mod:`repro.engine.engine` — the superstep driver and run metrics.
* :mod:`repro.engine.config` — system assembly: GraFBoost / GraFBoost2 /
  GraFSoft stacks at a chosen scale.
"""

from repro.engine.api import VertexProgram, all_active_chunks
from repro.engine.engine import GraFBoostEngine, RunResult, SuperstepMetrics
from repro.engine.config import SystemConfig, make_system

__all__ = [
    "VertexProgram",
    "all_active_chunks",
    "GraFBoostEngine",
    "RunResult",
    "SuperstepMetrics",
    "SystemConfig",
    "make_system",
]
