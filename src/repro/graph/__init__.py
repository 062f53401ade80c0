"""Graph substrate: structures, on-flash format, generators, datasets.

GraFBoost stores graphs in compressed sparse column (outbound edge-list)
format as two immutable flash files — an index file of per-vertex offsets
and an edge file of destination/property records (Fig 6) — plus a dense
vertex-value array ``V`` and sparse ``newV`` overlays (§IV-B).

* :mod:`repro.graph.csr` — in-memory CSR used for construction, the
  in-memory baseline, and reference algorithm checks.
* :mod:`repro.graph.formats` — the flash file layout and a reader with
  latency-aware read coalescing (the "lookahead buffer" of §V-C.3).
* :mod:`repro.graph.generators` — Graph500 Kronecker, power-law
  ("twitter"-like) and shallow/long-tail web ("wdc"-like) synthesizers.
* :mod:`repro.graph.datasets` — the Table I dataset registry, parameterized
  by a scale factor.
* :mod:`repro.graph.vertexdata` — ``V`` as a lazily-updated base + sorted
  overlay stack, the paper's trick for appending vertex updates instead of
  random-writing them.
"""

from repro.graph.csr import CSRGraph
from repro.graph.formats import FlashCSR
from repro.graph.generators import kronecker_csr, powerlaw_edges, webcrawl_edges
from repro.graph.datasets import GraphDataset, DATASETS, dataset_by_name, build_graph
from repro.graph.vertexdata import VertexArray

__all__ = [
    "CSRGraph",
    "FlashCSR",
    "kronecker_csr",
    "powerlaw_edges",
    "webcrawl_edges",
    "GraphDataset",
    "DATASETS",
    "dataset_by_name",
    "build_graph",
    "VertexArray",
]
