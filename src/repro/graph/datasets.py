"""The Table I dataset registry, parameterized by a scale factor.

Each entry records the paper's published statistics (nodes, edges, edge
factor, binary and text sizes) and knows how to synthesize a structurally
analogous graph at ``scale_factor`` times the vertex count.  Scaled
experiments shrink the DRAM budgets by the same factor
(:meth:`~repro.perf.profiles.HardwareProfile.scaled`), so every
"memory as a percentage of vertex data" point of Fig 13 lands where the
paper's does.

The default :data:`DEFAULT_SCALE` (2^-14) keeps the largest graph (wdc,
128 B edges in the paper) under ten million edges — tractable for the
pure-Python functional simulation while still forcing multi-level external
merges at the scaled DRAM sizes.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph import generators

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Default linear vertex-count scale for scaled-down experiments.
DEFAULT_SCALE = 2.0 ** -14


@dataclass(frozen=True)
class GraphDataset:
    """One row of Table I plus its synthesizer."""

    name: str
    paper_nodes: int
    paper_edges: int
    paper_edgefactor: int
    paper_size_bytes: int      # column-compressed binary encoding (Table I "size")
    paper_txt_bytes: int       # text edge-list size (Table I "txtsize")
    #: ``(dataset, scale_factor) -> vertex count``: the one rule the
    #: generator and :meth:`scaled_nodes` share.
    vertices: Callable[["GraphDataset", float], int]
    #: ``(dataset, num_vertices, seed) -> CSRGraph``.
    synthesize: Callable[["GraphDataset", int, int], CSRGraph]

    def scaled_nodes(self, scale_factor: float) -> int:
        return self.vertices(self, scale_factor)

    def scaled_edges(self, scale_factor: float) -> int:
        return self.scaled_nodes(scale_factor) * self.paper_edgefactor

    def graph(self, scale_factor: float = DEFAULT_SCALE, seed: int = 1) -> CSRGraph:
        """Synthesize the graph at the requested scale."""
        if scale_factor <= 0 or scale_factor > 1:
            raise ValueError(f"scale_factor must be in (0, 1], got {scale_factor}")
        return self.synthesize(self, self.scaled_nodes(scale_factor), seed)


def _power_of_two(dataset: GraphDataset, scale_factor: float) -> int:
    """A Kronecker graph's: the paper's scale (``log2`` of its vertex count)
    less the nearest whole number of halvings, and at least 2^4."""
    shrink_bits = max(0, round(-math.log2(scale_factor)))
    return 1 << max(4, round(math.log2(dataset.paper_nodes)) - shrink_bits)


def _at_least_64(dataset: GraphDataset, scale_factor: float) -> int:
    """The paper's vertex count, scaled, and at least 64."""
    return max(64, int(dataset.paper_nodes * scale_factor))


def _kron(dataset: GraphDataset, num_vertices: int, seed: int) -> CSRGraph:
    return generators.kronecker_csr(num_vertices.bit_length() - 1,
                                    dataset.paper_edgefactor, seed=seed)


def _twitter(dataset: GraphDataset, num_vertices: int, seed: int) -> CSRGraph:
    return CSRGraph.from_edges(*generators.powerlaw_edges(
        num_vertices, num_vertices * dataset.paper_edgefactor, exponent=1.3, seed=seed))


def _wdc(dataset: GraphDataset, num_vertices: int, seed: int) -> CSRGraph:
    return CSRGraph.from_edges(*generators.webcrawl_edges(
        num_vertices, dataset.paper_edgefactor, seed=seed))


DATASETS: dict[str, GraphDataset] = {
    "twitter": GraphDataset(
        name="twitter",
        paper_nodes=41_000_000,
        paper_edges=1_470_000_000,
        paper_edgefactor=36,
        paper_size_bytes=6 * GB,
        paper_txt_bytes=25 * GB,
        vertices=_at_least_64,
        synthesize=_twitter,
    ),
    "kron28": GraphDataset(
        name="kron28",
        paper_nodes=268_000_000,
        paper_edges=4_000_000_000,
        paper_edgefactor=16,
        paper_size_bytes=18 * GB,
        paper_txt_bytes=88 * GB,
        vertices=_power_of_two,
        synthesize=_kron,
    ),
    "kron30": GraphDataset(
        name="kron30",
        paper_nodes=1_000_000_000,
        paper_edges=17_000_000_000,
        paper_edgefactor=16,
        paper_size_bytes=72 * GB,
        paper_txt_bytes=351 * GB,
        vertices=_power_of_two,
        synthesize=_kron,
    ),
    "kron32": GraphDataset(
        name="kron32",
        paper_nodes=4_000_000_000,
        paper_edges=32_000_000_000,
        paper_edgefactor=8,
        paper_size_bytes=128 * GB,
        paper_txt_bytes=295 * GB,
        vertices=_power_of_two,
        synthesize=_kron,
    ),
    "wdc": GraphDataset(
        name="wdc",
        paper_nodes=3_000_000_000,
        paper_edges=128_000_000_000,
        paper_edgefactor=43,
        paper_size_bytes=502 * GB,
        paper_txt_bytes=2648 * GB,
        vertices=_at_least_64,
        synthesize=_wdc,
    ),
}


def dataset_by_name(name: str) -> GraphDataset:
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None


#: Bump when the synthesized graphs or the cache layout change, so stale
#: cache entries from older code are never loaded.
DATASET_CACHE_VERSION = 1


def dataset_cache_dir() -> str | None:
    """Directory for the persistent dataset cache, or None when disabled.

    ``REPRO_DATASET_CACHE`` overrides the default of
    ``~/.cache/repro-datasets``; setting it to ``off`` (or ``0``) disables
    on-disk caching entirely.
    """
    override = os.environ.get("REPRO_DATASET_CACHE")
    if override is not None:
        if override.strip().lower() in ("", "off", "0", "none"):
            return None
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-datasets")


def _cache_path(name: str, scale_factor: float, seed: int) -> str | None:
    base = dataset_cache_dir()
    if base is None:
        return None
    # float().hex() is exact, so distinct scales can never collide.  ``w0``
    # (unweighted) keeps the names of entries already on disk.
    scale_key = float(scale_factor).hex().replace("0x", "").replace(".", "_")
    fname = f"{name}-s{scale_key}-r{seed}-w0-v{DATASET_CACHE_VERSION}.npz"
    return os.path.join(base, fname)


def _load_cached(path: str) -> CSRGraph | None:
    try:
        with np.load(path, allow_pickle=False) as data:
            return CSRGraph(int(data["num_vertices"]),
                            _freeze_loaded(data["offsets"]),
                            _freeze_loaded(data["targets"]))
    except (OSError, KeyError, ValueError):
        return None  # unreadable/corrupt entry: fall through to a rebuild


def _freeze_loaded(array: np.ndarray) -> np.ndarray:
    """``array`` and every array under it, made read-only.  ``np.load`` hands
    out a view of an owner array nobody else holds; freezing the owner lets
    :class:`CSRGraph` keep the view instead of copying it."""
    base = array
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return array


def _store_cached(path: str, graph: CSRGraph) -> None:
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        arrays = {
            "num_vertices": np.int64(graph.num_vertices),
            "offsets": graph.offsets,
            "targets": graph.targets,
        }
        # Write-then-rename so a concurrent reader never sees a torn file.
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass  # caching is best-effort; the build result is still returned


def build_graph(name: str, scale_factor: float = DEFAULT_SCALE, seed: int = 1) -> CSRGraph:
    """Synthesize a dataset and return it as an in-memory CSR graph.

    Built graphs are persisted to :func:`dataset_cache_dir` keyed by
    (name, scale, seed, cache version); later builds of the same graph load
    the CSR arrays instead of re-running the generator.
    """
    path = _cache_path(name, scale_factor, seed)
    if path is not None and os.path.exists(path):
        cached = _load_cached(path)
        if cached is not None:
            return cached
    graph = dataset_by_name(name).graph(scale_factor, seed)
    if path is not None:
        _store_cached(path, graph)
    return graph
