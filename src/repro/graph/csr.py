"""In-memory compressed sparse row (out-edge list) graph.

The construction intermediate for the flash format, the working structure of
the in-memory (GraphLab-like) baseline, and the substrate for reference
algorithm implementations used in cross-validation tests.
"""

from __future__ import annotations

import numpy as np

from repro.flash.store import is_frozen

#: Edges per pass of the CSR build's block loops: no temporary of the build
#: is larger than this many edges' worth.
BUILD_BLOCK_EDGES = 1 << 17


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, read-only: frozen in place when it owns its memory or is
    already frozen, otherwise a frozen copy — a view's memory could still be
    written through its base."""
    if array.base is not None and not is_frozen(array):
        array = array.copy()
    array.flags.writeable = False
    return array


def position_bits(num_edges: int, num_vertices: int) -> int:
    """Low bits an edge's index takes in its sort word, ``source <<
    position_bits | index``; a graph whose words would not fit 64 bits is
    refused."""
    bits = max(num_edges - 1, 0).bit_length()
    if max(num_vertices - 1, 0).bit_length() + bits > 64:
        raise ValueError(f"{num_vertices} vertices and {num_edges} edges do "
                         f"not fit a 64-bit sort word")
    return bits


def sort_words(sources: np.ndarray, first: int, pos_bits: int, out: np.ndarray) -> None:
    """``out[i] = sources[i] << pos_bits | first + i``: the sort words of
    edges ``first:first + len(out)``, written into the uint64 ``out``."""
    np.left_shift(sources, np.uint64(pos_bits), out=out, casting="unsafe")
    out += np.arange(first, first + len(out), dtype=np.uint64)


class CSRGraph:
    """Out-edge adjacency in CSR form.

    ``offsets[v] : offsets[v+1]`` indexes into ``targets`` (and ``weights``
    when present) for vertex ``v``'s outbound edges.  Edges are sorted by
    source; target order within a vertex follows input order.  The arrays
    are frozen (read-only, and nothing else can write them), so a file
    store keeps them instead of a copy when the graph is written to flash.
    """

    def __init__(self, num_vertices: int, offsets: np.ndarray, targets: np.ndarray,
                 weights: np.ndarray | None = None):
        offsets = np.asarray(offsets, dtype=np.uint64)
        targets = np.asarray(targets, dtype=np.uint64)
        if len(offsets) != num_vertices + 1:
            raise ValueError(f"offsets length {len(offsets)} != num_vertices+1 ({num_vertices + 1})")
        if offsets[0] != 0 or offsets[-1] != len(targets):
            raise ValueError("offsets must start at 0 and end at len(targets)")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets must be non-decreasing")
        if len(targets) and targets.max() >= num_vertices:
            raise ValueError("edge target out of range")
        if weights is not None and len(weights) != len(targets):
            raise ValueError("weights must align with targets")
        self.num_vertices = num_vertices
        self.offsets = _frozen(offsets)
        self.targets = _frozen(targets)
        self.weights = None if weights is None else _frozen(
            np.asarray(weights, dtype=np.float32))

    # -------------------------------------------------------------- factories

    @staticmethod
    def from_edges(src: np.ndarray, dst: np.ndarray, num_vertices: int,
                   weights: np.ndarray | None = None) -> "CSRGraph":
        """Build from parallel source/target arrays (any order, duplicates kept)."""
        src = np.asarray(src, dtype=np.uint64)
        dst = np.asarray(dst, dtype=np.uint64)
        if len(src) != len(dst):
            raise ValueError(f"src/dst length mismatch: {len(src)} vs {len(dst)}")
        if weights is not None and len(weights) != len(src):
            raise ValueError(f"weights length {len(weights)} != edge count {len(src)}")
        if len(src) and max(src.max(), dst.max()) >= num_vertices:
            raise ValueError("edge endpoint out of range")
        pos_bits = position_bits(len(src), num_vertices)
        words = np.empty(len(src), dtype=np.uint64)
        for lo in range(0, len(src), BUILD_BLOCK_EDGES):
            hi = min(lo + BUILD_BLOCK_EDGES, len(src))
            sort_words(src[lo:hi], lo, pos_bits, words[lo:hi])
        return CSRGraph.from_sort_words(words, pos_bits, num_vertices, dst, weights)

    @staticmethod
    def from_sort_words(words: np.ndarray, pos_bits: int, num_vertices: int,
                        dst: np.ndarray, weights: np.ndarray | None = None,
                        ) -> "CSRGraph":
        """Build from the edges' uint64 sort words (:func:`sort_words`, any
        order) and their targets ``dst`` (and ``weights``) by edge index.

        ``words`` is sorted in place — the composite word is unique, so its
        order is the stable order by source — and then overwritten, a block
        at a time, by the targets it orders: it becomes the graph's
        ``targets``.  The offsets are where each vertex's first word would
        sort, so no per-edge key array is made.
        """
        weights = None if weights is None else np.asarray(weights)
        words.sort()
        offsets = np.empty(num_vertices + 1, dtype=np.uint64)
        offsets[:-1] = np.searchsorted(
            words, np.arange(num_vertices, dtype=np.uint64) << np.uint64(pos_bits))
        offsets[-1] = len(words)
        ordered = None if weights is None else np.empty(len(words), dtype=np.float32)
        mask = np.uint64((1 << pos_bits) - 1)
        for lo in range(0, len(words), BUILD_BLOCK_EDGES):
            block = words[lo:lo + BUILD_BLOCK_EDGES]
            order = block & mask
            if ordered is not None:
                ordered[lo:lo + len(block)] = weights[order]
            block[:] = dst[order]
        return CSRGraph(num_vertices, offsets, words, ordered)

    # -------------------------------------------------------------- properties

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    @property
    def has_weights(self) -> bool:
        return self.weights is not None

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the structure (what GraphLab must hold)."""
        total = self.offsets.nbytes + self.targets.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets.astype(np.int64)).astype(np.uint64)

    def neighbors(self, v: int) -> np.ndarray:
        return self.targets[int(self.offsets[v]):int(self.offsets[v + 1])]

    # ------------------------------------------------------------- operations

    def sources(self) -> np.ndarray:
        """The source vertex of every edge, in CSR order."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.uint64),
            np.diff(self.offsets.astype(np.int64)),
        )

    def reversed(self) -> "CSRGraph":
        """The transpose graph (in-edge lists), needed by pull-style consumers."""
        return CSRGraph.from_edges(self.targets, self.sources(),
                                   self.num_vertices, self.weights)

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays in CSR order."""
        return self.sources(), self.targets.copy()

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, weighted={self.has_weights})"
