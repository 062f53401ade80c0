"""Synthetic graph generators for the paper's five evaluation datasets.

The paper evaluates on Graph500 Kronecker graphs (kron28/30/32), the twitter
follower graph, and the Web Data Commons hyperlink crawl (Table I).  Real
multi-terabyte inputs are unavailable offline, so each is synthesized with
the structural property that drives its results:

* :func:`kronecker_csr` — the Graph500 reference R-MAT recursion
  (A=0.57, B=0.19, C=0.19, D=0.05), giving the skewed degree distribution
  that makes reduction collapse most updates early; built straight into
  its CSR.
* :func:`powerlaw_edges` — a Zipf-attachment "twitter"-like social graph:
  few supersteps, extreme hubs, >80% phase-0 reduction (Fig 14).
* :func:`webcrawl_edges` — a "wdc"-like web graph: host-local chain links
  plus hub links, engineered to give BFS a very long sparse tail of
  supersteps — the property that makes X-Stream take "23 days" (§V-C.1).

All generators are deterministic given a seed; the other two return (src,
dst) uint64 arrays.  Duplicate edges and self-loops are kept, as in Graph500
inputs.

RNG audit (repro-lint RL001): every function here constructs its own
``np.random.default_rng(seed)`` from an explicit caller-supplied seed and
draws nothing from global or OS-entropy state (R-MAT edge blocks draw through
copies of that generator's state, never seeded from anything else) — two
calls with the same arguments produce byte-identical graphs, which is what
lets ``build_graph`` cache built graphs and the invariance goldens stay pinned.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph, position_bits, sort_words

#: Graph500 initiator matrix probabilities.
KRON_A, KRON_B, KRON_C = 0.57, 0.19, 0.19
#: Edges per R-MAT kernel call and fewest per thread (measured: DESIGN.md).
RMAT_BLOCK_EDGES, RMAT_THREAD_EDGES = 1 << 17, 1 << 19
#: Web crawl shape: the share of core edges that are next-vertex "host
#: navigation" links, and the share of vertices on the pendant path.
CHAIN_FRACTION, TAIL_FRACTION = 0.3, 0.02


def kronecker_csr(scale: int, edgefactor: int = 16, seed: int = 1) -> CSRGraph:
    """Graph500 Kronecker graph: 2**scale vertices, edgefactor per vertex,
    as a CSR built inside the R-MAT blocks.

    Vertex ids are permuted as the Graph500 spec requires, so vertex id does
    not correlate with degree.  The permutation comes first, from a copy of
    the generator advanced past every R-MAT draw (where one serial loop
    leaves it); each block then writes its edges' sort words and permuted
    targets in place, so no edge-sized array but those two is made.
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"kronecker scale out of supported range [1, 30]: {scale}")
    n = 1 << scale
    m = n * edgefactor
    rng = np.random.default_rng(seed)
    perm = _stream_at(rng, 2 * m * scale).permutation(n).astype(np.uint32)
    pos_bits = position_bits(m, n)
    words = np.zeros(m, dtype=np.uint64)
    dst = np.zeros(m, dtype=np.uint32)

    def fill(lo: int, hi: int) -> None:
        # The block's sort words hold its source words until they are made.
        src = words[lo:hi].view(np.uint32)[:hi - lo]
        _rmat_range(rng, scale, m, lo, KRON_A, KRON_B, KRON_C, src, dst[lo:hi])
        sort_words(perm[src], lo, pos_bits, words[lo:hi])
        np.take(perm, dst[lo:hi], out=dst[lo:hi])
    _deal_blocks(m, fill)
    return CSRGraph.from_sort_words(words, pos_bits, n, dst)


def _deal_blocks(m: int, fill: Callable[[int, int], None]) -> None:
    """``fill(lo, hi)`` for every block of ``RMAT_BLOCK_EDGES`` of ``m``
    edges, dealt round-robin to one thread per CPU this process may run on
    (the caller is one; the rest are joined, and the first error a block
    raised is re-raised, on return)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, m // RMAT_THREAD_EDGES))
    errors = []

    def run(part: int) -> None:
        try:
            for lo in range(part * RMAT_BLOCK_EDGES, m, parts * RMAT_BLOCK_EDGES):
                fill(lo, min(lo + RMAT_BLOCK_EDGES, m))
        except Exception as exc:
            errors.append(exc)
    threads = [threading.Thread(target=run, args=(part,)) for part in range(1, parts)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _stream_at(caller: np.random.Generator, offset: int) -> np.random.Generator:
    """A generator over ``caller``'s stream from ``offset`` draws on; the
    caller's own state is only read."""
    bits = np.random.PCG64(0)
    bits.state = caller.bit_generator.state
    return np.random.Generator(bits.advance(offset))


def _rmat_range(caller: np.random.Generator, scale: int, m: int, lo: int, a: float,
                b: float, c: float, src: np.ndarray, dst: np.ndarray) -> None:
    """Edges ``lo:lo + len(src)`` of ``m`` into the zeroed uint32
    ``src``/``dst``: two uniform draws per edge and level (source, then
    target), edge ``i`` reading draws ``2 * bit * m + i`` and ``+ m`` of the
    caller's stream, so a copy of its generator starts ``lo`` draws in and
    skips the others' after each fill.  Scratch is allocated before the
    loop: fresh arrays per level cost as much as the draws (DESIGN.md,
    "Graph synthesis (cold start)")."""
    ab = a + b
    c_norm = c / (1.0 - ab)
    a_norm = a / ab
    n = len(src)
    rng = _stream_at(caller, lo)
    bits = rng.bit_generator
    r = np.empty(n, dtype=np.float64)
    word = np.empty(n, dtype=np.uint32)
    src_bit, dst_bit, if_set = (np.empty(n, dtype=np.bool_) for _ in range(3))
    for bit in range(scale):
        place = np.uint32(1 << bit)
        rng.random(out=r)
        bits.advance(m - n)
        np.greater(r, ab, out=src_bit)
        np.multiply(src_bit, place, out=word)
        src |= word
        rng.random(out=r)
        bits.advance(m - n)
        # The target's threshold is c_norm where the source bit is set and
        # a_norm elsewhere; a masked select (np.where, copyto) branches per
        # element, the xor-select below does not.
        np.greater(r, a_norm, out=dst_bit)
        np.greater(r, c_norm, out=if_set)
        if_set ^= dst_bit
        if_set &= src_bit
        dst_bit ^= if_set
        np.multiply(dst_bit, place, out=word)
        dst |= word


def _zipf_ids(rng: np.random.Generator, n: int, count: int, exponent: float) -> np.ndarray:
    """Sample ``count`` vertex ids from an (approximate) Zipf distribution
    over ``n`` ids via inverse-CDF sampling of a bounded Pareto."""
    u = rng.random(count)
    # Inverse CDF of p(x) ∝ x^-exponent on [1, n].
    if exponent == 1.0:
        ids = np.exp(u * np.log(n))
    else:
        e = 1.0 - exponent
        ids = (u * (n ** e - 1.0) + 1.0) ** (1.0 / e)
    return np.minimum(ids.astype(np.uint64), np.uint64(n - 1))


def powerlaw_edges(num_vertices: int, num_edges: int, exponent: float = 1.3,
                   seed: int = 1) -> tuple[np.ndarray, np.ndarray, int]:
    """Twitter-like social graph: both endpoints Zipf-skewed, shuffled ids."""
    if num_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {num_vertices}")
    rng = np.random.default_rng(seed)
    src = _zipf_ids(rng, num_vertices, num_edges, exponent)
    dst = _zipf_ids(rng, num_vertices, num_edges, exponent)
    perm = rng.permutation(num_vertices).astype(np.uint64)
    return perm[src.astype(np.int64)], perm[dst.astype(np.int64)], num_vertices


def webcrawl_edges(num_vertices: int, edgefactor: int = 43, seed: int = 1,
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """WDC-like web crawl: hub-skewed links plus host-local chains and a
    long pendant path.

    Structure: ``TAIL_FRACTION`` of the vertices form one long directed
    chain hanging off the main component (the thousands-of-sparse-supersteps
    BFS tail the paper observed on WDC); the rest mix next-vertex "host
    navigation" links with Zipf-distributed hub links.
    """
    if num_vertices < 16:
        raise ValueError(f"webcrawl graph needs >= 16 vertices, got {num_vertices}")
    rng = np.random.default_rng(seed)
    n_tail = int(num_vertices * TAIL_FRACTION)
    n_core = num_vertices - n_tail
    m_core = n_core * edgefactor

    n_chain = int(m_core * CHAIN_FRACTION)
    chain_src = rng.integers(0, n_core - 1, n_chain).astype(np.uint64)
    chain_dst = chain_src + np.uint64(1)

    n_hub = m_core - n_chain
    hub_src = rng.integers(0, n_core, n_hub).astype(np.uint64)
    hub_dst = _zipf_ids(rng, n_core, n_hub, 1.4)

    # The pendant path: core vertex 0 → n_core → n_core+1 → … (one edge each),
    # giving BFS exactly n_tail extra supersteps with one active vertex.
    tail_ids = np.arange(n_core, num_vertices, dtype=np.uint64)
    tail_src = np.concatenate([[np.uint64(0)], tail_ids[:-1]]) if n_tail else np.empty(0, np.uint64)
    tail_dst = tail_ids

    src = np.concatenate([chain_src, hub_src, tail_src])
    dst = np.concatenate([chain_dst, hub_dst, tail_dst])
    return src, dst, num_vertices
