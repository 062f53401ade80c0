"""Synthetic graph generators for the paper's five evaluation datasets.

The paper evaluates on Graph500 Kronecker graphs (kron28/30/32), the twitter
follower graph, and the Web Data Commons hyperlink crawl (Table I).  Real
multi-terabyte inputs are unavailable offline, so each is synthesized with
the structural property that drives its results:

* :func:`kronecker_edges` — the Graph500 reference R-MAT recursion
  (A=0.57, B=0.19, C=0.19, D=0.05), giving the skewed degree distribution
  that makes reduction collapse most updates early.
* :func:`powerlaw_edges` — a Zipf-attachment "twitter"-like social graph:
  few supersteps, extreme hubs, >80% phase-0 reduction (Fig 14).
* :func:`webcrawl_edges` — a "wdc"-like web graph: host-local chain links
  plus hub links, engineered to give BFS a very long sparse tail of
  supersteps — the property that makes X-Stream take "23 days" (§V-C.1).

All generators are deterministic given a seed and return (src, dst) uint64
arrays; duplicate edges and self-loops are kept, as in Graph500 inputs.

RNG audit (repro-lint RL001): every function here constructs its own
``np.random.default_rng(seed)`` from an explicit caller-supplied seed and
draws nothing from global or OS-entropy state (R-MAT edge blocks draw through
copies of that generator's state, never seeded from anything else) — two
calls with the same arguments produce byte-identical edge lists, which is what
lets ``build_graph`` cache built graphs and the invariance goldens stay pinned.
"""

from __future__ import annotations

import os
import threading

import numpy as np

#: Graph500 initiator matrix probabilities.
KRON_A, KRON_B, KRON_C = 0.57, 0.19, 0.19
#: Edges per R-MAT kernel call and fewest per thread (measured: DESIGN.md).
RMAT_BLOCK_EDGES, RMAT_THREAD_EDGES = 1 << 17, 1 << 19
#: Web crawl shape: the share of core edges that are next-vertex "host
#: navigation" links, and the share of vertices on the pendant path.
CHAIN_FRACTION, TAIL_FRACTION = 0.3, 0.02


def kronecker_edges(scale: int, edgefactor: int = 16, seed: int = 1,
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Graph500 Kronecker generator: 2**scale vertices, edgefactor per vertex.

    Returns (src, dst, num_vertices).  Vertex ids are permuted as the
    Graph500 spec requires, so vertex id does not correlate with degree.
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"kronecker scale out of supported range [1, 30]: {scale}")
    n = 1 << scale
    rng = np.random.default_rng(seed)
    src, dst = _rmat_words(rng, scale, n * edgefactor, KRON_A, KRON_B, KRON_C)
    perm = rng.permutation(n).astype(np.uint64)
    return perm[src], perm[dst], n


def _rmat_words(rng: np.random.Generator, scale: int, m: int,
                a: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The R-MAT recursion behind :func:`kronecker_edges`: ``m`` (src, dst)
    pairs of ``scale``-bit ids as uint32 words from ``rng`` (a fresh PCG64),
    in blocks dealt to one thread per CPU this process may run on (the caller
    is one; the rest are joined on return).  Same arrays and ``rng`` state
    for any deal."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, m // RMAT_THREAD_EDGES))
    src, dst = (np.zeros(m, dtype=np.uint32) for _ in range(2))
    errors = []

    def run(part: int) -> None:
        try:
            for lo in range(part * RMAT_BLOCK_EDGES, m, parts * RMAT_BLOCK_EDGES):
                hi = min(lo + RMAT_BLOCK_EDGES, m)
                _rmat_range(rng, scale, m, lo, a, b, c, src[lo:hi], dst[lo:hi])
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
    rng.bit_generator.advance(2 * m * scale)  # where one loop over m leaves it
    return src, dst


def _rmat_range(caller: np.random.Generator, scale: int, m: int, lo: int, a: float,
                b: float, c: float, src: np.ndarray, dst: np.ndarray) -> None:
    """Edges ``lo:lo + len(src)`` of ``m`` into ``src``/``dst``: two uniform
    draws per edge and level (source, then target), edge ``i`` reading draws
    ``2 * bit * m + i`` and ``+ m`` of the caller's stream, so a copy of its
    generator starts ``lo`` draws in and skips the others' after each fill.
    Scratch is allocated before the loop: fresh arrays per level cost as much
    as the draws (DESIGN.md, "Graph synthesis (cold start)")."""
    ab = a + b
    c_norm = c / (1.0 - ab)
    a_norm = a / ab
    n = len(src)
    bits = np.random.PCG64(0)
    bits.state = caller.bit_generator.state
    rng = np.random.Generator(bits.advance(lo))
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
