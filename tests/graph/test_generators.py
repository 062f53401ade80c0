"""Graph synthesizers: determinism, shape properties, degree skew."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    KRON_A,
    KRON_B,
    KRON_C,
    _rmat_words,
    kronecker_edges,
    powerlaw_edges,
    random_weights,
    rmat_edges,
    uniform_edges,
    webcrawl_edges,
)
from repro.algorithms.reference import bfs_levels


def test_kronecker_shape():
    src, dst, n = kronecker_edges(scale=10, edgefactor=16, seed=1)
    assert n == 1024
    assert len(src) == len(dst) == 1024 * 16
    assert src.max() < n and dst.max() < n


def test_kronecker_deterministic():
    a = kronecker_edges(scale=8, edgefactor=8, seed=42)
    b = kronecker_edges(scale=8, edgefactor=8, seed=42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = kronecker_edges(scale=8, edgefactor=8, seed=43)
    assert not np.array_equal(a[0], c[0])


def test_kronecker_degree_skew():
    # Graph500 graphs are heavy-tailed: the hottest vertex should collect
    # far more than the mean degree.
    src, dst, n = kronecker_edges(scale=12, edgefactor=16, seed=1)
    in_degrees = np.bincount(dst.astype(np.int64), minlength=n)
    assert in_degrees.max() > 20 * in_degrees.mean()


def test_kronecker_validation():
    with pytest.raises(ValueError):
        kronecker_edges(scale=0)
    with pytest.raises(ValueError):
        kronecker_edges(scale=31)


def test_rmat_general():
    src, dst, n = rmat_edges(scale=8, edgefactor=4, a=0.45, b=0.25, c=0.15, seed=2)
    assert n == 256 and len(src) == 1024
    with pytest.raises(ValueError):
        rmat_edges(scale=8, edgefactor=4, a=0.5, b=0.3, c=0.3)


def reference_rmat(rng, scale, m, a, b, c):
    """The R-MAT loop as first written (one fresh array per expression): the
    reference for the bytes *and* the draws of the allocation-free kernel."""
    src = np.zeros(m, dtype=np.uint64)
    dst = np.zeros(m, dtype=np.uint64)
    ab = a + b
    c_norm = c / (1.0 - ab)
    a_norm = a / ab
    for bit in range(scale):
        r1 = rng.random(m)
        r2 = rng.random(m)
        src_bit = r1 > ab
        dst_bit = r2 > np.where(src_bit, c_norm, a_norm)
        src |= src_bit.astype(np.uint64) << np.uint64(bit)
        dst |= dst_bit.astype(np.uint64) << np.uint64(bit)
    return src, dst


def assert_same_edges(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == e.dtype == np.uint64 and np.array_equal(g, e)


@pytest.mark.parametrize("scale, edgefactor", [(1, 3), (4, 5), (9, 4), (17, 1)])
@pytest.mark.parametrize("seed", [1, 2, 99])
def test_kronecker_equals_the_reference_loop(scale, edgefactor, seed):
    n = 1 << scale
    rng = np.random.default_rng(seed)
    src, dst = reference_rmat(rng, scale, n * edgefactor, KRON_A, KRON_B, KRON_C)
    perm = rng.permutation(n).astype(np.uint64)
    got = kronecker_edges(scale, edgefactor, seed=seed)
    assert got[2] == n
    assert_same_edges(got[:2], (perm[src.astype(np.int64)], perm[dst.astype(np.int64)]))


@pytest.mark.parametrize("scale, edgefactor", [(1, 3), (4, 5), (9, 4), (17, 1)])
@pytest.mark.parametrize("seed, abc", [(1, (0.45, 0.25, 0.15)),
                                       (2, (0.25, 0.25, 0.25)),
                                       # c_norm < a_norm and c_norm > a_norm:
                                       (3, (0.7, 0.1, 0.05)),
                                       (4, (0.1, 0.3, 0.5))])
def test_rmat_equals_the_reference_loop(scale, edgefactor, seed, abc):
    expected = reference_rmat(np.random.default_rng(seed), scale,
                              edgefactor << scale, *abc)
    got = rmat_edges(scale, edgefactor, *abc, seed=seed)
    assert got[2] == 1 << scale
    assert_same_edges(got[:2], expected)


@pytest.mark.parametrize("scale", [1, 4, 9])
def test_rmat_kernel_leaves_the_generator_where_the_reference_does(scale):
    # Same draws in the same order: whatever is drawn next (the Graph500
    # permutation, in kronecker_edges) sees the same stream.
    m = 7 << scale
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    got = _rmat_words(ours, scale, m, KRON_A, KRON_B, KRON_C)
    expected = reference_rmat(theirs, scale, m, KRON_A, KRON_B, KRON_C)
    assert all(g.dtype == np.uint32 and np.array_equal(g, e)
               for g, e in zip(got, expected, strict=True))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.random(8), theirs.random(8))


def test_rmat_scale_beyond_the_id_word_is_rejected():
    with pytest.raises(ValueError):
        rmat_edges(scale=33, edgefactor=1, a=0.45, b=0.25, c=0.15)


def test_powerlaw_skew_and_range():
    src, dst, n = powerlaw_edges(5000, 100_000, exponent=1.3, seed=3)
    assert n == 5000
    assert src.max() < n and dst.max() < n
    out_degrees = np.bincount(src.astype(np.int64), minlength=n)
    assert out_degrees.max() > 30 * out_degrees.mean()


def test_powerlaw_validation():
    with pytest.raises(ValueError):
        powerlaw_edges(1, 10)


def test_webcrawl_long_tail_supersteps():
    # The WDC-like graph must give BFS a long pendant path: far more BFS
    # levels than a same-size uniform graph (the X-Stream killer, §V-C.1).
    src, dst, n = webcrawl_edges(4000, edgefactor=20, tail_fraction=0.05, seed=4)
    graph = CSRGraph.from_edges(src, dst, n)
    levels = bfs_levels(graph, 0)
    assert levels.max() >= 0.05 * 4000  # at least the pendant-path depth
    # And the bulk of the graph is shallow (web-like).
    reached = levels[levels >= 0]
    assert np.median(reached) < 30


def test_webcrawl_validation():
    with pytest.raises(ValueError):
        webcrawl_edges(8)
    with pytest.raises(ValueError):
        webcrawl_edges(100, tail_fraction=0.7)


def test_uniform_edges():
    src, dst, n = uniform_edges(100, 500, seed=5)
    assert n == 100 and len(src) == 500
    assert src.max() < 100 and dst.max() < 100


def test_random_weights_range():
    weights = random_weights(1000, seed=6, low=0.5, high=2.0)
    assert weights.dtype == np.float32
    assert weights.min() >= 0.5 and weights.max() <= 2.0
    assert np.array_equal(weights, random_weights(1000, seed=6, low=0.5, high=2.0))
