"""Graph synthesizers: determinism, shape properties, degree skew."""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_generator_goldens import digest

from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    KRON_A,
    KRON_B,
    KRON_C,
    TAIL_FRACTION,
    _rmat_range,
    _stream_at,
    kronecker_csr,
    powerlaw_edges,
    webcrawl_edges,
)
from repro.algorithms.reference import bfs_levels
from tests.support import (
    kronecker_edges,
    random_weights,
    rmat_edges,
    rmat_words,
    uniform_edges,
)


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
    for build in (kronecker_edges, kronecker_csr):
        with pytest.raises(ValueError):
            build(scale=0)
        with pytest.raises(ValueError):
            build(scale=31)


def test_rmat_general():
    src, dst, n = rmat_edges(scale=8, edgefactor=4, a=0.45, b=0.25, c=0.15, seed=2)
    assert n == 256 and len(src) == 1024
    with pytest.raises(ValueError):
        rmat_edges(scale=8, edgefactor=4, a=0.5, b=0.3, c=0.3, seed=1)


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


def assert_same_graph(got: CSRGraph, expected: CSRGraph):
    assert got.num_vertices == expected.num_vertices and got.weights is None
    assert_same_edges((got.offsets, got.targets), (expected.offsets, expected.targets))


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
    assert_same_graph(kronecker_csr(scale, edgefactor, seed=seed),
                      CSRGraph.from_edges(*got))


@pytest.mark.parametrize("scale, edgefactor", [(1, 3), (9, 4), (17, 1)])
@pytest.mark.parametrize("seed", [1, 99])
def test_permutation_from_the_advanced_copy_is_the_serial_loops(scale, edgefactor, seed):
    # kronecker_csr draws the Graph500 permutation before the R-MAT words,
    # from a copy of the generator advanced past all 2·m·scale of them.
    n, m = 1 << scale, edgefactor << scale
    serial = np.random.default_rng(seed)
    reference_rmat(serial, scale, m, KRON_A, KRON_B, KRON_C)
    caller = np.random.default_rng(seed)
    before = caller.bit_generator.state
    assert np.array_equal(_stream_at(caller, 2 * m * scale).permutation(n),
                          serial.permutation(n))
    assert caller.bit_generator.state == before


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
    got = rmat_words(ours, scale, m, KRON_A, KRON_B, KRON_C)
    expected = reference_rmat(theirs, scale, m, KRON_A, KRON_B, KRON_C)
    assert all(g.dtype == np.uint32 and np.array_equal(g, e)
               for g, e in zip(got, expected, strict=True))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.random(8), theirs.random(8))


#: Every (a, b, c) the reference comparisons above use.
ABC_SETS = [(KRON_A, KRON_B, KRON_C), (0.45, 0.25, 0.15), (0.25, 0.25, 0.25),
            (0.7, 0.1, 0.05), (0.1, 0.3, 0.5)]


@st.composite
def rmat_cuts(draw):
    """(scale, m, bounds): 1-8 contiguous ranges covering ``m`` edges, cut
    anywhere — uneven, and as short as one edge."""
    scale = draw(st.sampled_from([1, 4, 9, 17]))
    m = draw(st.integers(1, 5)) << scale if scale < 17 else 1 << scale
    cuts = draw(st.lists(st.integers(1, m - 1), max_size=7, unique=True))
    return scale, m, [0, *sorted(cuts), m]


@settings(deadline=None, max_examples=60)
@given(rmat_cuts(), st.sampled_from([1, 2, 99]), st.sampled_from(ABC_SETS))
@example((4, 48, [0, 1, 47, 48]), 3, ABC_SETS[0])       # one-edge ranges at both ends
@example((9, 2048, [0, 1, 2, 3, 4, 5, 6, 7, 2048]), 4, ABC_SETS[3])
def test_rmat_ranges_give_the_same_bytes_for_any_cut(cut, seed, abc):
    # The bounds go to the per-range kernel directly, every range on a thread
    # of its own and started last-first, so neither the host's CPU count nor
    # the order the ranges run in is part of the result.
    scale, m, bounds = cut
    expected = reference_rmat(np.random.default_rng(seed), scale, m, *abc)
    caller = np.random.default_rng(seed)
    before = caller.bit_generator.state
    src, dst = np.zeros(m, dtype=np.uint32), np.zeros(m, dtype=np.uint32)
    threads = [threading.Thread(target=_rmat_range, args=(
                   caller, scale, m, lo, *abc, src[lo:hi], dst[lo:hi]))
               for lo, hi in zip(bounds, bounds[1:])]
    for thread in reversed(threads):
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert np.array_equal(src, expected[0]) and np.array_equal(dst, expected[1])
    # A range draws through a copy: the caller's generator is only read.
    assert caller.bit_generator.state == before


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n, block)``: the block dealer sees ``n`` CPUs, starts a thread
    for as little as one edge and deals blocks of ``block`` edges, so a small
    ``m`` takes the threaded path on any host.  ``block=None`` leaves the
    shipped block size and thread threshold in place.  Threads switch every
    microsecond while the test runs: up to eight of them on however few
    cores, interleaved as finely as the interpreter allows."""
    def patch(n, block=None):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        if block is not None:
            monkeypatch.setattr(generators, "RMAT_THREAD_EDGES", 1)
            monkeypatch.setattr(generators, "RMAT_BLOCK_EDGES", block)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield patch
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def range_threads(monkeypatch):
    """The thread each per-range kernel call ran on."""
    seen = []

    def recording(*args):
        seen.append(threading.current_thread())
        _rmat_range(*args)
    monkeypatch.setattr(generators, "_rmat_range", recording)
    return seen


@pytest.mark.parametrize("parts", range(1, 9))
@pytest.mark.parametrize("scale, seed, abc", [
    (1, 1, ABC_SETS[0]), (4, 2, ABC_SETS[1]), (9, 99, ABC_SETS[3]), (17, 3, ABC_SETS[4])])
def test_rmat_words_on_any_cpu_count_equal_the_reference(
        cpus, range_threads, parts, scale, seed, abc):
    m = 11 << scale if scale < 17 else 1 << scale
    block = max(1, m // 19)         # 20 blocks, the last one short
    cpus(parts, block)
    alive = threading.active_count()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = rmat_words(ours, scale, m, *abc)
    assert threading.active_count() == alive
    # The blocks were dealt to the caller and to parts - 1 threads of its own.
    assert len(range_threads) == -(-m // block)
    assert threading.current_thread() in range_threads
    assert len(set(range_threads)) == parts
    expected = reference_rmat(theirs, scale, m, *abc)
    assert all(g.dtype == np.uint32 and np.array_equal(g, e)
               for g, e in zip(got, expected, strict=True))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.random(8), theirs.random(8))


@pytest.mark.parametrize("parts", range(1, 9))
@pytest.mark.parametrize("scale, edgefactor", [(1, 3), (4, 5), (9, 4), (17, 1)])
def test_generators_on_any_cpu_count_equal_the_reference(cpus, parts, scale, edgefactor):
    n, m = 1 << scale, edgefactor << scale
    cpus(parts, block=max(1, m // 11))
    rng = np.random.default_rng(7)
    src, dst = reference_rmat(rng, scale, m, KRON_A, KRON_B, KRON_C)
    perm = rng.permutation(n).astype(np.uint64)     # drawn after the words
    expected = (perm[src.astype(np.int64)], perm[dst.astype(np.int64)])
    assert_same_edges(kronecker_edges(scale, edgefactor, seed=7)[:2], expected)
    assert_same_graph(kronecker_csr(scale, edgefactor, seed=7),
                      CSRGraph.from_edges(*expected, n))
    assert_same_edges(rmat_edges(scale, edgefactor, *ABC_SETS[3], seed=7)[:2],
                      reference_rmat(np.random.default_rng(7), scale, m, *ABC_SETS[3]))


def test_thread_count_follows_the_cpus_and_the_edge_count(cpus, range_threads):
    # The shipped constants: blocks of 2**17 edges, a thread per 2**19.
    for n, m, threads in [(1, 1 << 21, 1), (4, (1 << 19) - 1, 1), (4, 1 << 19, 1),
                          (4, 1 << 20, 2), (4, 3 << 19, 3), (2, 1 << 21, 2)]:
        cpus(n)
        del range_threads[:]
        src, dst = rmat_words(np.random.default_rng(1), 1, m, KRON_A, KRON_B, KRON_C)
        assert len(src) == len(dst) == m
        assert len(range_threads) == -(-m // (1 << 17))
        assert len(set(range_threads)) == threads
    assert [len(a) for a in rmat_words(np.random.default_rng(1), 1, 0, 0.5, 0.2, 0.2)] == [0, 0]


#: digest(offsets, targets) of kron30 @ 2^-12, seed 1.
KRON30_CSR_DIGEST = "9f8f83b3b75a506df775ca0de161b815d8070da61baf10f904e5f4b3c0688b0e"


@pytest.mark.parametrize("n", [1, 3])
def test_kron30_at_benchmark_size_has_the_serial_loops_bytes(cpus, n):
    # kron30 @ 2^-12 (pr_dense): 4 194 304 edges in 32 blocks, up to eight
    # threads allowed, the CPUs decide; three do not divide 32.  The edge
    # digest was recorded from the one-loop kernel on the commit before the
    # split, the CSR digest from the edge-list build (`from_edges` over
    # these edges) on the commit before the CSR was built in the blocks.
    cpus(n)
    assert digest(*kronecker_edges(18, 16, seed=1)[:2]) == (
        "ac8e91650d10581c3ed7680749c2f23b6f547f883b23abaa14754cd5de61705c")
    graph = kronecker_csr(18, 16, seed=1)
    assert digest(graph.offsets, graph.targets) == KRON30_CSR_DIGEST


def test_one_thread_and_two_build_the_same_bytes(cpus, range_threads):
    # kron30 @ 2^-14 at the shipped constants: 2^20 edges, a thread per 2^19.
    built = []
    for n in (1, 2):
        cpus(n)
        del range_threads[:]
        built.append(kronecker_csr(16, 16, seed=3))
        assert len(set(range_threads)) == n
    assert_same_graph(*built)


def test_a_failing_block_raises_in_the_caller_and_leaves_no_thread(cpus, monkeypatch):
    fails_at = None

    def failing(caller, scale, m, lo, *rest):
        if lo == fails_at:
            raise FloatingPointError(f"block at {lo}")
        _rmat_range(caller, scale, m, lo, *rest)
    monkeypatch.setattr(generators, "_rmat_range", failing)
    cpus(4, block=4)
    alive = threading.active_count()
    # Block 8 of 16 is the caller's third, block 9 the second thread's.
    for fails_at in (32, 36):
        for call in (lambda: rmat_words(np.random.default_rng(1), 4, 64,
                                         KRON_A, KRON_B, KRON_C),
                     lambda: kronecker_edges(4, 4, seed=1),
                     lambda: kronecker_csr(4, 4, seed=1),
                     lambda: rmat_edges(4, 4, 0.45, 0.25, 0.15, seed=1)):
            with pytest.raises(FloatingPointError, match=f"block at {fails_at}"):
                call()
            assert threading.active_count() == alive


def test_rmat_scale_beyond_the_id_word_is_rejected():
    with pytest.raises(ValueError):
        rmat_edges(scale=33, edgefactor=1, a=0.45, b=0.25, c=0.15, seed=1)


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
    src, dst, n = webcrawl_edges(4000, edgefactor=20, seed=4)
    graph = CSRGraph.from_edges(src, dst, n)
    levels = bfs_levels(graph, 0)
    assert levels.max() >= TAIL_FRACTION * 4000  # at least the pendant-path depth
    # And the bulk of the graph is shallow (web-like).
    reached = levels[levels >= 0]
    assert np.median(reached) < 30


def test_webcrawl_validation():
    with pytest.raises(ValueError):
        webcrawl_edges(8)


def test_uniform_edges():
    src, dst, n = uniform_edges(100, 500, seed=5)
    assert n == 100 and len(src) == 500
    assert src.max() < 100 and dst.max() < 100


def test_random_weights_range():
    weights = random_weights(1000, seed=6)
    assert weights.dtype == np.float32
    assert weights.min() >= 0.1 and weights.max() <= 10.0
    assert np.array_equal(weights, random_weights(1000, seed=6))
