"""Execution modes: static correctness, adaptive policy, bit-identity.

The contracts under test (see repro.engine.modes):

* every static mode computes the same answers as the default sort-reduce
  path on every algorithm;
* each mode's simulated clock is bit-identical across ``--workers 1/2/4``
  and across crash → remount → resume;
* the adaptive policy is a pure function of checkpointed state, so its
  per-superstep mode trace is deterministic — pinned here as goldens —
  and a run whose trace is constant matches the static mode bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import run_bfs
from repro.algorithms.cc import run_label_propagation
from repro.algorithms.pagerank import run_pagerank, run_pagerank_alg4
from repro.algorithms.reference import pagerank_push, validate_parents
from repro.algorithms.bfs import UNVISITED
from repro.engine.config import make_system
from repro.engine.modes import (
    MODES,
    STATIC_MODES,
    AdaptivePolicy,
    charge_mode_switch,
    semiexternal_footprint,
)
from repro.engine.superstep import SCAN_EDGES_PER_CHUNK
from repro.flash.faults import CrashPlan
from repro.graph.csr import CSRGraph
from repro.graph.formats import FlashCSR
from repro.harness import default_root, load_dataset, run_grafboost_system
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFSOFT

SCALE = 1 / 65536


def _load():
    return load_dataset("kron30", scale=SCALE, seed=7)


def _run(graph, algorithm, mode, workers=1, system_kind="grafsoft"):
    """One engine run; flash bytes snapshotted before final_values() reads
    (reading vertex data charges the clock like any other flash traffic)."""
    system = make_system(system_kind, SCALE, num_vertices_hint=graph.num_vertices,
                         workers=workers, mode=mode)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    if algorithm == "pagerank":
        result = run_pagerank(engine, graph.num_vertices, 2)
    elif algorithm == "bfs":
        result = run_bfs(engine, default_root(graph))
    else:
        result = run_label_propagation(engine)
    flash = system.clock.bytes_moved("flash")
    return {
        "values": result.final_values(),
        "elapsed": result.elapsed_s,
        "flash": flash,
        "trace": result.mode_trace,
        "stats": [s.to_dict() for s in result.sort_stats],
    }


# --------------------------------------------------------------------------
# policy + plumbing units
# --------------------------------------------------------------------------


def test_mode_lists_consistent():
    assert set(STATIC_MODES) | {"adaptive"} == set(MODES)
    assert MODES[0] == "sortreduce"  # the default stays first-class


def test_adaptive_policy_decisions():
    # 1000 vertices x f8: footprint 9000 B.  Budget 100 KB fits it easily.
    fits = AdaptivePolicy(1000, 8000, np.dtype("<f8"), dram_budget=100_000)
    assert fits.choose(1) == "semiexternal"
    # Tiny budget: never semiexternal; dense frontier scans, sparse sorts.
    tight = AdaptivePolicy(1000, 8000, np.dtype("<f8"), dram_budget=1000)
    assert tight.choose(900) == "densescan"    # 90% density
    assert tight.choose(10) == "sortreduce"    # sparse frontier
    # The density threshold is inclusive: exactly 30% active scans.
    assert tight.choose(300) == "densescan"
    assert tight.choose(299) == "sortreduce"


def test_adaptive_policy_is_pure():
    policy = AdaptivePolicy(5000, 40000, np.dtype("<f8"), dram_budget=4096)
    picks = [policy.choose(n) for n in (1, 10, 100, 1000, 5000)]
    assert picks == [policy.choose(n) for n in (1, 10, 100, 1000, 5000)]


def test_mode_switch_charges():
    profile = GRAFSOFT
    clock = SimClock()
    # Staying put, or moving between the streaming modes, is free.
    charge_mode_switch(clock, profile, None, "sortreduce", 1 << 20)
    charge_mode_switch(clock, profile, "sortreduce", "densescan", 1 << 20)
    charge_mode_switch(clock, profile, "densescan", "sortreduce", 1 << 20)
    charge_mode_switch(clock, profile, "semiexternal", "semiexternal", 1 << 20)
    assert clock.elapsed_s == 0.0
    # Entering semiexternal loads the pinned vertex data: time passes.
    charge_mode_switch(clock, profile, "sortreduce", "semiexternal", 1 << 20)
    assert clock.elapsed_s > 0.0


def test_semiexternal_footprint():
    # value bytes + 1 touched byte per vertex
    assert semiexternal_footprint(100, np.dtype("<f8")) == 900
    assert semiexternal_footprint(100, np.dtype("<u8")) == 900


def test_engine_rejects_unknown_mode(tiny_graph):
    from repro.engine.engine import GraFBoostEngine

    system = make_system("grafsoft", SCALE, num_vertices_hint=tiny_graph.num_vertices)
    flash_graph = system.load_graph(tiny_graph)
    with pytest.raises(ValueError, match="mode"):
        GraFBoostEngine(flash_graph, system.store, system.backend,
                        tiny_graph.num_vertices, chunk_bytes=system.chunk_bytes,
                        memory=system.memory, mode="turbo")


# --------------------------------------------------------------------------
# static-mode correctness on small graphs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("mode", STATIC_MODES + ("adaptive",))
def test_all_modes_match_pagerank_reference(random_graph, mode):
    system = make_system("grafsoft", 2.0 ** -14,
                        num_vertices_hint=random_graph.num_vertices, mode=mode)
    flash_graph = system.load_graph(random_graph)
    engine = system.engine_for(flash_graph, random_graph.num_vertices)
    result = run_pagerank(engine, random_graph.num_vertices, 2)
    assert np.allclose(result.final_values(), pagerank_push(random_graph, 2))
    assert len(result.mode_trace) == result.num_supersteps
    assert all(m in STATIC_MODES for m in result.mode_trace)


@pytest.mark.parametrize("mode", STATIC_MODES + ("adaptive",))
def test_all_modes_match_bfs_reference(random_graph, mode):
    root = int(np.flatnonzero(random_graph.out_degrees() > 0)[0])
    system = make_system("grafsoft", 2.0 ** -14,
                        num_vertices_hint=random_graph.num_vertices, mode=mode)
    flash_graph = system.load_graph(random_graph)
    engine = system.engine_for(flash_graph, random_graph.num_vertices)
    result = run_bfs(engine, root)
    assert validate_parents(random_graph, root, result.final_values(), UNVISITED)


# --------------------------------------------------------------------------
# every strategy on adversarial shapes
# --------------------------------------------------------------------------


def _edges(pairs, n):
    src, dst = (np.array(col, dtype=np.uint64) for col in zip(*pairs))
    return CSRGraph.from_edges(src, dst, n)


def _clique(lo, hi):
    return [(a, b) for a in range(lo, hi) for b in range(lo, hi) if a != b]


_CHAIN = [(i, i + 1) for i in range(31)]
SHAPES = {
    "chain": _edges(_CHAIN, 32),
    "out-star": _edges([(0, i) for i in range(1, 48)], 48),
    "in-star": _edges([(i, 0) for i in range(1, 48)] + [(0, 1)], 48),
    "cycle": _edges(_CHAIN + [(31, 0)], 32),
    "barbell": _edges(_clique(0, 6) + _clique(6, 12) + [(5, 6), (6, 5)], 12),
    "self-loops": _edges(_CHAIN + [(i, i) for i in range(32)], 32),
    "parallel-edges": _edges(_CHAIN * 3, 32),
    "isolated-vertex": _edges(_CHAIN, 64),          # 32..63 touch no edge
    "no-out-edges": _edges([(0, 1), (0, 2), (1, 2)], 3),
}

#: (mode, lazy): Algorithm 3, Algorithm 2, and the other execution modes.
STRATEGIES = {
    "lazy": ("sortreduce", True),
    "eager": ("sortreduce", False),
    "semiexternal": ("semiexternal", True),
    "densescan": ("densescan", True),
    "adaptive": ("adaptive", True),
}


def _shape_engine(graph, strategy):
    mode, lazy = STRATEGIES[strategy]
    system = make_system("grafsoft", 2.0 ** -14,
                         num_vertices_hint=graph.num_vertices, mode=mode)
    flash_graph = system.load_graph(graph)
    return system, system.engine_for(flash_graph, graph.num_vertices, lazy=lazy)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_strategy_agrees_on_adversarial_shapes(shape):
    graph = SHAPES[shape]
    runs = {
        "bfs": lambda engine: run_bfs(engine, 0),
        "label-propagation": run_label_propagation,
        "pagerank": lambda engine: run_pagerank(engine, graph.num_vertices, 3),
    }
    for algorithm, run in runs.items():
        results = {name: run(_shape_engine(graph, name)[1]) for name in STRATEGIES}
        base = results["lazy"]
        if algorithm == "bfs":
            assert validate_parents(graph, 0, base.final_values(), UNVISITED)
        for name, result in results.items():
            where = (shape, algorithm, name)
            assert ([s.activated for s in result.supersteps]
                    == [s.activated for s in base.supersteps]), where
            if algorithm == "pagerank":
                assert np.allclose(result.final_values(), base.final_values(),
                                   rtol=0, atol=1e-12), where
            else:
                assert np.array_equal(result.final_values(),
                                      base.final_values()), where


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_alg4_exact_under_every_strategy(shape, strategy):
    # Every mode honours a program-generated active list (the list only
    # replaces the *source* of what is pushed), so no mode refuses
    # Algorithm 4 and the adaptive policy may pick any of them.
    graph = SHAPES[shape]
    system, engine = _shape_engine(graph, strategy)
    in_graph = FlashCSR.write(system.store, "in", graph.reversed())
    result = run_pagerank_alg4(engine, in_graph, iterations=3, tol=0.0)
    assert np.allclose(result.final_values(), pagerank_push(graph, 3),
                       rtol=0, atol=1e-12)
    assert set(result.mode_trace) <= set(STATIC_MODES)


# --------------------------------------------------------------------------
# adaptive mode-trace goldens (pinned; deterministic across workers)
# --------------------------------------------------------------------------

ADAPTIVE_TRACES = {
    # Dense two-iteration PageRank: vertex data outgrows the DRAM headroom
    # at this scale, and every superstep is an all-active frontier — the
    # policy scans the adjacency both times.
    "pagerank": ["densescan", "densescan"],
    # BFS: single-seed start and the narrow tail sort-reduce; the two
    # middle waves cross the density threshold and scan.
    "bfs": ["sortreduce", "sortreduce", "sortreduce", "densescan",
            "densescan", "sortreduce", "sortreduce"],
    # Label propagation starts all-active (scan) and converges to a
    # sparse correcting frontier (sort-reduce).
    "cc": ["densescan", "densescan", "densescan", "densescan", "densescan",
           "sortreduce", "sortreduce"],
}


@pytest.mark.parametrize("algorithm", sorted(ADAPTIVE_TRACES))
def test_adaptive_mode_trace_golden(algorithm):
    graph = _load()
    base = _run(graph, algorithm, "adaptive")
    assert base["trace"] == ADAPTIVE_TRACES[algorithm]
    for workers in (2, 4):
        again = _run(graph, algorithm, "adaptive", workers=workers)
        assert again["trace"] == base["trace"], workers
        assert again["elapsed"] == base["elapsed"], workers
        assert again["flash"] == base["flash"], workers
        assert np.array_equal(again["values"], base["values"]), workers


# --------------------------------------------------------------------------
# static-mode bit-identity across worker counts
# --------------------------------------------------------------------------


@pytest.mark.parametrize("mode", STATIC_MODES)
@pytest.mark.parametrize("algorithm", ["pagerank", "bfs"])
def test_static_mode_worker_sweep_bit_identical(mode, algorithm):
    graph = _load()
    base = _run(graph, algorithm, mode)
    assert base["trace"] == [mode] * len(base["trace"])
    for workers in (2, 4):
        again = _run(graph, algorithm, mode, workers=workers)
        assert again["elapsed"] == base["elapsed"], (mode, workers)
        assert again["flash"] == base["flash"], (mode, workers)
        assert again["stats"] == base["stats"], (mode, workers)
        assert np.array_equal(again["values"], base["values"]), (mode, workers)


def test_semiexternal_cuts_flash_traffic_on_pagerank():
    # The point of the semi-external mode: vertex values live in DRAM, so
    # no intermediate sorted runs hit flash on an all-active workload.
    graph = _load()
    sortreduce = _run(graph, "pagerank", "sortreduce")
    semi = _run(graph, "pagerank", "semiexternal")
    assert semi["flash"] < sortreduce["flash"]
    assert np.allclose(semi["values"], sortreduce["values"])


def test_semiexternal_clock_unchanged_on_a_frontier_of_several_push_batches():
    # PageRank's first superstep pushes every edge: 524 288 of them here,
    # more than one push batch.  The DramAggregator's charges depend on the
    # distinct keys of one push, so the batches must reach it as one update.
    # Pinned numbers: read when a push built all its update pairs at once.
    scale = 2.0 ** -15
    graph = load_dataset("kron30", scale=scale, seed=7)
    system = make_system("grafsoft", scale, num_vertices_hint=graph.num_vertices,
                         mode="semiexternal")
    engine = system.engine_for(system.load_graph(graph), graph.num_vertices)
    result = run_pagerank(engine, graph.num_vertices, 2)
    assert result.supersteps[0].traversed_edges == graph.num_edges
    assert graph.num_edges > SCAN_EDGES_PER_CHUNK
    assert result.elapsed_s == 0.03550763786103986
    usage = {name: (u.busy_s, u.bytes_moved, u.ops)
             for name, u in system.clock.usage.items()}
    assert usage == {"flash": (0.003976376953124998, 18653184, 2298),
                     "cpu": (0.6056864725748697, 16699472, 7)}


# --------------------------------------------------------------------------
# crash → remount → resume bit-identity, per mode
# --------------------------------------------------------------------------


@pytest.mark.parametrize("mode", STATIC_MODES + ("adaptive",))
def test_crash_resume_bit_identical_per_mode(mode):
    graph = _load()
    # Dry run with a zero-crash durable plan counts flash ops so the real
    # crash lands mid-engine-run, past the graph load.
    system = make_system("grafsoft", SCALE, num_vertices_hint=graph.num_vertices,
                         crashes=CrashPlan(crashes=0), mode=mode)
    flash_graph = system.load_graph(graph)
    load_ops = system.device.crashes.op_index
    engine = system.engine_for(flash_graph, graph.num_vertices)
    clean = run_pagerank(engine, graph.num_vertices, 2)
    total_ops = system.device.crashes.op_index
    plan_ops = (load_ops + (total_ops - load_ops) // 2,)

    def crashed(workers):
        return run_grafboost_system(
            "GraFSoft", graph, "pagerank", scale=SCALE,
            crashes=CrashPlan(at_ops=plan_ops, torn_write_p=0.5),
            checkpoint_every=1, pagerank_iterations=2,
            workers=workers, mode=mode)

    serial = crashed(1)
    parallel = crashed(4)
    assert serial.completed and parallel.completed
    assert serial.power_losses == parallel.power_losses == 1
    assert serial.mode_trace == clean.mode_trace == parallel.mode_trace
    assert np.array_equal(serial.final_values, clean.final_values())
    assert np.array_equal(parallel.final_values, serial.final_values)
    assert parallel.elapsed_s == serial.elapsed_s
    assert parallel.flash_bytes == serial.flash_bytes


# --------------------------------------------------------------------------
# adaptive == chosen-static-mode equivalence
# --------------------------------------------------------------------------


def test_adaptive_matches_static_mode_bit_for_bit():
    # Adaptive PageRank picks densescan every superstep (golden above), and
    # switching into a streaming mode is free — so the adaptive run must be
    # indistinguishable from the static mode it chose.
    graph = _load()
    adaptive = _run(graph, "pagerank", "adaptive")
    static = _run(graph, "pagerank", "densescan")
    assert adaptive["trace"] == static["trace"]
    assert adaptive["elapsed"] == static["elapsed"]
    assert adaptive["flash"] == static["flash"]
    assert np.array_equal(adaptive["values"], static["values"])


# --------------------------------------------------------------------------
# adaptive against the static modes, one regime per workload
# --------------------------------------------------------------------------

#: Sizes are fixed: the regimes are scale-dependent (shrink the dense
#: workload and its vertex data fits in DRAM).
MODE_REGIMES = {
    # All-active PageRank whose vertex data overflows a 64 KB DRAM budget:
    # semi-external thrashes (random page faults), streaming modes win.
    "dense_frontier": ("kron30", "pagerank", 1 / 16384,
                       dict(pagerank_iterations=2, dram_bytes=64 * 1024)),
    # High-diameter webcrawl BFS: hundreds of supersteps with tiny
    # frontiers.  A full scan per superstep (densescan) is the clear loser;
    # pinned vertex data with selective gathers wins.
    "sparse_frontier": ("wdc", "bfs", 1 / (1 << 18),
                        dict(dram_bytes=4 * 1024 * 1024)),
    # Dense PageRank with DRAM sized to hold the vertex data: semi-external
    # sheds all intermediate run traffic and wins.
    "vertex_data_fits": ("kron30", "pagerank", 1 / 16384,
                         dict(pagerank_iterations=2, dram_bytes=4 * 1024 * 1024)),
}


@pytest.mark.parametrize("regime", sorted(MODE_REGIMES))
def test_adaptive_near_best_static_mode(regime):
    # The adaptive contract: within 10% of the best static mode on every
    # regime, and strictly faster than the worst.
    dataset, algorithm, scale, kwargs = MODE_REGIMES[regime]
    graph = load_dataset(dataset, scale=scale, seed=7)
    elapsed = {mode: run_grafboost_system("GraFSoft", graph, algorithm,
                                          scale=scale, dataset=dataset,
                                          mode=mode, **kwargs).elapsed_s
               for mode in MODES}
    adaptive = elapsed.pop("adaptive")
    assert adaptive <= min(elapsed.values()) * 1.10, (regime, adaptive, elapsed)
    assert adaptive < max(elapsed.values()), (regime, adaptive, elapsed)


def test_metrics_record_mode(random_graph):
    system = make_system("grafsoft", 2.0 ** -14,
                        num_vertices_hint=random_graph.num_vertices,
                        mode="semiexternal")
    flash_graph = system.load_graph(random_graph)
    engine = system.engine_for(flash_graph, random_graph.num_vertices)
    result = run_pagerank(engine, random_graph.num_vertices, 1)
    assert [s.mode for s in result.supersteps] == ["semiexternal"]
