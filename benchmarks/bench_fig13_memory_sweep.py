"""Fig 13 — WDC performance as host memory shrinks.

The x-axis is available memory as a percentage of vertex data size (8 bytes
per vertex), from 400% down to 50%:

* Fig 13a: all three algorithms on the 64 GB-equivalent machine (200%).
* Fig 13b (PageRank): FlashGraph degrades sharply and is "stopped manually"
  at 50%; X-Stream holds steady by splitting into streaming partitions.
* Fig 13c (BFS): FlashGraph needs little memory, stays fast down to ~100%;
  X-Stream never finishes at any size.
* Fig 13d (BC): FlashGraph's larger per-vertex state degrades it sooner.

GraFBoost and GraFSoft use a constant, small amount of memory, so their
lines are flat — the paper's central claim.
"""

import math

from repro.graph.datasets import build_graph
from repro.harness import ALGORITHMS, run_cell, results_by, run_matrix
from repro.perf.profiles import SERVER_SSD_ARRAY
from repro.perf.report import emit_results, format_table, normalize_series

SCALE = 2.0 ** -16
DATASET = "wdc"
MEMORY_PERCENTS = [400, 300, 200, 150, 100, 50]
SWEEP_SYSTEMS = ["X-Stream", "FlashGraph", "GraFSoft", "GraFBoost", "GraFBoost2"]


def vertex_data_bytes() -> int:
    return build_graph(DATASET, SCALE).num_vertices * 8


def run_sweep(algorithm: str):
    graph = build_graph(DATASET, SCALE)
    base = vertex_data_bytes()
    rows = []
    family_cache: dict[str, float] = {}
    # Prime the reference run first: the experiment's patience (the paper
    # could not measure X-Stream "in a reasonable amount of time for any
    # configuration") is an order of magnitude over GraFSoft.
    reference = run_cell("GraFSoft", graph, algorithm, scale=SCALE,
                         dataset=DATASET)
    family_cache["GraFSoft"] = reference.time_or_nan
    patience = reference.elapsed_s * 10
    for percent in MEMORY_PERCENTS:
        dram = max(4096, int(base * percent / 100))
        profile = SERVER_SSD_ARRAY.scaled(SCALE).with_dram(dram)
        row = [f"{percent}%"]
        for system in SWEEP_SYSTEMS:
            # GraFBoost-family memory use is independent of the host's DRAM
            # (1-2 GB accelerator-side, 16 GB capped GraFSoft): one run
            # serves every sweep point — their lines are flat by design.
            if system in family_cache:
                value = family_cache[system]
            else:
                cell = run_cell(system, graph, algorithm, scale=SCALE,
                                server_profile=profile,
                                cutoff_s=patience,
                                dataset=DATASET)
                value = cell.time_or_nan
                if system in ("GraFSoft", "GraFBoost", "GraFBoost2"):
                    family_cache[system] = value
            row.append(round(value * 1000, 3) if value == value else float("nan"))
        rows.append(row)
    return rows


def sweep_table(algorithm: str, rows) -> str:
    return format_table(
        ["memory"] + SWEEP_SYSTEMS, rows,
        title=(f"Fig 13: {algorithm} time on WDC vs memory capacity "
               "(simulated ms at scale 2^-16; DNF = stopped)"))


def column(rows, system: str) -> list[float]:
    index = SWEEP_SYSTEMS.index(system) + 1
    return [row[index] for row in rows]


def flat(values: list[float]) -> bool:
    finite = [v for v in values if v == v]
    return max(finite) / min(finite) < 1.6


def test_fig13a_wdc_64gb(benchmark):
    """The 64 GB machine (= 200% of vertex data): GraFBoost family leads."""
    def run():
        graph = build_graph(DATASET, SCALE)
        dram = 2 * vertex_data_bytes()
        profile = SERVER_SSD_ARRAY.scaled(SCALE).with_dram(dram)
        return run_matrix(SWEEP_SYSTEMS, list(ALGORITHMS), DATASET,
                          scale=SCALE, server_profile=profile,
                          patience_factor=30.0)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for algorithm in ALGORITHMS:
        by_system = results_by(results, algorithm)
        baseline = by_system["GraFSoft"].elapsed_s
        normalized = normalize_series(
            [by_system[s].time_or_nan for s in SWEEP_SYSTEMS], baseline)
        rows.append([algorithm] + [round(v, 2) for v in normalized])
        # The hardware-accelerated implementations beat every software
        # system on the 64 GB machine (§V-C.2, Fig 13a).
        assert rows[-1][4] > 1.0 and rows[-1][5] > 1.0
    table = format_table(["algorithm"] + SWEEP_SYSTEMS, rows,
                         title="Fig 13a: normalized performance on WDC, "
                               "64 GB-equivalent machine (vs GraFSoft)")
    emit_results("fig13a_wdc_64gb", table)


def test_fig13b_pagerank_sweep(benchmark):
    rows = benchmark.pedantic(run_sweep, args=("pagerank",), rounds=1, iterations=1)
    emit_results("fig13b_pagerank_sweep", sweep_table("pagerank", rows))
    # GraFBoost/GraFSoft memory use is constant: flat lines.
    assert flat(column(rows, "GraFBoost"))
    assert flat(column(rows, "GraFSoft"))
    # FlashGraph degrades as memory shrinks and fails at 50%.
    flashgraph = column(rows, "FlashGraph")
    assert flashgraph[-1] != flashgraph[-1]  # NaN: stopped/OOM
    finite = [v for v in flashgraph if v == v]
    assert finite[-1] > 2 * finite[0]
    # X-Stream survives every size by repartitioning.
    xstream = column(rows, "X-Stream")
    assert all(v == v for v in xstream)


def test_fig13c_bfs_sweep(benchmark):
    rows = benchmark.pedantic(run_sweep, args=("bfs",), rounds=1, iterations=1)
    emit_results("fig13c_bfs_sweep", sweep_table("bfs", rows))
    # BFS needs little vertex state: FlashGraph completes everywhere down
    # to 100% without blowing up.
    flashgraph = column(rows, "FlashGraph")
    down_to_100 = flashgraph[:MEMORY_PERCENTS.index(100) + 1]
    assert all(v == v for v in down_to_100)
    assert max(down_to_100) / min(down_to_100) < 2.5
    # X-Stream never finishes BFS on WDC in reasonable time (§V-C.2).
    xstream = column(rows, "X-Stream")
    assert all(v != v for v in xstream)
    assert flat(column(rows, "GraFBoost"))


def run_mode_dram_sweep():
    """Engine-mode sweep across the semi-external DRAM-budget threshold.

    The Fig 13 x-axis, applied to the *real* engine's execution modes:
    DRAM from 400% down to 50% of the vertex-data footprint (value bytes +
    touched byte per vertex).  The adaptive policy pins vertex data only
    when the footprint fits half the budget, so the trace crosses over
    from ``semiexternal`` to a streaming mode partway down the sweep —
    and at 50% the static semi-external run shows why: it thrashes.
    """
    import numpy as np

    from repro.engine.modes import semiexternal_footprint
    from repro.harness import run_grafboost_system
    from repro.perf.report import mode_trace_summary

    graph = build_graph(DATASET, SCALE)
    footprint = semiexternal_footprint(graph.num_vertices, np.dtype("<f8"))
    rows = []
    for percent in MEMORY_PERCENTS:
        dram = max(4096, footprint * percent // 100)
        row = [f"{percent}%"]
        by_mode = {}
        for mode in ("sortreduce", "semiexternal", "densescan", "adaptive"):
            cell = run_grafboost_system(
                "GraFSoft", graph, "pagerank", scale=SCALE, dataset=DATASET,
                dram_bytes=dram, mode=mode, pagerank_iterations=2)
            by_mode[mode] = cell
            row.append(round(cell.elapsed_s * 1000, 3))
        row.append(mode_trace_summary(by_mode["adaptive"].mode_trace))
        rows.append((percent, dram, row, by_mode))
    return footprint, rows


def test_fig13e_engine_mode_dram_sweep(benchmark):
    """The adaptive crossover: semi-external above the fit threshold,
    streaming below it, with the 50% point showing the thrash it avoids."""
    from repro.engine.modes import SEMI_FIT_HEADROOM

    footprint, rows = benchmark.pedantic(run_mode_dram_sweep,
                                         rounds=1, iterations=1)
    table_rows = [row for _, _, row, _ in rows]
    emit_results("fig13e_engine_mode_dram_sweep", format_table(
        ["memory", "sortreduce", "semiexternal", "densescan", "adaptive",
         "adaptive trace"],
        table_rows,
        title=("Fig 13e: engine execution modes, PageRank on WDC vs DRAM "
               "budget (simulated ms; memory as % of vertex-data footprint)")))
    saw_semi = saw_streaming = False
    for percent, dram, _, by_mode in rows:
        trace = by_mode["adaptive"].mode_trace
        # The policy's threshold, applied exactly as the engine computes it
        # (the budget never drops below the 4-chunk floor of make_system).
        budget = max(dram, 4 * 64 * 1024)
        fits = footprint <= budget * SEMI_FIT_HEADROOM
        if fits:
            saw_semi = True
            assert set(trace) == {"semiexternal"}, (percent, trace)
            # Free mode switch: adaptive == the static mode it chose.
            assert (by_mode["adaptive"].elapsed_s
                    == by_mode["semiexternal"].elapsed_s), percent
        else:
            saw_streaming = True
            assert "semiexternal" not in trace, (percent, trace)
        statics = {m: by_mode[m].elapsed_s
                   for m in ("sortreduce", "semiexternal", "densescan")}
        assert by_mode["adaptive"].elapsed_s <= min(statics.values()) * 1.10, \
            (percent, statics)
    # The sweep actually crosses the threshold (both regimes observed).
    assert saw_semi and saw_streaming
    # The smallest memory point is where pinning backfires: static
    # semi-external thrashes and the adaptive fallback strictly beats it.
    _, _, _, smallest = rows[-1]
    assert (smallest["adaptive"].elapsed_s
            < smallest["semiexternal"].elapsed_s)


def test_fig13d_bc_sweep(benchmark):
    rows = benchmark.pedantic(run_sweep, args=("bc",), rounds=1, iterations=1)
    emit_results("fig13d_bc_sweep", sweep_table("bc", rows))
    # BC's memory requirement is the largest: FlashGraph degrades/fails
    # at larger memory sizes than it does for BFS (§V-C.2).
    flashgraph = column(rows, "FlashGraph")
    failures = sum(1 for v in flashgraph if v != v)
    assert failures >= 2
    assert flat(column(rows, "GraFBoost"))
    assert flat(column(rows, "GraFSoft"))
