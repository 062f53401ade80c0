"""Ablation (Fig 7, §IV-C) — 256-bit dense packing vs word-aligned records.

The hardware packs key-value pairs tightly into 256-bit words ("if the key
size is 34 bits, it will use exactly 34 bits"), which "saves a significant
amount of storage access bandwidth".  This ablation tabulates the saving
across the paper's dataset key widths and runs the same workload with and
without packing on the accelerator to show the end-to-end effect.
"""

from repro.algorithms.pagerank import run_pagerank
from repro.core.packing import PackingSpec
from repro.engine.config import make_system
from repro.graph.datasets import DATASETS, build_graph
from repro.perf.report import emit_results, format_table

SCALE = 2.0 ** -14


def packing_rows():
    rows = []
    for name, dataset in DATASETS.items():
        spec = PackingSpec.for_vertex_count(dataset.paper_nodes, value_bits=32)
        rows.append([
            name,
            spec.key_bits,
            spec.pairs_per_word,
            f"{spec.packed_bytes_per_pair:.2f} B",
            "16 B",
            f"{spec.bandwidth_saving():.0%}",
        ])
    return rows


def run_end_to_end():
    graph = build_graph("kron28", SCALE)
    times = {}
    for packed in (True, False):
        system = make_system(
            "grafboost", SCALE,
            num_vertices_hint=graph.num_vertices if packed else None)
        if not packed:
            # Force the aligned layout: one pair per two 128-bit halves.
            system.device.traffic_scale = 1.0
        flash_graph = system.load_graph(graph)
        engine = system.engine_for(flash_graph, graph.num_vertices)
        result = run_pagerank(engine, graph.num_vertices, 1)
        times[packed] = result.elapsed_s
    return times


def test_packing_saves_bandwidth(benchmark):
    rows = benchmark.pedantic(packing_rows, rounds=1, iterations=1)
    table = format_table(
        ["dataset", "key bits", "pairs/word", "packed B/pair",
         "aligned B/pair", "saving"],
        rows,
        title="Ablation: 256-bit word packing per dataset (Fig 7)")
    emit_results("ablation_packing", table)
    for row in rows:
        assert int(row[5].rstrip("%")) >= 25  # every dataset saves >= 25%


def test_packing_end_to_end(benchmark):
    times = benchmark.pedantic(run_end_to_end, rounds=1, iterations=1)
    assert times[True] < times[False]
    speedup = times[False] / times[True]
    emit_results(
        "ablation_packing_end_to_end",
        f"PageRank on kron28, GraFBoost: packed {times[True] * 1000:.2f} ms vs "
        f"aligned {times[False] * 1000:.2f} ms ({speedup:.2f}x from packing)")
