"""Ablation (§III-C) — lazy active-vertex evaluation (Alg 3) vs eager (Alg 2).

Algorithm 2 materializes the active list A_i on storage and reads it back;
Algorithm 3 folds activity detection into the scan of newV, doing "two
fewer I/O operations per active vertex".  Both are implemented in the
engine; this ablation runs BFS both ways and compares flash traffic and
simulated time, checking the answers agree bit-for-bit.
"""

import numpy as np

from repro.algorithms.bfs import run_bfs
from repro.engine.config import make_system
from repro.graph.datasets import build_graph
from repro.harness import default_root
from repro.perf.report import emit_results, format_table, human_bytes

SCALE = 2.0 ** -14
DATASET = "kron28"


def run_mode(lazy: bool):
    graph = build_graph(DATASET, SCALE)
    system = make_system("grafsoft", SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices, lazy=lazy)
    result = run_bfs(engine, default_root(graph))
    return result, system.clock.bytes_moved("flash"), system.clock.elapsed_s


def run_both():
    lazy_result, lazy_bytes, lazy_time = run_mode(lazy=True)
    eager_result, eager_bytes, eager_time = run_mode(lazy=False)
    assert np.array_equal(lazy_result.final_values(), eager_result.final_values())
    return (lazy_bytes, lazy_time, lazy_result.total_activated,
            eager_bytes, eager_time)


def test_lazy_evaluation_saves_io(benchmark):
    lazy_bytes, lazy_time, activated, eager_bytes, eager_time = \
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = format_table(
        ["variant", "flash traffic", "simulated time", "per active vertex"],
        [["Algorithm 2 (eager A_i)", human_bytes(eager_bytes),
          f"{eager_time * 1000:.2f} ms", f"{eager_bytes / activated:.0f} B"],
         ["Algorithm 3 (lazy)", human_bytes(lazy_bytes),
          f"{lazy_time * 1000:.2f} ms", f"{lazy_bytes / activated:.0f} B"]],
        title=("Ablation: lazy active-vertex evaluation, BFS on "
               f"{DATASET} ({activated:,} activations)"))
    emit_results("ablation_lazy", table)
    # Lazy evaluation strictly reduces I/O (two fewer ops per active vertex)
    # and never produces different answers.
    assert lazy_bytes < eager_bytes
    assert lazy_time <= eager_time
