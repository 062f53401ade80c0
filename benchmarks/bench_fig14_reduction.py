"""Fig 14 — fraction of data written to storage after each merge-reduce phase.

For each of the five graphs, run the all-active PageRank update list through
sort-reduce and record, at every phase, how much data was written compared
to sorting without interleaved reduction (= the original intermediate list
each phase would otherwise rewrite).  The paper's headline: on the two
real-world-shaped graphs (twitter, WDC) over 80% / 90% of the data is
eliminated *before the first flash write*, and total flash writes drop by
over 90%.
"""

from repro.algorithms.pagerank import run_pagerank
from repro.engine.config import make_system
from repro.graph.datasets import build_graph
from repro.perf.report import emit_results, format_table

SCALES = {
    "twitter": 2.0 ** -14,
    "kron28": 2.0 ** -14,
    "kron30": 2.0 ** -15,
    "kron32": 2.0 ** -16,
    "wdc": 2.0 ** -16,
}


def measure(dataset: str) -> list[float]:
    graph = build_graph(dataset, SCALES[dataset])
    system = make_system("grafsoft", SCALES[dataset],
                         num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    result = run_pagerank(engine, graph.num_vertices, iterations=1)
    return result.sort_stats[0].written_fractions()


def run_all():
    return {name: measure(name) for name in SCALES}


def test_fig14_reduction_per_phase(benchmark):
    fractions = benchmark.pedantic(run_all, rounds=1, iterations=1)
    max_phases = max(len(v) for v in fractions.values())
    rows = []
    for name, series in fractions.items():
        padded = [round(v, 3) for v in series] + [""] * (max_phases - len(series))
        rows.append([name] + padded)
    table = format_table(
        ["graph"] + [f"phase {i}" for i in range(max_phases)], rows,
        title=("Fig 14: fraction of intermediate data written after each "
               "merge-reduce phase (phase 0 = before the first flash write)"))
    emit_results("fig14_reduction", table)

    for name, series in fractions.items():
        # Interleaving helps at every phase: (near-)monotone non-increasing.
        # A final merge may fold a few leftover level-0 runs directly into
        # the top phase, so allow a one-percentage-point wobble.
        assert all(a >= b - 0.01 for a, b in zip(series, series[1:])), name
        assert all(0 < v <= 1 for v in series), name
    # The real-world-shaped graphs shed over 80% before the first write.
    assert fractions["twitter"][0] < 0.2
    assert fractions["wdc"][0] < 0.2
    # Kronecker graphs reduce less in phase 0 but still converge low.
    assert fractions["kron28"][0] > fractions["twitter"][0]
    for name, series in fractions.items():
        assert series[-1] < 0.5, name

    # §V-C.5: "this reduces the amount of total writes to flash by over
    # 90%" on the real-world graphs (vs rewriting the full list per phase).
    for name in ("twitter", "wdc"):
        series = fractions[name]
        total_written = sum(series)
        without_reduction = float(len(series))
        assert total_written / without_reduction < 0.15, name
