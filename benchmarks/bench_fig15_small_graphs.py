"""Fig 15 — execution time on small graphs (twitter, kron28, kron30).

The small-graph evaluation (§V-D) runs on the same server with *one* SSD
(GraFBoost uses one flash card), and adds single-node GraphLab and a 5-node
GraphLab cluster (GraphLab5).  The paper's findings to reproduce:

* GraphLab handles nothing bigger than twitter; GraphLab5 nothing bigger
  than kron28.
* GraphLab5 wins PageRank on kron28 but loses BFS on twitter even to
  single-node GraphLab (network-bound synchronization).
* "For small graphs, the relative performance of GraFBoost systems [is] not
  as good as with bigger graphs, but demonstrates comparable performance":
  semi-external caching shines, and sort-reduce becomes "an unnecessary
  overhead".
"""

import dataclasses
import math

from repro.graph.datasets import build_graph
from repro.harness import GRAFBOOST_ONE_CARD, run_cell
from repro.perf.profiles import SINGLE_SSD_SERVER
from repro.perf.report import emit_results, format_table

SCALE = 2.0 ** -14
DATASETS = ["twitter", "kron28", "kron30"]
SYSTEMS = ["X-Stream", "FlashGraph", "GraphChi", "GraphLab", "GraphLab5",
           "GraFSoft", "GraFBoost"]


def run_figure(algorithm: str):
    rows = []
    cells = {}
    server = SINGLE_SSD_SERVER.scaled(SCALE)
    for dataset in DATASETS:
        graph = build_graph(dataset, SCALE)
        reference = run_cell("GraFSoft", graph, algorithm, scale=SCALE,
                             server_profile=server, dataset=dataset)
        patience = reference.elapsed_s * 30
        row = [dataset]
        for system in SYSTEMS:
            if system == "GraFSoft":
                cell = reference
            else:
                cell = run_cell(system, graph, algorithm, scale=SCALE,
                                server_profile=server, cutoff_s=patience,
                                dataset=dataset,
                                grafboost_profile=GRAFBOOST_ONE_CARD)
            cells[(dataset, system)] = cell
            value = cell.time_or_nan
            row.append(round(value * 1000, 3) if value == value else float("nan"))
        rows.append(row)
    return rows, cells


def figure_table(algorithm: str, rows) -> str:
    return format_table(
        ["graph"] + SYSTEMS, rows,
        title=(f"Fig 15: {algorithm} execution time on small graphs "
               "(simulated ms at scale 2^-14, one SSD; DNF = out of memory)"))


def value(rows, dataset: str, system: str) -> float:
    row = next(r for r in rows if r[0] == dataset)
    return row[SYSTEMS.index(system) + 1]


def check_memory_boundaries(rows):
    # "GraphLab cannot handle graphs larger than the twitter graph, and
    # GraphLab5 cannot handle graphs larger than Kron28."
    assert value(rows, "twitter", "GraphLab") == value(rows, "twitter", "GraphLab")
    assert value(rows, "kron28", "GraphLab") != value(rows, "kron28", "GraphLab")
    assert value(rows, "kron28", "GraphLab5") == value(rows, "kron28", "GraphLab5")
    assert value(rows, "kron30", "GraphLab5") != value(rows, "kron30", "GraphLab5")
    # The GraFBoost family completes everything.
    for dataset in DATASETS:
        for system in ("GraFSoft", "GraFBoost"):
            v = value(rows, dataset, system)
            assert v == v and v > 0


def test_fig15a_pagerank(benchmark):
    rows, cells = benchmark.pedantic(run_figure, args=("pagerank",),
                                     rounds=1, iterations=1)
    emit_results("fig15a_pagerank_small", figure_table("pagerank", rows))
    check_memory_boundaries(rows)
    # GraphLab5 is the fastest PageRank on kron28 (§V-D).
    kron28 = {s: value(rows, "kron28", s) for s in SYSTEMS}
    finite = {s: v for s, v in kron28.items() if v == v}
    assert min(finite, key=finite.get) == "GraphLab5"


def test_fig15b_bfs(benchmark):
    rows, cells = benchmark.pedantic(run_figure, args=("bfs",),
                                     rounds=1, iterations=1)
    emit_results("fig15b_bfs_small", figure_table("bfs", rows))
    check_memory_boundaries(rows)
    # GraphLab5 BFS on twitter is slower than single-node GraphLab: the
    # network becomes the bottleneck with irregular transfers (§V-D).
    assert value(rows, "twitter", "GraphLab5") > value(rows, "twitter", "GraphLab")


def test_fig15c_bc(benchmark):
    rows, cells = benchmark.pedantic(run_figure, args=("bc",),
                                     rounds=1, iterations=1)
    emit_results("fig15c_bc_small", figure_table("bc", rows))
    check_memory_boundaries(rows)
    # Hardware acceleration still helps on small graphs.
    for dataset in DATASETS:
        assert value(rows, dataset, "GraFBoost") < value(rows, dataset, "GraFSoft")


def test_fig15_small_graphs_are_not_grafboost_territory(benchmark):
    """§V-D: "For small graphs, the relative performance of GraFBoost
    systems are not as good as with bigger graphs, but demonstrates
    comparable performance to the fastest systems" — on twitter, the
    in-memory and semi-external systems close to (or past) GraFBoost."""
    def run():
        graph = build_graph("twitter", SCALE)
        server = SINGLE_SSD_SERVER.scaled(SCALE)
        flash = run_cell("FlashGraph", graph, "pagerank", scale=SCALE,
                         server_profile=server, dataset="twitter")
        inmem = run_cell("GraphLab", graph, "pagerank", scale=SCALE,
                         server_profile=server, dataset="twitter")
        boost = run_cell("GraFBoost", graph, "pagerank", scale=SCALE,
                         server_profile=server, dataset="twitter",
                         grafboost_profile=GRAFBOOST_ONE_CARD)
        return flash, inmem, boost

    flash, inmem, boost = benchmark.pedantic(run, rounds=1, iterations=1)
    assert flash.completed and inmem.completed and boost.completed
    # Comparable: within a small factor either way, unlike the multi-x
    # gaps of the large-graph figures.
    assert flash.elapsed_s < 4 * boost.elapsed_s
    assert inmem.elapsed_s < 4 * boost.elapsed_s
