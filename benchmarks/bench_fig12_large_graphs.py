"""Fig 12 — performance on the two largest graphs, 128 GB-class host.

Fig 12a (kron32): FlashGraph DNFs (vertex data does not fit), X-Stream
completes but trails GraFBoost, GraFBoost2 leads.
Fig 12b (WDC): FlashGraph is competitive (fewer vertices), X-Stream's BFS/BC
bars are "too slow to be visible", GraphChi and GraphLab never finish.

Bars are performance normalized to GraFSoft (higher = faster), exactly as
the paper plots them; DNFs show as 0.
"""

from repro.harness import ALGORITHMS, GRAFBOOST_FAMILY, results_by, run_matrix
from repro.perf.report import emit_results, format_table, normalize_series

SYSTEMS = ["X-Stream", "FlashGraph", "GraFBoost", "GraFBoost2", "GraFSoft",
           "GraphChi", "GraphLab"]
SCALE = 2.0 ** -16


def run_figure(dataset: str):
    results = run_matrix(SYSTEMS, list(ALGORITHMS), dataset, scale=SCALE,
                         patience_factor=30.0)
    rows = []
    for algorithm in ALGORITHMS:
        by_system = results_by(results, algorithm)
        baseline = by_system["GraFSoft"].elapsed_s
        normalized = normalize_series(
            [by_system[s].time_or_nan for s in SYSTEMS], baseline)
        rows.append([algorithm] + [round(v, 2) for v in normalized])
    return rows, results


def check_figure(rows, results, flashgraph_dnf: bool):
    header = dict(zip(SYSTEMS, range(len(SYSTEMS))))
    for row in rows:
        values = row[1:]
        # GraFBoost family always completes (the paper's headline claim).
        for system in GRAFBOOST_FAMILY:
            assert values[header[system]] > 0
        # Hardware acceleration beats the software implementation.
        assert values[header["GraFBoost"]] > values[header["GraFSoft"]]
        assert values[header["GraFBoost2"]] >= values[header["GraFBoost"]]
        # GraphLab cannot hold these graphs in memory.
        assert values[header["GraphLab"]] == 0
        if flashgraph_dnf:
            assert values[header["FlashGraph"]] == 0


def test_fig12a_kron32(benchmark):
    rows, results = benchmark.pedantic(run_figure, args=("kron32",),
                                       rounds=1, iterations=1)
    table = format_table(["algorithm"] + SYSTEMS, rows,
                         title="Fig 12a: normalized performance on kron32 "
                               "(vs GraFSoft; 0 = DNF)")
    emit_results("fig12a_kron32", table)
    check_figure(rows, results, flashgraph_dnf=True)
    # X-Stream completes every kron32 algorithm (only 8ish supersteps).
    by_bfs = results_by(results, "bfs")
    assert by_bfs["X-Stream"].completed


def test_fig12b_wdc(benchmark):
    rows, results = benchmark.pedantic(run_figure, args=("wdc",),
                                       rounds=1, iterations=1)
    table = format_table(["algorithm"] + SYSTEMS, rows,
                         title="Fig 12b: normalized performance on WDC "
                               "(vs GraFSoft; 0 = DNF)")
    emit_results("fig12b_wdc", table)
    check_figure(rows, results, flashgraph_dnf=False)
    header = dict(zip(SYSTEMS, range(len(SYSTEMS))))
    # FlashGraph handles WDC (fewer vertices) and is competitive.
    for row in rows:
        assert row[1:][header["FlashGraph"]] > 0
    # X-Stream's sparse-superstep BFS/BC are "too slow to be visible":
    # under a tenth of GraFSoft, orders below GraFBoost.
    for row in rows:
        if row[0] in ("bfs", "bc"):
            assert row[1:][header["X-Stream"]] < 0.5
