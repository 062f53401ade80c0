"""The simulator's host work, counted: Python calls per run, measured.

Wall-clock readings on a shared machine spread by several per cent, so a
host-time change below that spread cannot be told from noise.  The number of
Python-level calls ``cProfile`` sees is exact instead: at a fixed seed one
run makes the same calls every time.  It says nothing about the time numpy
kernels take (a sort is one call), only about per-call bookkeeping, which is
what a per-superstep workload such as BFS on a web crawl spends its time on.

Each test runs its workload once to warm up (first calls fill caches and
import lazily), then profiles a second run and bounds its calls at the
reading + 10 %.  Bounds only tighten.  ``pytest -s`` prints the readings.
FlashSan adds its shadow checks to every device operation, so under
``REPRO_SANITIZE=1`` the readings are printed but not bounded.
"""

import cProfile
import math
import os
import pstats

import numpy as np
import pytest

from repro.engine.config import make_system
from repro.harness import run_grafboost_system, run_service_cell
from repro.graph.datasets import build_graph
from repro.service.queries import run_point_batch

SANITIZED = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")

#: Three analytics jobs of two tenants, on the service's durable stack.
SERVE_JOBS = ["tA:pagerank:iters=2", "tB:bfs", "tA:cc"]

#: Calls per unit: each reading + 10 %.  Readings (calls per superstep,
#: per 1000 edges, per round): BFS 1233.3, PageRank 135 237.5 and 257.9,
#: serve 45 557.0 when the test was added; 1250.4, 139 316.5 and 265.7,
#: 46 357.8 since merge sources read flash pages as views.  Point batch,
#: per query: 747.2 (9 351.8 when each query copied its edge ranges one
#: frontier vertex at a time).
BOUNDS = {"bfs": 1375, "pagerank_step": 153_250, "pagerank_kedge": 292,
          "serve": 50_990, "point_batch": 822}


def profiled_calls(run) -> tuple[int, object]:
    """Python calls of the second of two executions of ``run()``, and its
    result."""
    run()
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run()
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls, result


def check(label: str, calls: int, per: str, count: int, bound: float) -> None:
    reading = calls / count
    print(f"\n{label}: {calls} calls, {reading:.1f} per {per}")
    if SANITIZED:
        return
    assert reading <= bound, f"{reading:.1f} calls per {per}, bound {bound}"


def test_sparse_bfs_calls_per_superstep():
    # GraFBoost BFS on wdc @ 2^-16 (the layered benchmark's bfs_sparse).
    scale = 2.0 ** -16
    graph = build_graph("wdc", scale, seed=1)
    calls, result = profiled_calls(lambda: run_grafboost_system(
        "GraFBoost", graph, "bfs", scale=scale, dataset="wdc"))
    check(f"BFS on wdc @ 2^{math.log2(scale):g}", calls, "superstep",
          result.supersteps, BOUNDS["bfs"])


def test_pagerank_calls_per_edge():
    # GraFSoft PageRank x2 on kron30 @ 2^-14: 1 048 576 edges.
    scale = 2.0 ** -14
    graph = build_graph("kron30", scale, seed=1)
    calls, result = profiled_calls(lambda: run_grafboost_system(
        "GraFSoft", graph, "pagerank", scale=scale, dataset="kron30",
        pagerank_iterations=2))
    check(f"PageRank on kron30 @ 2^{math.log2(scale):g}", calls,
          "superstep", result.supersteps, BOUNDS["pagerank_step"])
    check(f"PageRank on kron30 @ 2^{math.log2(scale):g}", calls,
          "1000 edges", graph.num_edges / 1000, BOUNDS["pagerank_kedge"])


def test_serve_calls_per_round():
    # Three analytics jobs on kron30 @ 2^-16, GraFSoft's durable stack.
    scale = 2.0 ** -16
    graph = build_graph("kron30", scale, seed=1)
    calls, report = profiled_calls(lambda: run_service_cell(
        "GraFSoft", graph, SERVE_JOBS, scale=scale, dataset="kron30"))
    assert all(job.state == "done" for job in report.jobs)
    check("serve of three jobs on kron30 @ 2^-16", calls, "round",
          report.rounds, BOUNDS["serve"])


def test_point_batch_calls():
    # 24 neighborhood and path queries drawn at seed 1, one shared batch on
    # kron28 @ 2^-12 (GraFSoft's stack).
    scale = 2.0 ** -12
    graph = build_graph("kron28", scale, seed=1)
    system = make_system("grafsoft", scale, num_vertices_hint=graph.num_vertices)
    flash = system.load_graph(graph)
    rng = np.random.default_rng(1)
    queries = []
    for i in range(24):
        a, b = (int(v) for v in rng.integers(0, graph.num_vertices, 2))
        queries.append((f"q{i}", "neighborhood", {"v": a, "depth": 1 + i % 3})
                       if i % 2 else
                       (f"q{i}", "path", {"src": a, "dst": b, "cap": 6}))
    calls, results = profiled_calls(lambda: run_point_batch(
        flash, system.backend, system.clock, queries))
    assert not any("error" in result for result in results.values())
    check("point batch of 24 queries on kron28 @ 2^-12", calls, "query",
          len(queries), BOUNDS["point_batch"])
