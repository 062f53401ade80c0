"""Output verification, run by run.py outside every timed region.

``run_grafboost_system`` does not return vertex values, so the run
workloads are executed once more through the layer-level sequence the
harness itself uses (``make_system`` -> ``load_graph`` -> ``engine_for`` ->
``run_pagerank`` / ``run_bfs``), the values are checked against in-memory
references, and the re-run's simulated metrics must equal execution 0's —
so what was verified is what was timed.  ``serve_mix`` carries its answers
in the job table: point-query answers are checked against reference BFS
levels and PageRank values.

``reference.pagerank_push`` pushes from every vertex in every iteration;
the vertex program pushes only from vertices updated in the previous
superstep, so from the second iteration on the two differ wherever a
vertex without in-edges has out-edges (4 368 of 65 536 vertices of kron28
@ 2^-12, by up to 84 %).  :func:`pagerank_active_push` is the same few
lines with that one rule, and is itself checked against ``pagerank_push``
on the first iteration, where the rules coincide.

Every function returns a list of problems; empty means verified.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import harness
from repro.algorithms.bfs import UNVISITED, run_bfs
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.reference import (
    bfs_levels,
    pagerank_push,
    validate_parents,
)
from repro.engine.config import make_system
from repro.service.jobs import DEFAULT_PATH_CAP

import workloads

#: PageRank sums float64 contributions in sort order; the reference sums in
#: edge order.  Reordering moves the last few bits only.
PAGERANK_RTOL = 1e-9


def pagerank_active_push(graph, iterations: int,
                         damping: float = 0.85) -> np.ndarray:
    """Push PageRank in which a vertex pushes only in the iteration after
    it received an update (every vertex pushes in the first)."""
    n = graph.num_vertices
    rank = np.full(n, 1.0 / n)
    degrees = graph.out_degrees().astype(np.float64)
    src, dst = (a.astype(np.int64) for a in graph.edge_list())
    active = np.ones(n, dtype=bool)
    for _ in range(iterations):
        pushing = active[src]
        s, d = src[pushing], dst[pushing]
        sums = np.bincount(d, weights=rank[s] / degrees[s], minlength=n)
        received = np.zeros(n, dtype=bool)
        received[d] = True
        rank = np.where(received, (1 - damping) / n + damping * sums, rank)
        active = received
    return rank


def _pagerank_reference(graph, iterations: int, problems: list[str]):
    if not np.allclose(pagerank_active_push(graph, 1), pagerank_push(graph, 1),
                       rtol=PAGERANK_RTOL, atol=0.0):
        problems.append("pagerank_active_push disagrees with the trusted "
                        "pagerank_push on the first iteration")
    return pagerank_active_push(graph, iterations)


def _crc(values) -> int:
    return zlib.crc32(np.ascontiguousarray(values).tobytes())


def verify_run(workload, inputs, execution0: dict) -> list[str]:
    graph = inputs.graph
    system = make_system(workload.system.lower(), workload.scale,
                         num_vertices_hint=graph.num_vertices,
                         sanitize=False, workers=workload.workers,
                         mode="sortreduce")
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    problems = []
    if workload.algorithm == "pagerank":
        result = run_pagerank(engine, graph.num_vertices,
                              iterations=workload.pagerank_iterations)
        reference = _pagerank_reference(graph, workload.pagerank_iterations,
                                        problems)
        if not np.allclose(result.final_values(), reference,
                           rtol=PAGERANK_RTOL, atol=0.0):
            problems.append("pagerank values differ from the reference")
    else:
        root = harness.default_root(graph)
        result = run_bfs(engine, root)
        if not validate_parents(graph, root, result.final_values(), UNVISITED):
            problems.append("bfs parents fail Graph500 validation")
    # final_values() above read flash, so compare what the run itself took.
    if result.elapsed_s != execution0["sim_elapsed_s"]:
        problems.append(
            f"verified re-run took {result.elapsed_s!r} simulated s, "
            f"execution 0 took {execution0['sim_elapsed_s']!r}")
    if result.num_supersteps != execution0["steps"]:
        problems.append("verified re-run and execution 0 differ in supersteps")
    if workload.workers != 1:
        serial = workloads.summarize(
            workload, workloads.execute(workload, inputs, workers=1))
        for key in ("sim_elapsed_s", "sim_flash_bytes"):
            if serial[key] != execution0[key]:
                problems.append(
                    f"{key} with workers={workload.workers} is "
                    f"{execution0[key]!r}, with workers=1 {serial[key]!r}")
    return problems


def _check_path(graph, params: dict, result: dict) -> str:
    src, dst = int(params["src"]), int(params["dst"])
    cap = int(params.get("cap", DEFAULT_PATH_CAP))
    level = int(bfs_levels(graph, src)[dst])
    reachable = 0 <= level <= cap
    if result.get("found") != reachable:
        return f"found={result.get('found')} but reference level is {level}"
    if not reachable:
        return ""
    if result["hops"] != level:
        return f"{result['hops']} hops, shortest is {level}"
    path = result["path"]
    if len(path) == level + 1:     # the job table keeps the first 64 hops
        if path[0] != src or path[-1] != dst:
            return "path does not run src -> dst"
        for a, b in zip(path, path[1:]):
            if b not in graph.neighbors(a):
                return f"path uses a missing edge {a}->{b}"
    return ""


def _check_neighborhood(graph, params: dict, result: dict) -> str:
    levels = bfs_levels(graph, int(params["v"]))
    depth = int(params.get("depth", 1))
    expected = np.flatnonzero((levels >= 0) & (levels <= depth)).astype(np.int64)
    if result.get("count") != len(expected):
        return f"{result.get('count')} vertices, reference has {len(expected)}"
    if result.get("checksum") != _crc(expected):
        return "vertex-set checksum differs from reference"
    return ""


def verify_serve(workload, inputs, execution0: dict) -> list[str]:
    graph = inputs.graph
    jobs = {job["job_id"]: job for job in execution0["jobs"]}
    problems = []
    pagerank_cache: dict[int, np.ndarray] = {}
    for job_id, job in jobs.items():
        spec, result = job["spec"], job["result"]
        kind, params = spec["kind"], spec["params"]
        if job["state"] != "done":
            problems.append(f"{job_id} ({kind}) ended {job['state']}: "
                            f"{job.get('reason', '')}")
            continue
        issue = ""
        if kind == "path":
            issue = _check_path(graph, params, result)
        elif kind == "neighborhood":
            issue = _check_neighborhood(graph, params, result)
        elif kind == "vstate":
            ref_spec = jobs[params["ref"]]["spec"]
            if ref_spec["kind"] == "pagerank":
                iters = int(ref_spec["params"].get("iters", 1))
                if iters not in pagerank_cache:
                    pagerank_cache[iters] = _pagerank_reference(
                        graph, iters, problems)
                expected = pagerank_cache[iters][result["vertices"]]
                if not np.allclose(result["values"], expected,
                                   rtol=PAGERANK_RTOL, atol=0.0):
                    issue = "vertex values differ from the reference"
        if issue:
            problems.append(f"{job_id} ({kind}): {issue}")
    return problems


def verify(workload, inputs, execution0: dict) -> list[str]:
    if "error" in execution0:
        return [f"execution 0 raised {execution0['error']}"]
    if workload.entry == "serve":
        return verify_serve(workload, inputs, execution0)
    return verify_run(workload, inputs, execution0)


def consistent(executions: list[dict]) -> list[str]:
    """Across one child's executions: nothing failed, and results (result
    checksums, per-superstep counts) are the same every time."""
    problems = []
    for row in executions:
        if "error" in row:
            problems.append(f"execution {row['index']} raised {row['error']}")
        elif row["failed"]:
            problems.append(f"execution {row['index']}: {row['failed']} of "
                            f"{row['attempted']} operations failed")
        elif row["fingerprint"] != executions[0].get("fingerprint"):
            problems.append(f"execution {row['index']} produced different "
                            f"results from execution 0")
    return problems
