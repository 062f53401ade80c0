"""The four workloads: inputs generated from the seed, one timed entry-point call.

The seed feeds the dataset generator and the ``serve_mix`` job-mix generator
and nothing else: the program under test (``repro.harness``) receives a
built graph and a job list, never the seed.  One *execution* is exactly one
call of the entry point the CLI uses — ``run_grafboost_system`` for
``repro run``, ``run_service_cell`` for ``repro serve`` — so it pays
``make_system``, the graph load onto simulated flash, the engine or service
loop and the result assembly, like every CLI invocation does.

Sizes are chosen so that one execution takes 1-3 s on a 2-core sandbox and
five or more fit the measuring window; see README.md for why each workload
exists and which layer it is meant to move.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import numpy as np

from repro import harness
from repro.graph.csr import CSRGraph
from repro.graph.datasets import build_graph
from repro.service import TenantQuota


@dataclass(frozen=True)
class Workload:
    """Fixed inputs of one workload (everything but the seed)."""

    name: str
    why: str
    entry: str                    # "run" (repro run) or "serve" (repro serve)
    system: str
    dataset: str
    scale_log2: int               # dataset scale = 2 ** -scale_log2
    algorithm: str = ""           # run workloads only
    pagerank_iterations: int = 1
    workers: int = 1

    @property
    def scale(self) -> float:
        return 2.0 ** -self.scale_log2


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pr_dense",
        why=("All vertices active: core sort/merge kernels and sequential "
             "file-store streaming dominate, graph.vertexdata is idle; a "
             "kernel or file-store fast path must win here."),
        entry="run", system="GraFSoft", dataset="kron30", scale_log2=12,
        algorithm="pagerank", pagerank_iterations=2, workers=1),
    Workload(
        name="pr_dense_w2",
        why=("pr_dense through core.parallel's fork+shm pool (workers=2): "
             "simulated numbers must equal pr_dense, only host time may "
             "differ; decides whether --workers pays."),
        entry="run", system="GraFSoft", dataset="kron30", scale_log2=12,
        algorithm="pagerank", pagerank_iterations=2, workers=2),
    Workload(
        name="bfs_sparse",
        why=("High-diameter web crawl, ~900 supersteps with tiny frontiers: "
             "per-superstep fixed cost (vertexdata overlays, index lookups, "
             "AOFFS create/seal/delete) dominates and core sort is idle."),
        entry="run", system="GraFBoost", dataset="wdc", scale_log2=16,
        algorithm="bfs", workers=1),
    Workload(
        name="serve_mix",
        why=("Durable multi-tenant service: journal, checkpoints and "
             "metadata-log writes beside reads on the flash stack pr_dense "
             "only streams through, plus scheduler, admission and batched "
             "point queries."),
        entry="serve", system="GraFSoft", dataset="kron28", scale_log2=12),
)}

def resolve(name: str, scale_log2: int | None = None) -> Workload:
    """The named workload; ``scale_log2`` shrinks it for the self-test."""
    workload = WORKLOADS[name]
    if scale_log2 is None:
        return workload
    return dataclasses.replace(workload, scale_log2=scale_log2)


TENANTS = ("tA", "tB", "tC")
POINT_QUERIES_PER_KIND = 8
POINTS_PER_ROUND = 3


@dataclass
class Inputs:
    """What one workload's executions are fed: generated once per run."""

    graph: CSRGraph
    jobs: list[str]               # serve only
    quotas: dict | None           # serve only


def two_hop_fanout(graph: CSRGraph) -> np.ndarray:
    """Per vertex: edges a depth-2 expansion touches past the first hop."""
    degrees = graph.out_degrees().astype(np.int64)
    offsets = graph.offsets.astype(np.int64)
    running = np.concatenate(([0], np.cumsum(degrees[graph.targets])))
    return running[offsets[1:]] - running[offsets[:-1]]


def make_job_mix(graph: CSRGraph, seed: int) -> list[str]:
    """Four analytics jobs and 24 point queries, in the CLI job syntax.

    Both BFS jobs arrive while two PageRank runs hold the flash bandwidth,
    so each waits in its tenant's queue and is promoted when a run ends.

    Query vertices are drawn with the seed from the middle fifth of the
    two-hop fan-out distribution, and BFS jobs start from the two
    highest-degree vertices.  On a Kronecker graph an unconstrained draw
    makes one execution cost anything between 0.5x and 2x of another
    depending on whether a query happens to touch a hub; the band keeps the
    mix comparable across seeds while every seed still asks different
    questions.  For the same reason there is no ``cc`` job: label
    propagation converges in 7 or 8 supersteps depending on the seed, which
    alone moves host time by 12 % and simulated time by 7 %.  Path targets
    are two hops from their source, so every path query has an answer.
    """
    rng = random.Random(seed)
    degrees = graph.out_degrees().astype(np.int64)
    by_degree = np.argsort(-degrees, kind="stable")
    jobs = ["tA:pagerank:iters=2", "tB:pagerank:iters=3",
            f"tC:bfs:root={int(by_degree[0])}@1",
            f"tA:bfs:root={int(by_degree[1])}@2"]
    fanout = two_hop_fanout(graph)
    candidates = np.flatnonzero(degrees >= 2)
    low, high = np.quantile(fanout[candidates], [0.4, 0.6])
    band = candidates[(fanout[candidates] >= low) & (fanout[candidates] <= high)]

    def pick() -> int:
        return int(band[rng.randrange(len(band))])

    def hop(v: int) -> int:
        out = graph.neighbors(v)
        return int(out[rng.randrange(len(out))]) if len(out) else v

    points = []
    for i in range(POINT_QUERIES_PER_KIND):
        points.append(f"{TENANTS[i % 3]}:neighborhood:v={pick()},depth=2")
        src = pick()
        points.append(f"{TENANTS[(i + 1) % 3]}:path:src={src},dst={hop(hop(src))}")
        reads = "+".join(str(rng.randrange(graph.num_vertices)) for _ in range(3))
        points.append(f"{TENANTS[(i + 2) % 3]}:vstate:ref=svc-{1 + i % 2},v={reads}")
    jobs += [f"{spec}@{i // POINTS_PER_ROUND}" for i, spec in enumerate(points)]
    return jobs


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Build the graph (through the dataset cache the environment names)
    and, for ``serve``, the job mix and quotas."""
    graph = build_graph(workload.dataset, workload.scale, seed=seed)
    if workload.entry != "serve":
        return Inputs(graph, [], None)
    quotas = {t: TenantQuota(max_running=1, max_queued=2, max_point=16)
              for t in TENANTS}
    return Inputs(graph, make_job_mix(graph, seed), quotas)


def execute(workload: Workload, inputs: Inputs, sanitize: bool = False,
            workers: int | None = None):
    """One execution: the single entry-point call that gets timed.

    ``workers``, ``mode`` and ``sanitize`` are always passed explicitly so
    no ``REPRO_*`` variable can change what is measured.
    """
    if workers is None:
        workers = workload.workers
    if workload.entry == "serve":
        return harness.run_service_cell(
            workload.system, inputs.graph, inputs.jobs, scale=workload.scale,
            quotas=inputs.quotas, dataset=workload.dataset,
            sanitize=sanitize, workers=workers, mode="sortreduce")
    return harness.run_grafboost_system(
        workload.system, inputs.graph, workload.algorithm,
        scale=workload.scale, dataset=workload.dataset,
        pagerank_iterations=workload.pagerank_iterations,
        sanitize=sanitize, workers=workers, mode="sortreduce")


def summarize(workload: Workload, result) -> dict:
    """JSON-safe record of one execution: simulated metrics, operation
    counts and the fingerprint that must repeat across executions."""
    if workload.entry == "serve":
        return {
            "sim_elapsed_s": result.elapsed_s,
            "sim_flash_bytes": result.flash_bytes,
            "attempted": len(result.jobs),
            "failed": sum(1 for job in result.jobs if job.state != "done"),
            "steps": result.rounds,
            "fingerprint": result.trace,
            "jobs": [job.to_dict() for job in result.jobs],
        }
    steps = result.superstep_metrics
    return {
        "sim_elapsed_s": result.elapsed_s,
        "sim_flash_bytes": result.flash_bytes,
        "attempted": 1,
        "failed": 0 if result.completed else 1,
        "steps": result.supersteps,
        "fingerprint": [[s.activated, s.traversed_edges, s.reduced_pairs]
                        for s in steps],
        "jobs": [],
    }
