"""Chaos benchmark: graph analytics under injected flash faults.

The fault layer's contract is that a run either completes with results
*identical* to the fault-free run or aborts with a typed ``FlashError`` —
ECC, read-retry, bad-block remapping and file-store checksums are allowed to
cost simulated time, never correctness.  This bench drives that contract
end-to-end: kron30 PageRank on both simulated stacks (GraFBoost's raw-flash
AOFFS and GraFSoft's FTL-backed SSD) under a seeded moderate-severity
:class:`~repro.flash.faults.FaultPlan`, checking

* final PageRank values are bit-identical to the fault-free run,
* the injector actually did something (corrected bits / retries non-zero),
* recovery charged extra simulated time, never less.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py           # full run
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.algorithms.pagerank import run_pagerank
from repro.engine.config import make_system
from repro.flash.faults import FaultPlan
from repro.graph.datasets import build_graph
from repro.perf.report import emit_results, format_table

#: Moderate severity: raw BER high enough that ECC corrections and the
#: occasional read-retry happen constantly, plus rare program failures
#: exercising bad-block remapping — all fully recoverable.
CHAOS_PLAN = FaultPlan(seed=7, read_ber=5e-5, program_fail_p=1e-4,
                       latency_jitter=0.05)

FULL = dict(scale=1 / 16384, iterations=2)
QUICK = dict(scale=1 / 65536, iterations=2)


def run_one(kind: str, scale: float, iterations: int, faults: FaultPlan | None):
    graph = build_graph("kron30", scale, seed=7)
    system = make_system(kind, scale, num_vertices_hint=graph.num_vertices,
                         faults=faults)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    result = run_pagerank(engine, graph.num_vertices, iterations=iterations)
    return result, system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale for CI smoke runs")
    args = parser.parse_args(argv)
    params = QUICK if args.quick else FULL

    rows = []
    failures = []
    for kind in ("grafboost", "grafsoft"):
        clean, _ = run_one(kind, params["scale"], params["iterations"], None)
        chaos, system = run_one(kind, params["scale"], params["iterations"],
                                CHAOS_PLAN)
        stats = system.device.faults.stats
        identical = np.array_equal(clean.final_values(), chaos.final_values())
        if not identical:
            failures.append(f"{kind}: results diverged under faults")
        if stats.bits_corrected == 0 and stats.read_retries == 0:
            failures.append(f"{kind}: fault plan injected nothing")
        if chaos.elapsed_s < clean.elapsed_s:
            failures.append(f"{kind}: recovery cannot be faster than fault-free")
        rows.append([
            kind,
            "yes" if identical else "NO",
            f"{stats.bits_corrected:,}",
            f"{stats.read_retries:,}",
            f"{stats.checksum_recoveries:,}",
            f"{stats.blocks_retired:,}",
            f"{(chaos.elapsed_s / clean.elapsed_s - 1) * 100:+.2f}%",
        ])

    table = format_table(
        ["system", "exact results", "bits corrected", "read retries",
         "checksum recoveries", "blocks retired", "time overhead"],
        rows,
        title=(f"Chaos run: kron30 PageRank @ scale {params['scale']:g} under "
               f"seed={CHAOS_PLAN.seed} ber={CHAOS_PLAN.read_ber:g} "
               f"pfail={CHAOS_PLAN.program_fail_p:g}"))
    emit_results("chaos", table)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
