"""Crash-chaos benchmark: graph analytics under injected power losses.

The crash-consistency contract is stronger than the fault layer's: a run
riddled with power losses — each killing the host at an arbitrary flash op,
possibly mid-page-program (torn write) — must still finish with results
*bit-identical* to the uninterrupted run, by remounting the durable store
(journal replay, FTL out-of-band recovery) and resuming from the latest
engine checkpoint.  Recovery is allowed to cost simulated time, never
correctness.

This bench drives that contract end-to-end on both simulated stacks
(GraFBoost's raw-flash AOFFS and GraFSoft's FTL-backed SSD) for PageRank
and BFS:

1. A clean durable run measures the workload's total flash-op count and
   records the reference vertex values.
2. A crash plan places >= 5 power losses at seeded op indices spread over
   [5%, 80%] of that count — guaranteed to fire — with torn writes enabled.
3. The crash run must complete via remount + checkpoint resume with final
   values bit-identical to the clean run, and its simulated time (which
   includes checkpoint writes, journal replay and re-execution) must not be
   *less* than the clean run's.

Usage::

    PYTHONPATH=src python benchmarks/bench_crash.py           # full run
    PYTHONPATH=src python benchmarks/bench_crash.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.algorithms import ANALYTICS
from repro.engine.config import make_system
from repro.flash.faults import CrashPlan
from repro.graph.datasets import build_graph
from repro.harness import CRASH_ALGORITHMS, default_root, run_grafboost_system
from repro.perf.report import emit_results, format_table

#: ISSUE acceptance: at least this many power losses must actually fire.
MIN_LOSSES = 5
#: Crash points are spread over this fraction band of the clean run's ops,
#: so every one lands inside the workload even after recovery reshuffles
#: the op stream.
CRASH_BAND = (0.05, 0.80)

FULL = dict(scale=1 / 4096, iterations=2)      # kron30 -> 2^18 vertices
QUICK = dict(scale=1 / 65536, iterations=2)    # kron30 -> 2^14 vertices


def run_clean(kind: str, graph, algorithm: str, scale: float, iterations: int):
    """Uninterrupted durable run: reference values + total flash-op count.

    The attached zero-crash plan never fires; it only makes the device
    count ops on the same durable stack the crash run will use.
    """
    system = make_system(kind, scale, num_vertices_hint=graph.num_vertices,
                         crashes=CrashPlan(crashes=0))
    start_s = system.clock.elapsed_s
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    program, limit = ANALYTICS[algorithm].factory(
        graph.num_vertices, default_root(graph), {"iters": iterations})
    result = engine.run(program, max_supersteps=limit)
    elapsed = system.clock.elapsed_s - start_s
    return result.final_values(), elapsed, system.device.crashes.op_index


def crash_plan_for(total_ops: int, seed: int) -> CrashPlan:
    """>= MIN_LOSSES seeded crash points inside the workload's op range."""
    lo = max(1, int(total_ops * CRASH_BAND[0]))
    hi = max(lo + MIN_LOSSES, int(total_ops * CRASH_BAND[1]))
    rng = np.random.default_rng(seed)
    at = sorted(rng.choice(np.arange(lo, hi), size=MIN_LOSSES + 1,
                           replace=False).tolist())
    return CrashPlan(seed=seed, at_ops=tuple(int(op) for op in at),
                     torn_write_p=0.6)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale for CI smoke runs")
    parser.add_argument("--checkpoint-every", type=int, default=2)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    params = QUICK if args.quick else FULL

    graph = build_graph("kron30", params["scale"], seed=7)
    rows = []
    failures = []
    for kind in ("grafboost", "grafsoft"):
        for algorithm in CRASH_ALGORITHMS:
            clean_values, clean_s, total_ops = run_clean(
                kind, graph, algorithm, params["scale"], params["iterations"])
            plan = crash_plan_for(total_ops, args.seed)
            crashed = run_grafboost_system(
                kind, graph, algorithm, scale=params["scale"], crashes=plan,
                checkpoint_every=args.checkpoint_every,
                pagerank_iterations=params["iterations"])

            label = f"{kind} {algorithm}"
            identical = np.array_equal(clean_values, crashed.final_values)
            if not identical:
                failures.append(f"{label}: results diverged after crashes")
            stats = crashed.crashes
            if stats.power_losses < MIN_LOSSES:
                failures.append(
                    f"{label}: only {stats.power_losses} power losses "
                    f"fired (need >= {MIN_LOSSES})")
            if crashed.elapsed_s < clean_s:
                failures.append(
                    f"{label}: recovery cannot be faster than crash-free "
                    f"({crashed.elapsed_s:.6f}s < {clean_s:.6f}s)")
            rows.append([
                label,
                "yes" if identical else "NO",
                f"{total_ops:,}",
                f"{stats.power_losses:,}",
                f"{stats.torn_writes:,}",
                f"{crashed.remounts:,}",
                f"{(crashed.elapsed_s / clean_s - 1) * 100:+.2f}%",
            ])

    table = format_table(
        ["workload", "exact results", "clean flash ops", "power losses",
         "torn writes", "remounts", "time overhead"],
        rows,
        title=(f"Crash-chaos run: kron30 @ scale {params['scale']:g}, "
               f"checkpoint every {args.checkpoint_every} supersteps, "
               f"seed={args.seed}"))
    emit_results("crash", table)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
