"""Service chaos benchmark: per-job failure domains under fault injection.

The serving layer's contract is that one tenant's failure is never another
tenant's problem: a seeded fault plan that deterministically kills exactly
one job must leave every other job's admission decision, result checksum
and trace line *byte-identical* — across worker counts, execution modes and
arbitrary power-loss schedules.  This bench drives that contract end-to-end
on the two-tenant demo workload plus a third tenant whose jobs exercise
every failure path (poisoned analytics → quarantine, deadline expiry,
cancellation), checking

* within one execution mode, the full scheduler trace is bit-identical for
  every (workers, crash plan) combination,
* the poisoned job is quarantined while every other job's trace line
  matches the fault-free run byte for byte,
* every job that ends -- done, quarantined, expired or cancelled -- gives
  its flash footprint and bandwidth reservation back, under power loss
  too; only the done analytics jobs' values files stay.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_chaos.py           # full
    PYTHONPATH=src python benchmarks/bench_service_chaos.py --quick   # CI

Only the full matrix writes ``benchmarks/results/service_chaos.txt``, the
committed golden; ``--quick`` prints its subset and leaves the file alone.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.engine.config import make_system
from repro.flash.faults import CrashPlan
from repro.graph.datasets import build_graph
from repro.harness import run_service_cell
from repro.perf.report import emit_results, format_table
from repro.service import (
    PoisonSpec,
    ServiceConfig,
    TenantQuota,
    demo_quotas,
    demo_workload,
)
from repro.service.admission import usage
from repro.service.jobs import RUNNING

SCALE = 2.0 ** -16
POISONED = "svc-10"


def chaos_quotas():
    quotas = demo_quotas()
    quotas["tC"] = TenantQuota(max_running=1, max_queued=3, max_point=8)
    return quotas


def chaos_workload():
    return demo_workload() + [
        "tC:pagerank:iters=2",           # svc-10: poisoned -> quarantined
        "tC:bfs:deadline=2",             # svc-11: expires while queued
        "tC:pagerank:iters=6@1",         # svc-12: cancelled mid-flight
        "tC:cancel:ref=svc-12@3",        # svc-13: the control op
        "tC:neighborhood:v=1,depth=1",   # svc-14: unaffected bystander
    ]


def service_config(poison: bool) -> ServiceConfig:
    poisons = ({POISONED: PoisonSpec(superstep=1, attempts=99)}
               if poison else {})
    return ServiceConfig(poison=poisons)


def run_cell(graph, workers, mode, crashes=None, poison=True):
    return run_service_cell(
        "GraFBoost", graph, chaos_workload(), scale=SCALE,
        quotas=chaos_quotas(), config=service_config(poison),
        crashes=CrashPlan.parse(crashes) if crashes else None,
        dataset="twitter", workers=workers, mode=mode)


def check_isolation(baseline_trace, clean_trace, failures, label):
    """Poisoned run vs fault-free run: only svc-10's line may differ."""
    clean_by_id = {line.split()[0]: line for line in clean_trace}
    for line in baseline_trace:
        job_id = line.split()[0]
        if job_id == POISONED:
            if "state=quarantined" not in line:
                failures.append(f"{label}: poisoned job not quarantined")
            continue
        if line != clean_by_id.get(job_id, clean_trace[-1]):
            failures.append(
                f"{label}: bystander {job_id} diverged under poison")


#: (poison, crash plan) legs of :func:`check_reclaim`.  The crash leg kills
#: attempts before their first checkpoint, whose vertex data no checkpoint
#: names.
RECLAIM_LEGS = ((True, None), (False, None), (True, "seed=3,ops=40"))


def check_reclaim(graph, failures):
    """Every ended job gives its flash back: after the whole chaos workload,
    with and without the poison and under power loss, only the graph, the
    journal and the done analytics jobs' values files remain."""
    for poison, crashes in RECLAIM_LEGS:
        label = f"reclaim (poison={poison}, crash={crashes or '-'})"
        system = make_system("grafboost", SCALE,
                             num_vertices_hint=graph.num_vertices,
                             durable=True,
                             crashes=CrashPlan.parse(crashes) if crashes
                             else None)
        service = system.service_for(
            system.load_graph(graph), graph.num_vertices,
            config=service_config(poison), quotas=chaos_quotas())
        service.submit_all(chaos_workload())
        report = service.run()
        kept = {"svc:jobs"} | {f"svc:{job.job_id}:values"
                               for job in report.jobs_by_state("done")
                               if job.is_analytics}
        leftovers = [name for name in system.store.list_files()
                     if not name.startswith("graph:") and name not in kept]
        if leftovers:
            failures.append(f"{label}: flash leftovers {leftovers[:4]}")
        if usage(service.jobs.values())[RUNNING]:
            failures.append(f"{label}: bandwidth reservation not returned")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller matrix for CI smoke runs")
    args = parser.parse_args(argv)

    if args.quick:
        modes = ["sortreduce", "adaptive"]
        worker_counts = [1, 2]
        plans = [None, "seed=3,ops=40"]
    else:
        modes = ["sortreduce", "adaptive"]
        worker_counts = [1, 2, 4]
        plans = [None, "seed=3,ops=40", "at=300/1500/4000"]

    graph = build_graph("twitter", SCALE, seed=1)
    rows = []
    failures: list[str] = []
    for mode in modes:
        baseline = run_cell(graph, 1, mode)
        clean = run_cell(graph, 1, mode, poison=False)
        check_isolation(baseline.trace, clean.trace, failures, mode)
        if (not baseline.jobs_by_state("quarantined")
                or not baseline.jobs_by_state("cancelled")):
            failures.append(f"{mode}: chaos workload missed a failure path")
        for workers in worker_counts:
            for plan in plans:
                cell = run_cell(graph, workers, mode, crashes=plan)
                losses = cell.crashes.power_losses if cell.crashes else 0
                identical = cell.trace == baseline.trace
                if not identical:
                    failures.append(f"{mode} workers={workers} "
                                    f"crash={plan or '-'}: trace diverged")
                if plan and losses == 0:
                    failures.append(f"{mode} workers={workers}: crash plan "
                                    f"{plan} injected nothing")
                rows.append([
                    mode, workers, plan or "-",
                    "yes" if identical else "NO",
                    len(cell.jobs_by_state("done")),
                    len(cell.jobs_by_state("quarantined")),
                    len(cell.jobs_by_state("cancelled")),
                    sum(job.retries for job in cell.jobs),
                    f"{losses}/{cell.remounts}",
                ])
    check_reclaim(graph, failures)

    table = format_table(
        ["mode", "workers", "crash plan", "trace==base", "done",
         "quarantined", "cancelled", "retries", "losses/remounts"],
        rows,
        title=(f"Service chaos: demo+tC workload @ scale {SCALE:g}, "
               f"{POISONED} poisoned (uncorrectable @ superstep 1, "
               f"every attempt)"))
    if args.quick:
        print(table)
    else:
        emit_results("service_chaos", table)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
