"""Command-line interface: run workloads and comparisons without writing code.

Usage (installed as ``python -m repro``)::

    python -m repro datasets
    python -m repro profiles
    python -m repro run --system GraFBoost --algorithm bfs --dataset kron28
    python -m repro compare --dataset wdc --algorithms pagerank,bfs \\
        --systems GraFBoost,GraFSoft,FlashGraph,X-Stream

``run`` executes one (system, algorithm, dataset) cell and prints the
metrics the paper reports; ``compare`` prints a figure-style matrix with
times normalized to GraFSoft.
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.modes import MODES as EXECUTION_MODES
from repro.flash.device import FlashError
from repro.flash.faults import CrashPlan, FaultPlan
from repro.graph.datasets import DATASETS, DEFAULT_SCALE
from repro.harness import (
    ALGORITHMS,
    BASELINE_SYSTEMS,
    GRAFBOOST_FAMILY,
    load_dataset,
    results_by,
    run_cell,
    run_matrix,
)
from repro.perf.profiles import (
    GRAFBOOST,
    GRAFBOOST2,
    GRAFSOFT,
    SERVER_SSD_ARRAY,
    SINGLE_SSD_SERVER,
)
from repro.perf.report import (
    format_table,
    human_bytes,
    human_seconds,
    mode_trace_summary,
    superstep_timeline,
    wear_rows,
)

ALL_SYSTEMS = list(GRAFBOOST_FAMILY) + list(BASELINE_SYSTEMS)

#: ``run`` flags (and their argparse dests) that configure the simulated
#: flash stack; the baseline strategy models have none to configure.  Each
#: defaults to None or False, so the guard in ``cmd_run`` sees exactly the
#: flags given; ``cmd_run`` fills in the real defaults.
_FLASH_STACK_FLAGS = (
    ("--timeline", "timeline"), ("--faults", "faults"), ("--crash", "crashes"),
    ("--checkpoint-every", "checkpoint_every"), ("--sanitize", "sanitize"),
    ("--workers", "workers"), ("--mode", "mode"),
)


def _parse_scale(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"scale must be in (0, 1], got {text}")
    return value


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value
    return integer


def _parse_faults(text: str) -> FaultPlan:
    try:
        return FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_crashes(text: str) -> CrashPlan:
    try:
        return CrashPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_job(text: str):
    from repro.service import parse_job_spec

    try:
        return parse_job_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraFBoost reproduction: external graph analytics "
                    "on (simulated) accelerated flash storage.")
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list the Table I datasets")
    datasets.add_argument("--scale", type=_parse_scale, default=DEFAULT_SCALE)

    sub.add_parser("profiles", help="list the hardware profiles (§V platforms)")

    run = sub.add_parser("run", help="run one system on one algorithm")
    run.add_argument("--system", choices=ALL_SYSTEMS, default="GraFBoost")
    run.add_argument("--algorithm", choices=list(ALGORITHMS), default="bfs")
    run.add_argument("--dataset", choices=sorted(DATASETS), default="kron28")
    run.add_argument("--scale", type=_parse_scale, default=DEFAULT_SCALE)
    run.add_argument("--seed", type=_int_at_least(0), default=1)
    run.add_argument("--timeline", action="store_true",
                     help="print the per-superstep breakdown")
    run.add_argument("--faults", type=_parse_faults, default=None,
                     metavar="SPEC",
                     help="seeded fault-injection plan for the flash device, "
                          "e.g. seed=3,ber=5e-5,pfail=1e-4 (GraFBoost-family "
                          "systems only)")
    run.add_argument("--crash", type=_parse_crashes, default=None,
                     metavar="SPEC", dest="crashes",
                     help="seeded power-loss plan, e.g. seed=3,ops=5 or "
                          "at=120/4000/9000; each crash kills the stack "
                          "mid-run, which then remounts and resumes from "
                          "the latest checkpoint (pagerank/bfs on "
                          "GraFBoost-family systems)")
    run.add_argument("--checkpoint-every", type=_int_at_least(0), default=None,
                     metavar="N",
                     help="checkpoint engine state every N supersteps "
                          "(default: 4 when --crash is given, else off)")
    run.add_argument("--sanitize", action="store_true",
                     help="attach FlashSan, the runtime flash-invariant "
                          "sanitizer, to the simulated device (GraFBoost-"
                          "family systems; equivalent to REPRO_SANITIZE=1)")
    run.add_argument("--workers", type=_int_at_least(1), default=None,
                     metavar="N",
                     help="sort-reduce worker processes for the GraFBoost-"
                          "family engines (default: 1); "
                          "results and simulated time are bit-identical "
                          "for any N")
    run.add_argument("--mode", choices=list(EXECUTION_MODES), default=None,
                     help="engine execution mode for the GraFBoost-family "
                          "systems (default: sortreduce); "
                          "adaptive picks per superstep and reports the "
                          "decision trace")

    serve = sub.add_parser(
        "serve",
        help="drive a multi-tenant service workload (analytics jobs + "
             "point queries) and print the deterministic scheduler trace")
    serve.add_argument("--system", choices=list(GRAFBOOST_FAMILY),
                       default="GraFBoost")
    serve.add_argument("--dataset", choices=sorted(DATASETS), default="kron28")
    serve.add_argument("--scale", type=_parse_scale, default=DEFAULT_SCALE)
    serve.add_argument("--seed", type=_int_at_least(0), default=1)
    serve.add_argument("--job", action="append", dest="jobs", metavar="SPEC",
                       type=_parse_job,
                       help="submit one job: tenant:kind[:k=v,...][@round], "
                            "e.g. t0:pagerank:iters=2, "
                            "t1:neighborhood:v=5,depth=2, "
                            "t0:path:src=0,dst=9, "
                            "t1:vstate:ref=svc-1,v=0+3 (repeatable); "
                            "deadline=N expires a job N rounds after "
                            "arrival, retries=N caps its retry budget, and "
                            "tenant:cancel:ref=svc-1@round tears a job down")
    serve.add_argument("--demo", action="store_true",
                       help="submit the built-in two-tenant demo workload "
                            "(2 analytics runs, 6 point queries, 1 rejected "
                            "submission)")
    serve.add_argument("--quota", action="append", dest="quotas",
                       metavar="TENANT=R/Q/P",
                       help="per-tenant quota: max running/queued analytics "
                            "runs and outstanding point queries, e.g. "
                            "t0=1/0/8 (repeatable)")
    serve.add_argument("--faults", type=_parse_faults, default=None,
                       metavar="SPEC",
                       help="seeded fault-injection plan (as in run)")
    serve.add_argument("--crash", type=_parse_crashes, default=None,
                       metavar="SPEC", dest="crashes",
                       help="seeded power-loss plan; job state and engine "
                            "checkpoints are journaled on flash, so the "
                            "service recovers with a bit-identical trace")
    serve.add_argument("--workers", type=_int_at_least(1), default=1,
                       metavar="N",
                       help="sort-reduce worker processes (default: 1; "
                            "trace is bit-identical for any N)")
    serve.add_argument("--mode", choices=list(EXECUTION_MODES),
                       default="sortreduce",
                       help="engine execution mode for the analytics jobs "
                            "(default: sortreduce)")

    compare = sub.add_parser("compare", help="run a figure-style matrix")
    compare.add_argument("--dataset", choices=sorted(DATASETS), default="kron28")
    compare.add_argument("--systems", default="GraFBoost,GraFBoost2,GraFSoft")
    compare.add_argument("--algorithms", default="pagerank,bfs")
    compare.add_argument("--scale", type=_parse_scale, default=DEFAULT_SCALE)
    compare.add_argument("--seed", type=_int_at_least(0), default=1)
    return parser


def cmd_datasets(args) -> int:
    rows = []
    for name, dataset in DATASETS.items():
        rows.append([
            name,
            f"{dataset.paper_nodes:,}",
            f"{dataset.paper_edges:,}",
            dataset.paper_edgefactor,
            f"{dataset.scaled_nodes(args.scale):,}",
            f"{dataset.scaled_edges(args.scale):,}",
        ])
    print(format_table(
        ["name", "paper nodes", "paper edges", "edgefactor",
         f"nodes @{args.scale:g}", f"edges @{args.scale:g}"],
        rows, title="Table I datasets"))
    return 0


def cmd_profiles(_args) -> int:
    rows = []
    for profile in (GRAFBOOST, GRAFBOOST2, GRAFSOFT, SERVER_SSD_ARRAY,
                    SINGLE_SSD_SERVER):
        rows.append([
            profile.name,
            human_bytes(profile.dram_capacity),
            f"{profile.flash_read_bw / 2**30:.1f}/{profile.flash_write_bw / 2**30:.1f} GB/s",
            profile.cpu_threads,
            "yes" if profile.has_accelerator else "no",
        ])
    print(format_table(
        ["profile", "DRAM", "flash r/w", "threads", "accelerator"],
        rows, title="Hardware profiles (§V platforms)"))
    return 0


def cmd_run(args) -> int:
    # NB: --timeline is handled *after* all flag validation and goes through
    # run_cell like every other invocation, so it composes with --faults/
    # --crash/--sanitize/--checkpoint-every instead of silently dropping
    # them (it used to return early through a separate bare-engine path).
    # A flash-stack flag on a baseline model is refused, never ignored.
    if args.system not in GRAFBOOST_FAMILY:
        for flag, dest in _FLASH_STACK_FLAGS:
            value = getattr(args, dest)
            if value is not None and value is not False:
                print(f"{flag} only applies to the simulated flash stacks "
                      f"({', '.join(GRAFBOOST_FAMILY)}), not {args.system}",
                      file=sys.stderr)
                return 2
    if args.crashes is not None and args.algorithm not in ("pagerank", "bfs"):
        print("--crash supports pagerank and bfs (multi-phase "
              "algorithms have no checkpoint protocol)", file=sys.stderr)
        return 2
    checkpoint_every = args.checkpoint_every
    if checkpoint_every is None:
        checkpoint_every = 4 if args.crashes is not None else 0
    try:
        graph = load_dataset(args.dataset, args.scale, seed=args.seed)
        print(f"{args.dataset} @ scale {args.scale:g}: "
              f"{graph.num_vertices:,} vertices, {graph.num_edges:,} edges")
        cell = run_cell(args.system, graph, args.algorithm, scale=args.scale,
                        dataset=args.dataset, faults=args.faults,
                        crashes=args.crashes,
                        checkpoint_every=checkpoint_every,
                        sanitize=True if args.sanitize else None,
                        workers=args.workers or 1,
                        mode=args.mode or "sortreduce")
    except FlashError as e:
        print(f"{args.system} {args.algorithm}: aborted on "
              f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as e:
        # A scale too small for the key packing, or too large for this
        # host's memory: a usage error, not a crash.
        print(f"{args.dataset} @ scale {args.scale:g}: cannot run "
              f"{args.system} {args.algorithm}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 2
    if not cell.completed:
        print(f"{args.system} {args.algorithm}: DNF — {cell.dnf_reason}")
        return 1
    if args.timeline:
        print(superstep_timeline(cell.superstep_metrics or []))
        print(f"total simulated time: {human_seconds(cell.elapsed_s)}")
    rows = [
        ["system", cell.system],
        ["algorithm", cell.algorithm],
        ["simulated time", human_seconds(cell.elapsed_s)],
        ["supersteps", cell.supersteps],
        ["traversed edges", f"{cell.traversed_edges:,}"],
        ["MTEPS", f"{cell.mteps:.2f}"],
        ["flash traffic", human_bytes(cell.flash_bytes)],
        ["peak memory", human_bytes(cell.memory_bytes)],
    ]
    if cell.mode_trace:
        rows.append(["mode trace",
                     mode_trace_summary(cell.mode_trace, cell.mode_phases)])
    if args.faults is not None:
        rows += [
            ["corrected bit errors", f"{cell.corrected_bit_errors:,}"],
            ["read retries", f"{cell.read_retries:,}"],
            ["checksum recoveries", f"{cell.checksum_recoveries:,}"],
            ["retired blocks", f"{cell.retired_blocks:,}"],
        ]
    if args.crashes is not None:
        rows += [
            ["power losses", f"{cell.power_losses:,}"],
            ["torn writes", f"{cell.torn_writes:,}"],
            ["remounts", f"{cell.remounts:,}"],
        ]
    rows += [[name, value] for name, value
             in wear_rows(cell.wear, cell.lifetime_writes_remaining)]
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_serve(args) -> int:
    """Drive a multi-tenant service workload and print the scheduler trace."""
    from repro.harness import run_service_cell
    from repro.service import TenantQuota, demo_quotas, demo_workload

    jobs = list(args.jobs or [])
    quotas: dict[str, TenantQuota] = {}
    if args.demo:
        jobs = demo_workload() + jobs
        quotas.update(demo_quotas())
    if not jobs:
        print("serve needs at least one --job SPEC (or --demo)",
              file=sys.stderr)
        return 2
    for quota_spec in args.quotas or []:
        try:
            tenant, quota = _parse_quota(quota_spec)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        quotas[tenant] = quota
    try:
        cell = run_service_cell(args.system, load_dataset(
                                    args.dataset, args.scale, seed=args.seed),
                                jobs, scale=args.scale,
                                quotas=quotas or None, dataset=args.dataset,
                                faults=args.faults, crashes=args.crashes,
                                workers=args.workers, mode=args.mode)
    except (FlashError, ValueError, RuntimeError) as e:
        print(f"serve: aborted on {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print("Scheduler trace")
    for line in cell.trace:
        print(f"  {line}")
    rows = [
        ["system", cell.system],
        ["jobs done", cell.jobs_done],
        ["jobs rejected", cell.jobs_rejected],
        ["jobs failed", cell.jobs_failed],
        ["scheduler rounds", cell.rounds],
        ["simulated time", human_seconds(cell.elapsed_s)],
        ["flash traffic", human_bytes(cell.flash_bytes)],
    ]
    if cell.jobs_quarantined:
        rows.append(["jobs quarantined", cell.jobs_quarantined])
    if cell.jobs_cancelled:
        rows.append(["jobs cancelled", cell.jobs_cancelled])
    if cell.retries:
        rows.append(["job retries", cell.retries])
    if cell.failures:
        rows.append(["flash failures", cell.failures])
    if cell.degraded_rejections:
        rows.append(["degraded rejections", cell.degraded_rejections])
    if args.crashes is not None:
        rows += [
            ["power losses", f"{cell.power_losses:,}"],
            ["remounts", f"{cell.remounts:,}"],
        ]
    rows += [[name, value] for name, value
             in wear_rows(cell.wear, cell.lifetime_writes_remaining)]
    print(format_table(["metric", "value"], rows))
    return 0


def _parse_quota(text: str):
    """``tenant=running/queued/point`` → (tenant, TenantQuota)."""
    from repro.service import TenantQuota

    tenant, sep, body = text.partition("=")
    parts = body.split("/")
    if not sep or not tenant or len(parts) != 3:
        raise ValueError(f"bad quota {text!r}; want tenant=running/queued/point")
    try:
        running, queued, point = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad quota {text!r}; limits must be integers") from None
    try:
        return tenant, TenantQuota(max_running=running, max_queued=queued,
                                   max_point=point)
    except ValueError as exc:
        raise ValueError(f"bad quota {text!r}; {exc}") from None


def cmd_compare(args) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    unknown = [s for s in systems if s not in ALL_SYSTEMS]
    if unknown:
        print(f"unknown systems: {', '.join(unknown)} "
              f"(known: {', '.join(ALL_SYSTEMS)})", file=sys.stderr)
        return 2
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {', '.join(unknown)} "
              f"(known: {', '.join(ALGORITHMS)})", file=sys.stderr)
        return 2
    results = run_matrix(systems, algorithms, args.dataset, scale=args.scale,
                         seed=args.seed)
    rows = []
    for algorithm in algorithms:
        by_system = results_by(results, algorithm)
        row = [algorithm]
        for system in systems:
            cell = by_system[system]
            row.append(f"{cell.elapsed_s * 1000:.2f} ms" if cell.completed
                       else "DNF")
        rows.append(row)
    print(format_table(["algorithm"] + systems, rows,
                       title=f"{args.dataset} @ scale {args.scale:g} "
                             "(simulated time; lower is faster)"))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "profiles": cmd_profiles,
        "run": cmd_run,
        "serve": cmd_serve,
        "compare": cmd_compare,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
