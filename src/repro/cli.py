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
from repro.graph.datasets import DATASETS, DEFAULT_SCALE, build_graph
from repro.harness import (
    ALGORITHMS,
    BASELINE_SYSTEMS,
    CRASH_ALGORITHMS,
    GRAFBOOST_FAMILY,
    results_by,
    run_cell,
    run_matrix,
    run_service_cell,
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
from repro.service import TenantQuota, demo_quotas, demo_workload, parse_job_spec
from repro.service.admission import DEGRADED_DECISION

ALL_SYSTEMS = list(GRAFBOOST_FAMILY) + list(BASELINE_SYSTEMS)


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


def _spec(parse):
    """An argparse type from a spec parser: its ValueError is a usage error."""
    def parsed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraFBoost reproduction: external graph analytics "
                    "on (simulated) accelerated flash storage.")
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list the Table I datasets")
    datasets.add_argument("--scale", type=_parse_scale, default=DEFAULT_SCALE)

    sub.add_parser("profiles", help="list the hardware profiles (§V platforms)")

    # The dataset a run, serve or compare builds.
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", choices=sorted(DATASETS), default="kron28")
    dataset.add_argument("--scale", type=_parse_scale, default=DEFAULT_SCALE)
    dataset.add_argument("--seed", type=_int_at_least(0), default=1)

    # Flags that configure the simulated flash stack.  Each defaults to None
    # or False, so ``cmd_run`` sees exactly the flags given and refuses them
    # for a baseline model; the commands fill in the real defaults.
    stack = argparse.ArgumentParser(add_help=False)
    stack_flags = [
        stack.add_argument(
            "--faults", type=_spec(FaultPlan.parse), metavar="SPEC",
            help="seeded fault-injection plan for the flash device, "
                 "e.g. seed=3,ber=5e-5,pfail=1e-4"),
        stack.add_argument(
            "--crash", type=_spec(CrashPlan.parse), metavar="SPEC",
            dest="crashes",
            help="seeded power-loss plan, e.g. seed=3,ops=5 or "
                 "at=120/4000/9000; each crash kills the stack mid-run, "
                 "which then remounts and resumes from the latest "
                 "checkpoint (run supports "
                 + ", ".join(CRASH_ALGORITHMS) + ")"),
        stack.add_argument(
            "--workers", type=_int_at_least(1), metavar="N",
            help="sort-reduce worker processes (default: 1); results, "
                 "simulated time and the service trace are bit-identical "
                 "for any N"),
        stack.add_argument(
            "--mode", choices=list(EXECUTION_MODES),
            help="engine execution mode (default: sortreduce); adaptive "
                 "picks per superstep and reports the decision trace"),
    ]

    run = sub.add_parser(
        "run", parents=[dataset, stack],
        help="run one system on one algorithm",
        description="Run one system on one algorithm.  The flash-stack "
                    "flags apply to the GraFBoost-family systems only.")
    run.add_argument("--system", choices=ALL_SYSTEMS, default="GraFBoost")
    run.add_argument("--algorithm", choices=list(ALGORITHMS), default="bfs")
    stack_flags += [
        run.add_argument("--timeline", action="store_true",
                         help="print the per-superstep breakdown"),
        run.add_argument("--checkpoint-every", type=_int_at_least(0),
                         metavar="N",
                         help="checkpoint engine state every N supersteps "
                              "(default: 4 when --crash is given, else off)"),
        run.add_argument("--sanitize", action="store_true",
                         help="attach FlashSan, the runtime flash-invariant "
                              "sanitizer, to the simulated device "
                              "(equivalent to REPRO_SANITIZE=1)"),
    ]
    run.set_defaults(stack_flags=stack_flags)

    serve = sub.add_parser(
        "serve", parents=[dataset, stack],
        help="drive a multi-tenant service workload (analytics jobs + "
             "point queries) and print the deterministic scheduler trace")
    serve.add_argument("--system", choices=list(GRAFBOOST_FAMILY),
                       default="GraFBoost")
    serve.add_argument("--job", action="append", dest="jobs", metavar="SPEC",
                       type=_spec(parse_job_spec),
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
                            "t0=1/0/8 (repeatable, once per tenant)")

    compare = sub.add_parser("compare", parents=[dataset],
                             help="run a figure-style matrix")
    compare.add_argument("--systems", default="GraFBoost,GraFBoost2,GraFSoft")
    compare.add_argument("--algorithms", default="pagerank,bfs")
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


def _cannot_run(args, what: str, error: Exception) -> int:
    """A scale too small for the key packing, or too large for this host's
    memory, is a usage error: one line naming dataset and scale, exit 2."""
    print(f"{args.dataset} @ scale {args.scale:g}: cannot run {what}: "
          f"{type(error).__name__}: {error}", file=sys.stderr)
    return 2


def cmd_run(args) -> int:
    # A flash-stack flag on a baseline model is refused, never ignored.
    if args.system not in GRAFBOOST_FAMILY:
        for flag in args.stack_flags:
            value = getattr(args, flag.dest)
            if value is not None and value is not False:
                print(f"{flag.option_strings[0]} only applies to the simulated "
                      f"flash stacks ({', '.join(GRAFBOOST_FAMILY)}), not "
                      f"{args.system}", file=sys.stderr)
                return 2
    if args.crashes is not None and args.algorithm not in CRASH_ALGORITHMS:
        print(f"--crash supports {', '.join(CRASH_ALGORITHMS)}, not "
              f"{args.algorithm} (multi-phase algorithms have no checkpoint "
              f"protocol)", file=sys.stderr)
        return 2
    checkpoint_every = args.checkpoint_every
    if checkpoint_every is None:
        checkpoint_every = 4 if args.crashes is not None else 0
    try:
        graph = build_graph(args.dataset, args.scale, seed=args.seed)
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
        return _cannot_run(args, f"{args.system} {args.algorithm}", e)
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
    rows += _stack_rows(cell)
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_serve(args) -> int:
    """Drive a multi-tenant service workload and print the scheduler trace."""
    jobs = list(args.jobs or [])
    quotas: dict[str, TenantQuota] = {}
    if args.demo:
        jobs = demo_workload() + jobs
        quotas.update(demo_quotas())
    if not jobs:
        print("serve needs at least one --job SPEC (or --demo)",
              file=sys.stderr)
        return 2
    given: set[str] = set()
    for quota_spec in args.quotas or []:
        try:
            tenant, quota = _parse_quota(quota_spec)
            if tenant in given:
                raise ValueError(f"--quota given twice for tenant {tenant!r}")
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        given.add(tenant)
        quotas[tenant] = quota
    try:
        report = run_service_cell(
            args.system, build_graph(args.dataset, args.scale, seed=args.seed),
            jobs, scale=args.scale, quotas=quotas or None,
            dataset=args.dataset, faults=args.faults, crashes=args.crashes,
            workers=args.workers or 1, mode=args.mode or "sortreduce")
    except (ValueError, MemoryError) as e:
        return _cannot_run(args, f"serve on {args.system}", e)
    except (FlashError, RuntimeError) as e:
        print(f"serve: aborted on {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print("Scheduler trace")
    for line in report.trace:
        print(f"  {line}")
    rows = [["system", args.system]]
    rows += [[f"jobs {state}", len(report.jobs_by_state(state))]
             for state in ("done", "rejected", "failed")]
    rows += [
        ["scheduler rounds", report.rounds],
        ["simulated time", human_seconds(report.elapsed_s)],
        ["flash traffic", human_bytes(report.flash_bytes)],
    ]
    for name, count in (
            ("jobs quarantined", len(report.jobs_by_state("quarantined"))),
            ("jobs cancelled", len(report.jobs_by_state("cancelled"))),
            ("job retries", sum(job.retries for job in report.jobs)),
            ("flash failures", sum(len(job.failures) for job in report.jobs)),
            ("degraded rejections", sum(1 for job in report.jobs
                                        if job.admission == DEGRADED_DECISION))):
        if count:
            rows.append([name, count])
    rows += _stack_rows(report, torn_writes=False)
    print(format_table(["metric", "value"], rows))
    return 0


def _stack_rows(record, torn_writes: bool = True) -> list:
    """The flash stack's rows of a run's or a service's metric table: the
    fault and crash counters when that injector was attached, then wear.
    The service table leaves torn writes out."""
    rows: list = []
    faults, crashes = record.faults, record.crashes
    if faults is not None:
        rows += [
            ["corrected bit errors", f"{faults.bits_corrected:,}"],
            ["read retries", f"{faults.read_retries:,}"],
            ["checksum recoveries", f"{faults.checksum_recoveries:,}"],
            ["retired blocks", f"{faults.blocks_retired:,}"],
        ]
    if crashes is not None:
        rows.append(["power losses", f"{crashes.power_losses:,}"])
        if torn_writes:
            rows.append(["torn writes", f"{crashes.torn_writes:,}"])
        rows.append(["remounts", f"{record.remounts:,}"])
    return rows + wear_rows(record.wear)


def _parse_quota(text: str):
    """``tenant=running/queued/point`` → (tenant, TenantQuota)."""
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


def _compare_names(flag: str, text: str, known) -> list[str]:
    """One ``compare`` list: at least one name, each of them known."""
    what = flag.removeprefix("--")
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if unknown or not names:
        problem = f"unknown {what}: {', '.join(unknown)}" if unknown \
            else f"{flag} names no {what}"
        raise ValueError(f"{problem} (known: {', '.join(known)})")
    return names


def cmd_compare(args) -> int:
    try:
        systems = _compare_names("--systems", args.systems, ALL_SYSTEMS)
        algorithms = _compare_names("--algorithms", args.algorithms, ALGORITHMS)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        results = run_matrix(systems, algorithms, args.dataset, scale=args.scale,
                             seed=args.seed)
    except (ValueError, MemoryError) as e:
        return _cannot_run(args, f"{','.join(systems)} {','.join(algorithms)}", e)
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
