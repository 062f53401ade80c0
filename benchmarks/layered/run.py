"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/layered/run.py --seed 1            # everything
    python3 benchmarks/layered/run.py --workload bfs_sparse --trace 0
    python3 benchmarks/layered/run.py --workload bfs_sparse --trace 1

A closed loop with one client: workloads run one after another, each in
fresh child processes (child.py) that share one private, initially empty
dataset cache which is deleted afterwards.  ``--trace 0`` measures the
end-to-end metrics in a child that never sees instrumentation; ``--trace
1`` measures the per-layer metrics in a child whose second execution is
traced from outside (trace.py), next to an untraced twin and a FlashSan
twin.  Without ``--trace`` both are done.  Outputs are verified outside
every timed region (verify.py); any failed operation, wrong answer or
simulated-metric mismatch makes the exit code non-zero.

With ``--workload`` and ``--trace`` the last line of standard output is the
one-object JSON result (``correct``, ``attempted``, ``failed``, ``metrics``)
with the metrics BENCHMARK.json names.  BENCHMARK.json lists the workloads
the benchmark driver gates on; ``pr_dense_w2`` is run and reported here but
is too unsteady on two cores to be one of them (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
#: One workload's children must end within this; the driver allows one
#: invocation 180 s.
WORKLOAD_BUDGET_S = 170.0
MIN_TIMED_REPS = 5
SETUP_REPS = 5
#: Variables that would change what the program does; children never see them.
SCRUBBED_ENV = ("REPRO_WORKERS", "REPRO_MODE", "REPRO_SANITIZE",
                "REPRO_DATASET_CACHE", "REPRO_GRAPH_CACHE_BYTES")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(work_dir: str, deadline: float, **options) -> dict:
    """Start child.py, wait for it, and return the object it printed."""
    argv = [sys.executable, os.path.join(HERE, "child.py")]
    for key, value in options.items():
        if value is not None:
            argv += [f"--{key.replace('_', '-')}", str(value)]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    timeout = max(1.0, deadline - perf_counter())
    # Its own session, so a timeout can take the sort-reduce pool's forked
    # workers down together with the child.
    proc = subprocess.Popen(argv, env=env, cwd=work_dir, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:    # timeout, Ctrl-C, SIGTERM: leave nothing
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchmarkError(
                f"child timed out: {' '.join(argv[2:])}") from None
        raise
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited {proc.returncode}: "
                             f"{' '.join(argv[2:])}")
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def same_simulation(a: dict, b: dict) -> bool:
    return all(a.get(key) == b.get(key) for key in
               ("sim_elapsed_s", "sim_flash_bytes", "fingerprint"))


def measure(name: str, seed: int, seconds: float, trace: int | None,
            deadline: float, scale_log2: int | None = None,
            spans_dir: str | None = None) -> dict:
    """Run one workload's children and return its record.

    ``trace`` 0: end-to-end only; 1: per-layer only (the untraced twin runs
    the minimum two executions); None: both from one timing child.
    """
    # Imported here, after main() has checked that src/ exists.
    import verify
    import workloads

    workload = workloads.resolve(name, scale_log2)
    work_dir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    cache_dir = os.path.join(work_dir, "datasets")
    os.makedirs(work_dir)
    common = dict(workload=name, seed=seed, cache_dir=cache_dir,
                  scale_log2=scale_log2)
    problems: list[str] = []
    try:
        short = trace == 1
        setup = run_child(work_dir, deadline, **common,
                          setup_reps=1 if short else SETUP_REPS)
        timing = run_child(work_dir, deadline, **common,
                           seconds=0 if short else seconds,
                           min_reps=1 if short else MIN_TIMED_REPS)
        rows = timing["executions"]
        problems += verify.consistent(rows)
        timed = [r["host_s"] for r in rows[1:]]
        record = {
            "inputs": {"vertices": timing["vertices"],
                       "edges": timing["edges"], "jobs": timing["jobs"],
                       "steps": rows[0].get("steps")},
            "end_to_end": {
                "host_s": statistics.median(timed),
                "sim_elapsed_s": rows[0].get("sim_elapsed_s"),
                "sim_flash_bytes": rows[0].get("sim_flash_bytes"),
                "peak_rss_mb": timing["peak_rss_mb"],
                "setup_s": setup["setup_median_s"],
            },
            "host_s_samples": timed,
            "setup_s_samples": setup["setup_s"],
            "setup_rss_mb": setup["peak_rss_mb"],
            "rss_after_load_mb": timing["rss_after_load_mb"],
        }
        # Between fixed execution indices, so it is exact at a fixed seed
        # however many executions the window held.
        drift = 0.0
        if rows[0].get("sim_elapsed_s") and "sim_elapsed_s" in rows[1]:
            drift = rows[1]["sim_elapsed_s"] / rows[0]["sim_elapsed_s"] - 1.0
        record["sim_drift_rel"] = drift

        if trace != 0:
            traced = run_child(
                work_dir, deadline, **common, trace=1,
                spans_out=(os.path.join(spans_dir, f"{name}.spans.jsonl")
                           if spans_dir else None))
            sanitized = run_child(work_dir, deadline, **common,
                                  sanitize=1, min_reps=0)
            trows = traced["executions"]
            problems += verify.consistent(trows)
            # Tracing and FlashSan are pure observers: same execution index
            # in a fresh process, same simulated metrics and results.
            for index in (0, 1):
                if not same_simulation(trows[index], rows[index]):
                    problems.append(
                        f"trace child execution {index} "
                        f"({'traced' if index else 'untraced'}) does not "
                        f"reproduce the timing child's simulated metrics")
            if not same_simulation(sanitized["executions"][0], rows[0]):
                problems.append("FlashSan changed simulated metrics")
            layers = traced["layers"]
            layers["harness.trace_overhead_frac"] = (
                trows[1]["host_s"] / rows[1]["host_s"] - 1.0)
            layers["harness.sim_drift_rel"] = drift
            layers["flash.sanitizer.overhead_frac"] = (
                sanitized["executions"][0]["host_s"] / rows[0]["host_s"] - 1.0)
            record["per_layer"] = layers
            record["traced_host_s"] = trows[1]["host_s"]
            record["span_count"] = traced["span_count"]

        os.environ["REPRO_DATASET_CACHE"] = cache_dir   # warm: child built it
        inputs = workloads.make_inputs(workload, seed)
        problems += verify.verify(workload, inputs, rows[0])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass    # another invocation is still using it

    all_rows = rows + (trows if trace != 0 else [])
    attempted = sum(r["attempted"] for r in all_rows)
    failed = sum(r["failed"] for r in all_rows)
    record["attempted"] = attempted
    record["failed"] = min(attempted, failed + len(problems))
    record["problems"] = problems
    return record


# ------------------------------------------------------------------ printing

def print_record(name: str, record: dict, spec: dict) -> None:
    import trace as layer_trace

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.setdefault("sim_flash_bytes", "bytes")
    inputs = record["inputs"]
    print(f"== {name}: {inputs['vertices']} vertices, {inputs['edges']} "
          f"edges, {inputs['steps']} "
          f"{'rounds' if inputs['jobs'] else 'supersteps'}"
          + (f", {len(inputs['jobs'])} jobs" if inputs["jobs"] else ""))
    timed = record["host_s_samples"]
    q1, q3 = quartiles(timed)
    notes = {
        "host_s": (f"median of {len(timed)} timed executions; q1 {q1:.4f} "
                   f"q3 {q3:.4f} min {min(timed):.4f} max {max(timed):.4f}"),
        "sim_elapsed_s": "execution 0 of a fresh process",
        "sim_flash_bytes": "execution 0 of a fresh process",
        "peak_rss_mb": (f"timing child VmHWM; "
                        f"{record['rss_after_load_mb']:.1f} after loading "
                        f"the inputs warm"),
        "setup_s": (f"median of {len(record['setup_s_samples'])} cold "
                    f"input builds in a set-up child, which peaked at "
                    f"{record['setup_rss_mb']:.1f} MB"),
    }
    for metric, value in record["end_to_end"].items():
        clock = "simulated" if metric.startswith("sim_") else "host"
        print(f"  {metric:<42} {value!r:>24} {units[metric]:<6} [{clock}] "
              f"{notes[metric]}")
    print(f"  {'failed_frac':<42} "
          f"{record['failed'] / record['attempted']!r:>24} {'ratio':<6} "
          f"{record['failed']} failed of {record['attempted']} attempted")
    print(f"  {'harness.sim_drift_rel':<42} {record['sim_drift_rel']!r:>24} "
          f"{'ratio':<6} [simulated] sim_elapsed_s, execution 0 -> 1")
    if "per_layer" in record:
        print(f"  -- per layer, from the traced execution "
              f"({record['traced_host_s']:.4f} s host, "
              f"{record['span_count']} spans)")
        for metric, value in record["per_layer"].items():
            unit, _, exact = layer_trace.METRICS[metric]
            clock = "simulated/count" if exact else "host"
            print(f"  {metric:<42} {value!r:>24} {unit:<6} [{clock}]")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def driver_line(record: dict, spec: dict, trace: int) -> str:
    key = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": record[key][m["name"]], "unit": m["unit"]}
               for m in spec[key]}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            capture_output=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1,
                        help="dataset and job-mix seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this run to FILE for compare.py")
    parser.add_argument("--spans-dir", default=None, metavar="DIR",
                        help="keep each traced execution's spans as "
                             "DIR/<workload>.spans.jsonl")
    parser.add_argument("--scale-log2", type=int, default=None,
                        help=argparse.SUPPRESS)     # self-test: tiny graphs
    args = parser.parse_args(argv)
    # Die like Ctrl-C on SIGTERM, so children and the work directory go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro next to BENCHMARK.json — nothing to "
              "measure", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload: choose from {', '.join(names)}")
    if args.spans_dir:
        os.makedirs(args.spans_dir, exist_ok=True)
        args.spans_dir = os.path.abspath(args.spans_dir)
    driver_mode = args.workload is not None and args.trace is not None

    run = {"environment": environment(), "seed": args.seed,
           "seconds": args.seconds, "workloads": {}}
    print(f"# seed {args.seed}, {args.seconds:g} s window, "
          + ", ".join(f"{k} {v}" for k, v in run["environment"].items()))
    print("# [host] = this sandbox's wall clock; [simulated] = the cost "
          "model's clock and counters, exact at a fixed seed")
    failed = False
    for name in [args.workload] if args.workload else names:
        try:
            record = measure(name, args.seed, args.seconds, args.trace,
                             scale_log2=args.scale_log2,
                             spans_dir=args.spans_dir,
                             deadline=perf_counter() + WORKLOAD_BUDGET_S)
        except BenchmarkError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 3
        run["workloads"][name] = record
        print_record(name, record, spec)
        failed = failed or record["failed"] > 0
    if args.out:
        history = {"runs": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                history = json.load(fh)
        history["runs"].append(run)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1)
    if driver_mode:
        print(driver_line(run["workloads"][args.workload], spec, args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
