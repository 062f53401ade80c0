"""One measuring child: set up, execute the workload repeatedly, report.

run.py starts this file as a fresh process per (workload, role), so peak
RSS is the workload's own, the sort-reduce pool forks from a clean parent
and the process-global run-file counter starts at 0 — which is what makes
an execution's simulated metrics a function of its index alone.

A *set-up* child (``--setup-reps N``) only builds the inputs, cold, N times
into empty dataset caches and leaves the last build behind; every other
child loads that build warm, so its peak RSS is the executions', not the
graph generator's.  Execution 0 is the warm-up.  A *timing* child then times executions until
the measuring window is full; no instrumentation is ever installed in it.
A *trace* child runs exactly one more execution, traced; a FlashSan child
(``--sanitize 1 --min-reps 0``) stops after execution 0.  Every execution's
simulated metrics are reported, so run.py can check that tracing is a pure
observer by comparing executions at the same index across children.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, os.pardir, "src"), HERE]

import trace as layer_trace  # noqa: E402  (this directory's trace.py)
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """This process image's peak resident set.

    ``VmHWM`` rather than ``ru_maxrss``: the latter also folds in the
    image that called ``exec`` — a copy of run.py, which in a full run has
    grown past 400 MB verifying earlier workloads by the time it starts
    the later children.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, seed: int, cache_dir: str, reps: int) -> list[float]:
    """Build the inputs ``reps`` times, each into an empty dataset cache,
    and return the cold set-up times.  The last build lands in
    ``cache_dir`` itself, for the sibling children to load."""
    samples = []
    for rep in range(reps):
        target = cache_dir if rep == reps - 1 else f"{cache_dir}.cold{rep}"
        os.environ["REPRO_DATASET_CACHE"] = target
        start = perf_counter()
        workloads.make_inputs(workload, seed)
        samples.append(perf_counter() - start)
        if target != cache_dir:
            shutil.rmtree(target, ignore_errors=True)
    return samples


def record(workload, index: int, host_s: float, result, error: str = "",
           **extra) -> dict:
    """One execution's row.  The per-job detail rides on execution 0 only
    (verification reads it); later rows carry its hash."""
    if result is None:
        return {"index": index, "host_s": host_s, "error": error,
                "attempted": 1, "failed": 1, **extra}
    row = workloads.summarize(workload, result)
    jobs = row.pop("jobs")
    fingerprint = json.dumps(row.pop("fingerprint"), sort_keys=True)
    row["fingerprint"] = hashlib.sha1(fingerprint.encode()).hexdigest()
    if index == 0:
        row["jobs"] = jobs
    return {"index": index, "host_s": host_s, **row, **extra}


def run_one(workload, inputs, index: int, **kwargs) -> dict:
    # A CLI invocation starts with an empty heap.  Collect the previous
    # execution's garbage (a whole simulated device, in reference cycles)
    # outside the timed region, so no execution pays for, or holds the
    # memory of, its predecessor.
    gc.collect()
    start = perf_counter()
    try:
        result = workloads.execute(workload, inputs, **kwargs)
    except Exception as exc:   # an execution that raises is a failed operation
        traceback.print_exc()
        return record(workload, index, perf_counter() - start, None,
                      error=f"{type(exc).__name__}: {exc}")
    return record(workload, index, perf_counter() - start, result)


def run_traced(workload, inputs, index: int, spans_out: str | None):
    gc.collect()
    with layer_trace.traced(index) as tracer:
        try:
            result, error = workloads.execute(workload, inputs), ""
        except Exception as exc:
            traceback.print_exc()
            result, error = None, f"{type(exc).__name__}: {exc}"
    row = record(workload, index, tracer.host_s, result, error, traced=True)
    layers = layer_trace.layer_metrics(tracer)
    if spans_out:
        tracer.write_spans(spans_out)
    return row, layers, len(tracer.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--setup-reps", type=int, default=0,
                        help="set-up child: build cold this often, then stop")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--sanitize", type=int, default=0,
                        help="attach FlashSan in every execution")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--scale-log2", type=int, default=None,
                        help="override the dataset scale (self-test only)")
    args = parser.parse_args(argv)

    workload = workloads.resolve(args.workload, args.scale_log2)
    if args.setup_reps:
        samples = set_up(workload, args.seed, args.cache_dir, args.setup_reps)
        print(json.dumps({"setup_s": samples,
                          "setup_median_s": statistics.median(samples),
                          "peak_rss_mb": peak_rss_mb()}))
        return 0
    os.environ["REPRO_DATASET_CACHE"] = args.cache_dir
    inputs = workloads.make_inputs(workload, args.seed)
    rss_after_load = peak_rss_mb()

    sanitize = bool(args.sanitize)
    executions = [run_one(workload, inputs, 0, sanitize=sanitize)]
    out = {"workload": workload.name, "seed": args.seed}
    if args.trace:
        row, layers, span_count = run_traced(workload, inputs, 1,
                                             args.spans_out)
        executions.append(row)
        out.update(layers=layers, span_count=span_count)
    else:
        window_start = perf_counter()
        while (len(executions) - 1 < args.min_reps
               or perf_counter() - window_start < args.seconds):
            executions.append(run_one(workload, inputs, len(executions),
                                      sanitize=sanitize))
    out.update(
        executions=executions,
        rss_after_load_mb=rss_after_load,
        peak_rss_mb=peak_rss_mb(),
        vertices=inputs.graph.num_vertices,
        edges=inputs.graph.num_edges,
        jobs=inputs.jobs,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
