"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

A and B are files written by ``run.py --out`` (each may hold many runs; A
is the parent or first set, B the change or second set; run *i* of A is
paired with run *i* of B, so collect them alternating which side goes
first).  One row per (workload, end-to-end metric):

* **worse** — B's median is worse than A's by more than the metric's bound
  in BENCHMARK.json;
* **unresolved** — the run-to-run spread (inter-quartile distance over the
  median, of either side) is wider than the bound, unless every B run beats
  every A run;
* **better** — at least ten pairs, B wins at least nine tenths of them
  (ties count for neither) and the medians differ by more than A's
  inter-quartile distance.  Nothing less is a gain;
* **within bound** — everything else.

Simulated metrics and per-layer counts repeat bit for bit at a fixed seed,
so for paired runs with equal seeds any difference is a **mismatch**.
The exit code is non-zero if any row is worse, unresolved or a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import trace as layer_trace  # noqa: E402  (this directory's trace.py)

MIN_PAIRS_FOR_CLAIM = 10
WIN_SHARE_FOR_CLAIM = 0.9
#: End-to-end metrics that are simulated, hence exact at a fixed seed.
EXACT_END_TO_END = ("sim_elapsed_s", "sim_flash_bytes")


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def load_bounds() -> dict:
    """``{metric: (bound, better)}`` from BENCHMARK.json."""
    root = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")
    with open(root, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    return iqr(values) / statistics.median(values)


def classify(a: list[float], b: list[float], bound: float, better: str,
             samples_a: list[float] | None = None,
             samples_b: list[float] | None = None) -> tuple[str, str]:
    """Status and detail of one noisy metric.  ``samples_*`` stand in for
    run-to-run values when a side has a single run (within-run samples)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a
    noise = max(spread(a if len(a) > 1 else samples_a or a),
                spread(b if len(b) > 1 else samples_b or b))
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    detail = (f"A {med_a:.6g} B {med_b:.6g} ({worse_by:+.1%} worse, bound "
              f"{bound:.0%}, spread {noise:.1%}, B wins {wins}/{len(pairs)})")
    if worse_by > bound:
        return "worse", detail
    clean_sweep = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if noise > bound and not clean_sweep:
        return "unresolved", detail
    if (len(pairs) >= MIN_PAIRS_FOR_CLAIM
            and wins >= WIN_SHARE_FOR_CLAIM * len(pairs)
            and abs(med_b - med_a) > iqr(a)):
        return "better", detail
    return "within bound", detail


def exact_rows(name: str, pairs: list[tuple[dict, dict]], key: str,
               metrics: list[str]) -> list[tuple[str, str, str, str]]:
    rows = []
    for metric in metrics:
        differing = [
            (ra["seed"], a[key][metric], b[key][metric])
            for (ra, a), (rb, b) in pairs
            if ra["seed"] == rb["seed"] and key in a and key in b
            and a[key][metric] != b[key][metric]]
        if differing:
            seed, va, vb = differing[0]
            rows.append((name, metric, "mismatch",
                         f"seed {seed}: A {va!r} B {vb!r} "
                         f"({len(differing)} of {len(pairs)} pairs differ)"))
        elif key == "end_to_end":
            rows.append((name, metric, "identical",
                         f"{len(pairs)} paired runs"))
    return rows


def compare(runs_a: list[dict], runs_b: list[dict]) -> list[tuple]:
    bounds = load_bounds()
    exact_layers = [m for m, (_, _, exact) in layer_trace.METRICS.items()
                    if exact]
    rows = []
    names = [n for n in runs_a[0]["workloads"] if n in runs_b[0]["workloads"]]
    for name in names:
        recs_a = [r["workloads"][name] for r in runs_a if name in r["workloads"]]
        recs_b = [r["workloads"][name] for r in runs_b if name in r["workloads"]]
        pairs = list(zip(zip(runs_a, recs_a), zip(runs_b, recs_b)))
        for metric, (bound, better) in bounds.items():
            if metric in EXACT_END_TO_END:
                continue
            a = [r["end_to_end"][metric] for r in recs_a]
            b = [r["end_to_end"][metric] for r in recs_b]
            samples = f"{metric}_samples"
            status, detail = classify(a, b, bound, better,
                                      recs_a[0].get(samples),
                                      recs_b[0].get(samples))
            rows.append((name, metric, status, detail))
        rows += exact_rows(name, pairs, "end_to_end", list(EXACT_END_TO_END))
        rows += exact_rows(name, pairs, "per_layer", exact_layers)
        failed_a = sum(r["failed"] for r in recs_a)
        failed_b = sum(r["failed"] for r in recs_b)
        rows.append((name, "failed_frac",
                     "worse" if failed_b else "identical",
                     f"A {failed_a} B {failed_b} failed operations"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.a), load_runs(args.b))
    for name, metric, status, detail in rows:
        print(f"{name:<12} {metric:<34} {status:<13} {detail}")
    bad = [r for r in rows if r[2] in ("worse", "unresolved", "mismatch")]
    print(f"{len(rows)} rows, {len(bad)} worse/unresolved/mismatch")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
