"""Plain-text table/series formatting for the benchmark harness.

The benchmark files regenerate the paper's tables and figures as text: tables
become aligned rows, figures become series of (x, y) points.  Keeping the
formatting in one place makes every bench print comparable output.
"""

from __future__ import annotations

from typing import Sequence

#: Most rows :func:`superstep_timeline` prints.
TIMELINE_ROWS = 20


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned ASCII table.

    >>> print(format_table(["name", "n"], [["a", 1], ["bb", 22]]))
    name | n
    -----+---
    a    | 1
    bb   | 22
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN marks DNF entries
            return "DNF"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def normalize_series(values: Sequence[float], baseline: float) -> list[float]:
    """Normalize performance values against a baseline time.

    The paper's Fig 12/13a plot *performance* normalized to GraFSoft, i.e.
    ``baseline_time / system_time`` — higher is faster.  DNF entries (NaN or
    non-positive) normalize to 0.0, matching the "x" marks in the figures.
    """
    if baseline <= 0:
        raise ValueError(f"baseline time must be positive, got {baseline}")
    out = []
    for v in values:
        if v is None or v != v or v <= 0:
            out.append(0.0)
        else:
            out.append(baseline / v)
    return out


def superstep_timeline(supersteps) -> str:
    """Per-superstep breakdown table from a run's SuperstepMetrics list.

    Long runs (the WDC BFS tail has hundreds of supersteps) are sampled
    down to ``TIMELINE_ROWS`` rows: evenly spaced ones plus the last.
    """
    if not supersteps:
        return "(no supersteps)"
    steps = list(supersteps)
    if len(steps) > TIMELINE_ROWS:
        stride = len(steps) / (TIMELINE_ROWS - 1)
        picked = [steps[int(i * stride)] for i in range(TIMELINE_ROWS - 1)]
        picked.append(steps[-1])
        steps = picked
    rows = []
    for s in steps:
        rows.append([
            s.superstep,
            f"{s.activated:,}",
            f"{s.traversed_edges:,}",
            f"{s.update_pairs:,}",
            f"{s.reduced_pairs:,}",
            f"{s.elapsed_s * 1000:.3f}",
            human_bytes(s.flash_bytes),
            getattr(s, "mode", "sortreduce"),
        ])
    return format_table(
        ["step", "active", "edges", "updates", "reduced", "ms", "flash", "mode"],
        rows, title="Per-superstep timeline")


def mode_trace_summary(trace: Sequence[str],
                       phases: Sequence[tuple[str, int]] | None = None) -> str:
    """Run-length-compressed execution-mode trace.

    ``phases`` labels consecutive segments of a multi-phase trace by
    ``(label, length)`` — e.g. betweenness centrality's forward BFS plus its
    backtracing passes — so neither phase silently vanishes from reports.

    >>> mode_trace_summary(["densescan", "densescan", "sortreduce"])
    'densescan x2 -> sortreduce x1'
    >>> mode_trace_summary(["densescan", "sortreduce"],
    ...                    phases=[("forward", 1), ("backtrace", 1)])
    'forward: densescan x1 | backtrace: sortreduce x1'
    """
    if not trace:
        return "(none)"
    if phases:
        if sum(n for _, n in phases) != len(trace):
            raise ValueError(
                f"phase lengths {[n for _, n in phases]} do not cover a "
                f"trace of {len(trace)} supersteps")
        parts = []
        start = 0
        for label, length in phases:
            segment = trace[start:start + length]
            parts.append(f"{label}: {mode_trace_summary(segment)}")
            start += length
        return " | ".join(parts)
    parts = []
    current = trace[0]
    count = 0
    for mode in trace:
        if mode == current:
            count += 1
        else:
            parts.append(f"{current} x{count}")
            current, count = mode, 1
    parts.append(f"{current} x{count}")
    return " -> ".join(parts)


def wear_rows(wear) -> list[tuple[str, str]]:
    """Device-wear rows for the CLI's metric tables.

    ``wear`` is a :class:`repro.flash.wear.WearReport` (or None for systems
    without a simulated device — then no rows).
    """
    if wear is None:
        return []
    rows = [
        ("device_bytes_written", human_bytes(wear.bytes_written)),
        ("device_lifetime_left", f"{wear.lifetime_writes_remaining:.1%}"),
        ("wear_evenness", f"{wear.wear_evenness():.3f}"),
    ]
    if wear.bad_blocks:
        rows.append(("bad_blocks", str(wear.bad_blocks)))
    return rows


def default_results_dir() -> str:
    """``benchmarks/results`` under the repository root, regardless of CWD."""
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[3]
    return str(repo_root / "benchmarks" / "results")


def emit_results(name: str, text: str) -> str:
    """Print a benchmark's regenerated table/figure and persist it.

    Benchmarks both print (visible with ``pytest -s``) and write to
    ``benchmarks/results/<name>.txt`` under the repo root — anchored there
    (not CWD) so running benches from any directory lands artifacts in one
    place.  Returns the file path.
    """
    import os

    directory = default_results_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text.rstrip() + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


def human_bytes(nbytes: float) -> str:
    """Human-readable byte count (``1536`` → ``'1.5 KB'``)."""
    units = ["B", "KB", "MB", "GB", "TB", "PB"]
    value = float(nbytes)
    for unit in units:
        if abs(value) < 1024 or unit == units[-1]:
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def human_seconds(seconds: float) -> str:
    """Human-readable duration (``90`` → ``'1m30s'``)."""
    if seconds != seconds:
        return "DNF"
    if seconds < 1:
        return f"{seconds * 1000:.1f}ms"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{int(minutes)}m{int(secs)}s"
    hours, minutes = divmod(minutes, 60)
    return f"{int(hours)}h{int(minutes)}m"
