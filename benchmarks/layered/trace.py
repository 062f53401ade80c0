"""Per-layer spans and counters, recorded from outside the program.

Nothing under ``src/`` knows about tracing.  :func:`traced` patches, for the
duration of one execution, the public calls of each layer with
``perf_counter`` wrappers (class attributes on the class; module-level
functions in every ``repro`` module that imported them), records one span
per call — and one per ``next()`` for calls that return a generator, whose
work happens while the consumer iterates — and restores every original on
exit.  Spans are ``(name, start, end, parent, execution)`` and stay in
memory until the child ends.

A layer's *self time* is its spans' duration minus the part covered by
spans they caused, so layer self times plus the time under no span
(``harness.untraced_residual_s``) add up to the execution's host time.

Counters are read at the same boundaries: from call arguments and return
values (bytes appended, records sorted) and, after the execution, from the
public attributes of the objects the wrapped constructors returned
(``FlashDevice.total_pages_*``, ``SimClock``, ``PageMappedFTL.gc_*``,
``FlashCSR.wasted_read_bytes``, ``RunResult.sort_stats`` ...).

Per-record hot calls (``SimClock.charge``, ``ReduceOp``) are deliberately
not wrapped: the wrappers cost ~1 us per call and would dominate them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer, "module:Class" or "module", wrapped attribute names)
WRAPPED = (
    ("flash.device", "repro.flash.device:FlashDevice",
     ("read_page", "read_pages", "write_page", "write_pages", "erase_block",
      "mount_scan")),
    ("flash.ftl", "repro.flash.ftl:SSD", ("read_pages", "write_pages", "trim")),
    ("flash.ftl", "repro.flash.ftl:PageMappedFTL", ("write_many", "read")),
    ("flash.filestore", "repro.flash.filestore:SSDFileSystem",
     ("create", "append", "seal", "write_at", "read", "stream", "delete",
      "rename")),
    ("flash.aoffs", "repro.flash.aoffs:AppendOnlyFlashFS",
     ("create", "append", "seal", "read", "stream", "delete", "rename")),
    ("core.kvstream", "repro.core.kvstream:KVArray",
     ("sorted", "concat", "to_bytes", "from_bytes")),
    ("core.inmemory", "repro.core.inmemory", ("sort_reduce_in_memory",)),
    ("core.merger", "repro.core.merger:StreamingMergeReducer", ("merge",)),
    ("core.merger", "repro.core.merger", ("merge_reduce_arrays",)),
    ("core.external", "repro.core.external:ExternalSortReducer",
     ("add", "finish", "close")),
    ("core.external", "repro.core.external:RunHandle", ("chunks", "read_all")),
    ("core.parallel", "repro.core.parallel:SortReducePool",
     ("merge_reduce", "sort_reduce_chunk", "submit_chunk_sort", "collect",
      "shutdown")),
    ("graph.formats", "repro.graph.formats:FlashCSR",
     ("write", "index_lookup", "edges_for", "weights_for", "stream_edges")),
    ("graph.vertexdata", "repro.graph.vertexdata:VertexArray",
     ("stage", "read_values", "scan", "compact", "maybe_compact",
      "final_values")),
    ("graph.vertexdata", "repro.graph.vertexdata:VertexScanCursor", ("lookup",)),
    ("graph.vertexdata", "repro.graph.vertexdata:OverlayWriter",
     ("add", "close")),
    ("engine.engine", "repro.engine.engine:GraFBoostEngine", ("start", "run")),
    ("engine.engine", "repro.engine.engine:EngineRun", ("step", "finish")),
    ("engine.config", "repro.engine.config", ("make_system",)),
    ("engine.config", "repro.engine.config:SystemConfig",
     ("load_graph", "engine_for", "service_for")),
    ("algorithms", "repro.algorithms.pagerank", ("run_pagerank",)),
    ("algorithms", "repro.algorithms.bfs", ("run_bfs",)),
    ("service.scheduler", "repro.service.scheduler:GraphService",
     ("submit_all", "run")),
    ("service.queries", "repro.service.queries",
     ("run_point_batch", "read_vstate")),
    ("service.admission", "repro.service.admission:AdmissionController",
     ("decide_analytics", "decide_point", "admit_analytics", "admit_point")),
)
# engine.modes: ``run_superstep`` of every ExecutionMode subclass, found at
# install time so a new mode is traced without editing this file.
MODES_BASE = "repro.engine.modes:ExecutionMode"

LAYERS = tuple(dict.fromkeys([layer for layer, _, _ in WRAPPED]
                             + ["engine.modes"]))


def _count_appended(tracer, args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    tracer.counters["bytes_appended"] += len(data)


def _count_read(tracer, args, kwargs, result):
    tracer.counters["bytes_read"] += len(result)


def _count_sorted(tracer, args, kwargs, result):
    tracer.counters["records_sorted"] += len(args[0])


def _overlay_depth(tracer, args, kwargs, result):
    depth = args[0].array.overlay_depth
    if depth > tracer.counters["overlay_depth_max"]:
        tracer.counters["overlay_depth_max"] = depth


def _capture(key):
    def observe(tracer, args, kwargs, result):
        tracer.captured[key].append(result)
    return observe


# Observers run after the span has closed, so their cost lands in the
# caller's self time, never in the observed layer's.
OBSERVERS = {
    "SSDFileSystem.append": _count_appended,
    "AppendOnlyFlashFS.append": _count_appended,
    "SSDFileSystem.read": _count_read,
    "AppendOnlyFlashFS.read": _count_read,
    "KVArray.sorted": _count_sorted,
    "OverlayWriter.close": _overlay_depth,
    "make_system": _capture("system"),
    "FlashCSR.write": _capture("flash_csr"),
    "EngineRun.finish": _capture("run_result"),
    "GraphService.run": _capture("service_report"),
}


class Tracer:
    """Span store and open-span stack of one traced execution."""

    def __init__(self, execution: int):
        self.execution = execution
        self.names: list[str] = []
        #: One ``(name id, start, end, parent span index)`` per closed span;
        #: the slot is reserved when the span opens so a parent's index is
        #: known to its children.  Index 0 is the execution itself.
        self.spans: list = [None]
        #: Open spans, innermost last: ``[span index, seconds covered by
        #: closed child spans]``.
        self.stack: list = [[0, 0.0]]
        #: Per name id: ``[calls, total seconds, self seconds]``.
        self.totals: list = []
        self.counters: dict = defaultdict(int)
        self.captured: dict = defaultdict(list)
        self.start = 0.0
        self.end = 0.0

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.totals.append([0, 0.0, 0.0])
        return len(self.names) - 1

    # -------------------------------------------------------------- wrappers

    def wrap(self, fn, name: str, observe=None):
        """A wrapper recording one span per call of ``fn`` (per ``next()``
        if ``fn`` is a generator function)."""
        nid = self.name_id(name)
        spans, stack, total = self.spans, self.stack, self.totals[nid]

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                total[0] += 1
                try:
                    while True:
                        index = len(spans)
                        spans.append(None)
                        frame = [index, 0.0]
                        stack.append(frame)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            t1 = perf_counter()
                            stack.pop()
                            parent = stack[-1]
                            parent[1] += t1 - t0
                            spans[index] = (nid, t0, t1, parent[0])
                            total[1] += t1 - t0
                            total[2] += t1 - t0 - frame[1]
                        yield item
                finally:
                    inner.close()
            traced_generator.__wrapped__ = fn
            return traced_generator

        def traced_call(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent = stack[-1]
                parent[1] += t1 - t0
                spans[index] = (nid, t0, t1, parent[0])
                total[0] += 1
                total[1] += t1 - t0
                total[2] += t1 - t0 - frame[1]

        if observe is None:
            traced_call.__wrapped__ = fn
            return traced_call

        def observed_call(*args, **kwargs):
            result = traced_call(*args, **kwargs)
            observe(self, args, kwargs, result)
            return result
        observed_call.__wrapped__ = fn
        return observed_call

    # --------------------------------------------------------------- results

    @property
    def host_s(self) -> float:
        return self.end - self.start

    @property
    def residual_s(self) -> float:
        """Host time of the execution spent under no layer span."""
        return self.host_s - self.stack[0][1]

    def by_layer(self) -> dict:
        """``{layer: {"calls", "host_self_s"}}`` summed over the layer's
        wrapped names."""
        out = {layer: {"calls": 0, "host_self_s": 0.0} for layer in LAYERS}
        for name, (calls, _total, self_s) in zip(self.names, self.totals):
            row = out[name.split(":", 1)[0]]
            row["calls"] += calls
            row["host_self_s"] += self_s
        return out

    def total_of(self, name: str) -> tuple:
        """``(calls, total seconds, self seconds)`` of one wrapped name."""
        return tuple(self.totals[self.names.index(name)])

    def write_spans(self, path: str) -> None:
        """One JSON line per span; ``parent`` is a line number (0 = the
        execution span, written first)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "name": "execution", "start": self.start, "end": self.end,
                "parent": None, "execution": self.execution}) + "\n")
            names, execution = self.names, self.execution
            for span in self.spans[1:]:
                if span is None:      # opened but never closed: crashed run
                    out.write("null\n")
                    continue
                nid, t0, t1, parent = span
                out.write('{"name": "%s", "start": %r, "end": %r, '
                          '"parent": %d, "execution": %d}\n'
                          % (names[nid], t0, t1, parent, execution))


# ------------------------------------------------------------------ patching

def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def _all_subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _patch_method(tracer, undo, layer, cls, attr):
    raw = cls.__dict__[attr]
    label = f"{cls.__name__}.{attr}"
    observe = OBSERVERS.get(label)
    name = f"{layer}:{label}"
    if isinstance(raw, staticmethod):
        patched = staticmethod(tracer.wrap(raw.__func__, name, observe))
    elif isinstance(raw, classmethod):
        patched = classmethod(tracer.wrap(raw.__func__, name, observe))
    else:
        patched = tracer.wrap(raw, name, observe)
    setattr(cls, attr, patched)
    undo.append((cls, attr, raw))


def _patch_function(tracer, undo, layer, module, attr):
    original = getattr(module, attr)
    patched = tracer.wrap(original, f"{layer}:{attr}", OBSERVERS.get(attr))
    # ``from x import f`` copies the reference: patch every holder.
    for holder_name in sorted(sys.modules):
        if holder_name != "repro" and not holder_name.startswith("repro."):
            continue
        holder = sys.modules[holder_name]
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, patched)
                undo.append((holder, key, original))


def install(tracer: Tracer) -> list:
    """Patch every layer call; returns the undo list for :func:`uninstall`."""
    # Import the whole program first so every module holding a reference
    # to a wrapped function is in ``sys.modules`` when we look for holders.
    importlib.import_module("repro.harness")
    importlib.import_module("repro.service")
    undo: list = []
    for layer, target, attrs in WRAPPED:
        module, cls = _resolve(target)
        for attr in attrs:
            if cls is None:
                _patch_function(tracer, undo, layer, module, attr)
            else:
                _patch_method(tracer, undo, layer, cls, attr)
    _, base = _resolve(MODES_BASE)
    for cls in _all_subclasses(base):
        if "run_superstep" in cls.__dict__:
            _patch_method(tracer, undo, "engine.modes", cls, "run_superstep")
    return undo


def uninstall(undo: list) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


@contextmanager
def traced(execution: int):
    """Trace the body as one execution: install, time, uninstall."""
    tracer = Tracer(execution)
    undo = install(tracer)
    try:
        tracer.start = perf_counter()
        try:
            yield tracer
        finally:
            tracer.end = perf_counter()
            tracer.spans[0] = (-1, tracer.start, tracer.end, -1)
    finally:
        uninstall(undo)


# ------------------------------------------------------------------- metrics

# name -> (unit, better, exact).  ``exact`` marks counts and simulated
# quantities, which repeat bit for bit at a fixed seed and commit;
# compare.py requires them to match, host times only to stay within bounds.
_HOST = ("s", "lower", False)
_COUNT = ("count", "lower", True)
METRICS = {
    "flash.device.host_self_s": _HOST,
    "flash.device.calls": _COUNT,
    "flash.device.pages_read": _COUNT,
    "flash.device.pages_written": _COUNT,
    "flash.device.blocks_erased": _COUNT,
    "flash.device.sim_busy_s": ("sim_s", "lower", True),
    "flash.device.sim_bytes": ("bytes", "lower", True),
    "flash.ftl.host_self_s": _HOST,
    "flash.ftl.calls": _COUNT,
    "flash.ftl.write_amp": ("ratio", "lower", True),
    "flash.ftl.gc_runs": _COUNT,
    "flash.ftl.gc_relocations": _COUNT,
    "flash.filestore.host_self_s": _HOST,
    "flash.filestore.calls": _COUNT,
    "flash.filestore.bytes_appended": ("bytes", "lower", True),
    "flash.filestore.bytes_read": ("bytes", "lower", True),
    "flash.aoffs.host_self_s": _HOST,
    "flash.aoffs.calls": _COUNT,
    "flash.aoffs.bytes_appended": ("bytes", "lower", True),
    "flash.aoffs.bytes_read": ("bytes", "lower", True),
    "core.kvstream.host_self_s": _HOST,
    "core.kvstream.calls": _COUNT,
    "core.kvstream.records_sorted": _COUNT,
    "core.inmemory.host_self_s": _HOST,
    "core.inmemory.calls": _COUNT,
    "core.merger.host_self_s": _HOST,
    "core.merger.calls": _COUNT,
    "core.external.host_self_s": _HOST,
    "core.external.calls": _COUNT,
    "core.external.pairs_in": _COUNT,
    "core.external.pairs_out": _COUNT,
    "core.external.reduction_ratio": ("ratio", "higher", True),
    "core.external.merge_phases": _COUNT,
    "core.parallel.host_self_s": _HOST,
    "core.parallel.calls": _COUNT,
    "graph.formats.host_self_s": _HOST,
    "graph.formats.calls": _COUNT,
    "graph.formats.wasted_read_frac": ("ratio", "lower", True),
    "graph.vertexdata.host_self_s": _HOST,
    "graph.vertexdata.calls": _COUNT,
    "graph.vertexdata.overlay_depth_max": _COUNT,
    "engine.modes.host_self_s": _HOST,
    "engine.modes.calls": _COUNT,
    "engine.modes.mode_switches": _COUNT,
    "engine.engine.host_self_s": _HOST,
    "engine.engine.supersteps": _COUNT,
    "engine.engine.host_us_per_superstep": ("us", "lower", False),
    "engine.engine.host_ns_per_edge": ("ns", "lower", False),
    "engine.config.host_self_s": _HOST,
    "algorithms.host_self_s": _HOST,
    "service.scheduler.host_self_s": _HOST,
    "service.scheduler.rounds": _COUNT,
    "service.scheduler.jobs_done": ("count", "higher", True),
    "service.queries.host_self_s": _HOST,
    "service.queries.calls": _COUNT,
    "service.admission.calls": _COUNT,
    "service.admission.rejections": _COUNT,
    "perf.clock.sim_cpu_busy_s": ("sim_s", "lower", True),
    "perf.clock.sim_flash_util": ("ratio", "higher", True),
    "perf.memory.sim_peak_bytes": ("bytes", "lower", True),
    "harness.trace_overhead_frac": ("ratio", "lower", False),
    "harness.untraced_residual_s": _HOST,
    "harness.sim_drift_rel": ("ratio", "lower", True),
    "flash.sanitizer.overhead_frac": ("ratio", "lower", False),
}
# Filled in by run.py, which alone sees both children.
CROSS_CHILD_METRICS = ("harness.trace_overhead_frac", "harness.sim_drift_rel",
                       "flash.sanitizer.overhead_frac")


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric one traced execution can supply, by name.

    Layers the workload never enters report zero calls and zero time, so
    "this layer is bypassed here" is a number, not a missing key.
    """
    layers = tracer.by_layer()
    out = {}
    for layer, row in layers.items():
        out[f"{layer}.host_self_s"] = row["host_self_s"]
        out[f"{layer}.calls"] = row["calls"]
    counters = tracer.counters
    store_layer = "flash.filestore"

    systems = tracer.captured["system"]
    system = systems[-1] if systems else None
    if system is not None:
        device, clock = system.device, system.clock
        out["flash.device.pages_read"] = device.total_pages_read
        out["flash.device.pages_written"] = device.total_pages_written
        out["flash.device.blocks_erased"] = device.total_blocks_erased
        out["flash.device.sim_busy_s"] = clock.busy_s("flash")
        out["flash.device.sim_bytes"] = clock.bytes_moved("flash")
        out["perf.clock.sim_cpu_busy_s"] = (clock.busy_s("cpu")
                                            + clock.busy_s("accel"))
        out["perf.clock.sim_flash_util"] = clock.utilization("flash")
        out["perf.memory.sim_peak_bytes"] = system.memory.peak
        ssd = getattr(system.store, "ssd", None)
        if ssd is None:
            store_layer = "flash.aoffs"
        else:
            out["flash.ftl.write_amp"] = ssd.ftl.write_amplification
            out["flash.ftl.gc_runs"] = ssd.ftl.gc_runs
            out["flash.ftl.gc_relocations"] = ssd.ftl.gc_relocations
    out[f"{store_layer}.bytes_appended"] = counters["bytes_appended"]
    out[f"{store_layer}.bytes_read"] = counters["bytes_read"]
    out["core.kvstream.records_sorted"] = counters["records_sorted"]
    out["graph.vertexdata.overlay_depth_max"] = counters["overlay_depth_max"]

    wasted = sum(g.wasted_read_bytes for g in tracer.captured["flash_csr"])
    if counters["bytes_read"]:
        out["graph.formats.wasted_read_frac"] = wasted / counters["bytes_read"]

    results = tracer.captured["run_result"]
    pairs_in = pairs_out = merge_phases = switches = 0
    for result in results:
        for stats in result.sort_stats:
            phases = stats.phases
            pairs_in += stats.total_input_pairs
            pairs_out += stats.final_pairs
            merge_phases += max(0, len(phases) - 1)
        modes = result.mode_trace
        switches += sum(1 for a, b in zip(modes, modes[1:]) if a != b)
    out["core.external.pairs_in"] = pairs_in
    out["core.external.pairs_out"] = pairs_out
    if pairs_in:
        out["core.external.reduction_ratio"] = 1.0 - pairs_out / pairs_in
    out["core.external.merge_phases"] = merge_phases
    out["engine.modes.mode_switches"] = switches
    supersteps = sum(r.num_supersteps for r in results)
    edges = sum(r.total_traversed_edges for r in results)
    step_s = tracer.total_of("engine.engine:EngineRun.step")[1]
    out["engine.engine.supersteps"] = supersteps
    if supersteps:
        out["engine.engine.host_us_per_superstep"] = step_s / supersteps * 1e6
    if edges:
        out["engine.engine.host_ns_per_edge"] = step_s / edges * 1e9

    for report in tracer.captured["service_report"]:
        out["service.scheduler.rounds"] = report.rounds
        out["service.scheduler.jobs_done"] = len(report.jobs_by_state("done"))
        out["service.admission.rejections"] = report.rejections
    out["harness.untraced_residual_s"] = tracer.residual_s

    full = {name: 0 for name in METRICS if name not in CROSS_CHILD_METRICS}
    full.update({k: v for k, v in out.items() if k in METRICS})
    return full
