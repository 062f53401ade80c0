"""The one driver every baseline model runs on, its charging helpers and
the did-not-finish protocol.

The paper's figures contain several kinds of failure — GraphLab exceeding
memory, FlashGraph thrashing until "stopped manually", X-Stream's projected
"23 days" on WDC BFS — all rendered as missing bars or ``*`` marks.  A
baseline run therefore ends in one of three ways: completed, refused up
front (out of memory or vertex id space), or cut off (simulated time
exceeded the experiment's patience, like stopping a run by hand).

:class:`BaselineEngine` runs BFS, PageRank and BC once, over
:mod:`repro.baselines.kernels`, and owns the start clock, the cutoff scope,
the superstep and traversed-edge counts and the three result shapes, each
a :class:`~repro.perf.outcome.WorkloadResult` like the harness's.  A model
is a subclass that answers only cost hooks:

* :meth:`~BaselineEngine.refusal` — why the run cannot start, or ``None``;
* :meth:`~BaselineEngine.setup` — untimed preparation;
* :meth:`~BaselineEngine.load` — timed preparation;
* :meth:`~BaselineEngine.charge_superstep` — one superstep, from the
  frontier size, edges read, vertices updated and vertex-state accesses;
* :meth:`~BaselineEngine.charge_backtrace` — BC's backtrace, from the BFS
  level sizes, deepest level first;
* :meth:`~BaselineEngine.peak_memory` — the footprint the result reports.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import ANALYTICS
from repro.algorithms.bfs import UNVISITED, expand_level
from repro.baselines import kernels
from repro.graph.csr import CSRGraph
from repro.graph.formats import gather_ranges
from repro.perf.clock import SimClock
from repro.perf.outcome import WorkloadResult
from repro.perf.profiles import HardwareProfile

#: Sentinel patience: never cut a run off.
DNF_CUTOFF_UNLIMITED = float("inf")


class RunCutoff(Exception):
    """Raised internally when a run exceeds the experiment's patience."""


class BaselineEngine:
    """One storage strategy's costs over the shared BFS, PageRank and BC.

    The charging helpers translate strategy-level traffic (sequential
    scans, random page reads, CPU streaming) into clock charges consistent
    with the device model; each checks the patience after charging.
    """

    name = "baseline"

    def __init__(self, graph: CSRGraph, profile: HardwareProfile,
                 cutoff_s: float = DNF_CUTOFF_UNLIMITED):
        self.graph = graph
        self.profile = profile
        self.clock = SimClock()
        self.cutoff_s = cutoff_s
        self._supersteps = 0
        self._traversed = 0

    # ------------------------------------------------------------- hooks

    def refusal(self, algorithm: str) -> str | None:
        """The DNF reason if ``algorithm`` cannot start at all."""
        return None

    def setup(self, algorithm: str) -> None:
        """Preparation charged before the run's clock starts."""

    def load(self, algorithm: str) -> None:
        """Preparation charged as part of the run's time."""

    def charge_superstep(self, algorithm: str, frontier: int, edges: int,
                         updated: int, accesses: int) -> None:
        """One superstep: ``frontier`` active vertices read ``edges`` edges,
        ``updated`` vertices change value, ``accesses`` vertex-state slots
        are touched."""
        raise NotImplementedError

    def charge_backtrace(self, algorithm: str, level_sizes: list[int]) -> None:
        """BC's backtrace, one pass per BFS level (deepest first), each
        reading that level's tree edges."""
        for size in level_sizes:
            self.charge_superstep(algorithm, 0, size, 0, 0)

    def peak_memory(self, algorithm: str) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------ algorithms

    def run_bfs(self, root: int) -> WorkloadResult:
        return self.run("bfs", root=root)

    def run(self, algorithm: str, root: int = 0, iterations: int = 1) -> WorkloadResult:
        """Run ``algorithm`` (``bfs``, ``pagerank`` or ``bc``) under this
        model's costs; ``root`` is the BFS/BC source."""
        analytic = ANALYTICS.get(algorithm)
        if analytic is None or analytic.baseline_state_bytes is None:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self._supersteps = self._traversed = 0
        reason = self.refusal(algorithm)
        if reason is not None:
            return self._result(algorithm, dnf_reason=reason)
        try:
            self.setup(algorithm)
            start = self.clock.elapsed_s
            self.load(algorithm)
            if algorithm == "pagerank":
                values = self._pagerank(iterations)
            else:
                values, levels = self._bfs(algorithm, root)
                if algorithm == "bc":
                    values = kernels.bc_backtrace(levels, values)
                    self.charge_backtrace(algorithm, [len(v) for v in levels[::-1]])
        except RunCutoff as cut:
            return self._result(algorithm, dnf_reason=str(cut))
        return self._result(algorithm, values, self.clock.elapsed_s - start)

    def _bfs(self, algorithm: str, root: int):
        """Level-synchronous BFS: the parent array and each level's
        vertices, which the BC backtrace walks."""
        graph = self.graph
        parents = np.full(graph.num_vertices, UNVISITED, dtype=np.uint64)
        parents[root] = root
        visited = np.zeros(graph.num_vertices, dtype=bool)
        visited[root] = True
        frontier = np.array([root], dtype=np.int64)
        levels = [frontier]
        while len(frontier):
            active = len(frontier)
            starts = graph.offsets[frontier].astype(np.int64)
            degrees = graph.offsets[frontier + 1].astype(np.int64) - starts
            targets = gather_ranges(graph.targets, starts, degrees).astype(np.int64)
            frontier, found_by = expand_level(frontier, degrees, targets, visited)
            parents[frontier] = found_by
            self._superstep(algorithm, active, len(targets), len(frontier),
                            active + len(frontier))
            if len(frontier):
                levels.append(frontier)
        return parents, levels

    def _pagerank(self, iterations: int) -> np.ndarray:
        graph = self.graph
        n = graph.num_vertices
        rank = np.full(n, 1.0 / n)
        degrees = graph.out_degrees().astype(np.float64)
        has_inbound = np.zeros(n, dtype=bool)
        has_inbound[graph.targets.astype(np.int64)] = True
        for _ in range(iterations):
            rank = kernels.pagerank_iteration(graph, rank, degrees, has_inbound)
            self._superstep("pagerank", n, graph.num_edges, n, n)
        return rank

    def _superstep(self, algorithm: str, frontier: int, edges: int,
                   updated: int, accesses: int) -> None:
        self._supersteps += 1
        self._traversed += edges
        self.charge_superstep(algorithm, frontier, edges, updated, accesses)

    def _result(self, algorithm: str, values: np.ndarray | None = None,
                elapsed_s: float = float("nan"),
                dnf_reason: str = "") -> WorkloadResult:
        completed = values is not None
        return WorkloadResult(
            system=self.name, algorithm=algorithm, dataset="?",
            completed=completed, elapsed_s=elapsed_s,
            supersteps=self._supersteps, traversed_edges=self._traversed,
            cpu_busy_s=self.clock.busy_s("cpu") if completed else 0.0,
            flash_bytes=self.clock.bytes_moved("flash") if completed else 0,
            memory_bytes=self.peak_memory(algorithm), dnf_reason=dnf_reason,
            final_values=values,
        )

    # ---------------------------------------------------------------- charges

    def _check_cutoff(self) -> None:
        if self.clock.elapsed_s > self.cutoff_s:
            raise RunCutoff(
                f"exceeded patience of {self.cutoff_s:.0f}s simulated time"
            )

    def charge_seq_read(self, nbytes: float) -> None:
        """Large sequential flash read: bandwidth-bound."""
        if nbytes <= 0:
            return
        self.clock.charge("flash", self.profile.flash_read_latency_s
                          + nbytes / self.profile.flash_read_bw, nbytes=int(nbytes))
        self._check_cutoff()

    def charge_seq_write(self, nbytes: float) -> None:
        if nbytes <= 0:
            return
        self.clock.charge("flash", self.profile.flash_write_latency_s
                          + nbytes / self.profile.flash_write_bw, nbytes=int(nbytes))
        self._check_cutoff()

    def charge_random_reads(self, accesses: int, nbytes: float) -> None:
        """Fine-grained random flash reads: latency-bound at low queue depth."""
        if accesses <= 0:
            return
        seconds = accesses * self.profile.flash_read_latency_s \
            + nbytes / self.profile.flash_read_bw
        self.clock.charge("flash", seconds, nbytes=int(nbytes), ops=accesses)
        self._check_cutoff()

    def charge_cpu_stream(self, nbytes: float, threads: int | None = None) -> None:
        """Streaming computation over ``nbytes`` spread across the thread pool."""
        if nbytes <= 0:
            return
        threads = threads or self.profile.cpu_threads
        work = nbytes / self.profile.cpu_stream_bw_per_thread
        self.clock.charge_pool("cpu", work, threads)
        self._check_cutoff()

    def charge_cpu_scatter(self, nbytes: float, threads: int | None = None) -> None:
        """Random-access computation (hash/array scatter), much slower per thread."""
        if nbytes <= 0:
            return
        threads = threads or self.profile.cpu_threads
        work = nbytes / self.profile.cpu_scatter_bw_per_thread
        self.clock.charge_pool("cpu", work, threads)
        self._check_cutoff()


def graph_bytes_on_flash(graph: CSRGraph) -> int:
    """On-flash size of the CSR files (index + edges [+ weights])."""
    total = (graph.num_vertices + 1) * 8 + graph.num_edges * 8
    if graph.has_weights:
        total += graph.num_edges * 4
    return total
