"""Cost models of the hardware and software sort-reduce engines (§IV-E/F, §V-C.3).

The *functional* work — the actual sorting and reducing of key-value data —
is identical for both implementations and lives in
:mod:`repro.core.inmemory` / :mod:`repro.core.merger`.  The backends here
answer only "how long did that take, on which resource":

**Hardware** (:class:`AcceleratorBackend`): the in-memory sorter streams
256-bit packed words at one word per cycle (4 GB/s at 125 MHz), bounded by
the on-board DRAM.  Sorting a chunk takes ``1 + ceil(log_fanout(pages))``
passes over DRAM (on-chip page sort, then 16-to-1 merge levels), each pass
reading and writing the chunk once: 512 MB in just over 0.5 s at 10 GB/s,
and half that for GraFBoost2's 20 GB/s DRAM — the paper's own numbers.
Merge levels stream at accelerator line rate, overlapped with flash.

**Software** (:class:`SoftwareBackend`): a pool of in-memory sorter threads,
then 16-to-1 merge-reducers built as trees of 2-to-1 merger threads, each
tree emitting up to ~800 MB/s with at most four instances (§IV-F).  CPU busy
time accrues in thread-seconds so utilization reports look like Table II.
"""

from __future__ import annotations

import math

from repro.core.packing import ALIGNED_BYTES_PER_PAIR, PackingSpec
from repro.perf.clock import SimClock
from repro.perf.profiles import HardwareProfile, MB

#: Number of worker threads one software 16-to-1 merge tree occupies
#: (15 two-to-one mergers plus coordination, §IV-F / Fig 11).
SOFT_MERGER_THREADS = 16
#: Maximum concurrent software 16-to-1 merger instances (§V-C.3).
SOFT_MERGER_INSTANCES = 4
#: Effective throughput of GraFSoft's intermediate-list generation pipeline
#: (edge program feeding the in-memory sorter pool): Table II reports
#: 500 MB/s of flash traffic during this phase while the CPUs run at 1800%.
SOFT_INGEST_BW = 500 * MB
SOFT_INGEST_THREADS = 18


class AcceleratorBackend:
    """Timing model of the FPGA sort-reduce accelerator."""

    name = "hardware"
    is_hardware = True

    def __init__(self, profile: HardwareProfile, packing: PackingSpec | None = None):
        if not profile.has_accelerator:
            raise ValueError(f"profile {profile.name!r} has no accelerator")
        self.profile = profile
        self.packing = packing or PackingSpec(key_bits=64, value_bits=64)

    def traffic_scale(self) -> float:
        """Bytes on the accelerator datapath per aligned byte (packing win)."""
        return self.packing.packed_bytes_per_pair / ALIGNED_BYTES_PER_PAIR

    def sort_passes(self, chunk_bytes: int) -> int:
        """DRAM passes to sort one chunk: on-chip page sort + merge levels."""
        pages = max(1, -(-chunk_bytes // self.profile.flash_page_bytes))
        levels = math.ceil(math.log(pages, self.profile.merge_fanout)) if pages > 1 else 0
        return 1 + levels

    def chunk_sort_seconds(self, chunk_bytes: int) -> float:
        """Wall time to in-memory sort-reduce one chunk on the accelerator.

        Each pass reads and writes the chunk through on-board DRAM; the
        datapath itself (one word/cycle) never falls behind DRAM in the
        prototype, so DRAM bandwidth is the binding resource (§V-C.3).
        """
        nbytes = chunk_bytes * self.traffic_scale()
        passes = self.sort_passes(chunk_bytes)
        dram_time = passes * 2 * nbytes / self.profile.dram_bw
        pipeline_time = nbytes / self.profile.accel_bw
        return max(dram_time, pipeline_time)

    def charge_chunk_sort(self, clock: SimClock, chunk_bytes: int) -> None:
        """In-memory sort cannot overlap graph access in the prototype
        (DRAM barely fits one chunk, §V-C.3), so it charges serially; the
        DRAM busy time rides along in the background."""
        seconds = self.chunk_sort_seconds(chunk_bytes)
        clock.charge("accel", seconds, nbytes=int(chunk_bytes * self.traffic_scale()))
        clock.charge_background("dram", seconds)

    def merge_compute_seconds(self, bytes_in: int, groups: int = 1) -> float:
        """Datapath time for one merge level (overlapped with flash by caller)."""
        return bytes_in * self.traffic_scale() / self.profile.accel_bw

    def charge_merge_level(self, clock: SimClock, bytes_in: int, bytes_out: int,
                           groups: int = 1) -> None:
        """Merge compute overlaps flash I/O; only non-hidden time is elapsed.

        Flash transfer time was already charged serially by the file store,
        so here the accelerator accrues busy time in the background and only
        stalls the clock when it is the bottleneck (it is not, at 4 GB/s vs
        2.4 GB/s flash read).
        """
        compute = self.merge_compute_seconds(bytes_in, groups)
        io_floor = bytes_in * self.traffic_scale() / self.profile.flash_read_bw             + bytes_out * self.traffic_scale() / self.profile.flash_write_bw
        extra = max(0.0, compute - io_floor)
        if extra:
            clock.charge("accel", extra)
        clock.charge_background("accel", compute - extra)

    def charge_edge_stream(self, clock: SimClock, nbytes: int) -> None:
        """Edge-program execution: an array of parallel instances keeps up
        with the flash interface (§IV-D), so it hides fully under I/O."""
        clock.charge_background("accel", nbytes * self.traffic_scale() / self.profile.accel_bw)


class SoftwareBackend:
    """Timing model of the multithreaded software sort-reduce (GraFSoft)."""

    name = "software"
    is_hardware = False

    def __init__(self, profile: HardwareProfile):
        self.profile = profile

    def sorter_threads(self) -> int:
        """Threads available to the in-memory sorter pool."""
        return max(1, self.profile.cpu_threads - 2)

    def chunk_sort_seconds(self, chunk_bytes: int) -> float:
        """Wall time to ingest and in-memory sort-reduce one chunk.

        The edge-program + sorter-pool pipeline sustains ~500 MB/s end to
        end (Table II's GraFSoft intermediate-generation rate), far below
        the raw per-thread sort bandwidth, because sorting competes with
        parsing, allocation and NUMA traffic.
        """
        return chunk_bytes / SOFT_INGEST_BW

    def charge_chunk_sort(self, clock: SimClock, chunk_bytes: int) -> None:
        elapsed = self.chunk_sort_seconds(chunk_bytes)
        clock.charge_pool("cpu", elapsed * SOFT_INGEST_THREADS, SOFT_INGEST_THREADS,
                          nbytes=chunk_bytes)

    def merger_rate(self, groups: int = 1) -> float:
        """Aggregate merge-reduce output rate with ``groups`` concurrent trees."""
        instances = max(1, min(SOFT_MERGER_INSTANCES, groups))
        return 800 * MB * instances

    def charge_merge_level(self, clock: SimClock, bytes_in: int, bytes_out: int,
                           groups: int = 1) -> None:
        """One merge level: trees emit ~800 MB/s each, overlapped with the
        flash transfers the store already charged; only the non-hidden part
        stalls the clock.  CPU busy time accrues for every occupied merger
        thread — this is what makes GraFSoft's 1800% CPU in Table II."""
        instances = max(1, min(SOFT_MERGER_INSTANCES, groups))
        elapsed = bytes_out / self.merger_rate(groups) if bytes_out else 0.0
        io_floor = bytes_in / self.profile.flash_read_bw + bytes_out / self.profile.flash_write_bw
        busy = elapsed * instances * SOFT_MERGER_THREADS
        extra = max(0.0, elapsed - io_floor)
        if extra:
            clock.charge("cpu", extra)
        if busy > extra:
            clock.charge_background("cpu", busy - extra)

    def charge_edge_stream(self, clock: SimClock, nbytes: int) -> None:
        """Streaming edges through the edge program on the CPU pool."""
        work = nbytes / self.profile.cpu_stream_bw_per_thread
        clock.charge_pool("cpu", work, self.sorter_threads(), nbytes=0)
