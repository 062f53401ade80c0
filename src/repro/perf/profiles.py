"""Hardware profiles matching the paper's evaluation platforms (§V).

A :class:`HardwareProfile` bundles every device constant the cost model needs:
flash bandwidth/latency, DRAM bandwidth and capacity, CPU thread count and
per-thread stream-processing throughputs, accelerator clock, and the power
figures used in §V-C.6.

The concrete profiles below encode the platforms of the paper:

* :data:`GRAFBOOST` — the BlueDBM prototype: Xilinx VC707 with 1 GB DRAM at
  10 GB/s and two 512 GB raw flash cards (1.2 GB/s read / 0.5 GB/s write
  each); the host is a 24-core Xeon X5670 that stays nearly idle.
* :data:`GRAFBOOST2` — the projected system with 20 GB/s DRAM (§V-C.3: the
  only difference is double DRAM bandwidth, halving in-memory sort time).
* :data:`GRAFSOFT` / :data:`SERVER_SSD_ARRAY` — the 32-core Xeon E5-2690
  server with 128 GB DRAM and five PCIe SSDs totalling 6 GB/s of sequential
  read bandwidth.
* :data:`SINGLE_SSD_SERVER` — the same server restricted to one SSD, used for
  the small-graph evaluation (Fig 15).

Scaled-down experiments shrink DRAM budgets together with the dataset via
:meth:`HardwareProfile.scaled`, so that "memory = 150% of vertex data"
(Fig 13's x-axis) means the same thing at every scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB


@dataclass(frozen=True)
class HardwareProfile:
    """Device constants for one evaluation platform."""

    name: str

    # Host DRAM available to the graph engine (bytes).
    dram_capacity: int
    # DRAM bandwidth seen by the sorter (host DRAM for software, on-board
    # SODIMM for the accelerator), bytes/s.
    dram_bw: float

    # Flash / SSD array.
    flash_capacity: int
    flash_read_bw: float          # aggregate sequential read, bytes/s
    flash_write_bw: float         # aggregate sequential write, bytes/s
    flash_read_latency_s: float   # per-page access latency
    flash_write_latency_s: float
    flash_erase_latency_s: float
    flash_page_bytes: int = 8 * KB
    flash_block_pages: int = 256  # erase granularity: block_pages * page_bytes
    # Per-operation overhead a commodity FTL adds (lookup, queueing); zero
    # effective for raw AOFFS devices, which bypass the FTL (§IV-A).
    ftl_overhead_s: float = 40e-6

    # CPU.
    cpu_threads: int = 32
    # Throughput of one thread running an in-memory sort over KV records.
    cpu_sort_bw_per_thread: float = 150 * MB
    # Throughput of one 2-to-1 software merge(-reduce) thread.  A software
    # 16-to-1 merger is a tree of 15 such threads emitting ~800 MB/s (§IV-F).
    cpu_merge_bw_per_thread: float = 800 * MB
    # Throughput of one thread streaming edges through an edge program.
    cpu_stream_bw_per_thread: float = 600 * MB
    # Throughput of one thread applying random in-memory updates (hash/array
    # writes with poor locality) — much slower than streaming.
    cpu_scatter_bw_per_thread: float = 120 * MB

    # Hardware sort-reduce accelerator (absent for pure-software profiles).
    has_accelerator: bool = False
    accel_clock_hz: float = 125e6
    accel_word_bytes: int = 32    # 256-bit datapath words
    merge_fanout: int = 16

    # Power model inputs (§V-C.6).  ``host_cores`` is the physical core
    # count of the host machine, which can differ from ``cpu_threads`` (the
    # threads the *engine* is allowed to use — GraFBoost's host runs only
    # two threads on a 24-core Xeon).
    host_cores: int = 32
    host_idle_w: float = 110.0
    host_busy_w: float = 380.0
    accel_board_w: float = 50.0
    ssd_unit_w: float = 6.0
    ssd_count: int = 5

    def scaled(self, factor: float) -> "HardwareProfile":
        """Return a copy with capacities *and* per-operation latencies scaled.

        Bandwidths and thread counts keep paper values while DRAM/flash
        capacity shrink with the dataset.  Per-op latencies shrink by the
        same factor: a scaled run performs the same *number* of operations
        as the paper-scale run it stands for, but each moves ``factor``
        times fewer bytes — scaling the fixed per-op cost identically keeps
        the latency:transfer ratio (and therefore every random-vs-sequential
        and crossover result) where the paper has it.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return dataclasses.replace(
            self,
            dram_capacity=max(1, int(self.dram_capacity * factor)),
            flash_capacity=max(1, int(self.flash_capacity * factor)),
            flash_read_latency_s=self.flash_read_latency_s * factor,
            flash_write_latency_s=self.flash_write_latency_s * factor,
            flash_erase_latency_s=self.flash_erase_latency_s * factor,
            ftl_overhead_s=self.ftl_overhead_s * factor,
        )

    def with_dram(self, dram_capacity: int) -> "HardwareProfile":
        """Return a copy with a different DRAM budget (Fig 13 memory sweep)."""
        return dataclasses.replace(self, dram_capacity=dram_capacity)

    @property
    def accel_bw(self) -> float:
        """Peak accelerator throughput: one packed word per cycle (§V-C.3)."""
        return self.accel_clock_hz * self.accel_word_bytes


# The BlueDBM-based prototype (§V-C): VC707 + 1 GB 10 GB/s DRAM + two raw
# flash cards.  Host DRAM budget is tiny because sort-reduce runs in-storage;
# the paper reports 2 GB of memory use (Table II).
GRAFBOOST = HardwareProfile(
    name="GraFBoost",
    dram_capacity=2 * GB,
    dram_bw=10 * GB,
    flash_capacity=1 * TB,
    flash_read_bw=2.4 * GB,
    flash_write_bw=1.0 * GB,
    flash_read_latency_s=75e-6,    # raw flash through AOFFS, no FTL overhead
    flash_write_latency_s=300e-6,
    flash_erase_latency_s=3e-3,
    cpu_threads=2,                 # host runs only file management + iterators
    has_accelerator=True,
    host_cores=24,                 # BlueDBM host: 24-core Xeon X5670
    host_idle_w=110.0,
    host_busy_w=380.0,
    ssd_count=0,                   # storage power is in the accel board figure
)

# Projected system with doubled DRAM bandwidth (§V-C.3).
GRAFBOOST2 = dataclasses.replace(GRAFBOOST, name="GraFBoost2", dram_bw=20 * GB)

# The software evaluation server: 32-core Xeon E5-2690, 128 GB DRAM, five
# 512 GB PCIe SSDs with 6 GB/s total sequential read.  GraFSoft itself caps
# its memory use at 16 GB (§I, Table II).
SERVER_SSD_ARRAY = HardwareProfile(
    name="Server-5SSD",
    dram_capacity=128 * GB,
    dram_bw=50 * GB,
    flash_capacity=2.5 * TB,
    flash_read_bw=6.0 * GB,
    flash_write_bw=3.0 * GB,
    flash_read_latency_s=120e-6,   # commodity SSD with FTL
    flash_write_latency_s=400e-6,
    flash_erase_latency_s=4e-3,
    cpu_threads=32,
    has_accelerator=False,
    ssd_count=5,
)

GRAFSOFT = dataclasses.replace(SERVER_SSD_ARRAY, name="GraFSoft", dram_capacity=16 * GB)

# Small-graph evaluation (Fig 15): same server, one SSD, 1.2 GB/s.
SINGLE_SSD_SERVER = dataclasses.replace(
    SERVER_SSD_ARRAY,
    name="Server-1SSD",
    flash_capacity=512 * GB,
    flash_read_bw=1.2 * GB,
    flash_write_bw=0.6 * GB,
    ssd_count=1,
)
