"""System assembly: wire a hardware profile into a runnable stack.

A :class:`SystemConfig` owns one simulated clock, one flash device, one file
store and one cost-model backend — everything an engine run charges against.
:func:`make_system` builds the three GraFBoost-family stacks of the paper:

* ``grafboost`` — accelerator backend over raw flash + AOFFS (§IV).
* ``grafboost2`` — the same with 20 GB/s on-board DRAM (§V-C.3).
* ``grafsoft`` — software backend over a commodity SSD file system on the
  32-core server (§IV-F).

Scaled-down experiments pass ``scale_factor``: dataset, DRAM budget and the
512 MB sort-chunk size all shrink together, so external merging still
happens at the same *relative* depth as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.accelerator import AcceleratorBackend, SoftwareBackend
from repro.core.packing import PackingSpec
from repro.core.parallel import resolve_workers
from repro.engine.engine import GraFBoostEngine
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import (
    FlashDevice,
    FlashGeometry,
    FlashRecoveryExhaustedError,
    PowerLossError,
)
from repro.flash.faults import MAX_REMOUNTS
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.flash.store import FileStore
from repro.graph.csr import CSRGraph
from repro.graph.formats import FlashCSR
from repro.perf.clock import SimClock
from repro.perf.memory import MemoryTracker
from repro.perf.profiles import (
    GRAFBOOST,
    GRAFBOOST2,
    GRAFSOFT,
    HardwareProfile,
    MB,
)

#: The paper's in-memory sort chunk (512 MB), scaled with the experiment.
PAPER_CHUNK_BYTES = 512 * MB
#: Smallest chunk worth sorting separately in the scaled simulation (kept
#: well above the 8 KB flash page so run files aren't dominated by page
#: padding, which paper-size 512 MB chunks never see).
MIN_CHUNK_BYTES = 64 * 1024
#: Flash page size of every scaled device: the real 8 KB.
PAGE_BYTES = 8192
#: Fewest erase blocks a scaled device has.
MIN_BLOCKS = 4096

_KINDS = {
    "grafboost": (GRAFBOOST, "aoffs"),
    "grafboost2": (GRAFBOOST2, "aoffs"),
    "grafsoft": (GRAFSOFT, "ssd"),
}


@dataclass
class SystemConfig:
    """One assembled system stack."""

    name: str
    profile: HardwareProfile
    scale_factor: float
    clock: SimClock
    device: FlashDevice
    store: FileStore
    backend: object          # AcceleratorBackend or SoftwareBackend
    memory: MemoryTracker
    chunk_bytes: int
    durable: bool = False
    #: Sort-reduce worker processes (1 = serial).
    workers: int = 1
    #: Engine execution mode (``sortreduce`` | ``semiexternal`` |
    #: ``densescan`` | ``adaptive``).
    mode: str = "sortreduce"
    #: Give-up bound of :meth:`run_recovering`: the one remount budget every
    #: crash→remount→retry loop over this stack draws from.
    max_remounts: int = MAX_REMOUNTS
    #: Remount attempts so far (interrupted ones included).
    remounts: int = 0

    def engine_for(self, graph: FlashCSR, num_vertices: int,
                   lazy: bool = True, checkpoint_every: int = 0,
                   auto_resume: bool = False,
                   checkpoint_prefix: str = "ckpt") -> GraFBoostEngine:
        return GraFBoostEngine(
            graph, self.store, self.backend, num_vertices,
            chunk_bytes=self.chunk_bytes, memory=self.memory, lazy=lazy,
            checkpoint_every=checkpoint_every, auto_resume=auto_resume,
            checkpoint_prefix=checkpoint_prefix,
            workers=self.workers, mode=self.mode,
        )

    def service_for(self, graph: FlashCSR, num_vertices: int,
                    config=None, quotas=None, default_root: int = 0):
        """A multi-tenant analytics service over this stack.

        Jobs submitted to the returned :class:`~repro.service.GraphService`
        run as interleaved :meth:`engine_for` engines (each with its own
        checkpoint namespace) plus batched point queries against ``graph``.
        """
        from repro.service import GraphService

        return GraphService(self, graph, num_vertices, config=config,
                            quotas=quotas, default_root=default_root)

    def load_graph(self, graph: CSRGraph, prefix: str = "graph") -> FlashCSR:
        """Serialize a CSR graph into this system's store."""
        return FlashCSR.write(self.store, prefix, graph)

    def remount(self) -> None:
        """Rebuild the file store from flash after a simulated power loss.

        The hardware — device, clock, backend — survives a crash; only the
        host-side store object dies.  The replacement store replays the
        durable metadata (journal or metadata log), which charges recovery
        reads against the shared clock, so recovered runs account their
        mount time honestly.  The fresh MemoryTracker keeps the old peak:
        DRAM contents died with power, but the experiment's peak-usage
        metric spans the whole run.  The new store continues the old one's
        name sequence: a run that starts after the loss must not be handed a
        name that a surviving checkpoint still owns.
        """
        if not self.durable:
            raise RuntimeError(
                f"system {self.name!r} was not built durable=True; nothing "
                f"on flash can be remounted after a power loss")
        old = self.store
        if isinstance(old, AppendOnlyFlashFS):
            self.store = AppendOnlyFlashFS(self.device, durable=True)
        else:
            ssd = SSD.mount(self.device,
                            ftl_overhead_s=self.profile.ftl_overhead_s)
            self.store = SSDFileSystem.mount(ssd)
        self.store.names_issued = old.names_issued
        peak = self.memory.peak
        self.memory = MemoryTracker(budget=self.memory.budget)
        self.memory.peak = peak

    def run_recovering(self, op, reload=None):
        """Run ``op()`` to completion across power losses; return its result.

        The one crash→remount→retry driver, and the only code allowed to
        catch :class:`PowerLossError` (RL002): each loss is answered by
        :meth:`remount`, then the caller's ``reload`` hook (rebuild whatever
        host state died from what is durable on flash), then ``op`` again.
        Recovery reads flash too, so a loss inside ``remount`` or ``reload``
        simply starts recovery over.  Crash op indices are device-lifetime,
        so every retry drains the finite schedule; ``max_remounts`` bounds
        the loop regardless and gives up with a typed error carrying the
        plan.  A stack not built durable has nothing to remount from: its
        power loss propagates.
        """
        crashed = False
        while True:
            try:
                if crashed:
                    self.remounts += 1
                    if self.remounts > self.max_remounts:
                        crashes = self.device.crashes
                        raise FlashRecoveryExhaustedError(
                            f"gave up after {self.max_remounts} remounts; "
                            f"the crash plan leaves no forward progress",
                            plan=crashes.plan if crashes is not None else None)
                    self.remount()
                    if reload is not None:
                        reload()
                    crashed = False
                return op()
            except PowerLossError:
                if not self.durable:
                    raise
                crashed = True

    def reattach_graph(self, flash_graph: FlashCSR) -> FlashCSR:
        """Point a graph handle at the remounted store (files survive)."""
        graph = FlashCSR(self.store, flash_graph.prefix,
                         flash_graph.num_vertices, flash_graph.num_edges,
                         has_weights=flash_graph.has_weights)
        graph.wasted_read_bytes = flash_graph.wasted_read_bytes
        return graph


def scaled_geometry(capacity_bytes: int) -> FlashGeometry:
    """Flash geometry for a scaled device.

    Pages keep their real 8 KB size (page granularity drives the random
    access waste the paper measures), but blocks shrink so the device still
    has a realistic *number* of blocks (a real 1 TB device has ~500 K) for
    AOFFS's block-per-file allocation when thousands of small sorted runs
    and per-superstep overlays coexist.
    """
    pages_per_block = 256
    while (pages_per_block > 1 and capacity_bytes // (pages_per_block * PAGE_BYTES)
           < MIN_BLOCKS):
        pages_per_block //= 2
    num_blocks = max(MIN_BLOCKS, -(-capacity_bytes // (pages_per_block * PAGE_BYTES)))
    return FlashGeometry(page_bytes=PAGE_BYTES, pages_per_block=pages_per_block,
                         num_blocks=num_blocks)


def make_system(kind: str, scale_factor: float = 1.0,
                dram_bytes: int | None = None,
                num_vertices_hint: int | None = None,
                profile: HardwareProfile | None = None,
                faults=None, crashes=None,
                durable: bool = False,
                sanitize: bool | None = None,
                workers: int = 1,
                mode: str = "sortreduce") -> SystemConfig:
    """Build one of the GraFBoost-family stacks at a given scale.

    ``dram_bytes`` overrides the (scaled) DRAM budget — the Fig 13 memory
    sweep.  The device holds 6x the scaled profile's flash capacity, to
    absorb the block-granular allocation slack of many coexisting run
    files.  ``num_vertices_hint`` sizes the accelerator's key packing
    (Fig 7).  ``faults`` is an optional
    :class:`~repro.flash.faults.FaultPlan` turning the run into a seeded
    chaos test.  ``crashes`` (a :class:`~repro.flash.faults.CrashPlan`)
    additionally injects power losses at seeded flash-op indices; it
    implies ``durable=True``, which makes the store write its metadata
    through to flash so :meth:`SystemConfig.remount` can recover it.
    ``sanitize`` attaches FlashSan (see :mod:`repro.flash.sanitizer`) to the
    device; ``None`` defers to the ``REPRO_SANITIZE`` environment variable.
    ``workers`` enables the parallel sort-reduce backend (1 = serial);
    results, stats and simulated time are bit-identical for every worker
    count.  ``mode`` selects the engine execution mode (see
    :mod:`repro.engine.modes`).
    """
    durable = durable or crashes is not None
    if profile is None:
        try:
            base_profile, store_kind = _KINDS[kind]
        except KeyError:
            known = ", ".join(sorted(_KINDS))
            raise KeyError(f"unknown system kind {kind!r}; known: {known}") from None
    else:
        base_profile = profile
        store_kind = "aoffs" if profile.has_accelerator else "ssd"

    scaled = base_profile.scaled(scale_factor) if scale_factor != 1.0 else base_profile
    if dram_bytes is not None:
        scaled = scaled.with_dram(dram_bytes)

    capacity = scaled.flash_capacity * 6
    clock = SimClock()

    if store_kind == "aoffs":
        # Key widths are sized for the *paper-equivalent* vertex count so
        # the packing win (Fig 7) matches what the real datasets would get.
        if num_vertices_hint:
            equivalent = max(2, int(num_vertices_hint / scale_factor))
            packing = PackingSpec.for_vertex_count(equivalent, value_bits=32)
        else:
            packing = PackingSpec(key_bits=34, value_bits=32)
        backend = AcceleratorBackend(scaled, packing)
        device = FlashDevice(scaled_geometry(capacity), scaled, clock,
                             traffic_scale=backend.traffic_scale(),
                             faults=faults, crashes=crashes,
                             sanitize=sanitize)
        store = AppendOnlyFlashFS(device, durable=durable)
    else:
        backend = SoftwareBackend(scaled)
        device = FlashDevice(scaled_geometry(capacity), scaled, clock,
                             faults=faults, crashes=crashes,
                             sanitize=sanitize)
        store = SSDFileSystem(SSD(device, ftl_overhead_s=scaled.ftl_overhead_s,
                                  durable=durable),
                              durable=durable)

    chunk = int(PAPER_CHUNK_BYTES * scale_factor)
    chunk = max(MIN_CHUNK_BYTES, min(max(chunk, MIN_CHUNK_BYTES), scaled.dram_capacity * 4))
    memory = MemoryTracker(budget=max(scaled.dram_capacity, 4 * chunk))

    return SystemConfig(
        name=kind if profile is None else profile.name,
        profile=scaled,
        scale_factor=scale_factor,
        clock=clock,
        device=device,
        store=store,
        backend=backend,
        memory=memory,
        chunk_bytes=chunk,
        durable=durable,
        workers=resolve_workers(workers),
        mode=mode,
    )
