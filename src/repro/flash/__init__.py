"""Simulated NAND flash substrate.

The paper's storage device exposes raw ``read``/``write``/``erase`` flash
interfaces to the accelerator and host instead of hiding them behind a Flash
Translation Layer (§IV).  This package builds that stack in simulation:

* :class:`FlashDevice` — page/block-granular NAND with program-order and
  erase-before-write constraints, per-op latency and bandwidth charging, and
  wear tracking.
* :class:`PageMappedFTL` / :class:`SSD` — the "off-the-shelf SSD" baseline: a
  page-mapped FTL with greedy garbage collection and wear leveling, used by
  the competing systems and by the AOFFS-vs-FTL ablation.
* :class:`FileStore` — the append/seal/stream/delete file interface every
  layer above talks to, with two placements: :class:`AppendOnlyFlashFS`, the
  paper's AOFFS (§IV-A: host-managed logical-to-physical mapping on raw
  flash, no FTL latency overhead), and :class:`SSDFileSystem` on the SSD.
* :class:`FaultPlan` / :class:`FaultInjector` — deterministic seeded fault
  injection with an ECC/read-retry recovery model, plus the ``FlashError``
  exception taxonomy every layer above reacts to.
"""

from repro.flash.device import (
    FlashDevice,
    FlashEraseError,
    FlashError,
    FlashGeometry,
    FlashProgramError,
    FlashTransientError,
    FlashUncorrectableError,
    FlashWearOutError,
)
from repro.flash.faults import FaultInjector, FaultPlan, FaultStats
from repro.flash.ftl import PageMappedFTL, SSD
from repro.flash.store import FileStore, StoredFile
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.filestore import SSDFileSystem
from repro.flash.wear import WearReport

__all__ = [
    "FlashDevice",
    "FlashGeometry",
    "FlashError",
    "FlashTransientError",
    "FlashUncorrectableError",
    "FlashProgramError",
    "FlashEraseError",
    "FlashWearOutError",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "PageMappedFTL",
    "SSD",
    "FileStore",
    "StoredFile",
    "AppendOnlyFlashFS",
    "SSDFileSystem",
    "WearReport",
]
