"""Single-page calls through the flash stack, pinned to literal charges.

A single-page access pays one full access latency plus its page's transfer
(§II-B).  Every single-page entry point — the device's ``read_page`` and
``write_page``, the SSD's, the one-page flush that seals a short file and the
CRC-repair re-read — is pinned here to the literal simulated time and flash
usage it charges, on a bit-packed raw-flash device (``traffic_scale`` below
1) and on an FTL-backed SSD, each under a
fault plan that injects bit errors, program failures and latency jitter.
The power-loss outcome of a crash that hits a single-page program is pinned
the same way.  A change to how any layer issues a one-page operation must
reproduce these numbers bit for bit.
"""

import dataclasses
import zlib

import pytest

from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import (
    PAGE_VALID,
    FlashDevice,
    FlashGeometry,
    FlashProgramError,
    FlashUncorrectableError,
    PowerLossError,
)
from repro.flash.faults import CrashPlan, FaultPlan
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.perf.clock import ResourceUsage, SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT

GEOMETRY = FlashGeometry(page_bytes=8192, pages_per_block=8, num_blocks=64)
#: GraFBoost's packing of 32-bit keys and 32-bit values, four pairs per
#: 256-bit word: an 8 KB page moves 4 KB of flash traffic.
PACKED = 0.5
PLAN = FaultPlan(seed=7, read_ber=2e-4, program_fail_p=0.2,
                 latency_jitter=0.3)
#: Reads past ECC escape as corrupted data at once (no read-retries), which
#: only the file store's CRCs catch: any file-page read may need a repair.
SILENT = FaultPlan(seed=1, read_ber=1e-4, program_fail_p=0.2,
                   latency_jitter=0.3, read_retry_limit=0,
                   silent_corruption_p=1.0)


def packed_device(faults=PLAN, crashes=None):
    return FlashDevice(GEOMETRY, GRAFBOOST, SimClock(), traffic_scale=PACKED,
                       faults=faults, crashes=crashes)


def ssd_device(faults=PLAN, crashes=None):
    return FlashDevice(GEOMETRY, GRAFSOFT, SimClock(), faults=faults,
                       crashes=crashes)


def make_store(stack, faults=PLAN):
    if stack == "aoffs":
        return AppendOnlyFlashFS(packed_device(faults))
    return SSDFileSystem(SSD(ssd_device(faults)))


def page_of(n: int) -> bytes:
    return bytes([n]) * GEOMETRY.page_bytes


def charges(device) -> tuple:
    """Elapsed time and the flash resource's busy time, bytes and ops."""
    flash = device.clock.usage.get("flash", ResourceUsage())
    return (device.clock.elapsed_s, flash.busy_s, flash.bytes_moved, flash.ops)


def device_calls() -> list:
    """Single-page programs (moving on a block after a failure), then a
    single-page read of every page that landed."""
    device = packed_device()
    seen, written = [], []
    block, page = 0, 0
    for n in range(6):
        try:
            device.write_page(block, page, page_of(n))
        except FlashProgramError:
            seen.append(("failed", block, page, charges(device)))
            block, page = block + 1, 0
            continue
        written.append((block, page))
        seen.append(("write", block, page, charges(device)))
        page += 1
    for block, page in written:
        data = device.read_page(block, page)
        seen.append(("read", block, page, zlib.crc32(data), charges(device)))
    assert device.faults.stats.read_retries > 0
    assert device.faults.stats.program_failures > 0
    return seen


def ssd_calls() -> list:
    """SSD single-page writes (two overwrites) and reads."""
    ssd = SSD(ssd_device())
    seen = []
    for lpn in (5, 9, 5, 12, 9):
        ssd.write_page(lpn, page_of(lpn))
        seen.append(("write", lpn, charges(ssd.device)))
    for lpn in (5, 9, 12):
        data = ssd.read_page(lpn)
        seen.append(("read", lpn, zlib.crc32(data), charges(ssd.device)))
    assert ssd.device.faults.stats.program_failures > 0
    return seen


def one_page_seals(stack) -> list:
    """Seals whose tail is one partial page: the one-page flush."""
    store = make_store(stack)
    seen = []
    for n, size in enumerate((100, GEOMETRY.page_bytes - 1, 1, 4000, 17)):
        name = f"f{n}"
        store.append(name, bytes([n + 1]) * size)
        before = charges(store.device)
        store.seal(name)
        seen.append((name, before, charges(store.device)))
    return seen


def crc_repairs(stack) -> list:
    """One-page reads of a file whose corrupted pages are re-read."""
    store = make_store(stack, SILENT)
    blob = bytes(range(256)) * (12 * GEOMETRY.page_bytes // 256)
    store.append("f", blob)
    store.seal("f")
    stats = store.device.faults.stats
    seen = []
    for index in range(12):
        start = index * GEOMETRY.page_bytes
        try:
            data = store.read("f", start, GEOMETRY.page_bytes)
            intact = data == blob[start:start + GEOMETRY.page_bytes]
        except FlashUncorrectableError:
            intact = None
        seen.append((index, intact, stats.checksum_mismatches,
                     stats.checksum_recoveries, charges(store.device)))
    assert stats.checksum_recoveries > 0
    return seen


def power_losses(stack) -> list:
    """Where a crash at op ``at`` lands in a run of single-page programs,
    and what it leaves on the device: every valid page's CRC and whether it
    carries OOB (a torn page never does)."""
    outcomes = []
    for at in (3, 4, 5, 6):
        crashes = CrashPlan(seed=at, at_ops=(at,), torn_write_p=0.5)
        if stack == "raw":
            device = packed_device(crashes=crashes)
        else:
            ssd = SSD(ssd_device(crashes=crashes), durable=True)
            device = ssd.device
        fired = None
        block, page = 0, 0
        for n in range(8):
            try:
                if stack == "raw":
                    device.write_page(block, page, page_of(n))
                    page += 1
                else:
                    ssd.write_page(n, page_of(n))
            except FlashProgramError:
                block, page = block + 1, 0
            except PowerLossError as e:
                fired = e.op_index
                break
        pages = [(b, p, zlib.crc32(device._read_silent(b, p)),
                  device._oob.get((b, p)) is None)
                 for b in range(GEOMETRY.num_blocks)
                 for p in range(device.programmed_pages(b))
                 if device.page_state(b, p) == PAGE_VALID]
        outcomes.append((at, fired, dataclasses.asdict(device.crashes.stats), pages,
                         charges(device)))
    return outcomes


def test_device_single_page_calls():
    assert device_calls() == DEVICE_CALLS


def test_ssd_single_page_calls():
    assert ssd_calls() == SSD_CALLS


@pytest.mark.parametrize("stack", ["aoffs", "ssd"])
def test_one_page_seal(stack):
    assert one_page_seals(stack) == SEALS[stack]


@pytest.mark.parametrize("stack", ["aoffs", "ssd"])
def test_crc_repair_reread(stack):
    assert crc_repairs(stack) == REPAIRS[stack]


@pytest.mark.parametrize("stack", ["raw", "ssd"])
def test_power_loss_on_a_single_page_program(stack):
    assert power_losses(stack) == POWER_LOSSES[stack]


# --------------------------------------------------------- recorded literals
# Each charge tuple is (elapsed_s, flash busy_s, flash bytes, flash ops).

DEVICE_CALLS = [
    ("write", 0, 0, (0.00038456393935288675, 0.00038456393935288675, 4096, 1)),
    ("write", 0, 1, (0.000708647283717665, 0.000708647283717665, 8192, 2)),
    ("write", 0, 2, (0.0010910817910689537, 0.0010910817910689537, 12288, 3)),
    ("failed", 0, 3, (0.0013910817910689536, 0.0013910817910689536, 12288, 4)),
    ("write", 1, 0, (0.0017666327369222628, 0.0017666327369222628, 16384, 5)),
    ("write", 1, 1, (0.002097720352601626, 0.002097720352601626, 20480, 6)),
    ("read", 0, 0, 3639908756, (0.002257163843261914, 0.002257163843261914, 28672, 8)),
    ("read", 0, 1, 1286701566, (0.0024982845506704987, 0.0024982845506704987, 40960, 11)),
    ("read", 0, 2, 722448129, (0.0026654624977209456, 0.0026654624977209456, 49152, 13)),
    ("read", 1, 0, 3832804095, (0.0028222461828707676, 0.0028222461828707676, 57344, 15)),
    ("read", 1, 1, 1882647189, (0.002976227903531194, 0.002976227903531194, 65536, 17)),
]

SSD_CALLS = [
    ("write", 5, (0.0005502087876267657, 0.0005502087876267657, 8192, 2)),
    ("write", 9, (0.0010197767819360535, 0.0010197767819360535, 16384, 4)),
    ("write", 5, (0.0015671463268940216, 0.0015671463268940216, 24576, 6)),
    ("write", 12, (0.002505337789854684, 0.002505337789854684, 32768, 9)),
    ("write", 9, (0.0029842448125834186, 0.0029842448125834186, 40960, 11)),
    ("read", 5, 1882647189, (0.0032768112661294632, 0.0032768112661294632, 57344, 14)),
    ("read", 9, 901732136, (0.0036987897007175747, 0.0036987897007175747, 81920, 18)),
    ("read", 12, 2642224169, (0.004003731284487873, 0.004003731284487873, 98304, 21)),
]

SEALS = {
    "aoffs": [
        ("f0", (0.0, 0.0, 0, 0), (0.00038456393935288675, 0.00038456393935288675, 4096, 1)),
        ("f1", (0.00038456393935288675, 0.00038456393935288675, 4096, 1),
         (0.000708647283717665, 0.000708647283717665, 8192, 2)),
        ("f2", (0.000708647283717665, 0.000708647283717665, 8192, 2),
         (0.0010910817910689537, 0.0010910817910689537, 12288, 3)),
        ("f3", (0.0010910817910689537, 0.0010910817910689537, 12288, 3),
         (0.0017666327369222628, 0.0017666327369222628, 16384, 5)),
        ("f4", (0.0017666327369222628, 0.0017666327369222628, 16384, 5),
         (0.002097720352601626, 0.002097720352601626, 20480, 6)),
    ],
    "ssd": [
        ("f0", (0.0, 0.0, 0, 0), (0.0005502087876267657, 0.0005502087876267657, 8192, 2)),
        ("f1", (0.0005502087876267657, 0.0005502087876267657, 8192, 2),
         (0.0010197767819360535, 0.0010197767819360535, 16384, 4)),
        ("f2", (0.0010197767819360535, 0.0010197767819360535, 16384, 4),
         (0.0015671463268940216, 0.0015671463268940216, 24576, 6)),
        ("f3", (0.0015671463268940216, 0.0015671463268940216, 24576, 6),
         (0.002505337789854684, 0.002505337789854684, 32768, 9)),
        ("f4", (0.002505337789854684, 0.002505337789854684, 32768, 9),
         (0.0029842448125834186, 0.0029842448125834186, 40960, 11)),
    ],
}

REPAIRS = {
    "aoffs": [
        (0, None, 1, 0, (0.005977912503056801, 0.005977912503056801, 311296, 78)),
        (1, True, 1, 0, (0.0060580571381256285, 0.0060580571381256285, 323584, 80)),
        (2, None, 2, 0, (0.006249931920895428, 0.006249931920895428, 331776, 82)),
        (3, True, 3, 1, (0.006429134376549729, 0.006429134376549729, 348160, 85)),
        (4, True, 3, 1, (0.006517063427415562, 0.006517063427415562, 360448, 87)),
        (5, True, 3, 1, (0.006597427701347932, 0.006597427701347932, 372736, 89)),
        (6, None, 4, 1, (0.006761844809004192, 0.006761844809004192, 380928, 91)),
        (7, True, 4, 1, (0.006854259341363467, 0.006854259341363467, 393216, 93)),
        (8, True, 4, 1, (0.0069518399775712805, 0.0069518399775712805, 405504, 95)),
        (9, True, 4, 1, (0.007050986849561019, 0.007050986849561019, 417792, 97)),
        (10, None, 5, 1, (0.007235318902051947, 0.007235318902051947, 425984, 99)),
        (11, True, 6, 2, (0.007403027769909723, 0.007403027769909723, 434176, 101)),
    ],
    "ssd": [
        (0, True, 0, 0, (0.002703141257983144, 0.002703141257983144, 196608, 17)),
        (1, True, 0, 0, (0.0029078232634757394, 0.0029078232634757394, 286720, 20)),
        (2, True, 1, 1, (0.003279509484797544, 0.003279509484797544, 376832, 25)),
        (3, True, 1, 1, (0.003479838686395262, 0.003479838686395262, 450560, 28)),
        (4, True, 2, 2, (0.003837464624657922, 0.003837464624657922, 524288, 33)),
        (5, True, 2, 2, (0.00403644607673839, 0.00403644607673839, 581632, 36)),
        (6, True, 2, 2, (0.004211823325287507, 0.004211823325287507, 630784, 39)),
        (7, None, 3, 2, (0.0045964356210979615, 0.0045964356210979615, 647168, 43)),
        (8, True, 3, 2, (0.004791447778166716, 0.004791447778166716, 679936, 46)),
        (9, True, 3, 2, (0.004984980036714509, 0.004984980036714509, 704512, 49)),
        (10, True, 3, 2, (0.005161028460098804, 0.005161028460098804, 720896, 52)),
        (11, True, 3, 2, (0.005347188159124012, 0.005347188159124012, 729088, 54)),
    ],
}

POWER_LOSSES = {
    "raw": [
        (3, 3, {"power_losses": 1, "torn_writes": 0},
         [(0, 0, 3639908756, True), (0, 1, 1286701566, True), (0, 2, 722448129, True)],
         (0.0010910817910689537, 0.0010910817910689537, 12288, 3)),
        (4, 4, {"power_losses": 1, "torn_writes": 1},
         [(0, 0, 3639908756, True), (0, 1, 1286701566, True), (0, 2, 722448129, True),
          (1, 0, 904416284, True)],
         (0.0013910817910689536, 0.0013910817910689536, 12288, 4)),
        (5, 5, {"power_losses": 1, "torn_writes": 0},
         [(0, 0, 3639908756, True), (0, 1, 1286701566, True), (0, 2, 722448129, True),
          (1, 0, 3832804095, True)],
         (0.0017666327369222628, 0.0017666327369222628, 16384, 5)),
        (6, 6, {"power_losses": 1, "torn_writes": 0},
         [(0, 0, 3639908756, True), (0, 1, 1286701566, True), (0, 2, 722448129, True),
          (1, 0, 3832804095, True), (1, 1, 1882647189, True)],
         (0.002097720352601626, 0.002097720352601626, 20480, 6)),
    ],
    "ssd": [
        (3, 3, {"power_losses": 1, "torn_writes": 0},
         [(0, 0, 3639908756, False), (0, 1, 1286701566, False), (0, 2, 722448129, False)],
         (0.0016071463268940217, 0.0016071463268940217, 24576, 7)),
        (4, 4, {"power_losses": 1, "torn_writes": 1},
         [(0, 0, 3639908756, False), (0, 1, 1286701566, False), (0, 2, 722448129, False),
          (1, 0, 4171674019, True)],
         (0.002007146326894022, 0.002007146326894022, 24576, 8)),
        (5, 5, {"power_losses": 1, "torn_writes": 0},
         [(0, 0, 3639908756, False), (0, 1, 1286701566, False), (0, 2, 722448129, False),
          (1, 0, 3209344875, False)],
         (0.002545337789854684, 0.002545337789854684, 32768, 10)),
        (6, 6, {"power_losses": 1, "torn_writes": 0},
         [(0, 0, 3639908756, False), (0, 1, 1286701566, False), (0, 2, 722448129, False),
          (1, 0, 3209344875, False), (1, 1, 3832804095, False)],
         (0.0030242448125834187, 0.0030242448125834187, 40960, 12)),
    ],
}
