"""Mount recovery: the crash-at-every-op consistency sweep, FTL
out-of-band mapping recovery, and metadata-log / journal replay."""

import numpy as np
import pytest

from repro.flash.aoffs import SUPERBLOCK_BLOCKS, AppendOnlyFlashFS
from repro.flash.device import (
    FlashDevice,
    FlashError,
    FlashGeometry,
    PowerLossError,
)
from repro.flash.faults import CrashPlan
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.flash.publish import publish
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT

GEOMETRY = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=64)
PAGE = GEOMETRY.page_bytes


def content(name: str, nbytes: int) -> bytes:
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


# The scripted workload: create/append/seal/delete/rename/rename-overwrite,
# with multi-page appends and partial tails, then two durable publishes of
# the same final name (the second lands over an existing ``final``).  ``allowed`` maps every name
# that can exist at *any* point to the full contents it may hold.
A = content("a", 3 * PAGE + 100)
B = content("b", 2 * PAGE)
C = content("c", PAGE // 2)
D = content("d", PAGE + 7)
F = content("f", PAGE)
G = content("g", 2 * PAGE + 1)

P_OLD = content("p-old", PAGE + 11)
P_NEW = content("p-new", 2 * PAGE + 3)

H = {i: content(f"h{i}", PAGE + i * 37) for i in range(12)}
BIG = content("big", 6 * PAGE + 5)

ALLOWED = {
    "a": (A,), "b": (B,), "c": (C,), "d": (D,), "e": (D,),
    "f": (F, G), "g": (G,), "big": (BIG,),
    "p": (P_OLD, P_NEW), "p:staging": (P_OLD, P_NEW),
    **{f"h{i}": (H[i],) for i in range(12)},
}


def run_script(fs) -> dict[str, int]:
    """Returns, for names that are durable from some point on (sealed or
    published, never deleted afterwards), the device op index of that
    point (empty on a device that does not count ops)."""
    durable_since: dict[str, int] = {}

    def mark(name: str) -> None:
        if fs.device.crashes is not None:
            durable_since[name] = fs.device.crashes.op_index

    fs.append("a", A)
    fs.seal("a")
    mark("a")
    fs.append("b", B[:PAGE])
    fs.append("c", C)
    fs.seal("c")
    fs.append("b", B[PAGE:])
    fs.delete("c")
    fs.append("d", D)
    fs.seal("d")
    fs.rename("d", "e")
    for i in range(12):  # churn: small sealed files, half deleted again
        fs.append(f"h{i}", H[i])
        fs.seal(f"h{i}")
    for i in range(0, 12, 2):
        fs.delete(f"h{i}")
    fs.append("big", BIG[:4 * PAGE])
    fs.append("big", BIG[4 * PAGE:])  # left unsealed: tail must not survive
    fs.append("f", F)
    fs.seal("f")
    fs.append("g", G)
    fs.seal("g")
    fs.rename("g", "f", overwrite=True)
    publish(fs, "p:staging", "p", P_OLD)
    mark("p")
    publish(fs, "p:staging", "p", P_NEW)
    return durable_since


def check_durable(fs, crash_op: int, durable_since: dict[str, int]) -> None:
    """Nothing durable before the crash is lost by it, and the published
    name ``p`` is never visible half-written; a leftover staging file
    neither shadows it nor blocks the next publish.  (That a sealed file
    reads as exactly one of its allowed payloads — for ``p``, exactly the
    old or the new one — is :func:`check_contents`' check.)"""
    for name, since in durable_since.items():
        if crash_op >= since:
            assert fs.exists(name) and fs.is_sealed(name), \
                f"{name!r}, durable since op {since}, lost by a crash at " \
                f"op {crash_op}"
    if fs.exists("p"):
        assert fs.is_sealed("p"), "final name visible before its seal"
    publish(fs, "p:staging", "p", P_NEW)
    assert bytes(fs.read("p")) == P_NEW
    assert not fs.exists("p:staging")


def check_contents(fs) -> None:
    """Every surviving file holds a page-aligned prefix of an allowed
    content (exactly equal, if sealed) — torn/uncommitted data never
    surfaces."""
    for name in fs.list_files():
        assert name in ALLOWED, f"unexpected file {name!r} after crash"
        data = bytes(fs.read(name))
        if fs.is_sealed(name):
            assert any(data == full for full in ALLOWED[name]), \
                f"sealed {name!r} content corrupt"
        else:
            assert len(data) % PAGE == 0, \
                f"unsealed {name!r} kept a partial tail across power loss"
            assert any(data == full[:len(data)] for full in ALLOWED[name]), \
                f"unsealed {name!r} is not a prefix of any allowed content"


def check_aoffs_structure(fs) -> None:
    owner: dict[int, str] = {}
    for name in fs.list_files():
        f = fs._files[name]
        for block in f.extents:
            assert block not in owner, \
                f"block {block} shared by {owner[block]!r} and {name!r}"
            assert block not in SUPERBLOCK_BLOCKS
            owner[block] = name
    journal = set(fs._journal_blocks)
    free = {block for _wear, block in fs._free_blocks}
    used = set(owner)
    assert not used & journal
    assert not free & (used | journal | set(SUPERBLOCK_BLOCKS))
    bad = {b for b in range(fs.geometry.num_blocks) if fs.device.is_bad(b)}
    accounted = used | journal | free | bad | set(SUPERBLOCK_BLOCKS)
    assert accounted == set(range(fs.geometry.num_blocks)), \
        f"leaked blocks: {set(range(fs.geometry.num_blocks)) - accounted}"


def check_ssd_fs_structure(fs) -> None:
    owner: dict[int, str] = {}
    for name in fs.list_files():
        f = fs._files[name]
        for lpn in f.extents:
            assert lpn not in owner, \
                f"lpn {lpn} shared by {owner[lpn]!r} and {name!r}"
            assert lpn >= fs.meta_lpns, f"file lpn {lpn} inside metadata log"
            owner[lpn] = name
    data_lpns = set(range(fs.meta_lpns, fs.ssd.logical_pages))
    assert set(fs._free.free()) == data_lpns - set(owner), \
        "free-lpn pool is not the exact complement of live files"


def total_ops_of(make_fs_and_run) -> tuple[int, dict[str, int]]:
    """Run the script uninterrupted on an op-counting device: (total ops,
    the script's durable-since marks)."""
    device, durable_since = make_fs_and_run(CrashPlan(crashes=0))
    return device.crashes.op_index, durable_since


def aoffs_workload(plan: CrashPlan) -> tuple[FlashDevice, dict[str, int]]:
    device = FlashDevice(GEOMETRY, GRAFBOOST, SimClock(), crashes=plan)
    return device, run_script(AppendOnlyFlashFS(device, durable=True))


def ssd_workload(plan: CrashPlan) -> tuple[FlashDevice, dict[str, int]]:
    device = FlashDevice(GEOMETRY, GRAFSOFT, SimClock(), crashes=plan)
    ssd = SSD(device, durable=True)
    # A small log forces several compactions inside the scripted workload,
    # so crash points land inside the ping-pong snapshot path too.
    return device, run_script(SSDFileSystem(ssd, durable=True, meta_lpns=8))


def test_aoffs_crash_at_every_op_leaves_consistent_fs():
    total, durable_since = total_ops_of(aoffs_workload)
    assert total > 100, "script too small to be a meaningful sweep"
    for op in range(total):
        plan = CrashPlan(at_ops=(op,), torn_write_p=float(op % 2))
        device = FlashDevice(GEOMETRY, GRAFBOOST, SimClock(), crashes=plan)
        try:
            run_script(AppendOnlyFlashFS(device, durable=True))
        except PowerLossError:
            pass
        else:
            pytest.fail(f"crash at op {op} never fired")
        fs = AppendOnlyFlashFS(device, durable=True)
        check_contents(fs)
        check_aoffs_structure(fs)
        check_durable(fs, op, durable_since)
        # The recovered store stays fully usable.
        fs.append("post", content("post", PAGE + 3))
        fs.seal("post")
        assert fs.read("post") == content("post", PAGE + 3)


def test_ssd_fs_crash_at_every_op_leaves_consistent_fs():
    total, durable_since = total_ops_of(ssd_workload)
    assert total > 100, "script too small to be a meaningful sweep"
    for op in range(total):
        plan = CrashPlan(at_ops=(op,), torn_write_p=float(op % 2))
        device = FlashDevice(GEOMETRY, GRAFSOFT, SimClock(), crashes=plan)
        try:
            ssd = SSD(device, durable=True)
            run_script(SSDFileSystem(ssd, durable=True, meta_lpns=8))
        except PowerLossError:
            pass
        else:
            pytest.fail(f"crash at op {op} never fired")
        ssd = SSD.mount(device)
        fs = SSDFileSystem.mount(ssd, meta_lpns=8)
        check_contents(fs)
        check_ssd_fs_structure(fs)
        check_durable(fs, op, durable_since)
        fs.append("post", content("post", PAGE + 3))
        fs.seal("post")
        assert fs.read("post") == content("post", PAGE + 3)


def test_crash_during_recovery_is_survivable():
    """Power can die during the mount scan / journal replay itself; the
    next mount attempt starts over from the same durable state."""
    device = FlashDevice(GEOMETRY, GRAFBOOST, SimClock(),
                         crashes=CrashPlan(at_ops=(60, 75), torn_write_p=0.0))
    fs = AppendOnlyFlashFS(device, durable=True)
    try:
        run_script(fs)
    except PowerLossError:
        pass
    attempts = 0
    while True:
        attempts += 1
        try:
            fs = AppendOnlyFlashFS(device, durable=True)
            break
        except PowerLossError:
            continue
    check_contents(fs)
    check_aoffs_structure(fs)


# ------------------------------------------------------------- FTL recovery


def page_of(byte: int) -> bytes:
    return bytes([byte]) * PAGE


def test_ftl_mount_rebuilds_mapping_from_oob():
    device = FlashDevice(GEOMETRY, GRAFSOFT, SimClock())
    ssd = SSD(device, durable=True)
    for lpn in range(10):
        ssd.write_page(lpn, page_of(lpn))
    for lpn in range(5):  # overwrites: stale copies must lose at mount
        ssd.write_page(lpn, page_of(100 + lpn))
    remounted = SSD.mount(device)
    for lpn in range(5):
        assert bytes(remounted.read_page(lpn)) == page_of(100 + lpn)
    for lpn in range(5, 10):
        assert bytes(remounted.read_page(lpn)) == page_of(lpn)
    assert remounted.ftl.logical_pages == ssd.ftl.logical_pages


def test_ftl_mount_discards_torn_page_without_oob():
    device = FlashDevice(GEOMETRY, GRAFSOFT, SimClock(),
                         crashes=CrashPlan(at_ops=(4,), torn_write_p=1.0))
    ssd = SSD(device, durable=True)
    for lpn in range(4):
        ssd.write_page(lpn, page_of(lpn))
    with pytest.raises(PowerLossError):
        ssd.write_page(4, page_of(4))
    remounted = SSD.mount(device)
    for lpn in range(4):
        assert bytes(remounted.read_page(lpn)) == page_of(lpn)
    # The torn page carries no OOB record: the mapping never saw lpn 4.
    with pytest.raises(FlashError):
        remounted.read_page(4)


def test_non_durable_stores_reject_remount_recovery():
    device = FlashDevice(GEOMETRY, GRAFSOFT, SimClock())
    ssd = SSD(device)  # durable=False: no OOB records on flash
    ssd.write_page(0, page_of(1))
    remounted = SSD.mount(device)  # mounts, but finds nothing tagged
    with pytest.raises(FlashError):
        remounted.read_page(0)
    with pytest.raises(FlashError):
        SSDFileSystem(SSD(FlashDevice(GEOMETRY, GRAFSOFT, SimClock())),
                      durable=True)  # durable FS needs a durable FTL


def test_aoffs_recovery_stats_account_replay():
    device = FlashDevice(GEOMETRY, GRAFBOOST, SimClock())
    fs = AppendOnlyFlashFS(device, durable=True)
    run_script(fs)
    remounted = AppendOnlyFlashFS(device, durable=True)
    assert remounted.recovery.mounts == 1
    assert remounted.recovery.replayed_records > 0
    assert remounted.recovery.recovered_files == len(remounted.list_files())
    for name in fs.list_files():
        recovered = remounted.read(name)
        if fs.is_sealed(name):
            assert recovered == fs.read(name)
        else:
            # Unflushed tail bytes are volatile by contract: a remount keeps
            # exactly the flushed page-aligned prefix.
            assert recovered == fs.read(name)[:len(recovered)]
            assert len(recovered) % PAGE == 0
