"""Power-loss injection: crash plans, torn writes, the PowerLossError
contract, typed out-of-space errors, and atomic rename-overwrite."""

import dataclasses

import numpy as np
import pytest

from repro.engine.config import SystemConfig
from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import (
    FlashDevice,
    FlashError,
    FlashGeometry,
    FlashOutOfSpaceError,
    PowerLossError,
)
from repro.flash.faults import MAX_REMOUNTS, CrashPlan, PowerLossInjector
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT

GEOMETRY = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=64)


def raw_device(crashes=None, geometry=GEOMETRY):
    return FlashDevice(geometry, GRAFBOOST, SimClock(), crashes=crashes)


def ssd_device(crashes=None, geometry=GEOMETRY):
    return FlashDevice(geometry, GRAFSOFT, SimClock(), crashes=crashes)


def page_of(byte: int, geometry=GEOMETRY) -> bytes:
    return bytes([byte]) * geometry.page_bytes


# ---------------------------------------------------------------------- plans


def test_crash_plan_parse_spec():
    plan = CrashPlan.parse("seed=3,ops=7,first=100,gap=500,torn=0.25")
    assert plan.seed == 3
    assert plan.crashes == 7
    assert plan.first_op == 100
    assert plan.mean_gap == 500
    assert plan.torn_write_p == 0.25
    assert CrashPlan.parse("at=10/250/9000").at_ops == (10, 250, 9000)
    assert CrashPlan.parse("") == CrashPlan()


def test_crash_plan_parse_rejects_garbage():
    with pytest.raises(ValueError):
        CrashPlan.parse("seed")
    with pytest.raises(ValueError):
        CrashPlan.parse("bogus=1")
    with pytest.raises(ValueError):
        CrashPlan(torn_write_p=1.5)
    with pytest.raises(ValueError):
        CrashPlan(mean_gap=0)


def test_crash_plan_integer_keys_reject_fractions():
    # ops=2.5 used to be truncated to 2 and at=10.7 to (10,).
    for spec, key in (("ops=2.5", "ops"), ("at=10.7", "at"),
                      ("at=5/10.7", "at"), ("first=0.1", "first")):
        with pytest.raises(ValueError, match=f"bad value .* for crash key '{key}'"):
            CrashPlan.parse(spec)
    assert CrashPlan.parse("ops=1e3").crashes == 1000
    assert CrashPlan.parse("at=1e2/300.0").at_ops == (100, 300)


def test_crash_count_is_bounded_by_the_recovery_drivers_give_up():
    # One constant: a plan may schedule as many losses as the driver will
    # remount for, and asks numpy for no more draws than that.
    assert SystemConfig.max_remounts == MAX_REMOUNTS == 10_000
    assert len(CrashPlan.parse("ops=10000").schedule()) <= MAX_REMOUNTS
    for spec in ("ops=10001", "ops=1e9", "ops=1e400", "ops=-1"):
        with pytest.raises(ValueError, match="crash"):
            CrashPlan.parse(spec)
    with pytest.raises(ValueError, match="10000 remounts"):
        CrashPlan(crashes=MAX_REMOUNTS + 1)


def test_crash_schedule_is_deterministic_and_bounded():
    a = CrashPlan(seed=11, crashes=6, first_op=40, mean_gap=100.0)
    assert a.schedule() == a.schedule()
    assert a.schedule() != CrashPlan(seed=12, crashes=6, first_op=40,
                                     mean_gap=100.0).schedule()
    assert all(op >= a.first_op for op in a.schedule())
    assert a.schedule() == sorted(a.schedule())
    # Explicit op indices override the seeded drawing entirely.
    assert CrashPlan(seed=11, at_ops=(5, 2, 5)).schedule() == [2, 5]
    assert CrashPlan(crashes=0).schedule() == []


def test_power_loss_fires_at_exact_op_index():
    dev = raw_device(crashes=CrashPlan(at_ops=(3,), torn_write_p=0.0))
    for page in range(3):  # ops 0..2
        dev.write_page(2, page, page_of(page))
    with pytest.raises(PowerLossError) as exc:
        dev.write_page(2, 3, page_of(3))  # op 3: interrupted, not programmed
    assert exc.value.op_index == 3
    assert dev.crashes.stats.power_losses == 1
    # Schedule drained: the device now runs forever.
    dev.write_page(2, 3, page_of(3))
    dev.write_page(2, 4, page_of(4))


def test_power_loss_is_not_catchable_as_exception():
    """PowerLossError must sail through ``except Exception`` / ``except
    FlashError`` cleanup paths — only the crash harness may catch it."""
    assert not issubclass(PowerLossError, Exception)
    assert not issubclass(PowerLossError, FlashError)
    dev = raw_device(crashes=CrashPlan(at_ops=(0,)))
    with pytest.raises(PowerLossError):
        try:
            dev.write_page(0, 0, page_of(1))
        except Exception:  # noqa: BLE001 - the point of the test
            pytest.fail("PowerLossError was swallowed by `except Exception`")


def test_batched_write_stops_op_counter_at_the_crash():
    """Ops after the power cut never execute, so a batch hit must not
    advance the counter past the interrupted op — later scheduled points
    each fire on their own."""
    dev = raw_device(crashes=CrashPlan(at_ops=(2, 4), torn_write_p=0.0))
    writes = [(1, page, page_of(page)) for page in range(8)]
    with pytest.raises(PowerLossError) as exc:
        dev.write_pages(writes)
    assert exc.value.op_index == 2
    assert dev.crashes.op_index == 3
    # The prefix before the interrupted op committed; the rest did not.
    assert bytes(dev.read_page(1, 0)) == page_of(0)  # op counter: 3 -> 4 fires
    assert dev.crashes.stats.power_losses == 1
    with pytest.raises(PowerLossError):
        dev.read_page(1, 1)
    assert dev.crashes.stats.power_losses == 2


def test_torn_write_commits_prefix_plus_garbage_without_oob():
    dev = raw_device(crashes=CrashPlan(at_ops=(0,), torn_write_p=1.0))
    with pytest.raises(PowerLossError):
        dev.write_page(5, 0, page_of(0xAB))
    assert dev.crashes.stats.torn_writes == 1
    torn = bytes(dev.read_page(5, 0))
    assert len(torn) == GEOMETRY.page_bytes
    assert torn != page_of(0xAB)          # garbage tail somewhere
    # Torn pages never carry OOB: the mount scan sees none.
    assert dict(((b, p), oob) for b, p, oob in dev.mount_scan())[(5, 0)] is None
    # Untorn crash (torn=0): the page simply never programmed.
    dev2 = raw_device(crashes=CrashPlan(at_ops=(0,), torn_write_p=0.0))
    with pytest.raises(PowerLossError):
        dev2.write_page(5, 0, page_of(0xAB))
    with pytest.raises(FlashError):
        dev2.read_page(5, 0)


def test_injector_survives_across_injector_state_not_plan():
    """Two identical plans on identical workloads crash identically."""
    outcomes = []
    for _ in range(2):
        dev = raw_device(crashes=CrashPlan(seed=5, crashes=3, first_op=4,
                                           mean_gap=10.0))
        fired = []
        for page in range(GEOMETRY.pages_per_block):
            try:
                dev.write_page(1, page, page_of(page))
            except PowerLossError as e:
                fired.append(e.op_index)
        outcomes.append((fired, dataclasses.asdict(dev.crashes.stats)))
    assert outcomes[0] == outcomes[1]


def test_injector_requires_plan_like_object():
    injector = PowerLossInjector(CrashPlan(at_ops=(1,)), device=None)
    assert injector.advance(1) is None
    assert injector.advance(1) == 0
    with pytest.raises(PowerLossError):
        injector.fire("unit test")
    assert injector.advance(1) is None   # no loss remains


# -------------------------------------------------------------- out of space


def test_aoffs_raises_typed_out_of_space_when_full():
    tiny = FlashGeometry(page_bytes=4096, pages_per_block=4, num_blocks=8)
    fs = AppendOnlyFlashFS(FlashDevice(tiny, GRAFBOOST, SimClock()))
    with pytest.raises(FlashOutOfSpaceError) as exc:
        for i in range(tiny.num_blocks + 1):
            fs.append(f"f{i}", page_of(i, tiny))  # block-per-file: one each
    assert issubclass(FlashOutOfSpaceError, FlashError)
    assert "space" in str(exc.value).lower() or "full" in str(exc.value).lower()


def test_ssd_fs_raises_typed_out_of_space_when_full():
    tiny = FlashGeometry(page_bytes=4096, pages_per_block=4, num_blocks=8)
    fs = SSDFileSystem(SSD(FlashDevice(tiny, GRAFSOFT, SimClock())))
    with pytest.raises(FlashOutOfSpaceError):
        for i in range(200):
            fs.append("big", page_of(i % 256, tiny))


def test_ftl_gc_exhaustion_raises_typed_out_of_space():
    tiny = FlashGeometry(page_bytes=4096, pages_per_block=4, num_blocks=8)
    ssd = SSD(FlashDevice(tiny, GRAFSOFT, SimClock()))
    for lpn in range(ssd.logical_pages):
        ssd.write_page(lpn, page_of(lpn % 256, tiny))
    # Simulate the writable pool dying (every spare block retired): with
    # every surviving block fully live, GC has nothing to reclaim.
    for block in range(tiny.num_blocks):
        if ssd.device.valid_pages(block) < tiny.pages_per_block:
            ssd.device._retire(block)
    ssd.ftl._free_blocks.clear()
    ssd.ftl._active_block = None
    with pytest.raises(FlashOutOfSpaceError):
        ssd.write_page(0, page_of(1, tiny))


# --------------------------------------------------------- rename(overwrite)


@pytest.mark.parametrize("make_fs", [
    lambda: AppendOnlyFlashFS(raw_device()),
    lambda: SSDFileSystem(SSD(ssd_device())),
], ids=["aoffs", "ssd_fs"])
def test_rename_still_refuses_existing_target_by_default(make_fs):
    fs = make_fs()
    fs.append("a", b"aaa")
    fs.seal("a")
    fs.append("b", b"bbb")
    fs.seal("b")
    with pytest.raises(FileExistsError):
        fs.rename("a", "b")
    assert fs.read("b") == b"bbb"


@pytest.mark.parametrize("make_fs", [
    lambda: AppendOnlyFlashFS(raw_device()),
    lambda: SSDFileSystem(SSD(ssd_device())),
], ids=["aoffs", "ssd_fs"])
def test_rename_overwrite_atomically_replaces(make_fs):
    fs = make_fs()
    fs.append("victim", page_of(1) * 2)
    fs.seal("victim")
    fs.append("staging", b"fresh contents")
    fs.seal("staging")
    fs.rename("staging", "victim", overwrite=True)
    assert not fs.exists("staging")
    assert fs.read("victim") == b"fresh contents"
    # The replaced file's space returns to the pool.
    fs.rename("victim", "victim2")
    assert fs.read("victim2") == b"fresh contents"


def test_rename_overwrite_survives_remount():
    fs = AppendOnlyFlashFS(raw_device(), durable=True)
    fs.append("victim", page_of(7))
    fs.seal("victim")
    fs.append("staging", b"new")
    fs.seal("staging")
    fs.rename("staging", "victim", overwrite=True)
    remounted = AppendOnlyFlashFS(fs.device, durable=True)
    assert remounted.read("victim") == b"new"
    assert not remounted.exists("staging")


def test_rename_overwrite_survives_remount_ssd():
    fs = SSDFileSystem(SSD(ssd_device(), durable=True), durable=True)
    fs.append("victim", page_of(7))
    fs.seal("victim")
    fs.append("staging", b"new")
    fs.seal("staging")
    fs.rename("staging", "victim", overwrite=True)
    ssd = SSD.mount(fs.device)
    remounted = SSDFileSystem.mount(ssd)
    assert remounted.read("victim") == b"new"
    assert not remounted.exists("staging")
