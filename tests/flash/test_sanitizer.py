"""FlashSan: every invariant fires when violated, and a sanitized run of
the real stack is clean and bit-identical to an unsanitized one.

The device model's own validation rejects API misuse before the sanitizer
ever sees it, so the violation tests simulate *bookkeeping bugs*: they
corrupt device/FTL internals directly (`_page_state`, `_data`, `_oob`,
`_next_program_page`, free pools, the clock) exactly as a regression in
the stack would, then drive the public API over the damage.
"""

import heapq

import pytest

from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import (
    PAGE_ERASED,
    PAGE_VALID,
    FlashDevice,
    FlashGeometry,
)
from repro.flash.faults import CrashPlan
from repro.flash.ftl import SSD, PageMappedFTL
from repro.flash.sanitizer import FlashSanitizer, SanitizerError, sanitizer_enabled
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT

GEOMETRY = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=64)


def make_device(**kwargs):
    kwargs.setdefault("sanitize", True)
    return FlashDevice(GEOMETRY, GRAFBOOST, SimClock(), **kwargs)


def page_of(byte: int) -> bytes:
    return bytes([byte]) * GEOMETRY.page_bytes


# ------------------------------------------------------------------ enablement


def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    device = FlashDevice(GEOMETRY, GRAFBOOST, SimClock())
    assert device.sanitizer is None
    assert not sanitizer_enabled()


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitizer_enabled()
    device = FlashDevice(GEOMETRY, GRAFBOOST, SimClock())
    assert isinstance(device.sanitizer, FlashSanitizer)
    # An explicit argument beats the environment in both directions.
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert FlashDevice(GEOMETRY, GRAFBOOST, SimClock(),
                       sanitize=True).sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert FlashDevice(GEOMETRY, GRAFBOOST, SimClock(),
                       sanitize=False).sanitizer is None


def test_sanitizer_error_is_not_a_flash_error():
    from repro.flash.device import FlashError
    assert not issubclass(SanitizerError, FlashError)
    assert issubclass(SanitizerError, Exception)


# ------------------------------------------------------------- program checks


def test_double_program_detected():
    device = make_device()
    device.write_page(0, 0, page_of(1))
    # Simulate state-matrix corruption: the device forgets the page was
    # programmed, so its own erase-before-write check passes.
    device._page_state[0, 0] = PAGE_ERASED
    device._next_program_page[0] = 0
    with pytest.raises(SanitizerError, match="double program"):
        device.write_page(0, 0, page_of(2))


def test_program_to_invalidated_page_detected():
    device = make_device()
    device.write_page(0, 0, page_of(1))
    device.invalidate_page(0, 0)
    device._page_state[0, 0] = PAGE_ERASED
    device._next_program_page[0] = 0
    with pytest.raises(SanitizerError, match="non-erased"):
        device.write_page(0, 0, page_of(2))


def test_out_of_order_program_detected():
    device = make_device()
    device.write_page(0, 0, page_of(1))
    # Corrupt the device's program cursor; pages 1.. are still erased so
    # only the shadow cursor knows page 1 was skipped.
    device._next_program_page[0] = 2
    with pytest.raises(SanitizerError, match="out-of-order"):
        device.write_page(0, 2, page_of(2))


# ---------------------------------------------------------------- read checks


def test_read_of_never_written_page_detected():
    device = make_device()
    # Conjure a valid page out of nowhere (state-matrix corruption).
    device._page_state[3, 0] = PAGE_VALID
    device._data[(3, 0)] = page_of(9)
    with pytest.raises(SanitizerError, match="never-written"):
        device.read_page(3, 0)


def test_content_divergence_detected():
    device = make_device()
    device.write_page(0, 0, page_of(1))
    device._data[(0, 0)] = page_of(2)  # bit-rot outside the fault model
    with pytest.raises(SanitizerError, match="diverged"):
        device.read_page(0, 0)


def test_content_divergence_detected_on_batched_read():
    device = make_device()
    device.write_pages([(0, 0, page_of(1)), (0, 1, page_of(2))])
    device._data[(0, 1)] = page_of(7)
    with pytest.raises(SanitizerError, match="diverged"):
        device.read_pages([(0, 0), (0, 1)])


def test_oob_divergence_detected():
    device = make_device()
    device.write_page(0, 0, page_of(1), oob=b"lpn=42")
    device._oob[(0, 0)] = b"lpn=43"
    with pytest.raises(SanitizerError, match="OOB"):
        device.mount_scan()
    device2 = make_device()
    device2.write_page(0, 0, page_of(1))  # no OOB programmed
    device2._oob[(0, 0)] = b"ghost"
    with pytest.raises(SanitizerError, match="OOB"):
        device2.mount_scan()


# --------------------------------------------------------------- erase checks


def test_erase_of_ftl_mapped_pages_detected():
    device = make_device()
    ftl = PageMappedFTL(device)
    ftl.write_many([(0, page_of(1))])
    block = ftl._map[0][0]
    with pytest.raises(SanitizerError, match="still mapped"):
        device.erase_block(block)


def test_erase_of_live_aoffs_file_detected():
    device = make_device()
    fs = AppendOnlyFlashFS(device)
    fs.append("f", page_of(1))
    fs.seal("f")
    block = fs._files["f"].extents[0]
    with pytest.raises(SanitizerError, match="owned by live"):
        device.erase_block(block)


def test_erase_of_aoffs_journal_and_superblock_detected():
    device = make_device()
    fs = AppendOnlyFlashFS(device, durable=True)
    fs.append("f", page_of(1))
    fs.seal("f")
    with pytest.raises(SanitizerError, match="journal"):
        device.erase_block(fs._journal_blocks[0])
    with pytest.raises(SanitizerError, match="superblock"):
        device.erase_block(fs._sb_active)


def test_erase_of_reclaimed_block_is_clean():
    device = make_device()
    fs = AppendOnlyFlashFS(device)
    fs.append("f", page_of(1))
    fs.seal("f")
    block = fs._files["f"].extents[0]
    fs.delete("f")  # delete erases the block back into the pool — legal
    assert device.sanitizer._state[block].any() == False  # noqa: E712


# ----------------------------------------------------------- free-pool audits


def test_free_pool_drift_detected():
    device = make_device()
    ftl = PageMappedFTL(device)
    ftl.write_many([(0, page_of(1))])
    live_block = ftl._map[0][0]
    # A bookkeeping bug returns a block holding live data to the free pool.
    heapq.heappush(ftl._free_blocks, live_block)
    with pytest.raises(SanitizerError, match="free"):
        ftl._sanity_check()


def test_map_reverse_disagreement_detected():
    device = make_device()
    ftl = PageMappedFTL(device)
    ftl.write_many([(0, page_of(1))])
    ftl._reverse[ftl._map[0]] = 1  # reverse map points at the wrong lpn
    with pytest.raises(SanitizerError, match="reverse"):
        ftl._sanity_check()


def test_spare_accounting_drift_detected():
    device = make_device()
    ftl = PageMappedFTL(device)
    ftl.write_many([(0, page_of(1))])
    ftl.spare_blocks_remaining += 1
    with pytest.raises(SanitizerError, match="spare"):
        ftl._sanity_check()


def test_map_to_unprogrammed_page_detected():
    device = make_device()
    ftl = PageMappedFTL(device)
    ftl.write_many([(0, page_of(1))])
    ftl._map[1] = (5, 0)  # maps a page nothing ever programmed
    ftl._reverse[(5, 0)] = 1
    with pytest.raises(SanitizerError, match="never saw"):
        ftl._sanity_check()


# --------------------------------------------------------------- clock checks


def test_zero_cost_device_op_detected(monkeypatch):
    device = make_device()
    device.write_page(0, 0, page_of(1))
    monkeypatch.setattr(device.clock, "charge",
                        lambda *args, **kwargs: None)
    with pytest.raises(SanitizerError, match="zero-cost"):
        device.read_page(0, 0)


def test_non_monotonic_clock_detected():
    device = make_device()
    device.write_page(0, 0, page_of(1))
    device.clock.elapsed_s -= 1e-3
    with pytest.raises(SanitizerError, match="backwards"):
        device.read_page(0, 0)


# --------------------------------------------------------- clean-run positive


def test_normal_ftl_workload_is_clean_through_gc():
    device = make_device()
    ftl = PageMappedFTL(device, gc_reserve_blocks=2)
    # Overwrite a small working set until GC must run several times.
    for round_ in range(14):
        ftl.write_many([(lpn, page_of((round_ + lpn) % 251))
                        for lpn in range(64)])
    for lpn in range(0, 64, 3):
        ftl.trim(lpn)
    ftl.write_many([(lpn, page_of(lpn % 251)) for lpn in range(64)])
    assert ftl.gc_runs > 0
    for lpn in range(64):
        assert ftl.read(lpn) == page_of(lpn % 251)
    sanitizer = device.sanitizer
    sanitizer.check_ftl(ftl)
    assert sanitizer.ftl_checks > 0
    assert sanitizer.pages_checked >= 64


def test_normal_aoffs_workload_is_clean():
    device = make_device()
    fs = AppendOnlyFlashFS(device, durable=True)
    for i in range(4):
        fs.append(f"f{i}", page_of(i + 1) * 3)
        fs.seal(f"f{i}")
    fs.delete("f1")
    fs.rename("f2", "f0", overwrite=True)  # erases f0's old blocks
    assert fs.read("f0") == page_of(3) * 3
    assert device.sanitizer.pages_checked > 0


def test_durable_ftl_mount_is_clean():
    device = make_device()
    ftl = PageMappedFTL(device, durable=True)
    ftl.write_many([(lpn, page_of(lpn + 1)) for lpn in range(20)])
    ftl.write_many([(3, page_of(99))])  # leave an invalidated old copy behind
    remounted = PageMappedFTL.mount(device)
    assert remounted.device.sanitizer is device.sanitizer
    assert remounted.read(3) == page_of(99)
    remounted._sanity_check()


def test_crash_and_torn_write_recovery_is_clean():
    device = FlashDevice(GEOMETRY, GRAFSOFT, SimClock(),
                         crashes=CrashPlan(at_ops=(25,), torn_write_p=1.0),
                         sanitize=True)
    ssd = SSD(device, durable=True)
    from repro.flash.device import PowerLossError
    with pytest.raises(PowerLossError):
        for lpn in range(40):
            ssd.ftl.write_many([(lpn, page_of(lpn + 1))])
    # Remount replays OOB records past the torn page; the sanitizer rides
    # along through the whole scan and must stay silent.
    recovered = SSD.mount(device)
    surviving = [lpn for lpn in range(40) if lpn in recovered.ftl._map]
    assert surviving
    for lpn in surviving:
        assert recovered.ftl.read(lpn) == page_of(lpn + 1)
    recovered.ftl._sanity_check()
