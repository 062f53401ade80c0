"""Page-mapped FTL: translation, overwrites, garbage collection, wear."""

import pytest

from repro.flash.device import FlashDevice, FlashError, FlashGeometry
from repro.flash.ftl import SSD, PageMappedFTL
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFSOFT


def make_ftl(num_blocks=16, pages_per_block=8, overprovision=0.2):
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=pages_per_block,
                             num_blocks=num_blocks)
    device = FlashDevice(geometry, GRAFSOFT, SimClock())
    return PageMappedFTL(device, overprovision=overprovision)


def test_write_read_roundtrip():
    ftl = make_ftl()
    ftl.write_many([(5, b"data5")])
    assert ftl.read(5) == b"data5"
    assert ftl.is_mapped(5)
    assert not ftl.is_mapped(6)


def test_overwrite_remaps():
    ftl = make_ftl()
    ftl.write_many([(0, b"v1")])
    old_physical = ftl.translate(0)
    ftl.write_many([(0, b"v2")])
    assert ftl.read(0) == b"v2"
    assert ftl.translate(0) != old_physical


def test_read_unwritten_is_error():
    ftl = make_ftl()
    with pytest.raises(FlashError, match="unwritten"):
        ftl.read(3)
    with pytest.raises(FlashError):
        ftl.read(10 ** 9)


def test_trim_unmaps():
    ftl = make_ftl()
    ftl.write_many([(1, b"x")])
    ftl.trim(1)
    assert not ftl.is_mapped(1)
    ftl.trim(1)  # idempotent


def test_gc_reclaims_overwritten_space():
    # Overwrite a small working set far beyond device capacity; GC must
    # keep making room and data must survive relocations.
    ftl = make_ftl(num_blocks=8, pages_per_block=4, overprovision=0.3)
    for round_index in range(20):
        for lpn in range(10):
            ftl.write_many([(lpn, f"{round_index}:{lpn}".encode())])
    assert ftl.gc_runs > 0
    for lpn in range(10):
        assert ftl.read(lpn) == f"19:{lpn}".encode()


def test_write_amplification_reported():
    ftl = make_ftl(num_blocks=8, pages_per_block=4, overprovision=0.3)
    assert ftl.write_amplification == 1.0  # nothing written yet
    for round_index in range(30):
        for lpn in range(8):
            ftl.write_many([(lpn, b"x" * 64)])
    assert ftl.write_amplification >= 1.0
    assert ftl.device.total_pages_written >= ftl.user_pages_written


def test_sustained_overwrites_never_exhaust():
    # Over-provisioning guarantees GC always finds garbage at steady state:
    # writing the full logical space repeatedly must never raise.
    ftl = make_ftl(num_blocks=4, pages_per_block=4, overprovision=0.3)
    for round_index in range(6):
        for lpn in range(ftl.logical_pages):
            ftl.write_many([(lpn, f"{round_index}-{lpn}".encode())])
    for lpn in range(ftl.logical_pages):
        assert ftl.read(lpn) == f"5-{lpn}".encode()


def test_write_many_matches_individual_writes():
    ftl_a = make_ftl()
    ftl_b = make_ftl()
    payload = [(i, bytes([i]) * 128) for i in range(20)]
    ftl_a.write_many(payload)
    for lpn, data in payload:
        ftl_b.write_many([(lpn, data)])
    for lpn, data in payload:
        assert ftl_a.read(lpn) == data
        assert ftl_b.read(lpn) == data


def test_write_many_cheaper_than_individual():
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=32)
    clock_a, clock_b = SimClock(), SimClock()
    ftl_a = PageMappedFTL(FlashDevice(geometry, GRAFSOFT, clock_a))
    ftl_b = PageMappedFTL(FlashDevice(geometry, GRAFSOFT, clock_b))
    payload = [(i, b"z" * 4096) for i in range(64)]
    ftl_a.write_many(payload)
    for lpn, data in payload:
        ftl_b.write_many([(lpn, data)])
    assert clock_a.elapsed_s < clock_b.elapsed_s


def test_ssd_charges_ftl_overhead():
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=16)
    clock = SimClock()
    ssd = SSD(FlashDevice(geometry, GRAFSOFT, clock), ftl_overhead_s=1e-3)
    ssd.write_page(0, b"a")
    with_overhead = clock.elapsed_s

    clock2 = SimClock()
    ssd2 = SSD(FlashDevice(geometry, GRAFSOFT, clock2), ftl_overhead_s=0.0)
    ssd2.write_page(0, b"a")
    assert with_overhead - clock2.elapsed_s == pytest.approx(1e-3)


def test_ssd_batch_roundtrip():
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=16)
    ssd = SSD(FlashDevice(geometry, GRAFSOFT, SimClock()))
    ssd.write_pages([(i, bytes([i]) * 10) for i in range(10)])
    pages = ssd.read_pages(list(range(10)))
    assert pages == [bytes([i]) * 10 for i in range(10)]
    assert ssd.read_pages([]) == []


def test_overprovision_validation():
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=16)
    device = FlashDevice(geometry, GRAFSOFT, SimClock())
    with pytest.raises(ValueError):
        PageMappedFTL(device, overprovision=0.0)
    with pytest.raises(ValueError):
        PageMappedFTL(device, overprovision=1.0)
