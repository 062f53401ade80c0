"""Wear accounting and lifetime estimates."""

import pytest

from repro.flash.device import FlashDevice, FlashGeometry
from repro.flash.wear import WearReport, lifetime_writes_remaining
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFSOFT


def make_device():
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=4, num_blocks=8)
    return FlashDevice(geometry, GRAFSOFT, SimClock())


def test_fresh_device_report():
    report = WearReport.from_device(make_device())
    assert report.pages_written == 0
    assert report.blocks_erased == 0
    assert report.max_erase_count == 0
    assert report.wear_evenness() == pytest.approx(1.0)


def test_report_counts_activity():
    device = make_device()
    device.write_page(0, 0, b"a" * 4096)
    device.write_page(0, 1, b"b" * 4096)
    device.erase_block(0)
    report = WearReport.from_device(device)
    assert report.pages_written == 2
    assert report.blocks_erased == 1
    assert report.bytes_written == 8192
    assert report.max_erase_count == 1


def test_uneven_wear_lowers_evenness():
    device = make_device()
    for _ in range(50):
        device.erase_block(0)  # hammer one block
    report = WearReport.from_device(device)
    even_device = make_device()
    for block in range(8):
        for _ in range(6):
            even_device.erase_block(block)
    even_report = WearReport.from_device(even_device)
    assert report.wear_evenness() < even_report.wear_evenness()


def test_lifetime_fraction():
    device = make_device()
    assert lifetime_writes_remaining(device) == pytest.approx(1.0)
    for _ in range(300):
        device.erase_block(0)
    assert lifetime_writes_remaining(device) == pytest.approx(0.9)
