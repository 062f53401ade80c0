"""Multi-channel flash parallelism (§II-B, BlueDBM's 8-channel cards)."""

import pytest

from repro.flash.device import FlashDevice, FlashError, FlashGeometry
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFSOFT


def make_device(channels):
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=4,
                             num_blocks=64, channels=channels)
    return FlashDevice(geometry, GRAFSOFT, SimClock())


def fill_blocks(device, blocks, pages=4):
    for block in blocks:
        for page in range(pages):
            device._write_silent(block, page, b"d" * 4096)


def test_geometry_validation():
    with pytest.raises(ValueError, match="channels"):
        FlashGeometry(4096, 4, 8, channels=0)
    with pytest.raises(ValueError, match="more channels"):
        FlashGeometry(4096, 4, 8, channels=16)


def test_channel_striping():
    # Blocks stripe round-robin: blocks 0 and 7 sit on different channels of
    # 8 and transfer in parallel; blocks 0 and 8 share channel 0 and queue.
    transfer = {}
    for pair in ((0, 7), (0, 8)):
        device = make_device(8)
        fill_blocks(device, pair, pages=1)
        device.read_pages([(block, 0) for block in pair])
        transfer[pair] = device.clock.elapsed_s - GRAFSOFT.flash_read_latency_s
    assert transfer[(0, 8)] == pytest.approx(2 * transfer[(0, 7)])


def test_single_channel_matches_aggregate_model():
    # channels=1 must reproduce the original aggregate-bandwidth charge.
    a = make_device(1)
    fill_blocks(a, range(8))
    a.read_pages([(b, p) for b in range(8) for p in range(4)])
    expected = GRAFSOFT.flash_read_latency_s + 32 * 4096 / GRAFSOFT.flash_read_bw
    assert a.clock.elapsed_s == pytest.approx(expected)


def test_striped_batch_reaches_aggregate_bandwidth():
    # A batch spread over all 8 channels transfers 8x faster than the same
    # bytes confined to one channel.
    spread = make_device(8)
    fill_blocks(spread, range(8))
    spread.read_pages([(b, p) for b in range(8) for p in range(4)])

    confined = make_device(8)
    fill_blocks(confined, [0, 8, 16, 24, 32, 40, 48, 56])
    confined.read_pages([(b, p) for b in (0, 8, 16, 24, 32, 40, 48, 56)
                         for p in range(4)])
    latency = GRAFSOFT.flash_read_latency_s
    spread_transfer = spread.clock.elapsed_s - latency
    confined_transfer = confined.clock.elapsed_s - latency
    assert confined_transfer == pytest.approx(8 * spread_transfer)


def test_striped_runs_charge_the_busiest_channel():
    # Runs (what AOFFS hands the device) stripe like the same pages given
    # one by one: blocks 0 and 4 share channel 0 of 4, so it moves 6 of the
    # 9 pages and decides the transfer time.
    by_pair, by_run = make_device(4), make_device(4)
    for device in (by_pair, by_run):
        fill_blocks(device, (0, 1, 4))
    by_pair.read_pages([(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
                        (4, 0), (4, 1)])
    by_run.read_pages([(0, 0, 4), (1, 1, 3), (4, 0, 2)])
    assert by_run.clock.elapsed_s == by_pair.clock.elapsed_s
    assert by_run.clock.usage == by_pair.clock.usage
    assert by_run.clock.elapsed_s == (
        GRAFSOFT.flash_read_latency_s
        + 6 * 4096 * 1.0 / (GRAFSOFT.flash_read_bw / 4))
    assert by_run.clock.bytes_moved("flash") == 9 * 4096


def test_single_page_read_uses_one_channel():
    one = make_device(1)
    eight = make_device(8)
    for device in (one, eight):
        device._write_silent(0, 0, b"x" * 4096)
    one.read_page(0, 0)
    eight.read_page(0, 0)
    # Same latency, 8x the transfer time on the 8-channel device's single
    # channel share.
    latency = GRAFSOFT.flash_read_latency_s
    assert (eight.clock.elapsed_s - latency) == pytest.approx(
        8 * (one.clock.elapsed_s - latency))


def test_striped_writes():
    spread = make_device(8)
    spread.write_pages([(b, 0, b"w" * 4096) for b in range(8)])
    confined = make_device(8)
    # Program order forces page sequence within each block, so use
    # same-channel blocks (0, 8, 16, ...) page 0 each.
    confined.write_pages([(b, 0, b"w" * 4096) for b in (0, 8, 16, 24, 32, 40, 48, 56)])
    latency = GRAFSOFT.flash_write_latency_s
    assert (confined.clock.elapsed_s - latency) == pytest.approx(
        8 * (spread.clock.elapsed_s - latency))
