"""NAND device simulator: physical constraints, data integrity, timing."""

import pytest

from repro.flash.device import FlashDevice, FlashError, FlashGeometry
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFSOFT


def make_device(clock=None):
    geometry = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=16)
    return FlashDevice(geometry, GRAFSOFT, clock or SimClock())


def test_write_read_roundtrip():
    device = make_device()
    device.write_page(0, 0, b"hello")
    assert device.read_page(0, 0) == b"hello"


def test_program_order_enforced():
    device = make_device()
    with pytest.raises(FlashError, match="out-of-order"):
        device.write_page(0, 3, b"skip")
    device.write_page(0, 0, b"a")
    device.write_page(0, 1, b"b")
    with pytest.raises(FlashError, match="out-of-order"):
        device.write_page(0, 5, b"skip ahead")
    with pytest.raises(FlashError, match="un-erased"):
        device.write_page(0, 1, b"rewrite")


def test_erase_before_write_enforced():
    device = make_device()
    device.write_page(0, 0, b"x")
    device.erase_block(0)
    device.write_page(0, 0, b"y")  # fine after erase
    assert device.read_page(0, 0) == b"y"


def test_read_of_erased_page_is_error():
    device = make_device()
    with pytest.raises(FlashError, match="erased"):
        device.read_page(0, 0)


def test_page_size_limit():
    device = make_device()
    with pytest.raises(FlashError, match="exceeds page size"):
        device.write_page(0, 0, b"z" * 5000)


def test_erase_destroys_data_and_counts_wear():
    device = make_device()
    device.write_page(2, 0, b"doomed")
    device.erase_block(2)
    assert device.erase_counts[2] == 1
    assert device.block_is_erased(2)
    with pytest.raises(FlashError):
        device.read_page(2, 0)


def test_invalidate_tracks_page_state():
    device = make_device()
    device.write_page(0, 0, b"v")
    assert device.valid_pages(0) == 1
    device.invalidate_page(0, 0)
    assert device.valid_pages(0) == 0
    with pytest.raises(FlashError):
        device.invalidate_page(0, 0)  # already invalid


def test_read_of_invalidated_page_is_flash_error():
    # Regression: this used to escape as a bare KeyError from the page map.
    device = make_device()
    device.write_page(0, 0, b"v")
    device.invalidate_page(0, 0)
    with pytest.raises(FlashError, match="invalidated"):
        device.read_page(0, 0)


def test_batched_read_of_invalidated_page_is_flash_error():
    # Regression: a multi-page run hitting an invalidated page used to raise
    # KeyError from the batched fast path instead of a typed error.
    device = make_device()
    for page in range(4):
        device.write_page(0, page, bytes([page]) * 16)
    device.invalidate_page(0, 1)
    with pytest.raises(FlashError, match="invalidated"):
        device.read_pages([(0, page) for page in range(4)])


def test_batched_read_of_erased_page_matches_scalar():
    device = make_device()
    device.write_page(0, 0, b"a")
    with pytest.raises(FlashError, match="erased"):
        device.read_pages([(0, 0), (0, 1), (0, 2)])


def test_read_pages_takes_runs():
    # (block, first page, count) runs read, charge and count exactly like
    # the same pages named one (block, page) pair each.
    by_pair, by_run = make_device(), make_device()
    for device in (by_pair, by_run):
        device.write_pages([(b, p, bytes([b, p]) * 100)
                            for b in (0, 1, 2) for p in range(8)])
    pairs = [(0, 5), (0, 6), (0, 7), (1, 0), (2, 3), (2, 4)]
    runs = [(0, 5, 3), (1, 0, 1), (2, 3, 2)]
    assert by_run.read_pages(runs) == by_pair.read_pages(pairs)
    assert by_run.clock.elapsed_s == by_pair.clock.elapsed_s
    assert by_run.clock.usage == by_pair.clock.usage
    assert by_run.total_pages_read == by_pair.total_pages_read == 6


@pytest.mark.parametrize("spoil, kind", [("invalidate", "invalidated"),
                                         ("leave erased", "erased")])
def test_bad_page_inside_a_run_is_named(spoil, kind):
    device = make_device()
    device.write_pages([(3, p, b"x") for p in range(5 if spoil == "invalidate" else 2)])
    if spoil == "invalidate":
        device.invalidate_page(3, 2)
    before = device.clock.elapsed_s
    for addresses in ([(3, 0, 4)], [(3, p) for p in range(4)]):
        with pytest.raises(FlashError, match=rf"read of {kind} page \(3, 2\)"):
            device.read_pages(addresses)
    assert device.clock.elapsed_s == before and device.total_pages_read == 0


@pytest.mark.parametrize("run, pairs, message", [
    ((16, 0, 2), [(16, 0), (16, 1)], r"block 16 out of range \[0, 16\)"),
    ((0, 6, 3), [(0, 6), (0, 7), (0, 8)], r"page 8 out of range \[0, 8\)"),
    ((0, -1, 2), [(0, -1), (0, 0)], r"page -1 out of range \[0, 8\)"),
])
def test_out_of_range_run_is_the_same_error(run, pairs, message):
    device = make_device()
    device.write_pages([(0, p, b"x") for p in range(8)])
    for addresses in ([run], pairs):
        with pytest.raises(FlashError, match=message):
            device.read_pages(addresses)


def test_batched_write_errors_match_scalar():
    # Out-of-order program: same typed error from the batched run path.
    device = make_device()
    with pytest.raises(FlashError, match="out-of-order"):
        device.write_pages([(0, 3, b"x"), (0, 4, b"y")])
    # Oversize page: both paths reject before touching state.
    device2 = make_device()
    with pytest.raises(FlashError, match="exceeds page size"):
        device2.write_pages([(0, 0, b"ok"), (0, 1, b"z" * 5000)])
    assert device2.valid_pages(0) == 0


def test_out_of_range_addresses():
    device = make_device()
    with pytest.raises(FlashError):
        device.write_page(99, 0, b"")
    with pytest.raises(FlashError):
        device.read_page(0, 99)
    with pytest.raises(FlashError):
        device.erase_block(-1)


def test_batched_read_pays_one_latency():
    clock_single = SimClock()
    device = make_device(clock_single)
    for page in range(8):
        device.write_page(0, page, b"d" * 4096)
    write_time = clock_single.elapsed_s

    # Read the 8 pages one by one vs in one batch.
    start = clock_single.elapsed_s
    for page in range(8):
        device.read_page(0, page)
    individual = clock_single.elapsed_s - start

    start = clock_single.elapsed_s
    device.read_pages([(0, page) for page in range(8)])
    batched = clock_single.elapsed_s - start

    assert batched < individual
    # 7 extra latencies is exactly the difference.
    expected_gap = 7 * GRAFSOFT.flash_read_latency_s
    assert individual - batched == pytest.approx(expected_gap)
    assert write_time > 0


def test_batched_write_pays_one_latency():
    clock = SimClock()
    device = make_device(clock)
    start = clock.elapsed_s
    device.write_pages([(0, page, b"w" * 4096) for page in range(8)])
    batched = clock.elapsed_s - start

    clock2 = SimClock()
    device2 = make_device(clock2)
    for page in range(8):
        device2.write_page(0, page, b"w" * 4096)
    assert batched < clock2.elapsed_s


def test_single_page_call_is_a_batch_of_one():
    # On a bit-packed device a 4 KB page is 2730.67 B of flash traffic; a
    # single-page call used to charge the transfer of 2730 B, a batch of one
    # that of 2730.67 B.  Both now pay the batch charge.
    usages = []
    for single in (True, False):
        device = FlashDevice(FlashGeometry(4096, 8, 16), GRAFSOFT, SimClock(),
                             traffic_scale=2 / 3)
        if single:
            device.write_page(0, 0, b"p" * 4096)
            device.read_page(0, 0)
        else:
            device.write_pages([(0, 0, b"p" * 4096)])
            device.read_pages([(0, 0)])
        usages.append((device.clock.elapsed_s, device.clock.usage))
    assert usages[0] == usages[1]


def test_clock_records_bytes():
    clock = SimClock()
    device = make_device(clock)
    device.write_page(0, 0, b"q" * 4096)
    device.read_page(0, 0)
    assert clock.bytes_moved("flash") == 8192
