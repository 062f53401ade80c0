"""Append-Only Flash File System: what only the paper's AOFFS (§IV-A) does.

The interface cases every file store shares live in
``test_store_contract.py``, which runs them on both placements, volatile
and durable.
"""

import pytest
import test_store_contract as contract

from repro.flash.device import FlashError


@pytest.fixture
def store(aoffs):
    return aoffs


# The contract cases on the conftest ``aoffs`` stack, under the test ids
# they have always had here (the tier-1 floor list names them).
test_append_read_roundtrip = contract.test_append_read_roundtrip
test_read_ranges = contract.test_read_ranges
test_read_out_of_range = contract.test_read_out_of_range
test_tail_visible_before_seal = contract.test_tail_visible_before_seal
test_seal_makes_immutable = contract.test_seal_makes_immutable
test_create_conflicts = contract.test_create_conflicts
test_missing_file = contract.test_missing_file
test_delete_returns_space = contract.test_delete_returns_space
test_array_roundtrip = contract.test_array_roundtrip
test_stream_chunks = contract.test_stream_chunks
test_rename = contract.test_rename
test_list_files = contract.test_list_files


def test_append_only_no_random_update_api(aoffs):
    # AOFFS deliberately exposes no in-place write; the attribute must not
    # exist (SSDFileSystem has it, AOFFS must not).
    assert not hasattr(aoffs, "write_at")


def test_delete_erases_blocks(aoffs):
    device = aoffs.device
    erased_before = device.total_blocks_erased
    aoffs.append("f", b"z" * 20000)
    aoffs.delete("f")
    assert device.total_blocks_erased > erased_before


def test_no_write_amplification(aoffs):
    # Block-per-file allocation means AOFFS never relocates data: pages
    # programmed == pages of data appended (plus seal padding).
    data = b"q" * (aoffs.geometry.page_bytes * 10)
    aoffs.append("f", data)
    aoffs.seal("f")
    assert aoffs.device.total_pages_written == 10


def test_out_of_space(aoffs):
    capacity = aoffs.free_bytes
    with pytest.raises(FlashError, match="out of space"):
        aoffs.append("big", b"\xff" * (capacity + aoffs.geometry.block_bytes))


def test_wear_leveled_allocation(aoffs):
    # Creating and deleting files repeatedly must spread erases across the
    # whole device instead of hammering the same blocks (§II-B): with
    # least-erased-first allocation, max and min erase counts stay within
    # one cycle of each other.
    block_bytes = aoffs.geometry.block_bytes
    for round_index in range(4 * aoffs.geometry.num_blocks // 4):
        aoffs.append("scratch", b"w" * (2 * block_bytes))
        aoffs.delete("scratch")
    counts = aoffs.device.erase_counts
    assert max(counts) - min(counts) <= 1
    assert max(counts) >= 1
