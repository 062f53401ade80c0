"""SSD-backed file system: what only the FTL placement does (in-place writes).

The interface cases every file store shares live in
``test_store_contract.py``, which runs them on both placements, volatile
and durable.
"""

import pytest
import test_store_contract as contract


@pytest.fixture
def store(ssd_fs):
    return ssd_fs


# The contract cases on the conftest ``ssd_fs`` stack, under the test ids
# they have always had here (the tier-1 floor list names them).
test_append_read_roundtrip = contract.test_append_read_roundtrip
test_multi_page_file = contract.test_read_ranges
test_array_roundtrip = contract.test_array_roundtrip
test_delete_trims_and_frees = contract.test_delete_returns_space
test_seal_then_append_rejected = contract.test_seal_makes_immutable
test_stream = contract.test_stream_chunks
test_rename = contract.test_rename


def test_write_at_in_place_update(ssd_fs):
    page = ssd_fs.page_bytes
    ssd_fs.append("f", b"\x00" * (page * 3))
    ssd_fs.write_at("f", page + 10, b"PATCH")
    content = ssd_fs.read("f")
    assert content[page + 10:page + 15] == b"PATCH"
    assert content[:page + 10] == b"\x00" * (page + 10)


def test_write_at_spanning_pages(ssd_fs):
    page = ssd_fs.page_bytes
    ssd_fs.append("f", b"\x00" * (page * 2))
    blob = b"R" * 100
    ssd_fs.write_at("f", page - 50, blob)
    assert ssd_fs.read("f", page - 50, 100) == blob


def test_write_at_outside_flushed_region(ssd_fs):
    ssd_fs.append("f", b"tiny")  # still in the tail buffer
    with pytest.raises(ValueError):
        ssd_fs.write_at("f", 0, b"x")


def test_write_at_causes_ftl_garbage(ssd_fs):
    page = ssd_fs.page_bytes
    ssd_fs.append("f", b"\x00" * (page * 2))
    user_writes_before = ssd_fs.ssd.ftl.user_pages_written
    ssd_fs.write_at("f", 0, b"y" * page)
    assert ssd_fs.ssd.ftl.user_pages_written == user_writes_before + 1


def test_interface_parity_with_aoffs(ssd_fs, aoffs):
    # The sort-reduce and graph layers use these members on either store.
    for member in ("create", "append", "seal", "read", "stream", "delete",
                   "exists", "size", "list_files", "append_array",
                   "read_array", "rename", "device"):
        assert hasattr(ssd_fs, member), member
        assert hasattr(aoffs, member), member
