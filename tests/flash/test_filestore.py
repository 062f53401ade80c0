"""SSD-backed file system: what only the FTL placement does (in-place writes).

The interface cases every file store shares live in
``test_store_contract.py``, which runs them on both placements, volatile
and durable.
"""

import pytest
import test_store_contract as contract
from hypothesis import given, settings, strategies as st

from repro.flash import SSD, FlashDevice, FlashError, FlashGeometry, SSDFileSystem
from repro.flash.device import FlashOutOfSpaceError
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFSOFT


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


def test_write_at_drops_the_segment_buffers(ssd_fs):
    page = ssd_fs.page_bytes
    ssd_fs.append("f", b"\x00" * (page * 3))
    ssd_fs.write_at("f", page, b"PATCH")
    read = ssd_fs.read("f", 0, 3 * page, segments=True)
    assert b"".join(read.segments) == ssd_fs.read("f")
    assert read.segments[0][page:page + 5] == b"PATCH"


# ------------------------------------------------- the lazy free-LPN pool

class EagerPool:
    """The free pool as one stack of every free LPN, the lowest on top —
    the reference the lazy pool must hand out LPNs in the order of."""

    def __init__(self, start: int, end: int, used=()):
        self.stack = [lpn for lpn in range(end - 1, start - 1, -1)
                      if lpn not in used]

    def pop(self, n: int):
        if n > len(self.stack):
            return None
        out = self.stack[len(self.stack) - n:][::-1]
        del self.stack[len(self.stack) - n:]
        return out

    def push(self, lpns) -> None:
        self.stack += lpns

    def free(self) -> list[int]:
        return self.stack[::-1]


class MirroredPool:
    """Forwards to the store's lazy pool, drives the eager reference with
    the same calls, and checks every answer against it."""

    def __init__(self, fs: SSDFileSystem):
        self.lazy = fs._free
        used = {lpn for name in fs.list_files() for lpn in fs._file(name).extents}
        self.eager = EagerPool(fs.meta_lpns, fs.ssd.logical_pages, used)
        assert self.lazy.free() == self.eager.free()

    def __len__(self) -> int:
        assert len(self.lazy) == len(self.eager.stack)
        return len(self.lazy)

    def pop(self, n: int):
        lpns = self.lazy.pop(n)
        assert lpns == self.eager.pop(n)
        return lpns

    def push(self, lpns) -> None:
        self.lazy.push(lpns)
        self.eager.push(lpns)

    def free(self) -> list[int]:
        assert self.lazy.free() == self.eager.free()
        return self.lazy.free()


POOL_GEOMETRY = FlashGeometry(page_bytes=512, pages_per_block=8, num_blocks=64)
#: (op, file, bytes to append): appends most often, so deletes have pages
#: to recycle and remounts find holes below the highest live page.
POOL_OPS = st.lists(st.tuples(
    st.sampled_from(["append"] * 4 + ["seal", "delete", "delete", "remount"]),
    st.sampled_from("abcd"),
    st.sampled_from([1, 511, 512, 513, 5 * 512 + 7, 40 * 512])),
    min_size=5, max_size=40)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=POOL_OPS)
def test_lazy_free_lpn_pool_pops_in_the_eager_stack_order(ops):
    ssd = SSD(FlashDevice(POOL_GEOMETRY, GRAFSOFT, SimClock()), durable=True)
    fs = SSDFileSystem(ssd, durable=True)
    fs._free = MirroredPool(fs)
    for op, name, size in ops:
        if op == "remount":
            fs = SSDFileSystem.mount(SSD.mount(fs.device))
            fs._free = MirroredPool(fs)
            continue
        try:
            if op == "append":
                fs.append(name, bytes(size))
            elif op == "seal" and fs.exists(name):
                fs.seal(name)
            elif op == "delete" and fs.exists(name):
                fs.delete(name)
        except FlashOutOfSpaceError:
            pass
        except FlashError:
            assert op == "append" and fs.is_sealed(name)
        fs._free.free()
