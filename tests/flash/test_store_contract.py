"""The file-store contract: one set of cases for both placements.

Everything above the storage layer treats :class:`AppendOnlyFlashFS` and
:class:`SSDFileSystem` interchangeably, so every interface case here runs
on {AOFFS, SSD} x {volatile, durable}; a Hypothesis state machine then
drives generated op sequences (with remounts on the durable stores) against
a dict model.  ``read_spans`` is held to "the same reads issued one by one"
throughout: equal data and bit-equal charges against per-span ``read_array``
calls on a twin store.  Store-specific behaviour — ``write_at``, wear
levelling, write amplification — stays in ``test_filestore.py`` /
``test_aoffs.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.flash import (
    SSD,
    AppendOnlyFlashFS,
    FileStore,
    FlashDevice,
    FlashError,
    FlashGeometry,
    SSDFileSystem,
)
from repro.flash.device import FlashOutOfSpaceError, PowerLossError
from repro.flash.faults import CrashPlan, FaultPlan
from repro.flash.journal import chunked_file_records, compact_json
from repro.flash.store import is_frozen
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFBOOST, GRAFSOFT

SMALL = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=256)
CONFIGS = [(kind, durable)
           for kind in ("aoffs", "ssd") for durable in (False, True)]
IDS = [f"{kind}-{'durable' if durable else 'volatile'}"
       for kind, durable in CONFIGS]


def make_store(kind: str, durable: bool, geometry=SMALL, **device_options) -> FileStore:
    if kind == "aoffs":
        return AppendOnlyFlashFS(
            FlashDevice(geometry, GRAFBOOST, SimClock(), **device_options),
            durable=durable)
    ssd = SSD(FlashDevice(geometry, GRAFSOFT, SimClock(), **device_options),
              durable=durable)
    return SSDFileSystem(ssd, durable=durable)


def remount(store: FileStore) -> FileStore:
    """What a power loss leaves: a new store object over the same flash."""
    if isinstance(store, AppendOnlyFlashFS):
        return AppendOnlyFlashFS(store.device, durable=True)
    return SSDFileSystem.mount(SSD.mount(store.device))


def compact(store: FileStore) -> None:
    """Snapshot a durable store's file table into its metadata log now."""
    if isinstance(store, AppendOnlyFlashFS):
        store._compact_journal()
    else:
        store._write_snapshot()


def fresh_snapshot(store: FileStore) -> list[str]:
    """The records a compaction of ``store`` must write: every file's
    snapshot records, encoded from scratch."""
    records = []
    for name in store.list_files():
        f = store._file(name)
        records += [compact_json(r) for r in chunked_file_records(
            name, f.size, f.flushed_pages, f.sealed, f.extents, f.page_crcs,
            store._record_pages(name))]
    return records


@pytest.fixture(params=CONFIGS, ids=IDS)
def config(request) -> tuple[str, bool]:
    return request.param


@pytest.fixture
def store(config) -> FileStore:
    return make_store(*config)


# ------------------------------------------------------------ interface cases


def test_append_read_roundtrip(store):
    store.append("f", b"hello ")
    store.append("f", b"world")
    assert store.read("f") == b"hello world"
    assert store.size("f") == 11


def test_read_ranges(store):
    data = bytes(range(256)) * 100  # spans several pages
    store.append("f", data)
    assert store.read("f", 0, 10) == data[:10]
    assert store.read("f", 5000, 3000) == data[5000:8000]
    assert store.read("f", len(data) - 7) == data[-7:]
    assert store.read("f", 100, 0) == b""
    store.seal("f")  # flushes the padded tail page: same bytes, now sealed
    assert store.read("f") == data
    assert store.read("f", 7000, 2000) == data[7000:9000]


def test_read_out_of_range(store):
    store.append("f", b"abc")
    with pytest.raises(ValueError):
        store.read("f", 0, 10)
    with pytest.raises(ValueError):
        store.read("f", -1, 1)


def test_tail_visible_before_seal(store):
    store.append("f", b"tiny")  # smaller than a page: stays in tail buffer
    assert store.read("f") == b"tiny"
    store.seal("f")
    assert store.read("f") == b"tiny"


def test_seal_makes_immutable(store):
    store.append("f", b"x")
    store.seal("f")
    store.seal("f")  # idempotent
    with pytest.raises(FlashError, match="sealed"):
        store.append("f", b"more")


def test_create_conflicts(store):
    store.create("f")
    with pytest.raises(FileExistsError):
        store.create("f")


def test_missing_file(store):
    with pytest.raises(FileNotFoundError):
        store.read("ghost")
    with pytest.raises(FileNotFoundError):
        store.delete("ghost")
    assert not store.exists("ghost")


def test_array_roundtrip(store):
    array = np.arange(5000, dtype=np.uint64)
    store.append_array("a", array)
    store.seal("a")
    back = store.read_array("a", np.uint64)
    assert np.array_equal(back, array)
    middle = store.read_array("a", np.uint64, start_item=100, count=50)
    assert np.array_equal(middle, array[100:150])


# Each case: (what the caller appends, how it writes that memory afterwards).
# 10 000 bytes are two full pages and a tail that seal pads.
def _writeable_array():
    array = np.arange(1250, dtype=np.uint64)
    return "array", array, lambda: array.fill(7)


def _readonly_view_of_a_writeable_array():
    array = np.arange(1250, dtype=np.uint64)
    view = array[:]
    view.flags.writeable = False
    return "array", view, lambda: array.fill(7)


def _readonly_array_over_a_bytearray():
    buffer = bytearray(range(250)) * 40
    array = np.frombuffer(buffer, dtype=np.uint64)
    array.flags.writeable = False
    return "array", array, lambda: buffer.__setitem__(slice(0, 4096), bytes(4096))


def _bytearray():
    buffer = bytearray(range(250)) * 40
    return "bytes", buffer, lambda: buffer.__setitem__(slice(None), bytes(10_000))


def _memoryview_of_a_bytearray():
    buffer = bytearray(range(250)) * 40
    return "bytes", memoryview(buffer), lambda: buffer.__setitem__(
        slice(None), bytes(10_000))


def _readonly_memoryview_of_a_bytearray():
    buffer = bytearray(range(250)) * 40
    return "bytes", memoryview(buffer).toreadonly(), lambda: buffer.__setitem__(
        slice(None), bytes(10_000))


def _memoryview_of_a_writeable_array():
    array = np.arange(10_000, dtype=np.uint8)
    return "bytes", memoryview(array), lambda: array.fill(7)


def _readonly_byte_view_of_a_writeable_array():
    array = np.arange(10_000, dtype=np.uint8)
    view = array[:]
    view.flags.writeable = False
    return "bytes", memoryview(view), lambda: array.fill(7)


@pytest.mark.parametrize("source", [
    _writeable_array, _readonly_view_of_a_writeable_array,
    _readonly_array_over_a_bytearray, _bytearray, _memoryview_of_a_bytearray,
    _readonly_memoryview_of_a_bytearray, _memoryview_of_a_writeable_array,
    _readonly_byte_view_of_a_writeable_array])
def test_appended_memory_that_can_still_change_is_copied(store, source):
    how, data, mutate = source()
    original = bytes(data)
    assert len(original) == 10_000
    if how == "array":
        store.append_array("f", data)
    else:
        store.append("f", data)
    mutate()
    assert bytes(data) != original       # the source really changed
    assert store.read("f") == original   # flushed pages and the RAM tail
    store.seal("f")
    assert store.read("f") == original


def test_frozen_array_is_kept_not_copied(store):
    array = np.arange(1250, dtype=np.uint64)   # 10 000 bytes
    array.flags.writeable = False
    assert is_frozen(array)
    store.append_array("f", array)
    # The flushed pages are views of the array itself.
    first = store._fetch(store._file("f"), [0], [1])[0]
    assert isinstance(first, memoryview)
    assert np.shares_memory(np.frombuffer(first, dtype=np.uint8), array)
    assert store.read("f") == array.tobytes()
    store.seal("f")                            # pads a tail that is a view
    assert store.read_array("f", np.uint64).tolist() == array.tolist()
    assert store.size("f") == 10_000
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1


def test_is_frozen():
    owner = np.arange(8)
    assert not is_frozen(owner)
    owner.flags.writeable = False
    assert is_frozen(owner)
    assert is_frozen(owner[2:5])
    assert is_frozen(np.frombuffer(b"12345678", dtype=np.uint8))
    assert not is_frozen(np.frombuffer(bytearray(8), dtype=np.uint8))
    writeable = np.arange(8)
    view = writeable[:]
    view.flags.writeable = False
    assert not is_frozen(view)


def test_stream_chunks(store):
    data = bytes(range(256)) * 64
    store.append("f", data)
    chunks = list(store.stream("f", 1000))
    assert b"".join(chunks) == data
    assert all(len(c) <= 1000 for c in chunks)
    with pytest.raises(ValueError):
        list(store.stream("f", 0))


def test_rename(store):
    store.append("old", b"payload")
    store.rename("old", "new")
    assert store.read("new") == b"payload"
    assert not store.exists("old")
    store.append("other", b"x")
    with pytest.raises(FileExistsError):
        store.rename("other", "new")


def test_list_files(store):
    store.append("b", b"1")
    store.append("a", b"2")
    assert store.list_files() == ["a", "b"]


def test_delete_returns_space(store):
    free_before = store.free_bytes
    store.append("f", b"z" * 50000)
    assert store.free_bytes < free_before
    store.delete("f")
    assert store.free_bytes == free_before
    assert not store.exists("f")
    with pytest.raises(FileNotFoundError):
        store.read("f")


def test_out_of_space_append_leaves_the_pool_untouched(config):
    # 24 blocks of 8 x 512 B pages: the append below cannot fit on either
    # store.  AOFFS used to claim every free block into the failing file
    # before raising, so an unrelated small append failed afterwards too.
    tiny = FlashGeometry(page_bytes=512, pages_per_block=8, num_blocks=24)
    store = make_store(*config, geometry=tiny)
    store.append("keep", b"k" * 700)
    free = store.free_bytes
    with pytest.raises(FlashOutOfSpaceError):
        store.append("big", b"\xff" * 122_880)
    assert store.free_bytes == free
    assert store.list_files() == ["big", "keep"]
    store.append("small", b"s" * 2000)
    store.seal("small")
    assert store.read("small") == b"s" * 2000
    assert store.read("keep") == b"k" * 700
    assert store.free_bytes < free


@pytest.mark.parametrize("kind", ["aoffs", "ssd"])
@pytest.mark.parametrize("name", ["f", "a-much-longer-file-name/" * 8],
                         ids=["short-name", "192-byte-name"])
def test_durable_commits_fit_a_small_page(kind, name):
    # On 512 B pages a metadata frame holds 492 B of records; 128 page CRCs
    # per commit record (right for 4 KB pages and up) do not fit, and a
    # durable store could not commit an append of more than ~40 pages.
    store = make_store(kind, True, geometry=SPAN_GEOMETRY)
    data = (np.arange(200 * 512 + 77) * 13 % 256).astype(np.uint8).tobytes()
    store.append(name, data)
    store.seal(name)
    mounted = remount(store)
    assert mounted.read(name) == data
    # The snapshot lists the same pages again, as ``file``/``filex`` records.
    # It is taken on the mounted handle: the remount retired ``store``, and
    # compacting through it would erase the live journal chain.
    compact(mounted)
    mounted = remount(mounted)
    assert mounted.is_sealed(name) and mounted.read(name) == data


# ------------------------------------------- the compaction's record cache
#
# A compaction reuses a sealed file's encoded records; each case first
# compacts so the file's records are cached, then changes the file, checks
# the records the next compaction writes against a from-scratch encoding,
# compacts and remounts from that snapshot.


@pytest.mark.parametrize("kind", ["aoffs", "ssd"])
def test_checkpoint_publish_reencodes_the_renamed_file(kind):
    store = make_store(kind, True, geometry=SPAN_GEOMETRY)
    old, new = b"o" * 3000, bytes(range(256)) * 20
    for name, data in (("ckpt", old), ("staging", new)):
        store.append(name, data)
        store.seal(name)
    compact(store)
    store.rename("staging", "ckpt", overwrite=True)
    assert store._snapshot_records() == fresh_snapshot(store)
    compact(store)
    mounted = remount(store)
    assert mounted.list_files() == ["ckpt"]
    assert mounted.is_sealed("ckpt") and mounted.read("ckpt") == new


def test_write_at_reencodes_the_patched_file():
    store = make_store("ssd", True, geometry=SPAN_GEOMETRY)
    data = bytearray(bytes(range(256)) * 16)
    store.append("f", bytes(data))
    store.seal("f")
    compact(store)
    store.write_at("f", 1000, b"patched")
    data[1000:1007] = b"patched"
    assert store._snapshot_records() == fresh_snapshot(store)
    compact(store)
    mounted = remount(store)
    assert mounted.read("f") == data
    assert mounted._file("f").page_crcs == store._file("f").page_crcs


def test_aoffs_remap_under_a_program_failure_is_in_the_snapshot():
    device = FlashDevice(SPAN_GEOMETRY, GRAFBOOST, SimClock(),
                         faults=FaultPlan(seed=0, program_fail_p=1e-9))
    # One failure, on the third page of the first multi-page data program.
    failures = [2]
    device.faults.first_program_failure = lambda block, page0, count: (
        failures.pop() if failures and count > 2 else None)
    store = AppendOnlyFlashFS(device, durable=True)
    store.append("keep", b"k" * 700)
    store.seal("keep")
    compact(store)
    data = bytes(range(256)) * 20              # ten pages over two blocks
    store.append("f", data)
    store.seal("f")
    assert not failures and device.bad_block_count == 1
    assert store._snapshot_records() == fresh_snapshot(store)
    compact(store)
    mounted = remount(store)
    assert mounted._file("f").extents == store._file("f").extents
    assert mounted.read("f") == data and mounted.read("keep") == b"k" * 700


# ------------------------------------------------- scatter reads (read_spans)


def charges(store: FileStore) -> tuple:
    """Everything a read charges, for bit-for-bit comparison."""
    device = store.device
    return (device.clock.elapsed_s, device.clock.usage, device.total_pages_read)


def read_one_by_one(store: FileStore, name: str, dtype, spans) -> np.ndarray:
    """The reference ``read_spans`` must equal: one ``read_array`` per span
    (of a file that exists, even when there is no span to read)."""
    store.size(name)
    blocks = [store.read_array(name, dtype, start, end - start)
              for start, end in spans]
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=dtype)


#: In uint32 items of a file of 40 000 B on 512 B pages, 8 per AOFFS block:
#: an empty span, one item, a page-straddling span, an extent-straddling
#: span, a span reaching into the unflushed tail, a repeat, the whole file.
SPANS = [(5, 5), (7, 8), (120, 140), (1000, 1100), (9900, 10_000), (7, 8),
         (0, 10_000)]
SPAN_GEOMETRY = FlashGeometry(page_bytes=512, pages_per_block=8, num_blocks=512)


def twin_stores(config, **device_options) -> tuple[FileStore, FileStore]:
    """Two equal stores holding file ``f``: 40 000 patterned bytes, so flushed
    pages over several extents and then an unflushed tail."""
    data = (np.arange(40_000, dtype=np.uint32) * 7 % 251).astype(np.uint8).tobytes()
    stores = [make_store(*config, geometry=SPAN_GEOMETRY, **device_options)
              for _ in range(2)]
    for store in stores:
        for start in range(0, len(data), 5000):
            store.append("f", data[start:start + 5000])
    return stores[0], stores[1]


def test_read_spans_equals_reads_one_by_one(config):
    store, twin = twin_stores(config)
    assert store.size("f") > store._file("f").flushed_pages * 512  # a live tail
    read = store.read_spans("f", np.uint32, SPANS)
    data, base = read.take(), read.base
    expected = read_one_by_one(twin, "f", np.uint32, SPANS)
    assert np.array_equal(data, expected)
    assert base.tolist() == [0, 0, 1, 21, 121, 221, 222]
    assert data.flags.writeable
    assert charges(store) == charges(twin)
    # Any item range copies out of the same fetched pages, and costs nothing.
    for lo, hi in [(0, 0), (3, 3), (0, 1), (1, 21), (20, 140), (121, 221),
                   (130, 10_222), (len(data), len(data))]:
        part = read.take(lo, hi)
        assert np.array_equal(part, expected[lo:hi]) and part.flags.writeable
    assert charges(store) == charges(twin)
    with pytest.raises(ValueError):
        read.take(5, len(data) + 1)
    empty = store.read_spans("f", np.uint32, [])
    assert len(empty.take()) == len(empty.base) == 0
    assert empty.take().dtype == np.uint32
    assert charges(store) == charges(twin)


@pytest.mark.parametrize("bad", [(9990, 10_001), (-1, 3), (8, 7)])
def test_read_spans_out_of_range_is_the_same_error_after_the_same_reads(config, bad):
    store, twin = twin_stores(config)
    spans = SPANS[:4] + [bad] + SPANS[4:]
    with pytest.raises(ValueError) as scattered:
        store.read_spans("f", np.uint32, spans)
    with pytest.raises(ValueError) as one_by_one:
        read_one_by_one(twin, "f", np.uint32, spans)
    assert str(scattered.value) == str(one_by_one.value)
    assert charges(store) == charges(twin)
    with pytest.raises(FileNotFoundError):
        store.read_spans("ghost", np.uint32, [(0, 1)])


def lose_page_8(store: FileStore, how: str) -> None:
    """Make page 8 of file ``f`` (the fourth span's second page)
    unreadable: invalidate it on the device, or trim it from the SSD's FTL."""
    f = store._file("f")
    if how == "trim":
        store.ssd.trim(f.extents[8])
    elif isinstance(store, AppendOnlyFlashFS):
        store.device.invalidate_page(f.extents[1], 0)   # 8 pages per block
    else:
        store.device.invalidate_page(*store.ssd.ftl.translate(f.extents[8]))


@pytest.mark.parametrize("kind, durable, how", [
    *(pytest.param(kind, durable, "invalidate", id=f"{name}-invalidate")
      for (kind, durable), name in zip(CONFIGS, IDS)),
    pytest.param("ssd", False, "trim", id="ssd-volatile-trim"),
    pytest.param("ssd", True, "trim", id="ssd-durable-trim")])
def test_read_spans_of_a_lost_page_is_the_same_error_after_the_same_reads(
        kind, durable, how):
    store, twin = twin_stores((kind, durable))
    for s in (store, twin):
        lose_page_8(s, how)
    with pytest.raises(FlashError, match="invalidated page|unwritten logical page") as scattered:
        store.read_spans("f", np.uint32, SPANS)
    with pytest.raises(FlashError) as one_by_one:
        read_one_by_one(twin, "f", np.uint32, SPANS)
    assert str(scattered.value) == str(one_by_one.value)
    assert charges(store) == charges(twin)
    assert store.device.total_pages_read > 0      # the three spans before it


def test_read_spans_under_flashsan(config):
    store, twin = twin_stores(config, sanitize=True)
    data = store.read_spans("f", np.uint32, SPANS).take()
    assert np.array_equal(data, read_one_by_one(twin, "f", np.uint32, SPANS))
    assert charges(store) == charges(twin)
    assert (store.device.sanitizer.pages_checked
            == twin.device.sanitizer.pages_checked > 0)


def test_read_spans_under_read_faults_and_jitter(config):
    plan = FaultPlan(seed=11, read_ber=2e-3, latency_jitter=0.3,
                     ecc_correctable_bits=8)
    store, twin = twin_stores(config, faults=plan)
    data = store.read_spans("f", np.uint32, SPANS).take()
    assert np.array_equal(data, read_one_by_one(twin, "f", np.uint32, SPANS))
    assert charges(store) == charges(twin)
    faults, twin_faults = store.device.faults, twin.device.faults
    assert faults.stats == twin_faults.stats
    assert faults.stats.read_retries > 0        # the plan really bites
    assert (faults._rng.bit_generator.state
            == twin_faults._rng.bit_generator.state)


def test_read_spans_power_loss_fires_at_the_same_op(config):
    # A plan that never fires counts the flash ops up to the last page of
    # the fourth span's read; the real plan cuts power there.
    probe, _ = twin_stores(config, crashes=CrashPlan(at_ops=(10**9,)))
    probe.read_spans("f", np.uint32, SPANS[:4])
    at = probe.device.crashes.op_index - 1
    store, twin = twin_stores(config, crashes=CrashPlan(at_ops=(at,)))
    with pytest.raises(PowerLossError) as scattered:
        store.read_spans("f", np.uint32, SPANS)
    with pytest.raises(PowerLossError) as one_by_one:
        read_one_by_one(twin, "f", np.uint32, SPANS)
    assert scattered.value.op_index == one_by_one.value.op_index == at
    assert charges(store) == charges(twin)


#: Items of ``twin_stores``' file: 128 per page, 1 024 per AOFFS extent,
#: 9 984 flushed, then a RAM tail of 16.
ITEMS = 10_000
#: Spans: the named shapes above, spans inside the RAM tail, and random
#: ones, which straddle pages and extents and overlap each other.
GENERATED_SPAN = st.one_of(
    st.sampled_from(SPANS + [(9984, 10_000), (9990, 9995), (0, 128),
                             (127, 129), (1023, 1025)]),
    st.tuples(st.integers(0, ITEMS), st.integers(0, 2100)).map(
        lambda at: (at[0], min(ITEMS, at[0] + at[1]))))


def outcome(read):
    """What ``read()`` returns, or the flash error it raises."""
    try:
        return read()
    except FlashError as error:
        return type(error), str(error)


@pytest.mark.parametrize("kind, durable", CONFIGS, ids=IDS)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(spans=st.lists(GENERATED_SPAN, max_size=8),
       part=st.tuples(st.integers(0, 1000), st.integers(0, 1000)))
def test_read_spans_of_generated_span_lists(kind, durable, spans, part):
    store, twin = twin_stores((kind, durable))
    read = store.read_spans("f", np.uint32, spans)
    data = read.take()
    assert np.array_equal(data, read_one_by_one(twin, "f", np.uint32, spans))
    assert data.flags.writeable
    assert charges(store) == charges(twin)
    lo, hi = sorted(len(data) * at // 1000 for at in part)
    taken = read.take(lo, hi)
    assert np.array_equal(taken, data[lo:hi]) and taken.flags.writeable
    assert charges(store) == charges(twin)
    # Read errors, retries, jitter and ECC miscorrections that the CRC check
    # repairs by re-reading mid-scatter (in about two examples of five), and
    # now and then an uncorrectable read: the same draws in the same order.
    plan = FaultPlan(seed=len(spans), read_ber=1.5e-3, latency_jitter=0.3,
                     ecc_correctable_bits=8, read_retry_limit=1,
                     retry_ber_scale=1.0, silent_corruption_p=0.9)
    store, twin = twin_stores((kind, durable), faults=plan)
    got = outcome(lambda: store.read_spans("f", np.uint32, spans).take())
    expected = outcome(lambda: read_one_by_one(twin, "f", np.uint32, spans))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert np.array_equal(got, expected)
    assert charges(store) == charges(twin)
    faults, twin_faults = store.device.faults, twin.device.faults
    assert faults.stats == twin_faults.stats
    assert (faults._rng.bit_generator.state
            == twin_faults._rng.bit_generator.state)


# ------------------------------------------------------- generated sequences

#: The engine's 8 KB page (``engine.config.PAGE_BYTES``) and two smaller
#: ones, whose boundaries short files cross more often.
PAGE_SIZES = [512, 2048, 8192]
NAMES = st.sampled_from(["a", "b", "c", "d"])
#: Sizes as ``(pages, bytes)``: ``pages * page_bytes + bytes`` at the drawn
#: page size.  Every tail-buffer boundary, and a flush spanning several
#: extents.
APPEND_SIZES = st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (19, 7)])


def units(n):
    """An offset or length of up to ``n`` 512-byte units, scaled to the drawn
    page and moved by -1, 0 or +1 byte, so page boundaries are hit exactly."""
    return st.tuples(st.integers(-1, n), st.integers(-1, 1))


class StoreMachine(RuleBasedStateMachine):
    """Generated op sequences against a dict model ``name -> [data, sealed]``.

    Each example draws a page size and runs FlashSan on the store.  Each
    rule predicts from the model either the new state or the exact
    exception type; the invariant then compares the whole visible state.
    Every op also runs on a twin store, where ``read_spans`` becomes one
    ``read_array`` per span: the two stores' charges must never differ.
    """

    def __init__(self, kind: str, durable: bool):
        super().__init__()
        self.kind, self.durable = kind, durable
        self.model: dict[str, list] = {}
        self.fill = 0

    @initialize(page=st.sampled_from(PAGE_SIZES))
    def build(self, page):
        self.page = page
        geometry = FlashGeometry(page_bytes=page, pages_per_block=8, num_blocks=512)
        self.store = make_store(self.kind, self.durable, geometry, sanitize=True)
        self.twin = make_store(self.kind, self.durable, geometry)

    def sized(self, drawn) -> int:
        """``(pages, bytes)`` at this example's page size."""
        return drawn[0] * self.page + drawn[1]

    def scaled(self, drawn) -> int:
        """``(units, nudge)`` of :func:`units` at this example's page size."""
        return drawn[0] * self.page // 512 + drawn[1]

    def expect(self, error, op, *args, twin_op=None, **kwargs):
        """Run ``op(store, ...)`` on the store and ``twin_op`` (default: the
        same op) on the twin; returns the store's result."""
        results = []
        for store, run in ((self.store, op), (self.twin, twin_op or op)):
            if error is None:
                results.append(run(store, *args, **kwargs))
            else:
                with pytest.raises(error) as caught:
                    run(store, *args, **kwargs)
                assert caught.type is error
        return results[0] if results else None

    @rule(name=NAMES)
    def create(self, name):
        self.expect(FileExistsError if name in self.model else None,
                    FileStore.create, name)
        self.model.setdefault(name, [b"", False])

    @rule(name=NAMES, size=APPEND_SIZES)
    def append(self, name, size):
        self.fill = (self.fill + 1) % 251
        data = bytes((self.fill + i) % 256 for i in range(self.sized(size)))
        sealed = name in self.model and self.model[name][1]
        self.expect(FlashError if sealed else None,
                    FileStore.append, name, data)
        if not sealed:
            entry = self.model.setdefault(name, [b"", False])
            entry[0] += data

    @rule(name=NAMES)
    def seal(self, name):
        self.expect(None if name in self.model else FileNotFoundError,
                    FileStore.seal, name)
        if name in self.model:
            self.model[name][1] = True

    @rule(name=NAMES, offset=units(12 * 512), nbytes=st.one_of(st.none(), units(12 * 512)))
    def read(self, name, offset, nbytes):
        offset = self.scaled(offset)
        nbytes = None if nbytes is None else self.scaled(nbytes)
        if name not in self.model:
            self.expect(FileNotFoundError, FileStore.read, name, offset, nbytes)
            return
        data = self.model[name][0]
        n = len(data) - offset if nbytes is None else nbytes
        bad = offset < 0 or n < 0 or offset + n > len(data)
        got = self.expect(ValueError if bad else None,
                          FileStore.read, name, offset, nbytes)
        if not bad:
            assert bytes(got) == data[offset:offset + n]

    @rule(name=NAMES, offset=units(12 * 512), nbytes=units(24 * 512))
    def read_segments(self, name, offset, nbytes):
        """A read as segments: the bytes and the charges of a plain read."""
        data = self.model.get(name, [b""])[0]
        offset = min(max(self.scaled(offset), 0), len(data))
        nbytes = min(max(self.scaled(nbytes), 0), len(data) - offset)
        error = None if name in self.model else FileNotFoundError
        got = self.expect(
            error, lambda store: store.read(name, offset, nbytes, segments=True),
            twin_op=lambda store: store.read(name, offset, nbytes))
        if error is None:
            assert len(got) == nbytes
            assert b"".join(got.segments) == data[offset:offset + nbytes]

    @rule(name=NAMES, dtype=st.sampled_from([np.dtype("u1"), np.dtype("<u4")]),
          cuts=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
                        max_size=5),
          bad=st.sampled_from([None, None, "negative", "reversed", "past end"]),
          part=st.tuples(st.integers(0, 1000), st.integers(0, 1000)))
    def read_spans(self, name, dtype, cuts, bad, part):
        """Spans cut from the file per mille of its length — empty, one item,
        page-, extent- and tail-straddling, the whole file — then maybe one
        out-of-range span in the middle of them; and one item range of what
        was read, per mille of its length, copied out on its own."""
        item = dtype.itemsize
        data = self.model.get(name, [b""])[0]
        items = len(data) // item
        spans = []
        for at, length in cuts:
            start = items * at // 1000
            spans.append((start, start + (items - start) * length // 1000))
        if bad is not None:
            spans.insert(len(spans) // 2, {"negative": (-1, 0), "reversed": (1, 0),
                                           "past end": (0, items + 1)}[bad])
        error = (FileNotFoundError if name not in self.model else
                 ValueError if bad is not None else None)
        got = self.expect(error, FileStore.read_spans, name, dtype, spans,
                          twin_op=read_one_by_one)
        if error is None:
            blocks, base = got.take(), got.base
            assert blocks.tobytes() == b"".join(
                data[start * item:end * item] for start, end in spans)
            assert blocks.dtype == dtype and blocks.flags.writeable
            lengths = [end - start for start, end in spans]
            assert base.tolist() == [sum(lengths[:i]) for i in range(len(spans))]
            lo = len(blocks) * min(part) // 1000
            hi = len(blocks) * max(part) // 1000
            assert got.take(lo, hi).tobytes() == blocks[lo:hi].tobytes()

    @rule(name=NAMES, chunk=st.sampled_from([(0, 0), (0, 1000), (1, 0), (5, 3)]))
    def stream(self, name, chunk):
        chunk = self.sized(chunk)
        error = (ValueError if chunk <= 0 else
                 None if name in self.model else FileNotFoundError)
        chunks = self.expect(error, lambda store: list(store.stream(name, chunk)))
        if error is None:
            assert b"".join(chunks) == self.model[name][0]
            assert all(0 < len(c) <= chunk for c in chunks)

    @rule(name=NAMES)
    def delete(self, name):
        self.expect(None if name in self.model else FileNotFoundError,
                    FileStore.delete, name)
        self.model.pop(name, None)

    @rule(old=NAMES, new=NAMES, overwrite=st.booleans())
    def rename(self, old, new, overwrite):
        error = (FileNotFoundError if old not in self.model else
                 FileExistsError if new in self.model
                 and (new == old or not overwrite) else None)
        self.expect(error, FileStore.rename, old, new, overwrite=overwrite)
        if error is None:
            self.model[new] = self.model.pop(old)

    @precondition(lambda self: self.store.durable)
    @rule()
    def remount(self):
        self.store, self.twin = remount(self.store), remount(self.twin)
        for entry in self.model.values():
            if not entry[1]:
                # The RAM tail died with power: back to the last full page.
                entry[0] = entry[0][:len(entry[0]) // self.page * self.page]

    @invariant()
    def matches_model(self):
        store = self.store
        assert store.list_files() == sorted(self.model)
        for name, (data, sealed) in self.model.items():
            assert store.exists(name)
            assert store.size(name) == len(data)
            assert store.is_sealed(name) == sealed
            assert bytes(store.read(name)) == data
            self.twin.read(name)
        assert charges(store) == charges(self.twin)
        if store.durable:
            # Asking fills the record cache, so a later step that fails to
            # drop a stale entry is caught here.
            assert store._snapshot_records() == fresh_snapshot(store)
        for ghost in {"a", "b", "c", "d"} - set(self.model):
            assert not store.exists(ghost)
            with pytest.raises(FileNotFoundError):
                store.size(ghost)
            with pytest.raises(FileNotFoundError):
                store.is_sealed(ghost)


@pytest.mark.parametrize("kind, durable", CONFIGS, ids=IDS)
def test_generated_op_sequences_match_the_model(kind, durable):
    run_state_machine_as_test(
        lambda: StoreMachine(kind, durable),
        settings=settings(max_examples=100, stateful_step_count=30,
                          deadline=None, derandomize=True))
