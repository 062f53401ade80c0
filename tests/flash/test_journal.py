"""Journal frame packing: ``encode_frames`` serialises each record once and
must still emit, byte for byte, the frames it emitted when it serialised
every record twice."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.device import FlashError
from repro.flash.journal import (
    JOURNAL_MAGIC,
    decode_frame,
    encode_frame,
    encode_frames,
    frame_capacity,
)

PAGE_BYTES = 256
CAPACITY = frame_capacity(PAGE_BYTES)


def reference_frames(magic, seq_start, records, page_bytes):
    """``encode_frames`` as it was: a record's JSON only measures it, and
    ``encode_frame`` serialises each finished group of dicts again."""
    capacity = frame_capacity(page_bytes)
    frames, group, group_len = [], [], 2
    for record in records:
        added = len(json.dumps(record, separators=(",", ":"))) + (1 if group else 0)
        if group and group_len + added > capacity:
            frames.append(encode_frame(magic, seq_start + len(frames), group, page_bytes))
            group, group_len = [], 2
            added -= 1
        group.append(record)
        group_len += added
    if group:
        frames.append(encode_frame(magic, seq_start + len(frames), group, page_bytes))
    return frames


def padded(json_len: int) -> dict:
    """A record whose JSON is exactly ``json_len`` bytes."""
    record = {"p": "x" * (json_len - len('{"p":""}'))}
    assert len(json.dumps(record, separators=(",", ":"))) == json_len
    return record


# Non-ASCII text is escaped (``\\uXXXX``), so JSON length is byte length.
records_strategy = st.lists(st.fixed_dictionaries({
    "op": st.text(max_size=6),
    "n": st.integers(-2 ** 63, 2 ** 64),
    "blocks": st.lists(st.integers(0, 4096), max_size=12),
    "sealed": st.one_of(st.booleans(), st.none(), st.floats(allow_nan=False)),
}), max_size=40)


@settings(max_examples=200, deadline=None)
@given(records_strategy, st.integers(0, 2 ** 40))
def test_frames_are_byte_identical_to_double_serialisation(records, seq_start):
    frames = encode_frames(JOURNAL_MAGIC, seq_start, records, PAGE_BYTES)
    assert frames == reference_frames(JOURNAL_MAGIC, seq_start, records, PAGE_BYTES)
    decoded = [decode_frame(JOURNAL_MAGIC, frame) for frame in frames]
    assert [seq for seq, _ in decoded] == list(range(seq_start, seq_start + len(frames)))
    assert [r for _, group in decoded for r in group] == records
    assert all(len(frame) <= PAGE_BYTES for frame in frames)


@pytest.mark.parametrize("spill", [0, 1])
def test_frame_boundary_is_exact(spill):
    # "[a,b]" is len(a) + len(b) + 3 bytes: exactly the capacity stays one
    # frame, one byte more starts a second.
    records = [padded(100), padded(CAPACITY - 103 + spill), padded(20)]
    frames = encode_frames(JOURNAL_MAGIC, 5, records, PAGE_BYTES)
    assert frames == reference_frames(JOURNAL_MAGIC, 5, records, PAGE_BYTES)
    sizes = [len(decode_frame(JOURNAL_MAGIC, f)[1]) for f in frames]
    assert sizes == ([1, 2] if spill else [2, 1])


def test_single_record_fills_or_overflows_a_page():
    (frame,) = encode_frames(JOURNAL_MAGIC, 0, [padded(CAPACITY - 2)], PAGE_BYTES)
    assert len(frame) == PAGE_BYTES
    with pytest.raises(FlashError, match="exceeds page capacity"):
        encode_frames(JOURNAL_MAGIC, 0, [padded(20), padded(CAPACITY - 1)], PAGE_BYTES)
    assert encode_frames(JOURNAL_MAGIC, 0, [], PAGE_BYTES) == []
