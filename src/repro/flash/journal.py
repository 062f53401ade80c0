"""Page-framed metadata journal records shared by the durable stores.

Both durable metadata paths — AOFFS's append-only journal (host-managed
raw flash) and the SSD file store's reserved-LPN metadata log — write the
same on-flash frame format, one frame per flash page:

``[magic 4B][seq <u8][length <u4][crc32 <u4][JSON record list]``

* ``magic`` distinguishes stream kinds (superblock vs. journal) so a stale
  page from another life of the block can never be replayed.
* ``seq`` is a monotonically increasing frame number; replay sorts by it,
  which makes journal-chain discovery order-insensitive.
* ``crc32`` covers the payload.  A frame whose CRC fails is a *torn write*
  — power was cut mid-program — and is simply discarded: the journal
  protocol only ever writes a frame after the data it describes is already
  on flash, so dropping a torn frame loses an uncommitted operation, never
  committed state.

The payload is a JSON list of record dicts, so one page can batch every
metadata record of one public file-store call (create + commit + seal of a
small file is one frame).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

from repro.flash.device import FlashError

#: Frame header: magic, sequence number, payload length, payload CRC-32.
FRAME_HEADER = struct.Struct("<4sQII")

#: The one compact JSON encoder of every metadata record: ``json.dumps(...,
#: separators=(",", ":"))`` byte for byte, without building an encoder per
#: call.
compact_json = json.JSONEncoder(separators=(",", ":")).encode

#: Stream magics.
JOURNAL_MAGIC = b"AOJL"
SUPERBLOCK_MAGIC = b"AOSB"
METALOG_MAGIC = b"SSML"


def frame_capacity(page_bytes: int) -> int:
    """Payload bytes available in one page-sized frame."""
    return page_bytes - FRAME_HEADER.size


def _pack_frame(magic: bytes, seq: int, payload: bytes, page_bytes: int) -> bytes:
    if len(payload) > frame_capacity(page_bytes):
        raise FlashError(
            f"journal frame of {len(payload)} B exceeds page capacity "
            f"{frame_capacity(page_bytes)} B")
    return FRAME_HEADER.pack(magic, seq, len(payload),
                             zlib.crc32(payload)) + payload


def encode_frame(magic: bytes, seq: int, records: list[dict],
                 page_bytes: int) -> bytes:
    """One frame holding ``records``; raises if they exceed a page."""
    return _pack_frame(magic, seq, compact_json(records).encode(), page_bytes)


def encode_frames(magic: bytes, seq_start: int, records: list[dict],
                  page_bytes: int) -> list[bytes]:
    """Greedily pack ``records`` into consecutive frames: :func:`pack_frames`
    of each record's :func:`compact_json`."""
    return pack_frames(magic, seq_start, [compact_json(r) for r in records],
                       page_bytes)


def pack_frames(magic: bytes, seq_start: int, blobs: list[str],
                page_bytes: int) -> list[bytes]:
    """Greedily pack already-encoded records into consecutive frames.

    Each record must individually fit a page (callers chunk oversized
    record bodies — see the snapshot ``blocks``/``crcs`` continuation
    records); consecutive frames get consecutive sequence numbers starting
    at ``seq_start``.  Every record is serialised once: a frame's payload
    is its records' JSON joined with ``,`` inside ``[]``, byte for byte what
    ``encode_frame`` makes of the same group.
    """
    capacity = frame_capacity(page_bytes)
    groups: list[list[str]] = []
    group_len = capacity  # forces the first record to open a group
    for blob in blobs:
        if group_len + 1 + len(blob) > capacity:
            groups.append([])
            group_len = 2 + len(blob)  # the enclosing "[]"
        else:
            group_len += 1 + len(blob)
        groups[-1].append(blob)
    return [_pack_frame(magic, seq_start + i, f"[{','.join(group)}]".encode(),
                        page_bytes)
            for i, group in enumerate(groups)]


def decode_frame(magic: bytes, data: bytes) -> tuple[int, list[dict]] | None:
    """Parse one frame; ``None`` for torn/foreign/garbage pages."""
    if len(data) < FRAME_HEADER.size:
        return None
    got_magic, seq, length, crc = FRAME_HEADER.unpack_from(data)
    if got_magic != magic:
        return None
    payload = data[FRAME_HEADER.size:FRAME_HEADER.size + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        records = json.loads(payload)
    except ValueError:
        return None
    if not isinstance(records, list):
        return None
    return int(seq), records


def chunked_file_records(name: str, size: int, flushed: int, sealed: bool,
                         blocks: list[int], crcs: list[int],
                         chunk: int) -> list[dict]:
    """Snapshot records for one file, split so each fits a journal frame.

    The head ``file`` record carries the scalars plus the first chunk of
    block ids and page CRCs; ``filex`` continuations carry the rest.
    """
    records = [{"op": "file", "name": name, "size": size, "flushed": flushed,
                "sealed": sealed, "blocks": blocks[:chunk],
                "crcs": crcs[:chunk]}]
    b, c = chunk, chunk
    while b < len(blocks) or c < len(crcs):
        records.append({"op": "filex", "name": name,
                        "blocks": blocks[b:b + chunk],
                        "crcs": crcs[c:c + chunk]})
        b += chunk
        c += chunk
    return records


@dataclass
class RecoveryStats:
    """What one mount found and fixed."""

    mounts: int = 0
    replayed_frames: int = 0
    replayed_records: int = 0
    torn_frames: int = 0
    recovered_files: int = 0
    truncated_files: int = 0     # unsealed files cut back to committed pages
    discarded_pages: int = 0     # uncommitted/torn data pages dropped
    relocated_pages: int = 0     # committed pages copied off dirty blocks
    scrubbed_blocks: int = 0     # unreferenced non-erased blocks re-erased
