"""Densely encoded sort-reduce output (§III-B).

"The accelerator can use either a sparsely or densely encoded representation
for the output list."  The sparse form is a run of (key, value) records
(16 B-aligned per pair); the dense form stores one value slot per key in the
key space plus a presence bitmap (1 bit per key), which wins once more than
``itemsize / (itemsize + 8)`` of the key space is populated — e.g. beyond
~50 % density for 8-byte values.

:class:`DenseRunHandle` is chunk-iterable like
:class:`~repro.core.external.RunHandle` (it yields sparse
:class:`~repro.core.kvstream.KVArray` chunks reconstructed from the bitmap),
but no engine path densifies a run: every ``newV`` stays sparse, and only
``benchmarks/bench_ablation_dense.py`` and the tests use this module.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.kvstream import KVArray

#: Keys per chunk when streaming a dense run back as sparse pairs.
DENSE_CHUNK_KEYS = 1 << 16


def dense_bytes(key_space: int, value_itemsize: int) -> int:
    """On-flash size of the dense encoding for a key space."""
    return key_space * value_itemsize + (key_space + 7) // 8


def sparse_bytes(num_records: int, value_itemsize: int) -> int:
    """On-flash size of the sparse (key, value) encoding."""
    return num_records * (8 + value_itemsize)


def dense_wins(num_records: int, key_space: int, value_itemsize: int) -> bool:
    """Whether the dense encoding is smaller for this population."""
    return dense_bytes(key_space, value_itemsize) < sparse_bytes(num_records,
                                                                 value_itemsize)


class DenseRunHandle:
    """A sorted, reduced result stored as value slots + presence bitmap."""

    def __init__(self, store, name: str, key_space: int, num_records: int,
                 value_dtype: np.dtype):
        self.store = store
        self.name = name
        self.key_space = key_space
        self.num_records = num_records
        self.value_dtype = np.dtype(value_dtype)
        self.level = 0
        self.seq = 0

    @property
    def values_file(self) -> str:
        return f"{self.name}:values"

    @property
    def bitmap_file(self) -> str:
        return f"{self.name}:bitmap"

    def __len__(self) -> int:
        return self.num_records

    def chunks(self) -> Iterator[KVArray]:
        """Stream the populated (key, value) pairs in key order."""
        for start in range(0, self.key_space, DENSE_CHUNK_KEYS):
            stop = min(start + DENSE_CHUNK_KEYS, self.key_space)
            values = self.store.read_array(self.values_file, self.value_dtype,
                                           start, stop - start)
            bits = self.store.read_array(self.bitmap_file, np.uint8,
                                         start // 8, (stop - start) // 8
                                         + (1 if (stop - start) % 8 else 0))
            mask = np.unpackbits(bits, bitorder="little")[:stop - start].astype(bool)
            if not mask.any():
                continue
            keys = np.flatnonzero(mask).astype(np.uint64) + np.uint64(start)
            yield KVArray(keys, values[mask])


def densify_run(run, key_space: int, store=None) -> DenseRunHandle:
    """Re-encode a sparse sorted run densely (one sequential pass).

    ``run`` is any chunk-iterable sorted run (a :class:`RunHandle`); keys
    must lie in ``[0, key_space)``.  The sparse run is left untouched.
    """
    if key_space < 1:
        raise ValueError(f"key_space must be >= 1, got {key_space}")
    store = store or run.store
    name = store.unique_name("dense")
    dtype = np.dtype(run.value_dtype)
    handle = DenseRunHandle(store, name, key_space, 0, dtype)

    cursor = 0          # next key slot to materialize
    bit_carry = np.zeros(0, dtype=bool)  # bits not yet byte-aligned
    records = 0

    def flush_range(stop_key: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Write value slots and bitmap bits for [cursor, stop_key)."""
        nonlocal cursor, bit_carry
        span = stop_key - cursor
        if span <= 0:
            return
        slot_values = np.zeros(span, dtype=dtype)
        mask = np.zeros(span, dtype=bool)
        if len(keys):
            local = keys.astype(np.int64) - cursor
            slot_values[local] = values
            mask[local] = True
        store.append_array(handle.values_file, slot_values)
        bits = np.concatenate([bit_carry, mask])
        whole = len(bits) & ~7
        if whole:
            store.append(handle.bitmap_file,
                         np.packbits(bits[:whole], bitorder="little").tobytes())
        bit_carry = bits[whole:]
        cursor = stop_key

    for chunk in run.chunks():
        if len(chunk) == 0:
            continue
        if int(chunk.keys[-1]) >= key_space:
            raise ValueError("run key out of the declared key space")
        records += len(chunk)
        flush_range(int(chunk.keys[-1]) + 1, chunk.keys, chunk.values)
    flush_range(key_space, np.empty(0, np.uint64), np.empty(0, dtype))
    if len(bit_carry):
        store.append(handle.bitmap_file,
                     np.packbits(bit_carry, bitorder="little").tobytes())
    if not store.exists(handle.values_file):
        store.append(handle.values_file, b"")
    store.seal(handle.values_file)
    store.seal(handle.bitmap_file)
    handle.num_records = records
    return handle


def choose_encoding(run, key_space: int, store=None):
    """§III-B's internal decision: densify when the dense form is smaller.

    Returns the original run (sparse) or a new :class:`DenseRunHandle`; in
    the latter case the sparse run is deleted.
    """
    dtype = np.dtype(run.value_dtype)
    if not dense_wins(run.num_records, key_space, dtype.itemsize):
        return run
    dense = densify_run(run, key_space, store=store)
    run.delete()
    return dense
