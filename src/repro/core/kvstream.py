"""Columnar key-value runs: the unit of data sort-reduce operates on.

A :class:`KVArray` is a pair of aligned numpy arrays — ``uint64`` keys and a
caller-chosen value dtype — with helpers for sorting, slicing, serialization
to/from flash bytes, and invariant checks.  Everything in the sort-reduce
pipeline (intermediate update lists, sorted runs, ``newV`` results, vertex
overlays) is a ``KVArray`` or a file full of its serialized records.

Records are serialized interleaved (``key, value, key, value, …``) exactly as
the paper streams them between pipeline stages, so a run file can be read
back in arbitrary record-aligned chunks.
"""

from __future__ import annotations

import numpy as np

KEY_DTYPE = np.dtype("<u8")

#: Buffers shorter than this are copied, not viewed, by
#: :meth:`KVArray.from_buffers`: every view is one more part in each merge
#: step, which costs more than copying this many bytes once.
VIEW_MIN_BYTES = 1 << 16

#: Concatenations of at most this many sorted runs are sorted by timsort, more
#: by the composite sort — the measured crossover (DESIGN.md), not a setting.
TIMSORT_MAX_RUNS = 2


class KVArray:
    """An aligned (keys, values) pair; may be sorted or unsorted.

    The constructor validates alignment; :meth:`empty` makes a typed empty run.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        keys = np.asarray(keys)
        values = np.asarray(values)
        if keys.ndim != 1 or values.ndim != 1:
            raise ValueError("keys and values must be one-dimensional")
        if len(keys) != len(values):
            raise ValueError(f"length mismatch: {len(keys)} keys vs {len(values)} values")
        if keys.dtype != KEY_DTYPE:
            keys = keys.astype(KEY_DTYPE)
        self.keys = keys
        self.values = values

    # -------------------------------------------------------------- factories

    @classmethod
    def _wrap(cls, keys: np.ndarray, values: np.ndarray) -> "KVArray":
        """Internal constructor for arrays already known to be aligned 1-D
        with uint64 keys (slices/permutations of validated runs) — skips the
        per-call validation of ``__init__`` on hot paths."""
        out = object.__new__(cls)
        out.keys = keys
        out.values = values
        return out

    @staticmethod
    def empty(value_dtype: np.dtype) -> "KVArray":
        return KVArray(np.empty(0, KEY_DTYPE), np.empty(0, np.dtype(value_dtype)))

    # -------------------------------------------------------------- properties

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def value_dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def record_bytes(self) -> int:
        """Serialized size of one (key, value) record."""
        return KEY_DTYPE.itemsize + self.values.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Serialized size of the whole run."""
        return len(self) * self.record_bytes

    def record_dtype(self) -> np.dtype:
        return record_dtype(self.values.dtype)

    def is_sorted(self) -> bool:
        if len(self.keys) < 2:
            return True
        return bool(np.all(self.keys[:-1] <= self.keys[1:]))

    def is_strictly_sorted(self) -> bool:
        """Sorted with no duplicate keys — the post-reduction invariant."""
        if len(self.keys) < 2:
            return True
        return bool(np.all(self.keys[:-1] < self.keys[1:]))

    # ------------------------------------------------------------- operations

    def sorted(self, runs: int = 0) -> "KVArray":
        """Stable sort by key: ties keep arrival order (FIRST/LAST correctness).
        ``runs`` is :func:`stable_sort`'s hint; only the values are gathered."""
        keys, order = stable_sort(self.keys, runs)
        return KVArray._wrap(keys, self.values[order])

    def slice(self, start: int, stop: int) -> "KVArray":
        return KVArray._wrap(self.keys[start:stop], self.values[start:stop])

    @staticmethod
    def concat(runs: list["KVArray"]) -> "KVArray":
        """Concatenate preserving order (run order matters for FIRST/LAST).
        One non-empty run is returned as it is, not copied."""
        runs = [r for r in runs if len(r)]
        if not runs:
            raise ValueError("concat of zero non-empty runs needs a value dtype; use KVArray.empty")
        if len(runs) == 1:
            return runs[0]
        return KVArray._wrap(
            np.concatenate([r.keys for r in runs]),
            np.concatenate([r.values for r in runs]),
        )

    # ----------------------------------------------------------- serialization

    def to_records(self) -> np.ndarray:
        """Interleaved (key, value) records, little-endian, frozen: the file
        store keeps them as its pages without a copy
        (:meth:`repro.flash.store.FileStore.append_array`)."""
        rec = np.empty(len(self), dtype=self.record_dtype())
        rec["k"] = self.keys
        rec["v"] = self.values
        rec.flags.writeable = False
        return rec

    def to_bytes(self) -> bytes:
        """:meth:`to_records` as ``bytes``."""
        return self.to_records().tobytes()

    @staticmethod
    def from_bytes(data: bytes, value_dtype: np.dtype) -> "KVArray":
        rec = np.frombuffer(data, dtype=record_dtype(value_dtype))
        return KVArray._wrap(rec["k"].copy(), rec["v"].copy())

    @staticmethod
    def from_buffers(buffers: list, value_dtype: np.dtype) -> list["KVArray"]:
        """Records laid end to end across ``buffers``, in order, as
        non-empty runs of read-only strided views into them.

        Only what no buffer holds whole is copied: the records a buffer
        boundary cuts in two, and buffers shorter than ``VIEW_MIN_BYTES``,
        joined with those cut records into one run of their own.
        """
        dtype = record_dtype(value_dtype)
        size = dtype.itemsize
        parts: list[KVArray] = []
        pending = b""          # bytes no view holds, copied, in order
        for buffer in buffers:
            n = len(buffer)
            if n < VIEW_MIN_BYTES:
                pending += buffer
                continue
            head = -len(pending) % size
            if pending:
                rec = np.frombuffer(pending + buffer[:head], dtype=dtype)
                parts.append(KVArray._wrap(rec["k"], rec["v"]))
            count = (n - head) // size
            rec = np.frombuffer(buffer, dtype=dtype, count=count, offset=head)
            parts.append(KVArray._wrap(rec["k"], rec["v"]))
            pending = bytes(buffer[head + count * size:])
        if pending:
            rec = np.frombuffer(pending, dtype=dtype)
            parts.append(KVArray._wrap(rec["k"], rec["v"]))
        return parts

    def __repr__(self) -> str:
        preview = ", ".join(
            f"({int(k)}, {v})" for k, v in zip(self.keys[:4], self.values[:4])
        )
        suffix = ", …" if len(self) > 4 else ""
        return f"KVArray(n={len(self)}, vdtype={self.values.dtype}, [{preview}{suffix}])"


def stable_sort(keys: np.ndarray, runs: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_keys, order)`` of uint64 ``keys``, ``order`` being the stable
    permutation: ``sorted_keys == keys[order]``, ties in input order.

    The stable order is packed into one unique composite word,
    ``(key << pos_bits) | position`` with ``pos_bits = (n-1).bit_length()``,
    which is sorted in place by the (unstable, SIMD) default sort: the
    sorted keys are its high bits, the stable permutation its low bits.

    ``runs`` is the number of already-sorted runs the data is a
    concatenation of (0: unsorted; an upper bound will do).  Up to
    ``TIMSORT_MAX_RUNS`` of them, timsort's natural-run merging beats the
    composite sort (table in DESIGN.md, "Performance of the simulator");
    keys too large to leave ``pos_bits`` free take the same stable
    argsort.  Every path yields the same permutation, so the choice
    never changes a result.
    """
    n = len(keys)
    pos_bits = (n - 1).bit_length()
    if (n < 2 or 0 < runs <= TIMSORT_MAX_RUNS
            or int(keys.max()) >> (64 - pos_bits)):
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    composite = keys << np.uint64(pos_bits)
    composite |= np.arange(n, dtype=np.uint64)
    composite.sort()
    order = (composite & np.uint64((1 << pos_bits) - 1)).view(np.int64)
    composite >>= np.uint64(pos_bits)
    return composite, order


def record_dtype(value_dtype: np.dtype) -> np.dtype:
    """The serialized record layout for a given value dtype."""
    return np.dtype([("k", KEY_DTYPE), ("v", np.dtype(value_dtype))])
