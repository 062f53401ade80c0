"""Bloom filter for custom active-list generation (Algorithm 4).

PageRank's active list is not a subset of ``newV`` — it is the set of
vertices with an edge *into* ``newV`` — so Algorithm 4 marks those sources
in a bloom filter while scanning ``newV``'s in-edges, then sweeps the key
space testing membership.  The paper notes the filter can live inside the
accelerator; here it is a numpy bit array with splitmix64-derived hashes.
"""

from __future__ import annotations

import numpy as np

#: Keys hashed at once by :meth:`BloomFilter.add`: its hash temporaries are
#: ``num_hashes`` positions per key of one block, whatever the batch.
ADD_BLOCK_KEYS = 1 << 14


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a cheap, well-mixed 64-bit hash."""
    x = x + np.uint64(0x9E3779B97F4A7C15)  # a fresh array; uint64 math wraps
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class BloomFilter:
    """A fixed-size bloom filter over uint64 keys with vectorized ops."""

    def __init__(self, num_bits: int, num_hashes: int = 3):
        if num_bits < 8:
            raise ValueError(f"num_bits must be >= 8, got {num_bits}")
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_bits = int(num_bits)
        self.num_hashes = num_hashes
        self._bits = np.zeros((self.num_bits + 7) // 8, dtype=np.uint8)
        # One hash seed per row: i * 0x5851F42D4C957F2D mod 2^64 (uint64
        # array arithmetic wraps), broadcast against the keys in _positions.
        self._seeds = (np.arange(num_hashes, dtype=np.uint64)
                       * np.uint64(0x5851F42D4C957F2D))[:, np.newaxis]

    @property
    def nbytes(self) -> int:
        return self._bits.nbytes

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(num_hashes, len(keys)) bit positions."""
        keys = np.asarray(keys, dtype=np.uint64)
        h = _splitmix64(keys[np.newaxis, :] + self._seeds)
        return (h % np.uint64(self.num_bits)).astype(np.int64)

    def add(self, keys: np.ndarray) -> None:
        """Insert a batch of keys, hashing ``ADD_BLOCK_KEYS`` at a time.

        One boolean per bit marks every block's positions, then is packed
        least-significant bit first (bit ``pos`` is bit ``pos & 7`` of byte
        ``pos >> 3``) and OR-ed in.  Setting the packed bytes directly with
        ``bitwise_or.at`` holds no mask but costs ~15 ns a position, which
        made every workload's adds slower; the mask is one byte per bit.
        """
        if len(keys) == 0:
            return
        mask = np.zeros(len(self._bits) * 8, dtype=bool)
        for start in range(0, len(keys), ADD_BLOCK_KEYS):
            mask[self._positions(keys[start:start + ADD_BLOCK_KEYS]).ravel()] = True
        self._bits |= np.packbits(mask, bitorder="little")

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask for a batch of keys (no false negatives)."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        bits = self._bits[pos >> 3] >> (pos & 7).astype(np.uint8)
        return (bits & 1).all(axis=0)

    def clear(self) -> None:
        self._bits[:] = 0
