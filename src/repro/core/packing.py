"""Dense bit-packing of key-value pairs into 256-bit words (Fig 7, §IV-C).

To saturate DRAM and flash bandwidth, the hardware communicates in 256-bit
words and packs as many key-value pairs per word as possible, ignoring byte
and word alignment (a 34-bit key uses exactly 34 bits).  The software
implementation keeps keys and values word-aligned instead (§IV-F) — packing
and unpacking is free in specialized hardware but costly on a CPU.

This module provides both the arithmetic model the accelerator cost model
uses (pairs per word, effective bandwidth saving) and a *functional*
pack/unpack so tests can prove the format round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 256
WORD_BYTES = WORD_BITS // 8
#: Bytes per pair in the word-aligned software layout: 8-byte key and value.
ALIGNED_BYTES_PER_PAIR = 16


@dataclass(frozen=True)
class PackingSpec:
    """Bit widths of one key-value pair inside the 256-bit datapath."""

    key_bits: int
    value_bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.key_bits <= 64:
            raise ValueError(f"key_bits must be in [1, 64], got {self.key_bits}")
        if not 1 <= self.value_bits <= 128:
            raise ValueError(f"value_bits must be in [1, 128], got {self.value_bits}")
        if self.pair_bits > WORD_BITS:
            raise ValueError(f"a single pair ({self.pair_bits} bits) exceeds the word size")

    @property
    def pair_bits(self) -> int:
        return self.key_bits + self.value_bits

    @property
    def pairs_per_word(self) -> int:
        """Pairs packed per 256-bit word; pairs never straddle words."""
        return WORD_BITS // self.pair_bits

    @property
    def packed_bytes_per_pair(self) -> float:
        """Average bytes of datapath traffic per pair when packed."""
        return WORD_BYTES / self.pairs_per_word

    def bandwidth_saving(self) -> float:
        """Fraction of bandwidth saved by packing vs the aligned layout."""
        return 1.0 - self.packed_bytes_per_pair / ALIGNED_BYTES_PER_PAIR

    @staticmethod
    def for_vertex_count(num_vertices: int, value_bits: int = 64) -> "PackingSpec":
        """Spec whose key width is the minimum for ``num_vertices`` keys."""
        if num_vertices < 1:
            raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
        key_bits = max(1, int(num_vertices - 1).bit_length())
        return PackingSpec(key_bits=key_bits, value_bits=value_bits)

    # ------------------------------------------------------------- functional

    def pack(self, keys: np.ndarray, values: np.ndarray) -> bytes:
        """Pack pairs into consecutive 256-bit words (low bits first)."""
        if len(keys) != len(values):
            raise ValueError("keys and values must be the same length")
        key_mask = (1 << self.key_bits) - 1
        value_mask = (1 << self.value_bits) - 1
        ppw = self.pairs_per_word
        out = bytearray()
        for w0 in range(0, len(keys), ppw):
            word = 0
            shift = 0
            for i in range(w0, min(w0 + ppw, len(keys))):
                k = int(keys[i])
                v = int(values[i])
                if k & ~key_mask:
                    raise ValueError(f"key {k} does not fit in {self.key_bits} bits")
                if v & ~value_mask:
                    raise ValueError(f"value {v} does not fit in {self.value_bits} bits")
                word |= (k | (v << self.key_bits)) << shift
                shift += self.pair_bits
            out.extend(word.to_bytes(WORD_BYTES, "little"))
        return bytes(out)

    def unpack(self, data: bytes, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`pack` for ``count`` pairs."""
        ppw = self.pairs_per_word
        expected_words = -(-count // ppw) if count else 0
        if len(data) != expected_words * WORD_BYTES:
            raise ValueError(
                f"expected {expected_words * WORD_BYTES} bytes for {count} pairs, "
                f"got {len(data)}"
            )
        key_mask = (1 << self.key_bits) - 1
        value_mask = (1 << self.value_bits) - 1
        keys = np.empty(count, dtype=np.uint64)
        values = np.empty(count, dtype=np.uint64)
        for w in range(expected_words):
            word = int.from_bytes(data[w * WORD_BYTES:(w + 1) * WORD_BYTES], "little")
            for j in range(min(ppw, count - w * ppw)):
                pair = (word >> (j * self.pair_bits)) & ((1 << self.pair_bits) - 1)
                keys[w * ppw + j] = pair & key_mask
                values[w * ppw + j] = (pair >> self.key_bits) & value_mask
        return keys, values
