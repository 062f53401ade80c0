"""Dense bit-packing of key-value pairs into 256-bit words (Fig 7, §IV-C).

To saturate DRAM and flash bandwidth, the hardware communicates in 256-bit
words and packs as many key-value pairs per word as possible, ignoring byte
and word alignment (a 34-bit key uses exactly 34 bits).  The software
implementation keeps keys and values word-aligned instead (§IV-F) — packing
and unpacking is free in specialized hardware but costly on a CPU.

This module is the arithmetic model the accelerator cost model uses: pairs
per word and the effective bandwidth saving.  Nothing in the simulator
stores the packed format itself, so there is no pack/unpack.
"""

from __future__ import annotations

from dataclasses import dataclass

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
