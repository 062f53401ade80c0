"""256-bit word packing (Fig 7)."""

import pytest

from repro.core.packing import WORD_BYTES, PackingSpec


def test_paper_example_34_bit_keys():
    # §IV-C: "if the key size is 34 bits, it will use exactly 34 bits
    # instead of being individually padded and aligned to 64 bits."
    spec = PackingSpec(key_bits=34, value_bits=30)
    assert spec.pair_bits == 64
    assert spec.pairs_per_word == 4
    assert spec.packed_bytes_per_pair == 8.0
    # vs 16 aligned bytes: half the bandwidth.
    assert spec.bandwidth_saving() == pytest.approx(0.5)


def test_pairs_never_straddle_words():
    spec = PackingSpec(key_bits=40, value_bits=30)  # 70 bits: 3 per word
    assert spec.pairs_per_word == 3
    assert spec.packed_bytes_per_pair == pytest.approx(WORD_BYTES / 3)


def test_for_vertex_count():
    assert PackingSpec.for_vertex_count(2 ** 34).key_bits == 34
    assert PackingSpec.for_vertex_count(2 ** 34 + 1).key_bits == 35
    assert PackingSpec.for_vertex_count(2).key_bits == 1
    with pytest.raises(ValueError):
        PackingSpec.for_vertex_count(0)


def test_validation():
    with pytest.raises(ValueError):
        PackingSpec(key_bits=0, value_bits=8)
    with pytest.raises(ValueError):
        PackingSpec(key_bits=65, value_bits=8)
    with pytest.raises(ValueError):
        PackingSpec(key_bits=64, value_bits=256)


def test_saving_monotone_in_key_width():
    # Narrower keys pack more pairs per word: saving never decreases as
    # keys get narrower.
    savings = [PackingSpec(bits, 32).bandwidth_saving() for bits in range(64, 16, -4)]
    assert all(a <= b + 1e-12 for a, b in zip(savings, savings[1:]))
