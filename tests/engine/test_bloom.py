"""Bloom filter (Algorithm 4's active-list marker)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.bloom as bloom_module
from repro.core.bloom import BloomFilter


def test_no_false_negatives():
    bloom = BloomFilter(num_bits=4096, num_hashes=3)
    keys = np.arange(0, 1000, 7, dtype=np.uint64)
    bloom.add(keys)
    assert bloom.contains(keys).all()


def test_block_adds_set_the_bits_of_one_whole_batch_mask(monkeypatch):
    # Eleven hash blocks, the last one short: the bits of one mask of every
    # key's positions, packed least-significant bit first.
    monkeypatch.setattr(bloom_module, "ADD_BLOCK_KEYS", 100)
    keys = np.random.default_rng(3).integers(0, 2 ** 63, 1050).astype(np.uint64)
    bloom = BloomFilter(num_bits=5003, num_hashes=4)
    bloom.add(keys)
    mask = np.zeros(len(bloom._bits) * 8, dtype=bool)
    mask[bloom._positions(keys).ravel()] = True
    assert np.array_equal(bloom._bits, np.packbits(mask, bitorder="little"))


def test_mostly_rejects_absent_keys():
    # About 1 % false positives at 200 keys: ~9.6 bits per key, 7 hashes.
    bloom = BloomFilter(num_bits=1928, num_hashes=7)
    present = np.arange(200, dtype=np.uint64)
    absent = np.arange(10_000, 20_000, dtype=np.uint64)
    bloom.add(present)
    false_positive_rate = bloom.contains(absent).mean()
    assert false_positive_rate < 0.05


def test_empty_operations():
    bloom = BloomFilter(64)
    bloom.add(np.empty(0, dtype=np.uint64))
    assert bloom.contains(np.empty(0, dtype=np.uint64)).tolist() == []
    assert not bloom.contains(np.arange(64, dtype=np.uint64)).any()


def test_clear():
    bloom = BloomFilter(256)
    keys = np.array([1, 2, 3], dtype=np.uint64)
    bloom.add(keys)
    assert bloom.contains(keys).all()
    bloom.clear()
    assert not bloom.contains(np.arange(256, dtype=np.uint64)).any()


def test_sizing():
    for num_bits in (8, 9, 100, 4096):
        assert BloomFilter(num_bits).nbytes == (num_bits + 7) // 8


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(4)
    with pytest.raises(ValueError):
        BloomFilter(64, num_hashes=0)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 2 ** 62), max_size=100))
def test_membership_property(keys):
    bloom = BloomFilter(8192, num_hashes=2)
    array = np.array(keys, dtype=np.uint64)
    bloom.add(array)
    if len(array):
        assert bloom.contains(array).all()


def reference_positions(keys, num_bits, num_hashes):
    """Bit positions one key and one hash at a time, in Python integers."""
    mask = (1 << 64) - 1

    def splitmix64(x):
        x = (x + 0x9E3779B97F4A7C15) & mask
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & mask
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    return [[splitmix64((key + i * 0x5851F42D4C957F2D) & mask) % num_bits
             for key in keys] for i in range(num_hashes)]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40),
       st.integers(8, 5000), st.integers(1, 6))
def test_positions_match_scalar_reference(keys, num_bits, num_hashes):
    bloom = BloomFilter(num_bits, num_hashes)
    got = bloom._positions(np.array(keys, dtype=np.uint64))
    assert got.shape == (num_hashes, len(keys))
    assert got.tolist() == reference_positions(keys, num_bits, num_hashes)


def reference_add(bloom, keys):
    """The bits ``add`` sets, one ``bitwise_or.at`` per bit position."""
    bits = bloom._bits.copy()
    pos = bloom._positions(np.array(keys, dtype=np.uint64)).ravel()
    np.bitwise_or.at(bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    return bits


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.lists(st.lists(st.integers(0, 2**64 - 1), max_size=60), max_size=3),
       st.one_of(st.just(64), st.integers(8, 5000)), st.integers(1, 4))
def test_add_sets_the_bits_of_the_scatter_reference(batches, num_bits, num_hashes):
    bloom = BloomFilter(num_bits, num_hashes)
    for keys in batches:
        expected = reference_add(bloom, keys)
        bloom.add(np.array(keys, dtype=np.uint64))
        assert bloom._bits.tobytes() == expected.tobytes()
