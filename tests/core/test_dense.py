"""Dense output encoding (§III-B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.dense as dense_mod
from repro.core.accelerator import SoftwareBackend
from repro.core.dense import (
    DenseRunHandle,
    choose_encoding,
    dense_bytes,
    dense_wins,
    densify_run,
    sparse_bytes,
)
from repro.core.external import ExternalSortReducer
from repro.core.kvstream import KVArray
from repro.core.reduce_ops import SUM
from repro.perf.profiles import GRAFSOFT
from tests.support import kv_pairs


def read_all(dense: DenseRunHandle) -> KVArray:
    chunks = list(dense.chunks())
    return KVArray.concat(chunks) if chunks else KVArray.empty(dense.value_dtype)


def stored_bytes(store, dense: DenseRunHandle) -> int:
    return store.size(dense.values_file) + store.size(dense.bitmap_file)


def make_run(aoffs, pairs, chunk_bytes=4096):
    reducer = ExternalSortReducer(aoffs, SUM, np.float64,
                                  SoftwareBackend(GRAFSOFT), chunk_bytes)
    reducer.add(kv_pairs(pairs, np.float64))
    return reducer.finish()


def test_size_arithmetic():
    # 8-byte values: dense = n*8 + n/8 bits; sparse = 16 per record.
    assert dense_bytes(1000, 8) == 8000 + 125
    assert sparse_bytes(500, 8) == 8000
    assert not dense_wins(500, 1000, 8)   # 50% density: sparse just wins
    assert dense_wins(600, 1000, 8)       # 60%: dense wins


def test_densify_roundtrip(aoffs):
    pairs = [(0, 1.0), (3, 2.0), (4, 0.5), (99, 7.0)]
    run = make_run(aoffs, pairs)
    dense = densify_run(run, key_space=100)
    out = read_all(dense)
    assert out.keys.tolist() == [0, 3, 4, 99]
    assert out.values.tolist() == [1.0, 2.0, 0.5, 7.0]
    assert len(dense) == 4
    assert stored_bytes(aoffs, dense) == dense_bytes(100, 8)


def test_densify_chunk_iteration_matches_sparse(aoffs, monkeypatch):
    rng = np.random.default_rng(7)
    keys = np.unique(rng.integers(0, 5000, 3000))
    pairs = [(int(k), float(k) * 0.5) for k in keys]
    run = make_run(aoffs, pairs)
    dense = densify_run(run, key_space=5000)
    sparse_all = run.read_all()
    monkeypatch.setattr(dense_mod, "DENSE_CHUNK_KEYS", 64)
    chunks = list(dense.chunks())
    assert len(chunks) > 1
    dense_all = KVArray.concat(chunks)
    assert np.array_equal(dense_all.keys, sparse_all.keys)
    assert np.allclose(dense_all.values, sparse_all.values)


def test_densify_empty_run(aoffs):
    reducer = ExternalSortReducer(aoffs, SUM, np.float64,
                                  SoftwareBackend(GRAFSOFT), 4096)
    run = reducer.finish()
    dense = densify_run(run, key_space=64)
    assert len(read_all(dense)) == 0


def test_densify_validates_key_space(aoffs):
    run = make_run(aoffs, [(50, 1.0)])
    with pytest.raises(ValueError, match="key space"):
        densify_run(run, key_space=10)
    with pytest.raises(ValueError):
        densify_run(run, key_space=0)


def test_choose_encoding_sparse_stays(aoffs):
    run = make_run(aoffs, [(5, 1.0)])  # 1 record in a space of 1000
    chosen = choose_encoding(run, key_space=1000)
    assert chosen is run


def test_choose_encoding_densifies_and_cleans_up(aoffs):
    pairs = [(i, 1.0) for i in range(90)]  # 90% density
    run = make_run(aoffs, pairs)
    chosen = choose_encoding(run, key_space=100)
    assert isinstance(chosen, DenseRunHandle)
    assert not aoffs.exists(run.name)  # sparse run deleted
    assert read_all(chosen).keys.tolist() == list(range(90))


def test_dense_smaller_on_flash_when_dense(aoffs):
    pairs = [(i, 1.0) for i in range(900)]
    run = make_run(aoffs, pairs)
    dense = densify_run(run, key_space=1000)
    assert stored_bytes(aoffs, dense) < run.nbytes


@settings(deadline=None, max_examples=25)
@given(st.sets(st.integers(0, 200), max_size=100), st.integers(201, 400))
def test_densify_property(keys, key_space):
    from repro.flash.aoffs import AppendOnlyFlashFS
    from repro.flash.device import FlashDevice, FlashGeometry
    from repro.perf.clock import SimClock

    geometry = FlashGeometry(page_bytes=4096, pages_per_block=16, num_blocks=256)
    store = AppendOnlyFlashFS(FlashDevice(geometry, GRAFSOFT, SimClock()))
    pairs = [(k, float(k) + 0.25) for k in sorted(keys)]
    run = make_run(store, pairs)
    dense = densify_run(run, key_space=key_space)
    out = read_all(dense)
    assert out.keys.astype(int).tolist() == sorted(keys)
    if len(keys):
        assert np.allclose(out.values, np.array(sorted(keys)) + 0.25)
