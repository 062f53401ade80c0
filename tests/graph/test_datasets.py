"""Dataset registry: Table I statistics and scaling."""

import pytest

from repro.graph.datasets import DATASETS, DEFAULT_SCALE, build_graph, dataset_by_name


def test_all_five_paper_datasets_present():
    assert set(DATASETS) == {"twitter", "kron28", "kron30", "kron32", "wdc"}


def test_table1_constants():
    # Table I rows: nodes / edges / edgefactor.
    assert DATASETS["twitter"].paper_nodes == 41_000_000
    assert DATASETS["twitter"].paper_edgefactor == 36
    assert DATASETS["kron28"].paper_edges == 4_000_000_000
    assert DATASETS["kron30"].paper_nodes == 1_000_000_000
    assert DATASETS["kron32"].paper_edgefactor == 8
    assert DATASETS["wdc"].paper_edges == 128_000_000_000
    assert DATASETS["wdc"].paper_edgefactor == 43


def test_edge_factor_consistency():
    for dataset in DATASETS.values():
        ratio = dataset.paper_edges / dataset.paper_nodes
        assert ratio == pytest.approx(dataset.paper_edgefactor, rel=0.25)


def test_scaled_sizes():
    wdc = DATASETS["wdc"]
    assert wdc.scaled_nodes(2.0 ** -14) == pytest.approx(183_105, rel=0.01)


@pytest.mark.parametrize("name, scale", [
    *((name, 1e-8) for name in DATASETS), ("twitter", 3e-5), ("kron28", 3e-5)])
def test_scaled_sizes_match_the_built_graph(name, scale):
    dataset, graph = DATASETS[name], build_graph(name, scale)
    assert dataset.scaled_nodes(scale) == graph.num_vertices
    if name != "wdc":   # the web crawl's pendant path has one edge a vertex
        assert dataset.scaled_edges(scale) == graph.num_edges


def test_build_graph_small_scale():
    graph = build_graph("twitter", 2.0 ** -14, seed=1)
    dataset = DATASETS["twitter"]
    assert graph.num_vertices == dataset.scaled_nodes(2.0 ** -14)
    # Edge count within 2x of nodes * edgefactor (generators are stochastic
    # only in structure, not count, except kron rounding).
    assert graph.num_edges == pytest.approx(
        graph.num_vertices * dataset.paper_edgefactor, rel=0.5)


def test_kron_scaling_uses_power_of_two():
    graph = build_graph("kron30", 2.0 ** -16)
    assert graph.num_vertices == 1 << 14  # 30 - 16


def test_determinism():
    a = build_graph("wdc", 2.0 ** -16, seed=9)
    b = build_graph("wdc", 2.0 ** -16, seed=9)
    assert a.num_edges == b.num_edges
    assert (a.targets == b.targets).all()


def test_scale_validation():
    with pytest.raises(ValueError):
        DATASETS["twitter"].graph(0)
    with pytest.raises(ValueError):
        DATASETS["twitter"].graph(2.0)


def test_unknown_dataset():
    with pytest.raises(KeyError, match="unknown dataset"):
        dataset_by_name("facebook")


def test_default_scale_is_tractable():
    # The biggest dataset at default scale stays under ten million edges.
    wdc = DATASETS["wdc"]
    assert wdc.scaled_edges(DEFAULT_SCALE) < 10_000_000


# --------------------------------------------------------------------- cache


def test_cache_round_trip_identical(tmp_path, monkeypatch):
    import numpy as np
    monkeypatch.setenv("REPRO_DATASET_CACHE", str(tmp_path))
    cold = build_graph("kron30", 2.0 ** -16, seed=5)
    assert len(list(tmp_path.iterdir())) == 1
    warm = build_graph("kron30", 2.0 ** -16, seed=5)
    assert warm.num_vertices == cold.num_vertices
    assert np.array_equal(warm.offsets, cold.offsets)
    assert np.array_equal(warm.targets, cold.targets)


def test_warm_load_holds_the_graph_once(tmp_path, monkeypatch):
    """The arrays ``np.load`` returns become the graph's, frozen, not copied:
    a warm build's traced peak is the graph's own size plus a little."""
    import tracemalloc
    monkeypatch.setenv("REPRO_DATASET_CACHE", str(tmp_path))
    build_graph("kron30", 2.0 ** -14, seed=5)
    tracemalloc.start()
    try:
        warm = build_graph("kron30", 2.0 ** -14, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (warm.offsets.nbytes + warm.targets.nbytes)
    assert not warm.offsets.flags.writeable
    assert not warm.targets.flags.writeable


def test_second_build_skips_synthesis(tmp_path, monkeypatch):
    from repro.graph import generators
    monkeypatch.setenv("REPRO_DATASET_CACHE", str(tmp_path))
    calls = []
    real = generators.kronecker_csr
    monkeypatch.setattr(generators, "kronecker_csr",
                        lambda *a, **kw: (calls.append(a), real(*a, **kw))[1])
    build_graph("kron30", 2.0 ** -16, seed=6)
    assert len(calls) == 1
    build_graph("kron30", 2.0 ** -16, seed=6)
    assert len(calls) == 1  # warm load never touched the generator
    # A different key misses and synthesizes again.
    build_graph("kron30", 2.0 ** -16, seed=7)
    assert len(calls) == 2


def test_cache_distinct_keys_distinct_files(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATASET_CACHE", str(tmp_path))
    build_graph("kron30", 2.0 ** -16, seed=1)
    build_graph("kron30", 2.0 ** -15, seed=1)
    build_graph("kron30", 2.0 ** -16, seed=2)
    build_graph("kron28", 2.0 ** -16, seed=1)
    assert len(list(tmp_path.iterdir())) == 4


def test_cache_corrupt_entry_falls_back(tmp_path, monkeypatch):
    import numpy as np
    monkeypatch.setenv("REPRO_DATASET_CACHE", str(tmp_path))
    good = build_graph("kron30", 2.0 ** -16, seed=8)
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(b"not an npz file")
    rebuilt = build_graph("kron30", 2.0 ** -16, seed=8)
    assert np.array_equal(rebuilt.targets, good.targets)


def test_cache_disabled_by_env(tmp_path, monkeypatch):
    from repro.graph.datasets import dataset_cache_dir
    monkeypatch.setenv("REPRO_DATASET_CACHE", "off")
    assert dataset_cache_dir() is None
    build_graph("kron30", 2.0 ** -16, seed=1)  # must not raise
