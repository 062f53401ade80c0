"""Byte-level goldens for everything ``build_graph`` synthesizes.

``build_graph`` caches built graphs on disk keyed by
``DATASET_CACHE_VERSION`` and the invariance goldens pin simulated numbers of
runs over these graphs, so a generator or CSR change that moves one byte must
either be a deliberate, versioned change or a bug.  The digests below were
recorded once, on the commit before the cold-start path was rebuilt, and are
not edited by performance work.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import datasets, generators
from repro.graph.csr import CSRGraph
from tests.support import (
    dataset_edges,
    kronecker_edges,
    random_weights,
    rmat_edges,
    uniform_edges,
)

RULE = ("generator output changed: bump `DATASET_CACHE_VERSION` and "
        "re-record, or fix the change")

SEEDS = (1, 7)
SCALE = 2.0 ** -18


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over dtype, length and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}:{a.shape}:".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


GENERATORS = {
    "kronecker_edges": lambda seed: kronecker_edges(11, 8, seed=seed)[:2],
    "rmat_edges": lambda seed: rmat_edges(
        10, 6, a=0.45, b=0.25, c=0.15, seed=seed)[:2],
    "powerlaw_edges": lambda seed: generators.powerlaw_edges(
        3000, 40_000, exponent=1.3, seed=seed)[:2],
    "powerlaw_edges_exp1": lambda seed: generators.powerlaw_edges(
        3000, 40_000, exponent=1.0, seed=seed)[:2],
    "webcrawl_edges": lambda seed: generators.webcrawl_edges(
        2000, edgefactor=11, seed=seed)[:2],
    "uniform_edges": lambda seed: uniform_edges(700, 9000, seed=seed)[:2],
    "random_weights": lambda seed: (random_weights(9000, seed=seed),),
}

GENERATOR_DIGESTS = {
    ("kronecker_edges", 1): "464b3a8ce631525f7d944ae0193724659d623881b7ea035fb1b5443a95bedd44",
    ("kronecker_edges", 7): "dc0f81487cf109f703aaf078c760536b44f2ce62586e68459b964fd62c2a07d9",
    ("rmat_edges", 1): "c537d5b566c95fe7fb828c63bf866911d5714bd10d8b83e6f62916277012697d",
    ("rmat_edges", 7): "5e689fd42231f57daa16450e0df523804b8b854b843caeae5c6d115cc6ec8ef6",
    ("powerlaw_edges", 1): "59219a6619322713d90020d8a42c49ac8fa90fd012593ae3ab88fd978a09a063",
    ("powerlaw_edges", 7): "7173b36d521b0678992c40abea4418c5c4372deda49e275842a9108511d226bc",
    ("powerlaw_edges_exp1", 1): "68e3429b6d1a785f184654531e779163ff9afa9603e44c9d2a3eddfc7c684021",
    ("powerlaw_edges_exp1", 7): "22308d8b170917b715cf97e155fdc567ec1416e65b182460b7c3800144c6925f",
    ("webcrawl_edges", 1): "3d8d8d3c1cdd1897c573147cef0607ecd42c8b13ee3b02f4758432b1f4ee0e63",
    ("webcrawl_edges", 7): "97998af407ce5e5f80b7f2041d48457aea1c78c1a4e4e7421601e40412e37515",
    ("uniform_edges", 1): "5ce847d5413e49388b094cf63a0bef3c5d53767537e5b9d3b260ee3eb2edd3b6",
    ("uniform_edges", 7): "dceaebe164591037e664bed5cfbae561e57d8eace7edb02e43e9557c121584a4",
    ("random_weights", 1): "785d6d2a95c682c880130a8dccc59b4e1972dcb90e4422f974dce270509aca49",
    ("random_weights", 7): "3858a1b96675578957c913c994e68a3bb6541389e3bf7e8a164f25e9e27e2ae7",
}

#: (dataset, seed, weighted) -> digest of offsets, targets[, weights].
DATASET_DIGESTS = {
    ("twitter", 1, False): "b50bb51345fde367cba099fd43b6b903c62a6f5d0548dfc892e28534e1d2856e",
    ("twitter", 1, True): "537196abf6573b1f2d23a9a28f231a4690404d9a818d2ee43b50c3604b2c0a07",
    ("twitter", 7, False): "e6054648fa9286662003558b1c64773c249284c18afc2fc87f0a1e1383720994",
    ("twitter", 7, True): "fef36c3292b0bec3fda0093206bc67598ad4d0eb3e296943347375d9716b0883",
    ("kron28", 1, False): "bb1b48360db0c62849411f8af49febab111dab541c1fdb9e835230416a45a390",
    ("kron28", 1, True): "b0b0c896491a6dfff1d328fdccfe40b562666836230c42bd439f24679ecf94f9",
    ("kron28", 7, False): "0c3be1da216e1f9c66d352c62e14a3cf4c1b0470294cd622873ff62637ee4a7d",
    ("kron28", 7, True): "26ffe0f42e2aba8aab4058c527cea1b23588e9e906e86bbb2390484703171e0d",
    ("kron30", 1, False): "6aa1c80e452d2a7ffeba13a68cd53b24380f313da689cfca09e8c9e84c84bd86",
    ("kron30", 1, True): "2324bddd35aad07105b81bc32ee0530fc6d18fa8fab871efd53d40d1532ddb9c",
    ("kron30", 7, False): "0e2f631fed26695bc9dc2765c3cecac1b16fc5563ad48308559613922e572d43",
    ("kron30", 7, True): "c747f2aea91a89d20056a261bc37ccda6f4d3ceeb2997eae1fdb82d5c33f76af",
    ("kron32", 1, False): "9258b0cda0f928127704eed16d2cab3e2e12315479d07abc97654b019c0bf423",
    ("kron32", 1, True): "1beaf5132ced1763834d360a0c5daaf025c867296685275aeaa321f749e430a5",
    ("kron32", 7, False): "3bb51935a252cdbacc4a6abf54c9d877235e7ac7d15113fd9f24afae1eec08df",
    ("kron32", 7, True): "36dac4957bc498ffb785b5609541d8caf2e1ba1f765be7b4c4659077ddc9a3f6",
    ("wdc", 1, False): "ad14aadc821ebddeb8216355c9dc41e242ae7f4c541e6ab5be7fcb9a0895dccd",
    ("wdc", 1, True): "80ce0774179733c300ec6c25db80a93636bd40759be7e32ac59396aa34c7abdd",
    ("wdc", 7, False): "75ba9816faced05c478eed49caff1198fd9923afd09f86c9a8afe411d2df8cfc",
    ("wdc", 7, True): "5977a34983359e11f1ebb956003d05d0c2a02bfd3a5f47abeea65e334cfffae2",
}


@pytest.mark.parametrize("name, seed", sorted(GENERATOR_DIGESTS))
def test_generator_bytes(name, seed):
    assert digest(*GENERATORS[name](seed)) == GENERATOR_DIGESTS[name, seed], RULE


def graph_arrays(graph: CSRGraph) -> tuple[np.ndarray, ...]:
    arrays = (graph.offsets, graph.targets)
    return arrays if graph.weights is None else arrays + (graph.weights,)


def fresh_build(name: str, seed: int, weighted: bool) -> CSRGraph:
    """``build_graph`` without the cache; weighted: ``random_weights`` on
    the generator's edges, as weighted datasets were built."""
    src, dst, n = dataset_edges(name, SCALE, seed)
    weights = random_weights(len(src), seed=seed) if weighted else None
    return CSRGraph.from_edges(src, dst, n, weights)


@pytest.mark.parametrize("name, seed, weighted", sorted(DATASET_DIGESTS))
def test_dataset_bytes(name, seed, weighted, monkeypatch):
    if weighted:
        graph = fresh_build(name, seed, weighted)
    else:
        monkeypatch.setenv("REPRO_DATASET_CACHE", "off")
        graph = datasets.build_graph(name, SCALE, seed=seed)
    assert digest(*graph_arrays(graph)) == DATASET_DIGESTS[name, seed, weighted], RULE


def test_every_dataset_is_pinned():
    assert {name for name, _, _ in DATASET_DIGESTS} == set(datasets.DATASETS)
    assert datasets.DATASET_CACHE_VERSION == 1, RULE


@pytest.mark.parametrize("name", ["kron30", "wdc"])
def test_cache_entry_from_the_reference_build_equals_a_fresh_build(
        name, tmp_path, reference_from_edges):
    # A version-1 ``.npz`` written by older code must be what today's code
    # would have built — that is what lets the cache version stay at 1.
    src, dst, n = dataset_edges(name, SCALE, seed=3)
    path = str(tmp_path / "entry.npz")
    datasets._store_cached(path, reference_from_edges(src, dst, n))
    cached = datasets._load_cached(path)
    fresh = fresh_build(name, 3, weighted=False)
    assert cached.num_vertices == fresh.num_vertices
    for old, new in zip(graph_arrays(cached), graph_arrays(fresh), strict=True):
        assert old.dtype == new.dtype and np.array_equal(old, new), RULE
