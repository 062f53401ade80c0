"""Superstep checkpoint/restart: cadence, auto-resume after power loss,
and the narrowed cleanup-path exception contract."""

import numpy as np
import pytest

from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import run_pagerank
from repro.core.external import ExternalSortReducer
from repro.core.kvstream import KVArray
from repro.core.reduce_ops import SUM
from repro.engine.config import make_system
from repro.engine.modes import STATIC_MODES
from repro.flash.device import FlashError, PowerLossError
from repro.flash.faults import CrashPlan
from repro.harness import run_grafboost_system

SCALE = 2.0 ** -14
ITERATIONS = 3


def build(kind, graph, crashes=None, durable=False):
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices,
                         crashes=crashes, durable=durable)
    flash_graph = system.load_graph(graph)
    return system, flash_graph


def counted_clean_run(kind, graph, algorithm="pagerank"):
    """Uninterrupted run on an op-counting device.

    Returns (final values, flash ops spent loading the graph, total ops),
    so crash tests can aim at op indices that land inside the engine run.
    """
    system, flash_graph = build(kind, graph, crashes=CrashPlan(crashes=0))
    load_ops = system.device.crashes.op_index
    engine = system.engine_for(flash_graph, graph.num_vertices)
    if algorithm == "pagerank":
        result = run_pagerank(engine, graph.num_vertices,
                              iterations=ITERATIONS)
    else:
        result = run_bfs(engine, root=0)
    return result.final_values(), load_ops, system.device.crashes.op_index


# --------------------------------------------------------------- checkpoints


def test_checkpointing_does_not_change_results(random_graph):
    system, flash_graph = build("grafboost", random_graph, durable=True)
    engine = system.engine_for(flash_graph, random_graph.num_vertices,
                               checkpoint_every=1)
    result = run_pagerank(engine, random_graph.num_vertices,
                          iterations=ITERATIONS)
    plain_system, plain_graph = build("grafboost", random_graph)
    plain = run_pagerank(
        plain_system.engine_for(plain_graph, random_graph.num_vertices),
        random_graph.num_vertices, iterations=ITERATIONS)
    assert np.array_equal(result.final_values(), plain.final_values())
    # Checkpoints are real flash traffic, cleared again on completion.
    assert (system.clock.bytes_moved("flash")
            > plain_system.clock.bytes_moved("flash"))
    assert not [n for n in system.store.list_files() if n.startswith("ckpt:")]


def test_crash_resume_from_checkpoint_is_bit_identical(random_graph):
    clean_values, load_ops, total_ops = counted_clean_run(
        "grafboost", random_graph)
    # Crash late in the run: by then a checkpoint_every=1 engine has
    # published at least one checkpoint, so resume must not start over.
    crash_at = load_ops + int((total_ops - load_ops) * 0.9)
    system, flash_graph = build(
        "grafboost", random_graph,
        crashes=CrashPlan(at_ops=(crash_at,), torn_write_p=1.0))
    engine = system.engine_for(flash_graph, random_graph.num_vertices,
                               checkpoint_every=1)
    with pytest.raises(PowerLossError):
        run_pagerank(engine, random_graph.num_vertices, iterations=ITERATIONS)

    system.remount()
    flash_graph = system.reattach_graph(flash_graph)
    engine = system.engine_for(flash_graph, random_graph.num_vertices,
                               checkpoint_every=1, auto_resume=True)
    result = run_pagerank(engine, random_graph.num_vertices,
                          iterations=ITERATIONS)
    assert engine.resumed_from_superstep is not None
    assert engine.resumed_from_superstep > 0
    assert np.array_equal(result.final_values(), clean_values)
    # Completion swept the checkpoint, its staging file, and crash orphans.
    leftovers = [n for n in system.store.list_files()
                 if n.startswith("ckpt:")]
    assert leftovers == []


def test_alg4_crash_resume_from_checkpoint(random_graph):
    """Algorithm 4 runs through EngineRun like every program: per-superstep
    mode and flash bytes are recorded, and a power loss resumes from the last
    checkpoint to the uninterrupted run's values (the bloom filter is
    per-superstep state, rebuilt by the resumed superstep's scan)."""
    from repro.algorithms.pagerank import run_pagerank_alg4
    from repro.graph.formats import FlashCSR

    n = random_graph.num_vertices

    def load(crashes):
        system, out_graph = build("grafsoft", random_graph, crashes=crashes)
        in_graph = FlashCSR.write(system.store, "in", random_graph.reversed())
        return system, out_graph, in_graph

    system, out_graph, in_graph = load(CrashPlan(crashes=0))
    load_ops = system.device.crashes.op_index
    clean = run_pagerank_alg4(system.engine_for(out_graph, n), in_graph,
                              iterations=6, tol=0.0)
    total_ops = system.device.crashes.op_index
    assert len(clean.mode_trace) == 6 and set(clean.mode_trace) <= set(STATIC_MODES)
    assert all(s.flash_bytes > 0 for s in clean.supersteps)

    crash_at = load_ops + int((total_ops - load_ops) * 0.9)
    system, out_graph, in_graph = load(
        CrashPlan(at_ops=(crash_at,), torn_write_p=1.0))
    engine = system.engine_for(out_graph, n, checkpoint_every=2)
    with pytest.raises(PowerLossError):
        run_pagerank_alg4(engine, in_graph, iterations=6, tol=0.0)

    system.remount()
    engine = system.engine_for(system.reattach_graph(out_graph), n,
                               checkpoint_every=2, auto_resume=True)
    result = run_pagerank_alg4(engine, system.reattach_graph(in_graph),
                               iterations=6, tol=0.0)
    assert engine.resumed_from_superstep in (2, 4)
    assert np.array_equal(result.final_values(), clean.final_values())


def test_power_loss_is_not_swallowed_by_superstep_cleanup(random_graph):
    """The superstep executor's ``except FlashError`` cleanup must let a
    power loss fly through — nothing below the crash harness may absorb
    it."""
    _, load_ops, total_ops = counted_clean_run("grafsoft", random_graph)
    crash_at = load_ops + (total_ops - load_ops) // 2
    system, flash_graph = build(
        "grafsoft", random_graph,
        crashes=CrashPlan(at_ops=(crash_at,), torn_write_p=0.0))
    engine = system.engine_for(flash_graph, random_graph.num_vertices)
    with pytest.raises(PowerLossError):
        run_pagerank(engine, random_graph.num_vertices, iterations=ITERATIONS)


def test_run_with_crashes_harness_smoke(random_graph):
    clean = run_grafboost_system("GraFSoft", random_graph, "bfs",
                                 scale=SCALE)
    clean_values, load_ops, total_ops = counted_clean_run(
        "grafsoft", random_graph, algorithm="bfs")
    plan = CrashPlan(at_ops=(load_ops // 2, load_ops + 50,
                             load_ops + (total_ops - load_ops) // 2),
                     torn_write_p=0.5)
    crashed = run_grafboost_system("GraFSoft", random_graph, "bfs",
                                   scale=SCALE, crashes=plan,
                                   checkpoint_every=2)
    assert crashed.completed
    assert crashed.crashes.power_losses == 3
    assert crashed.remounts >= 3
    assert np.array_equal(crashed.final_values, clean_values)
    assert crashed.elapsed_s >= clean.elapsed_s


# --------------------------------------------------- cleanup-path narrowing


def reducer_with_a_run(system):
    """A sort-reduce that has written one sorted run file to flash."""
    store = system.store
    reducer = ExternalSortReducer(store, SUM, np.float64, system.backend,
                                  chunk_bytes=1024, name_prefix="sr")
    reducer.add(KVArray(np.arange(64, dtype=np.uint64), np.ones(64)))
    assert [store.exists(run.name) for run in reducer._runs] == [True]
    return reducer, store


def test_reducer_close_tolerates_flash_errors(random_graph, monkeypatch):
    system, _ = build("grafboost", random_graph)
    reducer, store = reducer_with_a_run(system)

    def dying_delete(name):
        raise FlashError("device already failing")

    monkeypatch.setattr(store, "delete", dying_delete)
    reducer.close()  # best-effort cleanup: FlashError is expected here


def test_reducer_close_propagates_foreign_errors(random_graph, monkeypatch):
    """The ``except FlashError`` in close() is deliberately narrow: a bug
    (TypeError, ValueError...) in the cleanup path must surface, not be
    eaten by best-effort error handling."""
    system, _ = build("grafboost", random_graph)
    reducer, store = reducer_with_a_run(system)

    def buggy_delete(name):
        raise ValueError("not a device failure")

    monkeypatch.setattr(store, "delete", buggy_delete)
    with pytest.raises(ValueError, match="not a device failure"):
        reducer.close()
