"""Evaluation harness: dispatch, DNF propagation, patience."""

import numpy as np
import pytest

from repro import harness
from repro.engine.config import make_system
from repro.flash.device import FlashRecoveryExhaustedError
from repro.flash.faults import CrashPlan
from repro.graph.datasets import build_graph
from repro.harness import (
    GRAFBOOST_FAMILY,
    GRAFBOOST_ONE_CARD,
    WorkloadResult,
    default_root,
    results_by,
    run_baseline_system,
    run_cell,
    run_grafboost_system,
    run_matrix,
    run_service_cell,
)
from repro.perf.profiles import SERVER_SSD_ARRAY

SCALE = 2.0 ** -14


def test_default_root_has_edges(tiny_graph):
    root = default_root(tiny_graph)
    assert tiny_graph.out_degrees()[root] > 0


def test_default_root_rejects_empty():
    from repro.graph.csr import CSRGraph

    empty = CSRGraph(3, np.zeros(4, dtype=np.uint64), np.empty(0, np.uint64))
    with pytest.raises(ValueError):
        default_root(empty)


def test_run_grafboost_system_all_algorithms():
    graph = build_graph("twitter", SCALE)
    for algorithm in ("pagerank", "bfs", "bc"):
        cell = run_grafboost_system("GraFBoost", graph, algorithm, scale=SCALE)
        assert cell.completed
        assert cell.elapsed_s > 0
        assert cell.flash_bytes > 0


def test_run_grafboost_unknown_algorithm():
    graph = build_graph("twitter", SCALE)
    with pytest.raises(ValueError, match="algorithm"):
        run_grafboost_system("GraFBoost", graph, "kcore", scale=SCALE)


@pytest.mark.parametrize("entry", ["run", "serve"])
def test_graph_load_recovery_is_bounded_and_typed(monkeypatch, entry):
    """Every crash-path loop draws from the system's one remount budget.
    The serve entry's graph-load remount loop used to have no bound at all:
    it drained this plan and completed."""
    graph = build_graph("twitter", SCALE)

    def two_remounts(*args, **kwargs):
        system = make_system(*args, **kwargs)
        system.max_remounts = 2
        return system

    monkeypatch.setattr(harness, "make_system", two_remounts)
    # Op 3 is inside the graph write; the mount scan counts ops too, so 6,
    # 9 and 12 each kill one remount of its recovery.
    plan = CrashPlan(at_ops=(3, 6, 9, 12))
    with pytest.raises(FlashRecoveryExhaustedError) as excinfo:
        if entry == "run":
            run_grafboost_system("GraFSoft", graph, "bfs", scale=SCALE,
                                 crashes=plan)
        else:
            run_service_cell("GraFSoft", graph, ["t0:bfs"], scale=SCALE,
                             crashes=plan)
    assert excinfo.value.plan is plan


def test_run_baseline_unknown_name():
    graph = build_graph("twitter", SCALE)
    with pytest.raises(KeyError, match="unknown baseline"):
        run_baseline_system("Pregel", graph, "bfs", SERVER_SSD_ARRAY.scaled(SCALE))


def test_baseline_dnf_propagates():
    graph = build_graph("kron28", SCALE)
    cell = run_baseline_system("GraphLab", graph, "bfs",
                               SERVER_SSD_ARRAY.scaled(SCALE), scale=SCALE)
    assert not cell.completed
    assert cell.time_or_nan != cell.time_or_nan
    assert cell.mteps == 0.0
    assert "memory" in cell.dnf_reason


@pytest.mark.parametrize("algorithm", ["pagerank", "bfs", "bc"])
@pytest.mark.parametrize("system", harness.BASELINE_SYSTEMS)
def test_baseline_cutoff_before_first_superstep_is_a_dnf(system, algorithm):
    """Patience that runs out in FlashGraph's untimed setup or GraphLab's
    timed load is a DNF like any other cutoff, not an escaping exception."""
    scale = 2.0 ** -16
    graph = build_graph("twitter", scale)
    cell = run_baseline_system(system, graph, algorithm,
                               SERVER_SSD_ARRAY.scaled(scale), scale=scale,
                               cutoff_s=1e-12)
    assert not cell.completed
    assert "exceeded patience" in cell.dnf_reason


def test_run_baseline_unknown_algorithm():
    graph = build_graph("twitter", SCALE)
    with pytest.raises(ValueError, match="algorithm"):
        run_baseline_system("X-Stream", graph, "kcore", SERVER_SSD_ARRAY.scaled(SCALE))


def test_run_cell_dispatch():
    graph = build_graph("twitter", SCALE)
    family = run_cell("GraFSoft", graph, "bfs", scale=SCALE)
    baseline = run_cell("FlashGraph", graph, "bfs", scale=SCALE)
    assert family.system in GRAFBOOST_FAMILY
    assert baseline.system == "FlashGraph"
    assert family.completed and baseline.completed


def test_run_cell_grafboost_profile_override():
    graph = build_graph("twitter", SCALE)
    two_cards = run_cell("GraFBoost", graph, "pagerank", scale=SCALE)
    one_card = run_cell("GraFBoost", graph, "pagerank", scale=SCALE,
                        grafboost_profile=GRAFBOOST_ONE_CARD)
    assert one_card.elapsed_s > two_cards.elapsed_s  # half the flash bandwidth


def test_run_matrix_patience_applies():
    results = run_matrix(["GraFSoft", "GraphChi"], ["bfs"], "wdc",
                         scale=2.0 ** -18, patience_factor=0.1)
    by_system = results_by(results, "bfs")
    assert by_system["GraFSoft"].completed  # the family is never cut off
    assert not by_system["GraphChi"].completed
    assert "patience" in by_system["GraphChi"].dnf_reason


def test_results_by_filters_algorithm():
    results = [
        WorkloadResult("A", "bfs", "d", True, 1.0),
        WorkloadResult("B", "bfs", "d", True, 2.0),
        WorkloadResult("A", "pagerank", "d", True, 3.0),
    ]
    by_system = results_by(results, "bfs")
    assert set(by_system) == {"A", "B"}
    assert by_system["A"].elapsed_s == 1.0


def test_runs_ignore_the_retired_environment_switches(monkeypatch):
    # The engine mode and worker count once fell back to REPRO_<NAME>
    # variables; a run is now configured by its arguments alone.
    for name, value in {"MODE": "adaptive", "WORKERS": "4"}.items():
        monkeypatch.setenv(f"REPRO_{name}", value)
    system = make_system("grafsoft", SCALE)
    assert (system.mode, system.workers) == ("sortreduce", 1)


# ------------------------------------------------------- two-phase mode trace

def test_bc_mode_trace_covers_both_phases():
    graph = build_graph("twitter", SCALE)
    result = run_grafboost_system("GraFBoost", graph, "bc", scale=SCALE)
    assert result.mode_phases is not None
    labels = [label for label, _ in result.mode_phases]
    assert labels == ["forward", "backtrace"]
    # The trace spans forward *and* backtrace supersteps — the backtrace
    # phase used to be silently dropped.
    lengths = [n for _, n in result.mode_phases]
    assert all(n > 0 for n in lengths)
    assert len(result.mode_trace) == sum(lengths)


def test_bc_mode_trace_summary_labels_phases():
    from repro.perf.report import mode_trace_summary

    graph = build_graph("twitter", SCALE)
    result = run_grafboost_system("GraFBoost", graph, "bc", scale=SCALE)
    summary = mode_trace_summary(result.mode_trace, result.mode_phases)
    assert "forward:" in summary and "backtrace:" in summary


def test_mode_trace_summary_rejects_mismatched_phases():
    from repro.perf.report import mode_trace_summary

    with pytest.raises(ValueError, match="do not cover"):
        mode_trace_summary(["sortreduce"] * 3,
                           phases=[("forward", 1), ("backtrace", 1)])
