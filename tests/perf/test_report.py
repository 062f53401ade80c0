"""Report formatting helpers."""

import math

import pytest

from repro.perf.report import format_table, human_bytes, human_seconds, normalize_series


def test_format_table_alignment():
    out = format_table(["name", "n"], [["a", 1], ["bb", 22]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert all("|" in line for line in (lines[0], lines[2], lines[3]))


def test_format_table_title_and_nan():
    out = format_table(["x"], [[float("nan")]], title="T")
    assert out.splitlines()[0] == "T"
    assert "DNF" in out


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_normalize_series_higher_is_faster():
    # Fig 12 normalizes to GraFSoft: a system twice as fast scores 2.0.
    normalized = normalize_series([50.0, 100.0, 200.0], baseline=100.0)
    assert normalized == [2.0, 1.0, 0.5]


def test_normalize_series_dnf_becomes_zero():
    normalized = normalize_series([float("nan"), None, -1.0], baseline=10.0)
    assert normalized == [0.0, 0.0, 0.0]


def test_normalize_series_rejects_bad_baseline():
    with pytest.raises(ValueError):
        normalize_series([1.0], baseline=0.0)


def test_human_bytes():
    assert human_bytes(512) == "512 B"
    assert human_bytes(1536) == "1.5 KB"
    assert human_bytes(3 * 1024 ** 3) == "3.0 GB"


def test_human_seconds():
    assert human_seconds(0.05) == "50.0ms"
    assert human_seconds(5) == "5.0s"
    assert human_seconds(90) == "1m30s"
    assert human_seconds(7200) == "2h0m"
    assert human_seconds(float("nan")) == "DNF"


def test_default_results_dir_is_repo_anchored():
    # Regression: emit_results used a CWD-relative "benchmarks/results", so
    # running a bench from outside the repo root scattered artifacts.
    import os
    from repro.perf.report import default_results_dir

    path = default_results_dir()
    assert os.path.isabs(path)
    assert path.endswith(os.path.join("benchmarks", "results"))
    repo_root = os.path.dirname(os.path.dirname(path))
    assert os.path.exists(os.path.join(repo_root, "src", "repro"))


def test_emit_results_writes_and_prints(tmp_path, capsys, monkeypatch):
    from repro.perf import report

    monkeypatch.setattr(report, "default_results_dir", lambda: str(tmp_path))
    path = report.emit_results("t", "hello")
    assert path == str(tmp_path / "t.txt")
    assert (tmp_path / "t.txt").read_text() == "hello\n"
    assert "hello" in capsys.readouterr().out


def test_superstep_timeline_samples_long_runs():
    from repro.engine.engine import SuperstepMetrics
    from repro.perf.report import superstep_timeline

    steps = [SuperstepMetrics(superstep=i, activated=i, traversed_edges=2 * i,
                              update_pairs=2 * i, reduced_pairs=i,
                              elapsed_s=0.001 * i, flash_bytes=1024 * i)
             for i in range(100)]
    text = superstep_timeline(steps)
    lines = text.splitlines()
    assert len(lines) <= 23  # title + header + separator + 20 rows
    assert "99" in text  # the last superstep always appears
    assert superstep_timeline([]) == "(no supersteps)"
