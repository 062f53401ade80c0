"""repro-lint rule coverage: every rule fires on a bad snippet, stays
quiet on a good one, suppressions work, and the real tree is clean."""

from __future__ import annotations

import textwrap

from repro.lint import lint_paths, lint_sources, main

#: Paths chosen so every rule's scope predicate applies.
SIM_PATH = "src/repro/core/example.py"
FLASH_PATH = "src/repro/flash/example.py"
ENGINE_PATH = "src/repro/engine/example.py"


def rules_hit(source: str, path: str) -> set[str]:
    return {v.rule_id for v in lint_sources({path: textwrap.dedent(source)})}


# ------------------------------------------------------------------- RL001

def test_rl001_fires_on_wall_clock_and_unseeded_rng():
    bad = """
        import time
        import random
        import numpy as np
        from datetime import datetime

        def f():
            a = time.time()
            b = time.perf_counter()
            c = datetime.now()
            d = random.randint(0, 3)
            e = np.random.rand(4)
            g = np.random.default_rng()
            return a, b, c, d, e, g
    """
    violations = lint_sources({SIM_PATH: textwrap.dedent(bad)})
    rl001 = [v for v in violations if v.rule_id == "RL001"]
    assert len(rl001) == 6


def test_rl001_allows_simclock_and_seeded_rng():
    good = """
        import numpy as np

        def f(seed: int):
            rng = np.random.default_rng(seed)
            return rng.integers(0, 10, size=4)
    """
    assert "RL001" not in rules_hit(good, SIM_PATH)


def test_rl001_skips_harness_and_benchmarks():
    bad = "import time\nstamp = time.time()\n"
    assert lint_sources({"src/repro/harness.py": bad}) == []
    assert lint_sources({"benchmarks/bench_x.py": bad}) == []


def test_rl001_skips_parallel_worker_pool():
    # The pool is host-side orchestration (queue timeouts, process joins);
    # the sim-clock goldens already pin that it cannot leak wall-clock time
    # into simulated results.
    bad = "import time\nstamp = time.monotonic()\n"
    assert lint_sources({"src/repro/core/parallel.py": bad}) == []
    assert "RL001" in rules_hit(bad, SIM_PATH)


def test_rl001_tracks_import_aliases():
    bad = """
        from time import perf_counter as pc

        def f():
            return pc()
    """
    assert "RL001" in rules_hit(bad, SIM_PATH)


# ------------------------------------------------------------------- RL002

def test_rl002_fires_on_swallowing_bare_except():
    bad = """
        def f():
            try:
                work()
            except:
                pass
    """
    assert "RL002" in rules_hit(bad, SIM_PATH)
    bad_base = """
        def f():
            try:
                work()
            except BaseException:
                log()
    """
    assert "RL002" in rules_hit(bad_base, SIM_PATH)


def test_rl002_allows_reraising_handler():
    good = """
        def f():
            try:
                work()
            except BaseException:
                cleanup()
                raise
    """
    assert "RL002" not in rules_hit(good, SIM_PATH)
    narrow = """
        def f():
            try:
                work()
            except ValueError:
                pass
    """
    assert "RL002" not in rules_hit(narrow, SIM_PATH)


def test_rl002_allows_power_loss_handler_only_in_the_driver_module():
    handlers = ["""
        def f():
            try:
                work()
            except PowerLossError:
                remount()
    """, """
        def f():
            try:
                work()
            except (FlashError, device.PowerLossError):
                remount()
    """]
    for handler in handlers:
        assert "RL002" in rules_hit(handler, SIM_PATH)
        assert "RL002" in rules_hit(handler, "src/repro/harness.py")
        assert "RL002" not in rules_hit(handler, "src/repro/engine/config.py")
        # Tests and benchmarks crash stacks on purpose and catch the loss.
        assert "RL002" not in rules_hit(handler, "tests/flash/test_crash.py")
        assert "RL002" not in rules_hit(handler, "benchmarks/bench_crash.py")


# ------------------------------------------------------------------- RL003

def test_rl003_fires_on_foreign_raise_in_flash():
    bad = """
        def f():
            raise RuntimeError("oops")
    """
    assert "RL003" in rules_hit(bad, FLASH_PATH)
    # Outside the flash stack the rule does not apply.
    assert "RL003" not in rules_hit(bad, ENGINE_PATH)


def test_rl003_allows_taxonomy_validation_and_local_subclasses():
    good = """
        from repro.flash.device import FlashError

        class MyFlashError(FlashError):
            pass

        def f(x):
            if x < 0:
                raise ValueError("x must be >= 0")
            error = FlashError("boom")
            raise error

        def g():
            raise MyFlashError("typed")
    """
    assert "RL003" not in rules_hit(good, FLASH_PATH)


# ------------------------------------------------------------------- RL004

def test_rl004_fires_on_host_io_below_store_layer():
    bad = """
        import os
        import numpy as np

        def f(path):
            with open(path) as fh:
                data = fh.read()
            os.unlink(path)
            np.save(path, np.zeros(3))
            return data
    """
    violations = lint_sources({ENGINE_PATH: textwrap.dedent(bad)})
    assert len([v for v in violations if v.rule_id == "RL004"]) == 3


def test_rl004_allows_dataset_cache_and_store_traffic():
    cache = "import os\n\ndef f(p):\n    return open(p).read()\n"
    assert lint_sources({"src/repro/graph/datasets.py": cache}) == []
    good = """
        def f(store, name):
            return store.read(name, 0, 64)
    """
    assert "RL004" not in rules_hit(good, ENGINE_PATH)


# ------------------------------------------------------------------- RL005

def test_rl005_fires_on_float_arithmetic_over_keys():
    bad = """
        import numpy as np

        def f(key_space, n):
            bounds = np.linspace(0, key_space, n + 1)
            return bounds
    """
    assert "RL005" in rules_hit(bad, SIM_PATH)
    division = """
        def f(lpn, n):
            return lpn / n
    """
    assert "RL005" in rules_hit(division, SIM_PATH)


def test_rl005_allows_integer_key_arithmetic():
    good = """
        def f(key_space, n):
            return [key_space * i // n for i in range(n + 1)]
    """
    assert "RL005" not in rules_hit(good, SIM_PATH)
    unrelated = """
        def f(total_bytes, seconds):
            return total_bytes / seconds
    """
    assert "RL005" not in rules_hit(unrelated, SIM_PATH)


# ------------------------------------------------------------------- RL006

def test_rl006_fires_on_unchargd_device_method():
    bad = """
        class FlashDevice:
            def peek(self, block, page):
                return self._data[(block, page)]
    """
    assert "RL006" in rules_hit(bad, FLASH_PATH)
    primitive = """
        def helper(device, block, page):
            return device._read_silent(block, page)
    """
    assert "RL006" in rules_hit(primitive, FLASH_PATH)


def test_rl006_allows_charged_methods_and_pure_state_queries():
    good = """
        class FlashDevice:
            def read_page(self, block, page):
                data = self._data[(block, page)]
                self.clock.charge("flash", 1e-4, nbytes=len(data))
                return data

            def page_state(self, block, page):
                return int(self._page_state[block, page])
    """
    assert "RL006" not in rules_hit(good, FLASH_PATH)


# ------------------------------------------------------- engine behaviour

def test_suppression_comment_silences_one_rule():
    bad = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro-lint: disable=RL001\n"
    )
    assert lint_sources({SIM_PATH: bad}) == []
    wrong_id = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro-lint: disable=RL002\n"
    )
    # The wrong id suppresses nothing, so RL100 reports it as well.
    assert {v.rule_id for v in lint_sources({SIM_PATH: wrong_id})} == {"RL001", "RL100"}
    disable_all = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro-lint: disable=all\n"
    )
    assert lint_sources({SIM_PATH: disable_all}) == []


def test_syntax_error_reports_rl000():
    assert [v.rule_id for v in
            lint_sources({SIM_PATH: "def broken(:\n"})] == ["RL000"]


def test_list_rules_exits_zero(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
        assert rule_id in out


def test_repo_tree_is_clean():
    """The acceptance gate: repro-lint exits 0 on the shipped tree."""
    violations = lint_paths(["src", "tests", "benchmarks"])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_main_reports_violations_for_bad_file(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nT = time.time()\n")
    assert main([str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "bad.py" in out
