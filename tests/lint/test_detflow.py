"""det-flow coverage: call-graph resolution, interprocedural taint, the
two historical nondeterminism classes (PR 5 completion-order charges and
RL001-through-a-wrapper), suppression round-trips, the CLI, and the
determinism of the analysis itself."""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.lint import lint_sources, main
from repro.lint.callgraph import CallGraph, module_name_for_path
from repro.lint.detflow import analyze_program

SIM_A = "src/repro/core/a.py"
SIM_B = "src/repro/core/b.py"


def parse(sources: dict[str, str]) -> list[tuple[str, ast.Module]]:
    return [(path, ast.parse(textwrap.dedent(src)))
            for path, src in sources.items()]


def findings(sources: dict[str, str]):
    return lint_sources({p: textwrap.dedent(s) for p, s in sources.items()})


def rules_hit(sources: dict[str, str]) -> set[str]:
    return {v.rule_id for v in findings(sources)}


# -------------------------------------------------------------- call graph

def test_module_name_for_path_anchors_at_repro():
    assert module_name_for_path("src/repro/core/merge.py") == "repro.core.merge"
    assert module_name_for_path("src/repro/lint/__init__.py") == "repro.lint"
    assert module_name_for_path("/abs/src/repro/flash/device.py") == \
        "repro.flash.device"


def test_callgraph_resolves_alias_imports():
    graph = CallGraph.build(parse({
        SIM_A: """
            def helper():
                return 1
        """,
        SIM_B: """
            from repro.core import a as aliased
            from repro.core.a import helper as h2

            def caller():
                aliased.helper()
                h2()
        """,
    }))
    callees = {q for _, q in graph.edges["repro.core.b.caller"]}
    assert callees == {"repro.core.a.helper"}


def test_callgraph_methods_vs_functions():
    graph = CallGraph.build(parse({
        SIM_A: """
            def tick():
                return 0

            class Clock:
                def tick(self):
                    return self.read()

                def read(self):
                    return 1

            class Meter:
                def __init__(self, clock: Clock):
                    self.clock = clock

                def tick(self):
                    return self.clock.tick()

            def meter() -> "Meter":
                return Meter(Clock())

            def use():
                c = Clock()
                c.tick()
                tick()
                meter().tick()
        """,
    }))
    # Module function and method with the same bare name stay distinct.
    assert "repro.core.a.tick" in graph.functions
    assert "repro.core.a.Clock.tick" in graph.functions
    callees = {q for _, q in graph.edges["repro.core.a.use"]}
    assert "repro.core.a.tick" in callees
    assert "repro.core.a.Clock.tick" in callees
    # self-calls resolve to the method on the same class.
    assert {q for _, q in graph.edges["repro.core.a.Clock.tick"]} == \
        {"repro.core.a.Clock.read"}
    # Receivers typed by a return annotation and by ``self.attr = param``.
    assert "repro.core.a.Meter.tick" in callees
    assert {q for _, q in graph.edges["repro.core.a.Meter.tick"]} == {"repro.core.a.Clock.tick"}


def test_callgraph_indexes_decorated_functions():
    graph = CallGraph.build(parse({
        SIM_A: """
            import functools

            @functools.lru_cache(maxsize=None)
            def cached():
                return 2

            def caller():
                return cached()
        """,
    }))
    info = graph.functions["repro.core.a.cached"]
    assert "functools.lru_cache" in info.decorators
    assert {q for _, q in graph.edges["repro.core.a.caller"]} == \
        {"repro.core.a.cached"}


def test_callgraph_inherited_method_resolution():
    graph = CallGraph.build(parse({
        SIM_A: """
            class Base:
                def work(self):
                    return self.leaf()

                def leaf(self):
                    return 1

            class Child(Base):
                def leaf(self):
                    return self.work()
        """,
    }))
    # Child has no ``work`` of its own; self.work() resolves through Base.
    assert {q for _, q in graph.edges["repro.core.a.Child.leaf"]} == \
        {"repro.core.a.Base.work"}


def test_callgraph_does_not_guess_methods_of_objects_made_outside():
    # ``OOB_RECORD`` is ftl.py's module-level ``struct.Struct``.  Its
    # ``pack`` used to resolve to the tree's only method named ``pack``.
    ftl = Path(__file__).resolve().parents[2] / "src" / "repro" / "flash" / "ftl.py"
    graph = CallGraph.build([("src/repro/flash/ftl.py", ast.parse(ftl.read_text())),
                             *parse({SIM_A: """
        import struct
        HEADER = struct.Struct("<Q")

        class Spec:
            def pack(self):
                return 0

        def guessed(spec):
            return spec.pack()

        def made_outside(path):
            with open(path) as fh:
                fh.pack()
            local = struct.Struct("<Q")
            return HEADER.pack(1), local.pack(2)
    """})])
    scope = graph.functions["repro.flash.ftl.PageMappedFTL._make_oob"]
    call = next(node for node in ast.walk(scope.node) if isinstance(node, ast.Call)
                and ast.unparse(node.func) == "OOB_RECORD.pack")
    assert graph.resolve_call(scope, call.func) is None
    # An untyped parameter still falls back to the one method of its name.
    assert {q for _, q in graph.edges["repro.core.a.guessed"]} == {"repro.core.a.Spec.pack"}
    assert graph.edges["repro.core.a.made_outside"] == []


# -------------------------------------- historical class 1: PR 5 / RL009

def test_rl009_completion_order_charge():
    """The PR 5 bug, statically: charging the SimClock in pool completion
    order moves the low bits of ``elapsed_s`` across worker counts."""
    hits = findings({SIM_A: """
        from concurrent.futures import as_completed

        def merge(futures, clock):
            for fut in as_completed(futures):
                kv, seconds = fut.result()
                clock.charge("cpu", seconds)
    """})
    rl009 = [v for v in hits if v.rule_id == "RL009"]
    assert len(rl009) == 1
    assert "as_completed" in rl009[0].message
    assert "charge" in rl009[0].message


def test_rl009_imap_unordered():
    assert "RL009" in rules_hit({SIM_A: """
        def collect(pool, items, out):
            for r in pool.imap_unordered(work, items):
                out.append(r)

        def work(x):
            return x
    """})


def test_rl009_worker_partition_float_accumulation():
    """Float ``+=`` on shared state inside code reachable from a worker
    entry point (``Process(target=...)``) can never be bit-identical
    across ``--workers N``."""
    hits = findings({SIM_A: """
        from multiprocessing import Process

        class Pool:
            def start(self):
                p = Process(target=_worker_loop, args=(self,))
                p.start()

        def _worker_loop(pool):
            pool.accumulate(0.5)

        class Stats:
            def __init__(self):
                self.elapsed_s = 0.0
    """, SIM_B: """
        def accumulate(self, seconds):
            self.elapsed_s += seconds
    """})
    # The target= reference makes _worker_loop a root; accumulate is not
    # resolvable here (method on an unknown receiver), so assert via the
    # direct shape instead:
    hits = findings({SIM_A: """
        from multiprocessing import Process

        class Worker:
            def start(self):
                p = Process(target=self.loop)
                p.start()

            def loop(self):
                self.charge_local(0.5)

            def charge_local(self, seconds):
                self.elapsed_s += seconds
    """})
    rl009 = [v for v in hits if v.rule_id == "RL009"]
    assert any("elapsed_s" in v.message and "worker" in v.message
               for v in rl009)


# --------------------------- historical class 2: RL001 via wrapper / RL010

def test_rl010_wall_clock_through_intermediate_call():
    """The RL001 generalization: harness.py is allowlisted for RL001, so a
    wall-clock read that travels through a harness helper into a sim-path
    charge is invisible intraprocedurally — det-flow follows the return
    value across the file boundary."""
    hits = findings({
        "src/repro/harness.py": """
            import time

            def now_seconds():
                return time.time()
        """,
        SIM_A: """
            from repro.harness import now_seconds

            def record(clock):
                t = now_seconds()
                clock.charge("io", t)
        """,
    })
    assert all(v.rule_id != "RL001" for v in hits)
    rl010 = [v for v in hits if v.rule_id == "RL010"]
    assert len(rl010) == 1
    assert rl010[0].path == SIM_A
    assert "time.time()" in rl010[0].message
    assert "via" in rl010[0].message and "now_seconds" in rl010[0].message


def test_rl010_unseeded_rng_two_hops():
    hits = findings({SIM_A: """
        import random

        def draw():
            return random.random()

        def jitter():
            return draw() * 2.0

        def apply(journal):
            journal.write_entry(jitter())
    """})
    rl010 = [v for v in hits if v.rule_id == "RL010"]
    assert len(rl010) >= 1
    assert any("jitter" in v.message or "draw" in v.message
               for v in rl010)


def test_rl010_quiet_when_value_never_reaches_sink():
    assert "RL010" not in rules_hit({SIM_A: """
        import time

        def log_only():
            t = time.time()
            print(t)
    """})


# ------------------------------------------------- RL007/RL008 + sanction

def test_rl007_unsorted_listdir_escape_and_sorted_sanction():
    bad = {SIM_A: """
        import os

        def names(d):
            out = []
            for n in os.listdir(d):
                out.append(n)
            return out
    """}
    good = {SIM_A: """
        import os

        def names(d):
            out = []
            for n in sorted(os.listdir(d)):
                out.append(n)
            return out
    """}
    assert "RL007" in rules_hit(bad)
    assert "RL007" not in rules_hit(good)


def test_rl007_taint_through_return_value():
    """Order taint survives a return and fires in the caller's loop."""
    hits = findings({
        SIM_A: """
            from pathlib import Path

            def entries(d):
                return Path(d).iterdir()
        """,
        SIM_B: """
            from repro.core.a import entries

            def collect(d):
                out = []
                for p in entries(d):
                    out.append(p)
                return out
        """,
    })
    assert any(v.rule_id == "RL007" for v in hits)


def test_rl008_set_iteration_escape_and_membership_is_fine():
    assert "RL008" in rules_hit({SIM_A: """
        def order(keys):
            pending = set(keys)
            out = []
            for k in pending:
                out.append(k)
            return out
    """})
    # Membership tests and len() never observe order.
    assert "RL008" not in rules_hit({SIM_A: """
        def check(keys, probe):
            pending = set(keys)
            return probe in pending and len(pending) > 0
    """})


def test_rl008_taint_through_container_membership():
    """A tainted element poisoning a list poisons what's read back out."""
    assert "RL008" in rules_hit({SIM_A: """
        def collect(keys):
            out = []
            for k in set(keys):
                out.append(k)
            return out

        def emit(journal, keys):
            journal.write_entry(collect(keys))
    """})


def test_rl008_id_in_sort_key():
    assert "RL008" in rules_hit({SIM_A: """
        def order(objs):
            return sorted(objs, key=id)
    """})


# ----------------------------------------------------- suppression / CLI

def test_suppression_round_trip():
    src = textwrap.dedent("""
        import os

        def names(d):
            out = []
            for n in os.listdir(d):  # repro-lint: disable=RL007
                out.append(n)
            return out
    """)
    hits = lint_sources({SIM_A: src})
    assert all(v.rule_id != "RL007" for v in hits)


def test_suppression_inside_string_literal_is_not_a_suppression():
    assert "RL008" in rules_hit({SIM_A: """
        NOTE = "use  # repro-lint: disable=RL008  on the next line"

        def order(keys):
            out = []
            for k in set(keys):
                out.append(k)
            return out
    """})


def test_unused_suppression_reported_and_escape_hatch(tmp_path, capsys):
    mod = tmp_path / "src" / "repro" / "core" / "m.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("def f():\n    return 1  # repro-lint: disable=RL001\n")
    assert main([str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "RL100" in out and "disable=RL001" in out
    # The per-line escape hatch: a comment that also disables RL100.
    mod.write_text("def f():\n    return 1  # repro-lint: disable=RL001,RL100\n")
    assert main([str(tmp_path / "src")]) == 0


def test_missing_path_is_an_error(tmp_path, capsys):
    """A mistyped path must not lint nothing and pass."""
    (tmp_path / "ok.py").write_text("X = 1\n")
    missing = str(tmp_path / "no_such_dir")
    for fmt in ("text", "json"):
        assert main([str(tmp_path / "ok.py"), missing, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert missing in captured.err


def test_explain_prints_full_docstring(capsys):
    assert main(["--explain", "RL009"]) == 0
    out = capsys.readouterr().out
    # Full rationale, not just the summary line.
    assert "RL009" in out
    assert len(out.strip().splitlines()) > 3
    assert main(["--explain", "RL999"]) == 2


def test_json_output_is_deterministic(tmp_path, capsys):
    mod = tmp_path / "src" / "repro" / "core" / "m.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(textwrap.dedent("""\
        import os

        def names(d):
            out = []
            for n in os.listdir(d):
                out.append(n)
            return out
    """))
    runs = []
    for _ in range(2):
        main([str(tmp_path / "src"), "--format", "json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["version"] == 1
    assert "RL007" in {f["rule"] for f in payload["findings"]}


def test_analyze_program_is_deterministic_across_orderings():
    sources = {
        SIM_A: """
            import time

            def leak():
                return time.time()
        """,
        SIM_B: """
            from repro.core.a import leak

            def record(clock):
                clock.charge("io", leak())
        """,
    }
    forward = analyze_program(parse(sources))
    backward = analyze_program(list(reversed(parse(sources))))
    assert [v.render() for v in forward] == [v.render() for v in backward]
    assert any(v.rule_id == "RL010" for v in forward)
