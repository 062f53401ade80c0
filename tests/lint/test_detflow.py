"""What det-flow shared with the rest of repro-lint and outlived it: the
completion-order rule (RL009, now per-file), the reachability ratchet's
index of the tree (``tests/lint/callgraph.py``), suppressions and the
CLI."""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.lint import lint_sources, main
from repro.lint.rules import module_name_for_path
from tests.lint.callgraph import CallGraph

SIM_A = "src/repro/core/a.py"
SIM_B = "src/repro/core/b.py"


def parse(sources: dict[str, str]) -> list[tuple[str, ast.Module]]:
    return [(path, ast.parse(textwrap.dedent(src)))
            for path, src in sources.items()]


def calls(graph: CallGraph, qual: str) -> set[str | None]:
    """What each call in the function ``qual`` resolves to."""
    info = graph.functions[qual]
    return {graph.resolve(info, node.func) for node in ast.walk(info.node)
            if isinstance(node, ast.Call)}


def rules_hit(sources: dict[str, str]) -> set[str]:
    return {v.rule_id for v in
            lint_sources({p: textwrap.dedent(s) for p, s in sources.items()})}


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
    assert calls(graph, "repro.core.b.caller") == {"repro.core.a.helper"}


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
    # Module function and method with the same bare name stay distinct;
    # receivers are typed by a constructor, a return annotation, ``self``
    # and ``self.attr = param``.
    assert calls(graph, "repro.core.a.use") == {
        "repro.core.a.Clock", "repro.core.a.Clock.tick", "repro.core.a.tick",
        "repro.core.a.meter", "repro.core.a.Meter.tick"}
    assert calls(graph, "repro.core.a.Clock.tick") == {"repro.core.a.Clock.read"}
    assert calls(graph, "repro.core.a.Meter.tick") == {"repro.core.a.Clock.tick"}


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
    assert "functools.lru_cache" in graph.functions["repro.core.a.cached"].decorators
    assert calls(graph, "repro.core.a.caller") == {"repro.core.a.cached"}


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
    assert calls(graph, "repro.core.a.Child.leaf") == {"repro.core.a.Base.work"}


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
    assert graph.resolve(scope, call.func) is None
    # An untyped parameter still falls back to the one method of its name.
    assert calls(graph, "repro.core.a.guessed") == {"repro.core.a.Spec.pack"}
    assert calls(graph, "repro.core.a.made_outside") == {None}


# --------------------------------------------------------- RL009, per file

def test_rl009_completion_order_charge():
    """The parallel merge's old bug: worker results taken in completion
    order, then charged."""
    hits = lint_sources({SIM_A: textwrap.dedent("""
        from concurrent.futures import as_completed
        def merge(futures, clock):
            for fut in as_completed(futures):
                clock.charge("cpu", fut.result())
    """)})
    assert [(v.rule_id, v.line) for v in hits] == [("RL009", 2), ("RL009", 4)]
    assert "as_completed" in hits[0].message


def test_rl009_imap_unordered():
    assert "RL009" in rules_hit({SIM_A: """
        def collect(pool, items, out):
            for r in pool.imap_unordered(work, items):
                out.append(r)
    """})
    assert "RL009" in rules_hit({"src/repro/core/parallel.py": """
        import concurrent.futures as cf
        def first(futures):
            return cf.wait(futures, return_when=cf.FIRST_COMPLETED)
    """})
    assert rules_hit({"tests/test_pool.py": "from concurrent.futures import as_completed\n"}) \
        == set()


# ----------------------------------------------------- suppression / CLI

def test_suppression_round_trip():
    src = textwrap.dedent("""
        def collect(pool, items):
            return list(pool.imap_unordered(abs, items))  # repro-lint: disable=RL009
    """)
    assert lint_sources({SIM_A: src}) == []


def test_suppression_inside_string_literal_is_not_a_suppression():
    assert "RL009" in rules_hit({SIM_A: """
        NOTE = "use  # repro-lint: disable=RL009  on the next line"
        def collect(pool, items):
            return list(pool.imap_unordered(abs, items))
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
        from concurrent.futures import as_completed
        def names(d):
            return sorted(os.listdir(d))
    """))
    runs = []
    for _ in range(2):
        main([str(tmp_path / "src"), "--format", "json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["version"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["RL009", "RL004"]
