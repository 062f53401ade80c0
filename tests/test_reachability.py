"""Ratchets over the source tree, read from repro-lint's one index of it:
a :class:`repro.lint.callgraph.CallGraph` of ``src/``, ``benchmarks/`` and
``examples/``.

* Every top-level function or class, and every method but the
  ``IMPLICIT`` ones (dunders, ``visit_*``), in ``src/repro`` is reached.
  Module-level code, benches and examples reach what they use; a reached
  definition reaches what its body uses (``CallGraph.uses``): what the
  graph resolves a name to, so a dead method cannot hide behind a live
  namesake, else every definition of that name.  So neither a function
  that calls itself nor a dead pair keeps itself alive, and an import's
  alias, ``__all__``, a bare word (``{"op": "reset"}``) and a dotted
  string that names nothing of the tree (``"run.py"``) reach nothing.
* Every module under ``src/repro`` is imported, directly or through other
  modules, from ``repro.cli``, ``repro.__main__``, a bench or an example.
* No ``global`` statement and no module-level ``itertools.count()``: a
  process-wide counter makes a run's output depend on what ran before it.
* ``benchmarks/results/*.txt`` are exactly the files the benches write.
* Every defaulted parameter and dataclass field in ``src/repro`` is set by
  some code outside the tests (callers resolved as above); one only the
  tests set is a configuration no workload runs.

``ALLOWED`` and ``ALLOWED_SETTINGS`` name each exception and why it stands;
they should only shrink.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import NamedTuple

from repro.lint.callgraph import IMPLICIT, CallGraph, FunctionInfo

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py"),
           *(ROOT / "examples").glob("*.py")]
ENTRY_POINTS = ["repro.cli", "repro.__main__"]

ALLOWED = {
    "is_sealed": "recovery and store-contract tests check that a file is "
                 "sealed; no other public API exposes it",
    "free_bytes": "store-contract tests check that space is reclaimed; no "
                  "other public API exposes the free pool",
    "repro.lint.__main__": "entry point of `python -m repro.lint`, which CI's "
                           "lint job runs",
    "_read_silent": "the uncharged oracle read of a page: the perf-invariance "
                    "goldens read stored bytes with it, and RL006's pinned "
                    "corpus names it as a raw device primitive",
}


def build(sources: dict[str, str]) -> CallGraph:
    return CallGraph.build([(path, ast.parse(text)) for path, text in sources.items()])


@functools.cache
def tree() -> CallGraph:
    return build({str(path.relative_to(ROOT)): path.read_text() for path in CALLERS})


def src_modules(graph: CallGraph) -> list[str]:
    return sorted(name for name, mod in graph.modules.items() if mod.path.startswith("src/"))


def definitions(graph: CallGraph, module: str) -> list[str]:
    """``module``'s top-level functions and classes and their methods."""
    mod = graph.modules[module]
    return [*mod.functions.values(), *(qual for cls in mod.classes.values()
                                       for qual in [cls.qualname, *cls.methods.values()])]


def where(graph: CallGraph, qual: str) -> str:
    info = graph.functions.get(qual) or graph.classes[qual]
    return f"{graph.modules[info.module].path}:{info.node.lineno}"


def unreached(graph: CallGraph, allowed=()) -> list[str]:
    """The definitions in ``src/`` that no code reaches: module-level code
    and all code outside ``src/`` reach what they use, and a reached (or
    ``allowed``) definition reaches what its body uses."""
    checked = {qual for name in src_modules(graph) for qual in definitions(graph, name)
               if not (qual in graph.functions and graph.functions[qual].class_name
                       and IMPLICIT.fullmatch(qual.rpartition(".")[2]))}
    roots = [*graph.modules, *(qual for name in graph.modules.keys() - set(src_modules(graph))
                               for qual in definitions(graph, name)),
             *(qual for qual in checked if qual.rpartition(".")[2] in allowed)]
    return sorted(checked - graph.reachable_from(roots, uses=True))


def test_every_definition_is_named_outside_the_tests():
    unused = [f"{where(tree(), qual)} {qual}" for qual in unreached(tree(), ALLOWED)]
    assert not unused, (
        "only the tests reach these; delete each, move it to tests/support.py "
        "as an oracle, or add it to ALLOWED with a reason:\n" + "\n".join(unused))


SYNTHETIC = {
    "src/repro/toy/__init__.py": "from repro.toy.mod import exported\n__all__ = ['exported']\n",
    "src/repro/toy/mod.py": """
def exported(): pass
class Clock:
    def reset(self): pass
    def tick(self): return self.step()
    def step(self): pass
    def wind(self): pass
    def value(self): pass
    def run(self): pass
class Meter:
    def step(self): pass
    def tick(self): pass
    def value(self): pass
def clock(): pass
def named(): pass
def recurse(n): return recurse(n - 1)
def ping(): return pong()
def pong(): return ping()
def live(): c = Clock(); return c.tick()
def read(meter: Meter): return meter.value()
def renamed(): pass
""",
    "benchmarks/caller.py": """
from repro.toy.mod import live, read, renamed as other
live(), read(None), other()
request = {"op": "reset"}
ROWS = (("toy", "repro.toy.mod", ("reset",)), ("toy", "repro.toy.mod:Clock", ("wind",)))
STRINGS = ["run.py", "perf.clock.sim_cpu_busy_s", "repro.toy.mod.named"]
""",
}


def test_the_definition_check_sees_through_names_that_reach_nothing():
    """A re-export, ``__all__``, a bare string, a trace row of a module
    (which names its functions, not a method), calls from inside dead code
    and dotted strings that name nothing of the tree (``"run.py"`` is not
    ``Clock.run``) reach nothing; nor does a call the graph resolves reach
    a namesake of its target: ``self.step()``, ``c.tick()`` on a
    constructed local and ``meter.value()`` on an annotated parameter keep
    ``Meter.step``, ``Meter.tick`` and ``Clock.value`` dead.  A call, an
    ``as`` import's use, a trace row of the class and a string naming a
    qualname do reach."""
    assert unreached(build(SYNTHETIC)) == [f"repro.toy.mod.{name}" for name in [
        "Clock.reset", "Clock.run", "Clock.value", "Meter.step", "Meter.tick",
        "clock", "exported", "ping", "pong", "recurse"]]


def test_every_module_is_reachable_from_an_entry_point():
    graph = tree()
    roots = [*(graph.modules.keys() - set(src_modules(graph))),
             *(name for name in [*ENTRY_POINTS, *ALLOWED] if name in graph.modules)]
    unreached = sorted(graph.modules.keys() - graph.reachable_from(roots, uses=True))
    assert not unreached, f"no entry point, bench or example imports {unreached}"


def evaluated_at_import(node: ast.AST):
    """The nodes under ``node`` that run when its module is imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for part in [child.args, *getattr(child, "decorator_list", [])]:
                yield from ast.walk(part)
        else:
            yield child
            yield from evaluated_at_import(child)


def test_no_process_wide_counters():
    found = []
    for name in src_modules(tree()):
        mod = tree().modules[name]
        found += [f"{mod.path}:{node.lineno} global"
                  for node in ast.walk(mod.tree) if isinstance(node, ast.Global)]
        found += [f"{mod.path}:{node.lineno} itertools.count()"
                  for node in evaluated_at_import(mod.tree) if isinstance(node, ast.Call)
                  and mod.imports.resolve(node.func) == ("itertools", "count")]
    assert not found, "process-wide state:\n" + "\n".join(found)


def test_results_files_match_their_benches():
    emitted = {call.args[0].value for scope, call, _ in tree().uses.calls
               if Path(scope.path).parent == Path("benchmarks")
               and ast.unparse(call.func) == "emit_results"
               and isinstance(call.args[0], ast.Constant)}
    written = {path.stem for path in (ROOT / "benchmarks" / "results").glob("*.txt")}
    assert written == emitted, (
        f"results no bench writes: {sorted(written - emitted)}; "
        f"benches without results: {sorted(emitted - written)}")


# Why a defaulted parameter or field that only the tests set may stay.
SIZING = "a sizing setting that lets a test reach an edge case cheaply"
ENTRY_POINT = "an entry point"
PLATFORM = "the §V hardware platform table"
POOL = "removed with ROADMAP item 2"
GOLDEN = ("the perf-invariance goldens pin runs at another value; as a "
          "constant it would move them")

#: ``function(parameter)``, ``Class(parameter)`` for a constructor,
#: ``Class.method(parameter)``, or a bare class name for all its fields.
ALLOWED_SETTINGS = {
    "main(argv)": ENTRY_POINT,
    "BaselineEngine.run(iterations)": GOLDEN,
    "HardwareProfile": PLATFORM,
    "GraphCache(budget_bytes)": SIZING,
    "PageMappedFTL(gc_reserve_blocks)": SIZING,
    "PageMappedFTL(overprovision)": SIZING,
    "SSDFileSystem.mount(meta_lpns)": SIZING,
    "ServiceConfig(max_rounds)": SIZING,
    "StreamingMergeReducer(refill_records)": SIZING,
    "SystemConfig(max_remounts)": SIZING,
    "SortReducePool(inline_records)": POOL,
    "SortReducePool.shutdown(join_timeout_s)": POOL,
    "merge_reduce_arrays(pool)": POOL,
}

#: Stands for every keyword of a ``**`` argument whose keys are not literal.
ANY = "**"


class Signature(NamedTuple):
    """One definition as its callers see it."""

    keys: tuple[str, str]   # what a resolved call names, and its bare name
    label: str              # how a failure names it
    where: str
    params: list[str]       # positional parameters (or fields), in order
    bound: int              # leading parameters a call does not pass (``self``)
    settings: list[str]     # the defaulted ones this definition declares
    dataclass: bool


def call_keys(info: FunctionInfo) -> tuple[str, str]:
    """How a call names ``info``: a constructor by its class."""
    if info.node.name == "__init__":
        return info.qualname.rpartition(".")[0], info.class_name
    return info.qualname, info.node.name


def dataclass_fields(node: ast.ClassDef):
    """(name, has a default) of each ``__init__`` field the class declares."""
    if not any(ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")
               for d in node.decorator_list):
        return
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)
                and not (isinstance(stmt.value, ast.Call)
                         and any(k.arg == "init" for k in stmt.value.keywords))):
            yield stmt.target.id, stmt.value is not None


def signatures(graph: CallGraph) -> tuple[list[Signature], dict[str, list[str]]]:
    """Every function, method and constructor in ``src/repro``; and for
    each class without an ``__init__``, the bases a call to it constructs."""
    found, constructs = [], {}
    for qual in (q for name in src_modules(graph) for q in definitions(graph, name)):
        cls = graph.classes.get(qual)
        if cls is not None and "__init__" not in cls.methods:
            constructs[qual] = [base.qualname for base in graph.bases_of(cls)]
            fields = list(dataclass_fields(cls.node))
            inherited = [f for base in graph.bases_of(cls) for f, _ in dataclass_fields(base.node)]
            if fields:
                found.append(Signature((qual, cls.name), cls.name, where(graph, qual),
                                       inherited + [f for f, _ in fields],
                                       0, [f for f, default in fields if default], True))
        info = graph.functions.get(qual)
        if info is None or info.node.name.startswith("__") and info.node.name != "__init__":
            continue
        args = info.node.args
        settings = info.params[len(info.params) - len(args.defaults):]
        settings += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        label = (info.class_name if info.node.name == "__init__"
                 else ".".join(filter(None, [info.class_name, info.node.name])))
        bound = int(info.class_name is not None and "staticmethod" not in info.decorators)
        found.append(Signature(call_keys(info), label, where(graph, qual), info.params, bound,
                               settings, False))
    return found, constructs


def settings_check() -> tuple[list[str], list[tuple[str, str]]]:
    """(every defaulted parameter and field in ``src/repro``, and the
    ``(label, where)`` of each that no code outside the tests sets)."""
    graph = tree()
    found, constructs = signatures(graph)
    positional: dict[str, int] = {}
    keywords: dict[str, set[str]] = {}
    fields = set(graph.uses.stored)   # and dataclasses.replace / setattr keywords
    # (sources, target, carries positional): a class call constructs its
    # bases; keywords pass through ``**kwargs`` to where it is forwarded.
    edges = [((cls, cls.rpartition(".")[2]), base, True)
             for cls, bases in constructs.items() for base in bases]
    for scope, call, callee in graph.uses.calls:
        func = ast.unparse(call.func)
        if func in ("replace", "dataclasses.replace"):
            fields.update(k.arg for k in call.keywords if k.arg)
        if (func in ("setattr", "object.__setattr__") and len(call.args) > 1
                and isinstance(call.args[1], ast.Constant)):
            fields.add(call.args[1].value)
        kwarg = scope.node.args.kwarg
        words, forwards = set(), False
        for k in call.keywords:
            if k.arg is not None:
                words.add(k.arg)
            elif isinstance(k.value, ast.Dict):
                words.update(key.value for key in k.value.keys if isinstance(key, ast.Constant))
            elif kwarg and ast.unparse(k.value) == kwarg.arg:
                forwards = True   # the enclosing function's callers decide
            else:
                words.add(ANY)    # a dict whose keys the check cannot read
        count = 1 << 30 if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
        leaf = getattr(call.func, "id", getattr(call.func, "attr", None))
        for target in ([t.removesuffix(".__init__") for t in graph.targets(callee)]
                       if callee else [leaf] if leaf else []):
            positional[target] = max(positional.get(target, 0), count)
            keywords.setdefault(target, set()).update(words)
            if forwards:
                edges.append((call_keys(scope), target, False))
    changed = True
    while changed:
        changed = False
        for sources, target, carries in edges:
            words = set().union(*(keywords.get(key, ()) for key in sources))
            count = max(positional.get(key, 0) for key in sources) if carries else 0
            if not words <= keywords.get(target, set()) or count > positional.get(target, 0):
                keywords[target] = keywords.get(target, set()) | words
                positional[target] = max(positional.get(target, 0), count)
                changed = True
    everything, unset = [], []
    for sig in found:
        passed = set().union(*(keywords.get(key, ()) for key in sig.keys))
        given = max(positional.get(key, 0) for key in sig.keys)
        for param in sig.settings:
            label = f"{sig.label}({param})"
            everything.append(label)
            position = sig.params.index(param) - sig.bound if param in sig.params else -1
            if not (param in passed or ANY in passed or 0 <= position < given
                    or (sig.dataclass and param in fields)):
                unset.append((label, sig.where))
    return everything, unset


def test_every_setting_is_set_outside_the_tests():
    """A defaulted parameter or dataclass field in ``src/repro`` is set by
    some code in ``src/``, ``benchmarks/`` or ``examples/``: a call (resolved
    as above) passes it by keyword, by position or through ``**kwargs``,
    or, for a field, ``dataclasses.replace`` or an attribute store does.  A
    setting only the tests set is a configuration no workload runs: keep
    its value as a constant."""
    everything, unset = settings_check()
    print(f"{len(everything)} settable values in src/repro")
    allowed = [(label, where) for label, where in unset
               if label in ALLOWED_SETTINGS or label.split("(")[0] in ALLOWED_SETTINGS]
    found = sorted(f"{where} {label}" for label, where in unset
                   if (label, where) not in allowed)
    assert not found, "only the tests set these; make each a constant:\n" + "\n".join(found)
    stale = set(ALLOWED_SETTINGS) - {label for label, _ in allowed} - {
        label.split("(")[0] for label, _ in allowed}
    assert not stale, f"allowed but set outside the tests, or gone: {sorted(stale)}"
