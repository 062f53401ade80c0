"""Ratchets over the source tree, read from one index of it: a
:class:`tests.lint.callgraph.CallGraph` of ``src/``, ``benchmarks/`` and
``examples/``.

* Every top-level function or class, and every method but the
  ``IMPLICIT`` ones (dunders, ``visit_*``), in ``src/repro`` is reached.
  Module-level code, benches and examples reach what they use; a reached
  definition reaches what its body uses (:func:`uses`): what the
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
import re
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.lint.rules import dotted
from tests.lint.callgraph import DEFS, IMPLICIT, CallGraph, FunctionInfo

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


#: A string that may name something: ``a.b``, ``module:Class``.
DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)+")


class Uses(NamedTuple):
    """What the tree's code names, read once for every module."""

    #: owner -> the qualnames its code names.  The owners are each module
    #: (its top-level statements; it also reaches the modules it imports),
    #: each class (bases, decorators and class-level statements; it also
    #: reaches its ``IMPLICIT`` methods) and each top-level function or
    #: method (nested defs included).
    by_owner: dict[str, set[str]]
    #: every call: the scope it is resolved in, the node, the callee.
    calls: list[tuple[FunctionInfo, ast.Call, str | None]]
    #: every attribute name assigned (``x.attr = ...``).
    stored: set[str]


@functools.cache
def subclasses(graph: CallGraph) -> dict[str, list[str]]:
    """Class qualname -> the qualnames of its direct subclasses."""
    found: dict[str, list[str]] = {}
    for qual in sorted(graph.classes):
        for base in graph.bases_of(graph.classes[qual]):
            found.setdefault(base.qualname, []).append(qual)
    return found


def targets(graph: CallGraph, qual: str) -> list[str]:
    """``qual``, and if it is a method, the methods overriding it in the
    subclasses of its class: a call may reach any of them.  (A dunder's
    overrides are ``IMPLICIT`` uses of their classes.)"""
    info = graph.functions.get(qual)
    if info is None or info.class_name is None or info.node.name.startswith("__"):
        return [qual]
    name, todo, found = info.node.name, [qual.rpartition(".")[0]], [qual]
    below = subclasses(graph)
    while todo:
        for sub in below.get(todo.pop(), ()):
            todo.append(sub)
            if name in graph.classes[sub].methods:
                found.append(graph.classes[sub].methods[name])
    return found


def by_names(graph: CallGraph) -> dict[tuple[bool, str], list[str]]:
    """(top-level only, name) -> the definitions of that name."""
    found: dict[tuple[bool, str], list[str]] = {}
    for qual in [*sorted(graph.functions), *sorted(graph.classes)]:
        name = qual.rpartition(".")[2]
        found.setdefault((False, name), []).append(qual)
        if qual == f"{(graph.classes.get(qual) or graph.functions[qual]).module}.{name}":
            found.setdefault((True, name), []).append(qual)
    return found


def strings(graph: CallGraph, text: str) -> list[str]:
    """What a dotted string names: a qualname (``module:Class`` for
    ``module.Class``) or a ``Class.method`` of the graph."""
    path = text.replace(":", ".")
    if path in graph.functions or path in graph.classes:
        return [path]
    owner, _, name = path.rpartition(".")
    return sorted(cls.methods[name] for cls in graph.classes.values()
                  if cls.name == owner and name in cls.methods)


@functools.cache
def uses(graph: CallGraph) -> Uses:
    """Every name in the graph's code, resolved where the graph can (a
    method also reaches its overrides, :func:`targets`) and else matched by
    name: a bare name to the top-level definitions of that name, an
    attribute to every definition of it.  An attribute of a module outside
    the graph, or of an object made outside it (``CallGraph.made_outside``),
    names nothing.  A dotted string counts for what :func:`strings`
    resolves it to, and a ``(layer, "module[:Class]", ("attr", ...))`` row
    for those attributes."""
    names = by_names(graph)
    out = Uses({}, [], set())
    packages = {name.split(".")[0] for name in graph.modules}

    def external(scope: FunctionInfo, expr: ast.AST) -> bool:   # ``np.take``, ``fh.read``
        chain = dotted(expr) or []
        resolved = (graph.modules[scope.module].imports.resolve_module_attr(chain)
                    if len(chain) > 1 else None)
        return (resolved is not None and resolved[0].split(".")[0] not in packages
                or isinstance(expr, ast.Attribute) and graph.made_outside(scope, expr.value))

    def note(owner: str, scope: FunctionInfo, nodes: Iterable[ast.AST]) -> None:
        found = out.by_owner.setdefault(owner, set())
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            if isinstance(sub, ast.Call):
                out.calls.append((scope, sub, graph.resolve(scope, sub.func)))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                out.stored.add(sub.attr)
            elif isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
                qual = graph.resolve(scope, sub)
                if qual:
                    found.update(targets(graph, qual))
                elif not external(scope, sub):
                    found.update(names.get(
                        (True, sub.id) if isinstance(sub, ast.Name) else (False, sub.attr), ()))
            elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and DOTTED.fullmatch(sub.value)):
                found.update(strings(graph, sub.value))
            elif (isinstance(sub, ast.Tuple) and len(sub.elts) == 3
                  and isinstance(row := getattr(sub.elts[1], "value", None), str)
                  and isinstance(sub.elts[2], ast.Tuple)):
                found.update(q for attr in sub.elts[2].elts if (q := row.replace(":", ".")
                             + f".{getattr(attr, 'value', '')}") in graph.functions)

    for name in sorted(graph.modules):
        mod = graph.modules[name]
        top = FunctionInfo(name, name, mod.path, ast.FunctionDef(   # the module's code
            name="<module>", body=[s for s in mod.tree.body if not isinstance(s, DEFS)],
            args=ast.arguments(posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                               kw_defaults=[], kwarg=None, defaults=[]),
            decorator_list=[], returns=None))
        note(name, top, top.node.body)
        out.by_owner[name].update(   # importing ``a.b`` imports ``a`` and ``a.b``
            part for imported in mod.imports.imported for i in range(imported.count(".") + 1)
            if (part := imported.rsplit(".", i)[0]) in graph.modules)
        for stmt in mod.tree.body:
            if isinstance(stmt, ast.ClassDef):
                cls = mod.classes[stmt.name]
                note(cls.qualname, top, [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                                         *(s for s in stmt.body if not isinstance(s, DEFS))])
                out.by_owner[cls.qualname].update(
                    q for m, q in cls.methods.items() if IMPLICIT.fullmatch(m))
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = graph.functions[cls.methods[item.name]]
                        note(info.qualname, info, [item])
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = graph.functions[f"{name}.{stmt.name}"]
                note(info.qualname, info, [stmt])
    return out


def reachable(graph: CallGraph, roots: list[str]) -> set[str]:
    """Everything ``roots`` (inclusive) transitively use."""
    seen: set[str] = set()
    stack = sorted(set(roots))
    while stack:
        qual = stack.pop()
        if qual not in seen:
            seen.add(qual)
            stack += sorted(uses(graph).by_owner.get(qual, ()))
    return seen


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
    return sorted(checked - reachable(graph, roots))


def test_every_definition_is_named_outside_the_tests():
    unused = [f"{where(tree(), qual)} {qual}" for qual in unreached(tree(), ALLOWED)]
    assert not unused, (
        "only the tests reach these; delete each, move it to tests/support.py "
        "as an oracle, or add it to ALLOWED with a reason:\n" + "\n".join(unused))


SYNTHETIC = {
    "src/repro/toy/__init__.py": "from repro.toy.mod import exported\n__all__ = ['exported']\n",
    "src/repro/toy/mod.py": """
import struct
HEADER = struct.Struct("<Q")
def exported(): pass
class Codec:
    def pack(self): pass
    def read(self): pass
def header(): return HEADER.pack(1)
def load(p):
    with open(p) as fh:
        return fh.read()
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
    def run(self): pass
def clock(): pass
def named(): pass
def recurse(n): return recurse(n - 1)
def ping(): return pong()
def pong(): return ping()
def live(): c = Clock(); return c.tick()
def read(meter: Meter): return meter.value()
def annotated(x):
    meter: Meter = x
    return meter.run()
def renamed(): pass
""",
    "benchmarks/caller.py": """
from repro.toy.mod import Codec, annotated, header, live, load, read, renamed as other
live(), read(None), annotated(None), other(), header(), load("toy.bin"), Codec()
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
    constructed local, ``meter.value()`` on an annotated parameter and
    ``meter.run()`` on an annotated local keep ``Meter.step``, ``Meter.tick``,
    ``Clock.value`` and ``Clock.run`` dead; and a method
    of an object made outside the tree reaches no namesake in it:
    ``HEADER.pack()`` on a module-level ``struct.Struct`` and ``fh.read()``
    on an ``open`` keep ``Codec.pack`` and ``Codec.read`` dead.  A call, an
    ``as`` import's use, a trace row of the class and a string naming a
    qualname do reach."""
    assert unreached(build(SYNTHETIC)) == [f"repro.toy.mod.{name}" for name in [
        "Clock.reset", "Clock.run", "Clock.value", "Codec.pack", "Codec.read",
        "Meter.step", "Meter.tick", "clock", "exported", "ping", "pong", "recurse"]]


def test_every_module_is_reachable_from_an_entry_point():
    graph = tree()
    roots = [*(graph.modules.keys() - set(src_modules(graph))),
             *(name for name in [*ENTRY_POINTS, *ALLOWED] if name in graph.modules)]
    unreached = sorted(graph.modules.keys() - reachable(graph, roots))
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
    emitted = {call.args[0].value for scope, call, _ in uses(tree()).calls
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
    "PageMappedFTL(gc_reserve_blocks)": SIZING,
    "PageMappedFTL(overprovision)": SIZING,
    "SSDFileSystem.mount(meta_lpns)": SIZING,
    "ServiceConfig(max_rounds)": SIZING,
    "StreamingMergeReducer(refill_records)": SIZING,
    "SystemConfig(max_remounts)": SIZING,
    "SortReducePool(inline_records)": POOL,
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
    fields = set(uses(graph).stored)   # and dataclasses.replace / setattr keywords
    # (sources, target, carries positional): a class call constructs its
    # bases; keywords pass through ``**kwargs`` to where it is forwarded.
    edges = [((cls, cls.rpartition(".")[2]), base, True)
             for cls, bases in constructs.items() for base in bases]
    for scope, call, callee in uses(graph).calls:
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
        for target in ([t.removesuffix(".__init__") for t in targets(graph, callee)]
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
