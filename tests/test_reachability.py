"""Ratchets over the source tree, read with ``ast``.

* Every top-level function or class, and every non-dunder method, in
  ``src/repro`` is reached from code in ``src/``, ``benchmarks/`` or
  ``examples/``.  Module-level code, benches and examples reach what they
  name; a reached definition reaches what its own body names.  A name used
  only inside unreached definitions does not count, so neither a function
  that calls itself nor a pair that call each other keeps itself alive.
  A method is named as an attribute, since a local variable of the same
  name does not reach it.  An import's alias does not count, nor does an
  entry of ``__all__``, so a package re-export reaches nothing; a use of
  ``Z`` after ``from X import Y as Z`` counts for ``Y``.  A string counts
  only if it is dotted (``a.b``, ``module:Class``), never a bare word such
  as ``{"op": "reset"}``, prose or a docstring.  A ``(layer, "repro.…",
  (…))`` row of ``benchmarks/layered/trace.py`` reaches the methods it
  lists of a ``module:Class`` row and the functions of a ``module`` row.
  ``ast.NodeVisitor`` ``visit_*`` methods are dispatched by name and exempt.
* Every module under ``src/repro`` is imported, directly or through other
  modules, from ``repro.cli``, ``repro.__main__``, a bench or an example.
* No ``global`` statement and no module-level ``itertools.count()``: a
  process-wide counter makes a run's output depend on what ran before it.
* ``benchmarks/results/*.txt`` are exactly the files the benches write.
* Every defaulted parameter and dataclass field in ``src/repro`` is set by
  some code outside the tests (callers matched by name, as above); one only
  the tests set is a configuration no workload runs.

``ALLOWED`` and ``ALLOWED_SETTINGS`` name each exception and why it stands;
they should only shrink.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLERS = [*SRC.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py"),
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


@functools.cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in (SRC / "repro").rglob("*.py")}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: A string naming something: ``a.b``, ``module:Class``; a bare word does not.
DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)+")


def definitions(tree: ast.Module):
    """(class or None, definition) for each definition the ratchet checks."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, method) for method in node.body
                        if isinstance(method, FUNCTIONS)
                        and not re.fullmatch(r"__\w+__|visit_\w+", method.name))


def qualified(module: str, cls: str | None, name: str) -> str:
    """How a ``trace.py`` row names a definition."""
    return f"{module}:{cls}.{name}" if cls else f"{module}.{name}"


def uses(tree: ast.Module, module: str | None):
    """(owner, use) for each name ``tree`` uses.  The owner is the key of
    the innermost definition of ``module`` the use sits in, else None.  A
    use is ``("name", n)`` for a bare name, ``("attr", n)`` for an attribute
    or a part of a dotted string, or ``("row", qualified)`` for an attribute
    a ``(layer, "repro.…", (…))`` row wraps."""
    owners = {}
    if module:
        for cls, node in definitions(tree):   # a method after its class
            owners.update(dict.fromkeys(ast.walk(node), (module, cls, node.name)))
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    for node in ast.walk(tree):
        owner = owners.get(node)
        if isinstance(node, ast.Name):
            yield owner, ("name", aliases.get(node.id, node.id))
        elif isinstance(node, ast.Attribute):
            yield owner, ("attr", node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from ((owner, ("attr", part)) for part in re.split(r"[.:]", node.value))
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 3
              and isinstance(node.elts[1], ast.Constant)
              and str(node.elts[1].value).startswith("repro.")
              and isinstance(node.elts[2], ast.Tuple)):
            target, _, cls = node.elts[1].value.partition(":")
            yield from ((owner, ("row", qualified(target, cls, attr.value)))
                        for attr in node.elts[2].elts if isinstance(attr, ast.Constant))


def unused_definitions(modules: dict[str, ast.Module], callers: list[ast.Module],
                       allowed=()) -> list[tuple[str, ast.AST]]:
    """(module, definition) for each definition in ``modules`` that no
    code reaches: module-level code and ``callers`` reach what they name,
    a definition reached (or ``allowed``) reaches what its body names."""
    nodes, named_by = {}, {}
    for module, tree in modules.items():
        for cls, node in definitions(tree):
            key = (module, cls, node.name)
            nodes[key] = node
            for use in [("attr", node.name), ("row", qualified(*key)),
                        *([("name", node.name)] if cls is None else [])]:
                named_by.setdefault(use, []).append(key)
    used = {}
    for module, tree in [*modules.items(), *((None, tree) for tree in callers)]:
        for owner, use in uses(tree, module):
            used.setdefault(owner, set()).add(use)
    live = {key for key in nodes if key[2] in allowed}
    todo = [None, *live]
    while todo:
        for use in used.get(todo.pop(), ()):
            for key in named_by.get(use, ()):
                if key not in live:
                    live.add(key)
                    todo.append(key)
    return [(key[0], node) for key, node in nodes.items() if key not in live]


def test_every_definition_is_named_outside_the_tests():
    callers = [parse(path) for path in CALLERS if SRC not in path.parents]
    unused = [f"{MODULES[module].relative_to(ROOT)}:{node.lineno} {node.name}"
              for module, node in unused_definitions(
                  {name: parse(path) for name, path in MODULES.items()}, callers, ALLOWED)]
    assert not unused, (
        "only the tests reach these; delete each, move it to tests/support.py "
        "as an oracle, or add it to ALLOWED with a reason:\n" + "\n".join(unused))


SYNTHETIC = {
    "repro.toy": "from repro.toy.mod import exported\n__all__ = ['exported']\n",
    "repro.toy.mod": """
def exported(): pass
class Clock:
    def reset(self): pass
    def tick(self): pass
    def wind(self): pass
def recurse(n): return recurse(n - 1)
def ping(): return pong()
def pong(): return ping()
def live(): return Clock().tick()
def renamed(): pass
""",
}
SYNTHETIC_CALLER = """
from repro.toy.mod import live, renamed as other
live(), other()
request = {"op": "reset"}
ROWS = (("toy", "repro.toy.mod", ("reset",)), ("toy", "repro.toy.mod:Clock", ("wind",)))
"""


def test_the_definition_check_sees_through_names_that_reach_nothing():
    """A re-export, ``__all__``, a bare string, a trace row of a module
    (which names its functions, not a method) and calls from inside dead
    code reach nothing; a call, an ``as`` import's use, a method call and a
    trace row of the class do."""
    modules = {name: ast.parse(source) for name, source in SYNTHETIC.items()}
    unused = unused_definitions(modules, [ast.parse(SYNTHETIC_CALLER)])
    assert sorted(node.name for _, node in unused) == [
        "exported", "ping", "pong", "recurse", "reset"]


def imported_modules(path: Path) -> set[str]:
    """Every ``repro`` module that importing ``path`` imports, parents too."""
    package = module_name(path) if SRC in path.parents else ""
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    named = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: from the package, up level - 1
                parents = package.split(".")[:package.count(".") + 2 - node.level]
                base = ".".join([*parents, base] if base else parents)
            named.add(base)
            named.update(f"{base}.{alias.name}" for alias in node.names)
    return {".".join(name.split(".")[:i]) for name in named
            for i in range(1, name.count(".") + 2)} & MODULES.keys()


def test_every_module_is_reachable_from_an_entry_point():
    todo = [path for path in CALLERS if SRC not in path.parents]
    todo += [MODULES[name] for name in [*ENTRY_POINTS, *ALLOWED] if name in MODULES]
    reached = {module_name(path) for path in todo if SRC in path.parents}
    while todo:
        for name in imported_modules(todo.pop()) - reached:
            reached.add(name)
            todo.append(MODULES[name])
    unreached = sorted(MODULES.keys() - reached)
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
    for path in MODULES.values():
        tree = parse(path)
        counts = {"itertools.count"} | {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names if alias.name == "count"}
        found += [f"{path.relative_to(ROOT)}:{node.lineno} global"
                  for node in ast.walk(tree) if isinstance(node, ast.Global)]
        found += [f"{path.relative_to(ROOT)}:{node.lineno} itertools.count()"
                  for node in evaluated_at_import(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) in counts]
    assert not found, "process-wide state:\n" + "\n".join(found)


def test_results_files_match_their_benches():
    emitted = {node.args[0].value
               for path in (ROOT / "benchmarks").glob("*.py")
               for node in ast.walk(parse(path))
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "emit_results"
               and isinstance(node.args[0], ast.Constant)}
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

    name: str            # what a call names: function, method or class
    label: str           # how a failure names it
    where: str
    params: list[str]    # positional parameters (or fields), in order
    bound: int           # leading parameters a call does not pass (``self``)
    settings: list[str]  # the defaulted ones this definition declares
    dataclass: bool


def function_signature(name: str, label: str, where: str, fn, bound: int) -> Signature:
    args = fn.args
    params = [a.arg for a in [*args.posonlyargs, *args.args]]
    settings = params[len(params) - len(args.defaults):]
    settings += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return Signature(name, label, where, params, bound, settings, False)


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


def signatures() -> tuple[list[Signature], dict[str, list[str]]]:
    """Every function, method and constructor in ``src/repro``; and for
    each class without an ``__init__``, the bases a call to it constructs."""
    found, classes = [], {}
    for path in MODULES.values():
        rel = path.relative_to(ROOT)
        for node in parse(path).body:
            if isinstance(node, FUNCTIONS):
                found.append(function_signature(node.name, node.name,
                                                f"{rel}:{node.lineno}", node, 0))
            if not isinstance(node, ast.ClassDef):
                continue
            classes[node.name] = node, f"{rel}:{node.lineno}"
            for fn in node.body:
                if isinstance(fn, FUNCTIONS) and (fn.name == "__init__"
                                                  or not fn.name.startswith("__")):
                    init = fn.name == "__init__"
                    static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
                    found.append(function_signature(
                        node.name if init else fn.name,
                        node.name if init else f"{node.name}.{fn.name}",
                        f"{rel}:{fn.lineno}", fn, 0 if static else 1))
    constructs = {}
    for name, (node, where) in classes.items():
        if any(isinstance(fn, FUNCTIONS) and fn.name == "__init__" for fn in node.body):
            continue
        constructs[name] = [ast.unparse(b) for b in node.bases if ast.unparse(b) in classes]
        fields = list(dataclass_fields(node))
        if fields:
            inherited = [f for base in constructs[name]
                         for f, _ in dataclass_fields(classes[base][0])]
            found.append(Signature(name, name, where, inherited + [f for f, _ in fields],
                                   0, [f for f, default in fields if default], True))
    return found, constructs


class Calls(ast.NodeVisitor):
    """What the callers pass, by the name each call uses."""

    def __init__(self):
        self.positional: dict[str, int] = {}   # most positional arguments
        self.keywords: dict[str, set[str]] = {}
        self.forwards: set[tuple[str, str]] = set()   # f(**kwargs) -> g(**kwargs)
        self.fields: set[str] = set()   # dataclasses.replace keywords, attribute stores
        self.scope: list[ast.AST] = []

    def within(self, node):
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = within

    def targets(self, func) -> list[str]:
        owner = next((n for n in reversed(self.scope) if isinstance(n, ast.ClassDef)), None)
        if isinstance(func, ast.Name):
            return [owner.name] if func.id == "cls" and owner else [func.id]
        if not isinstance(func, ast.Attribute):
            return []
        if func.attr == "__init__" and ast.unparse(func.value) == "super()" and owner:
            return [ast.unparse(b) for b in owner.bases]
        return [func.attr]

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        func = ast.unparse(node.func)
        if func in ("replace", "dataclasses.replace"):
            self.fields.update(k.arg for k in node.keywords if k.arg)
        if (func in ("setattr", "object.__setattr__") and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            self.fields.add(node.args[1].value)
        enclosing = next((n for n in reversed(self.scope) if isinstance(n, FUNCTIONS)), None)
        kwarg = enclosing and enclosing.args.kwarg and enclosing.args.kwarg.arg
        keywords, forwards = set(), False
        for k in node.keywords:
            if k.arg is not None:
                keywords.add(k.arg)
            elif isinstance(k.value, ast.Dict):
                keywords.update(key.value for key in k.value.keys
                                if isinstance(key, ast.Constant))
            elif ast.unparse(k.value) == kwarg:
                forwards = True   # the enclosing function's callers decide
            else:
                keywords.add(ANY)   # a dict whose keys the check cannot read
        count = (1 << 30 if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
        for name in self.targets(node.func):
            self.positional[name] = max(self.positional.get(name, 0), count)
            self.keywords.setdefault(name, set()).update(keywords)
            if forwards:
                self.forwards.add((enclosing.name, name))

    def visit_Attribute(self, node: ast.Attribute):
        self.generic_visit(node)
        if isinstance(node.ctx, ast.Store):
            self.fields.add(node.attr)


def settings_check() -> tuple[list[str], list[tuple[str, str]]]:
    """(every defaulted parameter and field in ``src/repro``, and the
    ``(label, where)`` of each that no code outside the tests sets)."""
    found, constructs = signatures()
    calls = Calls()
    for path in CALLERS:
        calls.visit(parse(path))
    edges = calls.forwards | {(cls, base) for cls, bases in constructs.items()
                              for base in bases}
    changed = True
    while changed:   # keywords pass through **kwargs; a class call constructs its bases
        changed = False
        for source, target in edges:
            keywords = calls.keywords.get(source, set()) | calls.keywords.get(target, set())
            positional = calls.positional.get(target, 0)
            if (source, target) not in calls.forwards:
                positional = max(positional, calls.positional.get(source, 0))
            if (keywords, positional) != (calls.keywords.get(target, set()),
                                          calls.positional.get(target, 0)):
                calls.keywords[target], calls.positional[target] = keywords, positional
                changed = True
    everything, unset = [], []
    for sig in found:
        passed = calls.keywords.get(sig.name, set())
        for param in sig.settings:
            label = f"{sig.label}({param})"
            everything.append(label)
            position = sig.params.index(param) - sig.bound if param in sig.params else -1
            if not (param in passed or ANY in passed
                    or 0 <= position < calls.positional.get(sig.name, 0)
                    or (sig.dataclass and param in calls.fields)):
                unset.append((label, sig.where))
    return everything, unset


def test_every_setting_is_set_outside_the_tests():
    """A defaulted parameter or dataclass field in ``src/repro`` is set by
    some code in ``src/``, ``benchmarks/`` or ``examples/``: a call (matched
    by name, as above) passes it by keyword, by position or through
    ``**kwargs``, or, for a field, ``dataclasses.replace`` or an attribute
    store does.  A setting only the tests set is a configuration no workload
    runs: keep its value as a constant."""
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
