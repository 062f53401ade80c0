"""Ratchets over the source tree, read with ``ast``.

* Every top-level function or class, and every non-dunder method, in
  ``src/repro`` is named in some file of ``src/``, ``benchmarks/`` or
  ``examples/`` other than by its own definition: a method as an attribute,
  since a local variable of the same name does not reach it.  A string
  literal that is a dotted name counts (``benchmarks/layered/trace.py``
  names its targets by string); prose and docstrings do not.
  ``ast.NodeVisitor`` ``visit_*`` methods are dispatched by name and exempt.
* Every module under ``src/repro`` is imported, directly or through other
  modules, from ``repro.cli``, ``repro.__main__``, a bench or an example.
* No ``global`` statement and no module-level ``itertools.count()``: a
  process-wide counter makes a run's output depend on what ran before it.
* ``benchmarks/results/*.txt`` are exactly the files the benches write.

``ALLOWED`` names each exception and why it stands; it should only shrink.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

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
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def names_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names as attributes or in dotted-name strings, bare names)."""
    attributes: set[str] = set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.:]*", node.value)):
            attributes.update(re.split(r"[.:]", node.value))
    return attributes, names


def definitions(tree: ast.Module):
    """(definition, is a method) for each definition the ratchet checks."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((method, True) for method in node.body
                        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch(r"__\w+__|visit_\w+", method.name))


def test_every_definition_is_named_outside_the_tests():
    attributes, names = set(), set()
    for path in CALLERS:
        more_attributes, more_names = names_used(parse(path))
        attributes |= more_attributes
        names |= more_names
    unused = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path in MODULES.values() for node, method in definitions(parse(path))
              if node.name not in attributes and (method or node.name not in names)
              and node.name not in ALLOWED]
    assert not unused, "only the tests name these; delete them:\n" + "\n".join(unused)


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
