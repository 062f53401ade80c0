"""The reachability ratchet's index of the source tree: modules, imports,
definitions and what each piece of code names.

Built purely from the ASTs it is given: every module is indexed (top-level
functions, classes, methods, nested defs), imports are resolved through
repro-lint's :class:`~repro.lint.rules.ImportMap` — the alias machinery
the per-file rules use — and expressions to fully-qualified names
(``repro.core.external.ExternalSortReducer.add``).  The ratchet
(``tests/test_reachability.py``) resolves each name its code uses with
:meth:`CallGraph.resolve`.

Resolution is deliberately best-effort: Python is dynamic, so a name that
cannot be resolved resolves to None.  Four strategies are tried in order:

1. **Lexical**: a bare name that is a nested ``def`` of the enclosing
   function, ``cls``, or a top-level function/class of the module.
2. **Imports**: ``from m import f`` / ``import m as alias`` chains,
   including relative imports and names a package re-exports.
3. **Typed receivers**: ``obj.m`` resolves to the method on ``obj``'s
   class (walking locally-resolvable bases in definition order).  The
   class of ``self``/``cls`` is the enclosing one, of ``super()`` its
   first base; a local's is the one class every assignment to it gives
   (a constructor, a call with a return annotation, the annotation of an
   annotated assignment) or its parameter annotation; ``self.attr``'s the
   one class every ``self.attr = ...`` of the class gives; a call's its
   callee's return annotation.
4. **Unique method name**: an attribute whose method name is defined by
   exactly one indexed function anywhere resolves to it — in a repo this
   size that is reliable for distinctive names (``charge_pool``,
   ``reduce_sorted``) and a deliberate no-op for generic ones (``add``,
   ``get``), which stay opaque.  So is a method of an object made outside
   the tree: a name bound only to ``open(...)`` or to a call into a module
   outside it (``HEADER = struct.Struct(...)`` makes ``HEADER.pack`` no
   use of a ``pack`` the tree defines).

Modules are indexed in sorted path order, so every lookup is
deterministic.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.rules import ImportMap, dotted, module_name_for_path

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Methods a class reaches without naming them: Python calls dunders
#: implicitly and ``ast.NodeVisitor`` dispatches ``visit_*`` by name.
IMPLICIT = re.compile(r"__\w+__|visit_\w+")


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    #: positional parameter names, including ``self``/``cls`` for methods.
    params: list[str] = field(default_factory=list)
    #: nested ``def`` name -> qualname, for lexical resolution.
    local_defs: dict[str, str] = field(default_factory=dict, init=False)
    decorators: list[str] = field(default_factory=list)
    #: lazy cache: local name -> the one class its assignments give.
    local_types: dict[str, ClassInfo] | None = None
    #: lazy cache: local name -> whether every binding makes it outside
    #: the tree.
    outside: dict[str, bool] | None = None


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    #: raw (possibly dotted) base-class expressions, definition order.
    bases: list[str] = field(default_factory=list, init=False)
    #: method name -> qualname.
    methods: dict[str, str] = field(default_factory=dict, init=False)
    #: lazy cache: ``self.attr`` -> the one class its assignments give.
    attr_types: dict[str, ClassInfo | None] | None = field(default=None, init=False)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    imports: ImportMap
    #: top-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: lazy cache: module-level name -> whether every binding makes it
    #: outside the tree.
    outside: dict[str, bool] | None = None


def _assignments(node: ast.AST) -> Iterator[tuple[ast.expr, ast.expr]]:
    """(target, value) of each assignment under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            yield from ((target, sub.value) for target in sub.targets)
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            yield sub.target, sub.value


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _agreed(found: dict[str, list[ClassInfo | None]]) -> dict[str, ClassInfo]:
    """Each name whose types are all one known class, mapped to it."""
    agreed: dict[str, ClassInfo] = {}
    for name, types in sorted(found.items()):
        first = types[0] if types else None
        if first is not None and all(t is not None and t.qualname == first.qualname
                                     for t in types):
            agreed[name] = first
    return agreed


class CallGraph:
    """Whole-program index of modules, classes and functions."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: bare function/method name -> sorted list of qualnames.
        self._by_name: dict[str, list[str]] = {}

    # ------------------------------------------------------------ indexing

    @classmethod
    def build(cls, files: list[tuple[str, ast.Module]]) -> "CallGraph":
        """Build from ``[(path, parsed module), ...]``."""
        graph = cls()
        for path, tree in sorted(files, key=lambda pt: pt[0]):
            graph._index_module(path, tree)
        for name, quals in graph._by_name.items():
            quals.sort()
        return graph

    def _index_module(self, path: str, tree: ast.Module) -> None:
        name = module_name_for_path(path)
        mod = ModuleInfo(name, path, tree, ImportMap.for_module(path, tree))
        self.modules[name] = mod
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._index_function(mod, stmt, prefix=name, class_name=None)
                mod.functions.setdefault(stmt.name, fn.qualname)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(mod, stmt)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.name}.{node.name}"
        info = ClassInfo(qual, mod.name, node.name, node)
        for base in node.bases:
            chain = dotted(base)
            if chain:
                info.bases.append(".".join(chain))
        mod.classes[node.name] = info
        self.classes[qual] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._index_function(mod, item, prefix=qual,
                                          class_name=node.name)
                info.methods[item.name] = fn.qualname

    def _index_function(self, mod: ModuleInfo,
                        node: ast.FunctionDef | ast.AsyncFunctionDef,
                        prefix: str, class_name: str | None) -> FunctionInfo:
        qual = f"{prefix}.{node.name}"
        decorators = [".".join(chain) for dec in node.decorator_list
                      if (chain := dotted(dec.func if isinstance(dec, ast.Call) else dec))]
        params = [p.arg for p in node.args.posonlyargs + node.args.args]
        info = FunctionInfo(qual, mod.name, mod.path, node, class_name=class_name,
                            params=params, decorators=decorators)
        self.functions[qual] = info
        self._by_name.setdefault(node.name, []).append(qual)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = self._index_function(mod, stmt, prefix=qual,
                                              class_name=None)
                info.local_defs[stmt.name] = nested.qualname
        return info

    # ---------------------------------------------------------- resolution

    #: attribute names too generic for the unique-name fallback: resolving
    #: ``anything.get()`` to the one indexed ``get`` would be noise.
    _GENERIC = {"get", "put", "add", "append", "close", "read", "write",
                "run", "update", "pop", "items", "keys", "values", "copy",
                "sort", "join", "start", "open", "next", "send", "result",
                "name", "reset", "clear", "delete", "create", "rename"}

    def resolve_class(self, mod: ModuleInfo, name: str) -> ClassInfo | None:
        """Resolve a (possibly dotted/imported) class name in ``mod``."""
        return self.classes.get(self._lookup(mod.name, name.split(".")) or name)

    def bases_of(self, cls: ClassInfo) -> list[ClassInfo]:
        mod = self.modules[cls.module]
        return [base for name in cls.bases
                if (base := self.resolve_class(mod, name)) is not None]

    def _method_on(self, cls: ClassInfo, name: str,
                   seen: frozenset[str] = frozenset()) -> str | None:
        if name in cls.methods:
            return cls.methods[name]
        if cls.qualname in seen:
            return None
        for base in self.bases_of(cls):
            found = self._method_on(base, name, seen | {cls.qualname})
            if found:
                return found
        return None

    def _lookup(self, module: str, parts: list[str], depth: int = 0) -> str | None:
        """The function, class or method ``parts`` names in ``module``,
        through its submodules and the names it imports (re-exports)."""
        mod = self.modules.get(module)
        if mod is None or depth > 8:
            return None
        head, rest = parts[0], parts[1:]
        if rest and f"{module}.{head}" in self.modules:
            return self._lookup(f"{module}.{head}", rest, depth + 1)
        if rest and head in mod.imports.modules:   # ``import m as alias``
            return self._lookup(mod.imports.modules[head], rest, depth + 1)
        if head in mod.functions and not rest:
            return mod.functions[head]
        if head in mod.classes:
            cls = mod.classes[head]
            return cls.qualname if not rest else (
                self._method_on(cls, rest[0]) if len(rest) == 1 else None)
        if head in mod.imports.names:
            source, attr = mod.imports.names[head]
            return self._lookup(source, [attr, *rest], depth + 1)
        return None

    def resolve(self, scope: FunctionInfo, expr: ast.AST) -> str | None:
        """The function, method or class ``expr`` names in ``scope``."""
        mod = self.modules[scope.module]
        if isinstance(expr, ast.Name) and expr.id in scope.local_defs:
            return scope.local_defs[expr.id]
        if isinstance(expr, ast.Name) and expr.id == "cls" and (own := self._own_class(scope)):
            return own.qualname
        if isinstance(expr, ast.Attribute) and (owner := self.type_of(scope, expr.value)):
            found = self._method_on(owner, expr.attr)
            if found or expr.attr == "__init__":   # no ``__init__``: the class's
                return found or owner.qualname
        chain = dotted(expr)
        found = self._lookup(mod.name, chain) if chain else None
        if found or not isinstance(expr, ast.Attribute) or (
                expr.attr in self._GENERIC or expr.attr.startswith("__")
                or self.made_outside(scope, expr.value)):
            return found
        candidates = self._by_name.get(expr.attr, [])   # unique-name fallback
        return candidates[0] if len(candidates) == 1 else None

    # ------------------------------------------------------------- types

    def annotation_class(self, module: str, ann: ast.AST | None) -> ClassInfo | None:
        """The class an annotation names: ``C``, ``m.C``, ``"C"`` or ``C | None``."""
        text = (ann.value if isinstance(ann, ast.Constant) and isinstance(ann.value, str)
                else ast.unparse(ann) if ann else "").removesuffix(" | None")
        return (self.resolve_class(self.modules[module], text)
                if re.fullmatch(r"[A-Za-z_][\w.]*", text) else None)

    def _own_class(self, scope: FunctionInfo) -> ClassInfo | None:
        """The class ``scope`` is a method of."""
        return self.modules[scope.module].classes.get(scope.class_name or "")

    def type_of(self, scope: FunctionInfo, expr: ast.AST) -> ClassInfo | None:
        """The class of the object ``expr`` evaluates to, when the code
        says (see the module docstring); None when it does not."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and (own := self._own_class(scope)):
                return own
            return self._local_types(scope).get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.type_of(scope, expr.value)
            return self._attr_type(owner, expr.attr) if owner else None
        if isinstance(expr, ast.IfExp):
            return _agreed({"": [self.type_of(scope, branch) for branch in
                                 (expr.body, expr.orelse) if not _is_none(branch)]}).get("")
        if not isinstance(expr, ast.Call):
            return None
        if isinstance(expr.func, ast.Name) and expr.func.id == "super" and (
                own := self._own_class(scope)):
            return next(iter(self.bases_of(own)), None)
        qual = self.resolve(scope, expr.func)
        if qual and qual in self.classes:
            return self.classes[qual]
        info = self.functions.get(qual) if qual else None
        return self.annotation_class(info.module, info.node.returns) if info else None

    def _local_types(self, scope: FunctionInfo) -> dict[str, ClassInfo]:
        """Each local name every assignment (and the parameter annotation)
        gives one class.  Computed in ``ast.walk`` order: while it runs,
        a name typed so far types the later assignments that read it."""
        if scope.local_types is not None:
            return scope.local_types
        scope.local_types = {}
        args = scope.node.args
        found = {arg.arg: [self.annotation_class(scope.module, arg.annotation)]
                 for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                 if arg.annotation is not None}
        assigned = [(t, v) for t, v in _assignments(scope.node) if isinstance(t, ast.Name)]
        declared = {sub.target: self.annotation_class(scope.module, sub.annotation)
                    for sub in ast.walk(scope.node) if isinstance(sub, ast.AnnAssign)}
        simple = {target for target, _ in assigned}
        for sub in ast.walk(scope.node):   # a loop, ``with`` or unpacking: unknown
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) and sub not in simple:
                found.setdefault(sub.id, []).append(None)
        for target, value in assigned:
            if not _is_none(value):
                found.setdefault(target.id, []).append(
                    declared[target] if target in declared else self.type_of(scope, value))
                scope.local_types.update(_agreed({target.id: found[target.id]}))
        scope.local_types = _agreed(found)
        return scope.local_types

    @functools.cached_property
    def _tree_names(self) -> set[str]:
        """The names an import of an indexed module may start with: its
        top-level package, or its own name for a script that puts its
        directory on ``sys.path`` (``import workloads``)."""
        return {part for name in self.modules
                for part in (name.split(".")[0], name.rpartition(".")[2])}

    def _outside_call(self, mod: ModuleInfo, value: ast.AST) -> bool:
        """Whether ``value`` is ``open(...)`` or a call into a module
        outside the tree (``struct.Struct(...)``)."""
        if not isinstance(value, ast.Call):
            return False
        if (isinstance(value.func, ast.Name) and value.func.id == "open"
                and "open" not in mod.imports.names and "open" not in mod.functions):
            return True
        resolved = mod.imports.resolve(value.func)
        return resolved is not None and resolved[0].split(".")[0] not in self._tree_names

    def _outside_names(self, mod: ModuleInfo, nodes: list[ast.AST],
                       params: list[str]) -> dict[str, bool]:
        """Each name bound under ``nodes``, or a parameter: whether every
        binding assigns it (or binds it by ``with ... as``) an outside
        call.  ``ast.walk`` reaches a binding before the names it binds."""
        found: dict[str, list[bool]] = {name: [False] for name in params}
        simple: set[ast.Name] = set()
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            pairs = ([(item.optional_vars, item.context_expr) for item in sub.items]
                     if isinstance(sub, (ast.With, ast.AsyncWith)) else _assignments(sub)
                     if isinstance(sub, (ast.Assign, ast.AnnAssign)) else [])
            for target, value in pairs:
                if isinstance(target, ast.Name):
                    simple.add(target)
                    found.setdefault(target.id, []).append(self._outside_call(mod, value))
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) and sub not in simple:
                found.setdefault(sub.id, []).append(False)   # a loop, unpacking, ...
        return {name: all(outside) for name, outside in found.items()}

    def made_outside(self, scope: FunctionInfo, expr: ast.AST) -> bool:
        """Whether ``expr`` names an object made outside the tree: a name
        that ``scope`` (or, if ``scope`` binds it nowhere, its module) binds
        only to ``open(...)`` or to calls into modules outside the tree.
        Its methods are not the tree's, whatever they are called."""
        if not isinstance(expr, ast.Name):
            return False
        mod = self.modules[scope.module]
        if scope.outside is None:
            scope.outside = self._outside_names(mod, [scope.node], [
                arg.arg for arg in ast.walk(scope.node.args) if isinstance(arg, ast.arg)])
        if expr.id in scope.outside:
            return scope.outside[expr.id]
        if mod.outside is None:
            mod.outside = self._outside_names(
                mod, [s for s in mod.tree.body if not isinstance(s, DEFS)], [])
        return mod.outside.get(expr.id, False)

    def _attr_type(self, cls: ClassInfo, attr: str) -> ClassInfo | None:
        """The class every ``self.attr = ...`` in ``cls`` (or, failing
        those, in its bases) gives."""
        if cls.attr_types is None:
            cls.attr_types = {}
            found: dict[str, list[ClassInfo | None]] = {}
            for info in (self.functions[qual] for qual in cls.methods.values()):
                for target, value in _assignments(info.node):
                    if (isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self"
                            and not _is_none(value)):
                        found.setdefault(target.attr, []).append(self.type_of(info, value))
            agreed = _agreed(found)
            cls.attr_types = {name: agreed.get(name) for name in found}
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        return next((t for base in self.bases_of(cls)
                     if (t := self._attr_type(base, attr))), None)
