"""The one index of the source tree: modules, imports, definitions, call
edges and what each piece of code names.

Built purely from the ASTs it is given: every module is indexed (top-level
functions, classes, methods, nested defs), imports are resolved through
:class:`ImportMap` — the alias machinery the per-file rules use too — and
expressions to fully-qualified names
(``repro.core.external.ExternalSortReducer.add``).  det-flow
(``detflow.py``) follows the call edges; the reachability ratchet
(``tests/test_reachability.py``) follows :attr:`CallGraph.uses`.

Resolution is deliberately best-effort: Python is dynamic, so a call that
cannot be resolved contributes no call edge (det-flow treats it as an
opaque call) and counts as a use of every definition of its name.  Four
strategies are tried in order:

1. **Lexical**: a bare name that is a nested ``def`` of the enclosing
   function, ``cls``, or a top-level function/class of the module.
2. **Imports**: ``from m import f`` / ``import m as alias`` chains,
   including relative imports and names a package re-exports.
3. **Typed receivers**: ``obj.m`` resolves to the method on ``obj``'s
   class (walking locally-resolvable bases in definition order).  The
   class of ``self``/``cls`` is the enclosing one, of ``super()`` its
   first base; a local's is the one class every assignment to it gives
   (a constructor, a call with a return annotation) or its parameter
   annotation; ``self.attr``'s the one class every ``self.attr = ...``
   of the class gives; a call's its callee's return annotation.
4. **Unique method name**: an attribute whose method name is defined by
   exactly one indexed function anywhere resolves to it — in a repo this
   size that is reliable for distinctive names (``charge_pool``,
   ``reduce_sorted``) and a deliberate no-op for generic ones (``add``,
   ``get``), which stay opaque.

Everything is keyed and iterated in sorted order so downstream analyses
(and their JSON reports) are byte-deterministic.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Methods a class reaches without naming them: Python calls dunders
#: implicitly and ``ast.NodeVisitor`` dispatches ``visit_*`` by name.
IMPLICIT = re.compile(r"__\w+__|visit_\w+")
#: A string that may name something: ``a.b``, ``module:Class``.
DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)+")


def module_name_for_path(path: str) -> str:
    """``src/repro/core/external.py`` -> ``repro.core.external``."""
    p = path.replace("\\", "/")
    if p.endswith(".py"):
        p = p[:-3]
    parts = [seg for seg in p.split("/") if seg not in ("", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


class ImportMap(ast.NodeVisitor):
    """Alias-resolving import tracker (module- and from-imports).

    Relative imports resolve against the module's package: ``from .foo
    import bar`` inside ``repro.core.external`` names ``repro.core.foo``,
    so it can never alias a stdlib module of the same name.
    """

    def __init__(self, package: str) -> None:
        #: local alias -> canonical dotted module ("np" -> "numpy")
        self.modules: dict[str, str] = {}
        #: local name -> (canonical module, attr) for from-imports
        self.names: dict[str, tuple[str, str]] = {}
        #: every dotted name an import statement imports, wherever it sits
        self.imported: set[str] = set()
        self._package = package

    @classmethod
    def for_module(cls, path: str, tree: ast.Module) -> "ImportMap":
        """The import map of the module parsed from ``path``."""
        name = module_name_for_path(path)
        package = name if path.endswith("__init__.py") else name.rpartition(".")[0]
        imports = cls(package)
        imports.visit(tree)
        return imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name
            self.imported.add(alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._package.split(".") if self._package else []
            up = node.level - 1
            if up:
                base = base[:-up] if up < len(base) else []
            mod = ".".join(base + ([node.module] if node.module else []))
        else:
            mod = node.module or ""
        if not mod:
            return
        self.imported.update([mod, *(f"{mod}.{alias.name}" for alias in node.names)])
        for alias in node.names:
            self.names[alias.asname or alias.name] = (mod, alias.name)

    def resolve_module_attr(self, chain: list[str]) -> tuple[str, str] | None:
        """Resolve a dotted chain to ``(canonical_module, attr_chain)``."""
        head = chain[0]
        if len(chain) == 1:
            return self.names.get(head)
        if head in self.modules:
            return self.modules[head], ".".join(chain[1:])
        if head in self.names:
            mod, attr = self.names[head]
            return f"{mod}.{attr}", ".".join(chain[1:])
        return None

    def resolve(self, node: ast.AST) -> tuple[str, str] | None:
        """Resolve an expression (a ``Call.func``) through the imports."""
        chain = dotted(node)
        return self.resolve_module_attr(chain) if chain else None


def dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


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
    #: instance attributes assigned/annotated as sets anywhere in the class.
    set_attrs: set[str] = field(default_factory=set, init=False)
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


def is_set_expr(value: ast.AST) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset"))


def is_set_annotation(ann: ast.AST) -> bool:
    target = ann.value if isinstance(ann, ast.Subscript) else ann
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet")
    return False


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
    """Whole-program function index plus resolved call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: bare function/method name -> sorted list of qualnames.
        self._by_name: dict[str, list[str]] = {}
        #: caller qualname -> sorted list of (lineno, callee qualname).
        self.edges: dict[str, list[tuple[int, str]]] = {}
        #: functions passed as ``target=``: thread and process entry points.
        self.spawned: set[str] = set()

    # ------------------------------------------------------------ indexing

    @classmethod
    def build(cls, files: list[tuple[str, ast.Module]]) -> "CallGraph":
        """Build from ``[(path, parsed module), ...]``."""
        graph = cls()
        for path, tree in sorted(files, key=lambda pt: pt[0]):
            graph._index_module(path, tree)
        for name, quals in graph._by_name.items():
            quals.sort()
        graph._build_edges()
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
        # Instance attributes that are sets: ``self.x: set[int] = ...`` or
        # ``self.x = set()`` anywhere in the class body's methods.
        for sub in ast.walk(node):
            target = (sub.target if isinstance(sub, ast.AnnAssign)
                      and is_set_annotation(sub.annotation)
                      else sub.targets[0] if isinstance(sub, ast.Assign)
                      and len(sub.targets) == 1 and is_set_expr(sub.value) else None)
            if isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self":
                info.set_attrs.add(target.attr)

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
                expr.attr in self._GENERIC or expr.attr.startswith("__")):
            return found
        candidates = self._by_name.get(expr.attr, [])   # unique-name fallback
        return candidates[0] if len(candidates) == 1 else None

    def resolve_call(self, caller: FunctionInfo,
                     func: ast.AST) -> str | None:
        """Resolve a ``Call.func`` expression to a callee qualname; a class
        resolves to its own ``__init__``."""
        qual = self.resolve(caller, func)
        cls = self.classes.get(qual) if qual else None
        return cls.methods.get("__init__") if cls else qual

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
        simple = {target for target, _ in assigned}
        for sub in ast.walk(scope.node):   # a loop, ``with`` or unpacking: unknown
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) and sub not in simple:
                found.setdefault(sub.id, []).append(None)
        for target, value in assigned:
            if not _is_none(value):
                found.setdefault(target.id, []).append(self.type_of(scope, value))
                scope.local_types.update(_agreed({target.id: found[target.id]}))
        scope.local_types = _agreed(found)
        return scope.local_types

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

    # -------------------------------------------------------------- edges

    def _build_edges(self) -> None:
        for qual in sorted(self.functions):
            info = self.functions[qual]
            out: list[tuple[int, str]] = []
            for sub in ast.walk(info.node):
                if isinstance(sub, ast.Call):
                    callee = self.resolve_call(info, sub.func)
                    if callee is not None:
                        out.append((sub.lineno, callee))
                # ``Process(target=fn)`` / callbacks: a function passed by
                # reference is an edge too (it will run with these inputs).
                elif isinstance(sub, ast.keyword) and sub.arg == "target":
                    callee = self.resolve_call(info, sub.value)
                    if callee is not None:
                        out.append((getattr(sub.value, "lineno", 0), callee))
                        self.spawned.add(callee)
            self.edges[qual] = sorted(set(out))

    def callers_of(self) -> dict[str, list[str]]:
        """Reverse edges: callee qualname -> sorted caller qualnames."""
        rev: dict[str, set[str]] = {}
        for caller, outs in self.edges.items():
            for _line, callee in outs:
                rev.setdefault(callee, set()).add(caller)
        return {k: sorted(v) for k, v in sorted(rev.items())}

    def reachable_from(self, roots: list[str], uses: bool) -> set[str]:
        """Everything transitively reachable from ``roots`` (inclusive)
        through call edges, or through :attr:`uses` if ``uses``."""
        seen: set[str] = set()
        stack = sorted(set(roots))
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack += sorted(self.uses.by_owner.get(qual, ())) if uses else [
                callee for _line, callee in self.edges.get(qual, ())]
        return seen

    # --------------------------------------------------------------- uses

    @functools.cached_property
    def _subclasses(self) -> dict[str, list[str]]:
        """Class qualname -> the qualnames of its direct subclasses."""
        found: dict[str, list[str]] = {}
        for qual in sorted(self.classes):
            for base in self.bases_of(self.classes[qual]):
                found.setdefault(base.qualname, []).append(qual)
        return found

    def targets(self, qual: str) -> list[str]:
        """``qual``, and if it is a method, the methods overriding it in
        the subclasses of its class: a call may reach any of them.  (A
        dunder's overrides are ``IMPLICIT`` uses of their classes.)"""
        info = self.functions.get(qual)
        if info is None or info.class_name is None or info.node.name.startswith("__"):
            return [qual]
        name, todo, found = info.node.name, [qual.rpartition(".")[0]], [qual]
        while todo:
            for sub in self._subclasses.get(todo.pop(), ()):
                todo.append(sub)
                if name in self.classes[sub].methods:
                    found.append(self.classes[sub].methods[name])
        return found

    def _by_names(self) -> dict[tuple[bool, str], list[str]]:
        """(top-level only, name) -> the definitions of that name."""
        found: dict[tuple[bool, str], list[str]] = {}
        for qual in [*sorted(self.functions), *sorted(self.classes)]:
            name = qual.rpartition(".")[2]
            found.setdefault((False, name), []).append(qual)
            if qual == f"{(self.classes.get(qual) or self.functions[qual]).module}.{name}":
                found.setdefault((True, name), []).append(qual)
        return found

    def _strings(self, text: str) -> list[str]:
        """What a dotted string names: a qualname (``module:Class`` for
        ``module.Class``) or a ``Class.method`` of the graph."""
        path = text.replace(":", ".")
        if path in self.functions or path in self.classes:
            return [path]
        owner, _, name = path.rpartition(".")
        return sorted(cls.methods[name] for cls in self.classes.values()
                      if cls.name == owner and name in cls.methods)

    @functools.cached_property
    def uses(self) -> Uses:
        """Every name in the graph's code, resolved where the graph can
        (a method also reaches its overrides, :meth:`targets`) and else
        matched by name: a bare name to the top-level definitions of that
        name, an attribute to every definition of it.  An attribute of a
        module outside the graph names nothing.  A dotted string counts
        for what :meth:`_strings` resolves it to, and a ``(layer,
        "module[:Class]", ("attr", ...))`` row for those attributes."""
        by_name = self._by_names()
        out = Uses({}, [], set())
        packages = {name.split(".")[0] for name in self.modules}

        def external(scope: FunctionInfo, expr: ast.AST) -> bool:   # ``np.take``
            chain = dotted(expr) or []
            resolved = (self.modules[scope.module].imports.resolve_module_attr(chain)
                        if len(chain) > 1 else None)
            return resolved is not None and resolved[0].split(".")[0] not in packages

        def note(owner: str, scope: FunctionInfo, nodes: Iterable[ast.AST]) -> None:
            found = out.by_owner.setdefault(owner, set())
            for sub in (sub for node in nodes for sub in ast.walk(node)):
                if isinstance(sub, ast.Call):
                    out.calls.append((scope, sub, self.resolve(scope, sub.func)))
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    out.stored.add(sub.attr)
                elif isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
                    qual = self.resolve(scope, sub)
                    if qual:
                        found.update(self.targets(qual))
                    elif not external(scope, sub):
                        found.update(by_name.get(
                            (True, sub.id) if isinstance(sub, ast.Name) else (False, sub.attr), ()))
                elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                      and DOTTED.fullmatch(sub.value)):
                    found.update(self._strings(sub.value))
                elif (isinstance(sub, ast.Tuple) and len(sub.elts) == 3
                      and isinstance(row := getattr(sub.elts[1], "value", None), str)
                      and isinstance(sub.elts[2], ast.Tuple)):
                    found.update(q for attr in sub.elts[2].elts if (q := row.replace(":", ".")
                                 + f".{getattr(attr, 'value', '')}") in self.functions)

        for name in sorted(self.modules):
            mod = self.modules[name]
            top = FunctionInfo(name, name, mod.path, ast.FunctionDef(   # the module's code
                name="<module>", body=[s for s in mod.tree.body if not isinstance(s, DEFS)],
                args=ast.arguments(posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                                   kw_defaults=[], kwarg=None, defaults=[]),
                decorator_list=[], returns=None))
            note(name, top, top.node.body)
            out.by_owner[name].update(   # importing ``a.b`` imports ``a`` and ``a.b``
                part for imported in mod.imports.imported for i in range(imported.count(".") + 1)
                if (part := imported.rsplit(".", i)[0]) in self.modules)
            for stmt in mod.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    cls = mod.classes[stmt.name]
                    note(cls.qualname, top, [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                                             *(s for s in stmt.body if not isinstance(s, DEFS))])
                    out.by_owner[cls.qualname].update(
                        q for m, q in cls.methods.items() if IMPLICIT.fullmatch(m))
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            info = self.functions[cls.methods[item.name]]
                            note(info.qualname, info, [item])
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = self.functions[f"{name}.{stmt.name}"]
                    note(info.qualname, info, [stmt])
        return out
