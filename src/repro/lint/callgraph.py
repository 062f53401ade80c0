"""Module-level call graph over ``src/repro/`` for the det-flow analysis.

The graph is built purely from the ASTs the lint engine already parses:
every module is indexed (top-level functions, classes, methods, nested
defs), imports are resolved through :class:`ImportMap` — the alias
machinery the per-file rules use too — and call expressions are resolved
to fully-qualified function names
(``repro.core.external.ExternalSortReducer.add``).

Resolution is deliberately best-effort: Python is dynamic, so a call that
cannot be resolved simply contributes no interprocedural edge (the taint
analysis then treats it as an opaque call).  Four strategies are tried in
order:

1. **Lexical**: a bare name that is a nested ``def`` of the enclosing
   function, or a top-level function/class of the current module.
2. **Imports**: ``from m import f`` / ``import m as alias`` chains,
   including relative imports resolved against the module's package.
3. **self/cls methods**: ``self.m()`` resolves to the enclosing class's
   method (walking locally-resolvable base classes in definition order).
4. **Unique method name**: an attribute call ``obj.m()`` whose method
   name is defined by exactly one indexed function anywhere resolves to
   it — in a repo this size that is reliable for distinctive names
   (``charge_pool``, ``reduce_sorted``) and a deliberate no-op for
   generic ones (``add``, ``get``), which stay opaque.

Everything is keyed and iterated in sorted order so downstream analyses
(and their JSON reports) are byte-deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


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
        for alias in node.names:
            self.names[alias.asname or alias.name] = (mod, alias.name)

    def resolve_module_attr(self, chain: list[str]) -> tuple[str, str] | None:
        """Resolve a dotted chain to ``(canonical_module, attr_chain)``."""
        head = chain[0]
        if len(chain) == 1:
            if head in self.names:
                return self.names[head]
            return None
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
    #: lazy cache: local variable name -> class qualname, from
    #: ``var = SomeClass(...)`` assignments in this body.
    local_types: dict[str, str] | None = None


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    #: raw (possibly dotted) base-class expressions, definition order.
    bases: list[str] = field(default_factory=list, init=False)
    #: method name -> qualname.
    methods: dict[str, str] = field(default_factory=dict, init=False)
    #: instance attributes assigned/annotated as sets anywhere in the class.
    set_attrs: set[str] = field(default_factory=set, init=False)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    imports: ImportMap
    #: top-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = node.args
    return [p.arg for p in a.posonlyargs + a.args]


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
                self._index_function(mod, stmt, prefix=name, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(mod, stmt)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.name}.{node.name}"
        info = ClassInfo(qual, mod.name, node.name)
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
            target = None
            if isinstance(sub, ast.AnnAssign) and is_set_annotation(sub.annotation):
                target = sub.target
            elif isinstance(sub, ast.Assign) and is_set_expr(sub.value):
                target = sub.targets[0] if len(sub.targets) == 1 else None
            if (isinstance(target, ast.Attribute) and
                    isinstance(target.value, ast.Name) and
                    target.value.id == "self"):
                info.set_attrs.add(target.attr)

    def _index_function(self, mod: ModuleInfo,
                        node: ast.FunctionDef | ast.AsyncFunctionDef,
                        prefix: str, class_name: str | None) -> FunctionInfo:
        qual = f"{prefix}.{node.name}"
        decorators = []
        for dec in node.decorator_list:
            expr = dec.func if isinstance(dec, ast.Call) else dec
            chain = dotted(expr)
            if chain:
                decorators.append(".".join(chain))
        info = FunctionInfo(qual, mod.name, mod.path, node,
                            class_name=class_name,
                            params=_param_names(node), decorators=decorators)
        self.functions[qual] = info
        self._by_name.setdefault(node.name, []).append(qual)
        if class_name is None:
            mod.functions.setdefault(node.name, qual)
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
        if name in mod.classes:
            return mod.classes[name]
        chain = name.split(".")
        resolved = mod.imports.resolve_module_attr(chain)
        if resolved is not None:
            target_mod, attr = resolved
            target = self.modules.get(target_mod)
            if target is not None and attr in target.classes:
                return target.classes[attr]
            # ``from repro.flash import device`` + ``device.FlashError``.
            sub = self.modules.get(f"{target_mod}.{chain[0]}") if len(chain) > 1 else None
            if sub is not None and attr in sub.classes:
                return sub.classes[attr]
        return self.classes.get(name)

    def _method_on(self, cls: ClassInfo, name: str,
                   seen: frozenset[str] = frozenset()) -> str | None:
        if name in cls.methods:
            return cls.methods[name]
        if cls.qualname in seen:
            return None
        mod = self.modules.get(cls.module)
        for base in cls.bases:
            base_cls = self.resolve_class(mod, base) if mod else self.classes.get(base)
            if base_cls is not None:
                found = self._method_on(base_cls, name,
                                        seen | {cls.qualname})
                if found:
                    return found
        return None

    def resolve_call(self, caller: FunctionInfo,
                     func: ast.AST) -> str | None:
        """Resolve a ``Call.func`` expression to a callee qualname."""
        mod = self.modules.get(caller.module)
        if mod is None:
            return None
        if isinstance(func, ast.Name):
            name = func.id
            if name in caller.local_defs:
                return caller.local_defs[name]
            if name in mod.functions:
                return mod.functions[name]
            if name in mod.classes:
                return mod.classes[name].methods.get("__init__")
            resolved = mod.imports.resolve_module_attr([name])
            if resolved is not None:
                target_mod, attr = resolved
                target = self.modules.get(target_mod)
                if target is not None:
                    if attr in target.functions:
                        return target.functions[attr]
                    if attr in target.classes:
                        return target.classes[attr].methods.get("__init__")
            return None
        chain = dotted(func)
        if chain is None:
            return None
        head, leaf = chain[0], chain[-1]
        if head in ("self", "cls") and caller.class_name is not None:
            cls = mod.classes.get(caller.class_name)
            if cls is not None and len(chain) == 2:
                found = self._method_on(cls, leaf)
                if found:
                    return found
        # ``c = Clock(); c.tick()``: flow-insensitive local constructor
        # types — last assignment wins, which is right often enough.
        if len(chain) == 2:
            cls_qual = self._local_types(caller, mod).get(head)
            cls = self.classes.get(cls_qual) if cls_qual else None
            if cls is not None:
                found = self._method_on(cls, leaf)
                if found:
                    return found
        resolved = mod.imports.resolve_module_attr(chain)
        if resolved is not None:
            target_mod, attr = resolved
            target = self.modules.get(target_mod)
            if target is not None:
                parts = attr.split(".")
                if len(parts) == 1:
                    if attr in target.functions:
                        return target.functions[attr]
                    if attr in target.classes:
                        return target.classes[attr].methods.get("__init__")
                elif len(parts) == 2 and parts[0] in target.classes:
                    return target.classes[parts[0]].methods.get(parts[1])
        # Unique-name fallback for distinctive method names.
        if leaf not in self._GENERIC and not leaf.startswith("__"):
            candidates = self._by_name.get(leaf, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _local_types(self, caller: FunctionInfo,
                     mod: ModuleInfo) -> dict[str, str]:
        if caller.local_types is None:
            types: dict[str, str] = {}
            for sub in ast.walk(caller.node):
                if not (isinstance(sub, ast.Assign) and
                        len(sub.targets) == 1 and
                        isinstance(sub.targets[0], ast.Name) and
                        isinstance(sub.value, ast.Call)):
                    continue
                chain = dotted(sub.value.func)
                if chain is None:
                    continue
                cls = self.resolve_class(mod, ".".join(chain))
                if cls is not None:
                    types[sub.targets[0].id] = cls.qualname
            caller.local_types = types
        return caller.local_types

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
            self.edges[qual] = sorted(set(out))

    def callers_of(self) -> dict[str, list[str]]:
        """Reverse edges: callee qualname -> sorted caller qualnames."""
        rev: dict[str, set[str]] = {}
        for caller, outs in self.edges.items():
            for _line, callee in outs:
                rev.setdefault(callee, set()).add(caller)
        return {k: sorted(v) for k, v in sorted(rev.items())}

    def reachable_from(self, roots: list[str]) -> set[str]:
        """All functions transitively reachable from ``roots`` (inclusive)."""
        seen: set[str] = set()
        stack = sorted(set(roots))
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for _line, callee in self.edges.get(qual, ()):
                if callee not in seen:
                    stack.append(callee)
        return seen
