"""The repro-lint rules (RL001–RL006, RL009).

Each rule is a small AST pass scoped to the part of the tree where its
invariant holds.  Paths are matched with normalized forward slashes, so
the rules behave identically on every platform and regardless of whether
the linter was pointed at ``src``, ``src/repro`` or a single file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator


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


@dataclass(frozen=True)
class Violation:
    """One finding: ``path:line:col: rule_id message``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def _norm(path: str) -> str:
    return path.replace("\\", "/")


def _in_sim_src(path: str) -> bool:
    """True for simulator source files (``src/repro/...``), not tests."""
    p = _norm(path)
    return "repro/" in p and "/tests/" not in p and not p.startswith("tests/")


class Rule:
    """Base class: subclasses set ``id``/``summary`` and implement
    applies() and check().  A rule that keeps the defaults is checked by
    the engine itself (RL100) and only lends its id and docstring to
    ``--list-rules``/``--explain``."""

    id: str = ""
    summary: str = ""

    def applies(self, path: str) -> bool:
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        return iter(())

    def _v(self, path: str, node: ast.AST, message: str) -> Violation:
        return Violation(path, getattr(node, "lineno", 1),
                         getattr(node, "col_offset", 0), self.id, message)


_TIME_FNS = {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time",
             "process_time_ns", "clock"}
_DATETIME_FNS = {"now", "utcnow", "today"}
#: numpy.random attributes that are fine: seeded constructors and types.
_SAFE_NP_RANDOM = {"default_rng", "Generator", "SeedSequence",
                   "BitGenerator", "RandomState", "MT19937", "PCG64",
                   "PCG64DXSM", "Philox", "SFC64"}
_SEEDED_CTORS = {"default_rng", "RandomState", "SeedSequence"}


def entropy_source(mod: str, attr: str, call: ast.Call) -> str | None:
    """RL001's message if a call resolved to ``mod.attr`` reads host
    entropy (the wall clock or an unseeded RNG), else None."""
    leaf = attr.split(".")[-1]
    if mod == "time" and leaf in _TIME_FNS:
        return f"wall-clock read time.{leaf}() — use SimClock"
    if mod in ("datetime", "datetime.datetime") and leaf in _DATETIME_FNS:
        return f"wall-clock read datetime {leaf}() — use SimClock"
    if mod == "random":
        return (f"stdlib random.{leaf}() draws unseeded host entropy "
                "— use numpy.random.default_rng(seed)")
    if (mod in ("numpy.random", "numpy") and
            attr.startswith("random.")) or mod == "numpy.random":
        if leaf not in _SAFE_NP_RANDOM:
            return (f"legacy numpy.random.{leaf}() uses the unseeded global "
                    "state — use default_rng(seed)")
        if leaf in _SEEDED_CTORS and not call.args:
            return (f"{leaf}() without a seed is OS-entropy-seeded — pass an "
                    "explicit seed")
    return None


class RuleWallClock(Rule):
    """RL001: no wall-clock reads or unseeded RNG in simulator paths.

    Simulated time comes from ``SimClock`` and every random draw threads an
    explicit seed; ``time.time()``, ``datetime.now()``, the stdlib ``random``
    module and legacy ``numpy.random.*`` globals all smuggle host entropy
    into what must be a bit-reproducible simulation.  ``harness.py`` (report
    timestamps), ``benchmarks/`` and ``core/parallel.py`` are allowlisted:
    the worker pool's queue timeouts and process joins are host-side
    orchestration that legitimately reads the host clock — by design it
    carries no simulated state, so wall-clock there cannot leak into
    results or ``SimClock`` accounting.  A host-clock read that reaches a
    charge through a helper in an allowlisted file is left to the
    bit-identity goldens: it moves ``elapsed_s`` on every run.
    """

    id = "RL001"
    summary = "wall-clock read or unseeded RNG in a sim path"

    def applies(self, path: str) -> bool:
        p = _norm(path)
        if (p.endswith("repro/harness.py") or "benchmarks/" in p
                or p.endswith("repro/core/parallel.py")):
            return False
        return _in_sim_src(p)

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        imports = ImportMap.for_module(path, tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            message = entropy_source(*resolved, node) if resolved else None
            if message is not None:
                yield self._v(path, node, message)


class RuleBareExcept(Rule):
    """RL002: only the recovery driver may absorb a ``PowerLossError``.

    ``PowerLossError`` subclasses ``BaseException`` (not ``Exception``)
    exactly so normal error handling cannot absorb an injected power cut.
    A handler broad enough to catch it (bare ``except``/``except
    BaseException``) must contain a bare ``raise`` on every path, or crash
    injection silently stops working.  A handler that *names* it is a
    crash→remount→retry driver, and the simulator has exactly one: under
    ``src/repro/`` only ``engine/config.py``
    (``SystemConfig.run_recovering``) may hold one, so every retry loop
    shares one remount bound and one typed give-up.
    """

    id = "RL002"
    summary = "except that can swallow PowerLossError outside the recovery driver"

    _DRIVER_MODULE = "repro/engine/config.py"

    def applies(self, path: str) -> bool:
        return _norm(path).endswith(".py")

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        driver_only = (_in_sim_src(path)
                       and not _norm(path).endswith(self._DRIVER_MODULE))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name) and
                node.type.id == "BaseException")
            if broad and not any(
                    isinstance(n, ast.Raise) and n.exc is None
                    for n in ast.walk(node)):
                yield self._v(path, node,
                              "bare except swallows PowerLossError — "
                              "re-raise, or catch Exception instead")
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type] if node.type is not None else [])
            if driver_only and any(
                    (dotted(t) or [""])[-1] == "PowerLossError"
                    for t in caught):
                yield self._v(path, node,
                              "PowerLossError handler outside the recovery "
                              "driver — run the operation under "
                              "SystemConfig.run_recovering instead")


class RuleFlashErrors(Rule):
    """RL003: ``raise`` inside ``src/repro/flash/`` uses the flash taxonomy.

    Callers of the flash stack handle ``FlashError`` subclasses (transient
    retry, ECC, wear-out, out-of-space); an ad-hoc ``RuntimeError`` escapes
    every recovery path.  ``TypeError``/``ValueError`` are allowed for
    argument validation, ``FileNotFoundError``/``FileExistsError`` for the
    POSIX-shaped file-store namespace, and ``SanitizerError`` is deliberate:
    it must *not* be catchable as a FlashError.
    """

    id = "RL003"
    summary = "raise of a non-FlashError inside the flash stack"

    _ALLOWED = {"FlashError", "FlashTransientError", "FlashUncorrectableError",
                "FlashProgramError", "FlashEraseError", "FlashWearOutError",
                "FlashOutOfSpaceError", "PowerLossError", "SanitizerError",
                "TypeError", "ValueError", "FileNotFoundError",
                "FileExistsError", "NotImplementedError"}

    def applies(self, path: str) -> bool:
        return "repro/flash/" in _norm(path)

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        allowed = set(self._ALLOWED)
        # Classes defined in this file that subclass an allowed name are
        # allowed too (the taxonomy itself lives in flash/device.py).
        grew = True
        while grew:
            grew = False
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef) and
                        node.name not in allowed and
                        any(isinstance(b, ast.Name) and b.id in allowed
                            for b in node.bases)):
                    allowed.add(node.name)
                    grew = True
        # Local variables bound to an allowed constructor may be raised
        # later (the partial-commit path builds the error, annotates it
        # with what committed, then raises).
        bound: set[str] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and
                    isinstance(node.value, ast.Call) and
                    isinstance(node.value.func, ast.Name) and
                    node.value.func.id in allowed):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        bound.add(tgt.id)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = exc.id if isinstance(exc, ast.Name) else None
            if name is None and isinstance(exc, ast.Attribute):
                name = exc.attr
            if name is None or name in allowed or name in bound:
                continue
            yield self._v(path, node,
                          f"raise {name}: flash-stack errors must be "
                          "FlashError subclasses (or TypeError/ValueError "
                          "for argument validation)")


class RuleHostIO(Rule):
    """RL004: no host-filesystem I/O in ``engine/``, ``core/`` or ``flash/``.

    All storage traffic must flow through ``FlashDevice`` and the file
    stores so the access pattern is observable and charged to the sim
    clock; an ``open()`` or ``np.save()`` in those layers is invisible
    I/O.  The dataset cache (``graph/datasets.py``) and benchmark/report
    output live outside these layers and are the sanctioned escape hatch.
    """

    id = "RL004"
    summary = "host file I/O below the store layer"

    _OS_IO = {"open", "remove", "unlink", "rename", "replace", "mkdir",
              "makedirs", "rmdir", "removedirs", "link", "symlink",
              "truncate", "fdopen", "listdir", "scandir", "stat"}
    _NP_IO = {"load", "save", "savez", "savez_compressed", "loadtxt",
              "savetxt", "fromfile", "tofile", "memmap", "genfromtxt"}
    _MODULES = {"shutil", "tempfile", "io", "pathlib"}

    def applies(self, path: str) -> bool:
        p = _norm(path)
        return any(part in p for part in
                   ("repro/engine/", "repro/core/", "repro/flash/"))

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        imports = ImportMap.for_module(path, tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                yield self._v(path, node,
                              "open(): storage below the engine goes through "
                              "FlashDevice / the file stores")
                continue
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            mod, attr = resolved
            leaf = attr.split(".")[-1]
            root = mod.split(".")[0]
            if root == "os" and leaf in self._OS_IO:
                yield self._v(path, node,
                              f"os.{leaf}(): host filesystem access below "
                              "the store layer")
            elif root == "numpy" and leaf in self._NP_IO and "random" not in attr:
                yield self._v(path, node,
                              f"numpy {leaf}(): host file I/O below the "
                              "store layer")
            elif root in self._MODULES:
                yield self._v(path, node,
                              f"{root}.{leaf}(): host filesystem access "
                              "below the store layer")


class RuleFloatKeys(Rule):
    """RL005: no float-producing arithmetic on key/LPN/offset values.

    Keys, logical page numbers and byte offsets are integers up to 2^64.
    ``np.linspace`` and true division produce float64, which cannot
    represent integers past 2^53 — PR 2 shipped exactly this bug in the
    scale-out partition bounds.  Use ``//`` and integer ranges.
    """

    id = "RL005"
    summary = "float-producing arithmetic on key/lpn/offset values"

    _KEYLIKE = re.compile(
        r"(^|_)(key|keys|key_space|lpn|lpns|lba|offset|offsets|bound|bounds)"
        r"(_|$)|^(lo|hi)$", re.IGNORECASE)

    def applies(self, path: str) -> bool:
        return _in_sim_src(path)

    def _keylike_names(self, node: ast.AST) -> list[str]:
        found = []
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None and self._KEYLIKE.search(name):
                found.append(name)
        return found

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        imports = ImportMap.for_module(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                resolved = imports.resolve(node.func)
                if resolved is None:
                    continue
                mod, attr = resolved
                if (mod.split(".")[0] == "numpy" and
                        attr.split(".")[-1] == "linspace"):
                    hits = [h for a in node.args + [kw.value for kw in node.keywords]
                            for h in self._keylike_names(a)]
                    if hits:
                        yield self._v(
                            path, node,
                            f"np.linspace over {hits[0]!r} yields float64 — "
                            "integer keys past 2^53 lose precision; use "
                            "integer arithmetic (key_space * i // n)")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                hits = (self._keylike_names(node.left) +
                        self._keylike_names(node.right))
                if hits:
                    yield self._v(
                        path, node,
                        f"true division on {hits[0]!r} produces float64 — "
                        "use // to keep key/lpn/offset arithmetic exact")


class RuleChargeClock(Rule):
    """RL006: device-touching code must charge the ``SimClock``.

    Two shapes are checked inside ``src/repro/flash/``: (a) public
    ``FlashDevice`` methods that read or mutate the flash arrays
    (``_data``/``_oob``, or stores into ``_page_state``) must call a
    ``charge*`` method, and (b) any function elsewhere in the flash stack
    that calls a raw device primitive (``_read_silent``, ``_write_silent``,
    ``_program_run``, ``_commit_run``, ``_commit_torn``) must charge.  Free-by-design operations carry an
    explicit ``# repro-lint: disable=RL006`` with the justification.
    """

    id = "RL006"
    summary = "device operation without a SimClock charge"

    _PRIMITIVES = {"_read_silent", "_write_silent", "_program_run",
                   "_commit_run", "_commit_torn"}

    def applies(self, path: str) -> bool:
        return "repro/flash/" in _norm(path)

    @staticmethod
    def _charges(fn: ast.AST) -> bool:
        for sub in ast.walk(fn):
            if (isinstance(sub, ast.Call) and
                    isinstance(sub.func, ast.Attribute) and
                    sub.func.attr.startswith("charge")):
                return True
        return False

    def _touches_flash(self, fn: ast.AST) -> bool:
        for sub in ast.walk(fn):
            if not (isinstance(sub, ast.Attribute) and
                    isinstance(sub.value, ast.Name) and
                    sub.value.id == "self"):
                continue
            if sub.attr in ("_data", "_oob"):
                return True
            if sub.attr == "_page_state" and isinstance(
                    sub.ctx, (ast.Store, ast.Del)):
                return True
            # Slice-assignment ``self._page_state[...] = x`` loads the
            # attribute and stores into the subscript; catch it via parent
            # handling below (the Subscript is the Store).
        for sub in ast.walk(fn):
            if (isinstance(sub, ast.Subscript) and
                    isinstance(sub.ctx, (ast.Store, ast.Del)) and
                    isinstance(sub.value, ast.Attribute) and
                    isinstance(sub.value.value, ast.Name) and
                    sub.value.value.id == "self" and
                    sub.value.attr == "_page_state"):
                return True
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        device_classes = [n for n in tree.body
                          if isinstance(n, ast.ClassDef) and
                          n.name == "FlashDevice"]
        device_fns: set[ast.AST] = set()
        for cls in device_classes:
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    device_fns.add(item)
                    if item.name.startswith("_"):
                        continue
                    if self._touches_flash(item) and not self._charges(item):
                        yield self._v(
                            path, item,
                            f"FlashDevice.{item.name}() touches flash "
                            "state but never charges the SimClock")
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node in device_fns:
                continue
            calls_primitive = any(
                isinstance(sub, ast.Call) and
                isinstance(sub.func, ast.Attribute) and
                sub.func.attr in self._PRIMITIVES
                for sub in ast.walk(node))
            if calls_primitive and not self._charges(node):
                yield self._v(
                    path, node,
                    f"{node.name}() drives raw device primitives but "
                    "never charges the SimClock")


class RuleCompletionOrder(Rule):
    """RL009: no completion-order collection in the simulator.

    ``as_completed``, ``imap_unordered`` and ``FIRST_COMPLETED`` hand back
    results in the order workers finish, which the host scheduler picks.
    ``SimClock.elapsed_s`` is a sequential float sum, so results folded or
    charged in that order move its low bits between runs and across
    ``--workers N``; the parallel merge once shipped exactly that.  The
    worker sweeps in ``tests/test_perf_invariance.py`` catch it only when
    the workers happen to finish out of order, so the names are banned
    everywhere under ``src/repro``, the worker pool included: collect
    results in submission order.
    """

    id = "RL009"
    summary = "completion-order collection of worker results"

    _NAMES = {"as_completed", "imap_unordered", "FIRST_COMPLETED"}

    def applies(self, path: str) -> bool:
        return _in_sim_src(path)

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in self._NAMES:
                yield self._v(path, node, f"{name}: results in worker completion "
                              "order — collect them in submission order")


ALL_RULES: list[Rule] = [
    RuleWallClock(),
    RuleBareExcept(),
    RuleFlashErrors(),
    RuleHostIO(),
    RuleFloatKeys(),
    RuleChargeClock(),
    RuleCompletionOrder(),
]
