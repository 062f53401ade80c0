"""det-flow: interprocedural determinism-flow analysis (RL007-RL010).

The repo's central promise — results, Fig-14 stats and simulated time are
bit-identical across ``--workers N``, execution modes, crash plans and
service chaos — is enforced at runtime by golden checksums.  This pass
enforces it at analysis time: a whole-program taint analysis over the
``src/repro/`` call graph that marks **nondeterminism sources**, propagates
the taint through calls, returns, assignments and container membership,
and reports when it reaches a **determinism sink**.

Sources (what makes a value nondeterministic):

===========  ==============================================================
kind         produced by
===========  ==============================================================
fs-order     unsorted ``os.listdir``/``os.scandir``/``os.walk``,
             ``glob.glob``/``glob.iglob``, ``Path.iterdir/glob/rglob``
set-order    iteration over a ``set``/``frozenset`` (literal, constructor,
             comprehension, set-typed local or ``self`` attribute)
id-hash      ``id()``/``hash()`` results; iteration over a dict subscripted
             with ``id()``/``hash()`` keys; ``id``/``hash`` in a sort key
pool-order   completion-order collection: ``as_completed``,
             ``imap_unordered``
wall-clock   ``time.time()``-family, ``datetime.now()``-family (RL001's
             ``entropy_source``, applied transitively)
rng          stdlib ``random``, legacy ``numpy.random`` globals, seedless
             ``default_rng()`` (RL001's ``entropy_source``, applied
             transitively)
===========  ==============================================================

Sinks (where nondeterminism becomes a broken golden):

* ``SimClock.charge*`` — float accumulation, so *order* changes the bits
  of ``elapsed_s``;
* journal/checkpoint writes (``_write_journal``/``_write_checkpoint``/
  frame encoding) — durable state replayed on recovery;
* trace/report/checksum construction (``checksum()``, appends to
  ``*trace*``/``*timeline*``/``*history*``/``*events*`` collections);
* sort-reduce key material (``sort_reduce_in_memory``);
* run-file naming (store ``create``/``rename``).

A taint that escapes (into a list, a loop-carried accumulation, stored
state or an opaque call) or reaches a sink is a finding of the rule its
kind maps to (``RULE_FOR_KIND``); each rule's class below says what it
guards and what it would catch.

Propagation is summary-based: each function gets a fixpoint summary
(taints returned, parameters that flow to the return value, parameters
that flow into sinks) and callers compose summaries at call sites, so a
``time.time()`` buried two helpers deep in ``harness.py`` is still seen
when an engine path charges it to the clock.  ``sorted()``, ``set()``,
``frozenset()`` launder *order* taints (value taints like wall-clock pass
through ``sorted``); ``len``/``bool``/``any``/``all`` launder everything.

Every set is iterated in sorted order and all worklists are deterministic,
so two runs over the same tree produce byte-identical findings (and
byte-identical ``--format json`` output).
"""

from __future__ import annotations

import ast
import re
from collections import deque
from typing import Iterable, NamedTuple

from repro.lint.callgraph import (CallGraph, FunctionInfo, dotted,
                                  is_set_annotation, is_set_expr)
from repro.lint.rules import (RNG, WALLCLOCK, Rule, Violation, _in_sim_src,
                              entropy_source)

# --------------------------------------------------------------- taint model

FSORDER = "fs-order"
SETORDER = "set-order"
IDHASH = "id-hash"
POOLORDER = "pool-order"
PARAM = "param"

ORDER_KINDS = frozenset({FSORDER, SETORDER, IDHASH, POOLORDER})

RULE_FOR_KIND = {
    FSORDER: "RL007",
    SETORDER: "RL008",
    IDHASH: "RL008",
    POOLORDER: "RL009",
    WALLCLOCK: "RL010",
    RNG: "RL010",
}

#: call-chain length cap: keeps messages readable and fixpoints finite.
MAX_VIA = 6


class Taint(NamedTuple):
    """One tainted value: its source kind, site, and the call chain it
    travelled (callee qualnames, outermost last)."""

    kind: str
    desc: str
    path: str
    line: int
    via: tuple[str, ...] = ()

    def key(self) -> tuple[str, str, str, int]:
        return (self.kind, self.desc, self.path, self.line)


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def _extend_via(taint: Taint, callee: str) -> Taint:
    if len(taint.via) >= MAX_VIA:
        return taint
    return taint._replace(via=taint.via + (_short(callee),))


def _canon(taints: Iterable[Taint]) -> frozenset[Taint]:
    """Canonicalize: one taint per source key, shortest (then lexicographic
    smallest) via chain — makes summary fixpoints order-independent."""
    best: dict[tuple, Taint] = {}
    for t in taints:
        k = t.key()
        cur = best.get(k)
        if cur is None or (len(t.via), t.via) < (len(cur.via), cur.via):
            best[k] = t
    return frozenset(best.values())


class Summary(NamedTuple):
    """Interprocedural summary of one function."""

    returns: frozenset[Taint]
    param_to_return: frozenset[int]
    param_sinks: frozenset[tuple[int, str]]


EMPTY_SUMMARY = Summary(frozenset(), frozenset(), frozenset())


# ------------------------------------------------------------------- tables

_FS_MODULE_FNS = {("os", "listdir"), ("os", "scandir"), ("os", "walk"),
                  ("glob", "glob"), ("glob", "iglob")}
_FS_PATH_METHODS = {"iterdir", "glob", "rglob"}
_POOL_FNS = {"as_completed", "imap_unordered"}

#: order-laundering builtins: result order is defined (or there is none).
_ORDER_SANCTIONERS = {"sorted", "set", "frozenset", "min", "max", "sum",
                      "any", "all", "len", "bool"}
#: cardinality-only builtins: nothing about the value survives.
_FULL_SANCTIONERS = {"len", "bool", "any", "all"}

#: container mutators: ``recv.append(x)`` makes ``recv`` carry x's taint.
_CONTAINER_ADDERS = {"append", "extend", "insert", "add", "appendleft",
                     "push", "put", "put_nowait"}

_SINKS_BY_NAME = {
    "_write_journal": "journal write",
    "_journal_write": "journal write",
    "write_journal": "journal write",
    "_write_checkpoint": "checkpoint write",
    "write_checkpoint": "checkpoint write",
    "encode_frame": "journal frame encoding",
    "encode_frames": "journal frame encoding",
    "pack_frames": "journal frame encoding",
    "checksum": "checksum construction",
    "sort_reduce_in_memory": "sort-reduce key material",
}
_STORE_NAMESPACE = {"create", "rename"}
_TRACE_NAME = re.compile(r"trace|timeline|history|events", re.IGNORECASE)
_JOURNAL_NAME = re.compile(r"journal|checkpoint|wal|manifest", re.IGNORECASE)
_FLOATACC_NAME = re.compile(
    r"(^|_)(s|secs|seconds|elapsed|busy|time|total|sum|acc|credit|score|"
    r"weight)(_|$)", re.IGNORECASE)


# ------------------------------------------------------- per-function pass


class _FunctionAnalyzer:
    """One abstract-interpretation pass over a function body.

    Runs the body repeatedly (loops carry taint backwards) until the
    variable environment stabilizes, then optionally a collecting pass
    that records findings.
    """

    def __init__(self, flow: "DetFlow", info: FunctionInfo) -> None:
        self.flow = flow
        self.info = info
        self.module = flow.graph.modules[info.module]
        self.env: dict[str, set[Taint]] = {}
        self.set_vars: set[str] = set()
        self.idkey_vars: set[str] = set()
        self.returns: set[Taint] = set()
        self.param_to_return: set[int] = set()
        self.param_sinks: set[tuple[int, str]] = set()
        self.findings: dict[tuple, Violation] = {}
        #: source-key -> sink hit happened (suppresses weaker escape report)
        self._sunk: set[tuple] = set()
        #: source-key -> pending escape finding
        self._escapes: dict[tuple, Violation] = {}
        self.collecting = False
        for i, name in enumerate(info.params):
            self.env[name] = {Taint(PARAM, str(i), "", 0)}
        for arg in (info.node.args.posonlyargs + info.node.args.args +
                    info.node.args.kwonlyargs):
            ann = arg.annotation
            if ann is not None and is_set_annotation(ann):
                self.set_vars.add(arg.arg)

    # ------------------------------------------------------------ driving

    def run(self, collect: bool) -> None:
        for _ in range(3):
            before = ({k: frozenset(v) for k, v in self.env.items()},
                      frozenset(self.set_vars), frozenset(self.idkey_vars))
            self._exec_block(self.info.node.body)
            after = ({k: frozenset(v) for k, v in self.env.items()},
                     frozenset(self.set_vars), frozenset(self.idkey_vars))
            if before == after:
                break
        if collect:
            self.collecting = True
            self._exec_block(self.info.node.body)
            for key, violation in sorted(self._escapes.items()):
                if key[:4] not in self._sunk:
                    self.findings.setdefault(key, violation)

    def summary(self) -> Summary:
        return Summary(_canon(self.returns),
                       frozenset(self.param_to_return),
                       frozenset(self.param_sinks))

    # --------------------------------------------------------- statements

    def _exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value)
            is_set = is_set_expr(stmt.value)
            for target in stmt.targets:
                self._assign(target, taints, is_set=is_set)
        elif isinstance(stmt, ast.AnnAssign):
            taints = self._eval(stmt.value) if stmt.value is not None else set()
            is_set = is_set_annotation(stmt.annotation) or (
                stmt.value is not None and is_set_expr(stmt.value))
            self._assign(stmt.target, taints, is_set=is_set)
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value)
            if isinstance(stmt.op, ast.Add):
                self._check_accumulation(stmt, taints)
            name = self._target_name(stmt.target)
            if name is not None:
                self.env.setdefault(name, set()).update(taints)
        elif isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                self._record_return(self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                inner = value.value
                if inner is not None:
                    self._record_return(self._eval(inner))
            else:
                self._eval(value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taints = self._iter_taints(stmt.iter)
            self._assign(stmt.target, taints, is_set=False)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taints, is_set=False)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self._eval(sub)
        # nested defs/classes are indexed and analyzed as their own nodes.

    def _record_return(self, taints: set[Taint]) -> None:
        for t in sorted(taints):
            if t.kind == PARAM:
                self.param_to_return.add(int(t.desc))
            else:
                self.returns.add(t)

    def _target_name(self, target: ast.AST) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if (isinstance(target, ast.Attribute) and
                isinstance(target.value, ast.Name) and
                target.value.id == "self"):
            return f"self.{target.attr}"
        return None

    def _assign(self, target: ast.AST, taints: set[Taint],
                is_set: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taints, is_set=False)
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, taints, is_set=False)
            return
        if isinstance(target, ast.Subscript):
            # ``d[id(x)] = v``: dict keyed by addresses — iterating it later
            # is id-hash-ordered.  A tainted *key* is an order escape; a
            # tainted value taints the container.
            if _is_id_hash_call(target.slice):
                base = self._target_name(target.value)
                if base is not None:
                    self.idkey_vars.add(base)
            for t in self._eval(target.slice):
                if t.kind in ORDER_KINDS:
                    self._escape(t, "used as a container key")
            base = self._target_name(target.value)
            if base is not None:
                self.env.setdefault(base, set()).update(taints)
            return
        name = self._target_name(target)
        if name is None:
            return
        if name.startswith("self."):
            for t in taints:
                if t.kind in ORDER_KINDS:
                    self._escape(t, f"stored into {name}")
        self.env[name] = set(taints)
        if is_set:
            self.set_vars.add(name)
        else:
            self.set_vars.discard(name)

    def _check_accumulation(self, stmt: ast.AugAssign,
                            taints: set[Taint]) -> None:
        """``acc += tainted``: loop-carried order escape; for pool-order it
        is the PR 5 regression shape (completion order moves float bits)."""
        if not self.collecting:
            return
        target_name = self._target_name(stmt.target) or "<target>"
        for t in sorted(taints):
            if t.kind == POOLORDER:
                self._finding(
                    "RL009", stmt,
                    f"completion-order value from {t.desc} feeds the "
                    f"accumulation '{target_name} +='"
                    f"{_via_str(t)} — float accumulation is "
                    "order-sensitive; collect in submission order")
            elif t.kind in ORDER_KINDS:
                self._escape(t, f"loop-carried accumulation into "
                                f"'{target_name}'")

    # -------------------------------------------------------- expressions

    def _eval(self, node: ast.AST | None,
              sanctioned: bool = False) -> set[Taint]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return set(self.env.get(f"self.{node.attr}", ()))
            return self._eval(node.value, sanctioned)
        if isinstance(node, ast.Call):
            return self._eval_call(node, sanctioned)
        if isinstance(node, ast.BinOp):
            return (self._eval(node.left, sanctioned) |
                    self._eval(node.right, sanctioned))
        if isinstance(node, ast.BoolOp):
            return set().union(*(self._eval(v, sanctioned) for v in node.values))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, sanctioned)
        if isinstance(node, ast.Compare):
            # ``x in s`` / ``a < b``: a boolean — order cannot survive, but
            # entropy in the operands still decides the branch value.
            out = set().union(*(self._eval(c, sanctioned)
                                for c in [node.left, *node.comparators]))
            return {t for t in out if t.kind not in ORDER_KINDS}
        if isinstance(node, ast.Subscript):
            return (self._eval(node.value, sanctioned) |
                    self._eval(node.slice, sanctioned))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return set().union(*(self._eval(e, sanctioned) for e in node.elts))
        if isinstance(node, ast.Dict):
            return set().union(*(self._eval(k, sanctioned) for k in node.keys),
                               *(self._eval(v, sanctioned) for v in node.values))
        if isinstance(node, ast.JoinedStr):
            return set().union(*(self._eval(v.value, sanctioned) for v in node.values
                                 if isinstance(v, ast.FormattedValue)))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self._eval_comprehension(node, sanctioned)
        if isinstance(node, ast.IfExp):
            return (self._eval(node.test, sanctioned) |
                    self._eval(node.body, sanctioned) |
                    self._eval(node.orelse, sanctioned))
        if isinstance(node, ast.Await):
            return self._eval(node.value, sanctioned)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, sanctioned)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._record_return(self._eval(node.value, sanctioned))
            return set()
        if isinstance(node, ast.NamedExpr):
            taints = self._eval(node.value, sanctioned)
            self._assign(node.target, taints, is_set=is_set_expr(node.value))
            return taints
        return set()

    def _eval_comprehension(self, node: ast.AST,
                            sanctioned: bool) -> set[Taint]:
        order: set[Taint] = set()
        for gen in node.generators:
            taints = self._iter_taints(gen.iter)
            self._assign(gen.target, taints, is_set=False)
            order |= {t for t in taints if t.kind in ORDER_KINDS}
            for cond in gen.ifs:
                self._eval(cond, sanctioned)
        if isinstance(node, ast.DictComp):
            elt_taints = (self._eval(node.key, sanctioned) |
                          self._eval(node.value, sanctioned))
        else:
            elt_taints = self._eval(node.elt, sanctioned)
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            # Landing in a set/dict erases the *iteration order*; the
            # contents are deterministic.
            return {t for t in elt_taints | order
                    if t.kind not in ORDER_KINDS}
        if isinstance(node, ast.ListComp) and not sanctioned:
            for t in sorted(order):
                self._escape(t, "materialized into a list")
        return elt_taints | order

    def _iter_taints(self, iter_node: ast.AST) -> set[Taint]:
        """Taints produced by iterating ``iter_node`` — includes set-order
        and id-hash *sources* when the iterable is set-typed/id-keyed."""
        taints = self._eval(iter_node)
        source: Taint | None = None
        keyed = (iter_node.func.value if isinstance(iter_node, ast.Call)
                 and isinstance(iter_node.func, ast.Attribute)
                 and iter_node.func.attr in ("keys", "values", "items") else iter_node)
        own = self.module.classes.get(self.info.class_name or "")
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            source = self._source(SETORDER, "set iteration", iter_node)
        elif (isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name)
              and iter_node.func.id in ("set", "frozenset")):
            source = self._source(SETORDER, f"{iter_node.func.id}() iteration", iter_node)
        elif isinstance(iter_node, ast.Name) and iter_node.id in self.set_vars:
            source = self._source(SETORDER, f"iteration over set {iter_node.id!r}", iter_node)
        elif isinstance(keyed, ast.Name) and keyed.id in self.idkey_vars:
            source = self._source(
                IDHASH, f"iteration over id()/hash()-keyed {keyed.id!r}", iter_node)
        elif (isinstance(iter_node, ast.Attribute) and ast.unparse(iter_node.value) == "self"
              and own is not None and iter_node.attr in own.set_attrs):
            source = self._source(
                SETORDER, f"iteration over set self.{iter_node.attr}", iter_node)
        if source is not None:
            taints = taints | {source}
        return taints

    def _source(self, kind: str, desc: str, node: ast.AST) -> Taint:
        return Taint(kind, desc, self.info.path,
                     getattr(node, "lineno", 1))

    # -------------------------------------------------------------- calls

    def _eval_call(self, node: ast.Call, sanctioned: bool) -> set[Taint]:
        func = node.func
        # Builtin sanctioners first: sorted() launders order, len() all.
        if isinstance(func, ast.Name) and func.id in _ORDER_SANCTIONERS:
            self._check_sort_key(node)
            inner: set[Taint] = set()
            for arg in node.args:
                inner |= self._iter_taints(arg) if func.id == "sorted" \
                    else self._eval(arg, sanctioned=True)
            for kw in node.keywords:
                inner |= self._eval(kw.value, sanctioned=True)
            if func.id in _FULL_SANCTIONERS:
                return set()
            return {t for t in inner if t.kind not in ORDER_KINDS}
        # ``x.sort()`` sorts in place: clears order taint on x.
        if (isinstance(func, ast.Attribute) and func.attr == "sort" and
                isinstance(func.value, ast.Name)):
            self._check_sort_key(node)
            name = func.value.id
            self.env[name] = {t for t in self.env.get(name, set())
                              if t.kind not in ORDER_KINDS}
            return set()

        arg_taints: list[set[Taint]] = [self._eval(a) for a in node.args]
        kw_taints: dict[str, set[Taint]] = {
            kw.arg: self._eval(kw.value) for kw in node.keywords
            if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs splat
                self._eval(kw.value)
        recv_taints: set[Taint] = set()
        if isinstance(func, ast.Attribute):
            recv_taints = self._eval(func.value)

        taints: set[Taint] = set()
        source = self._match_source(node)
        if source is not None:
            taints.add(source)

        callee = self.flow.graph.resolve_call(self.info, func)
        resolved = callee is not None and callee in self.flow.summaries
        if resolved:
            summary = self.flow.summaries[callee]
            offset = self._param_offset(callee, func)
            taints |= {_extend_via(t, callee) for t in summary.returns}
            callee_params = self.flow.graph.functions[callee].params

            def taints_for_param(index: int) -> set[Taint]:
                pos = index - offset
                if 0 <= pos < len(arg_taints):
                    return arg_taints[pos]
                if 0 <= index < len(callee_params):
                    return kw_taints.get(callee_params[index], set())
                return set()

            for index in sorted(summary.param_to_return):
                taints |= taints_for_param(index)
            for index, sink in sorted(summary.param_sinks):
                composed = sink if sink.count(" via ") >= 3 \
                    else f"{sink} via {_short(callee)}"
                self._hit(taints_for_param(index), composed, node)
        else:
            # Opaque call: the result inherits the receiver's and the
            # arguments' taints (str(x), fut.result(), os.path.join(d, f)).
            taints |= recv_taints.union(*arg_taints, *kw_taints.values())
            # Container mutators taint the receiver instead of escaping.
            if (isinstance(func, ast.Attribute) and
                    func.attr in _CONTAINER_ADDERS):
                base = self._target_name(func.value)
                added: set[Taint] = set().union(*arg_taints)
                if base is not None:
                    self.env.setdefault(base, set()).update(added)
                for t in sorted(added):
                    if t.kind in ORDER_KINDS:
                        self._escape(t, f"collected via "
                                        f".{func.attr}()")
            elif self.collecting and not sanctioned:
                for t in sorted(set().union(*arg_taints, *kw_taints.values())):
                    if t.kind in ORDER_KINDS:
                        self._escape(t, f"passed to opaque call "
                                        f"{_call_name(func)}()")

        sink = self._match_sink(node)
        if sink is not None:
            self._hit(set().union(*arg_taints, *kw_taints.values()), sink, node)
        return taints

    def _param_offset(self, callee: str, func: ast.AST) -> int:
        info = self.flow.graph.functions[callee]
        return int(info.class_name is not None and "staticmethod" not in info.decorators)

    def _match_source(self, node: ast.Call) -> Taint | None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("id", "hash"):
            return self._source(IDHASH, f"{func.id}()", node)
        resolved = self.module.imports.resolve(func)
        if resolved is not None:
            mod, attr = resolved
            leaf = attr.split(".")[-1]
            root = mod.split(".")[0]
            if (root, leaf) in _FS_MODULE_FNS:
                return self._source(FSORDER, f"{root}.{leaf}()", node)
            if mod == "concurrent.futures" and leaf == "as_completed":
                return self._source(POOLORDER, "as_completed()", node)
            entropy = entropy_source(mod, attr, node)
            if entropy is not None:
                return self._source(entropy[0], entropy[1], node)
        if isinstance(func, ast.Attribute) and resolved is None:
            if func.attr in _FS_PATH_METHODS:
                return self._source(FSORDER, f".{func.attr}()", node)
            if func.attr in _POOL_FNS:
                return self._source(POOLORDER, f".{func.attr}()", node)
        return None

    def _match_sink(self, node: ast.Call) -> str | None:
        func = node.func
        leaf = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if leaf is None:
            return None
        if isinstance(func, ast.Attribute) and leaf.startswith("charge"):
            return f"SimClock {leaf}()"
        if leaf in _SINKS_BY_NAME:
            return _SINKS_BY_NAME[leaf]
        if (isinstance(func, ast.Attribute) and
                leaf in _STORE_NAMESPACE):
            return "store namespace write (run naming)"
        if isinstance(func, ast.Attribute):
            recv_chain = dotted(func.value)
            recv_leaf = recv_chain[-1] if recv_chain else None
            if (recv_leaf is not None and leaf in ("append", "extend") and
                    _TRACE_NAME.search(recv_leaf)):
                return f"trace construction ({recv_leaf}.{leaf})"
            # ``journal.write_entry(...)``: any write-ish method on a
            # journal/checkpoint-named receiver is durable-state material.
            if (recv_leaf is not None and _JOURNAL_NAME.search(recv_leaf) and
                    (leaf.startswith("write") or leaf.startswith("log") or
                     leaf.startswith("record"))):
                return f"journal write ({recv_leaf}.{leaf})"
        return None

    def _check_sort_key(self, node: ast.Call) -> None:
        """``sorted(xs, key=lambda v: id(v))``: an address-dependent order."""
        if not self.collecting:
            return
        for key in (kw.value for kw in node.keywords if kw.arg == "key"):
            uses = ([f"{key.id} as"] if isinstance(key, ast.Name) and key.id in ("id", "hash")
                    else [f"{ast.unparse(sub.func)}() in" for sub in ast.walk(key)
                          if _is_id_hash_call(sub)])
            for use in uses:
                self._finding("RL008", node, f"{use} a sort key orders by interpreter "
                              "addresses/hashes — derive sort keys from stable data")

    # ----------------------------------------------------------- findings

    def _hit(self, taints: set[Taint], sink: str, node: ast.AST) -> None:
        for t in sorted(taints):
            if t.kind == PARAM:
                self.param_sinks.add((int(t.desc), sink))
            elif self.collecting:
                self._sunk.add(t.key())
                self._finding(
                    RULE_FOR_KIND[t.kind], node,
                    f"{t.desc} ({t.path}:{t.line}) reaches {sink}"
                    f"{_via_str(t)} — nondeterminism in "
                    "determinism-critical state")

    def _escape(self, taint: Taint, how: str) -> None:
        """An order taint left the sanctioned uses; report at its source."""
        if not self.collecting or taint.kind not in ORDER_KINDS:
            return
        rule = RULE_FOR_KIND[taint.kind]
        key = taint.key() + (rule,)
        if key in self._escapes:
            return
        fix = ("sort the listing" if taint.kind == FSORDER
               else "sort before iterating" if taint.kind == SETORDER
               else "key by stable data" if taint.kind == IDHASH
               else "collect in submission order")
        self._escapes[key] = Violation(
            taint.path, taint.line, 0, rule,
            f"{taint.desc} order is nondeterministic and escapes "
            f"({how}) — {fix} or suppress with a justification")

    def _finding(self, rule: str, node: ast.AST, message: str) -> None:
        key = (rule, self.info.path, getattr(node, "lineno", 1), message)
        self.findings.setdefault(key, Violation(
            self.info.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), rule, message))


def _is_id_hash_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and
            isinstance(node.func, ast.Name) and
            node.func.id in ("id", "hash"))


def _via_str(taint: Taint) -> str:
    if not taint.via:
        return ""
    return " via " + " -> ".join(taint.via)


def _call_name(func: ast.AST) -> str:
    chain = dotted(func)
    return ".".join(chain) if chain else "<dynamic>"


# -------------------------------------------------------- whole-program pass


class DetFlow:
    """The interprocedural analysis over one set of parsed modules."""

    def __init__(self, files: list[tuple[str, ast.Module]]) -> None:
        self.graph = CallGraph.build(files)
        self.summaries: dict[str, Summary] = {
            q: EMPTY_SUMMARY for q in self.graph.functions}

    def run(self) -> list[Violation]:
        order = sorted(self.graph.functions)
        callers = self.graph.callers_of()
        work: deque[str] = deque(order)
        queued = set(order)
        steps = 0
        limit = max(1000, 50 * len(order))
        while work and steps < limit:
            steps += 1
            qual = work.popleft()
            queued.discard(qual)
            analyzer = _FunctionAnalyzer(self, self.graph.functions[qual])
            analyzer.run(collect=False)
            summary = analyzer.summary()
            if summary != self.summaries[qual]:
                self.summaries[qual] = summary
                for caller in callers.get(qual, ()):
                    if caller not in queued:
                        work.append(caller)
                        queued.add(caller)
        findings: dict[tuple, Violation] = {}
        for qual in order:   # every module is sim source (``analyze_program``)
            analyzer = _FunctionAnalyzer(self, self.graph.functions[qual])
            analyzer.run(collect=True)
            findings.update(analyzer.findings)
        for violation in self._worker_partition_pass():
            findings.setdefault(
                (violation.rule_id, violation.path, violation.line,
                 violation.message), violation)
        return sorted(findings.values(),
                      key=lambda v: (v.path, v.line, v.col, v.rule_id, v.message))

    # The PR 5 class, statically: anything reachable from a worker entry
    # point (``Process(target=fn)``) runs outside the host's serial charge
    # order, so a SimClock charge or stateful float accumulation there can
    # never be bit-deterministic across worker counts.
    def _worker_partition_pass(self) -> list[Violation]:
        roots = self.graph.spawned | {qual for qual, info in self.graph.functions.items()
                                      if info.node.name == "_worker_main"}
        if not roots:
            return []
        reachable = self.graph.reachable_from(sorted(roots))
        out: list[Violation] = []
        for qual in sorted(reachable):
            info = self.graph.functions.get(qual)
            if info is None:
                continue
            for sub in ast.walk(info.node):
                if (isinstance(sub, ast.Call) and
                        isinstance(sub.func, ast.Attribute) and
                        sub.func.attr.startswith("charge")):
                    out.append(Violation(
                        info.path, sub.lineno, sub.col_offset, "RL009",
                        f"SimClock {sub.func.attr}() inside "
                        f"{_short(qual)}() is reachable from a worker "
                        "entry point — charges must stay on the host in "
                        "serial order"))
                elif (isinstance(sub, ast.AugAssign) and
                      isinstance(sub.op, ast.Add) and
                      isinstance(sub.target, ast.Attribute) and
                      isinstance(sub.target.value, ast.Name) and
                      sub.target.value.id == "self" and
                      _FLOATACC_NAME.search(sub.target.attr)):
                    out.append(Violation(
                        info.path, sub.lineno, sub.col_offset, "RL009",
                        f"float accumulation self.{sub.target.attr} += in "
                        f"{_short(qual)}() is reachable from a worker "
                        "entry point — partition order moves the low "
                        "bits"))
        return out


def analyze_program(files: list[tuple[str, ast.Module]]) -> list[Violation]:
    """Run det-flow over parsed sim-source modules; returns raw findings
    (suppressions are applied by the engine)."""
    sim = [(path, tree) for path, tree in files if _in_sim_src(path)]
    if not sim:
        return []
    return DetFlow(sim).run()


# ------------------------------------------------------- rule descriptors
# Thin Rule shells so RL007-RL010 show up in --list-rules / --explain and
# share the suppression syntax; the actual checking happens in
# ``analyze_program`` because it needs the whole program at once.


class RuleFsOrder(Rule):
    """RL007: unsorted directory-listing order escapes.

    ``os.listdir``/``os.scandir``/``os.walk``, ``glob.glob``/``iglob`` and
    ``Path.iterdir/glob/rglob`` return entries in on-disk order, which
    differs across filesystems, machines and even repeated runs.  The
    moment that order escapes — materialized into a list, accumulated
    across loop iterations, stored into object state, handed to an opaque
    call, or reaching a determinism sink (journal/checkpoint writes,
    SimClock charges, traces, run naming) — replayed recovery and
    cross-host goldens diverge.  Wrap the listing in ``sorted()``, or
    suppress with a justification when the surrounding code provably
    restores determinism.

    Caught so far: no commit.  No simulator module lists a host directory
    (RL004 keeps the host filesystem out of the flash stack); the one
    listing under ``src/`` is the linter's own sorted ``os.walk``.  It
    would catch recovery or run naming that follows a listing's order.
    Pinned corpus: ``core/order.py:6:0: RL007 os.listdir() order ...``.
    """

    id = "RL007"
    summary = "unsorted filesystem listing order escapes"


class RuleSetOrder(Rule):
    """RL008: set/dict iteration order or id()/hash() ordering escapes.

    Iterating a ``set``/``frozenset`` yields elements in hash order,
    which depends on insertion history (and, for strings, on
    ``PYTHONHASHSEED``).  ``id()``/``hash()`` used as dict keys that get
    iterated, or inside sort keys, orders data by interpreter addresses.
    When such an order escapes into a list, a loop-carried value or a
    determinism sink, results stop being bit-identical.  Sort before
    iterating (``sorted(s)``), key containers by stable data, or suppress
    with a justification when order provably cannot matter.

    Caught so far: no commit.  It would catch a set of string keys (job
    ids, file names) iterated into a journal, a trace or a charge order,
    which moves with ``PYTHONHASHSEED``.  Pinned corpus:
    ``core/order.py:12:0: RL008 set() iteration ...`` and
    ``core/order.py:17:11: RL008 id as a sort key ...``.
    """

    id = "RL008"
    summary = "set/dict iteration or id()/hash() order escapes"


class RulePoolOrder(Rule):
    """RL009: completion-order data feeds order-sensitive accumulation.

    Results collected in worker *completion* order (``as_completed``,
    ``imap_unordered``) arrive in a scheduler-dependent sequence.
    Feeding them into a float accumulation — ``SimClock.charge*`` above
    all, since ``elapsed_s`` is a sequential float sum — moves the low
    bits between runs and across ``--workers N``: exactly the PR 5
    parallel-merge regression, where deferring a chunk's charges past
    caller charges broke BFS bit-identity.  The same reasoning bans
    SimClock charges and stateful float accumulation in code reachable
    from a worker entry point (``Process(target=...)``): workers must be
    pure functions; every charge stays on the host in serial submission
    order.
    """

    id = "RL009"
    summary = "completion-order data reaches float accumulation or a sink"


class RuleTransitiveEntropy(Rule):
    """RL010: wall-clock/unseeded RNG reaches a determinism sink transitively.

    The interprocedural generalization of RL001: a ``time.time()`` or
    unseeded random draw is just as fatal when it arrives through a
    helper's return value — including helpers in files RL001 allowlists
    for host-side use (``harness.py``, ``core/parallel.py``).  det-flow
    tracks the value through calls, returns and assignments and reports
    when it reaches a SimClock charge, a journal/checkpoint write, trace/
    checksum construction, sort-reduce key material or run naming.  Use
    ``SimClock`` for simulated time and thread explicit seeds; host-side
    wall-clock is fine as long as it never flows into simulated state.

    Caught so far: no commit.  It exists for the class named when det-flow
    landed: a host-clock read behind a helper in an RL001-allowlisted file
    charged to the clock.  Pinned corpus: ``core/record.py:5:4: RL010
    time.time() (src/repro/harness.py:4) reaches SimClock charge() via
    harness.now_seconds ...``.
    """

    id = "RL010"
    summary = "wall-clock/RNG reaches a determinism sink through calls"


PROGRAM_RULES: list[Rule] = [
    RuleFsOrder(),
    RuleSetOrder(),
    RulePoolOrder(),
    RuleTransitiveEntropy(),
]
