"""Driver: walk files, run per-file and whole-program rules, honor inline
suppressions, report.

Suppressions are line-scoped comments (real comments — a suppression
string inside a string literal is ignored)::

    device.invalidate_page(b, p)  # repro-lint: disable=RL006
    risky()                       # repro-lint: disable=RL001,RL005
    anything()                    # repro-lint: disable=all

A finding is suppressed when the comment sits on the line the finding is
reported at (for multi-line statements that is the line of the offending
node, usually the first line of the statement).  A suppression that
suppresses nothing is itself reported (RL100, ruff unused-noqa style)
unless the comment also disables RL100.

Any finding fails the run.  The CLI supports ``--format json``
(byte-deterministic, CI-diffable output) and ``--explain RLxxx`` to print
a rule's full rationale.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import io
import json
import os
import re
import sys
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.lint.detflow import PROGRAM_RULES, analyze_program
from repro.lint.rules import ALL_RULES, Rule, Violation

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


class RuleUnusedSuppression(Rule):
    """RL100: a ``# repro-lint: disable=RLxxx`` that suppresses nothing.

    Stale suppressions are worse than useless: they read as "this line is
    known-dangerous but accepted" while actually hiding nothing today and
    potentially hiding a real regression tomorrow.  When the code a
    suppression guarded is fixed or deleted, the comment must go too.
    Escape hatch: add RL100 itself to the comment's id list
    (``disable=RL001,RL100``) to mark a suppression that is only needed
    under some configurations.
    """

    id = "RL100"
    summary = "suppression comment that suppresses nothing"


def _parse_ids(raw: str) -> set[str]:
    ids = {tok.strip() for tok in raw.split(",") if tok.strip()}
    return {i.lower() if i.lower() == "all" else i.upper() for i in ids}


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> set of suppressed rule ids (or {"all"}).

    Tokenize-based so only *real* comments count: a disable-string inside
    a string literal (docs, test fixtures) is not a suppression.  Files
    that fail to tokenize (syntax errors) fall back to the line regex.
    """
    out: dict[int, set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                m = _SUPPRESS_RE.search(tok.string)
                if m:
                    out[tok.start[0]] = _parse_ids(m.group(1))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        out = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                out[lineno] = _parse_ids(m.group(1))
    return out


# ------------------------------------------------------------------ pipeline


@dataclass
class FileEntry:
    """One parsed file, shared by the per-file and whole-program passes."""

    path: str
    tree: ast.Module | None
    suppressions: dict[int, set[str]]
    syntax_error: Violation | None = None


def _load_entry(path: str, source: str) -> FileEntry:
    try:
        tree = ast.parse(source, filename=path)
        error = None
    except SyntaxError as err:
        tree = None
        error = Violation(path, err.lineno or 1, err.offset or 0, "RL000",
                          f"syntax error: {err.msg}")
    return FileEntry(path, tree, _suppressions(source), error)


def _file_violations(entry: FileEntry) -> list[Violation]:
    if entry.tree is None:
        return [entry.syntax_error] if entry.syntax_error else []
    found: list[Violation] = []
    for rule in ALL_RULES:
        if rule.applies(entry.path):
            found.extend(rule.check(entry.tree, entry.path))
    return found


@dataclass
class LintResult:
    """Outcome of linting a set of entries, pre-suppression bookkeeping."""

    violations: list[Violation] = field(default_factory=list, init=False)
    #: (path, line) -> suppressed rule ids that actually matched a finding.
    used_suppressions: dict[tuple[str, int], set[str]] = field(
        default_factory=dict, init=False)


def _apply_suppressions(entries: dict[str, FileEntry],
                        raw: Iterable[Violation]) -> LintResult:
    result = LintResult()
    for violation in raw:
        entry = entries.get(violation.path)
        ids = entry.suppressions.get(violation.line, set()) if entry else set()
        if "all" in ids or violation.rule_id in ids:
            used = result.used_suppressions.setdefault(
                (violation.path, violation.line), set())
            used.add("all" if "all" in ids and violation.rule_id not in ids
                     else violation.rule_id)
            continue
        result.violations.append(violation)
    return result


def _unused_suppressions(entries: dict[str, FileEntry],
                         result: LintResult) -> list[Violation]:
    found: list[Violation] = []
    for path in sorted(entries):
        entry = entries[path]
        if entry.tree is None:
            continue  # a syntax error hides what the comments guard
        for line in sorted(entry.suppressions):
            ids = entry.suppressions[line]
            if "RL100" in ids:
                continue  # explicit per-line escape hatch
            used = result.used_suppressions.get((path, line), set())
            if "all" in ids:
                if not used:
                    found.append(Violation(
                        path, line, 0, "RL100",
                        "unused suppression: disable=all suppresses "
                        "nothing on this line — remove it"))
                continue
            for rule_id in sorted(ids - used):
                found.append(Violation(
                    path, line, 0, "RL100",
                    f"unused suppression: disable={rule_id} suppresses "
                    "nothing on this line — remove it"))
    return found


def _sorted(violations: list[Violation]) -> list[Violation]:
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id,
                                   v.message))
    return violations


def lint_sources(sources: dict[str, str]) -> list[Violation]:
    """Lint a program given as ``{path: source}``; each path decides which
    rules apply to its file.  Per-file rules, then the det-flow pass over
    all modules at once (so cross-module taint flows resolve), then
    suppressions and RL100."""
    entries = {path: _load_entry(path, sources[path]) for path in sorted(sources)}
    ordered = list(entries.values())
    raw: list[Violation] = []
    for entry in ordered:
        raw.extend(_file_violations(entry))
    raw.extend(analyze_program([(e.path, e.tree) for e in ordered
                                if e.tree is not None]))
    result = _apply_suppressions(entries, raw)
    return _sorted(result.violations + _unused_suppressions(entries, result))


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """The ``.py`` files named by ``paths`` (files, or directories walked
    recursively); a path that is neither raises FileNotFoundError."""
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        # dirnames is sorted in place, so the traversal order (and with it
        # every report) is deterministic.
        for dirpath, dirnames, filenames in os.walk(path):  # repro-lint: disable=RL007
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("__pycache__", ".git"))
            files.extend(os.path.join(dirpath, name)
                         for name in sorted(filenames)
                         if name.endswith(".py"))
    return files


def lint_paths(paths: Iterable[str]) -> list[Violation]:
    sources = {}
    for file_path in iter_python_files(paths):
        with open(file_path, encoding="utf-8") as fh:
            sources[file_path] = fh.read()
    return lint_sources(sources)


def render_json(violations: list[Violation]) -> str:
    """Machine-readable output; byte-identical across runs on one tree."""
    payload = {
        "version": 1,
        "findings": [
            {"path": v.path.replace("\\", "/"), "line": v.line,
             "col": v.col, "rule": v.rule_id, "message": v.message}
            for v in violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------- CLI


def all_rules() -> list[Rule]:
    return list(ALL_RULES) + list(PROGRAM_RULES) + [RuleUnusedSuppression()]


def explain(rule_id: str) -> str | None:
    for rule in all_rules():
        if rule.id == rule_id.upper():
            doc = inspect.getdoc(rule.__class__) or rule.summary
            return doc
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="repro-lint: repo-specific static analysis "
                    "(per-file rules RL001-RL006, whole-program "
                    "determinism-flow RL007-RL010, RL100).")
    parser.add_argument("paths", nargs="*", metavar="PATH")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids with one-line summaries")
    parser.add_argument("--explain", metavar="RLxxx",
                        help="print a rule's full rationale and exit")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format (json is byte-deterministic)")
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))

    if args.list_rules:
        for rule in all_rules():
            doc = (rule.__class__.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.id}  {doc}")
        return 0
    if args.explain:
        doc = explain(args.explain)
        if doc is None:
            known = ", ".join(r.id for r in all_rules())
            print(f"unknown rule {args.explain!r} (known: {known})",
                  file=sys.stderr)
            return 2
        print(doc)
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    try:
        violations = lint_paths(args.paths)
    except FileNotFoundError as err:
        print(f"repro-lint: {err}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        sys.stdout.write(render_json(violations))
    else:
        for violation in violations:
            print(violation.render())
    if violations:
        if args.fmt == "text":
            print(f"repro-lint: {len(violations)} violation(s) in "
                  f"{len({v.path for v in violations})} file(s)",
                  file=sys.stderr)
        return 1
    return 0
