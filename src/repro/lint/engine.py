"""Driver: walk files, run the per-file rules, honor inline suppressions,
report.

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
from typing import Iterable, Sequence

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


def _lint_file(path: str, source: str) -> list[Violation]:
    """One file's findings that no suppression on their line silences,
    then an RL100 for each suppression that silenced nothing."""
    suppressions = _suppressions(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        # What the comments guard is unknown: no RL100 for this file.
        ids = suppressions.get(err.lineno or 1, set())
        return [] if ids & {"RL000", "all"} else [Violation(
            path, err.lineno or 1, err.offset or 0, "RL000", f"syntax error: {err.msg}")]
    kept: list[Violation] = []
    used: dict[int, set[str]] = {}   # line -> the ids that silenced a finding
    for violation in (v for rule in ALL_RULES if rule.applies(path)
                      for v in rule.check(tree, path)):
        ids = suppressions.get(violation.line, set())
        if violation.rule_id in ids or "all" in ids:
            used.setdefault(violation.line, set()).add(
                violation.rule_id if violation.rule_id in ids else "all")
        else:
            kept.append(violation)
    for line in sorted(suppressions):
        ids, matched = suppressions[line], used.get(line, set())
        if "RL100" in ids:
            continue  # explicit per-line escape hatch
        unused = ([] if matched else ["all"]) if "all" in ids else sorted(ids - matched)
        kept += [Violation(path, line, 0, "RL100",
                           f"unused suppression: disable={rule_id} suppresses "
                           "nothing on this line — remove it") for rule_id in unused]
    return kept


def lint_sources(sources: dict[str, str]) -> list[Violation]:
    """Lint files given as ``{path: source}``; each path decides which
    rules apply to its file."""
    found = [v for path in sorted(sources) for v in _lint_file(path, sources[path])]
    return sorted(found, key=lambda v: (v.path, v.line, v.col, v.rule_id, v.message))


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
        for dirpath, dirnames, filenames in os.walk(path):
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
    return list(ALL_RULES) + [RuleUnusedSuppression()]


def explain(rule_id: str) -> str | None:
    return next((inspect.getdoc(rule.__class__) or rule.summary
                 for rule in all_rules() if rule.id == rule_id.upper()), None)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="repro-lint: repo-specific static analysis "
                    "(per-file rules RL001-RL006, RL009, RL100).")
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
