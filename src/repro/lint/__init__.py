"""repro-lint: repo-specific static analysis for the GraFBoost reproduction.

The reproduction rests on invariants that no generic linter knows about:

* simulated time is deterministic, so wall-clock reads and unseeded RNG in
  sim paths silently break bit-exact goldens (RL001);
* ``PowerLossError`` derives from ``BaseException`` precisely so cleanup
  code cannot swallow it — a bare ``except`` that fails to re-raise defeats
  the crash-injection machinery, and a handler naming it anywhere but the
  one recovery driver forks the crash→remount→retry loop (RL002);
* the flash stack has its own error taxonomy (RL003) and everything below
  the store layer must talk to ``FlashDevice``, never the host filesystem
  (RL004);
* keys/LPNs/offsets are integers up to 2^64 — float-producing arithmetic
  on them loses precision past 2^53, a regression class this repo has
  already shipped once (RL005);
* every public device operation must charge the ``SimClock``, or the
  performance model silently under-counts (RL006).

On top of the per-file rules, the whole-program **det-flow** pass
(``detflow.py`` + ``callgraph.py``) taints nondeterminism sources —
unsorted filesystem listings (RL007), set/dict iteration order and
``id()``/``hash()`` keys (RL008), pool completion order (RL009), and
wall-clock/unseeded RNG reached *transitively* through calls (RL010) —
and reports when taint reaches a determinism sink: ``SimClock.charge*``,
journal/checkpoint writes, trace/report/checksum construction, sort-reduce
key material, or run naming.  RL100 flags suppression comments that no
longer suppress anything.

Run with ``python -m repro.lint src tests benchmarks``; any finding fails
the run, and ``--format json`` prints it byte-deterministically.
Suppress a finding on one line with ``# repro-lint: disable=RL001``
(comma-separate several ids, or ``disable=all``); ``--explain RLxxx``
prints a rule's full rationale.
"""

from repro.lint.engine import (
    Violation,
    lint_paths,
    lint_sources,
    main,
)
from repro.lint.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_sources",
    "main",
]
