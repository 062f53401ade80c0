"""repro-lint: repo-specific static analysis for the GraFBoost reproduction.

The reproduction rests on invariants no generic linter knows about:
simulated time is deterministic (RL001), ``PowerLossError`` must reach the
one recovery driver (RL002), the flash stack keeps its own error taxonomy
(RL003) and never touches the host filesystem (RL004), keys/LPNs/offsets
stay integers past 2^53 (RL005), and every device operation charges the
``SimClock`` (RL006).  ``--explain RLxxx`` prints each rule's rationale.

One index of the tree serves everything whole-program:
``callgraph.CallGraph`` resolves imports, definitions, call edges and what
each piece of code names.  The det-flow pass (``detflow.py``) follows its
call edges to taint nondeterminism sources — unsorted filesystem listings
(RL007), set/dict iteration order and ``id()``/``hash()`` keys (RL008),
pool completion order (RL009), and wall-clock/unseeded RNG reached
*transitively* through calls (RL010) — and reports when taint reaches a
determinism sink: ``SimClock.charge*``, journal/checkpoint writes,
trace/report/checksum construction, sort-reduce key material, or run
naming.  The reachability ratchet (``tests/test_reachability.py``) follows
the same graph's uses to find dead definitions and settings only the tests
set.  RL100 flags suppression comments that no longer suppress anything.

Run with ``python -m repro.lint src tests benchmarks examples``; any
finding fails the run, and ``--format json`` prints it
byte-deterministically.  Suppress a finding on one line with
``# repro-lint: disable=RL001`` (comma-separate several ids, or
``disable=all``).
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
