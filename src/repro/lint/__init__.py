"""repro-lint: repo-specific static analysis for the GraFBoost reproduction.

The reproduction rests on invariants no generic linter knows about:
simulated time is deterministic (RL001), ``PowerLossError`` must reach the
one recovery driver (RL002), the flash stack keeps its own error taxonomy
(RL003) and never touches the host filesystem (RL004), keys/LPNs/offsets
stay integers past 2^53 (RL005), every device operation charges the
``SimClock`` (RL006), and no worker result is collected in completion
order (RL009).  RL100 flags suppression comments that no longer suppress
anything.  ``--explain RLxxx`` prints each rule's rationale.

Every rule reads one file at a time.  The rest of the determinism promise
is checked by running the code: the goldens and worker/mode/crash matrices
of ``tests/test_perf_invariance.py`` (with a run under two hash seeds for
set and dict order), and FlashSan.

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
