"""DRAM budget tracking for the simulated engines.

Every engine declares its in-memory data structures against a
:class:`MemoryTracker` sized from the active hardware profile.  Two policies
exist, mirroring how real systems behave when DRAM runs out:

* ``strict`` — allocation beyond the budget raises
  :class:`MemoryBudgetExceeded`.  Used by engines that refuse to run (the
  paper reports GraphLab and FlashGraph as DNF when their working set does
  not fit).
* ``swap`` — allocation beyond the budget succeeds, so ``in_use`` may
  exceed ``budget``.  No engine uses it: nothing charges swap-thrashing I/O.
"""

from __future__ import annotations


class MemoryBudgetExceeded(RuntimeError):
    """Raised by a strict tracker when an allocation would exceed the budget."""

    def __init__(self, requested: int, in_use: int, budget: int, label: str):
        self.requested = requested
        self.in_use = in_use
        self.budget = budget
        self.label = label
        super().__init__(
            f"allocation {label!r} of {requested} B exceeds DRAM budget: "
            f"{in_use} B in use of {budget} B"
        )


class MemoryTracker:
    """Tracks labelled allocations against a DRAM budget.

    >>> mem = MemoryTracker(budget=1000)
    >>> mem.allocate("vertex-data", 600)
    >>> mem.in_use
    600
    >>> mem.free("vertex-data")
    >>> mem.in_use
    0
    """

    def __init__(self, budget: int, policy: str = "strict"):
        if policy not in ("strict", "swap"):
            raise ValueError(f"unknown memory policy {policy!r}")
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self.policy = policy
        self._allocations: dict[str, int] = {}
        self.peak = 0

    @property
    def in_use(self) -> int:
        return sum(self._allocations.values())

    @property
    def available(self) -> int:
        return max(0, self.budget - self.in_use)

    def allocate(self, label: str, nbytes: int) -> None:
        """Record an allocation; grows the existing allocation if the label exists."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        new_total = self.in_use + nbytes
        if self.policy == "strict" and new_total > self.budget:
            raise MemoryBudgetExceeded(nbytes, self.in_use, self.budget, label)
        self._allocations[label] = self._allocations.get(label, 0) + nbytes
        self.peak = max(self.peak, new_total)

    def free(self, label: str) -> None:
        """Release an allocation; freeing an unknown label is an error."""
        if label not in self._allocations:
            raise KeyError(f"no allocation named {label!r}")
        del self._allocations[label]
