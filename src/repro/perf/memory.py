"""DRAM budget tracking for the simulated engines.

Every engine declares its in-memory data structures against a
:class:`MemoryTracker` sized from the active hardware profile.  Allocation
beyond the budget raises :class:`MemoryBudgetExceeded`, as a system that
refuses to run does (the paper reports GraphLab and FlashGraph as DNF when
their working set does not fit).
"""

from __future__ import annotations


class MemoryBudgetExceeded(RuntimeError):
    """Raised when an allocation would exceed the budget."""

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

    def __init__(self, budget: int):
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
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
        if new_total > self.budget:
            raise MemoryBudgetExceeded(nbytes, self.in_use, self.budget, label)
        self._allocations[label] = self._allocations.get(label, 0) + nbytes
        self.peak = max(self.peak, new_total)

    def free(self, label: str) -> None:
        """Release an allocation; freeing an unknown label is an error."""
        if label not in self._allocations:
            raise KeyError(f"no allocation named {label!r}")
        del self._allocations[label]
