"""MemoryTracker budget semantics."""

import pytest

from repro.perf.memory import MemoryBudgetExceeded, MemoryTracker


def test_allocate_and_free():
    mem = MemoryTracker(budget=1000)
    mem.allocate("a", 400)
    mem.allocate("b", 300)
    assert mem.in_use == 700
    assert mem.available == 300
    mem.free("a")
    assert mem.in_use == 300


def test_strict_policy_raises_on_overflow():
    mem = MemoryTracker(budget=100)
    mem.allocate("a", 80)
    with pytest.raises(MemoryBudgetExceeded) as excinfo:
        mem.allocate("b", 30)
    assert excinfo.value.budget == 100
    assert excinfo.value.requested == 30


def test_peak_tracking():
    mem = MemoryTracker(budget=1000)
    mem.allocate("a", 600)
    mem.free("a")
    mem.allocate("b", 100)
    assert mem.peak == 600


def test_repeated_label_grows_allocation():
    mem = MemoryTracker(budget=1000)
    mem.allocate("buf", 100)
    mem.allocate("buf", 200)
    assert mem.in_use == 300
    mem.free("buf")
    assert mem.in_use == 0


def test_free_unknown_label_raises():
    mem = MemoryTracker(budget=10)
    with pytest.raises(KeyError):
        mem.free("ghost")


def test_invalid_construction():
    with pytest.raises(ValueError):
        MemoryTracker(budget=0)
