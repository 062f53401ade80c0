"""SimClock accounting semantics."""

import pytest

from repro.perf.clock import SimClock


def test_serial_charge_advances_elapsed():
    clock = SimClock()
    clock.charge("flash", 0.5, nbytes=100)
    clock.charge("cpu", 0.25)
    assert clock.elapsed_s == pytest.approx(0.75)
    assert clock.busy_s("flash") == pytest.approx(0.5)
    assert clock.busy_s("cpu") == pytest.approx(0.25)


def test_pool_charge_separates_busy_from_elapsed():
    clock = SimClock()
    clock.charge_pool("cpu", work_seconds=8.0, parallelism=4)
    assert clock.elapsed_s == pytest.approx(2.0)
    assert clock.busy_s("cpu") == pytest.approx(8.0)
    # Utilization reports busy-unit count, like Table II's CPU%.
    assert clock.utilization("cpu") == pytest.approx(4.0)


def test_bytes_and_bandwidth():
    clock = SimClock()
    clock.charge("flash", 2.0, nbytes=4000)
    assert clock.bytes_moved("flash") == 4000
    assert clock.bytes_moved("flash") / clock.elapsed_s == pytest.approx(2000.0)


def test_unknown_resource_reads_as_zero():
    clock = SimClock()
    assert clock.busy_s("net") == 0.0
    assert clock.bytes_moved("net") == 0
    assert clock.utilization("net") == 0.0


def test_negative_charge_rejected():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.charge("flash", -1.0)
    with pytest.raises(ValueError):
        clock.charge_background("flash", -1.0)
    with pytest.raises(ValueError):
        clock.charge_pool("cpu", -1.0, 2)
    with pytest.raises(ValueError):
        clock.charge_pool("cpu", 1.0, 0)


def test_checkpoint_measures_deltas():
    clock = SimClock()
    clock.charge("flash", 1.0)
    checkpoint = clock.checkpoint()
    clock.charge("flash", 0.5)
    clock.charge("cpu", 0.25)
    assert checkpoint.elapsed_s == pytest.approx(0.75)
    assert checkpoint.busy_s("flash") == pytest.approx(0.5)
    assert checkpoint.busy_s("cpu") == pytest.approx(0.25)
