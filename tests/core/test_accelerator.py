"""Backend cost models: the §V-C.3 calibration points."""

import pytest

from repro.core.accelerator import AcceleratorBackend, SoftwareBackend
from repro.core.packing import PackingSpec
from repro.perf.clock import SimClock
from repro.perf.profiles import GB, GRAFBOOST, GRAFBOOST2, GRAFSOFT, MB


def test_hardware_chunk_sort_matches_paper():
    # "sorting a single 512MB chunk took slightly over 0.5s" (§V-C.3).
    backend = AcceleratorBackend(GRAFBOOST)
    seconds = backend.chunk_sort_seconds(512 * MB)
    assert 0.4 <= seconds <= 0.65


def test_grafboost2_halves_sort_time():
    # "achieving in-memory sort in a bit more than 0.25s" (§V-C.3).
    fast = AcceleratorBackend(GRAFBOOST2).chunk_sort_seconds(512 * MB)
    slow = AcceleratorBackend(GRAFBOOST).chunk_sort_seconds(512 * MB)
    assert fast == pytest.approx(slow / 2)
    assert 0.2 <= fast <= 0.35


def test_sort_passes_grow_logarithmically():
    backend = AcceleratorBackend(GRAFBOOST)
    assert backend.sort_passes(8 * 1024) == 1          # one page: on-chip only
    assert backend.sort_passes(16 * backend.profile.flash_page_bytes) == 2
    assert backend.sort_passes(512 * MB) == 5           # 1 + log16(65536)


def test_packing_discounts_traffic():
    packed = AcceleratorBackend(GRAFBOOST, PackingSpec(key_bits=34, value_bits=30))
    aligned = AcceleratorBackend(GRAFBOOST)
    assert packed.traffic_scale() == pytest.approx(0.5)
    assert aligned.traffic_scale() == pytest.approx(1.0)
    assert packed.chunk_sort_seconds(512 * MB) < aligned.chunk_sort_seconds(512 * MB)


def test_software_merger_rate_matches_paper():
    # "each emitting up to 800MB merged data per second", up to 4 instances.
    backend = SoftwareBackend(GRAFSOFT)
    assert backend.merger_rate(1) == pytest.approx(800 * MB)
    assert backend.merger_rate(4) == pytest.approx(3200 * MB)
    assert backend.merger_rate(100) == pytest.approx(3200 * MB)  # capped


def test_software_chunk_sort_uses_thread_pool():
    backend = SoftwareBackend(GRAFSOFT)
    clock = SimClock()
    backend.charge_chunk_sort(clock, 300 * MB)
    assert clock.busy_s("cpu") > clock.elapsed_s  # parallel work
    assert clock.elapsed_s == pytest.approx(backend.chunk_sort_seconds(300 * MB))


def test_hardware_merge_hides_under_flash_io():
    # At 4 GB/s datapath vs 2.4 GB/s flash, merging is flash-bound: the
    # merge compute hides fully behind the already-charged flash transfers
    # (busy time accrues, elapsed does not advance).
    backend = AcceleratorBackend(GRAFBOOST)
    clock = SimClock()
    backend.charge_merge_level(clock, bytes_in=1 * GB, bytes_out=500 * MB)
    compute = backend.merge_compute_seconds(1 * GB)
    assert clock.elapsed_s == 0.0
    assert clock.busy_s("accel") == pytest.approx(compute)


def test_hardware_merge_stalls_when_compute_bound():
    # If the datapath were slower than flash, the non-hidden part stalls.
    import dataclasses
    slow = dataclasses.replace(GRAFBOOST, accel_clock_hz=1e6)
    backend = AcceleratorBackend(slow)
    clock = SimClock()
    backend.charge_merge_level(clock, bytes_in=100 * MB, bytes_out=50 * MB)
    assert clock.elapsed_s > 0


def test_software_merge_charges_cpu_threads():
    backend = SoftwareBackend(GRAFSOFT)
    clock = SimClock()
    backend.charge_merge_level(clock, bytes_in=1 * GB, bytes_out=500 * MB, groups=2)
    # Two merger trees of 16 threads each accrue busy time.
    assert clock.busy_s("cpu") > 0


def test_hardware_requires_accelerator_profile():
    with pytest.raises(ValueError):
        AcceleratorBackend(GRAFSOFT)


def test_edge_stream_charges():
    clock = SimClock()
    AcceleratorBackend(GRAFBOOST).charge_edge_stream(clock, 100 * MB)
    assert clock.busy_s("accel") > 0
    clock2 = SimClock()
    SoftwareBackend(GRAFSOFT).charge_edge_stream(clock2, 100 * MB)
    assert clock2.busy_s("cpu") > 0
