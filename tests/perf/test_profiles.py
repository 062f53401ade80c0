"""Hardware profiles: paper constants and scaling behaviour."""

import pytest

from repro.perf.profiles import (
    GB,
    GRAFBOOST,
    GRAFBOOST2,
    GRAFSOFT,
    SERVER_SSD_ARRAY,
    SINGLE_SSD_SERVER,
)


def test_grafboost_matches_paper_constants():
    # §V-C: 1 GB DDR3 at 10 GB/s, two flash cards at 1.2 GB/s read and
    # 0.5 GB/s write each, 1 TB total.
    assert GRAFBOOST.dram_bw == 10 * GB
    assert GRAFBOOST.flash_read_bw == pytest.approx(2.4 * GB)
    assert GRAFBOOST.flash_write_bw == pytest.approx(1.0 * GB)
    assert GRAFBOOST.flash_capacity == 1024 * GB
    assert GRAFBOOST.has_accelerator


def test_grafboost2_only_differs_in_dram_bandwidth():
    # §V-C.3: "The only difference of the projected GraFBoost2 system ...
    # is double the DRAM bandwidth."
    assert GRAFBOOST2.dram_bw == 2 * GRAFBOOST.dram_bw
    assert GRAFBOOST2.flash_read_bw == GRAFBOOST.flash_read_bw
    assert GRAFBOOST2.accel_clock_hz == GRAFBOOST.accel_clock_hz


def test_server_matches_paper_constants():
    # §V-C: 32 Xeon cores, 128 GB DRAM, five SSDs totalling 6 GB/s.
    assert SERVER_SSD_ARRAY.cpu_threads == 32
    assert SERVER_SSD_ARRAY.dram_capacity == 128 * GB
    assert SERVER_SSD_ARRAY.flash_read_bw == pytest.approx(6 * GB)
    assert SERVER_SSD_ARRAY.ssd_count == 5
    assert not SERVER_SSD_ARRAY.has_accelerator


def test_grafsoft_memory_cap():
    # §I: the software implementation uses 16 GB of the 128 GB.
    assert GRAFSOFT.dram_capacity == 16 * GB


def test_single_ssd_server_for_small_graphs():
    # Fig 15 setup: one SSD, 1.2 GB/s.
    assert SINGLE_SSD_SERVER.flash_read_bw == pytest.approx(1.2 * GB)
    assert SINGLE_SSD_SERVER.ssd_count == 1


def test_accel_bandwidth_is_one_word_per_cycle():
    # §V-C.3: 256-bit tuples at 125 MHz sustain 4 GB/s.
    assert GRAFBOOST.accel_bw == pytest.approx(125e6 * 32)


def test_scaling_shrinks_capacities_not_speeds():
    scaled = GRAFSOFT.scaled(2.0 ** -10)
    assert scaled.dram_capacity == GRAFSOFT.dram_capacity // 1024
    assert scaled.flash_capacity == GRAFSOFT.flash_capacity // 1024
    assert scaled.flash_read_bw == GRAFSOFT.flash_read_bw
    assert scaled.cpu_threads == GRAFSOFT.cpu_threads


def test_scaling_rejects_nonpositive():
    with pytest.raises(ValueError):
        GRAFSOFT.scaled(0)


def test_with_dram_override():
    small = GRAFSOFT.with_dram(1 * GB)
    assert small.dram_capacity == 1 * GB
    assert small.flash_read_bw == GRAFSOFT.flash_read_bw
