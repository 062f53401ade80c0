"""Power model: reproduces the §V-C.6 numbers."""

import pytest

from repro.perf.power import PowerModel
from repro.perf.profiles import GRAFBOOST, SERVER_SSD_ARRAY


def test_grafboost_power_near_paper():
    # "Our GraFBoost prototype consumes about 160W of power, of which 110W
    # is consumed by the host Xeon server which is under a very low load."
    model = PowerModel(GRAFBOOST)
    power = model.average_power(cpu_utilization=2.0)  # Table II: 200%
    assert power.host_w == pytest.approx(110, rel=0.35)
    assert power.total_w == pytest.approx(160, rel=0.25)


def test_wimpy_host_projection():
    # "a wimpy server with a 30W power budget will bring down its power
    # consumption to half, or 80W."
    model = PowerModel(GRAFBOOST)
    power = model.average_power(cpu_utilization=2.0, host_idle_w=30.0)
    assert power.total_w == pytest.approx(80, rel=0.3)


def test_flashgraph_power_near_paper():
    # "our setup running FlashGraph ... was consuming over 410W."
    model = PowerModel(SERVER_SSD_ARRAY)
    power = model.average_power(cpu_utilization=32.0)  # Table II: 3200%
    assert power.total_w == pytest.approx(410, rel=0.1)
    assert power.storage_w == pytest.approx(30)  # five SSDs under 6 W each


def test_utilization_is_clamped():
    model = PowerModel(SERVER_SSD_ARRAY)
    over = model.average_power(cpu_utilization=64.0)
    full = model.average_power(cpu_utilization=SERVER_SSD_ARRAY.host_cores)
    assert over.host_w == full.host_w
    idle = model.average_power(cpu_utilization=-1.0)
    assert idle.host_w == pytest.approx(SERVER_SSD_ARRAY.host_idle_w)


def test_breakdown_rows_sum_to_total():
    model = PowerModel(GRAFBOOST)
    power = model.average_power(cpu_utilization=2.0)
    assert power.total_w == pytest.approx(
        power.host_w + power.accelerator_w + power.storage_w)
