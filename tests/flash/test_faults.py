"""Deterministic fault injection, ECC/read-retry recovery, bad-block
remapping, checksum repair, and the FlashError taxonomy."""

import dataclasses

import numpy as np
import pytest

from repro.flash.aoffs import AppendOnlyFlashFS
from repro.flash.device import (
    FlashDevice,
    FlashEraseError,
    FlashError,
    FlashGeometry,
    FlashProgramError,
    FlashUncorrectableError,
    FlashWearOutError,
)
from repro.flash.faults import FaultInjector, FaultPlan, FaultStats, verify_pages
from repro.flash.filestore import SSDFileSystem
from repro.flash.ftl import SSD
from repro.flash.wear import WearReport
from repro.perf.clock import SimClock
from repro.perf.profiles import GRAFSOFT

GEOMETRY = FlashGeometry(page_bytes=4096, pages_per_block=8, num_blocks=64)


def make_device(faults=None, clock=None, geometry=GEOMETRY):
    return FlashDevice(geometry, GRAFSOFT, clock or SimClock(), faults=faults)


def page_of(byte: int) -> bytes:
    return bytes([byte]) * GEOMETRY.page_bytes


# --------------------------------------------------------------------- plans


def test_fault_plan_parse_spec():
    plan = FaultPlan.parse("seed=3,ber=5e-5,pfail=1e-4,retries=2,jitter=0.1")
    assert plan.seed == 3
    assert plan.read_ber == 5e-5
    assert plan.program_fail_p == 1e-4
    assert plan.read_retry_limit == 2
    assert plan.latency_jitter == 0.1
    # Full field names work too, and empty entries are ignored.
    assert FaultPlan.parse("read_ber=0.01,").read_ber == 0.01
    assert FaultPlan.parse("") == FaultPlan()


def test_fault_plan_parse_rejects_garbage():
    with pytest.raises(ValueError, match="unknown fault spec key"):
        FaultPlan.parse("bogus=1")
    with pytest.raises(ValueError, match="not key=value"):
        FaultPlan.parse("ber")
    with pytest.raises(ValueError, match="bad value"):
        FaultPlan.parse("ber=lots")
    # Integer keys: infinity is a bad value, not an OverflowError.
    for spec in ("seed=1e400", "retries=1e400", "ecc=inf", "pe_cycle_limit=-inf"):
        with pytest.raises(ValueError, match="bad value"):
            FaultPlan.parse(spec)


def test_fault_plan_integer_keys_reject_fractions():
    # ecc=3.7 used to be truncated to 3 and seed=2.9 to 2.
    for spec, key in (("ecc=3.7", "ecc"), ("seed=2.9", "seed"),
                      ("read_retry_limit=0.5", "read_retry_limit")):
        with pytest.raises(ValueError, match=f"bad value .* for fault key '{key}'"):
            FaultPlan.parse(spec)
    assert FaultPlan.parse("ecc=1e1,seed=3.0") == FaultPlan(
        ecc_correctable_bits=10, seed=3)
    # A repeated key — short or full name — is rejected, not last-one-wins.
    for spec in ("seed=1,seed=2", "ber=1e-5,read_ber=1e-4"):
        with pytest.raises(ValueError, match="duplicate fault spec key"):
            FaultPlan.parse(spec)


def test_fault_plan_validates_ranges():
    with pytest.raises(ValueError):
        FaultPlan(read_ber=1.5)
    with pytest.raises(ValueError):
        FaultPlan(latency_jitter=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(read_retry_limit=-1)


def test_fault_stats_as_dict_roundtrip():
    stats = FaultStats(bits_corrected=3, read_retries=1)
    d = dataclasses.asdict(stats)
    assert d["bits_corrected"] == 3
    assert d["read_retries"] == 1


# -------------------------------------------------------------- determinism


def _exercise(device):
    fs = AppendOnlyFlashFS(device)
    rng = np.random.default_rng(11)
    blob = rng.integers(0, 256, 40 * GEOMETRY.page_bytes, dtype=np.uint8).tobytes()
    fs.append("f", blob)
    fs.seal("f")
    out = fs.read("f")
    fs.delete("f")
    return out, blob


def test_zero_rate_plan_is_bit_identical_to_no_plan():
    clock_none, clock_zero = SimClock(), SimClock()
    out_none, blob = _exercise(make_device(clock=clock_none))
    out_zero, _ = _exercise(make_device(faults=FaultPlan(), clock=clock_zero))
    assert out_none == blob
    assert out_zero == blob
    assert clock_zero.elapsed_s == clock_none.elapsed_s
    assert clock_zero.bytes_moved("flash") == clock_none.bytes_moved("flash")


def test_same_plan_replays_identically():
    plan = FaultPlan(seed=5, read_ber=3e-4, latency_jitter=0.2)
    clock_a, clock_b = SimClock(), SimClock()
    out_a, _ = _exercise(make_device(faults=plan, clock=clock_a))
    out_b, _ = _exercise(make_device(faults=plan, clock=clock_b))
    assert out_a == out_b
    assert clock_a.elapsed_s == clock_b.elapsed_s


# ---------------------------------------------------------------- ECC model


def test_ecc_corrects_small_error_counts_inline():
    clock = SimClock()
    # Mean ~0.3 raw bit errors per 4 KB page: always within ECC strength.
    device = make_device(faults=FaultPlan(seed=1, read_ber=1e-5), clock=clock)
    baseline_clock = SimClock()
    baseline = make_device(clock=baseline_clock)
    for dev in (device, baseline):
        for page in range(8):
            dev.write_page(0, page, page_of(page))
    got = device.read_pages([(0, p) for p in range(8)])
    baseline.read_pages([(0, p) for p in range(8)])
    assert [bytes(p) for p in got] == [page_of(p) for p in range(8)]
    stats = device.faults.stats
    assert stats.bits_corrected > 0
    assert stats.read_retries == 0
    # Inline correction is free: same charged time as the clean device.
    assert clock.elapsed_s == baseline_clock.elapsed_s


def test_read_retry_recovers_and_charges_time():
    clock = SimClock()
    # Mean ~100 raw errors (far beyond t=8); each retry drops BER 100x, so
    # the first retry almost surely recovers.
    plan = FaultPlan(seed=2, read_ber=3e-3, retry_ber_scale=0.01)
    device = make_device(faults=plan, clock=clock)
    device.write_page(0, 0, page_of(0xAB))
    before = clock.elapsed_s
    assert device.read_page(0, 0) == page_of(0xAB)
    stats = device.faults.stats
    assert stats.read_retries >= 1
    assert stats.retry_recoveries >= 1
    # The retry cost a full extra page access, not just the nominal read.
    nominal = GRAFSOFT.flash_read_latency_s + \
        GEOMETRY.page_bytes / GRAFSOFT.flash_read_bw
    assert clock.elapsed_s - before > nominal * 1.5


def test_uncorrectable_read_raises_typed_error():
    # Retries never help (scale 1.0) and errors always exceed ECC.
    plan = FaultPlan(seed=3, read_ber=1e-2, retry_ber_scale=1.0,
                     read_retry_limit=2)
    device = make_device(faults=plan)
    device.write_page(0, 0, page_of(1))
    with pytest.raises(FlashUncorrectableError) as excinfo:
        device.read_page(0, 0)
    assert isinstance(excinfo.value, FlashError)
    assert excinfo.value.block == 0
    assert excinfo.value.page == 0
    assert device.faults.stats.uncorrectable_reads == 1


def test_wear_scaling_raises_effective_ber():
    plan = FaultPlan(seed=4, read_ber=1e-5, wear_ber_scale=0.5)
    device = make_device(faults=plan)
    injector = device.faults
    fresh = injector._effective_ber(0)
    device.erase_counts[0] = 10
    assert injector._effective_ber(0) == pytest.approx(fresh * 6.0)
    # Capped at 0.5 no matter how worn the block is.
    device.erase_counts[0] = 10**9
    assert injector._effective_ber(0) == 0.5


def test_latency_jitter_slows_every_op():
    plan = FaultPlan(seed=5, latency_jitter=0.5)
    clock, baseline_clock = SimClock(), SimClock()
    device = make_device(faults=plan, clock=clock)
    baseline = make_device(clock=baseline_clock)
    for dev in (device, baseline):
        dev.write_page(0, 0, page_of(7))
        dev.read_page(0, 0)
        dev.erase_block(0)
    assert clock.elapsed_s > baseline_clock.elapsed_s


# --------------------------------------------------- program/erase failures


def test_program_failure_retires_block_and_charges_tprog():
    plan = FaultPlan(seed=6, program_fail_p=1.0)
    clock = SimClock()
    device = make_device(faults=plan, clock=clock)
    with pytest.raises(FlashProgramError) as excinfo:
        device.write_page(0, 0, page_of(1))
    assert excinfo.value.block == 0
    assert device.is_bad(0)
    assert device.bad_block_count == 1
    assert clock.elapsed_s > 0  # the failed tProg still elapsed
    # Retired blocks reject every further program and erase.
    with pytest.raises(FlashProgramError, match="retired"):
        device.write_page(0, 0, page_of(2))
    with pytest.raises(FlashEraseError, match="retired"):
        device.erase_block(0)


def test_batched_program_failure_commits_prefix():
    # Fail the 3rd program of the run: pages 0-1 land, the rest do not.
    device = make_device(faults=FaultPlan(seed=0, program_fail_p=1e-9))
    injector = device.faults
    injector.first_program_failure = lambda block, page0, count: \
        2 if count > 2 else None
    with pytest.raises(FlashProgramError) as excinfo:
        device.write_pages([(0, p, page_of(p)) for p in range(6)])
    assert excinfo.value.batch_committed == 2
    assert device.read_page(0, 0) == page_of(0)
    assert device.read_page(0, 1) == page_of(1)
    assert device.is_bad(0)


def test_erase_failure_retires_block():
    plan = FaultPlan(seed=7, erase_fail_p=1.0)
    device = make_device(faults=plan)
    device.write_page(0, 0, page_of(1))
    with pytest.raises(FlashEraseError, match="retired"):
        device.erase_block(0)
    assert device.is_bad(0)
    # Data programmed before the failed erase stays readable.
    assert device.read_page(0, 0) == page_of(1)


def test_pe_cycle_limit_wears_block_out():
    plan = FaultPlan(seed=8, pe_cycle_limit=2)
    device = make_device(faults=plan)
    device.erase_block(0)
    device.erase_block(0)
    with pytest.raises(FlashEraseError, match="endurance"):
        device.erase_block(0)
    assert device.is_bad(0)
    assert WearReport.from_device(device).bad_blocks == 1


# ----------------------------------------------------- AOFFS/FTL recovery


def test_aoffs_survives_program_failures():
    plan = FaultPlan(seed=9, program_fail_p=0.05)
    device = make_device(faults=plan)
    fs = AppendOnlyFlashFS(device)
    rng = np.random.default_rng(21)
    blob = rng.integers(0, 256, 30 * GEOMETRY.page_bytes + 100,
                        dtype=np.uint8).tobytes()
    fs.append("f", blob)
    fs.seal("f")
    assert fs.read("f") == blob
    assert device.faults.stats.program_failures > 0
    assert device.bad_block_count > 0


def test_ftl_survives_program_failures():
    plan = FaultPlan(seed=9, program_fail_p=0.1)
    device = make_device(faults=plan)
    fs = SSDFileSystem(SSD(device))
    rng = np.random.default_rng(22)
    blob = rng.integers(0, 256, 30 * GEOMETRY.page_bytes + 100,
                        dtype=np.uint8).tobytes()
    fs.append("f", blob)
    fs.seal("f")
    assert fs.read("f") == blob
    assert device.bad_block_count > 0
    assert fs.ssd.ftl.blocks_retired == device.bad_block_count


def test_ftl_spare_exhaustion_raises_wearout():
    plan = FaultPlan(seed=11, program_fail_p=1.0)
    device = make_device(faults=plan)
    fs = SSDFileSystem(SSD(device))
    with pytest.raises(FlashWearOutError, match="spare pool exhausted"):
        fs.append("f", page_of(1) * 8)


def test_aoffs_delete_survives_erase_failures():
    plan = FaultPlan(seed=12, erase_fail_p=1.0)
    device = make_device(faults=plan)
    fs = AppendOnlyFlashFS(device)
    fs.append("f", page_of(3) * 4)
    fs.seal("f")
    free_before = fs.free_bytes
    fs.delete("f")  # every erase fails; delete still completes
    assert not fs.exists("f")
    assert device.bad_block_count > 0
    assert fs.free_bytes < free_before + GEOMETRY.block_bytes
    # The file system keeps working on the remaining blocks.
    fs.append("g", page_of(4) * 2)
    fs.seal("g")
    assert fs.read("g") == page_of(4) * 2


# ------------------------------------------------------------- checksums


def test_checksums_catch_silent_corruption():
    # Uncorrectable reads always escape as silently corrupted data
    # (retries never help); only the file-store CRCs can catch them, and
    # each repair re-read draws fresh (usually correctable) errors.
    plan = FaultPlan(seed=13, read_ber=2.4e-4, retry_ber_scale=1.0,
                     read_retry_limit=2, silent_corruption_p=1.0)
    device = make_device(faults=plan)
    fs = AppendOnlyFlashFS(device)
    rng = np.random.default_rng(23)
    blob = rng.integers(0, 256, 60 * GEOMETRY.page_bytes,
                        dtype=np.uint8).tobytes()
    fs.append("f", blob)
    fs.seal("f")
    assert fs.read("f") == blob
    stats = device.faults.stats
    assert stats.silent_corruptions > 0
    assert stats.checksum_mismatches > 0
    assert stats.checksum_recoveries == stats.checksum_mismatches


def test_verify_pages_passthrough_without_injector():
    pages = [b"a", b"b"]
    assert verify_pages(pages, [1, 2], 0, None, None, "x") is pages
