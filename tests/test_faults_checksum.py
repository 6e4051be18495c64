"""Page checksums at the buffer-pool boundary: stamp, verify, quarantine."""

import pytest

from repro.errors import (
    BufferPoolError,
    CorruptPageError,
    RetryExhaustedError,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultyDisk
from repro.obs import MetricsRegistry
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.page import (
    compute_page_checksum,
    page_checksum_ok,
    read_page_checksum,
    stamp_page_checksum,
)
from repro.storage.retry import RetryPolicy

pytestmark = pytest.mark.faults

PAGE = 4096


def make_pool(*specs, capacity=4, rereads=1, registry=None, verify=True):
    injector = FaultInjector(
        seed=0, plan=FaultPlan.of(*specs), page_size=PAGE, registry=registry
    )
    disk = FaultyDisk(PAGE, injector)
    pool = BufferPool(
        disk,
        capacity,
        registry=registry,
        retry_policy=RetryPolicy(corrupt_rereads=rereads),
        verify_checksums=verify,
    )
    return pool, disk, injector


def write_one_page(pool, payload=b"payload"):
    page = pool.new_page(PageType.HEAP)
    page.insert(payload)
    pid = page.page_id
    pool.unpin(pid, dirty=True)
    pool.flush(pid)
    pool.drop_clean()
    return pid


def test_stamp_and_verify_roundtrip():
    buf = bytearray(b"\x5A" * PAGE)
    assert not page_checksum_ok(buf)
    crc = stamp_page_checksum(buf)
    assert read_page_checksum(buf) == crc == compute_page_checksum(buf)
    assert page_checksum_ok(buf)
    buf[100] ^= 0x01
    assert not page_checksum_ok(buf)


def test_all_zero_page_counts_as_unstamped_and_valid():
    assert page_checksum_ok(bytes(PAGE))


def test_write_back_stamps_and_clean_read_verifies():
    pool, disk, _ = make_pool()
    pid = write_one_page(pool)
    assert page_checksum_ok(disk.peek(pid))
    page = pool.fetch(pid)
    assert page.read(0) == b"payload"
    pool.unpin(pid)


def test_at_rest_bit_flip_is_detected_and_quarantined():
    registry = MetricsRegistry()
    pool, _, _ = make_pool(
        FaultSpec(FaultKind.WRITE_BIT_FLIP, at_nth=1), registry=registry
    )
    pid = write_one_page(pool)
    with pytest.raises(CorruptPageError):
        pool.fetch(pid)
    assert pid in pool.quarantined_pages
    faults = registry.snapshot()["faults"]
    # One detection, zero recoveries: at-rest damage does not re-read away.
    assert faults["detected"] == 1
    assert faults.get("recovered", 0) == 0


def test_quarantined_page_fails_fast_and_counts_each_detection():
    registry = MetricsRegistry()
    pool, _, _ = make_pool(
        FaultSpec(FaultKind.WRITE_BIT_FLIP, at_nth=1), registry=registry
    )
    pid = write_one_page(pool)
    with pytest.raises(CorruptPageError):
        pool.fetch(pid)
    with pytest.raises(CorruptPageError):
        pool.fetch(pid)
    assert registry.snapshot()["faults"]["detected"] == 2
    # Failed fetches never leak pins.
    assert pool.pinned_pages == []


def test_read_bit_flip_heals_via_corrective_reread():
    registry = MetricsRegistry()
    pool, _, _ = make_pool(
        FaultSpec(FaultKind.READ_BIT_FLIP, at_nth=1),
        rereads=2,
        registry=registry,
    )
    pid = write_one_page(pool)
    page = pool.fetch(pid)  # flip on first read, healed by re-read
    assert page.read(0) == b"payload"
    pool.unpin(pid)
    faults = registry.snapshot()["faults"]
    assert faults["detected"] == 1
    assert faults["recovered"] == 1
    assert pool.quarantined_pages == frozenset()


def test_stuck_write_is_caught_by_freshness_check():
    # The stuck page keeps its old, internally valid stamp — only the
    # pool's memory of what it last wrote can tell.
    pool, disk, _ = make_pool(FaultSpec(FaultKind.STUCK_WRITE, at_nth=2))
    pid = write_one_page(pool)  # write #1 lands
    page = pool.fetch(pid)
    page.insert(b"second")
    pool.unpin(pid, dirty=True)
    pool.flush(pid)  # write #2 silently dropped
    pool.drop_clean()
    assert page_checksum_ok(disk.peek(pid))  # integrity alone passes
    with pytest.raises(CorruptPageError):
        pool.fetch(pid)


def test_transient_read_retries_and_recovers():
    registry = MetricsRegistry()
    pool, _, _ = make_pool(
        FaultSpec(FaultKind.TRANSIENT_READ_ERROR, at_nth=1), registry=registry
    )
    pid = write_one_page(pool)
    page = pool.fetch(pid)
    assert page.read(0) == b"payload"
    pool.unpin(pid)
    faults = registry.snapshot()["faults"]
    assert faults["detected"] == 1
    assert faults["recovered"] == 1
    assert faults["retries"] == 1


def test_persistent_transient_faults_exhaust_the_retry_budget():
    registry = MetricsRegistry()
    pool, _, _ = make_pool(
        FaultSpec(FaultKind.TRANSIENT_READ_ERROR, probability=1.0),
        registry=registry,
    )
    pid = write_one_page(pool)
    with pytest.raises(RetryExhaustedError, match=rf"^read of page {pid} failed 4 times: "):
        pool.fetch(pid)
    faults = registry.snapshot()["faults"]
    assert faults["detected"] == 1
    assert faults["unrecoverable"] == 1
    assert faults["retries"] == pool.retry_policy.max_attempts - 1


def test_persistent_transient_write_faults_exhaust_the_retry_budget():
    """Write-back runs the same retry loop as a read, named by its verb."""
    registry = MetricsRegistry()
    pool, _, _ = make_pool(
        FaultSpec(FaultKind.TRANSIENT_WRITE_ERROR, probability=1.0),
        registry=registry,
    )
    pid = pool.new_page(PageType.HEAP).page_id
    pool.unpin(pid, dirty=True)
    with pytest.raises(RetryExhaustedError, match=rf"^write of page {pid} failed 4 times: "):
        pool.flush(pid)
    faults = registry.snapshot()["faults"]
    assert faults["detected"] == 1
    assert faults["unrecoverable"] == 1
    assert faults["retries"] == pool.retry_policy.max_attempts - 1


def test_verify_checksums_off_skips_validation():
    pool, _, _ = make_pool(
        FaultSpec(FaultKind.WRITE_BIT_FLIP, at_nth=1), verify=False
    )
    pid = write_one_page(pool)
    # The flip lands somewhere in the page; fetch must not raise.
    pool.fetch(pid)
    pool.unpin(pid)


def test_quarantine_refuses_pinned_pages():
    pool, _, _ = make_pool()
    page = pool.new_page(PageType.HEAP)
    with pytest.raises(BufferPoolError):
        pool.quarantine(page.page_id)
    pool.unpin(page.page_id, dirty=True)
    pool.quarantine(page.page_id)
    assert page.page_id in pool.quarantined_pages
