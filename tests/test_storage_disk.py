"""SimulatedDisk: allocation, IO counting, and bounds checks."""

import pytest

from repro.errors import DiskError
from repro.storage.disk import SimulatedDisk


def test_allocate_returns_sequential_ids():
    disk = SimulatedDisk(256)
    assert disk.allocate_page() == 0
    assert disk.allocate_page() == 1
    assert disk.num_pages == 2
    assert disk.size_bytes == 512


def test_new_pages_are_zeroed():
    disk = SimulatedDisk(128)
    pid = disk.allocate_page()
    assert disk.read_page(pid) == bytes(128)


def test_write_read_round_trip():
    disk = SimulatedDisk(64)
    pid = disk.allocate_page()
    data = bytes(range(64))
    disk.write_page(pid, data)
    assert disk.read_page(pid) == data


def test_io_counters():
    disk = SimulatedDisk(64)
    pid = disk.allocate_page()
    disk.write_page(pid, bytes(64))
    disk.read_page(pid)
    disk.read_page(pid)
    assert disk.writes == 1
    assert disk.reads == 2
    reads, writes = disk.reads, disk.writes  # a phase counts from a baseline
    assert disk.reads - reads == disk.writes - writes == 0
    disk.read_page(pid)
    assert (disk.reads - reads, disk.writes - writes) == (1, 0)


def test_peek_does_not_count():
    disk = SimulatedDisk(64)
    pid = disk.allocate_page()
    disk.peek(pid)
    assert disk.reads == 0


def test_wrong_size_write_rejected():
    disk = SimulatedDisk(64)
    pid = disk.allocate_page()
    with pytest.raises(DiskError):
        disk.write_page(pid, bytes(63))


def test_out_of_range_access():
    disk = SimulatedDisk(64)
    with pytest.raises(DiskError):
        disk.read_page(0)
    disk.allocate_page()
    with pytest.raises(DiskError):
        disk.read_page(1)
    with pytest.raises(DiskError):
        disk.write_page(-1, bytes(64))


def test_invalid_page_size():
    with pytest.raises(DiskError):
        SimulatedDisk(0)
