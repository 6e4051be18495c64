"""A :class:`~repro.storage.disk.SimulatedDisk` that misbehaves on cue.

:class:`FaultyDisk` drops in anywhere a ``SimulatedDisk`` is accepted and
consults a :class:`~repro.faults.injector.FaultInjector` on every page
I/O.  Transient kinds raise :class:`~repro.errors.TransientIOError`
*after* the underlying store has counted the attempt (a failed I/O still
costs an I/O); corruption kinds silently mutate what is returned or
stored, to be caught downstream by the buffer pool's checksum and
freshness validation.
"""

from __future__ import annotations

from repro.errors import SimulatedCrashError, TransientIOError
from repro.faults.injector import FaultInjector, FiredFault
from repro.faults.plan import FaultKind
from repro.storage.disk import SimulatedDisk


def flip_bit(data: bytes, bit: int) -> bytes:
    """Return ``data`` with absolute bit index ``bit`` inverted."""
    buf = bytearray(data)
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


class FaultyDisk(SimulatedDisk):
    """Simulated disk wrapper that applies injected faults to page I/O."""

    def __init__(self, page_size: int, injector: FaultInjector) -> None:
        super().__init__(page_size)
        self.injector = injector

    def read_page(self, page_id: int) -> bytes:
        data = super().read_page(page_id)
        for fault in self.injector.on_read(page_id):
            if fault.kind is FaultKind.TRANSIENT_READ_ERROR:
                raise TransientIOError(f"injected transient read of page {page_id}")
            if fault.kind is FaultKind.READ_BIT_FLIP:
                # Only the returned copy is corrupted; stored bytes are
                # intact, so a corrective re-read heals it.
                data = flip_bit(data, fault.bit)
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        faults = self.injector.on_write(page_id)
        for fault in faults:
            if fault.kind is FaultKind.TRANSIENT_WRITE_ERROR:
                # Counts as an attempted write, applies nothing.
                self.writes += 1
                raise TransientIOError(
                    f"injected transient write of page {page_id}"
                )
        crash: FiredFault | None = None
        stored = bytes(data)
        for fault in faults:
            if fault.kind is FaultKind.CRASH_POINT:
                # Power cut mid-write: the sector prefix lands, the rest
                # keeps the old bytes, and then the machine dies.  The
                # torn page is applied *before* raising so what a
                # restart finds on disk is exactly what the cut left.
                crash = fault
                old = self.peek(page_id)
                stored = stored[: fault.tear_at] + old[fault.tear_at :]
                continue
            stored = self._apply_at_rest(page_id, stored, fault)
        super().write_page(page_id, stored)
        if crash is not None:
            raise SimulatedCrashError(
                f"power cut during write of page {page_id} "
                f"(torn at byte {crash.tear_at})"
            )

    def _apply_at_rest(self, page_id: int, new: bytes, fault: FiredFault) -> bytes:
        if fault.kind is FaultKind.WRITE_BIT_FLIP:
            return flip_bit(new, fault.bit)
        if fault.kind is FaultKind.TORN_WRITE:
            old = self.peek(page_id)
            return new[: fault.tear_at] + old[fault.tear_at :]
        if fault.kind is FaultKind.STUCK_WRITE:
            # The device acks but keeps the old bytes — including their
            # old, internally valid checksum.
            return self.peek(page_id)
        return new
