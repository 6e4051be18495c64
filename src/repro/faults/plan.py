"""Composable, declarative fault plans.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultSpec`\\ s; each
spec names a fault kind, a deterministic trigger (fire on exactly the Nth
matching I/O, or with a per-I/O probability drawn from the injector's
seeded RNG), an optional page filter, and a cap on how often it may fire.
Plans are data: the same plan + the same seed + the same I/O stream
reproduces the same faults bit-for-bit, which is what makes crash-style
testing debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.errors import FaultPlanError


class FaultKind(Enum):
    """The fault taxonomy (see DESIGN.md "Failure model & recovery").

    Read-path kinds fire on ``read_page``; write-path kinds on
    ``write_page``.  Transient kinds raise and leave stored bytes intact;
    the rest corrupt silently and are caught later by checksums.
    """

    #: ``read_page`` raises :class:`~repro.errors.TransientIOError`;
    #: stored bytes intact, a retry may succeed.
    TRANSIENT_READ_ERROR = "transient_read_error"
    #: ``write_page`` raises before applying anything.
    TRANSIENT_WRITE_ERROR = "transient_write_error"
    #: One bit flips in the *returned copy* of a read; the stored page is
    #: untouched, so a corrective re-read heals it.
    READ_BIT_FLIP = "read_bit_flip"
    #: One bit flips in the stored bytes as they are written (at rest).
    WRITE_BIT_FLIP = "write_bit_flip"
    #: Only a sector-aligned prefix of the write reaches the page; the
    #: tail keeps the old bytes (a torn / partial page write).
    TORN_WRITE = "torn_write"
    #: The write is silently dropped; the page keeps its old bytes and
    #: its old (internally valid) checksum — only the freshness check
    #: can catch it.
    STUCK_WRITE = "stuck_write"
    #: Power cut mid-write: the page is torn exactly like
    #: :attr:`TORN_WRITE`, then the "machine dies" —
    #: :class:`~repro.errors.SimulatedCrashError` propagates and must
    #: never be retried.  Harnesses discard all in-memory state and
    #: restart via WAL replay (:func:`repro.wal.replay.recover`).
    CRASH_POINT = "crash_point"


_READ_KINDS = frozenset({FaultKind.TRANSIENT_READ_ERROR, FaultKind.READ_BIT_FLIP})
_WRITE_KINDS = frozenset(
    {
        FaultKind.TRANSIENT_WRITE_ERROR,
        FaultKind.WRITE_BIT_FLIP,
        FaultKind.TORN_WRITE,
        FaultKind.STUCK_WRITE,
        FaultKind.CRASH_POINT,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: a kind, a trigger, and an optional scope.

    Exactly one trigger must be set: ``at_nth`` (fire on the Nth I/O this
    spec matches, 1-based) or ``probability`` (an independent seeded coin
    per matching I/O).  ``page_filter`` restricts which pages the spec
    matches; it must be deterministic.  ``max_times`` caps total fires
    (``None`` = unlimited; ``at_nth`` specs implicitly fire once).
    """

    kind: FaultKind
    probability: float = 0.0
    at_nth: int | None = None
    page_filter: Callable[[int], bool] | None = None
    max_times: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise FaultPlanError(f"kind must be a FaultKind, got {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.at_nth is not None and self.at_nth < 1:
            raise FaultPlanError("at_nth is 1-based and must be >= 1")
        has_nth = self.at_nth is not None
        has_prob = self.probability > 0.0
        if has_nth == has_prob:
            raise FaultPlanError(
                "exactly one trigger required: at_nth or probability > 0"
            )
        if self.max_times is not None and self.max_times < 1:
            raise FaultPlanError("max_times must be >= 1 (or None)")

    @property
    def is_read_fault(self) -> bool:
        return self.kind in _READ_KINDS

    def matches_page(self, page_id: int) -> bool:
        return self.page_filter is None or bool(self.page_filter(page_id))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable set of fault specs."""

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultPlanError(f"plan entries must be FaultSpec, got {spec!r}")

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(tuple(specs))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(self.specs + other.specs)

#: The inert plan: inject nothing (useful for overhead measurement).
NO_FAULTS = FaultPlan()
