"""Deterministic, seeded fault injection.

The :class:`FaultInjector` is the single source of randomness for the
fault layer.  :class:`~repro.faults.disk.FaultyDisk` consults it on every
page I/O; the injector walks the armed plan's specs in order, decides
which fire, and draws any corruption parameters (bit position, tear
point) from one seeded stream.  Same seed + same plan + same I/O
sequence ⇒ the same faults, bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, NO_FAULTS
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.util.rng import DeterministicRng

#: Torn writes land on simulated sector boundaries: the prefix that
#: "made it to disk" is a whole number of 512-byte sectors.
SECTOR_SIZE = 512


@dataclass(frozen=True)
class FiredFault:
    """One fault the injector decided to apply, with its draw parameters.

    ``bit`` is the absolute bit index to flip (bit-flip kinds) and
    ``tear_at`` the byte offset where a torn write cuts over from new to
    old bytes (torn writes); both are ``None`` when inapplicable.
    """

    kind: FaultKind
    page_id: int
    seq: int
    bit: int | None = None
    tear_at: int | None = None


class FaultInjector:
    """Seeded oracle deciding which faults fire on which page I/Os.

    Starts disarmed (the :data:`~repro.faults.plan.NO_FAULTS` plan) so a
    database can be built and loaded cleanly, then :meth:`arm`\\ ed with a
    real plan once the interesting phase of a workload begins.
    """

    def __init__(
        self,
        seed: int = 0,
        plan: FaultPlan | None = None,
        page_size: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._rng = DeterministicRng(seed)
        self.seed = int(seed)
        self._page_size = int(page_size)
        self.plan = plan if plan is not None else NO_FAULTS
        # Per-spec matching-I/O counts (for at_nth) and fire counts (for
        # max_times), keyed by position in the plan.
        self._matches: dict[int, int] = {}
        self._fired: dict[int, int] = {}
        self._seq = 0
        self.log: list[FiredFault] = []
        metrics = resolve_registry(registry)
        self._m_injected = metrics.counter("faults.injected")
        self._m_kind = {
            kind: metrics.counter(f"faults.kind.{kind.value}") for kind in FaultKind
        }

    @property
    def injected(self) -> int:
        """Total faults fired since construction (survives re-arming)."""
        return len(self.log)

    def arm(self, plan: FaultPlan) -> None:
        """Install ``plan``, resetting per-spec trigger state.

        The RNG stream and the fault log are *not* reset: determinism is
        defined over the whole run, including earlier phases.
        """
        self.plan = plan
        self._matches = {}
        self._fired = {}

    def disarm(self) -> None:
        """Stop injecting (equivalent to arming the empty plan)."""
        self.arm(NO_FAULTS)

    # -- decision points ------------------------------------------------------

    def on_read(self, page_id: int) -> list[FiredFault]:
        """Faults to apply to this ``read_page``, in plan order."""
        return self._decide(page_id, want_read=True)

    def on_write(self, page_id: int) -> list[FiredFault]:
        """Faults to apply to this ``write_page``, in plan order."""
        return self._decide(page_id, want_read=False)

    def _decide(self, page_id: int, want_read: bool) -> list[FiredFault]:
        fired: list[FiredFault] = []
        for idx, spec in enumerate(self.plan.specs):
            if spec.is_read_fault != want_read:
                continue
            if not spec.matches_page(page_id):
                continue
            self._matches[idx] = self._matches.get(idx, 0) + 1
            if not self._should_fire(idx, spec):
                continue
            self._fired[idx] = self._fired.get(idx, 0) + 1
            fired.append(self._draw(spec.kind, page_id))
        return fired

    def _should_fire(self, idx: int, spec: FaultSpec) -> bool:
        if spec.max_times is not None and self._fired.get(idx, 0) >= spec.max_times:
            return False
        if spec.at_nth is not None:
            return self._matches[idx] == spec.at_nth
        return self._rng.bernoulli(spec.probability)

    def _draw(self, kind: FaultKind, page_id: int) -> FiredFault:
        self._seq += 1
        bit = None
        tear_at = None
        if kind in (FaultKind.READ_BIT_FLIP, FaultKind.WRITE_BIT_FLIP):
            bit = self._rng.randrange(self._page_size * 8)
        elif kind in (FaultKind.TORN_WRITE, FaultKind.CRASH_POINT):
            sectors = max(1, self._page_size // SECTOR_SIZE)
            # At least one sector makes it, at least one doesn't (else the
            # write would be complete or fully stuck, not torn).
            tear_at = SECTOR_SIZE * self._rng.randint(1, max(1, sectors - 1))
        fault = FiredFault(
            kind=kind, page_id=page_id, seq=self._seq, bit=bit, tear_at=tear_at
        )
        self.log.append(fault)
        self._m_injected.inc()
        self._m_kind[kind].inc()
        return fault
