"""Online hot/cold management (§3.1's automated-policy direction).

Wikipedia's policy is structural (hot = latest revision per page), but the
paper notes: "Other applications may have different policies, or require
automated tools to keep track of access patterns."  This manager is that
tool: it records every lookup into a decayed
:class:`~repro.core.hot_cold.tracker.AccessTracker` and, at epoch
boundaries, migrates rows between the partitions of a
:class:`~repro.core.hot_cold.partitioner.HotColdPartitionedTable` so the
hot partition converges to the hottest ``hot_capacity`` keys.

Migration is budgeted per epoch: moving a tuple is a delete+insert (the
§3.1 relocation), so a shifting workload is followed gradually rather than
with a reorganisation storm.
"""

from __future__ import annotations

from repro.core.hot_cold.partitioner import (
    HotColdPartitionedTable,
    identity_index,
)
from repro.core.hot_cold.tracker import AccessTracker
from repro.errors import StorageError, WorkloadError
from repro.obs.registry import MetricsRegistry, resolve_registry


class OnlineHotColdManager:
    """Drives a partitioned table from observed access frequencies."""

    def __init__(
        self,
        table: HotColdPartitionedTable,
        hot_capacity: int,
        ops_per_epoch: int = 10_000,
        migration_budget: int = 256,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """
        Args:
            table: the two-partition table to manage.
            hot_capacity: target number of rows in the hot partition.
            ops_per_epoch: lookups between automatic rebalances (each
                rebalance halves the access tracker's counts).
            migration_budget: max promote+demote moves per rebalance.
            registry: metrics sink for the ``hotcold.*`` instruments.
        """
        if hot_capacity <= 0:
            raise WorkloadError("hot_capacity must be positive")
        if ops_per_epoch <= 0 or migration_budget <= 0:
            raise WorkloadError("epoch and budget must be positive")
        self.table = table
        #: Target number of rows in the hot partition (adaptive knob).
        self.hot_capacity = hot_capacity
        self.tracker = AccessTracker()
        #: Lookups between automatic rebalances (adaptive knob).
        self.ops_per_epoch = ops_per_epoch
        self._budget = migration_budget
        self._ops_since_rebalance = 0
        reg = resolve_registry(registry)
        self._m_lookups = reg.counter("hotcold.lookups")
        self._m_rebalances = reg.counter("hotcold.rebalances")
        self._m_promotions = reg.counter("hotcold.promotions")
        self._m_demotions = reg.counter("hotcold.demotions")
        self._m_migrated_bytes = reg.counter("hotcold.migrations.bytes")
        self._m_aborts = reg.counter("hotcold.migration_aborts")
        self._m_hot_rows = reg.gauge("hotcold.hot_rows")
        self._m_hit = reg.counter("hotcold.hit")
        self._m_miss = reg.counter("hotcold.miss")
        self._m_cap_knob = reg.gauge("adaptive.knob.hotcold.hot_capacity")
        self._m_epoch_knob = reg.gauge("adaptive.knob.hotcold.ops_per_epoch")
        self._m_cap_knob.set(float(self.hot_capacity))
        self._m_epoch_knob.set(float(self.ops_per_epoch))

    def set_hot_capacity(self, hot_capacity: int) -> None:
        """Retune the hot-fraction target; applied at the next rebalance."""
        if hot_capacity <= 0:
            raise WorkloadError("hot_capacity must be positive")
        self.hot_capacity = int(hot_capacity)
        self._m_cap_knob.set(float(self.hot_capacity))

    def set_ops_per_epoch(self, ops_per_epoch: int) -> None:
        """Retune the rebalance cadence.

        Takes effect immediately: if the ops already accumulated since
        the last rebalance meet the new (shorter) epoch, the next tracked
        lookup triggers one.
        """
        if ops_per_epoch <= 0:
            raise WorkloadError("epoch and budget must be positive")
        self.ops_per_epoch = int(ops_per_epoch)
        self._m_epoch_knob.set(float(self.ops_per_epoch))

    # -- the query path ----------------------------------------------------------

    def lookup(
        self, key_value: object, project: tuple[str, ...] | None = None
    ) -> dict[str, object] | None:
        """Tracked lookup; triggers a rebalance every ``ops_per_epoch``."""
        self._m_lookups.inc()
        self.tracker.record(key_value)
        self._ops_since_rebalance += 1
        hot_before = self.table.hot_lookups
        result = self.table.lookup(key_value, project)
        # hit = served by the hot partition; the delta pair feeds the
        # sampler's ``derived.hotcold.hit_rate`` selector per window.
        if self.table.hot_lookups > hot_before:
            self._m_hit.inc()
        else:
            self._m_miss.inc()
        if self._ops_since_rebalance >= self.ops_per_epoch:
            self.rebalance()
        return result

    # -- rebalancing ---------------------------------------------------------------

    def rebalance(self) -> None:
        """Migrate toward "hot partition = hottest ``hot_capacity`` keys".

        Promotions (cold keys hotter than the coldest hot resident) are
        applied before demotions, both bounded by the migration budget.
        A move that hits a storage fault mid-flight is counted as aborted
        (``hotcold.migration_aborts``) and skipped —
        ``HotColdPartitionedTable._move`` guarantees the abort leaves the
        partition map consistent, and an aborted move still spends budget
        (its I/O was real).  What each pass did is counted in the
        ``hotcold.*`` instruments, not kept.
        """
        self._ops_since_rebalance = 0
        want_hot = set(self.tracker.hottest(self.hot_capacity))
        budget = self._budget
        promoted = 0
        demoted = 0
        aborted = 0
        # Batched record prefetch: pull the move sources in page order,
        # one pin per page, so the per-key copy-then-delete moves below
        # find their records already pooled.
        self.table.warm_records(
            [k for k in want_hot if not self.table.is_hot(k)][: budget],
            hot=False,
        )
        for key in want_hot:
            if budget <= 0:
                break
            if not self.table.is_hot(key):
                try:
                    moved = self.table.promote(key)
                except StorageError:
                    aborted += 1
                    budget -= 1
                    continue
                if moved:
                    promoted += 1
                    budget -= 1
        # Demote residents that fell out of the hot set, until the hot
        # partition is back at (or under) capacity.
        if self.table.hot.num_rows > self.hot_capacity and budget > 0:
            residents = self._hot_residents()
            coldest_first = sorted(
                residents, key=self.tracker.count_of
            )
            excess = self.table.hot.num_rows - self.hot_capacity
            demote_candidates = [
                k for k in coldest_first if k not in want_hot
            ][: min(budget, excess)]
            self.table.warm_records(demote_candidates, hot=True)
            for key in coldest_first:
                if budget <= 0 or excess <= 0:
                    break
                if key in want_hot:
                    continue
                try:
                    moved = self.table.demote(key)
                except StorageError:
                    aborted += 1
                    budget -= 1
                    continue
                if moved:
                    demoted += 1
                    excess -= 1
                    budget -= 1
        self.tracker.advance_epoch()
        self._m_rebalances.inc()
        self._m_promotions.inc(promoted)
        self._m_demotions.inc(demoted)
        self._m_aborts.inc(aborted)
        # A migration is a delete+insert of the full row (§3.1), so the
        # bytes moved per rebalance are moves × record width.
        self._m_migrated_bytes.inc(
            (promoted + demoted) * self.table.schema.record_size
        )
        self._m_hot_rows.set(self.table.hot.num_rows)

    def _hot_residents(self) -> list[object]:
        """Keys currently in the hot partition (decoded from its index)."""
        index = identity_index(self.table.hot)
        return [index.key_codec.decode(key) for key, _ in index.tree.items()]

    def hot_hit_rate(self) -> float:
        """Fraction of lookups served by the hot partition so far."""
        total = self.table.hot_lookups + self.table.cold_lookups
        return self.table.hot_lookups / total if total else 0.0
