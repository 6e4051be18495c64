"""Shard placement: hash and Zipf-aware hot-key spreading.

The §3 locality argument scaled out (ROADMAP items 9 and 16): shards
behave like memory tiers, and the router keeps every shard's *hot*
partition small enough to fit in that shard's buffer pool.  Two modes:

* ``hash`` — stable CRC32 of the routing key modulo shard count.
  ``hash()`` is salted per process (PYTHONHASHSEED), so the router never
  uses it: placement must be identical across runs and across the crash
  boundary (recovery re-derives base placement from key bytes alone).
* ``zipf`` — hash base placement plus an override map maintained from
  live :class:`~repro.core.hot_cold.tracker.AccessTracker` stats:
  :meth:`plan_rebalance` ranks the hot fraction of tracked keys by
  decayed count and deals them round-robin across shards, so the hot ~5%
  — which under a Zipfian workload would otherwise concentrate wherever
  the hash sent the head of the distribution — spreads evenly ("Exploiting
  Data Skew for Improved Query Performance", PAPERS.md).

The router itself is pure metadata: it never touches rows.  Moving the
bytes is :meth:`repro.shard.database.ShardedDatabase.rebalance`, which
applies a plan one failure-atomic migration at a time and calls
:meth:`apply_move` only after the copy is durable on the destination.
"""

from __future__ import annotations

import zlib

from repro.core.hot_cold.tracker import AccessTracker
from repro.errors import QueryError
from repro.obs.registry import MetricsRegistry, resolve_registry

#: Placement modes the router understands.
ROUTER_MODES = ("hash", "zipf")


def stable_key_hash(key: object) -> int:
    """Process-independent hash of a routing key.

    CRC32 over the key's canonical repr: deterministic across runs,
    machines, and PYTHONHASHSEED values — the property recovery leans on
    when it re-derives base placement from surviving rows.  Tuples and
    lists canonicalize to the same value (index keys arrive as either).
    """
    if isinstance(key, (tuple, list)):
        raw = "\x1f".join(repr(part) for part in key)
    else:
        raw = repr(key)
    return zlib.crc32(bytes(raw, "utf-8"))  # a type call: no frame


class ShardRouter:
    """Key → shard placement with hot-key spreading overrides."""

    def __init__(
        self,
        n_shards: int,
        mode: str = "hash",
        hot_fraction: float = 0.05,
        decay: float = 0.5,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """
        Args:
            n_shards: how many shards placement targets.
            mode: one of :data:`ROUTER_MODES`.
            hot_fraction: ``zipf`` mode — fraction of *tracked* keys a
                rebalance plan treats as hot (the paper's ~5%).
            decay: per-epoch multiplier for the access tracker.
            registry: sink for ``shard.router.*`` instruments.
        """
        if n_shards < 1:
            raise QueryError(f"need at least one shard, got {n_shards}")
        if mode not in ROUTER_MODES:
            raise QueryError(
                f"unknown router mode {mode!r}; expected one of {ROUTER_MODES}"
            )
        if not 0.0 < hot_fraction <= 1.0:
            raise QueryError("hot_fraction must be in (0, 1]")
        self.n_shards = n_shards
        self.hot_fraction = hot_fraction
        #: key -> shard, installed by completed migrations only.
        self._overrides: dict[object, int] = {}
        #: The live access tracker (``zipf`` mode only).
        self.tracker = AccessTracker(decay=decay) if mode == "zipf" else None
        #: Operations routed (``shard.router.routes``); and, while the
        #: facade's tracing is armed, the hops no trace root claimed yet.
        self.routes = 0
        self.hops: list[int] | None = None
        reg = resolve_registry(registry)
        reg.adopt(self, {"routes": "shard.router.routes"})
        self._m_overrides = reg.gauge("shard.router.overrides")

    # -- placement -----------------------------------------------------------

    def base_shard(self, key: object) -> int:
        """Placement before any override — pure function of the key."""
        return stable_key_hash(key) % self.n_shards

    def placement(self, key: object) -> int:
        """Current placement (override or base) without counting a route."""
        override = self._overrides.get(key)
        return override if override is not None else self.base_shard(key)

    def shard_of(self, key: object) -> int:
        """Route one operation on ``key``: count it, place it, feed the
        zipf-mode tracker and, while tracing is armed, queue the hop."""
        self.routes += 1
        over = self._overrides
        shard = over[key] if key in over else self.base_shard(key)
        if self.tracker is not None:
            self.tracker.record(key)
        if self.hops is not None:
            self.hops.append(shard)
        return shard

    def record_access(self, key: object) -> None:
        """Feed the zipf-mode tracker alone; a no-op in hash mode."""
        if self.tracker is not None:
            self.tracker.record(key)

    def advance_epoch(self) -> None:
        """Decay tracked counts one epoch (zipf mode; no-op otherwise)."""
        if self.tracker is not None:
            self.tracker.advance_epoch()

    # -- hot-key spreading ---------------------------------------------------

    def plan_rebalance(self) -> list[tuple[object, int, int]]:
        """Compute ``(key, src, dst)`` moves that spread the hot set.

        The hottest ``hot_fraction`` of tracked keys, ranked by decayed
        count (ties broken by stable hash, then repr — never ``hash()``),
        are dealt round-robin across shards; keys whose current placement
        already matches stay put.  Overrides for keys that have *cooled
        out* of the hot set are planned back to base placement, so the
        override map follows the workload instead of growing forever.

        Deterministic: two routers fed identical access sequences plan
        identical moves.  The plan is metadata only — nothing moves until
        the database applies it migration by migration.
        """
        if self.tracker is None or self.n_shards == 1:
            return []
        hot = self.tracker.hot_set(self.hot_fraction)
        ranked = sorted(
            hot,
            key=lambda k: (
                -self.tracker.count_of(k), stable_key_hash(k), repr(k)
            ),
        )
        target: dict[object, int] = {
            key: rank % self.n_shards for rank, key in enumerate(ranked)
        }
        moves: list[tuple[object, int, int]] = []
        for key in ranked:
            src = self.placement(key)
            if src != target[key]:
                moves.append((key, src, target[key]))
        cooled = [k for k in self._overrides if k not in target]
        cooled.sort(key=lambda k: (stable_key_hash(k), repr(k)))
        for key in cooled:
            moves.append((key, self._overrides[key], self.base_shard(key)))
        return moves

    def apply_move(self, key: object, dst: int) -> None:
        """Record that ``key`` now resides on ``dst`` (called after the
        copy is durable there).  Moving back to base drops the override."""
        if not 0 <= dst < self.n_shards:
            raise QueryError(f"shard {dst} outside 0..{self.n_shards - 1}")
        if dst == self.base_shard(key):
            self._overrides.pop(key, None)
        else:
            self._overrides[key] = dst
        self._m_overrides.set(float(len(self._overrides)))

    def set_override(self, key: object, shard: int) -> None:
        """Install an override directly (recovery's residency rebuild)."""
        self.apply_move(key, shard)
