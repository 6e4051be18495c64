"""Horizontal sharding: routing, scatter-gather, migration, recovery.

The §3 locality argument scaled *out* (ROADMAP items 9 and 16): shards
behave like memory tiers, and hot partitions migrate toward the shard
whose buffer pool can hold them.  See DESIGN.md §5i.
"""

from repro.shard.database import (
    RebalanceReport,
    ShardCheckReport,
    ShardedDatabase,
    ShardedTable,
)
from repro.shard.recovery import ShardRecoveryReport, recover_sharded
from repro.shard.router import ROUTER_MODES, ShardRouter, stable_key_hash

__all__ = [
    "ROUTER_MODES",
    "RebalanceReport",
    "ShardCheckReport",
    "ShardRecoveryReport",
    "ShardRouter",
    "ShardedDatabase",
    "ShardedTable",
    "recover_sharded",
    "stable_key_hash",
]
