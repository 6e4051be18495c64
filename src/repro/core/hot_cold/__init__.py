"""Locality-waste reclamation (§3): access tracking, clustering, and
hot/cold partitioning."""

from repro.core.hot_cold.tracker import AccessTracker
from repro.core.hot_cold.forwarding import ForwardingTable
from repro.core.hot_cold.cluster import ClusterReport, cluster_hot_tuples
from repro.core.hot_cold.partitioner import HotColdPartitionedTable
from repro.core.hot_cold.manager import OnlineHotColdManager
from repro.core.hot_cold.vertical import (
    VerticalPartitioning,
    VerticallyPartitionedTable,
    recommend_update_split,
    recommend_vertical_split,
)

__all__ = [
    "AccessTracker",
    "ForwardingTable",
    "ClusterReport",
    "cluster_hot_tuples",
    "HotColdPartitionedTable",
    "OnlineHotColdManager",
    "VerticalPartitioning",
    "VerticallyPartitionedTable",
    "recommend_vertical_split",
    "recommend_update_split",
]
