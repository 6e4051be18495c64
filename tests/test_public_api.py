"""The top-level package exports: the documented public surface."""

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__ == "0.1.0"


def test_core_entry_points_importable():
    # The README's advertised imports must exist exactly as documented.
    from repro import Database, Schema, UINT32, UINT64, char  # noqa: F401
    from repro.core.index_cache import CachedBTree, SwapCacheSimulator  # noqa: F401
    from repro.core.hot_cold import (  # noqa: F401
        HotColdPartitionedTable,
        cluster_hot_tuples,
    )
    from repro.core.encoding import optimize_schema, migrate_table  # noqa: F401
    from repro.core.semantic_ids import EmbeddedId, RidProxyTable  # noqa: F401
    from repro.workload import generate_wikipedia  # noqa: F401
    from repro.sim import CostModel, PAPER_PRESET  # noqa: F401


def test_experiment_drivers_importable():
    from repro.experiments import (  # noqa: F401
        ablations,
        capacity,
        encoding_waste,
        fig2a,
        fig2b,
        fig2c,
        fig3,
        fill_factor,
        headline,
    )
    for module in (fig2a, fig2b, fig2c, fig3, capacity, encoding_waste,
                   fill_factor, headline, ablations):
        assert hasattr(module, "run") or hasattr(module, "main")


def test_txn_entry_points_importable():
    from repro import Session, SimScheduler, TransactionManager  # noqa: F401
    from repro.txn import (  # noqa: F401
        committed_positional_fold,
        interleavings,
        serial_fold,
        txn_outcomes,
    )
    from repro.experiments import txn as txn_experiment

    assert hasattr(txn_experiment, "main")
    assert hasattr(txn_experiment, "run_contention")


def test_columnar_entry_points_importable():
    from repro.columnar import (  # noqa: F401
        ColumnarManager,
        ColumnStore,
        compile_predicate,
        decode_column,
        encode_column,
    )
    from repro.experiments import columnar as columnar_experiment

    assert hasattr(columnar_experiment, "main")
    assert hasattr(columnar_experiment, "run")
