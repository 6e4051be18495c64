"""Experiment drivers: one module per table/figure of the paper.

Each module exposes a ``run(...)`` returning structured rows and a
``main()`` that prints the same table/series the paper reports.  The
``benchmarks/`` tree wraps the paper-figure drivers with pytest-benchmark
and asserts the paper's *shape* claims (who wins, crossovers, approximate
factors); the engine drivers (``batched``, ``wal``, ``columnar``,
``shard``) are pinned at reduced scale in tier-1 and timed by
``python3 -m bench``.

Modules are imported explicitly (``from repro.experiments import fig2a``)
rather than re-exported here, so ``python -m repro.experiments.fig2a``
works without double-import warnings.
"""
