"""Experiment drivers: one module per table/figure of the paper.

Each module exposes a ``run(...)`` returning structured rows and a
``main()`` that prints the same table/series the paper reports.  The
``benchmarks/`` tree wraps the paper-figure drivers with pytest-benchmark
and asserts the paper's *shape* claims (who wins, crossovers, approximate
factors); the extension drivers (``columnar``, ``shard``, ``adaptive``,
``txn``) each have a row in EXPERIMENTS.md "Extensions": the command
that reproduces its number and the ``python3 -m bench`` metric, if any,
that tracks it.

Modules are imported explicitly (``from repro.experiments import fig2a``)
rather than re-exported here, so ``python -m repro.experiments.fig2a``
works without double-import warnings.
"""
