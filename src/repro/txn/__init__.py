"""Concurrent sessions: MVCC snapshot isolation over the redo-only WAL.

See DESIGN.md §5g.  Entry points:

* ``db.session()`` — open a :class:`~repro.txn.manager.Session`
  (``begin()/commit()/abort()`` with snapshot reads and first-writer-
  wins conflicts).
* :class:`~repro.txn.scheduler.SimScheduler` — deterministic seeded
  interleaving of N client scripts on the CostModel clock.
* :mod:`repro.txn.oracle` — independent committed-state folds for
  crash tests.
"""

from repro.txn.manager import Session, TransactionManager
from repro.txn.oracle import (
    committed_positional_fold,
    serial_fold,
    txn_outcomes,
)
from repro.txn.scheduler import SimScheduler, interleavings

__all__ = [
    "Session",
    "SimScheduler",
    "TransactionManager",
    "committed_positional_fold",
    "interleavings",
    "serial_fold",
    "txn_outcomes",
]
