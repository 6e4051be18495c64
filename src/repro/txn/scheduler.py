"""Deterministic interleaving of N client sessions on the CostModel clock.

There are no threads anywhere in this simulation — "concurrency" is a
scheduler round-robin over generator-based client scripts, one logical
step per resumption.  That buys exact reproducibility: a seed fully
determines the interleaving (and therefore every conflict, every group-
commit batch composition, and every crash-point state), while
:func:`interleavings` enumerates *every* schedule of small scripts for
exhaustive isolation-invariant checks.

A client script is a generator function ``script(client_index, session)``
that yields between steps::

    def client(i, session):
        session.begin()
        yield
        session.update("accounts", i, {"balance": 0})
        yield
        session.commit()

Scripts end by returning; exceptions propagate to :meth:`SimScheduler.run`
unless they are conflict aborts, which mark the script finished (the
losing transaction is already rolled back — retry is a new script).
"""

from __future__ import annotations

from repro.errors import TxnConflictError, TxnError
from repro.util.rng import DeterministicRng

#: Simulated cost of one scheduler dispatch (context-switch stand-in).
SCHEDULER_STEP_NS = 150.0


class SimScheduler:
    """Seeded (or explicitly scheduled) interleaver of client scripts."""

    def __init__(self, db, n_sessions: int, seed: int = 0) -> None:
        if n_sessions < 1:
            raise TxnError("SimScheduler needs at least one session")
        self._db = db
        self.sessions = [db.session() for _ in range(n_sessions)]
        self._rng = DeterministicRng(seed).child(0xC0DE)
        self._trace: list[int] = []
        self.conflicts = 0

    @property
    def trace(self) -> tuple[int, ...]:
        """Session index dispatched at each completed step."""
        return tuple(self._trace)

    def run(self, make_script, schedule=None) -> tuple[int, ...]:
        """Drive every session's script to completion; returns the trace.

        ``make_script(i, session)`` builds client ``i``'s generator.
        With ``schedule`` (an iterable of session indexes) the dispatch
        order is exactly that sequence — indexes of finished scripts are
        skipped — otherwise the seeded policy picks uniformly among
        unfinished scripts.  Each dispatch charges
        :data:`SCHEDULER_STEP_NS` to the CostModel clock.
        """
        scripts = [
            make_script(i, session) for i, session in enumerate(self.sessions)
        ]
        live = set(range(len(scripts)))
        planned = list(schedule) if schedule is not None else None
        cost = getattr(self._db, "cost_model", None)
        while live:
            if planned is not None:
                idx = None
                while planned:
                    candidate = planned.pop(0)
                    if candidate in live:
                        idx = candidate
                        break
                if idx is None:
                    idx = sorted(live)[0]
            else:
                idx = sorted(live)[self._rng.randrange(len(live))]
            if cost is not None:
                cost.charge(SCHEDULER_STEP_NS)
            try:
                next(scripts[idx])
            except StopIteration:
                live.discard(idx)
            except TxnConflictError:
                # The loser is already rolled back; its script is over.
                self.conflicts += 1
                live.discard(idx)
            self._trace.append(idx)
        return tuple(self._trace)


def interleavings(step_counts: list[int]):
    """Yield every merge order of ``len(step_counts)`` scripts.

    Each schedule is a tuple of script indexes in which script ``i``
    appears exactly ``step_counts[i]`` times, in order — the full
    schedule space the exhaustive isolation matrix walks (for two
    scripts of n and m steps that is C(n+m, n) schedules).
    """
    def rec(remaining):
        if not any(remaining):
            yield ()
            return
        for i, left in enumerate(remaining):
            if left:
                rest = list(remaining)
                rest[i] -= 1
                for tail in rec(rest):
                    yield (i,) + tail

    yield from rec(list(step_counts))
