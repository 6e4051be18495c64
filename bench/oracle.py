"""The dict oracle: what every call must answer, decided before it runs.

Workloads keep a plain-Python model (dicts and running sums) beside the
engine, update it as they *plan* each write, and attach the expected
answer to every planned call.  The runner executes the call inside the
timed bracket and hands the answer to :class:`Checker` only after the
clock has stopped.  No workload contains a call that is expected to
fail, so planning ahead of execution is sound: if a call misbehaves the
model and the engine diverge and the following checks fail too.
"""

from __future__ import annotations

import math

from repro.errors import TxnConflictError

#: Expected "answer" of a session statement that must lose a
#: first-writer-wins race (counted in ``txn.conflict_frac``, not failed).
CONFLICT = "conflict"

# How an answer is compared (the ``kind`` of a planned call).
ROW = "row"        # LookupResult vs a full/projected row dict, or None
ROWS = "rows"      # list[LookupResult] vs list[row | None]
EQUAL = "equal"    # answer == expected (update/delete booleans, CSNs)
ANY = "any"        # only has to return (Rid, RebalanceReport, LSN)
SCAN = "scan"      # list[dict] vs (columns, (count, sum col0, sum col1))
AGG = "agg"        # aggregate dict, floats compared with isclose


class Checker:
    """Counts calls attempted and calls that raised or disagreed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, kind: str, expected, answer) -> bool:
        """``answer`` as :func:`summarize` left it."""
        self.attempted += 1
        ok = _agrees(kind, expected, answer)
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = (
                    f"{kind}: expected {expected!r:.200}, got {answer!r:.200}"
                )
        return ok


def summarize(kind: str, expected, answer):
    """Shrink a scan's rows to ``(count, sum col0, sum col1)`` as soon as
    its clock has stopped, so a cycle of scans is not held in memory."""
    if kind == SCAN and isinstance(answer, list):
        c0, c1 = expected[0]
        return (len(answer), sum(r[c0] for r in answer),
                sum(r[c1] for r in answer))
    return answer


def _agrees(kind: str, expected, answer) -> bool:
    if isinstance(answer, BaseException):
        return expected is CONFLICT and isinstance(answer, TxnConflictError)
    if expected is CONFLICT:
        return False
    if kind == ANY:
        return True
    if kind == EQUAL:
        return answer == expected
    if kind == ROW:
        return _row_agrees(expected, answer)
    if kind == ROWS:
        return len(answer) == len(expected) and all(
            _row_agrees(e, a) for e, a in zip(expected, answer)
        )
    if kind == SCAN:
        return answer == expected[1]
    if kind == AGG:
        return answer.keys() == expected.keys() and all(
            _value_agrees(expected[k], answer[k]) for k in expected
        )
    raise ValueError(f"unknown answer kind {kind!r}")


def _row_agrees(expected, result) -> bool:
    if expected is None:
        return not result.found
    return result.found and result.values == expected


def _value_agrees(expected, got) -> bool:
    if isinstance(expected, float) and isinstance(got, (int, float)):
        return math.isclose(expected, got, rel_tol=1e-12, abs_tol=1e-12)
    return expected == got


class ShapeStats:
    """Incremental answer to one predicate shape over the columnar table.

    Re-evaluating a predicate over 12 000 model rows per query would cost
    ten times the query being checked, so each shape keeps the count and
    sums of its matching rows and adjusts them per planned update.
    ``n`` is bounded (0..499), so min/max come from a histogram.
    """

    N_RANGE = 500

    def __init__(self, matches) -> None:
        self.matches = matches
        self.count = 0
        self.sum_id = 0
        self.sum_n = 0
        self.sum_d = 0
        self.n_hist = [0] * self.N_RANGE

    def add(self, row: dict, sign: int = 1) -> None:
        if self.matches(row):
            self.count += sign
            self.sum_id += sign * row["id"]
            self.sum_n += sign * row["n"]
            self.sum_d += sign * row["d"]
            self.n_hist[row["n"]] += sign

    def scan_answer(self):
        return ("id", "n"), (self.count, self.sum_id, self.sum_n)

    def aggregate_answer(self) -> dict:
        """The answer to ``experiments.columnar.AGG_SPECS``."""
        if not self.count:
            return {"count": 0, "sum(n)": 0, "min(n)": None, "max(n)": None,
                    "avg(d)": None}
        present = [n for n, c in enumerate(self.n_hist) if c]
        return {
            "count": self.count,
            "sum(n)": self.sum_n,
            "min(n)": present[0],
            "max(n)": present[-1],
            "avg(d)": self.sum_d / self.count,
        }


def check_recovered(
    checker: Checker, expected: dict, table, wal_records, key_column: str
) -> None:
    """The durability check: the recovered table against two oracles.

    ``expected`` is the dict model restricted to what was acknowledged at
    or below the flushed LSN (plus every committed transaction); the
    second oracle is ``repro.txn.oracle.serial_fold`` over the durable
    log, which must agree with both.  Every key is one post-recovery
    read: attempted once, failed if any source disagrees.
    """
    from repro.txn.oracle import serial_fold

    got = {row[key_column]: row for row in table.scan(use_columnar=False)}
    fold = serial_fold(wal_records, table.name, table.schema, key_column)
    for key in expected.keys() | got.keys() | fold.keys():
        want = expected.get(key)
        checker.check(
            EQUAL, (want, want), (got.get(key), fold.get(key))
        )
