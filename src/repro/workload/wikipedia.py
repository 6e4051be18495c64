"""Synthetic Wikipedia-shaped tables and traces.

Substitutes for the paper's production data (see DESIGN.md §2).  What the
experiments actually depend on — and what this generator reproduces:

* **page table** keyed by ``(page_namespace, page_title)`` — the
  name_title index of §2.1.4 — with the 4 extra fields the popular query
  class projects (``page_id``, ``page_latest``, ``page_touched``,
  ``page_len``).
* **revision table**: one tuple per edit, generated as a *temporal
  stream*: each step edits a zipf-chosen page, so the latest revision of
  a rarely-edited page lands anywhere in the table.  The result is the
  §3.1 pathology: hot tuples (the latest revision per page, ~5% of rows
  at ~20 revisions/page) scattered with roughly one hot tuple per heap
  page.
* **declared schemas** carry MediaWiki's wasteful types (14-byte
  timestamp strings, 8-byte ints for small ranges, over-wide VARCHARs) so
  the §4.1 analysis has its 16–83% to find.
* **traces**: rev-lookup trace (99.9% of requests to latest revisions,
  zipf over pages) and name_title lookup trace (zipf over pages).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.schema.schema import Schema
from repro.schema.types import (
    INT64,
    TIMESTAMP32,
    TIMESTAMP_STR14,
    UINT8,
    UINT32,
    char,
    varchar,
)
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution

#: Compact physical page-table schema (what a tuned system would store).
PAGE_SCHEMA = Schema.of(
    ("page_id", UINT32),
    ("page_namespace", UINT8),
    ("page_title", char(24)),
    ("page_latest", UINT32),
    ("page_touched", TIMESTAMP32),
    ("page_len", UINT32),
)

#: MediaWiki-style declared page schema (what the DDL says).
PAGE_SCHEMA_DECLARED = Schema.of(
    ("page_id", INT64),
    ("page_namespace", INT64),
    ("page_title", varchar(64)),
    ("page_latest", INT64),
    ("page_touched", TIMESTAMP_STR14),
    ("page_len", INT64),
)

#: Compact physical revision schema.
REVISION_SCHEMA = Schema.of(
    ("rev_id", UINT32),
    ("rev_page", UINT32),
    ("rev_text_id", UINT32),
    ("rev_user", UINT32),
    ("rev_timestamp", TIMESTAMP32),
    ("rev_minor_edit", UINT8),
    ("rev_len", UINT32),
    ("rev_comment", char(40)),
)

#: MediaWiki-style declared revision schema.
REVISION_SCHEMA_DECLARED = Schema.of(
    ("rev_id", INT64),
    ("rev_page", INT64),
    ("rev_text_id", INT64),
    ("rev_user", INT64),
    ("rev_timestamp", TIMESTAMP_STR14),
    ("rev_minor_edit", INT64),
    ("rev_len", INT64),
    ("rev_comment", varchar(100)),
)

_EPOCH_2010 = 1262304000  # 2010-01-01, the paper's era

#: 2010-era English Wikipedia id bases: the synthetic tables are a small
#: slice, but column *values* keep production-scale magnitudes so the §4.1
#: type inference sees realistic ranges (rev ids need 32 bits, not 16).
REV_ID_BASE = 340_000_000
PAGE_ID_BASE = 9_000_000

_COMMENT_POOL = (
    "",
    "typo",
    "rv vandalism",
    "copyedit",
    "Reverted edits by [[Special:Contrib]]",
    "/* History */ expanded with sources",
)


@dataclass
class WikipediaConfig:
    """Scale and skew knobs for the synthetic database."""

    n_pages: int = 5_000
    revisions_per_page_mean: int = 20
    edit_alpha: float = 1.0  # skew of which page each edit touches
    read_alpha: float = 1.0  # skew of which page each read touches
    hot_read_fraction: float = 0.999  # §3.1: 99.9% of reads hit latest revs
    seed: int = 0

    @property
    def total_revisions(self) -> int:
        return self.n_pages * self.revisions_per_page_mean


@dataclass
class WikipediaData:
    """Generated rows plus the derived hot-set ground truth."""

    config: WikipediaConfig
    page_rows: list[dict[str, object]]
    revision_rows: list[dict[str, object]]  # temporal (insertion) order
    latest_rev_by_page: dict[int, int]

    @property
    def hot_rev_ids(self) -> set[int]:
        """Revision ids that are the latest for their page (the hot set)."""
        return set(self.latest_rev_by_page.values())

    @property
    def hot_fraction(self) -> float:
        if not self.revision_rows:
            return 0.0
        return len(self.latest_rev_by_page) / len(self.revision_rows)


def generate(config: WikipediaConfig) -> WikipediaData:
    """Generate the synthetic page and revision tables."""
    if config.n_pages <= 0 or config.revisions_per_page_mean <= 0:
        raise WorkloadError("need at least one page and one revision")
    rng = DeterministicRng(config.seed)
    edit_dist = ZipfianDistribution(
        config.n_pages, config.edit_alpha, rng.child(1)
    )
    n_revs = config.total_revisions

    revision_rows: list[dict[str, object]] = []
    latest_rev_by_page: dict[int, int] = {}
    # Every page gets revision 0 up front (a page exists because it was
    # created); the remaining edits follow the zipf temporal stream.
    next_rev_id = 1
    targets = list(range(config.n_pages))
    rng.child(2).shuffle(targets)
    stream = targets + [
        edit_dist.sample() for _ in range(n_revs - config.n_pages)
    ]
    for step, page in enumerate(stream):
        rev_id = REV_ID_BASE + next_rev_id
        next_rev_id += 1
        revision_rows.append(
            {
                "rev_id": rev_id,
                "rev_page": PAGE_ID_BASE + page,
                "rev_text_id": rev_id,
                "rev_user": rng.randrange(12_000_000),
                "rev_timestamp": _EPOCH_2010 + step * 60,
                "rev_minor_edit": 1 if rng.bernoulli(0.3) else 0,
                "rev_len": rng.randint(100, 200_000),
                # Most real edit comments are unique free text; a minority
                # are boilerplate (reverts, typo fixes).
                "rev_comment": (
                    rng.choice(_COMMENT_POOL)
                    if rng.bernoulli(0.3)
                    else f"/* sec {rng.randrange(40)} */ edit r{rev_id}"
                ),
            }
        )
        latest_rev_by_page[page] = rev_id

    page_rows = []
    for page in range(config.n_pages):
        page_rows.append(
            {
                "page_id": PAGE_ID_BASE + page,
                "page_namespace": 0 if rng.bernoulli(0.8) else rng.randint(1, 15),
                "page_title": f"Page_{PAGE_ID_BASE + page:08d}",
                "page_latest": latest_rev_by_page[page],
                "page_touched": _EPOCH_2010 + (n_revs - rng.randrange(n_revs)) * 60,
                "page_len": rng.randint(100, 200_000),
            }
        )
    return WikipediaData(
        config=config,
        page_rows=page_rows,
        revision_rows=revision_rows,
        latest_rev_by_page=latest_rev_by_page,
    )


def revision_lookup_trace(
    data: WikipediaData, n_lookups: int, seed: int = 100
) -> list[int]:
    """A stream of rev_id lookups: ``hot_read_fraction`` of them hit the
    latest revision of a zipf-chosen page; the remainder are history reads
    of random old revisions."""
    rng = DeterministicRng(seed)
    read_dist = ZipfianDistribution(
        data.config.n_pages, data.config.read_alpha, rng.child(1)
    )
    n_revs = len(data.revision_rows)
    trace = []
    for _ in range(n_lookups):
        if rng.random() < data.config.hot_read_fraction:
            page = read_dist.sample()
            trace.append(data.latest_rev_by_page[page])
        else:
            trace.append(data.revision_rows[rng.randrange(n_revs)]["rev_id"])  # type: ignore[arg-type]
    return trace


def name_title_lookup_trace(
    data: WikipediaData, n_lookups: int, seed: int = 200
) -> list[tuple[int, str]]:
    """A stream of ``(namespace, title)`` keys for the §2.1.4 query class
    ("the most popular class (40%) of queries accesses the page table
    using the name_title index")."""
    rng = DeterministicRng(seed)
    read_dist = ZipfianDistribution(
        data.config.n_pages, data.config.read_alpha, rng.child(1)
    )
    trace = []
    for _ in range(n_lookups):
        row = data.page_rows[read_dist.sample()]
        trace.append((row["page_namespace"], row["page_title"]))
    return trace  # type: ignore[return-value]


def declared_revision_row(row: dict[str, object]) -> dict[str, object]:
    """Convert a compact revision row into its MediaWiki declared form
    (timestamp back to a 14-char string, etc.) for the §4.1 analysis."""
    import time

    out = dict(row)
    out["rev_timestamp"] = time.strftime(
        "%Y%m%d%H%M%S", time.gmtime(int(row["rev_timestamp"]))  # type: ignore[arg-type]
    )
    return out
