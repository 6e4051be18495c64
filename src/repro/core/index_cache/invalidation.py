"""Cache consistency: CSNs and the predicate log (§2.1.2).

Two mechanisms, exactly as the paper sketches:

1. **Full invalidation via sequence numbers.**  Every page header carries a
   cache sequence number ``CSN_p`` and the index keeps a global
   ``CSN_idx``, preserving the invariants (i) ``CSN_p <= CSN_idx`` and
   (ii) a page's cache is valid only when ``CSN_p == CSN_idx``.
   Incrementing ``CSN_idx`` therefore invalidates every page's cache in
   O(1) — pages lazily notice the mismatch on their next read, zero their
   window, and re-stamp.

2. **Predicate log for targeted invalidation.**  Updates append a
   predicate that uniquely identifies the modified tuple (here: its exact
   index key) to an in-memory log.  When a page is read during normal
   query execution, any logged predicate matching a key in the page zeroes
   that page's cache.  If the log exceeds a threshold, we increment
   ``CSN_idx`` and clear it — trading precision for bounded memory.

Implementation note: the 8-byte on-page CSN field is split into a 32-bit
*epoch* (the paper's CSN) and a 32-bit *log position*: the position lets a
page remember how much of the predicate log it has already checked, so
re-reads only scan new predicates.  Positions reset when the epoch bumps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.index_cache.cache import IndexCache
from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.storage.page import SlottedPage

_EPOCH_SHIFT = 32
_POS_MASK = 0xFFFFFFFF
#: Predicates logged before a full invalidation, unless told otherwise.
LOG_THRESHOLD = 1024


@dataclass(frozen=True)
class UpdatePredicate:
    """A predicate uniquely identifying one updated tuple by its index key."""

    key: bytes

    def matches_range(self, first_key: bytes, last_key: bytes) -> bool:
        """True if the key could be in a page covering [first, last]."""
        return first_key <= self.key <= last_key


class CacheInvalidation:
    """Global CSN + predicate log for one cached index."""

    def __init__(
        self,
        log_threshold: int = LOG_THRESHOLD,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if log_threshold <= 0:
            raise ReproError("log_threshold must be positive")
        #: The global CSN (the paper's ``CSN_idx``).
        self.csn_index = 1  # start above the zero freshly-formatted pages carry
        self._log: list[UpdatePredicate] = []
        self.log_threshold = log_threshold
        self.full_invalidations = 0
        self.predicates_logged = 0
        self.pages_zeroed = 0
        resolve_registry(registry).adopt(self, {
            "full_invalidations": "index_cache.invalidation.csn",
            "predicates_logged": "index_cache.invalidation.predicates",
            "pages_zeroed": "index_cache.invalidation.pages_zeroed",
        })

    # -- properties ----------------------------------------------------------

    @property
    def current_stamp(self) -> int:
        """What a validated page's ``cache_csn`` reads right now.

        A page already carrying it has seen this epoch and every logged
        predicate: :meth:`validate_page` would neither zero nor change it,
        so readers may skip the call (and the page keys it needs).
        """
        return (self.csn_index << _EPOCH_SHIFT) | len(self._log)

    @classmethod
    def after_restart(cls, max_persisted_csn: int) -> "CacheInvalidation":
        """Recover the invalidation state after a crash (§2.1.2).

        The predicate log was in memory and is gone; any cache contents
        that reached disk (as a side effect of dirty-page write-back) may
        be stale.  Correctness needs ``CSN_idx`` to exceed every persisted
        page stamp, so every surviving cache reads as invalid on first
        touch.  ``max_persisted_csn`` is the highest ``cache_csn`` found
        while scanning index pages at startup (the epoch half of the
        stamp is what matters).
        """
        instance = cls()
        persisted_epoch = max_persisted_csn >> _EPOCH_SHIFT
        instance.csn_index = (persisted_epoch + 1) & _POS_MASK or 1
        return instance

    # -- write-side ------------------------------------------------------------

    def note_update(self, key: bytes) -> None:
        """Record that the tuple with index key ``key`` was modified."""
        self._log.append(UpdatePredicate(bytes(key)))
        self.predicates_logged += 1
        if len(self._log) > self.log_threshold:
            self.invalidate_all()

    def invalidate_all(self) -> None:
        """Increment ``CSN_idx``: every page cache becomes invalid at once."""
        self.csn_index = (self.csn_index + 1) & _POS_MASK or 1
        self._log.clear()
        self.full_invalidations += 1

    # -- read-side ---------------------------------------------------------------

    def validate_page(
        self,
        page: SlottedPage,
        cache: IndexCache,
        first_key: bytes | None,
        last_key: bytes | None,
    ) -> bool:
        """Enforce the CSN invariants on a page just read (§2.1.2).

        Called on the normal query path before the cache is probed.  Zeroes
        the page's cache window if the page is stale (epoch mismatch) or if
        a new logged predicate matches the page's key range, then re-stamps
        the page as current.

        Returns True if the window was zeroed.
        """
        stamp = page.cache_csn
        epoch_p = stamp >> _EPOCH_SHIFT
        pos_p = stamp & _POS_MASK
        current_pos = len(self._log)
        if epoch_p != self.csn_index:
            # Invariant: CSN_p != CSN_idx  =>  cache invalid.
            cache.zero_window(page)
            self._stamp(page)
            self.pages_zeroed += 1
            return True
        if pos_p < current_pos and first_key is not None and last_key is not None:
            for predicate in self._log[pos_p:current_pos]:
                if predicate.matches_range(first_key, last_key):
                    cache.zero_window(page)
                    self._stamp(page)
                    self.pages_zeroed += 1
                    return True
        self._stamp(page)
        return False

    def validate_heap_page(self, page: SlottedPage, cache: IndexCache) -> bool:
        """The :meth:`validate_page` variant for caches over *heap* pages.

        A heap page has no sorted key region, so there is no page key
        range to match predicates against.  What the predicates identify
        is the cached items' *tuple ids* (the §2.2 FkJoinCache uses the
        parent's encoded key as the tuple id), so the match range is
        derived from the tids actually cached in the page's window.
        Epoch semantics are identical to :meth:`validate_page`; the tid
        scan only happens when the page is behind the predicate log.

        Returns True if the window was zeroed.
        """
        stamp = page.cache_csn
        epoch_p = stamp >> _EPOCH_SHIFT
        pos_p = stamp & _POS_MASK
        current_pos = len(self._log)
        if epoch_p != self.csn_index:
            cache.zero_window(page)
            self._stamp(page)
            self.pages_zeroed += 1
            return True
        if pos_p < current_pos:
            tids = [tid for _, tid, _ in cache.entries(page)]
            if tids:
                first, last = min(tids), max(tids)
                for predicate in self._log[pos_p:current_pos]:
                    if predicate.matches_range(first, last):
                        cache.zero_window(page)
                        self._stamp(page)
                        self.pages_zeroed += 1
                        return True
        self._stamp(page)
        return False

    def _stamp(self, page: SlottedPage) -> None:
        # Stamping is a cache modification: it must not dirty the page, so
        # it only touches frame bytes (the caller unpins with dirty=False).
        page.cache_csn = self.current_stamp
