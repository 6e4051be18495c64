"""FreeSpaceMap: placement bookkeeping."""

from repro.storage.freespace import FreeSpaceMap
from repro.util.rng import DeterministicRng


def test_note_and_find():
    fsm = FreeSpaceMap()
    fsm.note(1, 100)
    fsm.note(2, 50)
    assert fsm.find_page_with(60) == 1
    # Approximate best fit: the smallest sufficient bucket wins, so the
    # 50-byte page (bucket [32, 63]) beats the 100-byte one for need=40.
    assert fsm.find_page_with(40) == 2
    assert fsm.find_page_with(200) is None


def test_best_fit_prefers_smaller_bucket_insertion_order_within():
    fsm = FreeSpaceMap()
    fsm.note(1, 4000)
    fsm.note(2, 70)
    fsm.note(3, 90)  # same bucket as page 2: [64, 127]
    assert fsm.find_page_with(65) == 2  # insertion order within the bucket
    assert fsm.find_page_with(80) == 3  # page 2 too small, checked per-page
    assert fsm.find_page_with(128) == 1


def test_boundary_bucket_members_checked_individually():
    fsm = FreeSpaceMap()
    fsm.note(1, 33)  # bucket [32, 63], below need
    assert fsm.find_page_with(40) is None
    fsm.note(2, 63)  # same bucket, qualifies
    assert fsm.find_page_with(40) == 2


def test_bucket_moves_track_note_updates():
    fsm = FreeSpaceMap()
    fsm.note(1, 100)
    fsm.note(1, 10)  # moved to a lower bucket
    assert fsm.find_page_with(50) is None
    assert fsm.find_page_with(9) == 1
    fsm.note(1, 3000)  # moved back up
    assert fsm.find_page_with(2000) == 1


def test_matches_linear_scan_reference():
    """The bucketed search finds a page iff a linear scan would."""
    fsm = FreeSpaceMap()
    sizes = {i: (i * 37) % 501 for i in range(200)}
    for page_id, free in sizes.items():
        fsm.note(page_id, free)
    for need in (1, 2, 10, 100, 250, 499, 500, 501):
        got = fsm.find_page_with(need)
        expect_any = any(free >= need for free in sizes.values())
        if expect_any:
            assert got is not None and sizes[got] >= need
        else:
            assert got is None


def test_note_overwrites():
    fsm = FreeSpaceMap()
    fsm.note(1, 100)
    fsm.note(1, 10)
    assert fsm.free_of(1) == 10
    assert fsm.find_page_with(50) is None


def test_forget():
    fsm = FreeSpaceMap()
    fsm.note(1, 100)
    fsm.note(1, 0)  # a page with nothing free is never offered
    assert fsm.free_of(1) == 0
    assert fsm.find_page_with(1) is None
    fsm.note(1, 0)  # idempotent


def test_page_ids_and_len():
    fsm = FreeSpaceMap()
    fsm.note(3, 10)
    fsm.note(7, 20)
    assert list(fsm._free) == [3, 7]
    assert len(fsm._free) == 2


def test_bucketed_search_agrees_with_first_fit_and_examines_fewer_pages():
    """A seeded note/find trace over 800 pages: the size-bucketed map and
    a first-fit walk agree on feasibility at every find, and the bucketed
    search examines a near-constant number of candidates where the walk
    examines O(#pages).  Both counts are deterministic, to the page."""
    rng = DeterministicRng(0)
    fsm = FreeSpaceMap()
    first_fit: dict[int, int] = {}  # page -> free bytes, in note order
    walked = 0
    for page_id in range(800):
        free = rng.randint(0, 600)
        fsm.note(page_id, free)
        first_fit[page_id] = free
    for _ in range(2_000):
        need = rng.randint(200, 4000)
        got_bucketed = fsm.find_page_with(need)
        got_first = None
        for page_id, free in first_fit.items():
            walked += 1
            if free >= need:
                got_first = page_id
                break
        # Policies differ (best fit vs first fit); feasibility agrees.
        assert (got_bucketed is None) == (got_first is None)
        # Consume the space, as the insert that asked would.
        if got_bucketed is not None:
            fsm.note(got_bucketed, max(0, fsm.free_of(got_bucketed) - need))
        if got_first is not None:
            first_fit[got_first] = max(0, first_fit[got_first] - need)
    assert (walked, fsm.pages_examined) == (1_466_174, 21_154)
