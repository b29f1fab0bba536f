"""Tests for the page-frame reclaim algorithms (LRU and CLOCK)."""

import pytest
from hypothesis import given, strategies as st

from repro.config import RECLAIM_ALGORITHMS
from repro.errors import ConfigurationError, GuestError
from repro.guest.pfra import (
    ClockArrayReclaim,
    ClockReclaim,
    LruReclaim,
    make_reclaimer,
)

#: Every reclaimer class: the two selectable ones plus the list-based
#: CLOCK kept as the reference implementation, so all three get the
#: generic tests below.
RECLAIMERS = (LruReclaim, ClockArrayReclaim, ClockReclaim)


@pytest.fixture(params=RECLAIMERS, ids=["lru", "clock", "clock-reference"])
def reclaimer(request):
    return request.param()


class TestCommonBehaviour:
    def test_factory_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            make_reclaimer("arc")

    def test_factory_builds_every_configurable_algorithm(self):
        built = {name: type(make_reclaimer(name)) for name in RECLAIM_ALGORITHMS}
        assert built == {"lru": LruReclaim, "clock": ClockArrayReclaim}

    def test_insert_and_contains(self, reclaimer):
        reclaimer.insert(1)
        reclaimer.insert(2)
        assert 1 in reclaimer and 2 in reclaimer
        assert len(reclaimer) == 2

    def test_double_insert_rejected(self, reclaimer):
        reclaimer.insert(1)
        with pytest.raises(GuestError):
            reclaimer.insert(1)

    def test_touch_non_resident_rejected(self, reclaimer):
        with pytest.raises(GuestError):
            reclaimer.touch(5)

    def test_remove_non_resident_rejected(self, reclaimer):
        with pytest.raises(GuestError):
            reclaimer.remove(5)

    def test_victim_from_empty_rejected(self, reclaimer):
        with pytest.raises(GuestError):
            reclaimer.select_victim()

    def test_victim_is_removed(self, reclaimer):
        for p in range(5):
            reclaimer.insert(p)
        victim = reclaimer.select_victim()
        assert victim not in reclaimer
        assert len(reclaimer) == 4

    def test_remove_then_reinsert(self, reclaimer):
        reclaimer.insert(3)
        reclaimer.remove(3)
        reclaimer.insert(3)
        assert 3 in reclaimer

    def test_pages_iterates_resident_set(self, reclaimer):
        for p in (1, 2, 3):
            reclaimer.insert(p)
        assert sorted(reclaimer.pages()) == [1, 2, 3]


class TestLruOrdering:
    def test_victim_is_least_recently_used(self):
        lru = LruReclaim()
        for p in (1, 2, 3):
            lru.insert(p)
        lru.touch(1)
        assert lru.select_victim() == 2

    def test_insertion_order_without_touches(self):
        lru = LruReclaim()
        for p in (10, 20, 30):
            lru.insert(p)
        assert [lru.select_victim() for _ in range(3)] == [10, 20, 30]


class TestClockBehaviour:
    def test_second_chance_protects_referenced_pages(self):
        clock = ClockReclaim()
        for p in (1, 2, 3):
            clock.insert(p)
        # All pages start referenced; the first sweep clears bits, the
        # second evicts the first unreferenced page found — page 1.
        assert clock.select_victim() == 1

    def test_touched_page_survives_longer(self):
        clock = ClockReclaim()
        for p in (1, 2, 3):
            clock.insert(p)
        clock.select_victim()           # evicts 1, clears bits of 2 and 3
        clock.touch(2)
        assert clock.select_victim() == 3

    def test_remove_adjusts_hand(self):
        clock = ClockReclaim()
        for p in range(6):
            clock.insert(p)
        clock.select_victim()
        clock.remove(4)
        # Remaining operations must still behave sensibly.
        victims = [clock.select_victim() for _ in range(4)]
        assert len(set(victims)) == 4


@given(
    reclaimer_cls=st.sampled_from(RECLAIMERS),
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "touch", "evict", "remove"]),
                  st.integers(0, 30)),
        max_size=300,
    ),
)
def test_resident_set_is_always_consistent(reclaimer_cls, ops):
    """Property: the tracker's size always equals its distinct resident pages."""
    reclaimer = reclaimer_cls()
    resident = set()
    for op, page in ops:
        if op == "insert" and page not in resident:
            reclaimer.insert(page)
            resident.add(page)
        elif op == "touch" and page in resident:
            reclaimer.touch(page)
        elif op == "remove" and page in resident:
            reclaimer.remove(page)
            resident.discard(page)
        elif op == "evict" and resident:
            victim = reclaimer.select_victim()
            assert victim in resident
            resident.discard(victim)
        assert len(reclaimer) == len(resident)
        assert set(reclaimer.pages()) == resident


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "touch", "evict", "remove",
                                   "evict3"]),
                  st.integers(0, 40)),
        max_size=400,
    ),
)
def test_array_clock_matches_reference_clock(ops):
    """ClockArrayReclaim must pick the exact victim sequence of the
    list-based reference implementation, including batch selection."""
    array = ClockArrayReclaim()
    reference = ClockReclaim()
    resident = set()
    for op, page in ops:
        if op == "insert" and page not in resident:
            array.insert(page)
            reference.insert(page)
            resident.add(page)
        elif op == "touch" and page in resident:
            array.touch(page)
            reference.touch(page)
        elif op == "remove" and page in resident:
            array.remove(page)
            reference.remove(page)
            resident.discard(page)
        elif op == "evict" and resident:
            a = array.select_victim()
            r = reference.select_victim()
            assert a == r
            resident.discard(a)
        elif op == "evict3" and len(resident) >= 3:
            batch = array.select_victims(3)
            singles = [reference.select_victim() for _ in range(3)]
            assert batch == singles
            resident.difference_update(batch)
        assert len(array) == len(reference) == len(resident)
        assert list(array.pages()) == list(reference.pages())


class TestBatchApi:
    def test_contains_all(self, reclaimer):
        for page in (1, 2, 3):
            reclaimer.insert(page)
        assert reclaimer.contains_all([1, 2, 3])
        assert reclaimer.contains_all([])
        assert not reclaimer.contains_all([1, 4])

    def test_touch_if_resident(self, reclaimer):
        reclaimer.insert(7)
        assert reclaimer.touch_if_resident(7)
        assert not reclaimer.touch_if_resident(8)

    def test_touch_many_rejects_non_resident(self, reclaimer):
        reclaimer.insert(1)
        with pytest.raises(GuestError):
            reclaimer.touch_many([1, 99])

    def test_insert_many_then_select_victims(self, reclaimer):
        reclaimer.insert_many(range(6))
        victims = reclaimer.select_victims(4)
        assert len(set(victims)) == 4
        assert len(reclaimer) == 2
        for victim in victims:
            assert victim not in reclaimer

    def test_select_victims_zero_and_overdraw(self, reclaimer):
        reclaimer.insert(1)
        assert reclaimer.select_victims(0) == []
        with pytest.raises(GuestError):
            reclaimer.select_victims(2)

    def test_lru_batch_order_matches_scalar(self):
        batch = LruReclaim()
        scalar = LruReclaim()
        for r in (batch, scalar):
            r.insert_many([1, 2, 3, 4])
        batch.touch_many([2, 1])
        for page in (2, 1):
            scalar.touch(page)
        assert batch.select_victims(4) == [
            scalar.select_victim() for _ in range(4)
        ]

    def test_lru_peek_matches_select(self):
        lru = LruReclaim()
        lru.insert_many([5, 6, 7])
        lru.touch(5)
        peeked = lru.peek_victims(2)
        assert peeked == lru.select_victims(2)

    def test_clock_peek_unsupported(self):
        clock = ClockArrayReclaim()
        clock.insert(1)
        assert clock.peek_victims(1) is None

    def test_lru_promote_burst_matches_scalar_walk(self):
        fast = LruReclaim()
        slow = LruReclaim()
        for r in (fast, slow):
            r.insert_many([10, 11, 12])
        burst = [11, 20, 10, 21]
        fast.promote_burst(burst, hit_pages=[11, 10])
        for page in burst:
            if page in slow:
                slow.touch(page)
            else:
                slow.insert(page)
        assert list(fast.pages()) == list(slow.pages())

    def test_array_clock_compaction_preserves_semantics(self):
        array = ClockArrayReclaim()
        reference = ClockReclaim()
        # Grow past the initial capacity and punch holes to force both
        # growth and compaction paths.
        for page in range(200):
            array.insert(page)
            reference.insert(page)
        for page in range(0, 200, 2):
            array.remove(page)
            reference.remove(page)
        for page in range(200, 400):
            array.insert(page)
            reference.insert(page)
        while len(reference):
            assert array.select_victim() == reference.select_victim()
