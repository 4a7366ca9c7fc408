"""Tests for the journaled allocation (rollback, replay, caches)."""

import numpy as np
import pytest

from repro import obs
from repro.billboard.influence import CoverageIndex
from repro.core.allocation import Allocation
from repro.core.journal import JournaledAllocation
from repro.core.problem import MROAMInstance


def small_instance(num_advertisers=3):
    lists = [
        [0, 1, 2],
        [2, 3],
        [4, 5, 6],
        [0, 6],
        [7, 8],
        [1, 4, 9],
    ]
    coverage = CoverageIndex.from_coverage_lists(lists, 10)
    contracts = [(3, 2.0)] * num_advertisers
    return MROAMInstance.from_contracts(coverage, contracts)


def state_fingerprint(allocation):
    return (
        allocation._owner.tobytes(),
        tuple(frozenset(s) for s in allocation._sets),
        allocation._counts.tobytes(),
        allocation._influences.tobytes(),
        frozenset(allocation._unassigned),
    )


class TestRollback:
    def test_rollback_restores_state_byte_identically(self):
        allocation = JournaledAllocation(small_instance())
        allocation.assign(0, 0)
        allocation.assign(1, 1)
        allocation.journal_enable()
        before = state_fingerprint(allocation)
        mark = allocation.journal_mark()
        allocation.assign(2, 0)
        allocation.release(1)
        allocation.assign(3, 2)
        allocation.move(0, 1)
        assert state_fingerprint(allocation) != before
        undone = allocation.rollback_to(mark)
        assert undone == 5  # move decomposes into release + assign
        assert state_fingerprint(allocation) == before
        assert allocation.journal_mark() == mark

    def test_rollback_counter_fires(self):
        allocation = JournaledAllocation(small_instance())
        allocation.journal_enable()
        obs.enable()
        obs.reset()
        try:
            allocation.assign(0, 0)
            allocation.rollback_to(0)
            assert obs.counter_value("journal.rollback") == 1
        finally:
            obs.disable()
            obs.reset()

    def test_nested_marks_roll_back_independently(self):
        allocation = JournaledAllocation(small_instance())
        allocation.journal_enable()
        allocation.assign(0, 0)
        outer = allocation.journal_mark()
        allocation.assign(1, 1)
        inner = allocation.journal_mark()
        allocation.assign(2, 2)
        allocation.rollback_to(inner)
        assert allocation.owner_of(2) == -1
        assert allocation.owner_of(1) == 1
        allocation.rollback_to(outer)
        assert allocation.owner_of(1) == -1
        assert allocation.owner_of(0) == 0


class TestReplay:
    def test_replay_reproduces_recorded_state(self):
        allocation = JournaledAllocation(small_instance())
        allocation.journal_enable()
        mark = allocation.journal_mark()
        allocation.assign(0, 0)
        allocation.assign(4, 1)
        allocation.move(0, 2)
        entries = allocation.journal_entries(mark)
        repaired = state_fingerprint(allocation)
        allocation.rollback_to(mark)
        allocation.replay(entries)
        assert state_fingerprint(allocation) == repaired

    def test_replay_does_not_record(self):
        allocation = JournaledAllocation(small_instance())
        allocation.journal_enable()
        allocation.assign(0, 0)
        entries = allocation.journal_entries()
        allocation.rollback_to(0)
        allocation.replay(entries)
        assert allocation.journal_mark() == 0

    def test_failed_replay_is_undone(self):
        """A delta that raises mid-replay undoes the deltas applied before
        it: the allocation and the journal are exactly as before the call."""
        allocation = JournaledAllocation(small_instance())
        allocation.journal_enable()
        allocation.assign(5, 2)
        before = state_fingerprint(allocation)
        mark = allocation.journal_mark()
        entries = [("assign", 0, 0), ("assign", 4, 1), ("assign", 0, 2)]
        with pytest.raises(ValueError, match="already owned"):
            allocation.replay(entries)
        assert state_fingerprint(allocation) == before
        assert allocation.journal_mark() == mark


class TestRegretCache:
    def test_cached_value_matches_uncached(self):
        instance = small_instance()
        journaled = JournaledAllocation(instance)
        plain = Allocation(instance)
        for billboard_id, advertiser_id in [(0, 0), (1, 1), (5, 2)]:
            journaled.assign(billboard_id, advertiser_id)
            plain.assign(billboard_id, advertiser_id)
        assert journaled.total_regret() == plain.total_regret()
        # Second read comes from the cache and must be the identical float.
        assert journaled.total_regret() == plain.total_regret()

    def test_cache_hits_and_misses_are_counted(self):
        allocation = JournaledAllocation(small_instance())
        obs.enable()
        obs.reset()
        try:
            allocation.total_regret()
            misses = obs.counter_value("quote.cache.miss")
            assert misses == allocation.instance.num_advertisers
            allocation.total_regret()
            assert obs.counter_value("quote.cache.hit") == misses
            allocation.assign(0, 0)
            allocation.total_regret()
            assert obs.counter_value("quote.cache.miss") == misses + 1
        finally:
            obs.disable()
            obs.reset()

    def test_invalidate_regret_drops_entries(self):
        allocation = JournaledAllocation(small_instance())
        allocation.total_regret()
        allocation.invalidate_regret(1)
        assert not allocation._regret_valid[1]
        assert allocation._regret_valid[0]
        allocation.invalidate_regret()
        assert not allocation._regret_valid.any()


class TestGuards:
    def test_exchange_sets_raises_while_recording(self):
        allocation = JournaledAllocation(small_instance())
        allocation.journal_enable()
        with pytest.raises(RuntimeError, match="exchange_sets"):
            allocation.exchange_sets(0, 1)

    def test_copy_assignments_raises_over_uncommitted_entries(self):
        instance = small_instance()
        allocation = JournaledAllocation(instance)
        allocation.journal_enable()
        allocation.assign(0, 0)
        with pytest.raises(RuntimeError, match="uncommitted"):
            allocation.copy_assignments_from(Allocation(instance))


class TestBulkCopy:
    def test_copy_matches_loop_assignment(self):
        instance = small_instance()
        source = Allocation(instance)
        source.assign(0, 0)
        source.assign(2, 1)
        source.assign(4, 2)
        bulk = Allocation(instance)
        bulk.copy_assignments_from(source)
        loop = Allocation(instance)
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in source.billboards_of(advertiser_id):
                loop.assign(billboard_id, advertiser_id)
        assert state_fingerprint(bulk) == state_fingerprint(loop)

    def test_copy_into_wider_instance_clears_extra_rows(self):
        narrow = small_instance(num_advertisers=2)
        wide = MROAMInstance.from_contracts(narrow.coverage, [(3, 2.0)] * 4)
        source = Allocation(narrow)
        source.assign(1, 0)
        source.assign(3, 1)
        dest = Allocation(wide)
        dest.assign(5, 3)  # must be wiped: the source owns the plan
        dest.copy_assignments_from(source)
        assert dest.billboards_of(0) == frozenset({1})
        assert dest.billboards_of(1) == frozenset({3})
        assert dest.billboards_of(3) == frozenset()
        assert dest.influence(3) == 0
        assert 5 in dest.unassigned

    def test_copy_rejects_foreign_coverage(self):
        instance = small_instance()
        other = small_instance()
        with pytest.raises(ValueError, match="coverage"):
            Allocation(instance).copy_assignments_from(Allocation(other))

    def test_copy_rejects_narrower_destination(self):
        narrow = small_instance(num_advertisers=2)
        wide = MROAMInstance.from_contracts(narrow.coverage, [(3, 2.0)] * 4)
        with pytest.raises(ValueError, match="more advertisers"):
            Allocation(narrow).copy_assignments_from(Allocation(wide))


class TestGrow:
    def test_grow_appends_empty_rows(self):
        narrow = small_instance(num_advertisers=2)
        allocation = JournaledAllocation(narrow)
        allocation.journal_enable()
        allocation.assign(0, 0)
        allocation.assign(2, 1)
        regret_before = allocation.total_regret()
        wide = MROAMInstance.from_contracts(narrow.coverage, [(3, 2.0)] * 4)
        allocation.grow(wide)
        assert allocation.instance is wide
        assert allocation.billboards_of(0) == frozenset({0})
        assert allocation.billboards_of(3) == frozenset()
        assert allocation.influence(2) == 0
        # Two fresh (3, 2.0) contracts at influence 0 add their unsatisfied
        # regret on top of the carried-over rows.
        expected_extra = sum(wide.regret_of(i, 0) for i in (2, 3))
        assert allocation.total_regret() == pytest.approx(
            regret_before + expected_extra
        )

    def test_grow_rejects_shrink_and_foreign_coverage(self):
        wide = small_instance(num_advertisers=3)
        allocation = JournaledAllocation(wide)
        narrow = MROAMInstance.from_contracts(wide.coverage, [(3, 2.0)] * 2)
        with pytest.raises(ValueError):
            allocation.grow(narrow)
        foreign = small_instance(num_advertisers=4)
        with pytest.raises(ValueError):
            allocation.grow(foreign)
