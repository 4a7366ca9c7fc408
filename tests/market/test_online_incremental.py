"""Equivalence and lifecycle tests for the incremental quoting engine.

The load-bearing contract (DESIGN.md §15): :class:`OnlineHost` is
**bit-identical** to the from-scratch :class:`repro.reference.ReferenceHost`
in everything a caller can see —
``regret_before``/``regret_after``/``would_satisfy`` of every quote, and the
resulting allocation after every accept — over arbitrary interleavings of
quote / accept / reoptimize.  The property tests hold two hosts in lockstep
over randomized sequences on two coverage families and compare with ``==``
(no tolerances).
"""

import os
import random

import numpy as np
import pytest

from repro import env, obs
from repro.billboard.influence import CoverageIndex
from repro.market.online import OnlineHost, Quote
from repro.reference import ReferenceHost


def disjoint_coverage(num_billboards=8, per_board=3) -> CoverageIndex:
    lists = [range(i * per_board, (i + 1) * per_board) for i in range(num_billboards)]
    return CoverageIndex.from_coverage_lists(lists, num_billboards * per_board)


def overlapping_coverage(seed, num_billboards=40, num_trajectories=300) -> CoverageIndex:
    rng = random.Random(seed)
    lists = [
        rng.sample(range(num_trajectories), rng.randint(1, 12))
        for _ in range(num_billboards)
    ]
    return CoverageIndex.from_coverage_lists(lists, num_trajectories)


COVERAGE_FAMILIES = {
    "disjoint": lambda seed: disjoint_coverage(),
    "overlapping": overlapping_coverage,
}


def assert_same_book_plan(incremental, full) -> None:
    assert len(incremental.advertisers) == len(full.advertisers)
    if full.allocation is None:
        assert incremental.allocation is None
        return
    for advertiser_id in range(len(full.advertisers)):
        assert incremental.allocation.billboards_of(
            advertiser_id
        ) == full.allocation.billboards_of(advertiser_id)
    assert incremental.total_regret() == full.total_regret()


class TestBitIdentity:
    @pytest.mark.parametrize("family", sorted(COVERAGE_FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lockstep_quote_accept_reoptimize(self, family, seed):
        coverage = COVERAGE_FAMILIES[family](seed)
        incremental = OnlineHost(coverage, seed=seed)
        full = ReferenceHost(coverage, seed=seed)
        rng = random.Random(1000 * seed + 7)
        for step in range(25):
            demand = rng.randint(2, 35)
            payment = round(rng.uniform(0.5, 15.0), 3)
            roll = rng.random()
            if roll < 0.5:
                quote_inc = incremental.quote(demand, payment)
                quote_full = full.quote(demand, payment)
            elif roll < 0.85:
                quote_inc = incremental.accept(demand, payment, name=f"a{step}")
                quote_full = full.accept(demand, payment, name=f"a{step}")
            else:
                assert incremental.reoptimize(restarts=2) == full.reoptimize(
                    restarts=2
                )
                continue
            assert quote_inc.regret_before == quote_full.regret_before
            assert quote_inc.regret_after == quote_full.regret_after
            assert quote_inc.would_satisfy == quote_full.would_satisfy
            assert_same_book_plan(incremental, full)

    @pytest.mark.parametrize("family", sorted(COVERAGE_FAMILIES))
    def test_repair_sweeps_zero_lockstep(self, family):
        coverage = COVERAGE_FAMILIES[family](5)
        incremental = OnlineHost(coverage, repair_sweeps=0)
        full = ReferenceHost(coverage, repair_sweeps=0)
        rng = random.Random(5)
        for step in range(12):
            demand, payment = rng.randint(2, 20), round(rng.uniform(1, 8), 2)
            quote_inc = incremental.accept(demand, payment)
            quote_full = full.accept(demand, payment)
            assert quote_inc.regret_after == quote_full.regret_after
            assert_same_book_plan(incremental, full)

    def test_fixed_seed_determinism(self):
        results = []
        for _ in range(2):
            host = OnlineHost(overlapping_coverage(9), seed=9)
            rng = random.Random(9)
            trace = []
            for step in range(15):
                demand, payment = rng.randint(2, 25), round(rng.uniform(1, 9), 2)
                if rng.random() < 0.6:
                    quote = host.quote(demand, payment)
                else:
                    quote = host.accept(demand, payment)
                trace.append((quote.regret_after, quote.would_satisfy))
            trace.append(host.reoptimize(restarts=2))
            results.append(tuple(trace))
        assert results[0] == results[1]


class TestRollbackIsolation:
    def test_rejected_quote_leaves_state_byte_identical(self):
        host = OnlineHost(overlapping_coverage(2))
        rng = random.Random(2)
        for i in range(5):
            host.accept(rng.randint(3, 20), round(rng.uniform(1, 8), 2))
        allocation = host.allocation
        owner_before = allocation._owner.copy()
        counts_before = allocation._counts.copy()
        influences_before = allocation._influences.copy()
        sets_before = [frozenset(s) for s in allocation._sets]
        obs.enable()
        obs.reset()
        try:
            host.quote(demand=18, payment=6.0)
            # Rejected quotes roll back through the journal — no fresh
            # allocation object, no copied arrays.
            assert obs.counter_value("journal.rollback") >= 1
        finally:
            obs.disable()
            obs.reset()
        assert host.allocation is allocation
        assert np.array_equal(allocation._owner, owner_before)
        assert np.array_equal(allocation._counts, counts_before)
        assert np.array_equal(allocation._influences, influences_before)
        assert [frozenset(s) for s in allocation._sets] == sets_before

    def test_accept_preserves_allocation_object(self):
        host = OnlineHost(disjoint_coverage())
        host.accept(demand=3, payment=3.0)
        allocation = host.allocation
        host.accept(demand=3, payment=3.0)
        host.quote(demand=3, payment=3.0)
        assert host.allocation is allocation


class TestTokens:
    def test_commit_of_quote_equals_accept(self):
        coverage = overlapping_coverage(4)
        via_commit = OnlineHost(coverage, seed=4)
        via_accept = OnlineHost(coverage, seed=4)
        rng = random.Random(4)
        for step in range(8):
            demand, payment = rng.randint(2, 20), round(rng.uniform(1, 8), 2)
            quote = via_commit.quote(demand, payment)
            via_commit.commit(quote)
            via_accept.accept(demand, payment)
            assert_same_book_plan(via_commit, via_accept)

    @pytest.mark.parametrize(
        "host_class", [OnlineHost, ReferenceHost], ids=["incremental", "full"]
    )
    def test_stale_token_is_rejected(self, host_class):
        host = host_class(disjoint_coverage())
        quote = host.quote(demand=3, payment=3.0)
        host.accept(demand=3, payment=3.0)
        with pytest.raises(ValueError, match="stale"):
            host.commit(quote)

    def test_adopted_reoptimize_invalidates_tokens(self):
        host = OnlineHost(overlapping_coverage(6), repair_sweeps=0, seed=6)
        rng = random.Random(6)
        for _ in range(6):
            host.accept(rng.randint(3, 18), round(rng.uniform(1, 8), 2))
        before = host.total_regret()
        quote = host.quote(demand=10, payment=4.0)
        after = host.reoptimize(restarts=3)
        if after < before:  # the plan changed: the token must die
            with pytest.raises(ValueError, match="stale"):
                host.commit(quote)
        else:  # incumbent kept: the token is still exactly valid
            host.commit(quote)

    def test_tokenless_quote_cannot_commit(self):
        host = OnlineHost(disjoint_coverage())
        quote = Quote("x", 3, 3.0, 0.0, 0.0, True)
        with pytest.raises(ValueError, match="token"):
            host.commit(quote)


class TestReoptimize:
    def test_keeps_better_incumbent_object(self):
        host = OnlineHost(disjoint_coverage(), seed=1)
        host.accept(demand=3, payment=3.0)
        host.accept(demand=6, payment=6.0)
        assert host.total_regret() == pytest.approx(0.0)
        allocation = host.allocation
        # The incumbent is already optimal, so reoptimize must keep it — the
        # live workspace object, not a rebuilt equal-regret plan.
        assert host.reoptimize(restarts=2) == pytest.approx(0.0)
        assert host.allocation is allocation

    def test_interleaved_with_quotes(self):
        coverage = overlapping_coverage(8)
        incremental = OnlineHost(coverage, seed=8)
        full = ReferenceHost(coverage, seed=8)
        rng = random.Random(8)
        for step in range(4):
            for _ in range(3):
                demand, payment = rng.randint(2, 22), round(rng.uniform(1, 9), 2)
                incremental.accept(demand, payment)
                full.accept(demand, payment)
            assert incremental.reoptimize(restarts=2) == full.reoptimize(restarts=2)
            demand, payment = rng.randint(2, 22), round(rng.uniform(1, 9), 2)
            assert (
                incremental.quote(demand, payment).regret_after
                == full.quote(demand, payment).regret_after
            )
            assert_same_book_plan(incremental, full)


class TestQuoteMany:
    def test_serial_batch_equals_quote_loop(self):
        host = OnlineHost(overlapping_coverage(3))
        rng = random.Random(3)
        for _ in range(4):
            host.accept(rng.randint(3, 18), round(rng.uniform(1, 8), 2))
        proposals = [
            (rng.randint(2, 25), round(rng.uniform(0.5, 8), 2), f"p{i}")
            for i in range(6)
        ]
        loop = [host.quote(d, p, n) for d, p, n in proposals]
        batch = host.quote_many(proposals)
        assert [(q.regret_before, q.regret_after, q.would_satisfy) for q in loop] == [
            (q.regret_before, q.regret_after, q.would_satisfy) for q in batch
        ]
        # Serial batch quotes stay committable.
        host.commit(batch[0])

    def test_batch_accepts_two_tuples(self):
        host = OnlineHost(disjoint_coverage())
        quotes = host.quote_many([(3, 3.0), (6, 6.0)])
        assert [q.demand for q in quotes] == [3, 6]
        assert quotes[0].advertiser_name == ""

    def test_parallel_batch_matches_serial(self):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs >= 2 schedulable CPUs for a real pool")
        host = OnlineHost(overlapping_coverage(7))
        rng = random.Random(7)
        for _ in range(4):
            host.accept(rng.randint(3, 18), round(rng.uniform(1, 8), 2))
        proposals = [
            (rng.randint(2, 25), round(rng.uniform(0.5, 8), 2), f"p{i}")
            for i in range(6)
        ]
        serial = host.quote_many(proposals)
        parallel = host.quote_many(proposals, workers=2)
        assert [
            (q.regret_before, q.regret_after, q.would_satisfy) for q in serial
        ] == [(q.regret_before, q.regret_after, q.would_satisfy) for q in parallel]
        # Pool-priced quotes are price-only.
        assert all(q.token is None for q in parallel)


class TestConfiguration:
    def test_unknown_pricing_rejected(self):
        """One production pricing path: the host takes no ``pricing`` switch
        and no environment knob selects one."""
        with pytest.raises(TypeError, match="pricing"):
            OnlineHost(disjoint_coverage(), pricing="full")
        assert not hasattr(env, "QUOTE_PRICING")


class TestFailureAtomicity:
    def test_failed_repair_leaves_book_byte_identical(self, monkeypatch):
        """A repair that raises mid-way leaves no residue: the book's owners,
        counter rows and total regret are byte-identical afterwards, and the
        next quote equals a fault-free twin host's."""
        import repro.market.incremental as incremental
        from repro.core.allocation import UNASSIGNED

        coverage = overlapping_coverage(11)
        host = OnlineHost(coverage, seed=11)
        twin = OnlineHost(coverage, seed=11)
        rng = random.Random(11)
        for _ in range(5):
            demand, payment = rng.randint(3, 18), round(rng.uniform(1, 8), 2)
            host.accept(demand, payment)
            twin.accept(demand, payment)
        allocation = host.allocation
        owners_before = allocation.owners.copy()
        counts_before = allocation._counts.copy()
        regret_before = host.total_regret()

        real_repair = incremental.bounded_repair

        def faulty_repair(allocation, newcomer_id, sweeps, **kwargs):
            # A few real moves land in the journal before the fault.
            free = np.nonzero(allocation.owners == UNASSIGNED)[0][:2]
            booked = np.nonzero(allocation.owners != UNASSIGNED)[0][:1]
            for billboard in booked:
                allocation.release(int(billboard))
            for billboard in free:
                allocation.assign(int(billboard), newcomer_id)
            assert allocation.journal_entries(0), "the fault must follow real moves"
            raise RuntimeError("injected repair fault")

        monkeypatch.setattr(incremental, "bounded_repair", faulty_repair)
        with pytest.raises(RuntimeError, match="injected"):
            host.quote(demand=12, payment=5.0)
        monkeypatch.setattr(incremental, "bounded_repair", real_repair)

        assert host.allocation is allocation
        assert allocation.owners.tobytes() == owners_before.tobytes()
        assert allocation._counts.tobytes() == counts_before.tobytes()
        assert host.total_regret() == regret_before
        assert host.quote(12, 5.0) == twin.quote(12, 5.0)
        # The book keeps committing like its twin.
        assert host.accept(9, 4.0) == twin.accept(9, 4.0)
        assert_same_book_plan(host, twin)

    def test_failed_accept_leaves_book_byte_identical(self, monkeypatch):
        """A commit whose replay raises after applying some deltas leaves no
        residue: owners, counter rows and total regret are byte-identical,
        and the next quote and accept equal a fault-free twin host's."""
        from repro.core.journal import JournaledAllocation

        coverage = overlapping_coverage(13)
        host = OnlineHost(coverage, seed=13)
        twin = OnlineHost(coverage, seed=13)
        rng = random.Random(13)
        for _ in range(5):
            demand, payment = rng.randint(3, 18), round(rng.uniform(1, 8), 2)
            host.accept(demand, payment)
            twin.accept(demand, payment)
        allocation = host.allocation
        owners_before = allocation.owners.copy()
        counts_before = allocation._counts.copy()
        regret_before = host.total_regret()

        def faulty_replay(self, entries):
            entries = list(entries)
            assert entries, "the priced repair must carry moves to replay"
            for kind, billboard_id, advertiser_id in entries[: max(1, len(entries) // 2)]:
                if kind == "assign":
                    self.assign(billboard_id, advertiser_id)
                else:
                    self.release(billboard_id)
            assert self.owners.tobytes() != owners_before.tobytes()
            raise RuntimeError("injected replay fault")

        with monkeypatch.context() as patch:
            patch.setattr(JournaledAllocation, "replay", faulty_replay)
            with pytest.raises(RuntimeError, match="injected"):
                host.accept(12, 5.0)

        assert host.allocation is allocation
        assert len(host.advertisers) == len(twin.advertisers)
        assert allocation.owners.tobytes() == owners_before.tobytes()
        assert allocation._counts.tobytes() == counts_before.tobytes()
        assert host.total_regret() == regret_before
        assert host.quote(12, 5.0) == twin.quote(12, 5.0)
        assert host.accept(9, 4.0) == twin.accept(9, 4.0)
        assert_same_book_plan(host, twin)
