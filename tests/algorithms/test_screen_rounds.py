"""Round-fused exchange screens must equal the per-billboard screens.

The dirty engine consumes screen verdicts through
:class:`~repro.algorithms.screen.ScreenRoundPlanner`; these tests pin the
bit-identity claims of DESIGN.md §13 at every layer: candidate-set
construction (:func:`round_candidates` vs the reference per-billboard
helpers), verdict arithmetic (:func:`round_flags` vs the reference scalar
screen, whole round vs per-advertiser batches), and the engine end to end
with the screen rounds fanned across the worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.algorithms.annealing import SimulatedAnnealingSolver
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.algorithms.screen import (
    DEFAULT_PARALLEL_MIN_CELLS,
    PARALLEL_MIN_CELLS_ENV,
    parallel_min_cells,
    round_flags,
)
from repro.algorithms.sweep import BillboardSweepState, round_candidates
from repro.core.allocation import UNASSIGNED, Allocation
from repro.parallel.pool import OVERSUBSCRIBE_ENV, close_all_pools
from repro.reference import (
    all_exchange_candidates,
    changed_candidates,
    exchange_screen,
    own_side_stale,
)
from tests.conftest import make_random_instance


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(
        23, num_billboards=40, num_trajectories=120, num_advertisers=5
    )


def _greedy_allocation(instance) -> Allocation:
    allocation = Allocation(instance)
    synchronous_greedy(allocation)
    return allocation


def _mixed_state(instance, allocation) -> BillboardSweepState:
    """A sweep state with certified, stale, and never-scanned rows mixed."""
    state = BillboardSweepState(instance.num_advertisers, instance.num_billboards)
    owned = np.nonzero(allocation.owners != UNASSIGNED)[0]
    for billboard_id in owned[::2]:
        state.certify_scan(int(billboard_id))
    state.mark_move(advertisers=(0,), freed=(int(owned[0]),))
    for billboard_id in owned[1::3]:
        state.certify_scan(int(billboard_id))
    state.mark_move(advertisers=(1, 2))
    return state


def _assigned_rows(allocation) -> tuple[np.ndarray, np.ndarray]:
    """Every (advertiser, billboard) row in engine visit order."""
    advertisers, billboards = [], []
    for advertiser_id in range(allocation.instance.num_advertisers):
        for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
            advertisers.append(advertiser_id)
            billboards.append(billboard_id)
    return (
        np.asarray(advertisers, dtype=np.int64),
        np.asarray(billboards, dtype=np.int64),
    )


class TestRoundCandidates:
    def test_matches_scalar_helpers_row_by_row(self, instance):
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        owners = allocation.owners
        certified = state.round_certificates(advertiser_ids, billboard_ids, False)
        flat, lengths = round_candidates(
            owners,
            advertiser_ids,
            billboard_ids,
            certified,
            state.advertiser_version,
            state.freed_version,
        )
        offset = 0
        for k in range(len(billboard_ids)):
            advertiser_id = int(advertiser_ids[k])
            billboard_id = int(billboard_ids[k])
            if own_side_stale(state, advertiser_id, billboard_id):
                expected = all_exchange_candidates(owners, advertiser_id, billboard_id)
            else:
                expected = changed_candidates(state, billboard_id, owners, advertiser_id)
            got = flat[offset : offset + lengths[k]]
            assert np.array_equal(got, expected), (advertiser_id, billboard_id)
            offset += lengths[k]
        assert offset == len(flat)

    def test_verifying_certificates_take_the_full_mask(self, instance):
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        certified = state.round_certificates(advertiser_ids, billboard_ids, True)
        assert (certified == -1).all()
        flat, lengths = round_candidates(
            allocation.owners,
            advertiser_ids,
            billboard_ids,
            certified,
            state.advertiser_version,
            state.freed_version,
        )
        offset = 0
        for k in range(len(billboard_ids)):
            expected = all_exchange_candidates(
                allocation.owners, int(advertiser_ids[k]), int(billboard_ids[k])
            )
            assert np.array_equal(flat[offset : offset + lengths[k]], expected)
            offset += lengths[k]


class TestRoundFlags:
    def test_matches_scalar_and_batch_screens(self, instance):
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        owners = allocation.owners
        certified = state.round_certificates(advertiser_ids, billboard_ids, False)
        flat, lengths = round_candidates(
            owners,
            advertiser_ids,
            billboard_ids,
            certified,
            state.advertiser_version,
            state.freed_version,
        )
        min_improvement = 1e-9
        flags = round_flags(
            instance,
            owners,
            allocation.influences,
            advertiser_ids,
            billboard_ids,
            flat,
            lengths,
            min_improvement,
        )
        offsets = np.zeros(len(billboard_ids), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        candidate_sets = [
            flat[offsets[k] : offsets[k] + lengths[k]]
            for k in range(len(billboard_ids))
        ]
        # Reference scalar screen, row by row.
        for k in range(len(billboard_ids)):
            expected = exchange_screen(
                allocation,
                int(advertiser_ids[k]),
                int(billboard_ids[k]),
                candidate_sets[k],
                min_improvement,
            )
            assert bool(flags[k]) == expected, int(billboard_ids[k])
        # Per-advertiser batches: verdicts are row-wise, so screening the
        # round in smaller chunks cannot change them.
        for advertiser_id in range(instance.num_advertisers):
            rows = np.nonzero(advertiser_ids == advertiser_id)[0]
            if len(rows) == 0:
                continue
            batch = round_flags(
                instance,
                owners,
                allocation.influences,
                advertiser_ids[rows],
                billboard_ids[rows],
                np.concatenate([candidate_sets[k] for k in rows]),
                lengths[rows],
                min_improvement,
            )
            assert np.array_equal(flags[rows], batch)

    def test_empty_candidate_sets_screen_out(self, instance):
        allocation = _greedy_allocation(instance)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        flat = np.empty(0, dtype=np.int64)
        lengths = np.zeros(len(billboard_ids), dtype=np.int64)
        flags = round_flags(
            instance,
            allocation.owners,
            allocation.influences,
            advertiser_ids,
            billboard_ids,
            flat,
            lengths,
            1e-9,
        )
        assert not flags.any()


class TestParallelScreenEngine:
    def test_parallel_rounds_match_serial_engine(self, instance, monkeypatch):
        """End to end: screen_workers=2 with the pool threshold forced low
        must reproduce the serial dirty engine bit for bit, and must actually
        exercise the parallel path."""
        monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")
        monkeypatch.setenv(PARALLEL_MIN_CELLS_ENV, "64")

        def run(**kwargs):
            allocation = _greedy_allocation(instance)
            stats: dict = {}
            allocation = billboard_driven_local_search(
                allocation, stats=stats, **kwargs
            )
            return allocation, stats

        close_all_pools()
        obs.enable()
        try:
            obs.reset()
            parallel, parallel_stats = run(screen_workers=2)
            parallel_rounds = obs.counter_value("bls.screen.parallel")
        finally:
            obs.disable()
            obs.reset()
            close_all_pools()
        serial, serial_stats = run()
        assert np.array_equal(parallel.owners, serial.owners)
        assert parallel.total_regret() == serial.total_regret()
        assert parallel_stats == serial_stats
        assert parallel_rounds > 0

    def test_min_cells_env_override(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_CELLS_ENV, "1234")
        assert parallel_min_cells() == 1234
        monkeypatch.setenv(PARALLEL_MIN_CELLS_ENV, "not-a-number")
        assert parallel_min_cells() == DEFAULT_PARALLEL_MIN_CELLS
        monkeypatch.delenv(PARALLEL_MIN_CELLS_ENV)
        assert parallel_min_cells() == DEFAULT_PARALLEL_MIN_CELLS


class TestSolverParameterValidation:
    def test_screen_workers_validated(self):
        with pytest.raises(ValueError, match="screen_workers"):
            RandomizedLocalSearch("bls", screen_workers=0)

    @pytest.mark.parametrize("bad", [0, -1, "bogus", 1.5])
    def test_restart_batch_size_validated(self, bad):
        with pytest.raises(ValueError, match="restart_batch_size"):
            RandomizedLocalSearch("bls", restart_batch_size=bad)
        with pytest.raises(ValueError, match="restart_batch_size"):
            SimulatedAnnealingSolver(steps=10, restart_batch_size=bad)
