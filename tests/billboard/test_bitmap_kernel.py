"""Property tests: the packed-bitmap kernel is bit-identical to the id arrays.

Every query of :class:`CoverageIndex` has two implementations — the sorted
id-array kernel and the packed-bitmap kernel — and an adaptive dispatcher
that picks whichever is cheaper for the operand sizes.  These tests pin the
core guarantee that makes the dispatch legal: for arbitrary coverage and
arbitrary counter rows, both kernels return exactly the same integers.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bls import _partner_swap_delta
from repro.billboard import coverage_cache
from repro.billboard.influence import (
    BITMAP_BUDGET_ENV,
    CoverageIndex,
    DEFAULT_BITMAP_BUDGET_MB,
    _resolve_bitmap_budget_mb,
    build_coverage,
)
from repro.core.advertiser import Advertiser
from repro.core.problem import MROAMInstance
from repro.utils import bitset
from repro.utils.rng import as_generator


def random_coverage(seed: int, num_billboards: int, num_trajectories: int):
    rng = as_generator(seed)
    lists = []
    for _ in range(num_billboards):
        size = int(rng.integers(0, num_trajectories + 1))
        lists.append(rng.choice(num_trajectories, size=size, replace=False).tolist())
    return lists


def force_bitmap(index: CoverageIndex) -> CoverageIndex:
    """Pin every adaptive dispatch decision to the bitmap kernel."""
    assert index.has_bitmap
    index._batch_prefers_bitmap = True
    index.bitmap_profitable_for = lambda *ids: True
    return index


def kernel_pair(seed: int, num_billboards: int = 14, num_trajectories: int = 90):
    """The same coverage as a bitmap-forced and a bitmap-disabled index."""
    lists = random_coverage(seed, num_billboards, num_trajectories)
    with_bitmap = force_bitmap(
        CoverageIndex.from_coverage_lists(
            lists, num_trajectories, bitmap_budget_mb=64.0
        )
    )
    ids_only = CoverageIndex.from_coverage_lists(
        lists, num_trajectories, bitmap_budget_mb=0.0
    )
    assert not ids_only.has_bitmap
    return with_bitmap, ids_only


def random_counts_row(seed: int, num_trajectories: int) -> np.ndarray:
    return as_generator(seed).integers(0, 4, size=num_trajectories).astype(np.int32)


class TestKernelEquality:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_influence_of_set(self, seed):
        with_bitmap, ids_only = kernel_pair(seed)
        rng = as_generator(seed + 1)
        for _ in range(10):
            size = int(rng.integers(0, with_bitmap.num_billboards + 1))
            ids = rng.choice(with_bitmap.num_billboards, size=size, replace=False)
            expected = ids_only.influence_of_set(ids.tolist())
            assert with_bitmap.influence_of_set(ids.tolist()) == expected
            assert with_bitmap.influence_of_set_ids(ids.tolist()) == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_batch_add_gains(self, seed):
        with_bitmap, ids_only = kernel_pair(seed)
        counts = random_counts_row(seed + 2, with_bitmap.num_trajectories)
        expected = ids_only.batch_add_gains(counts)
        assert np.array_equal(with_bitmap.batch_add_gains(counts), expected)
        # Callers may hand over a pre-packed counts == 0 mask.
        free_bits = bitset.pack_bits(counts == 0)
        assert np.array_equal(
            with_bitmap.batch_add_gains(counts, free_bits=free_bits), expected
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_batch_remove_losses(self, seed):
        with_bitmap, ids_only = kernel_pair(seed)
        counts = random_counts_row(seed + 3, with_bitmap.num_trajectories)
        expected = ids_only.batch_remove_losses(counts)
        assert np.array_equal(with_bitmap.batch_remove_losses(counts), expected)
        ones_bits = bitset.pack_bits(counts == 1)
        assert np.array_equal(
            with_bitmap.batch_remove_losses(counts, ones_bits=ones_bits), expected
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_swap_delta(self, seed):
        with_bitmap, ids_only = kernel_pair(seed)
        counts = random_counts_row(seed + 4, with_bitmap.num_trajectories)
        rng = as_generator(seed + 5)
        for _ in range(10):
            removed, added = (
                int(i) for i in rng.integers(0, with_bitmap.num_billboards, size=2)
            )
            expected = ids_only.swap_delta(removed, added, counts)
            assert with_bitmap.swap_delta(removed, added, counts) == expected
            masks = (bitset.pack_bits(counts == 0), bitset.pack_bits(counts == 1))
            assert (
                with_bitmap.swap_delta(
                    removed, added, counts, free_bits=masks[0], ones_bits=masks[1]
                )
                == expected
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_partner_swap_delta_in_bls(self, seed):
        """The BLS partner-side delta agrees across kernels on live allocations."""
        from repro.core.allocation import Allocation

        lists = random_coverage(seed, 10, 60)
        pairs = [
            (int(a), int(b))
            for a, b in as_generator(seed + 6).integers(0, 10, size=(8, 2))
        ]
        advertisers = [Advertiser(0, 5, 10.0), Advertiser(1, 4, 8.0)]
        deltas = {}
        for budget in (64.0, 0.0):
            coverage = CoverageIndex.from_coverage_lists(
                lists, 60, bitmap_budget_mb=budget
            )
            if budget:
                force_bitmap(coverage)
            allocation = Allocation(MROAMInstance(coverage, advertisers, gamma=0.5))
            assign_rng = as_generator(seed + 7)
            for billboard_id in range(coverage.num_billboards):
                if assign_rng.random() < 0.6:
                    allocation.assign(billboard_id, int(assign_rng.integers(0, 2)))
            deltas[budget] = [
                _partner_swap_delta(allocation, partner, lost, gained)
                for partner in (0, 1)
                for lost, gained in pairs
            ]
        assert deltas[64.0] == deltas[0.0]


class TestBudgetGating:
    def test_zero_budget_disables_bitmap(self):
        index = CoverageIndex.from_coverage_lists(
            [[0, 1], [1, 2]], 3, bitmap_budget_mb=0.0
        )
        assert not index.has_bitmap
        assert index.bits_of(0) is None
        assert index.influence_of_set([0, 1]) == 3

    def test_ram_within_budget(self):
        index = CoverageIndex.from_coverage_lists([[0, 1], [1, 2]], 3)
        assert index.bitmap_tier == "ram"

    def test_past_budget_warns_once_and_falls_back(self, caplog):
        index = CoverageIndex.from_coverage_lists(
            [[0, 1], [1, 2]], 3, bitmap_budget_mb=1e-9
        )
        with caplog.at_level(logging.WARNING, logger="repro.billboard.influence"):
            assert index.bitmap_tier is None
            assert index.influence_of_set([0, 1]) == 3  # already decided
        skips = [
            record
            for record in caplog.records
            if "bitmap kernel skipped" in record.getMessage()
        ]
        assert len(skips) == 1
        # The warn names the budget and the id-array fallback, nothing else.
        message = skips[0].getMessage()
        assert BITMAP_BUDGET_ENV in message
        assert "id-array" in message
        assert "spill" not in message

    def test_budget_smaller_than_bitmap_disables_it(self):
        index = CoverageIndex.from_coverage_lists(
            [[0], [1]], 2_000_000, bitmap_budget_mb=0.001
        )
        assert index.bitmap_bytes() > 0.001 * 1024 * 1024
        assert not index.has_bitmap

    def test_env_budget_is_read(self, monkeypatch):
        monkeypatch.setenv(BITMAP_BUDGET_ENV, "0")
        index = CoverageIndex.from_coverage_lists([[0, 1], [1, 2]], 3)
        assert not index.has_bitmap

    def test_env_budget_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(BITMAP_BUDGET_ENV, "plenty")
        with pytest.raises(ValueError, match=BITMAP_BUDGET_ENV):
            _resolve_bitmap_budget_mb(None)

    def test_default_budget_without_env(self, monkeypatch):
        monkeypatch.delenv(BITMAP_BUDGET_ENV, raising=False)
        assert _resolve_bitmap_budget_mb(None) == DEFAULT_BITMAP_BUDGET_MB

    def test_packed_masks_follow_batch_preference(self, tiny_instance):
        from repro.core.allocation import Allocation

        allocation = Allocation(tiny_instance)
        coverage = tiny_instance.coverage
        masks = allocation.packed_masks(0)
        if coverage.has_bitmap and coverage.batch_prefers_bitmap:
            assert masks is not None
        else:
            assert masks is None


class TestRemovedStorageOption:
    """The bitmap has one storage tier; the ``bitmap_storage=`` argument
    that used to pick between tiers is gone from every constructor."""

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: CoverageIndex(None, None, bitmap_storage="ram"),
            lambda: CoverageIndex.from_trajectory_chunks(
                None, [], bitmap_storage="ram"
            ),
            lambda: CoverageIndex.from_coverage_lists([[0]], 1, bitmap_storage="ram"),
            lambda: CoverageIndex.from_flat_arrays(
                np.zeros(1, dtype=np.int64), np.array([0, 1]), 1, bitmap_storage="ram"
            ),
            lambda: build_coverage(None, None, bitmap_storage="ram"),
            lambda: coverage_cache.get_or_build(None, None, bitmap_storage="ram"),
            lambda: coverage_cache.coverage_fingerprint(
                None, None, 100.0, bitmap_storage="ram"
            ),
            lambda: coverage_cache.load("absent.npz", bitmap_storage="ram"),
        ],
        ids=[
            "init",
            "from_trajectory_chunks",
            "from_coverage_lists",
            "from_flat_arrays",
            "build_coverage",
            "get_or_build",
            "coverage_fingerprint",
            "load",
        ],
    )
    def test_bitmap_storage_argument_raises_type_error(self, construct):
        with pytest.raises(TypeError, match="bitmap_storage"):
            construct()


class TestBitsetPrimitives:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(0, 300))
    def test_pack_popcount_roundtrip(self, seed, size):
        mask = as_generator(seed).random(size) < 0.4
        packed = bitset.pack_bits(mask)
        assert packed.dtype == bitset.WORD_DTYPE
        assert len(packed) == bitset.num_words(size)
        assert bitset.popcount_total(packed) == int(mask.sum())
        assert np.array_equal(bitset.unpack_ids(packed, size), np.nonzero(mask)[0])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 300))
    def test_pack_ids_matches_pack_bits(self, seed, size):
        rng = as_generator(seed)
        ids = np.unique(rng.integers(0, size, size=size // 2 + 1))
        mask = np.zeros(size, dtype=bool)
        mask[ids] = True
        assert np.array_equal(bitset.pack_ids(ids, size), bitset.pack_bits(mask))
