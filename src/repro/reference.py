"""Reference implementations: the from-scratch oracles behind the fast paths.

Production has one path per decision — the dirty-set BLS/ALS sweeps
(:mod:`repro.algorithms.bls`, :mod:`repro.algorithms.als`) and the journaled
incremental quote pricing (:class:`repro.market.online.OnlineHost`).  This
module keeps the straightforward versions those paths must equal bit for
bit, for the equivalence tests and the bench baselines to import:

* :func:`full_bls` / :func:`full_als` — the sweep loops that rescan every
  billboard (pair) every sweep;
* :func:`find_improving_exchange` — the release/assign exchange scan over the
  whole inventory, and :func:`all_exchange_candidates`, its candidate mask;
* :func:`exchange_screen` — the scalar optimistic screen one row of
  :func:`~repro.algorithms.screen.round_flags` must agree with;
* :func:`own_side_stale` / :func:`changed_candidates` — the per-billboard
  certificate rules one row of
  :meth:`~repro.algorithms.sweep.BillboardSweepState.round_certificates` /
  :func:`~repro.algorithms.sweep.round_candidates` must agree with;
* :class:`ReferenceHost` — quote pricing that rebuilds the extended instance
  and copies the plan per quote.

Nothing here is instrumented, and no runtime option selects it: no module
under ``src/repro`` other than this one may import it (a test enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._marginal import _regret_values_unchecked
from repro.algorithms.als import _emit_stats as _emit_als_stats
from repro.algorithms.bls import _emit_stats as _emit_bls_stats
from repro.algorithms.bls import _select_partner
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.algorithms.repair import bounded_repair
from repro.algorithms.screen import _optimistic_regret
from repro.algorithms.sweep import BillboardSweepState
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.moves import delta_exchange_sets, delta_release
from repro.core.problem import MROAMInstance
from repro.market.online import Quote

# ------------------------------------------------------------ BLS (Alg. 5)


def all_exchange_candidates(
    owners: np.ndarray, advertiser_id: int, billboard_id: int
) -> np.ndarray:
    """Every legal exchange partner of ``billboard_id`` (the full scan's mask)."""
    mask = owners != advertiser_id
    mask[billboard_id] = False
    return np.nonzero(mask)[0]


def find_improving_exchange(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    min_improvement: float,
    counters: dict | None = None,
) -> int | None:
    """Best-bound-first search for an improving exchange partner of
    ``billboard_id`` (owned by ``advertiser_id``) over the whole inventory.

    Temporarily releases ``billboard_id`` so one batch coverage pass yields
    the exact own-side regret delta of every candidate partner, then defers
    to the production partner choice; the allocation is restored before
    returning.
    """
    instance = allocation.instance
    own_regret = instance.regret_of(
        advertiser_id, float(allocation.influence(advertiser_id))
    )
    allocation.release(billboard_id)
    try:
        released_influence = float(allocation.influence(advertiser_id))
        candidates = all_exchange_candidates(
            allocation.owners, advertiser_id, billboard_id
        )
        masks = allocation.packed_masks(advertiser_id)
        gains = instance.coverage.batch_add_gains(
            allocation.counts_row(advertiser_id),
            free_bits=masks[0] if masks is not None else None,
        )
        return _select_partner(
            allocation,
            advertiser_id,
            billboard_id,
            own_regret,
            released_influence,
            candidates,
            gains[candidates],
            min_improvement,
            counters,
        )
    finally:
        allocation.assign(billboard_id, advertiser_id)


def exchange_screen(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    candidate_ids: np.ndarray,
    min_improvement: float,
) -> bool:
    """Optimistic gate over one row: ``False`` proves that exchanging
    ``billboard_id`` with any of ``candidate_ids`` improves total regret by
    at most ``min_improvement``.

    The own side lands in ``[v_i − I(o_m), v_i + I(o_n)]`` and an assigned
    partner in ``[v_j − I(o_n), v_j + I(o_m)]``; the summed best-case regret
    drop upper-bounds the true improvement.
    """
    if len(candidate_ids) == 0:
        return False
    instance = allocation.instance
    individual = instance.coverage.individual_influences_f64
    advertiser = instance.advertisers[advertiser_id]
    own_influence = float(allocation.influence(advertiser_id))
    own_regret = instance.regret_of(advertiser_id, own_influence)
    own_best = _optimistic_regret(
        advertiser.payment,
        float(advertiser.demand),
        instance.gamma,
        own_influence - float(individual[billboard_id]),
        own_influence + individual[candidate_ids],
    )
    potential = own_regret - own_best

    candidate_owners = allocation.owners[candidate_ids]
    assigned = candidate_owners != UNASSIGNED
    if assigned.any():
        partner_ids = candidate_owners[assigned]
        partner_influence = allocation.influences.astype(np.float64)[partner_ids]
        payments = instance.payments[partner_ids]
        demands = instance.demands[partner_ids]
        partner_regret = _regret_values_unchecked(
            payments, demands, instance.gamma, partner_influence
        )
        partner_best = _optimistic_regret(
            payments,
            demands,
            instance.gamma,
            partner_influence - individual[candidate_ids[assigned]],
            partner_influence + float(individual[billboard_id]),
        )
        potential[assigned] += partner_regret - partner_best
    return bool(np.any(potential > min_improvement))


def own_side_stale(
    state: BillboardSweepState, advertiser_id: int, billboard_id: int
) -> bool:
    """True when ``billboard_id``'s own advertiser changed since its last
    certified scan (or it was never certified): the row then needs the full
    candidate mask, not just the changed candidates."""
    certified = state.scan_version[billboard_id]
    return bool(
        certified == 0 or state.advertiser_version[advertiser_id] > certified
    )


def changed_candidates(
    state: BillboardSweepState,
    billboard_id: int,
    owners: np.ndarray,
    advertiser_id: int,
) -> np.ndarray:
    """Exchange partners whose pairing with ``billboard_id`` may price
    differently than at its last certified scan: assigned candidates whose
    owner moved since, free candidates freed since.  The billboard itself
    and its own advertiser's billboards are excluded, as in the full mask.
    """
    certified = state.scan_version[billboard_id]
    assigned = owners != UNASSIGNED
    changed = np.empty(len(owners), dtype=bool)
    changed[assigned] = state.advertiser_version[owners[assigned]] > certified
    changed[~assigned] = state.freed_version[~assigned] > certified
    changed[billboard_id] = False
    changed[owners == advertiser_id] = False
    return np.nonzero(changed)[0]


def full_bls(
    allocation: Allocation,
    min_improvement: float = 1e-9,
    max_sweeps: int | None = None,
    stats: dict | None = None,
) -> Allocation:
    """Algorithm 5 rescanning every assigned billboard every sweep.

    Same contract and stats keys as
    :func:`~repro.algorithms.bls.billboard_driven_local_search`, minus the
    ``bls_dirty_*`` counters; returns the improved allocation (a new object
    when a greedy top-up is adopted).
    """
    instance = allocation.instance
    sweeps = exchanges = releases = topups = 0
    counters: dict = {}
    while True:
        sweeps += 1
        improved = False
        # Move families 1 & 2: pairwise and assigned↔free exchanges.
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
                if allocation.owner_of(billboard_id) != advertiser_id:
                    continue  # already moved earlier in this sweep
                partner = find_improving_exchange(
                    allocation, advertiser_id, billboard_id, min_improvement, counters
                )
                if partner is not None:
                    allocation.exchange_billboards(billboard_id, partner)
                    exchanges += 1
                    improved = True
        # Move family 3: releases.
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
                counters["release_evaluated"] = counters.get("release_evaluated", 0) + 1
                if delta_release(allocation, billboard_id) < -min_improvement:
                    allocation.release(billboard_id)
                    releases += 1
                    improved = True
        # Move family 4: greedy top-up, adopted only if it strictly improves.
        if allocation.unassigned:
            candidate = allocation.clone()
            synchronous_greedy(candidate)
            if candidate.total_regret() < allocation.total_regret() - min_improvement:
                allocation = candidate
                topups += 1
                improved = True
        if not improved or (max_sweeps is not None and sweeps >= max_sweeps):
            break
    if stats is not None:
        _emit_bls_stats(stats, sweeps, exchanges, releases, topups, counters)
    return allocation


# ------------------------------------------------------------ ALS (Alg. 4)


def full_als(
    allocation: Allocation, min_improvement: float = 1e-9, stats: dict | None = None
) -> Allocation:
    """Algorithm 4 pricing every advertiser pair every sweep (in place)."""
    num_advertisers = allocation.instance.num_advertisers
    sweeps = exchanges = evaluated = 0
    improved = True
    while improved:
        improved = False
        sweeps += 1
        for advertiser_a in range(num_advertisers):
            for advertiser_b in range(advertiser_a + 1, num_advertisers):
                delta = delta_exchange_sets(allocation, advertiser_a, advertiser_b)
                evaluated += 1
                if delta < -min_improvement:
                    allocation.exchange_sets(advertiser_a, advertiser_b)
                    exchanges += 1
                    improved = True
    if stats is not None:
        _emit_als_stats(stats, sweeps, exchanges, evaluated)
    return allocation


# ---------------------------------------------------------- quote pricing


@dataclass(frozen=True)
class ReferenceToken:
    """Commit material of a :class:`ReferenceHost` quote: the repaired plan."""

    newcomer: Advertiser
    book_version: int
    repaired: Allocation


class ReferenceHost:
    """From-scratch quote pricing with :class:`~repro.market.online.OnlineHost`'s
    quote / commit / accept / reoptimize surface.

    Every quote rebuilds the instance extended by the newcomer, copies the
    standing plan into a fresh allocation, and runs the cold
    :func:`~repro.algorithms.repair.bounded_repair` on it; committing adopts
    that repaired copy.  The host's quotes and plans must equal
    ``OnlineHost``'s with ``==``.
    """

    def __init__(
        self,
        coverage: CoverageIndex,
        gamma: float = 0.5,
        repair_sweeps: int = 2,
        seed: int = 0,
    ) -> None:
        self.coverage = coverage
        self.gamma = gamma
        self.repair_sweeps = repair_sweeps
        self.seed = seed
        self._advertisers: list[Advertiser] = []
        self.allocation: Allocation | None = None
        self._book_version = 0

    @property
    def advertisers(self) -> tuple[Advertiser, ...]:
        return tuple(self._advertisers)

    def total_regret(self) -> float:
        return self.allocation.total_regret() if self.allocation else 0.0

    def instance(self) -> MROAMInstance:
        if not self._advertisers:
            raise ValueError("the proposal book is empty")
        return MROAMInstance(self.coverage, self._advertisers, gamma=self.gamma)

    def quote(self, demand: int, payment: float, name: str = "") -> Quote:
        newcomer = Advertiser(len(self._advertisers), demand, payment, name=name)
        instance = MROAMInstance(
            self.coverage, [*self._advertisers, newcomer], gamma=self.gamma
        )
        allocation = Allocation(instance)
        if self.allocation is not None:
            allocation.copy_assignments_from(self.allocation)
        repaired = bounded_repair(
            allocation, newcomer.advertiser_id, self.repair_sweeps
        )
        return Quote(
            advertiser_name=name,
            demand=demand,
            payment=payment,
            regret_before=self.total_regret(),
            regret_after=repaired.total_regret(),
            would_satisfy=repaired.is_satisfied(newcomer.advertiser_id),
            token=ReferenceToken(newcomer, self._book_version, repaired),
        )

    def commit(self, quote: Quote) -> None:
        token = quote.token
        if token is None:
            raise ValueError("quote carries no commit token; re-price it")
        if token.book_version != self._book_version:
            raise ValueError("stale quote token: the book changed; re-quote it")
        self.allocation = token.repaired
        self._advertisers.append(token.newcomer)
        self._book_version += 1

    def accept(self, demand: int, payment: float, name: str = "") -> Quote:
        quote = self.quote(demand, payment, name)
        self.commit(quote)
        return quote

    def reoptimize(self, restarts: int = 3) -> float:
        if not self._advertisers:
            return 0.0
        result = RandomizedLocalSearch(
            neighborhood="bls", restarts=restarts, seed=self.seed
        ).solve(self.instance())
        if result.total_regret < self.total_regret():
            self.allocation = result.allocation
            self._book_version += 1
        return self.total_regret()
