"""The incremental quote-pricing workspace (DESIGN.md §15).

Pricing from scratch rebuilds an extended instance and re-copies the whole
standing plan per quote — O(book) before repair even starts
(:class:`repro.reference.ReferenceHost` keeps that path as the oracle).
:class:`QuoteWorkspace` keeps one *extended* world alive across quotes
instead:

* one :class:`~repro.core.journal.JournaledAllocation` over the book's
  advertisers **plus one spare newcomer slot** (held by a zero-payment ghost
  contract between quotes, which contributes exactly ``0.0`` regret);
* one :class:`~repro.algorithms.sweep.BillboardSweepState` whose version
  certificates survive from quote to quote — sound because a rejected quote
  rolls the allocation back to exactly the state the certificates were
  earned against;
* the journal's per-advertiser regret cache, invalidated by the very deltas
  the journal records.

Pricing a proposal mutates the spare slot's contract in place, repairs
around it (greedy + bounded BLS through
:func:`~repro.algorithms.repair.bounded_repair`), captures the journal
slice and a sweep-state snapshot as the commit token, and rolls everything
back.  Accepting replays the recorded deltas — the repair is never
recomputed.  Every float the caller sees is produced by the same operations
in the same order as the from-scratch path, so quotes are bit-identical
(the property tests in ``tests/market/test_online_incremental.py`` hold the
two hosts in lockstep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.repair import bounded_repair, settle_certificates
from repro.algorithms.sweep import BillboardSweepState
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.journal import JournaledAllocation
from repro.core.problem import MROAMInstance


def _ghost(slot: int) -> Advertiser:
    """The idle contract of the spare slot: demand 1, payment 0.

    Zero payment makes both branches of Eq. 1 evaluate to exactly ``0.0``,
    so the ghost never perturbs a regret sum (``x + 0.0 == x`` in IEEE 754).
    """
    return Advertiser(slot, 1, 0.0, name="__ghost__")


@dataclass(frozen=True)
class PricedProposal:
    """One priced (and rolled-back) proposal plus its commit material."""

    newcomer: Advertiser
    regret_before: float
    regret_after: float
    would_satisfy: bool
    #: Journal slice that rebuilds the repaired plan via ``replay``.
    entries: tuple
    #: Sweep-state snapshot taken at the repaired plan (restored on accept).
    post_state: tuple


class QuoteWorkspace:
    """Long-lived pricing state: book + spare slot, journaled, warm."""

    def __init__(
        self,
        coverage: CoverageIndex,
        gamma: float = 0.5,
        repair_sweeps: int = 2,
        min_improvement: float = 1e-9,
        advertisers: Sequence[Advertiser] = (),
        allocation: Allocation | None = None,
    ) -> None:
        self._coverage = coverage
        self._gamma = float(gamma)
        self.repair_sweeps = repair_sweeps
        self.min_improvement = min_improvement
        self._book: list[Advertiser] = list(advertisers)
        self._rebuild(allocation)

    def _rebuild(self, book_allocation: Allocation | None) -> None:
        """Cold start: fresh extended instance, allocation, and sweep state."""
        slot = len(self._book)
        self._ghost = _ghost(slot)
        self._ext = MROAMInstance(
            self._coverage, [*self._book, self._ghost], gamma=self._gamma
        )
        self.allocation = JournaledAllocation(self._ext)
        if book_allocation is not None:
            self.allocation.copy_assignments_from(book_allocation)
        self.allocation.journal_enable()
        self.state = BillboardSweepState(slot + 1, self._coverage.num_billboards)
        if self._book:
            self.settle()

    def settle(self) -> None:
        """Re-certify the sweep state against the standing plan (no moves).

        Called after every book change: a bounded repair stops at
        ``max_sweeps`` before re-certifying its last accepted moves, leaving
        the carried state half-stale — and every later quote would then
        screen against a changed-candidate pool of half the inventory.  One
        verdict-only screen pass (see
        :func:`~repro.algorithms.repair.settle_certificates`) brings the
        certificates current, so the next quote's sweeps are restricted to
        the newcomer's own dirty set.
        """
        settle_certificates(self.allocation, self.state, self.min_improvement)

    # ------------------------------------------------------------------ state

    @property
    def newcomer_slot(self) -> int:
        """Index of the spare slot newcomers are priced in."""
        return len(self._book)

    @property
    def book(self) -> tuple[Advertiser, ...]:
        return tuple(self._book)

    def book_regret(self) -> float:
        """Total regret of the booked advertisers (slot excluded).

        Summed in id order over the journal's regret cache — the identical
        floats, in the identical order, as the book allocation's
        ``total_regret()`` on the from-scratch path.
        """
        return float(sum(self.allocation.regret(i) for i in range(len(self._book))))

    def _set_slot(self, advertiser: Advertiser) -> None:
        """Point the spare slot's contract at ``advertiser`` (in place)."""
        slot = self.newcomer_slot
        self._ext.advertisers[slot] = advertiser
        self._ext.demands[slot] = advertiser.demand
        self._ext.payments[slot] = advertiser.payment
        self.allocation.invalidate_regret(slot)

    # ------------------------------------------------------------- operations

    def price(self, newcomer: Advertiser) -> PricedProposal:
        """Repair around ``newcomer`` in the spare slot, record, roll back.

        Leaves the workspace byte-identical to before the call (journal
        rollback + sweep-state restore + ghost contract back in the slot) on
        every exit path — a repair that raises leaves no residue in the
        standing plan.  The returned :class:`PricedProposal` carries
        everything :meth:`accept` needs to commit the repair without
        recomputing it.
        """
        slot = self.newcomer_slot
        if newcomer.advertiser_id != slot:
            raise ValueError(
                f"newcomer id must be the spare slot {slot}, "
                f"got {newcomer.advertiser_id}"
            )
        pre_state = self.state.snapshot()
        mark = self.allocation.journal_mark()
        self._set_slot(newcomer)
        try:
            before = self.book_regret()
            repaired = bounded_repair(
                self.allocation,
                slot,
                self.repair_sweeps,
                state=self.state,
                min_improvement=self.min_improvement,
            )
            if repaired is not self.allocation:
                raise RuntimeError("incremental repair must keep the journaled object")
            after = self.allocation.total_regret()
            would_satisfy = self.allocation.is_satisfied(slot)
            entries = self.allocation.journal_entries(mark)
            post_state = self.state.snapshot()
        finally:
            self.allocation.rollback_to(mark)
            self.state.restore(pre_state)
            self._set_slot(self._ghost)
        return PricedProposal(
            newcomer=newcomer,
            regret_before=float(before),
            regret_after=float(after),
            would_satisfy=bool(would_satisfy),
            entries=entries,
            post_state=post_state,
        )

    def accept(self, newcomer: Advertiser, entries: tuple, post_state: tuple) -> None:
        """Commit a priced proposal: replay its deltas, grow the book.

        The replayed journal slice reproduces the repaired plan exactly
        (assign/release are deterministic in their arguments), the restored
        sweep snapshot revalidates the certificates earned while pricing,
        and a fresh ghost slot is appended for the next newcomer.

        Failure-atomic like :meth:`price`: a replay or restore that raises
        rolls the plan back to the journal mark, restores the sweep state
        and puts the ghost back in the slot before re-raising.
        """
        pre_state = self.state.snapshot()
        mark = self.allocation.journal_mark()
        self._set_slot(newcomer)
        try:
            self.allocation.replay(entries)
            self.state.restore(post_state)
        except BaseException:
            self.allocation.rollback_to(mark)
            self.state.restore(pre_state)
            self._set_slot(self._ghost)
            raise
        self.allocation.journal_commit()
        self._book.append(newcomer)
        slot = len(self._book)
        self._ghost = _ghost(slot)
        self._ext = MROAMInstance(
            self._coverage, [*self._book, self._ghost], gamma=self._gamma
        )
        self.allocation.grow(self._ext)
        self.state.grow_advertisers(slot + 1)
        self.settle()

    def adopt_book_plan(self, book_allocation: Allocation) -> None:
        """Adopt a from-scratch plan over the book (e.g. after reoptimize).

        Bulk-copies the assignments and cold-starts the sweep state — every
        certificate was earned against the replaced plan.
        """
        self.allocation.copy_assignments_from(book_allocation)
        self.state = BillboardSweepState(
            self.newcomer_slot + 1, self._coverage.num_billboards
        )
        self.settle()

    def install_owners(self, owners: np.ndarray) -> None:
        """Rebuild a shipped owner vector into the (empty) allocation.

        Used by pool workers: the parent ships its book plan as the compact
        owner vector, and replaying it as assigns reproduces the counter
        rows, influence vector, and sets exactly (integer adds commute).
        """
        owners = np.asarray(owners)
        self.allocation.replay(
            ("assign", int(billboard_id), int(owners[billboard_id]))
            for billboard_id in np.nonzero(owners != UNASSIGNED)[0]
        )


def _price_chunk(instance: MROAMInstance, payload: dict) -> list:
    """Pool runner: price a chunk of proposals against a shipped book plan.

    Runs in a worker against the attached *book* instance (which never
    mutates — the newcomer slot lives only in the worker's private
    workspace).  A cold workspace prices bit-identically to the parent's
    warm one (DESIGN.md §15), so the fan-out changes wall-clock only.
    """
    workspace = QuoteWorkspace(
        instance.coverage,
        gamma=instance.gamma,
        repair_sweeps=payload["repair_sweeps"],
        min_improvement=payload["min_improvement"],
        advertisers=instance.advertisers,
    )
    owners = payload["owners"]
    if owners is not None:
        workspace.install_owners(owners)
        workspace.settle()
    slot = workspace.newcomer_slot
    results = []
    for demand, payment, name in payload["proposals"]:
        priced = workspace.price(Advertiser(slot, demand, payment, name=name))
        results.append(
            (priced.regret_before, priced.regret_after, priced.would_satisfy)
        )
    return results
