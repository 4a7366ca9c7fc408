"""Online host operations: proposals arriving one at a time.

The paper's introduction motivates MROAM with hosts that "deal with multiple
advertisers coming every day".  The batch solvers answer "given today's full
proposal book, what is the best partition?"; this module layers the daily
workflow on top:

* :meth:`OnlineHost.quote` — price an incoming proposal without committing:
  how much would total regret change if we accepted it and locally repaired
  the plan?
* :meth:`OnlineHost.accept` — commit the proposal and adopt the repaired
  plan (equivalent to ``commit(quote(...))``).
* :meth:`OnlineHost.commit` — commit a previously returned quote's token:
  the repair computed while pricing is adopted, not recomputed.
* :meth:`OnlineHost.quote_many` — price a batch of independent proposals,
  optionally fanned across the instance's persistent worker pool.
* :meth:`OnlineHost.reoptimize` — run the full randomized local search over
  the current book (e.g. nightly).

Repair = serve the newcomer with the synchronous greedy over the free pool,
then a bounded billboard-driven local search (the shared
:func:`~repro.algorithms.repair.bounded_repair` pass).  Pricing is
incremental (DESIGN.md §15): one journaled allocation lives across quotes; a
quote repairs it in place, records the deltas, and rolls back in O(moves
touched); sweep certificates and regret caches stay warm.  Quotes are
bit-identical to rebuilding the extended instance and repairing a copy of
the plan per quote — :class:`repro.reference.ReferenceHost`, the baseline
the equivalence tests and the quote bench compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import env, obs
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.market.incremental import QuoteWorkspace, _price_chunk
from repro.parallel.pool import instance_pool


@dataclass(frozen=True)
class QuoteToken:
    """Commit material for one priced proposal.

    Valid only against the book version it was priced at: any accepted
    proposal or adopted reoptimization in between invalidates it (the
    recorded repair was computed against a plan that no longer exists).
    """

    newcomer: Advertiser
    book_version: int
    #: The journal slice + sweep snapshot that rebuild the repaired plan.
    entries: tuple
    post_state: tuple


@dataclass(frozen=True)
class Quote:
    """The host's answer to "what would accepting this proposal cost me?"."""

    advertiser_name: str
    demand: int
    payment: float
    regret_before: float
    regret_after: float
    would_satisfy: bool
    #: Commit material (``None`` for pool-priced batch quotes, which are
    #: price-only).  Excluded from equality so quotes compare on their
    #: numbers alone.
    token: QuoteToken | None = field(default=None, repr=False, compare=False)

    @property
    def regret_delta(self) -> float:
        """Regret change from accepting (negative = the book improves)."""
        return self.regret_after - self.regret_before

    @property
    def attractive(self) -> bool:
        """A proposal worth taking: the repaired plan's regret does not grow.

        Accepting an unsatisfiable proposal adds (part of) its payment as
        fresh unsatisfied penalty; accepting a serviceable one typically
        leaves regret unchanged or lower.
        """
        return self.regret_delta <= 1e-9


class OnlineHost:
    """A host managing a growing proposal book over a fixed inventory."""

    def __init__(
        self,
        coverage: CoverageIndex,
        gamma: float = 0.5,
        repair_sweeps: int = 2,
        seed: int = 0,
    ) -> None:
        if repair_sweeps < 0:
            raise ValueError(f"repair_sweeps must be non-negative, got {repair_sweeps}")
        self.coverage = coverage
        self.gamma = gamma
        self.repair_sweeps = repair_sweeps
        self.seed = seed
        self._advertisers: list[Advertiser] = []
        self._book_version = 0
        self._workspace = QuoteWorkspace(
            coverage, gamma=gamma, repair_sweeps=repair_sweeps
        )
        # The book instance handed to worker pools, rebuilt per book version
        # (pools key on the instance object, so reusing it keeps them warm).
        self._pool_instance: MROAMInstance | None = None
        self._pool_instance_version = -1

    # ------------------------------------------------------------------ state

    @property
    def advertisers(self) -> tuple[Advertiser, ...]:
        return tuple(self._advertisers)

    @property
    def allocation(self) -> Allocation | None:
        """The current plan (``None`` until the first acceptance).

        This is the live journaled allocation over the extended instance
        (book + one empty ghost slot); the ghost owns nothing and contributes
        ``0.0`` regret, so it reads exactly like the book plan.
        """
        return self._workspace.allocation if self._advertisers else None

    def total_regret(self) -> float:
        return self._workspace.book_regret() if self._advertisers else 0.0

    def instance(self) -> MROAMInstance:
        """The MROAM instance of the current book."""
        if not self._advertisers:
            raise ValueError("the proposal book is empty")
        return MROAMInstance(self.coverage, self._advertisers, gamma=self.gamma)

    # ------------------------------------------------------------- operations

    def _price(self, demand: int, payment: float, name: str) -> Quote:
        """Price one proposal in the workspace's spare slot; state is unchanged."""
        workspace = self._workspace
        newcomer = Advertiser(workspace.newcomer_slot, demand, payment, name=name)
        priced = workspace.price(newcomer)
        return Quote(
            advertiser_name=name,
            demand=demand,
            payment=payment,
            regret_before=priced.regret_before,
            regret_after=priced.regret_after,
            would_satisfy=priced.would_satisfy,
            token=QuoteToken(
                newcomer=newcomer,
                book_version=self._book_version,
                entries=priced.entries,
                post_state=priced.post_state,
            ),
        )

    def quote(self, demand: int, payment: float, name: str = "") -> Quote:
        """Price a proposal without changing the host's state.

        Timed under the ``quote.price`` span: its histogram's p50/p95/p99
        are the quoting-latency numbers the online-service work needs.
        """
        with obs.span("quote.price", demand=int(demand)):
            return self._price(demand, payment, name)

    def commit(self, quote: "Quote | QuoteToken") -> None:
        """Adopt a priced proposal's repair: the token's plan becomes live.

        Raises ``ValueError`` when the quote carries no token (pool-priced
        batch quotes) or the book changed since it was priced.
        """
        token = quote.token if isinstance(quote, Quote) else quote
        if token is None:
            raise ValueError("quote carries no commit token; re-price it")
        if token.book_version != self._book_version:
            raise ValueError(
                "stale quote token: the book changed since this proposal was "
                "priced; re-quote it"
            )
        self._workspace.accept(token.newcomer, token.entries, token.post_state)
        self._advertisers.append(token.newcomer)
        self._book_version += 1

    def accept(self, demand: int, payment: float, name: str = "") -> Quote:
        """Commit a proposal: extend the book and adopt the repaired plan."""
        with obs.span("quote.accept", demand=int(demand)):
            quote = self._price(demand, payment, name)
            self.commit(quote)
        return quote

    def quote_many(self, proposals, workers: int | None = None) -> list[Quote]:
        """Price independent proposals as one batch (state unchanged).

        ``proposals`` is a sequence of ``(demand, payment)`` or ``(demand,
        payment, name)`` tuples.  With ``workers >= 2`` (argument or
        ``REPRO_QUOTE_BATCH_WORKERS``) and a non-empty book, the batch fans across the book instance's
        persistent worker pool; pool-priced quotes are price-only (no commit
        token), and their numbers are bit-identical to the serial loop.
        """
        normalized = [
            (proposal[0], proposal[1], proposal[2] if len(proposal) > 2 else "")
            for proposal in proposals
        ]
        if workers is None:
            configured = env.QUOTE_BATCH_WORKERS.get()
            workers = int(configured) if configured is not None else 0
        with obs.span("quote.batch", proposals=len(normalized)):
            if self._advertisers and workers >= 2 and len(normalized) >= 2:
                quotes = self._quote_many_parallel(normalized, workers)
                if quotes is not None:
                    return quotes
            return [
                self._price(demand, payment, name)
                for demand, payment, name in normalized
            ]

    def _quote_many_parallel(self, proposals: list, workers: int) -> list | None:
        """Fan a normalized batch across the warm pool; ``None`` = go serial."""
        instance = self._book_instance()
        pool = instance_pool(instance, workers)
        if pool.workers < 2:
            return None
        owners = self._workspace.allocation.owners.copy()
        chunk = -(-len(proposals) // pool.workers)  # ceil division
        payloads = [
            {
                "owners": owners,
                "proposals": proposals[start : start + chunk],
                "repair_sweeps": self.repair_sweeps,
                "min_improvement": self._workspace.min_improvement,
            }
            for start in range(0, len(proposals), chunk)
        ]
        rows = [row for chunk_rows in pool.run(_price_chunk, payloads) for row in chunk_rows]
        return [
            Quote(
                advertiser_name=name,
                demand=demand,
                payment=payment,
                regret_before=regret_before,
                regret_after=regret_after,
                would_satisfy=would_satisfy,
            )
            for (demand, payment, name), (
                regret_before,
                regret_after,
                would_satisfy,
            ) in zip(proposals, rows)
        ]

    def _book_instance(self) -> MROAMInstance:
        """The book instance reused across pool calls at one book version."""
        if self._pool_instance_version != self._book_version:
            self._pool_instance = self.instance()
            self._pool_instance_version = self._book_version
        return self._pool_instance

    def reoptimize(self, restarts: int = 3) -> float:
        """Full randomized local search over the whole book (e.g. nightly).

        Returns the new total regret.  Keeps the better of the incumbent and
        the freshly searched plan; adopting invalidates outstanding quote
        tokens (the book version advances).
        """
        if not self._advertisers:
            return 0.0
        result = RandomizedLocalSearch(
            neighborhood="bls", restarts=restarts, seed=self.seed
        ).solve(self.instance())
        if result.total_regret < self.total_regret():
            self._workspace.adopt_book_plan(result.allocation)
            self._book_version += 1
        return self.total_regret()
