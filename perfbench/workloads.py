"""The benchmark workloads: inputs, set-up, measured run, checks.

Every workload follows one protocol:

* ``generate(seed)`` makes the inputs (trajectory chunks, billboard
  inventories) from the seed alone.  It is never timed.
* ``setup(inputs, rec)`` brings the system to the state the measured work
  starts from and adds its timed part to ``rec.setup_s``.
* ``run(state, rec)`` does the measured work, adds its timed part to
  ``rec.run_s`` and one latency per unit operation to ``rec.op_s``, keyed
  by an id that names the same operation in every pass.

Correctness checks run between the timed calls and are never timed.  All
market inputs use the paper's defaults λ = 100 m and γ = 0.5.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.registry import make_solver
from repro.billboard.influence import CoverageIndex
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.core.regret import regret
from repro.core.validation import validate_allocation
from repro.datasets.stream import nyc_stream
from repro.market.demand import generate_advertisers
from repro.market.online import OnlineHost
from repro.parallel.pool import close_all_pools

import layers

LAMBDA_M = 100.0
GAMMA = 0.5


def city_seed(seed: int, city: int) -> int:
    """Seed of one independent city of a multi-city workload."""
    return seed * 1000 + city


def contracts(supply: int, alpha: float, p_avg: float, seed: int):
    """The advertiser contracts of one market (deterministic in seed)."""
    rng = np.random.default_rng([seed, int(round(alpha * 1000)), int(round(p_avg * 10_000))])
    return generate_advertisers(supply, alpha, p_avg, seed=rng)


def timed_chunks(chunks, sink: list):
    """Yield ``chunks``, appending how long the consumer spent on each to ``sink``.

    The interval from handing out chunk k to the request for the next one is
    the join work the build did on chunk k.
    """
    for chunk in chunks:
        handed_out = time.perf_counter()
        yield chunk
        sink.append(time.perf_counter() - handed_out)


def build_ready_index(rec, billboards, chunks) -> tuple[CoverageIndex | None, float]:
    """Streamed coverage build plus the bitmap: an index ready to plan on.

    Returns the index and the build's wall seconds; the index is ``None``
    when the build raised (the recorder has counted the failure).
    """
    chunk_s: list[float] = []

    def build():
        with rec.span("coverage.build"):
            index = CoverageIndex.from_trajectory_chunks(
                billboards, timed_chunks(chunks, chunk_s), lambda_m=LAMBDA_M
            )
        with rec.span("coverage.bitmap_build"):
            index.bitmap_tier  # forces the lazy, once-per-index bitmap build
        return index

    ok, index, seconds = rec.op("build", "build", build)
    rec.spans["coverage.chunk_join"].extend(chunk_s)
    if not ok:
        return None, seconds
    rec.values["coverage.nnz"].append(int(index.individual_influences.sum()))
    rec.values["influence.bitmap.bytes"].append(index.bitmap_bytes())
    rec.values["bitmap.row_bytes"].append(index.bitmap_words * 8)
    if rec.traced:
        layers.instrument_kernels(index, rec)
    return index, seconds


def recomputed_regret(allocation, advertisers, coverage) -> float:
    """Total regret from scratch: owner vector -> union coverage -> Eq. 1."""
    owners = np.asarray(allocation.owners)
    total = 0.0
    for advertiser_id, advertiser in enumerate(advertisers):
        billboards = np.flatnonzero(owners == advertiser_id)
        achieved = (
            np.unique(np.concatenate([coverage.covered_by(b) for b in billboards])).size
            if len(billboards)
            else 0
        )
        total += regret(advertiser.payment, advertiser.demand, achieved, GAMMA)
    return total


def check_plan(rec, label, allocation, reported, advertisers, coverage) -> None:
    """Invariants plus a from-scratch regret recomputation of one plan."""
    try:
        validate_allocation(allocation)
    except AssertionError as error:
        rec.check(False, f"{label}: invalid allocation: {error}")
    recomputed = recomputed_regret(allocation, advertisers, coverage)
    rec.check(
        math.isclose(recomputed, reported, rel_tol=1e-9, abs_tol=1e-6),
        f"{label}: reported regret {reported!r} != recomputed {recomputed!r}",
    )


def greedy_regret(instance) -> float:
    """Regret of the synchronous greedy plan that BLS starts from."""
    plan = Allocation(instance)
    synchronous_greedy(plan)
    return plan.total_regret()


def owners_digest(allocation) -> bytes:
    return hashlib.sha256(np.asarray(allocation.owners).tobytes()).digest()


# ------------------------------------------------------------------ ingest


class IngestScale:
    """Streamed coverage build of one paper-scale corpus; the build is the run."""

    name = "ingest-scale"
    billboards = 1462
    trajectories = 150_000
    chunk_size = 25_000
    #: Billboards whose coverage is re-derived by brute force per build.
    spot_checks = 4

    def generate(self, seed: int):
        stream = nyc_stream(
            self.billboards, self.trajectories, chunk_size=self.chunk_size, seed=seed
        )
        chunks = list(stream.chunks())
        spots = np.random.default_rng([seed, 17]).choice(
            self.billboards, self.spot_checks, replace=False
        )
        return {
            "billboards": stream.billboards,
            "chunks": chunks,
            "expected": brute_force_coverage(stream.billboards.locations[spots], chunks),
            "spots": spots,
        }

    def _build(self, inputs, rec) -> float:
        """One checked build; returns its timed seconds (0 when it failed).

        The build is the workload's one operation.  The set-up and the
        measured run make the same build, so each is a sample of it.
        """
        index, seconds = build_ready_index(rec, inputs["billboards"], inputs["chunks"])
        if index is None:
            return 0.0
        rec.op_s["build"] = min(seconds, rec.op_s.get("build", seconds))
        flat, offsets = index.to_arrays()
        rec.digest_update(hashlib.sha256(flat.tobytes()).digest(), offsets.tobytes())
        rec.check(
            index.num_trajectories == self.trajectories,
            f"index holds {index.num_trajectories} trajectories, expected {self.trajectories}",
        )
        for billboard, expected in zip(inputs["spots"], inputs["expected"]):
            rec.check(
                np.array_equal(np.asarray(index.covered_by(int(billboard))), expected),
                f"coverage of billboard {billboard} differs from a brute-force join",
            )
        return seconds

    def setup(self, inputs, rec):
        rec.setup_s += self._build(inputs, rec)
        return inputs

    def run(self, inputs, rec) -> None:
        rec.run_s += self._build(inputs, rec)


def brute_force_coverage(locations, chunks) -> list:
    """Trajectory ids with a sample point within λ of each location."""
    hits = [[] for _ in locations]
    first_id = 0
    for chunk in chunks:
        owner = np.repeat(np.arange(len(chunk)), chunk.point_counts) + first_id
        for found, location in zip(hits, locations):
            diff = chunk.all_points - location
            found.append(owner[np.sum(diff * diff, axis=1) <= LAMBDA_M * LAMBDA_M])
        first_id += len(chunk)
    return [np.unique(np.concatenate(found)) for found in hits]


# ------------------------------------------------------------------- plans


class _CityWorkload:
    """Inputs and set-up shared by the multi-city workloads.

    Each city is an independent corpus from its own seed.  Many small
    cities per run, not one large one, keep the spread between seeds small:
    one market's search length varies several-fold with its contracts, the
    median over many markets much less.
    """

    billboards: int
    trajectories: int
    cities: int

    def generate(self, seed: int):
        cities = []
        for city in range(self.cities):
            stream = nyc_stream(
                self.billboards, self.trajectories, seed=city_seed(seed, city)
            )
            cities.append((city_seed(seed, city), stream.billboards, list(stream.chunks())))
        return cities

    def setup(self, inputs, rec):
        ready = []
        for seed, billboards, chunks in inputs:
            index, seconds = build_ready_index(rec, billboards, chunks)
            if index is None:
                continue
            rec.setup_s += seconds
            ready.append((seed, index))
        return ready


class PlanRestarts(_CityWorkload):
    """Randomized BLS with parallel restarts on two α = 1.0 markets per city."""

    name = "plan-restarts"
    billboards = 250
    trajectories = 2_500
    cities = 12
    alpha = 1.0
    p_avgs = (0.01, 0.05)
    restarts = 4
    restart_workers = 2

    def run(self, ready, rec) -> None:
        # The operation is the whole planning round: every solve of every
        # city.  One city's solve time varies by up to 2x with its contracts,
        # the sum over the cities far less.
        round_s = 0.0
        for seed, index in ready:
            for p_avg in self.p_avgs:
                advertisers = contracts(index.supply, self.alpha, p_avg, seed)
                instance = MROAMInstance(index, advertisers, gamma=GAMMA)
                solver = make_solver(
                    "bls",
                    seed=seed,
                    restarts=self.restarts,
                    restart_workers=self.restart_workers,
                )
                ok, result, plan_s = rec.op("solve", "solve", solver.solve, instance)
                close_all_pools()
                if not ok:
                    round_s = None
                    continue
                rec.run_s += plan_s
                if round_s is not None:
                    round_s += plan_s
                rec.values["solve.stats"].append(result.stats)
                rec.values["plan_regret"].append(result.total_regret)
                label = f"city {seed} p={p_avg}"
                check_plan(
                    rec, label, result.allocation, result.total_regret, advertisers, index
                )
                curve = result.stats["telemetry"]["convergence"]
                rec.check(
                    result.total_regret == curve[-1] == min(curve),
                    f"{label}: final regret {result.total_regret!r} is not the best "
                    f"of the restart curve {curve!r}",
                )
                if not rec.traced:  # the extra greedy would count in the layer figures
                    greedy = greedy_regret(instance)
                    rec.check(
                        curve[0] <= greedy,
                        f"{label}: BLS ended at {curve[0]!r}, above its greedy start {greedy!r}",
                    )
                rec.digest_update(owners_digest(result.allocation), result.total_regret)
        if round_s is not None and len(ready) == self.cities:
            rec.op_s["round"] = round_s


# ------------------------------------------------------------------- quotes


class QuoteDesk(_CityWorkload):
    """One closed-loop client per city, quoting against a filling book."""

    name = "quote-desk"
    cities = 12
    billboards = 300
    trajectories = 3_000
    alpha = 1.2
    p_avg = 0.02
    #: Share of the generated proposals booked during set-up.
    booked_share = 2 / 3
    #: The client commits every n-th quote it receives.
    commit_every = 5

    def setup(self, inputs, rec):
        desks = []
        for seed, index in super().setup(inputs, rec):
            advertisers = contracts(index.supply, self.alpha, self.p_avg, seed)
            booked = int(len(advertisers) * self.booked_share)
            host = OnlineHost(index, gamma=GAMMA)
            for advertiser in advertisers[:booked]:
                ok, _, seconds = rec.op(
                    "commit", "accept", host.accept, advertiser.demand, advertiser.payment
                )
                rec.setup_s += seconds
                if not ok:
                    break
            else:
                desks.append((seed, host, index, advertisers, booked))
        return desks

    def run(self, desks, rec) -> None:
        for desk in desks:
            self._desk(*desk, rec)

    def _desk(self, seed, host, index, advertisers, booked, rec) -> None:
        pending = list(advertisers[booked:])
        cursor = 0
        quotes = 0
        while pending:
            cursor %= len(pending)
            proposal = pending[cursor]
            before = owners_digest(host.allocation)
            book_regret = host.total_regret()
            book_size = len(host.advertisers)
            ok, quote, quote_s = rec.op(
                "quote", "quote", host.quote, proposal.demand, proposal.payment
            )
            rec.run_s += quote_s
            quotes += 1
            if not ok:
                cursor += 1
                continue
            rec.op_s[(seed, quotes)] = quote_s
            rec.values["quote.band"].append(12 * book_size // len(advertisers))
            rec.values["quote.repair_moves"].append(len(quote.token.entries))
            rec.check(
                owners_digest(host.allocation) == before,
                f"quote {quotes} changed the book's owner array",
            )
            rec.check(
                quote.regret_before == book_regret,
                f"quote {quotes}: regret_before {quote.regret_before!r} "
                f"!= book regret {book_regret!r}",
            )
            rec.digest_update(quote.regret_before, quote.regret_after, quote.would_satisfy)
            if quotes % self.commit_every:
                cursor += 1
                continue
            ok, _, commit_s = rec.op("commit", "commit", host.commit, quote)
            rec.run_s += commit_s
            if not ok:
                return  # the book may be half-updated; stop quoting against it
            pending.pop(cursor)
        final = host.total_regret()
        rec.values["book_regret"].append(final)
        book = host.advertisers
        rec.check(
            len(book) == len(advertisers),
            f"{len(book)} of {len(advertisers)} proposals booked",
        )
        check_plan(rec, "final book", host.allocation, final, book, index)
        rec.digest_update(owners_digest(host.allocation), final)


WORKLOADS = {
    workload.name: workload
    for workload in (IngestScale(), PlanRestarts(), QuoteDesk())
}
