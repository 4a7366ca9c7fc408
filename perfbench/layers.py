"""Per-layer metrics of a traced pass.

Two sources feed them:

* the benchmark's own spans and samples (:class:`recorder.Recorder`), taken
  around calls into each layer's public functions, plus the influence
  kernels timed by wrapping the ``CoverageIndex`` batch methods on the
  instance (traced pass only, so untraced passes run the library as is);
* the counters and histograms ``repro.obs`` already emits, read from its
  registry after the pass (worker snapshots are merged into it by the pool).

Names and units are declared in ``BENCHMARK.json``; README.md in this
directory maps each one to the end-to-end metric and workload it should
move.  A metric whose layer a workload never calls reads 0.
"""

from __future__ import annotations

import functools
import time

import numpy as np

#: The ``CoverageIndex`` batch kernels timed in traced passes.
KERNELS = (
    "batch_add_gains",
    "batch_add_gains_without",
    "batch_remove_losses",
    "swap_delta",
    "batch_swap_deltas",
)

#: Quote-desk bands by booked share of a city's proposals, in twelfths:
#: 8/12 (2/3, where the desk starts) up to 11/12 and beyond.
QUOTE_BANDS = {"fill67": 8, "fill75": 9, "fill83": 10, "fill92": 11}

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def instrument_kernels(index, rec) -> None:
    """Shadow the index's batch kernels with timing wrappers (this instance only).

    Worker processes attach their own index from shared memory, so kernel
    calls made inside restart workers are not counted here.
    """
    for name in KERNELS:
        kernel = getattr(index, name)
        tally = rec.kernels.setdefault(name, [0, 0.0])

        @functools.wraps(kernel)
        def timed(*args, _kernel=kernel, _tally=tally, **kwargs):
            started = time.perf_counter()
            try:
                return _kernel(*args, **kwargs)
            finally:
                _tally[0] += 1
                _tally[1] += time.perf_counter() - started

        setattr(index, name, timed)


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with 10 samples beyond.

    ``(0.0, 0.0, n)`` when there are too few samples for any such percentile.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 0.0, 0.0, n
    rank = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND beyond it
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def median(samples) -> float:
    return float(np.median(samples)) if len(samples) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _restart_counts(solve_stats) -> tuple[int, int, int]:
    """Restarts run, restarts that improved the best plan, restarts run at 0."""
    run = improved = at_zero = 0
    for stats in solve_stats:
        curve = stats["telemetry"]["convergence"]
        run += int(stats.get("restarts", 0))
        for before, after in zip(curve, curve[1:]):
            improved += after < before
            at_zero += before == 0.0
    return run, improved, at_zero


def per_layer(rec, registry, workers: int, overhead_share: float) -> dict:
    """Every per-layer metric of one traced pass, by name."""
    counters = registry.counters
    histograms = registry.histograms

    def hist_total(name: str) -> float:
        found = histograms.get(name)
        return float(found.total) if found is not None else 0.0

    def hist_max(name: str) -> float:
        found = histograms.get(name)
        return float(found.max) if found is not None and found.count else 0.0

    def hist_mean(name: str) -> float:
        found = histograms.get(name)
        return float(found.mean) if found is not None else 0.0

    builds = len(rec.spans["coverage.build"])
    candidate = counters.get("grid.join.candidate_pairs", 0)
    matched = counters.get("grid.join.matched_pairs", 0)
    metrics = {
        "coverage.build_s": ratio(sum(rec.spans["coverage.build"]), builds),
        "coverage.chunk_join_ms": 1e3 * median(rec.spans["coverage.chunk_join"]),
        "grid.join.candidate_pairs": ratio(candidate, builds),
        "grid.join.matched_pairs": ratio(matched, builds),
        "grid.join.match_ratio": ratio(matched, candidate),
        "coverage.nnz": ratio(sum(rec.values["coverage.nnz"]), builds),
        "influence.bitmap.bytes": ratio(sum(rec.values["influence.bitmap.bytes"]), builds),
        "coverage.bitmap_build_s": ratio(sum(rec.spans["coverage.bitmap_build"]), builds),
    }

    for name in KERNELS:
        calls, seconds = rec.kernels.get(name, (0, 0.0))
        metrics[f"influence.{name}.calls"] = calls
        metrics[f"influence.{name}.s"] = seconds
    rows = hist_total("influence.popcount.rows")
    metrics["influence.popcount.rows"] = rows
    # Computed, not measured: rows popcounted x bytes per bitmap row.
    metrics["influence.bytes_scanned"] = rows * median(rec.values["bitmap.row_bytes"])

    solve_stats = rec.values["solve.stats"]
    exchanges = sum(s.get("bls_exchanges", 0) for s in solve_stats)
    evaluated = sum(s.get("bls_exchange_evaluated", 0) for s in solve_stats)
    metrics.update(
        {
            "greedy.s": hist_total("span.restart.greedy"),
            "greedy.assignments": sum(s.get("assignments", 0) for s in solve_stats),
            "bls.s": hist_total("span.bls.search"),
            "bls.sweeps": sum(s.get("bls_sweeps", 0) for s in solve_stats),
            "bls.exchanges": exchanges,
            "bls.exchange_evaluated": evaluated,
            "bls.exchange_yield": ratio(exchanges, evaluated),
            "bls.screen.rounds": counters.get("bls.screen.rounds", 0),
        }
    )
    for phase in ("screen", "exchange", "release", "topup", "verify"):
        metrics[f"bls.phase.{phase}_s"] = hist_total(f"bls.phase.{phase}")

    map_s = hist_total("span.pool.map")
    task_s = hist_total("span.pool.task")
    run, improved, at_zero = _restart_counts(solve_stats)
    metrics.update(
        {
            "pool.spawn_s": hist_total("span.pool.spawn"),
            "pool.export_s": hist_total("span.pool.export"),
            "pool.map_s": map_s,
            "pool.task_s": task_s,
            "pool.task_max_s": hist_max("span.pool.task"),
            "pool.idle_share": max(0.0, 1.0 - ratio(task_s, map_s * workers)) if map_s else 0.0,
            "pool.task.batch": hist_mean("pool.task.batch"),
            "restarts.run": run,
            "restarts.improved": improved,
            "restarts.at_zero": at_zero,
        }
    )

    quote_s = np.asarray(
        list(rec.op_s.values()) if rec.values["quote.band"] else [], dtype=float
    )
    bands = np.asarray(rec.values["quote.band"], dtype=int)
    for label, twelfths in QUOTE_BANDS.items():
        band = quote_s[bands == twelfths]
        value, _, n = tail(band)
        metrics[f"quote.price_ms.p50.{label}"] = 1e3 * median(band)
        metrics[f"quote.price_ms.tail.{label}"] = 1e3 * value
        metrics[f"quote.price.n.{label}"] = n
    hits = counters.get("quote.cache.hit", 0)
    misses = counters.get("quote.cache.miss", 0)
    metrics.update(
        {
            "quote.repair_moves": float(np.mean(rec.values["quote.repair_moves"]))
            if rec.values["quote.repair_moves"]
            else 0.0,
            "quote.commit_ms": 1e3 * median(rec.spans["commit"]),
            "journal.rollback": counters.get("journal.rollback", 0),
            "quote.cache.hit_ratio": ratio(hits, hits + misses),
            "obs.overhead_share": overhead_share,
            "plan_regret": sum(rec.values["plan_regret"]),
            "book_regret": sum(rec.values["book_regret"]),
            "failed_ratio": ratio(rec.failed, rec.attempted),
        }
    )
    return metrics
