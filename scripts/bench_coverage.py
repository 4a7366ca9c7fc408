"""Coverage-kernel benchmark: seed (id-array) vs packed-bitmap kernels.

Times, on the default NYC-scale benchmark city:

* **index build** — the seed's per-billboard grid-query loop vs the batched
  cell-bucket join now used by :class:`CoverageIndex`;
* **1k ``influence_of_set`` queries** — the seed ``np.unique(concatenate)``
  id-array kernel vs the packed-bitmap OR/popcount kernel;
* **a BLS cell** — the full billboard-driven local search solved with the
  bitmap kernel disabled vs enabled (the ``influence_of_set``-heavy workload
  of the paper's efficiency study).

Appends to ``BENCH_coverage.json`` — an append-only, commit-stamped time
series (see ``scripts/_bench_history.py``); ``--gate-regression 1.15`` fails
the run when any timing is >15% slower than the best recorded run of the
same scenario.

Usage::

    PYTHONPATH=src python scripts/bench_coverage.py            # full bench
    PYTHONPATH=src python scripts/bench_coverage.py --smoke    # seconds-fast
    PYTHONPATH=src python scripts/bench_coverage.py \
        --gate-regression 1.15                                 # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench_history

from repro import env, obs
from repro.billboard import coverage_cache
from repro.billboard.influence import BITMAP_BUDGET_ENV, CoverageIndex
from repro.billboard.model import BillboardDB
from repro.experiments.harness import run_cell
from repro.market.scenario import Scenario
from repro.spatial.grid import GridIndex
from repro.trajectory.model import TrajectoryDB
from repro.utils.rng import as_generator


def legacy_covered_lists(
    billboards: BillboardDB, trajectories: TrajectoryDB, lambda_m: float
) -> list[np.ndarray]:
    """The seed repo's coverage build: one Python-level grid query per billboard."""
    grid = GridIndex(trajectories.all_points, cell_size=lambda_m)
    point_owner = np.repeat(
        np.arange(len(trajectories), dtype=np.int64), trajectories.point_counts
    )
    covered = []
    for billboard in billboards:
        hits = grid.query_radius(billboard.location.x, billboard.location.y, lambda_m)
        covered.append(np.unique(point_owner[hits]))
    return covered


def bench_build(scenario: Scenario, repeats: int = 3) -> tuple[dict, CoverageIndex]:
    """Best-of-``repeats`` timings so first-call overheads don't skew either side."""
    city = scenario.build_city()
    legacy_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        legacy = legacy_covered_lists(
            city.billboards, city.trajectories, scenario.lambda_m
        )
        legacy_s = min(legacy_s, time.perf_counter() - started)

    vectorized_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        index = CoverageIndex(
            city.billboards, city.trajectories, lambda_m=scenario.lambda_m
        )
        vectorized_s = min(vectorized_s, time.perf_counter() - started)

    for billboard_id in range(index.num_billboards):
        assert np.array_equal(legacy[billboard_id], index.covered_by(billboard_id)), (
            f"vectorized join disagrees with legacy build at billboard {billboard_id}"
        )
    return {
        "legacy_loop_s": legacy_s,
        "vectorized_join_s": vectorized_s,
        "speedup": legacy_s / vectorized_s if vectorized_s > 0 else float("inf"),
        "note": "legacy loop also runs on the rewritten CSR grid, so this "
        "under-reports the gain over the seed's dict-of-cells grid",
    }, index


def bench_influence_queries(index: CoverageIndex, num_queries: int, seed: int = 0) -> dict:
    rng = as_generator(seed)
    max_set = max(2, min(50, index.num_billboards))
    query_sets = [
        rng.choice(
            index.num_billboards, size=int(rng.integers(1, max_set)), replace=False
        ).tolist()
        for _ in range(num_queries)
    ]
    assert index.has_bitmap, "bitmap kernel unavailable — raise REPRO_BITMAP_BUDGET_MB"

    started = time.perf_counter()
    ids_answers = [index.influence_of_set_ids(s) for s in query_sets]
    ids_s = time.perf_counter() - started

    started = time.perf_counter()
    bitmap_answers = [index.influence_of_set(s) for s in query_sets]
    bitmap_s = time.perf_counter() - started

    assert ids_answers == bitmap_answers, "bitmap kernel disagrees with id kernel"
    return {
        "queries": num_queries,
        "id_array_s": ids_s,
        "bitmap_s": bitmap_s,
        "speedup": ids_s / bitmap_s if bitmap_s > 0 else float("inf"),
    }


def bench_bls_cell(scenario: Scenario, restarts: int) -> dict:
    """One BLS cell solved with the bitmap kernel off vs on.

    Fresh cities per mode so no coverage cache leaks across the comparison;
    the regret outcome must be identical (the kernels are bit-identical).
    """
    timings = {}
    regrets = {}
    for label, budget in (("id_array_s", "0"), ("bitmap_s", "")):
        with env.temporary(BITMAP_BUDGET_ENV, budget or None):
            city = scenario.build_city()
            instance = scenario.build_instance(city)
            started = time.perf_counter()
            metrics = run_cell(
                scenario, methods=["bls"], restarts=restarts, instance=instance
            )
            timings[label] = time.perf_counter() - started
            regrets[label] = metrics["bls"].total_regret
    assert regrets["id_array_s"] == regrets["bitmap_s"], (
        "BLS reached different regret under the two kernels"
    )
    return {
        **timings,
        "total_regret": regrets["bitmap_s"],
        "restarts": restarts,
        "speedup": timings["id_array_s"] / timings["bitmap_s"]
        if timings["bitmap_s"] > 0
        else float("inf"),
    }


def collect_obs_columns(scenario: Scenario, index: CoverageIndex, seed: int) -> dict:
    """Kernel-dispatch and cache-hit counters for the BENCH JSON.

    Runs *outside* the timed sections with collection enabled: a short
    instrumented replay of both query kernels, plus one cold + one warm
    coverage-cache round trip in a temporary directory, so the timed
    benchmark itself keeps the (default, disabled) no-op instrumentation
    path that the <5% regression criterion measures.
    """
    rng = as_generator(seed)
    max_set = max(2, min(50, index.num_billboards))
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        for _ in range(50):
            ids = rng.choice(
                index.num_billboards, size=int(rng.integers(1, max_set)), replace=False
            ).tolist()
            index.influence_of_set(ids)
            index.influence_of_set_ids(ids)
            index.batch_add_gains(np.zeros(index.num_trajectories, dtype=np.int64))
        city = scenario.build_city()
        with tempfile.TemporaryDirectory() as cache_dir:
            for _ in range(2):  # cold miss, then warm hit
                coverage_cache.get_or_build(
                    city.billboards,
                    city.trajectories,
                    lambda_m=scenario.lambda_m,
                    cache_dir=cache_dir,
                )
        counters = dict(obs.get_registry().counters)
    finally:
        if was_enabled:
            obs.reset()
        else:
            obs.disable()
    keys = (
        "influence.dispatch.idarray",
        "influence.dispatch.bitmap",
        "influence.bitmap.builds",
        "coverage_cache.hit",
        "coverage_cache.miss",
    )
    return {key: int(counters.get(key, 0)) for key in keys}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny city + few queries (CI wiring)"
    )
    parser.add_argument("--output", default="BENCH_coverage.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--gate-regression",
        type=float,
        default=None,
        nargs="?",
        const=_bench_history.DEFAULT_THRESHOLD,
        metavar="X",
        help="fail when any timing exceeds X times the best recorded run of "
        f"the same scenario (default X={_bench_history.DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scenario = Scenario(
            dataset="nyc", n_billboards=60, n_trajectories=400, seed=args.seed
        )
        num_queries, restarts = 100, 1
    else:
        scenario = Scenario(
            dataset="nyc", n_billboards=800, n_trajectories=8_000, seed=args.seed
        )
        num_queries, restarts = 1_000, 1

    build, index = bench_build(scenario)
    queries = bench_influence_queries(index, num_queries, seed=args.seed)
    bls = bench_bls_cell(scenario, restarts)
    obs_columns = collect_obs_columns(scenario, index, seed=args.seed)

    report = {
        "benchmark": "coverage-kernel",
        "smoke": bool(args.smoke),
        "commit": _bench_history.git_commit(),
        "scenario": {
            "dataset": scenario.dataset,
            "n_billboards": scenario.n_billboards,
            "n_trajectories": scenario.n_trajectories,
            "lambda_m": scenario.lambda_m,
            "seed": scenario.seed,
        },
        "machine": _bench_history.machine(),
        "build": build,
        "influence_of_set": queries,
        "bls_cell": bls,
        "obs": obs_columns,
    }
    path = Path(args.output)
    prior = _bench_history.load_history(path)
    history = _bench_history.append_run(path, report)
    print(json.dumps(report, indent=2))
    print(f"\nappended run {len(history['runs'])} to {path}")
    if args.gate_regression is not None:
        failures = _bench_history.gate_regression(prior, report, args.gate_regression)
        if failures:
            print("\nREGRESSION GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"regression gate passed (threshold {args.gate_regression:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
