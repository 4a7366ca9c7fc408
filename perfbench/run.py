"""Repository benchmark: end-to-end and per-layer metrics of its workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-restarts --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` measures the end-to-end metrics with observability off.
``--trace 1`` runs one untraced and one traced pass of the same work,
whatever ``--seconds`` says, and reports the per-layer metrics of the traced
pass plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, the run's provenance and the outputs
digest.  The exit code is non-zero when a correctness check fails.  With
``--workload all`` each workload runs in a child process of its own, so the
peak memory each one reports is its own, and the metrics are named
``<workload>/<metric>``.

Metric names, units and directions are declared in ``BENCHMARK.json`` at the
repository root; README.md in this directory documents them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pin every REPRO_* knob to its default before the library is imported: a
# knob left in the environment would change what is measured, and the run
# ledger would let restart grain sizes come from earlier runs' history.
UNSET_KNOBS = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in UNSET_KNOBS:
    del os.environ[_name]

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.parallel.pool import close_all_pools, effective_workers  # noqa: E402

import layers  # noqa: E402
from recorder import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
MIN_SETUPS = 3

#: Units of the unbounded figures printed next to the end-to-end metrics.
EXTRA_UNITS = {
    "op_p50_ms": "ms",
    "reference_ms": "ms",
    "run_s": "s",
    "plan_regret": "regret",
    "book_regret": "regret",
    "failed_ratio": "ratio",
    "quote_p50_ms": "ms",
    "quote_tail_ms": "ms",
    "quote_tail_percentile": "%",
    "quote_samples": "count",
    "quotes_per_s": "1/s",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def provenance(args) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repro_knobs_unset": UNSET_KNOBS,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Totals:
    """Accounting summed over every pass of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.check_failures: list[str] = []
        self.digests: list[str] = []

    def add(self, rec: Recorder, measured: bool = True) -> None:
        self.attempted += rec.attempted
        self.failed += rec.failed
        for key, count in rec.errors.items():
            self.errors[key] = self.errors.get(key, 0) + count
        self.check_failures.extend(rec.check_failures)
        if measured:
            self.digests.append(rec.digest)

    def finish(self) -> None:
        if len(set(self.digests)) > 1:
            self.check_failures.append(
                f"outputs differ between passes over the same inputs: {sorted(set(self.digests))}"
            )


def one_pass(workload, inputs, rec: Recorder) -> None:
    state = workload.setup(inputs, rec)
    workload.run(state, rec)


def measure(workload, inputs, seconds: float, totals: Totals) -> tuple[dict, dict]:
    """Untraced passes for ``seconds``; returns end-to-end metrics and extras."""
    setups, runs, passes, references = [], [], [], []
    #: Operation id -> its latency in each pass it succeeded in, in seconds
    #: and in multiples of that pass's reference time.
    op_s_by_pass: dict = defaultdict(list)
    op_rel_by_pass: dict = defaultdict(list)
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        rec = Recorder(sample_host=True)
        one_pass(workload, inputs, rec)
        totals.add(rec)
        passes.append(rec)
        setups.append(rec.setup_s)
        runs.append(rec.run_s)
        reference = rec.host.median()
        references.append(reference)
        for key, op_s in rec.op_s.items():
            op_s_by_pass[key].append(op_s)
            op_rel_by_pass[key].append(op_s / reference)
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            break  # the next pass would not fit
    while len(setups) < MIN_SETUPS:
        rec = Recorder()
        workload.setup(inputs, rec)
        totals.add(rec, measured=False)
        setups.append(rec.setup_s)
    close_all_pools()

    # Each operation's median over the passes.  How many passes fit depends
    # on the seed, so a fastest-of-passes figure would fall with the pass
    # count; the median does not.  The host's slow spells slow the reference
    # computation too, and the ratio to it drops them.
    op_median = [statistics.median(v) for v in op_s_by_pass.values()]
    op_median_rel = [statistics.median(v) for v in op_rel_by_pass.values()]
    run_s = statistics.median(runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_rel": layers.median(op_median_rel),
        "peak_rss_mb": peak_rss_mb(),
    }
    first = passes[0]
    extras = {
        "op_p50_ms": 1e3 * layers.median(op_median),
        "reference_ms": 1e3 * statistics.median(references),
        "run_s": run_s,
        "passes": len(passes),
        "setups": len(setups),
        "ops": len(op_median),
    }
    for outcome in ("plan_regret", "book_regret"):
        if first.values[outcome]:
            extras[outcome] = sum(first.values[outcome])
    extras["failed_ratio"] = layers.ratio(totals.failed, totals.attempted)
    if first.values["quote.band"]:
        value, percentile, n = layers.tail(op_median)
        extras.update(
            {
                "quote_p50_ms": extras["op_p50_ms"],
                "quote_tail_ms": 1e3 * value,
                "quote_tail_percentile": percentile,
                "quote_samples": n,
                "quotes_per_s": len(op_median) / run_s,
            }
        )
    return metrics, extras


def traced(workload, inputs, totals: Totals) -> dict:
    """One untraced then one traced pass; per-layer metrics of the traced one."""
    plain = Recorder()
    one_pass(workload, inputs, plain)
    totals.add(plain)
    close_all_pools()
    obs.enable()
    obs.reset()
    try:
        rec = Recorder(traced=True)
        one_pass(workload, inputs, rec)
        totals.add(rec)
        close_all_pools()
        plain_s = plain.setup_s + plain.run_s
        overhead = (rec.setup_s + rec.run_s - plain_s) / plain_s if plain_s else 0.0
        workers = effective_workers(getattr(workload, "restart_workers", 1))
        return layers.per_layer(rec, obs.get_registry(), workers, overhead)
    finally:
        obs.disable()


def run_workload(name: str, args, spec: dict) -> tuple[Totals, dict, dict]:
    workload = WORKLOADS[name]
    totals = Totals()
    inputs = workload.generate(args.seed)
    if args.trace:
        metrics, extras = traced(workload, inputs, totals), {}
        declared = spec["per_layer"]
    else:
        metrics, extras = measure(workload, inputs, args.seconds, totals)
        declared = spec["end_to_end"]
    totals.finish()
    mismatched = {m["name"] for m in declared} ^ set(metrics)
    if mismatched:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatched)}")
    units = {m["name"]: m["unit"] for m in declared}
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return totals, result, extras


def print_table(name: str, result: dict, extras: dict, totals: Totals) -> None:
    print(f"== {name}")
    for metric, entry in result.items():
        print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in extras.items():
        print(f"  {key:<36} {value:>16.6g} {EXTRA_UNITS.get(key, '')}")
    print(f"  {'outputs_digest':<36} {totals.digests[0] if totals.digests else '-'}")
    for key, count in sorted(totals.errors.items()):
        print(f"  failed {key}: {count}")
    for failure in totals.check_failures:
        print(f"  CHECK FAILED: {failure}")


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Closing the pools joins their workers.  The first shared-memory segment
    also started multiprocessing's resource tracker, which would otherwise
    outlive this process; closing its pipe ends it and the wait reaps it.
    It comes last, because unlinking a segment would start it again.
    """
    close_all_pools()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    print(json.dumps({"provenance": provenance(args)}), flush=True)
    if args.workload == "all":
        outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            result = run_child(name, args)
            outcome["correct"] = outcome["correct"] and result["correct"]
            outcome["attempted"] += result["attempted"]
            outcome["failed"] += result["failed"]
            for key, entry in result["metrics"].items():
                outcome["metrics"][f"{name}/{key}"] = entry
    else:
        totals, metrics, extras = run_workload(args.workload, args, spec)
        print_table(args.workload, metrics, extras, totals)
        outcome = {
            "correct": not totals.check_failures,
            "attempted": totals.attempted,
            "failed": totals.failed,
            "metrics": metrics,
        }
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["correct"] else 1


def run_child(name: str, args) -> dict:
    """Run one workload in a child process, so its peak RSS is its own."""
    child = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            *("--workload", name, "--seed", str(args.seed)),
            *("--seconds", str(args.seconds), "--trace", str(args.trace)),
        ],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(lines[-1] if lines else "", flush=True)
        raise RuntimeError(f"{name} printed no result (exit code {child.returncode})")


if __name__ == "__main__":
    sys.exit(main())
