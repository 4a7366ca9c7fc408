"""Append-only benchmark history and the >15% regression gate.

The bench scripts used to overwrite their ``BENCH_*.json`` with the latest
single report, losing the perf trajectory the ROADMAP's querytorque-style
bench discipline wants.  This module turns those files into append-only time
series::

    {"schema": "bench-history-v1", "runs": [<report>, <report>, ...]}

Each run is the same commit-stamped report dict the scripts always produced
(legacy single-report files are migrated in place on first append), stamped
with the :func:`machine` that produced it.  Runs are keyed by a *scenario
key* — benchmark name + scenario parameters + machine shape (CPU count and
model) — so a smoke run never gates against a full run, a resized scenario
starts a fresh baseline, and a run on one machine never gates against a
run on a differently shaped one.

The regression gate compares every ``*_s`` timing of the new run against the
**best** (minimum) value recorded for the same scenario key and metric, and
fails when any is slower than ``threshold`` (default 1.15 = >15% slower).
With no prior baseline for the key the gate passes trivially — a fresh CI
workspace gates nothing, while a checked-in history gates every run.

A history file that exists but cannot be read as one (truncated JSON, an
unknown schema) raises :class:`HistoryError` instead of starting over, and
appends replace the file atomically — a crash or a corrupt file never
silently erases the recorded runs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

SCHEMA = "bench-history-v1"

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fail when a timing exceeds best-recorded × this factor.
DEFAULT_THRESHOLD = 1.15


def _cpu_model() -> str:
    """The CPU model name (``/proc/cpuinfo`` on Linux, else ``platform``)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def machine() -> dict:
    """The machine a report was produced on: CPU count and model, Python and
    numpy versions.  Every bench script stamps this as its ``machine``."""
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def scenario_key(report: dict) -> str:
    """Stable identity of one benchmark configuration on one machine shape."""
    scenario = report.get("scenario", {})
    parts = [str(report.get("benchmark", "unknown"))]
    parts.extend(f"{k}={scenario[k]}" for k in sorted(scenario))
    if report.get("smoke"):
        parts.append("smoke")
    machine_info = report.get("machine", {})
    parts.append(f"nproc={machine_info.get('nproc')}")
    parts.append(f"cpu={machine_info.get('cpu_model')}")
    return "|".join(parts)


class HistoryError(ValueError):
    """A bench history file exists but is not a readable history."""


def git_commit() -> str:
    """Hash of the commit that produced a report (``unknown`` outside git).

    A ``-dirty`` suffix marks reports produced from an uncommitted tree; the
    head hash itself comes from the shared :mod:`repro.obs.ledger` helper so
    every artifact (bench history, run ledger, trace) stamps the same id.
    """
    from repro.obs import ledger

    head = ledger.git_commit()
    if head == "unknown":
        return head
    try:
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return head
    return f"{head}-dirty" if dirty else head


def load_history(path: str | Path) -> dict:
    """The history at ``path`` (empty when absent, migrated from a legacy
    single report); raises :class:`HistoryError` on anything else."""
    path = Path(path)
    if not path.is_file():
        return {"schema": SCHEMA, "runs": []}
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise HistoryError(
            f"{path} is not valid JSON ({error}); refusing to overwrite its runs"
        ) from error
    if isinstance(data, dict) and data.get("schema") == SCHEMA:
        if not isinstance(data.get("runs"), list):
            raise HistoryError(f"{path}: {SCHEMA} file without a runs list")
        return {"schema": SCHEMA, "runs": data["runs"]}
    if isinstance(data, dict) and "benchmark" in data:
        # Legacy layout: the file held one bare report.
        return {"schema": SCHEMA, "runs": [data]}
    raise HistoryError(f"{path}: unknown bench history schema")


def append_run(path: str | Path, report: dict) -> dict:
    """Append ``report`` to the history at ``path`` and write it back.

    The new file is written beside the old one and moved over it with
    ``os.replace``, so a reader (or a crash) never sees a half-written file;
    it is created like any other file (umask permissions, not ``mkstemp``'s
    owner-only mode), since the history files are committed.
    """
    path = Path(path)
    history = load_history(path)
    entry = dict(report)
    entry.setdefault(
        "recorded_at", time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
    )
    history["runs"].append(entry)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(json.dumps(history, indent=2) + "\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return history


def timing_metrics(report: dict, prefix: str = "") -> dict[str, float]:
    """Every ``*_s`` timing in a report, flattened to dotted paths."""
    metrics: dict[str, float] = {}
    for key, value in report.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            metrics.update(timing_metrics(value, prefix=f"{dotted}."))
        elif (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and key.endswith("_s")
        ):
            metrics[dotted] = float(value)
    return metrics


def best_baselines(history: dict, key: str) -> dict[str, tuple[float, str]]:
    """Best (minimum) recorded ``(value, commit)`` per timing metric for one
    scenario key.  The commit is the ``commit`` stamp of the run that set the
    best value (``"unknown"`` when the run carries none), so gate failures
    can name the exact commit to bisect against."""
    best: dict[str, tuple[float, str]] = {}
    for run in history.get("runs", []):
        if scenario_key(run) != key:
            continue
        commit = str(run.get("commit", "unknown"))
        for metric, value in timing_metrics(run).items():
            if value > 0 and (metric not in best or value < best[metric][0]):
                best[metric] = (value, commit)
    return best


def gate_regression(
    history: dict, report: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Messages for every timing of ``report`` slower than best × threshold.

    ``history`` should hold the *prior* runs (gate before appending, or
    accept that the new run is its own >=1.0x baseline and can never fail).
    An empty list means the gate passes; no baseline for the scenario key
    passes trivially.  Each failure names the commit that set the best value
    and the regression as a percentage over it.
    """
    baselines = best_baselines(history, scenario_key(report))
    failures = []
    for metric, value in timing_metrics(report).items():
        baseline = baselines.get(metric)
        if baseline is None:
            continue
        best, commit = baseline
        if value > best * threshold:
            failures.append(
                f"{metric}: {value:.4f}s is {value / best:.2f}x "
                f"(+{(value / best - 1.0) * 100:.1f}%) the best recorded "
                f"{best:.4f}s from commit {commit} "
                f"(threshold {threshold:.2f}x)"
            )
    return failures
