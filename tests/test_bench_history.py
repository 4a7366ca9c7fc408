"""The append-only bench history and its regression gate.

``scripts/_bench_history.py`` turns the BENCH_*.json files into commit-keyed
time series; the gate compares a new run's timings against the best recorded
run of the same scenario.  These tests pin the schema, the legacy-file
migration, the scenario keying (smoke never gates against full), and the
pass/fail arithmetic.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import _bench_history  # noqa: E402


def report(
    benchmark="bench", smoke=False, scenario=None, commit=None, machine=None, **timings
):
    entry = {
        "benchmark": benchmark,
        "smoke": smoke,
        "scenario": scenario or {"n": 100, "seed": 7},
        "results": dict(timings),
    }
    if machine is not None:
        entry["machine"] = machine
    if commit is not None:
        entry["commit"] = commit
    return entry


class TestHistoryFile:
    def test_append_creates_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        history = _bench_history.append_run(path, report(build_s=1.0))
        assert history["schema"] == _bench_history.SCHEMA
        assert len(history["runs"]) == 1
        assert "recorded_at" in history["runs"][0]

        history = _bench_history.append_run(path, report(build_s=0.9))
        assert len(history["runs"]) == 2
        assert json.loads(path.read_text())["schema"] == _bench_history.SCHEMA

    def test_migrates_legacy_single_report(self, tmp_path):
        path = tmp_path / "bench.json"
        legacy = report(build_s=2.0)
        path.write_text(json.dumps(legacy))
        history = _bench_history.load_history(path)
        assert len(history["runs"]) == 1
        assert history["runs"][0]["results"]["build_s"] == 2.0
        # Appending keeps the migrated run as the baseline.
        history = _bench_history.append_run(path, report(build_s=1.5))
        assert [run["results"]["build_s"] for run in history["runs"]] == [2.0, 1.5]

    def test_missing_file_starts_empty(self, tmp_path):
        assert _bench_history.load_history(tmp_path / "absent.json")["runs"] == []

    @pytest.mark.parametrize(
        "content",
        ['{"schema": "bench-history-v1", "runs": [{"benchmark": "b"', '{"x": 1}', "[]"],
        ids=["truncated", "unknown-schema", "not-a-dict"],
    )
    def test_unreadable_history_raises_and_is_kept(self, tmp_path, content):
        """A corrupt history must not be taken for an empty one: appending
        raises and leaves the file's bytes untouched."""
        path = tmp_path / "bench.json"
        path.write_text(content)
        before = path.read_bytes()
        with pytest.raises(_bench_history.HistoryError):
            _bench_history.load_history(path)
        with pytest.raises(_bench_history.HistoryError):
            _bench_history.append_run(path, report(build_s=1.0))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]

    def test_append_replaces_atomically(self, tmp_path, monkeypatch):
        """The history is rewritten through a temp file and ``os.replace``:
        a failed write leaves the old file intact and no temp file behind."""
        path = tmp_path / "bench.json"
        _bench_history.append_run(path, report(build_s=1.0))
        before = path.read_bytes()
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        assert path.stat().st_mode == plain.stat().st_mode  # not owner-only
        plain.unlink()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(_bench_history.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            _bench_history.append_run(path, report(build_s=0.5))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]


class TestGitCommit:
    def test_head_hash_with_dirty_suffix(self):
        commit = _bench_history.git_commit()
        assert commit == "unknown" or len(commit.removesuffix("-dirty")) == 40


class TestScenarioKey:
    def test_smoke_and_full_differ(self):
        full = report(smoke=False)
        smoke = report(smoke=True)
        assert _bench_history.scenario_key(full) != _bench_history.scenario_key(smoke)

    def test_resized_scenario_differs(self):
        a = report(scenario={"n": 100})
        b = report(scenario={"n": 200})
        assert _bench_history.scenario_key(a) != _bench_history.scenario_key(b)

    def test_key_order_independent(self):
        a = report(scenario={"n": 100, "seed": 7})
        b = report(scenario={"seed": 7, "n": 100})
        assert _bench_history.scenario_key(a) == _bench_history.scenario_key(b)

    def test_machine_fingerprint_fields(self):
        machine = _bench_history.machine()
        assert set(machine) == {"nproc", "cpu_model", "python", "numpy"}
        assert machine["nproc"] >= 1
        assert machine["cpu_model"]


class TestMachineShape:
    def test_cpu_count_change_never_gates(self):
        """Two reports that differ only in CPU count are different
        scenarios: a 2-CPU baseline never fails a 1-CPU run."""
        one_cpu = dict(_bench_history.machine(), nproc=1)
        two_cpu = dict(_bench_history.machine(), nproc=2)
        history = {"runs": [report(machine=two_cpu, build_s=0.001)]}
        assert _bench_history.scenario_key(
            report(machine=one_cpu)
        ) != _bench_history.scenario_key(report(machine=two_cpu))
        assert (
            _bench_history.gate_regression(history, report(machine=one_cpu, build_s=5.0))
            == []
        )
        # The same machine shape still gates.
        assert _bench_history.gate_regression(
            history, report(machine=two_cpu, build_s=5.0)
        )


class TestTimingMetrics:
    def test_flattens_nested_timings_only(self):
        run = {
            "benchmark": "bench",
            "build": {"join_s": 1.5, "speedup": 3.0, "note": "x"},
            "smoke": True,  # bool ending in nothing; also bools are excluded
            "deep": {"inner": {"solve_s": 0.25}},
        }
        assert _bench_history.timing_metrics(run) == {
            "build.join_s": 1.5,
            "deep.inner.solve_s": 0.25,
        }


class TestGate:
    def history_with(self, *values):
        history = {"schema": _bench_history.SCHEMA, "runs": []}
        for value in values:
            history["runs"].append(report(build_s=value))
        return history

    def test_no_baseline_passes_trivially(self):
        assert _bench_history.gate_regression({"runs": []}, report(build_s=9.9)) == []

    def test_within_threshold_passes(self):
        history = self.history_with(1.0, 1.4)
        assert _bench_history.gate_regression(history, report(build_s=1.1)) == []

    def test_gates_against_best_not_latest(self):
        history = self.history_with(1.0, 2.0)  # best is 1.0
        failures = _bench_history.gate_regression(history, report(build_s=1.5))
        assert len(failures) == 1
        assert "build_s" in failures[0]

    def test_failure_names_best_run_commit_and_percentage(self):
        history = {
            "schema": _bench_history.SCHEMA,
            "runs": [
                report(build_s=1.0, commit="abc1234"),
                report(build_s=2.0, commit="def5678"),
            ],
        }
        failures = _bench_history.gate_regression(history, report(build_s=1.5))
        assert len(failures) == 1
        # Names the commit of the *best* run, not the latest.
        assert "abc1234" in failures[0]
        assert "def5678" not in failures[0]
        assert "+50.0%" in failures[0]

    def test_failure_without_commit_says_unknown(self):
        history = self.history_with(1.0)  # report() stamps no commit
        failures = _bench_history.gate_regression(history, report(build_s=5.0))
        assert len(failures) == 1
        assert "commit unknown" in failures[0]

    def test_best_baselines_track_value_and_commit(self):
        history = {
            "runs": [
                report(build_s=2.0, commit="older"),
                report(build_s=1.0, commit="best"),
                report(build_s=3.0, commit="newer"),
            ]
        }
        key = _bench_history.scenario_key(history["runs"][0])
        best = _bench_history.best_baselines(history, key)
        assert best["results.build_s"] == (1.0, "best")

    def test_other_scenario_never_gates(self):
        history = {"runs": [report(smoke=True, build_s=0.001)]}
        assert (
            _bench_history.gate_regression(history, report(smoke=False, build_s=5.0))
            == []
        )

    def test_custom_threshold(self):
        history = self.history_with(1.0)
        assert (
            _bench_history.gate_regression(history, report(build_s=1.9), 2.0) == []
        )
        assert _bench_history.gate_regression(history, report(build_s=2.1), 2.0)
