"""Tests for ``tools/check_bench_regression.py``, the CI benchmark gate."""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_bench_regression as checker  # noqa: E402


def _regressions(current, baseline, tolerance=0.25, compare_times=False):
    return dict(checker.compare_summaries(current, baseline, tolerance,
                                          compare_times))


class TestMissingKeys:
    def test_missing_gated_keys_fail(self):
        baseline = {"incremental_identical_runs": True,
                    "min_speedup_incremental": 1.6,
                    "lp_total_solves": 4,
                    "total_job_retries": 0}
        found = _regressions({}, baseline)
        assert set(found) == set(baseline)
        assert all("missing" in message for message in found.values())

    def test_missing_time_key_fails_only_under_compare_times(self):
        baseline = {"median_per_child_us": {"MNIST_L2": {"incremental": 70.0}}}
        assert _regressions({}, baseline) == {}
        assert "median_per_child_us" in _regressions({}, baseline,
                                                     compare_times=True)
        partial = {"median_per_child_us": {"MNIST_L4": {"incremental": 70.0}}}
        assert "median_per_child_us" in _regressions(partial, baseline,
                                                     compare_times=True)

    def test_informational_keys_stay_ungated(self):
        baseline = {"smoke": True, "jobs": 12, "cpu_count": 1,
                    "min_speedup_engine_at_batch_ge_8": 3.4,
                    "service_total_lp_hits": 9}
        assert _regressions({}, baseline) == {}
        current = {"smoke": False, "jobs": 1, "cpu_count": 64,
                   "min_speedup_engine_at_batch_ge_8": 0.1,
                   "service_total_lp_hits": 0}
        assert _regressions(current, baseline) == {}


class TestGates:
    def test_boolean_flip_fails(self):
        baseline = {"frontier_verdicts_match": True, "lp_optima_equal": True}
        assert _regressions(dict(baseline), baseline) == {}
        found = _regressions({"frontier_verdicts_match": False,
                              "lp_optima_equal": True}, baseline)
        assert list(found) == ["frontier_verdicts_match"]

    def test_false_boolean_baseline_gates_nothing(self):
        baseline = {"service_verdicts_identical": False}
        assert _regressions({"service_verdicts_identical": False}, baseline) == {}

    def test_higher_is_better_floor_uses_the_default_tolerance(self):
        baseline = {"lp_min_micro_hit_rate": 0.5}
        assert _regressions({"lp_min_micro_hit_rate": 0.38}, baseline) == {}
        assert "lp_min_micro_hit_rate" in _regressions(
            {"lp_min_micro_hit_rate": 0.37}, baseline)

    def test_higher_is_better_floor_honours_the_per_key_override(self):
        key = "min_speedup_incremental"
        assert checker.TOLERANCE_OVERRIDES[key] == 0.30
        baseline = {key: 2.0}
        # 1.45 is below the default 25% floor (1.5) but above the 30% one (1.4).
        assert _regressions({key: 1.45}, baseline) == {}
        assert key in _regressions({key: 1.39}, baseline)

    def test_lower_is_better_ceiling(self):
        baseline = {"lp_total_solves": 8}
        assert _regressions({"lp_total_solves": 10}, baseline) == {}
        assert "lp_total_solves" in _regressions({"lp_total_solves": 11}, baseline)

    def test_zero_gated_key_must_stay_zero(self):
        baseline = {"process_worker_crashes": 0}
        assert _regressions({"process_worker_crashes": 0}, baseline) == {}
        found = _regressions({"process_worker_crashes": 1}, baseline)
        assert "fault-free" in found["process_worker_crashes"]

    def test_other_zero_lower_baselines_gate_nothing(self):
        baseline = {"lp_total_solves": 0}
        assert _regressions({"lp_total_solves": 50}, baseline) == {}

    def test_time_keys_gate_only_under_compare_times(self):
        baseline = {"median_per_child_us": {"MNIST_L2": {"incremental": 100.0}}}
        slow = {"median_per_child_us": {"MNIST_L2": {"incremental": 200.0}}}
        assert _regressions(slow, baseline) == {}
        assert "median_per_child_us" in _regressions(slow, baseline,
                                                     compare_times=True)


class TestCommandLine:
    def _write(self, tmp_path, name, summary):
        path = tmp_path / name
        path.write_text(json.dumps({"summary": summary}))
        return path

    def test_exit_codes(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json",
                               {"incremental_identical_runs": True})
        good = self._write(tmp_path, "good.json",
                           {"incremental_identical_runs": True})
        missing = self._write(tmp_path, "missing.json", {})
        assert checker.main([str(good), str(baseline)]) == 0
        assert checker.main([str(missing), str(baseline)]) == 1
        assert "missing" in capsys.readouterr().err
        empty = self._write(tmp_path, "empty.json", {})
        assert checker.main([str(good), str(empty)]) == 2
