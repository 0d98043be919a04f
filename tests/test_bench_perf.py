"""Tests for the seeded perf-regression suite (``repro-mis bench-perf``)."""

import copy
import json
import os

import pytest

from repro.bench import perf
from repro.cli import main


@pytest.fixture(scope="module")
def small_suite():
    """One cheap real scenario, shared across the module's tests."""
    return perf.run_suite(("fig11_batch_AM",))


class TestSuite:
    def test_document_schema(self, small_suite):
        assert small_suite["format"] == perf.FORMAT
        assert small_suite["version"] == perf.VERSION
        entry = small_suite["scenarios"]["fig11_batch_AM"]
        assert set(entry) == {"params", "logical", "perf"}
        for field in perf.LOGICAL_FIELDS:
            assert field in entry["logical"]
        assert entry["perf"]["compute_work"] > 0
        assert entry["perf"]["scans_per_active_vertex"] > 0
        assert "rank_cache" not in entry["perf"]

    def test_scenarios_are_deterministic(self, small_suite):
        again = perf.run_suite(("fig11_batch_AM",))
        a = small_suite["scenarios"]["fig11_batch_AM"]
        b = again["scenarios"]["fig11_batch_AM"]
        assert a["logical"] == b["logical"]
        assert a["perf"]["compute_work"] == b["perf"]["compute_work"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            perf.run_suite(("nope",))


class TestBaselineRoundTrip:
    def test_write_load_check_clean(self, small_suite, tmp_path):
        path = os.path.join(str(tmp_path), "bench.json")
        perf.write_baseline(path, small_suite)
        loaded = perf.load_baseline(path)
        assert perf.check_against(loaded, small_suite) == []

    def test_load_rejects_foreign_document(self, tmp_path):
        path = os.path.join(str(tmp_path), "other.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(ValueError, match="not a repro-mis-bench-perf"):
            perf.load_baseline(path)

    def test_check_flags_logical_drift(self, small_suite):
        drifted = copy.deepcopy(small_suite)
        entry = drifted["scenarios"]["fig11_batch_AM"]
        entry["logical"]["messages"] += 1
        problems = perf.check_against(small_suite, drifted)
        assert len(problems) == 1
        assert "messages" in problems[0]

    def test_check_flags_compute_work_drift(self, small_suite):
        drifted = copy.deepcopy(small_suite)
        drifted["scenarios"]["fig11_batch_AM"]["perf"]["compute_work"] += 5
        problems = perf.check_against(small_suite, drifted)
        assert problems and "compute_work" in problems[0]

    def test_check_ignores_wall_time(self, small_suite):
        drifted = copy.deepcopy(small_suite)
        drifted["scenarios"]["fig11_batch_AM"]["perf"]["wall_time_s"] = 999.0
        assert perf.check_against(small_suite, drifted) == []

    def test_check_reports_unknown_scenario(self, small_suite):
        fresh = copy.deepcopy(small_suite)
        fresh["scenarios"]["brand_new"] = fresh["scenarios"]["fig11_batch_AM"]
        problems = perf.check_against(small_suite, fresh)
        assert problems == ["brand_new: missing from baseline (re-generate it)"]


class TestCli:
    def test_write_then_check_roundtrip(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "BENCH_core.json")
        assert main([
            "bench-perf", "--scenario", "fig11_batch_AM", "--output", path,
        ]) == 0
        assert os.path.exists(path)
        assert main([
            "bench-perf", "--scenario", "fig11_batch_AM", "--output", path,
            "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "ok: 1 scenario(s)" in out

    def test_check_without_baseline_errors(self, tmp_path):
        path = os.path.join(str(tmp_path), "missing.json")
        assert main([
            "bench-perf", "--scenario", "fig11_batch_AM", "--output", path,
            "--check",
        ]) == 2

    def test_committed_baseline_is_current_format(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        document = perf.load_baseline(
            os.path.normpath(os.path.join(root, "BENCH_core.json"))
        )
        assert set(document["scenarios"]) == set(perf.SCENARIOS)
