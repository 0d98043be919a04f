"""Unit tests for the cost model and run metrics."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pregel.metrics import (
    FAMILIES,
    LOGICAL_METERS,
    METERS,
    PEAK_METERS,
    RunMetrics,
    SuperstepRecord,
    family_sum,
)


def _record(superstep=0, **kw):
    rec = SuperstepRecord(superstep=superstep)
    for key, value in kw.items():
        setattr(rec, key, value)
    return rec


class TestObserve:
    def test_observe_accumulates(self):
        m = RunMetrics(4)
        m.observe(_record(0, active_vertices=3, compute_work=10, bytes_sent=100))
        m.observe(_record(1, active_vertices=2, compute_work=5, bytes_sent=50))
        assert m.supersteps == 2
        assert m.active_vertices == 5
        assert m.compute_work == 15
        assert m.bytes_sent == 150
        assert len(m.records) == 2

    def test_observe_without_records(self):
        m = RunMetrics(2)
        m.observe(_record(0, active_vertices=1), keep_record=False)
        assert m.supersteps == 1
        assert m.records == []

    def test_memory_keeps_peak(self):
        m = RunMetrics(2)
        m.observe_memory({0: 100, 1: 300})
        m.observe_memory({0: 200, 1: 250})
        assert m.peak_worker_memory_bytes == 300
        assert m.total_memory_bytes == 450
        m.observe_memory({})
        assert m.peak_worker_memory_bytes == 300


class TestMerge:
    def test_merge_sums_counters(self):
        a, b = RunMetrics(2), RunMetrics(2)
        a.observe(_record(0, active_vertices=1, bytes_sent=10))
        b.observe(_record(0, active_vertices=2, bytes_sent=20))
        b.wall_time_s = 0.5
        a.merge_delta({name: getattr(b, name) for name in METERS})
        assert a.supersteps == 2
        assert a.active_vertices == 3
        assert a.bytes_sent == 30
        assert a.wall_time_s == pytest.approx(0.5)

    def test_merge_takes_max_memory(self):
        a, b = RunMetrics(2), RunMetrics(2)
        a.observe_memory({0: 100})
        b.observe_memory({0: 50})
        a.merge_delta({name: getattr(b, name) for name in METERS})
        assert a.peak_worker_memory_bytes == 100


def _meter_value(name):
    if isinstance(getattr(RunMetrics(), name), float):
        return st.floats(0, 1e6, allow_nan=False)
    return st.integers(0, 10**9)


_METER_VALUES = st.fixed_dictionaries({name: _meter_value(name) for name in METERS})


class TestRegistry:
    def test_every_meter_has_exactly_one_role(self):
        numeric = [f.name for f in fields(RunMetrics)
                   if isinstance(f.default, (int, float))]
        assert METERS == tuple(n for n in numeric if n != "num_workers")
        for name in METERS:
            roles = [name in LOGICAL_METERS, name == "wall_time_s",
                     name in PEAK_METERS]
            roles += [name.startswith(prefix) for prefix in FAMILIES]
            assert sum(roles) == 1, name

    @given(_METER_VALUES, _METER_VALUES)
    def test_merge_delta_sums_additive_and_max_merges_peak(self, start, delta):
        metrics = RunMetrics(**start)
        metrics.merge_delta(delta)
        for name in METERS:
            if name in PEAK_METERS:
                assert getattr(metrics, name) == max(start[name], delta[name])
            else:
                assert getattr(metrics, name) == start[name] + delta[name]

    @given(st.text().filter(lambda name: name not in METERS))
    def test_merge_delta_rejects_any_other_name(self, name):
        with pytest.raises(ValueError, match="unknown meter"):
            RunMetrics().merge_delta({name: 1})

    def test_family_rounds_floats_and_sums_per_run(self):
        a, b = RunMetrics(), RunMetrics()
        a.rebalance_joins, a.rebalance_stall_s = 2, 0.1234567
        b.rebalance_joins, b.rebalance_stall_s = 1, 0.2
        assert a.family("rebalance_")["rebalance_stall_s"] == 0.123457
        summed = family_sum("rebalance_", a, b)
        assert list(summed) == list(a.family("rebalance_"))
        assert summed["rebalance_joins"] == 3
        assert summed["rebalance_stall_s"] == 0.123457 + 0.2
        with pytest.raises(ValueError, match="unknown meter family"):
            a.family("recovery")


class TestDerived:
    def test_communication_mb(self):
        m = RunMetrics(1)
        m.bytes_sent = 2 * 1024 * 1024
        assert m.communication_mb == pytest.approx(2.0)

    def test_memory_mb(self):
        m = RunMetrics(1)
        m.peak_worker_memory_bytes = 1024 * 1024
        assert m.memory_mb == pytest.approx(1.0)

    def test_summary_keys(self):
        assert list(RunMetrics().summary()) == [
            "supersteps", "active_vertices", "compute_work", "messages",
            "remote_messages", "communication_mb", "memory_mb", "wall_time_s",
            "state_changes", "recovery_crashes", "recovery_replayed_supersteps",
            "recovery_compute_work", "recovery_resync_bytes",
            "recovery_resync_messages", "recovery_sync_retries",
            "recovery_sync_duplicates", "recovery_reorders",
            "recovery_straggler_s", "recovery_backoff_s", "recovery_failovers",
            "recovery_detection_s", "recovery_reassigned_vertices",
            "recovery_reconstructed_vertices", "recovery_reactivated_vertices",
            "recovery_delta_log_bytes", "recovery_delta_log_records",
            "divergence_checks", "divergence_check_bytes",
            "divergence_detected", "divergence_repaired",
            "divergence_repair_bytes", "divergence_repair_messages",
            "rebalance_joins", "rebalance_drains", "rebalance_moved_vertices",
            "rebalance_resync_bytes", "rebalance_resync_messages",
            "rebalance_rank_entries", "rebalance_stall_s",
        ]


class TestJsonExport:
    def test_summary_fields_present(self):
        import json

        m = RunMetrics(3)
        m.observe(_record(0, active_vertices=2, bytes_sent=100))
        payload = json.loads(m.to_json())
        assert payload["num_workers"] == 3
        assert payload["supersteps"] == 1
        assert "records" not in payload

    def test_records_included_on_request(self):
        import json

        m = RunMetrics(2)
        rec = _record(0, active_vertices=2, compute_work=5)
        rec.worker_work = [3, 2]
        m.observe(rec)
        payload = json.loads(m.to_json(include_records=True))
        assert payload["records"][0]["worker_work"] == [3, 2]

    def test_roundtrip_from_real_run(self):
        import json

        from repro.core.oimis import run_oimis
        from repro.graph.generators import erdos_renyi

        run = run_oimis(erdos_renyi(30, 90, seed=1))
        payload = json.loads(run.metrics.to_json(include_records=True))
        assert payload["supersteps"] == run.metrics.supersteps
        assert len(payload["records"]) == run.metrics.supersteps


class TestSimulatedTime:
    def test_uses_slowest_worker(self):
        m = RunMetrics(2)
        rec = _record(0, compute_work=100)
        rec.worker_work = [90, 10]
        m.observe(rec)
        slow = m.simulated_time(work_per_second=100, bandwidth_bytes_per_second=1e9,
                                superstep_latency_s=0.0)
        assert slow == pytest.approx(0.9)

    def test_fallback_without_worker_detail(self):
        m = RunMetrics(4)
        m.observe(_record(0, compute_work=100))
        t = m.simulated_time(work_per_second=100, bandwidth_bytes_per_second=1e9,
                             superstep_latency_s=0.0)
        assert t == pytest.approx(100 / (4 * 100))

    def test_fallback_without_records(self):
        m = RunMetrics(2)
        m.supersteps = 3
        m.compute_work = 100
        m.bytes_sent = 1000
        t = m.simulated_time(work_per_second=100, bandwidth_bytes_per_second=1000,
                             superstep_latency_s=0.1)
        assert t == pytest.approx(100 / 200 + 1.0 + 0.3)

    def test_more_workers_is_faster_compute(self):
        few, many = RunMetrics(2), RunMetrics(8)
        for m in (few, many):
            m.supersteps = 1
            m.compute_work = 800
        assert many.simulated_time() < few.simulated_time()
