"""Tests for the epoch-consistent read path (:mod:`repro.serve.reads`).

The contract under test: every published epoch is an immutable barrier
snapshot of a committed window, so any query answered at epoch ``e`` is
bit-identical to querying a maintainer restored to that window's
checkpoint — on the inline and the process runtime, across
crash-rollback-replay, and across drain/join membership transitions.
Epochs are strictly monotonic, staleness is bounded by admission
control, and reads are served with zero per-query pickling.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.maintainer import MISMaintainer
from repro.bench.workloads import delete_reinsert_workload
from repro.errors import QueryError, WorkloadError
from repro.graph.datasets import load_dataset
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.serve import (
    AdmissionConfig,
    IngestionService,
    QueryEngine,
    SnapshotRegistry,
    TraceConfig,
    bursty_trace,
)

_HIGH_WATERMARK = 64
_WINDOW = 16


def _maintainer(tag="AM", **kw):
    return MISMaintainer(load_dataset(tag), num_workers=6, **kw)


def _service(tmp_path, name="wal", tag="AM", serve_reads=True, **kw):
    kw.setdefault("window_size", _WINDOW)
    kw.setdefault("admission", AdmissionConfig(
        policy="block", high_watermark=_HIGH_WATERMARK, low_watermark=16,
    ))
    kw.setdefault("checkpoint_every", 0)
    return IngestionService(
        _maintainer(tag, **kw.pop("maintainer_kw", {})),
        str(tmp_path / name), serve_reads=serve_reads, **kw,
    )


#: query ids: graph ids, ids past int64 either way, bools and floats
_QUERY_IDS = st.one_of(
    st.integers(-1, 3), st.integers(2 ** 63 - 1, 2 ** 65),
    st.integers(-(2 ** 65), -(2 ** 63)), st.booleans(), st.floats(),
)


def _path_engine(frontier_fn=None):
    registry = SnapshotRegistry(
        MISMaintainer(DynamicGraph.from_edges([(0, 1), (1, 2)]),
                      num_workers=2),
        frontier_fn,
    )
    registry.publish(watermark=0)
    return QueryEngine(registry)


def _snapshot_point(snapshot, vertex):
    """Point membership answered directly against a held snapshot."""
    row = snapshot.row_of(vertex)
    return bool(snapshot.in_[row]) if row is not None else False


# ---------------------------------------------------------------------------
# registry lifecycle
# ---------------------------------------------------------------------------
class TestSnapshotRegistry:
    def _registry(self):
        maintainer = _maintainer()
        return maintainer, SnapshotRegistry(maintainer)

    def test_publish_default_counter_and_monotonicity(self):
        _, registry = self._registry()
        assert registry.latest() is None
        first = registry.publish(watermark=0)
        second = registry.publish(watermark=5)
        assert (first.epoch, second.epoch) == (0, 1)
        assert registry.history == [(0, 0), (1, 5)]
        with pytest.raises(QueryError, match="strictly monotonic"):
            registry.publish(epoch=1, watermark=9)
        registry.close()

    def test_local_snapshot_matches_maintainer(self):
        maintainer, registry = self._registry()
        snapshot = registry.publish(watermark=0)
        assert snapshot.members() == sorted(maintainer.independent_set())
        assert snapshot.set_size == len(maintainer.independent_set())
        registry.close()

    def test_superseded_epoch_survives_while_acquired(self):
        maintainer, registry = self._registry()
        held = registry.publish(watermark=0)
        before = held.members()
        ops = delete_reinsert_workload(maintainer.graph, 10, seed=3)
        maintainer.apply_stream(ops, batch_size=5)
        registry.publish(watermark=20)
        assert held.members() == before  # the old epoch did not move
        assert registry.latest().epoch == 1
        registry.close()

    def test_closed_registry_rejects_publish(self):
        _, registry = self._registry()
        registry.close()
        with pytest.raises(QueryError, match="closed"):
            registry.publish(watermark=0)

    def test_staleness_is_frontier_minus_watermark(self):
        maintainer = _maintainer()
        frontier = {"seq": 0}
        registry = SnapshotRegistry(
            maintainer, frontier_fn=lambda: frontier["seq"]
        )
        registry.publish(watermark=0)
        assert registry.staleness() == 0
        frontier["seq"] = 7
        assert registry.staleness() == 7
        registry.publish(watermark=7)
        assert registry.staleness() == 0
        registry.close()


# ---------------------------------------------------------------------------
# query semantics (local backing)
# ---------------------------------------------------------------------------
class TestQueryEngine:
    @pytest.fixture()
    def served(self):
        graph = erdos_renyi(60, 180, seed=17)
        maintainer = MISMaintainer(graph, num_workers=5)
        ops = delete_reinsert_workload(graph, 12, seed=17)
        maintainer.apply_stream(ops, batch_size=4)
        registry = SnapshotRegistry(maintainer)
        registry.publish(watermark=maintainer.updates_applied)
        yield maintainer, QueryEngine(registry)
        registry.close()

    def test_point_matches_maintainer(self, served):
        maintainer, engine = served
        members = set(maintainer.independent_set())
        for v in sorted(maintainer.graph.vertices()):
            answer = engine.point(v)
            assert answer["member"] == (v in members)
            assert answer["epoch"] == 0
        # unknown vertices are simply not in the set
        assert engine.point(10 ** 9)["member"] is False

    def test_batch_matches_point(self, served):
        maintainer, engine = served
        vertices = sorted(maintainer.graph.vertices())[:40] + [10 ** 9]
        batch = engine.batch(vertices)
        assert batch["members"] == [
            engine.point(v)["member"] for v in vertices
        ]
        assert engine.batch([])["members"] == []

    @given(st.lists(_QUERY_IDS, max_size=6))
    @example([0.5, 2.9])
    @example([1, 2 ** 64])
    @settings(max_examples=150, deadline=None)
    def test_batch_and_point_share_one_id_rule(self, vertices):
        engine = _path_engine()  # path 0-1-2, members {0, 2}
        try:
            expected = [engine.point(v)["member"] for v in vertices]
        except QueryError:
            with pytest.raises(QueryError):
                engine.batch(vertices)
            return
        assert engine.batch(vertices)["members"] == expected

    def test_neighborhood_matches_bfs_reference(self, served):
        maintainer, engine = served
        members = set(maintainer.independent_set())
        graph = maintainer.graph
        start = sorted(graph.vertices())[0]
        for hops in (0, 1, 2):
            frontier, seen = {start}, {start}
            for _ in range(hops):
                frontier = {
                    w for v in frontier for w in graph.neighbors(v)
                } - seen
                seen |= frontier
            expected = sorted(seen & members)
            answer = engine.neighborhood(start, hops=hops)
            assert answer["members"] == expected

    def test_neighborhood_validation(self, served):
        _, engine = served
        with pytest.raises(QueryError, match="not in the graph"):
            engine.neighborhood(10 ** 9)
        with pytest.raises(QueryError, match="hops"):
            engine.neighborhood(0, hops=-1)

    def test_why_not_certificates_are_checkable(self, served):
        maintainer, engine = served
        members = set(maintainer.independent_set())
        graph = maintainer.graph

        def key(v):
            return (graph.degree(v), v)

        for v in sorted(graph.vertices()):
            cert = engine.why_not(v)
            if v in members:
                assert cert["member"] and cert["blocker"] is None
            else:
                blocker = cert["blocker"]
                # at a fixpoint every non-member has a blocking witness:
                # an adjacent member ranked ≺-below it
                assert blocker in graph.neighbors(v)
                assert blocker in members
                assert key(blocker) < key(v)
        with pytest.raises(QueryError, match="not in the graph"):
            engine.why_not(10 ** 9)

    def test_counters_and_stats(self, served):
        _, engine = served
        engine.point(0)
        engine.batch([0, 1, 2])
        engine.why_not(0)
        logical = engine.logical_stats()
        assert logical["point_queries"] == 1
        assert logical["batch_queries"] == 1
        assert logical["batch_vertices"] == 3
        assert logical["max_batch_size"] == 3
        assert logical["why_not_queries"] == 1
        assert logical["reads_served"] == 5
        stats = engine.read_stats()
        assert stats["epoch"] == 0
        for tag in ("p50", "p95", "p99"):
            assert stats[f"latency_{tag}_ms"] >= 0.0

    def test_rejected_queries_sample_no_staleness(self):
        engine = _path_engine(frontier_fn=lambda: 2)  # staleness 2
        for query, arg in ((engine.point, 0.5), (engine.batch, [0.5]),
                           (engine.neighborhood, 7), (engine.why_not, 7)):
            with pytest.raises(QueryError):
                query(arg)
        counts = ("staleness_samples", "staleness_sum", "reads_served")
        assert [engine.logical_stats()[k] for k in counts] == [0, 0, 0]
        engine.point(0)
        assert [engine.logical_stats()[k] for k in counts] == [1, 2, 1]

    def test_latency_samples_match_nearest_rank_percentile(self):
        import random

        from repro.serve.reads import LatencySamples
        from repro.util import percentile

        assert LatencySamples().percentiles((0.5, 0.99)) == [0.0, 0.0]
        rng = random.Random(5)
        # 2,500 samples: the 1,024-slot buffer doubles twice
        values = [rng.expovariate(1e3) for _ in range(2500)]
        samples = LatencySamples()
        for value in values:
            samples.append(value)
        qs = (1 / 2500, 0.5, 0.95, 0.99, 1.0)
        assert samples.percentiles(qs) == [
            percentile(sorted(values), q) for q in qs
        ]
        assert samples.total() == pytest.approx(sum(values))


# ---------------------------------------------------------------------------
# service wiring: epochs at commits, recovery, staleness, membership
# ---------------------------------------------------------------------------
class TestServiceReadPath:
    def test_initial_epoch_published_at_birth(self, tmp_path):
        service = _service(tmp_path)
        snapshot = service.reads.latest()
        assert (snapshot.epoch, snapshot.watermark) == (0, 0)
        assert (snapshot.members()
                == sorted(service.maintainer.independent_set()))
        service.close()

    def test_read_path_disabled_raises(self, tmp_path):
        service = _service(tmp_path, serve_reads=False)
        assert service.reads is None
        with pytest.raises(WorkloadError, match="serve_reads=True"):
            service.query_point(0)
        service.close()

    def test_every_epoch_bit_identical_to_restored_checkpoint(
        self, tmp_path
    ):
        """The tentpole oracle: hold every published epoch, checkpoint the
        maintainer at each commit, and post-hoc compare each held snapshot
        (members + point queries) against a maintainer restored to that
        epoch's checkpoint."""
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=160, seed=7))
        held = {}  # epoch -> (snapshot, checkpoint path)
        sample = sorted(service.maintainer.graph.vertices())[:25]

        def capture():
            snapshot = service.reads.latest()
            if snapshot.epoch not in held:
                path = tmp_path / f"epoch-{snapshot.epoch}.ckpt"
                service.maintainer.save(str(path))
                held[snapshot.epoch] = (snapshot, path)

        capture()
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
            capture()
        service.drain()
        capture()
        assert len(held) >= 3

        epochs = [e for e, _ in service.reads.history]
        assert epochs == sorted(set(epochs))  # strictly monotonic

        for epoch, (snapshot, path) in sorted(held.items()):
            restored = MISMaintainer.load(str(path))
            members = set(restored.independent_set())
            assert snapshot.members() == sorted(members), (
                f"epoch {epoch} diverged from its checkpoint"
            )
            for v in sample:
                assert _snapshot_point(snapshot, v) == (v in members)
        service.close()

    def test_staleness_bounded_by_admission_control(self, tmp_path):
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=200, seed=11))
        vertex = sorted(service.maintainer.graph.vertices())[0]
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
            answer = service.query_point(vertex)
            # the answering epoch is always the last committed window
            assert answer["watermark"] == service.applied_watermark
            # the block policy drains above the high watermark, so no
            # read can ever be more than that many events stale
            assert service.reads.staleness() <= _HIGH_WATERMARK
        service.drain()
        stats = service.query_engine.logical_stats()
        assert 0 < stats["staleness_max"] <= _HIGH_WATERMARK
        service.close()

    def test_stats_summary_reports_committed_reads(self, tmp_path):
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=80, seed=3))
        vertex = sorted(service.maintainer.graph.vertices())[0]
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
            service.query_point(vertex)
        service.drain()
        service.close()
        summary = service.stats_summary()
        reads = summary["reads"]
        assert reads["reads_served"] == 80
        assert reads["watermark"] == summary["applied_watermark"]
        assert reads["epochs_published"] == len(service.reads.history)

    def test_crash_recovery_restores_read_watermark(self, tmp_path):
        """The read watermark survives WAL replay: a recovered service
        serves from an epoch equal to its replayed commit watermark, and
        queries keep matching the maintainer."""
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=160, seed=7))
        crashed = _service(tmp_path, name="crashed")
        cut = None
        for i, (op, ts) in enumerate(zip(ops, timestamps)):
            crashed.submit(op, ts)
            if crashed.windows_committed >= 3 and crashed.pending >= 2:
                crashed.abandon()
                cut = i + 1
                break
        assert cut is not None

        recovered = IngestionService.recover(
            crashed.wal_dir, serve_reads=True,
            window_size=_WINDOW, checkpoint_every=0,
        )
        snapshot = recovered.reads.latest()
        assert snapshot.watermark == recovered.applied_watermark > 0
        assert (snapshot.members()
                == sorted(recovered.maintainer.independent_set()))

        before = recovered.reads.latest().epoch
        for op, ts in zip(ops[cut:], timestamps[cut:]):
            recovered.submit(op, ts)
        recovered.drain()
        assert recovered.reads.latest().epoch > before
        epochs = [e for e, _ in recovered.reads.history]
        assert epochs == sorted(set(epochs))
        members = set(recovered.maintainer.independent_set())
        for v in sorted(recovered.maintainer.graph.vertices())[:25]:
            assert recovered.query_point(v)["member"] == (v in members)
        recovered.close()

    def test_reads_consistent_across_drain_join_transitions(self, tmp_path):
        from repro.faults import (
            DrainSpec,
            FaultInjector,
            FaultPlan,
            JoinSpec,
        )

        plan = FaultPlan(
            seed=0,
            joins=(JoinSpec(superstep=0, worker=6, run=2),),
            drains=(DrainSpec(superstep=0, worker=2, run=4),),
        )
        service = _service(
            tmp_path, maintainer_kw={"faults": FaultInjector(plan)},
        )
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=120, seed=5))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.drain()
        failover = service.maintainer.failover
        assert failover is not None and failover.transitions
        epochs = [e for e, _ in service.reads.history]
        assert epochs == sorted(set(epochs))
        members = set(service.maintainer.independent_set())
        for v in sorted(service.maintainer.graph.vertices())[:25]:
            assert service.query_point(v)["member"] == (v in members)
        snapshot = service.reads.latest()
        assert snapshot.watermark == service.applied_watermark
        service.close()


# ---------------------------------------------------------------------------
# process runtime: sweeps share a memory frame, epochs stay private copies
# ---------------------------------------------------------------------------
class TestSharedReadPath:
    @pytest.fixture()
    def shared_service(self, tmp_path):
        from repro.runtime import ParallelRuntime

        runtime = ParallelRuntime(procs=2, start_method="fork")
        service = _service(
            tmp_path,
            maintainer_kw={"runtime": runtime, "representation": "csr"},
        )
        yield service
        service.close()
        runtime.close()

    def _drive(self, service, num_ops, seed):
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=num_ops, seed=seed))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.drain()

    def test_snapshots_are_shared_and_queries_match(self, shared_service):
        from repro.graph.csr import CSRPartition

        service = shared_service
        self._drive(service, 80, 7)
        part = CSRPartition.attach(service.maintainer.dgraph)
        # the sweeps ran over the process runtime's shared frame ...
        assert service.maintainer.runtime.frame_stats()["sweeps_dispatched"]
        snapshot = service.reads.latest()
        # ... but the epoch is a private copy the writer never touches
        assert not np.shares_memory(snapshot.in_, part.in_)
        members = set(service.maintainer.independent_set())
        assert snapshot.members() == sorted(members)
        vertices = sorted(service.maintainer.graph.vertices())[:25]
        for v in vertices:
            assert service.query_point(v)["member"] == (v in members)
        assert service.query_batch(vertices)["members"] == [
            v in members for v in vertices
        ]

    def test_pinned_epoch_immutable_after_republish(self, shared_service):
        service = shared_service
        held = service.reads.latest()
        frozen = np.array(held.in_)
        before = held.members()
        self._drive(service, 60, 9)
        fresh = service.reads.latest()
        assert fresh.epoch > held.epoch
        assert np.array_equal(held.in_, frozen)  # held epoch unchanged
        assert held.members() == before

    def test_zero_pickling_on_in_process_reads(self, shared_service,
                                               monkeypatch):
        service = shared_service
        self._drive(service, 40, 3)
        vertices = sorted(service.maintainer.graph.vertices())
        counter = {"dumps": 0}
        real_dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            counter["dumps"] += 1
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        for v in vertices[:100]:
            service.query_point(v)
        service.query_batch(vertices[:200])
        service.query_why_not(vertices[0])
        assert counter["dumps"] == 0  # pure numpy over the epoch arrays
