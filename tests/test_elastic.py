"""Tests for elastic membership: voluntary join/drain.

The contract under test (the elastic counterpart of the worker-loss
oracle): planned transitions are *chosen*, not suffered, so

- the transition protocol is explicit — ``propose_join`` /
  ``propose_drain`` queue, a barrier applies, the membership epoch bumps
  once per batch, and invalid proposals fail fast;
- movement is HRW-minimal: a drain moves exactly the drained worker's
  residents, a join moves exactly the vertices whose rendezvous argmax
  over the enlarged member set picks the joiner;
- an elastic run (scale-up N→N+2 or drain N→N−1 mid-stream) converges
  with members and every logical meter bit-identical to a
  fixed-membership run, all movement cost quarantined in the
  ``rebalance_*`` family (never ``recovery_*``);
- a voluntarily drained worker is never again drawn for crash/straggler/
  loss faults, and a drain racing a crash still converges bit-identically;
- the WAL commit records carry the membership epoch, and recovery
  validates it with a clear ``RecoveryError``.
"""

import os

import pytest

from repro.core.activation import ActivationStrategy
from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.errors import (
    RecoveryError,
    WorkloadError,
)
from repro.faults import (
    DrainSpec,
    FailoverCoordinator,
    FaultInjector,
    FaultPlan,
    JoinSpec,
    MembershipView,
    rendezvous_worker,
)
from repro.faults.chaos import (
    CHAOS_WORKLOADS,
    run_chaos_case,
    serve_drain_replay,
)
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi
from repro.pregel.metrics import RunMetrics
from repro.pregel.partition import HashPartitioner
from repro.runtime import ParallelRuntime


def _recovery_total(metrics):
    return sum(metrics.family("recovery_").values())


def _rebalance_total(metrics):
    return sum(metrics.family("rebalance_").values())


def _workload(seed=3, n=80, m=200):
    graph = erdos_renyi(n, m, seed=seed)
    edges = graph.sorted_edges()[:20]
    ops = []
    from repro.graph.updates import EdgeDeletion, EdgeInsertion

    for u, v in edges:
        ops.append(EdgeDeletion(u, v))
    for u, v in edges:
        ops.append(EdgeInsertion(u, v))
    return graph, ops


# ---------------------------------------------------------------------------
# the transition protocol on the membership view
# ---------------------------------------------------------------------------
class TestTransitionProtocol:
    def _view(self, workers=4):
        return MembershipView(range(workers))

    def test_proposals_queue_until_taken(self):
        view = self._view()
        view.propose_join(7)
        view.propose_drain(2)
        assert view.pending_transitions() == ((2,), (7,))
        assert view.take_pending() == ((2,), (7,))
        # consumed: the next barrier sees nothing
        assert view.take_pending() == ((), ())

    def test_propose_join_rejects_existing_member(self):
        view = self._view()
        with pytest.raises(WorkloadError):
            view.propose_join(1)

    def test_propose_drain_rejects_non_member(self):
        view = self._view()
        with pytest.raises(WorkloadError):
            view.propose_drain(9)

    def test_propose_drain_never_empties_membership(self):
        view = self._view(workers=2)
        view.propose_drain(0)
        with pytest.raises(WorkloadError):
            view.propose_drain(1)

    def test_drained_worker_leaves_membership(self):
        view = self._view()
        view.apply_drain(2)
        assert not view.is_member(2)
        assert 2 not in view.alive_workers()
        assert view.drained_workers() == [2]

    def test_join_after_drain_rejoins(self):
        view = self._view()
        view.apply_drain(2)
        view.apply_join(2)
        assert view.is_member(2)

    def test_epoch_bumps_and_restores_monotonically(self):
        view = self._view()
        assert view.epoch == 0
        view.bump_epoch()
        view.bump_epoch()
        assert view.epoch == 2
        view.restore_epoch(5)
        assert view.epoch == 5
        view.restore_epoch(3)  # never rewinds
        assert view.epoch == 5


# ---------------------------------------------------------------------------
# HRW-minimal movement under the effective-placement overlay
# ---------------------------------------------------------------------------
class TestMinimalMovement:
    def _coordinator(self, workers=4, seed=3):
        graph = erdos_renyi(60, 150, seed=seed)
        dgraph = DistributedGraph(graph, HashPartitioner(workers))
        coord = FailoverCoordinator(dgraph)
        states = {u: True for u in graph.vertices()}
        return coord, dgraph, states

    def test_drain_moves_exactly_the_drained_residents(self):
        coord, dgraph, states = self._coordinator()
        residents = sorted(
            u for u in states if dgraph.worker_of(u) == 2
        )
        metrics = RunMetrics(num_workers=4)
        drains, joins, moved = coord.apply_transitions(
            [2], [], 0, states, metrics, lambda s: 8
        )
        assert drains == (2,) and joins == ()
        assert moved == residents
        assert metrics.rebalance_moved_vertices == len(residents)
        assert coord.epoch == 1

    def test_join_moves_exactly_the_rendezvous_claims(self):
        coord, dgraph, states = self._coordinator()
        members = coord.alive_workers
        claims = sorted(
            u for u in states
            if rendezvous_worker(u, sorted(set(members) | {9})) == 9
        )
        metrics = RunMetrics(num_workers=4)
        drains, joins, moved = coord.apply_transitions(
            [], [9], 0, states, metrics, lambda s: 8
        )
        assert joins == (9,) and drains == ()
        assert moved == claims
        # a join claims roughly 1/(N+1) of the graph, never half of it
        assert 0 < len(moved) < len(states) // 2

    def test_costs_confined_to_rebalance_family(self):
        coord, _dgraph, states = self._coordinator()
        metrics = RunMetrics(num_workers=4)
        coord.apply_transitions([1], [8], 0, states, metrics, lambda s: 8)
        assert metrics.rebalance_joins == 1
        assert metrics.rebalance_drains == 1
        assert metrics.rebalance_resync_bytes > 0
        assert metrics.rebalance_resync_messages > 0
        assert metrics.rebalance_stall_s > 0
        assert _recovery_total(metrics) == 0
        assert not any(metrics.logical().values())

    def test_draining_every_member_raises(self):
        from repro.errors import WorkerFailure

        coord, _dgraph, states = self._coordinator(workers=2)
        metrics = RunMetrics(num_workers=2)
        with pytest.raises(WorkerFailure):
            coord.apply_transitions(
                [0, 1], [], 0, states, metrics, lambda s: 8
            )

    def test_rebalance_meters_merge_additively(self):
        a = RunMetrics(num_workers=2)
        b = RunMetrics(num_workers=2)
        b.rebalance_joins = 2
        b.rebalance_moved_vertices = 7
        b.rebalance_stall_s = 0.5
        a.merge_delta(b.family("rebalance_"))
        assert a.rebalance_joins == 2
        assert a.rebalance_moved_vertices == 7
        assert a.rebalance_stall_s == 0.5
        assert "rebalance_moved_vertices" in a.summary()


# ---------------------------------------------------------------------------
# engine-level bit-identity: elastic vs fixed membership
# ---------------------------------------------------------------------------
class TestElasticBitIdentity:
    def _run(self, plan=None, representation=None, runtime=None):
        graph, ops = _workload()
        maintainer = DOIMISMaintainer(
            graph.copy(), num_workers=6,
            strategy=ActivationStrategy.SAME_STATUS,
            faults=FaultInjector(plan) if plan is not None else None,
            representation=representation, runtime=runtime,
        )
        try:
            maintainer.apply_stream(ops, batch_size=5)
        finally:
            if runtime is not None:
                maintainer.close()
        return maintainer

    def test_scale_up_two_workers_bit_identical(self):
        reference = self._run()
        plan = FaultPlan(seed=0, joins=(
            JoinSpec(superstep=0, worker=6, run=2),
            JoinSpec(superstep=0, worker=7, run=4),
        ))
        elastic = self._run(plan)
        assert sorted(elastic.independent_set()) == \
            sorted(reference.independent_set())
        assert elastic.update_metrics.logical() == \
            reference.update_metrics.logical()
        summary = elastic.update_metrics.family("rebalance_")
        assert summary["rebalance_joins"] == 2
        assert summary["rebalance_moved_vertices"] > 0
        assert _recovery_total(elastic.update_metrics) == 0

    def test_drain_one_worker_bit_identical(self):
        reference = self._run()
        plan = FaultPlan(seed=0, drains=(
            DrainSpec(superstep=0, worker=3, run=3),
        ))
        elastic = self._run(plan)
        assert sorted(elastic.independent_set()) == \
            sorted(reference.independent_set())
        assert elastic.update_metrics.logical() == \
            reference.update_metrics.logical()
        summary = elastic.update_metrics.family("rebalance_")
        assert summary["rebalance_drains"] == 1
        assert summary["rebalance_moved_vertices"] > 0
        failover = elastic.failover
        assert failover is not None and failover.epoch == 1
        assert 3 not in failover.view.members()

    def test_drain_movement_is_minimal(self):
        # the drained worker's residents at transition time are exactly
        # what moves: |moved| == |{u : base worker_of(u) == drained}|
        graph, ops = _workload()
        plan = FaultPlan(seed=0, drains=(
            DrainSpec(superstep=0, worker=2, run=1),
        ))
        maintainer = DOIMISMaintainer(
            graph.copy(), num_workers=6,
            strategy=ActivationStrategy.SAME_STATUS,
            faults=FaultInjector(plan),
        )
        maintainer.apply_stream(ops, batch_size=5)
        residents = sum(
            1 for u in maintainer.graph.vertices()
            if maintainer.dgraph.worker_of(u) == 2
        )
        events = maintainer.failover.transitions
        assert len(events) == 1
        assert events[0].moved == residents

    def test_drain_racing_crash_converges(self):
        result = run_chaos_case(CHAOS_WORKLOADS[0], "drain-crash-race", 0)
        assert result.ok, result.failures
        assert result.injected.get("drains") == 1
        assert result.rebalance["rebalance_moved_vertices"] > 0

    def test_elastic_preset_join_and_drain(self):
        result = run_chaos_case(CHAOS_WORKLOADS[0], "elastic", 0)
        assert result.ok, result.failures
        assert result.injected.get("joins") == 1
        assert result.injected.get("drains") == 1


# ---------------------------------------------------------------------------
# satellite: a drained worker is never drawn for faults again
# ---------------------------------------------------------------------------
class TestDrainedFaultExclusion:
    def test_drained_worker_excluded_from_all_fault_draws(self):
        plan = FaultPlan(
            seed=1, crash_prob=1.0, loss_prob=1.0,
            straggler_prob=1.0, straggler_delay_s=0.5,
        )
        injector = FaultInjector(plan)
        injector.mark_drained(2)
        workers = [0, 1, 2, 3]
        for superstep in range(10):
            assert 2 not in injector.crashed_workers(superstep, workers)
            assert 2 not in injector.lost_workers(superstep, workers)
            assert injector.straggler_delay(superstep, 2) == 0.0

    def test_rejoined_worker_is_drawable_again(self):
        plan = FaultPlan(seed=1, crash_prob=1.0)
        injector = FaultInjector(plan)
        injector.mark_drained(2)
        assert 2 not in injector.crashed_workers(0, [0, 1, 2, 3])
        injector.mark_joined(2)
        crashed = set()
        for superstep in range(20):
            crashed.update(injector.crashed_workers(superstep, [0, 1, 2, 3]))
        assert 2 in crashed

    def test_scheduled_transitions_fire_once(self):
        plan = FaultPlan(seed=0, drains=(
            DrainSpec(superstep=2, worker=1, run=0),
        ))
        injector = FaultInjector(plan)
        injector.begin_run()
        assert injector.membership_transitions(2) == ((1,), ())
        # a crash rollback replaying the same barrier must not re-drain
        assert injector.membership_transitions(2) == ((), ())


# ---------------------------------------------------------------------------
# satellite: CSR representation across transitions
# ---------------------------------------------------------------------------
class TestCSRTransitions:
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_csr_elastic_bit_identical_across_procs(self, procs):
        graph, ops = _workload(n=50, m=120)
        plan_kwargs = dict(
            seed=0,
            drains=(DrainSpec(superstep=0, worker=1, run=1),),
            joins=(JoinSpec(superstep=0, worker=6, run=2),),
        )

        def run(representation, runtime):
            maintainer = DOIMISMaintainer(
                graph.copy(), num_workers=6,
                strategy=ActivationStrategy.SAME_STATUS,
                faults=FaultInjector(FaultPlan(**plan_kwargs)),
                representation=representation, runtime=runtime,
            )
            try:
                maintainer.apply_stream(ops, batch_size=10)
            finally:
                if runtime is not None:
                    maintainer.close()
            return (sorted(maintainer.independent_set()),
                    maintainer.update_metrics.logical(),
                    maintainer.update_metrics.family("rebalance_"))

        reference = run("dict", None)
        csr = run("csr", ParallelRuntime(procs=procs))
        assert csr == reference


# ---------------------------------------------------------------------------
# the WAL membership epoch
# ---------------------------------------------------------------------------
class TestServeElastic:
    def _trace(self, num_ops=120, seed=7):
        from repro.graph.datasets import load_dataset
        from repro.serve import TraceConfig, bursty_trace

        return bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=num_ops, seed=seed)
        )

    def _maintainer(self, **kwargs):
        from repro.graph.datasets import load_dataset

        return MISMaintainer(
            load_dataset("AM"), num_workers=10,
            strategy=ActivationStrategy.SAME_STATUS, **kwargs,
        )

    def test_commit_records_carry_membership_epoch(self, tmp_path):
        from repro.serve import IngestionService
        from repro.serve.wal import WriteAheadLog

        wal_dir = str(tmp_path / "epoch")
        ops, timestamps = self._trace(num_ops=60)
        service = IngestionService(
            self._maintainer(), wal_dir, checkpoint_every=0,
        )
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        commits = [
            r.payload for r in WriteAheadLog(wal_dir).iter_records()
            if r.payload.get("t") == "cm"
        ]
        assert commits
        assert all(c.get("ep") == [10, 0] for c in commits)

    def test_epoch_round_trip_through_recovery(self, tmp_path):
        from repro.serve import IngestionService

        wal_dir = str(tmp_path / "roundtrip")
        ops, timestamps = self._trace(num_ops=80)
        service = IngestionService(
            self._maintainer(), wal_dir, window_size=16, checkpoint_every=3,
        )
        cut = 0
        for i, (op, ts) in enumerate(zip(ops, timestamps)):
            service.submit(op, ts)
            if service.windows_committed >= 3 and service.pending:
                cut = i + 1
                break
        service.abandon()
        recovered = IngestionService.recover(wal_dir)
        try:
            assert recovered.maintainer.num_workers == 10
            assert recovered._membership_epoch() == [10, 0]
        finally:
            recovered.abandon()

    def test_recovery_rejects_mismatched_cluster_shape(self, tmp_path):
        from repro.serve import IngestionService

        wal_dir = str(tmp_path / "mismatch")
        ops, timestamps = self._trace(num_ops=80)
        service = IngestionService(
            self._maintainer(), wal_dir, window_size=16, checkpoint_every=3,
        )
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.abandon()
        # doctor the newest checkpoint: same graph, different cluster shape
        # (the realistic corruption: a checkpoint restored from the wrong
        # cluster into a log directory full of 10-worker commits)
        checkpoints = sorted(
            n for n in os.listdir(wal_dir)
            if n.startswith("checkpoint-") and n.endswith(".ckpt")
        )
        assert checkpoints
        from tests.test_checkpoint import read_checkpoint, write_checkpoint

        newest = os.path.join(wal_dir, checkpoints[-1])
        header, arrays = read_checkpoint(newest)
        write_checkpoint(newest, dict(header, num_workers=8), arrays)
        with pytest.raises(RecoveryError, match="membership mismatch"):
            IngestionService.recover(wal_dir)

    def test_serve_drain_oracle(self, tmp_path):
        result = serve_drain_replay(
            num_ops=120, wal_root=str(tmp_path / "drain")
        )
        assert result.ok, result.failures


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
class TestElasticCLI:
    def test_rebalance_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "rebalance", "--dataset", "AM", "--k", "10",
            "--batch-size", "5", "--drain", "3@1", "--join", "10@2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out

    def test_rebalance_requires_a_transition(self, capsys):
        from repro.cli import main

        assert main(["rebalance"]) != 0

    def test_rebalance_fails_when_no_transition_fires(self, capsys):
        from repro.cli import main

        code = main([
            "rebalance", "--dataset", "AM", "--k", "10",
            "--batch-size", "5", "--drain", "3@999",
        ])
        captured = capsys.readouterr()
        assert code != 0
        assert "none applied" in captured.out
        assert "bit-identical" not in captured.out
