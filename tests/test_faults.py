"""Tests for the fault-injection layer: plans, injector, recovery, chaos.

The central claim under test is the chaos oracle: because the maintained
set is the unique greedy fixpoint (Theorems 4.2/6.1) and recovery aborts a
crashed superstep *before* its barrier commit, a run that survives injected
faults must produce a bit-identical final set AND bit-identical logical
meters — all overhead lands on the ``recovery_*`` family.
"""

import pytest

from repro.core.activation import ActivationStrategy
from repro.core.dismis import DisMISPregelProgram
from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.core.oimis import OIMISProgram, independent_set_from_states
from repro.errors import (
    CheckpointError,
    SyncRetryExhausted,
    SuperstepLimitExceeded,
    WorkerFailure,
    WorkloadError,
)
from repro.faults import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    StragglerSpec,
    SuperstepCheckpoint,
    SyncDropSpec,
    SyncDuplicateSpec,
    resolve_faults,
)
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.pregel.engine import PregelEngine
from repro.pregel.partition import HashPartitioner
from repro.scaleg.engine import ScaleGEngine


def _dgraph(graph, workers=4):
    return DistributedGraph(graph, HashPartitioner(workers))


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(WorkloadError, match="crash_prob"):
            FaultPlan(crash_prob=1.5)
        with pytest.raises(WorkloadError, match="drop_prob"):
            FaultPlan(drop_prob=-0.1)
        with pytest.raises(WorkloadError, match="max_drop_attempts"):
            FaultPlan(max_drop_attempts=0)
        with pytest.raises(WorkloadError, match="max_drop_attempts"):
            FaultPlan(max_drop_attempts=99)

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(crash_prob=0.1).is_empty
        assert not FaultPlan(crashes=(CrashSpec(0, 0),)).is_empty

    def test_draws_are_deterministic(self):
        a = FaultPlan(seed=7, crash_prob=0.5)
        b = FaultPlan(seed=7, crash_prob=0.5)
        coords = [(r, s, w) for r in range(3) for s in range(5) for w in range(4)]
        assert [a.crash_at(*c) for c in coords] == [b.crash_at(*c) for c in coords]

    def test_seed_changes_schedule(self):
        coords = [(r, s, w) for r in range(4) for s in range(8) for w in range(4)]
        a = [FaultPlan(seed=1, crash_prob=0.5).crash_at(*c) for c in coords]
        b = [FaultPlan(seed=2, crash_prob=0.5).crash_at(*c) for c in coords]
        assert a != b

    def test_explicit_specs_pin_coordinates(self):
        plan = FaultPlan(
            crashes=(CrashSpec(superstep=2, worker=1, run=0),),
            drops=(SyncDropSpec(superstep=1, vertex=5, attempts=2),),
            duplicates=(SyncDuplicateSpec(superstep=0, vertex=3, copies=4,
                                          machine=2),),
            stragglers=(StragglerSpec(superstep=1, worker=0, delay_s=0.5),),
        )
        assert plan.crash_at(0, 2, 1)
        assert not plan.crash_at(1, 2, 1)  # run pinned
        assert not plan.crash_at(0, 2, 0)
        # drop matches any run / any machine when unpinned
        assert plan.sync_drops(9, 1, 5, 0) == 2
        assert plan.sync_drops(9, 1, 5, 3) == 2
        assert plan.sync_drops(9, 0, 5, 3) == 0
        assert plan.sync_duplicates(0, 0, 3, 2) == 4
        assert plan.sync_duplicates(0, 0, 3, 1) == 0  # machine pinned
        assert plan.straggler_delay(4, 1, 0) == 0.5
        assert plan.straggler_delay(4, 1, 1) == 0.0

    def test_seeded_drop_attempts_bounded(self):
        plan = FaultPlan(seed=3, drop_prob=1.0, max_drop_attempts=4)
        attempts = {plan.sync_drops(0, s, v, 0)
                    for s in range(10) for v in range(50)}
        assert attempts  # every record drops at prob 1.0
        assert all(1 <= a <= 4 for a in attempts)

    def test_reorder_seed_is_stable(self):
        plan = FaultPlan(seed=5, reorder_prob=1.0)
        assert plan.reorder_seed(0, 3) == plan.reorder_seed(0, 3)
        assert plan.reorder_seed(0, 3) != plan.reorder_seed(0, 4)


class TestFaultInjector:
    def test_resolve_faults(self):
        assert resolve_faults(None) is None
        assert resolve_faults(FaultPlan()) is None  # empty plan disables
        assert resolve_faults(FaultInjector(FaultPlan())) is None
        injector = FaultInjector(FaultPlan(crash_prob=0.1))
        assert resolve_faults(injector) is injector
        resolved = resolve_faults(FaultPlan(crash_prob=0.1))
        assert isinstance(resolved, FaultInjector)

    def test_faults_fire_once_per_coordinate(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec(1, 2),)))
        injector.begin_run()
        assert injector.crashed_workers(1, range(4)) == [2]
        # the replayed superstep must not crash again
        assert injector.crashed_workers(1, range(4)) == []
        assert injector.stats.crashes == 1

    def test_run_counter_separates_runs(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec(0, 1, run=None),)))
        injector.begin_run()  # run 0
        assert injector.crashed_workers(0, range(4)) == [1]
        injector.begin_run()  # run 1: same superstep coordinate fires again
        assert injector.crashed_workers(0, range(4)) == [1]
        assert injector.stats.crashes == 2

    def test_backoff_series(self):
        injector = FaultInjector(FaultPlan(drop_prob=0.1), backoff_base_s=0.01)
        assert injector.backoff_time(1) == pytest.approx(0.01)
        assert injector.backoff_time(2) == pytest.approx(0.03)
        assert injector.backoff_time(3) == pytest.approx(0.07)

    def test_permute_requires_reorder_and_size(self):
        injector = FaultInjector(FaultPlan(seed=2, reorder_prob=1.0))
        injector.begin_run()
        single = [42]
        assert injector.permute(0, single) is single  # <2 items: no-op
        items = list(range(12))
        shuffled = injector.permute(1, items)
        assert shuffled is not items
        assert sorted(shuffled) == items
        # deterministic under the same plan seed
        other = FaultInjector(FaultPlan(seed=2, reorder_prob=1.0))
        other.begin_run()
        assert other.permute(1, list(range(12))) == shuffled

    def test_permute_noop_without_reorder(self):
        injector = FaultInjector(FaultPlan(crash_prob=0.5))
        injector.begin_run()
        items = [3, 1, 2]
        assert injector.permute(0, items) is items


class TestSuperstepCheckpoint:
    def test_capture_isolates_mutable_state(self):
        states = {1: {"in": True}, 2: {"in": False}}
        ck = SuperstepCheckpoint.capture(3, states, [1, 2])
        states[1]["in"] = False  # mutate after capture
        states[2] = {"in": True}
        active = ck.restore(states)
        assert active == [1, 2]
        assert states == {1: {"in": True}, 2: {"in": False}}

    def test_restore_drops_vertices_added_after_capture(self):
        states = {1: True}
        ck = SuperstepCheckpoint.capture(0, states, [1])
        states[9] = True
        ck.restore(states)
        assert 9 not in states

    def test_payload_roundtrip(self):
        states = {2: True, 1: False}
        ck = SuperstepCheckpoint.capture(5, states, [1, 2])
        payload = ck.to_payload()
        assert payload["format"] == "repro-mis-superstep-checkpoint"
        assert payload["version"] == 1
        back = SuperstepCheckpoint.from_payload(payload)
        assert back.superstep == 5
        assert back.states == states
        assert back.active == [1, 2]

    def test_payload_validation(self):
        with pytest.raises(CheckpointError, match="not a"):
            SuperstepCheckpoint.from_payload({"format": "something-else"})
        good = SuperstepCheckpoint.capture(0, {1: True}, [1]).to_payload()
        bad_version = dict(good, version=99)
        with pytest.raises(CheckpointError, match="version 99"):
            SuperstepCheckpoint.from_payload(bad_version)
        del good["states"]
        with pytest.raises(CheckpointError, match="malformed"):
            SuperstepCheckpoint.from_payload(good)


class TestScaleGRecovery:
    def test_crash_replay_matches_fault_free(self):
        graph = erdos_renyi(60, 180, seed=11)
        program = OIMISProgram(strategy=ActivationStrategy.ALL)
        reference = ScaleGEngine(_dgraph(graph.copy())).run(program)

        injector = FaultInjector(
            FaultPlan(crashes=(CrashSpec(superstep=0, worker=1, run=0),))
        )
        faulted = ScaleGEngine(_dgraph(graph.copy()), faults=injector).run(program)

        assert injector.stats.crashes == 1
        assert faulted.metrics.recovery_crashes == 1
        assert faulted.metrics.recovery_replayed_supersteps == 1
        assert faulted.metrics.recovery_resync_messages > 0  # guest rebuild
        assert (independent_set_from_states(faulted.states)
                == independent_set_from_states(reference.states))
        assert faulted.metrics.logical() == reference.metrics.logical()

    def test_drop_retries_charged_to_recovery(self):
        graph = erdos_renyi(40, 120, seed=12)
        program = OIMISProgram(strategy=ActivationStrategy.ALL)
        reference = ScaleGEngine(_dgraph(graph.copy())).run(program)

        injector = FaultInjector(FaultPlan(seed=1, drop_prob=0.3,
                                           duplicate_prob=0.3))
        faulted = ScaleGEngine(_dgraph(graph.copy()), faults=injector).run(program)

        assert injector.stats.drops > 0
        assert injector.stats.duplicates > 0
        assert faulted.metrics.recovery_sync_retries > 0
        assert faulted.metrics.recovery_sync_duplicates > 0
        assert faulted.metrics.recovery_backoff_s > 0
        assert faulted.metrics.logical() == reference.metrics.logical()

    def test_straggler_charges_wall_time_only(self):
        graph = erdos_renyi(40, 120, seed=13)
        program = OIMISProgram(strategy=ActivationStrategy.ALL)
        reference = ScaleGEngine(_dgraph(graph.copy())).run(program)
        injector = FaultInjector(
            FaultPlan(stragglers=(StragglerSpec(superstep=0, worker=0,
                                                delay_s=0.25),))
        )
        faulted = ScaleGEngine(_dgraph(graph.copy()), faults=injector).run(program)
        assert faulted.metrics.recovery_straggler_s == pytest.approx(0.25)
        assert faulted.metrics.wall_time_s >= 0.25
        assert faulted.metrics.logical() == reference.metrics.logical()

    def test_exhausted_retries_escalate(self):
        graph = erdos_renyi(40, 120, seed=14)
        program = OIMISProgram(strategy=ActivationStrategy.ALL)
        injector = FaultInjector(FaultPlan(seed=1, drop_prob=1.0),
                                 max_retries=0)
        engine = ScaleGEngine(_dgraph(graph.copy()), faults=injector)
        with pytest.raises(SyncRetryExhausted) as exc_info:
            engine.run(program)
        assert isinstance(exc_info.value, WorkerFailure)  # typed hierarchy

    def test_superstep_limit_restores_states(self):
        graph = erdos_renyi(40, 120, seed=15)
        dgraph = _dgraph(graph)
        program = OIMISProgram(strategy=ActivationStrategy.ALL)
        states = {u: program.initial_state(dgraph, u)
                  for u in graph.vertices()}
        original = dict(states)
        engine = ScaleGEngine(dgraph)
        with pytest.raises(SuperstepLimitExceeded):
            engine.run(program, states=states, max_supersteps=1)
        # no partially converged superstep leaks into the caller's states
        assert states == original


class TestPregelRecovery:
    def test_crash_replay_matches_fault_free(self):
        graph = erdos_renyi(60, 180, seed=21)
        program = DisMISPregelProgram()
        reference = PregelEngine(_dgraph(graph.copy())).run(program)

        injector = FaultInjector(
            FaultPlan(crashes=(CrashSpec(superstep=1, worker=0, run=0),))
        )
        faulted = PregelEngine(_dgraph(graph.copy()), faults=injector).run(program)

        assert injector.stats.crashes == 1
        assert faulted.metrics.recovery_crashes == 1
        assert faulted.metrics.recovery_replayed_supersteps == 1
        assert (program.contract_members(faulted.states)
                == program.contract_members(reference.states))
        assert faulted.metrics.logical() == reference.metrics.logical()

    def test_seeded_mixed_faults_match_fault_free(self):
        graph = erdos_renyi(50, 150, seed=22)
        program = DisMISPregelProgram()
        reference = PregelEngine(_dgraph(graph.copy())).run(program)
        injector = FaultInjector(FaultPlan(
            seed=4, crash_prob=0.05, drop_prob=0.02, duplicate_prob=0.02,
            reorder_prob=1.0,
        ))
        faulted = PregelEngine(_dgraph(graph.copy()), faults=injector).run(program)
        assert injector.stats.total > 0
        assert (program.contract_members(faulted.states)
                == program.contract_members(reference.states))
        assert faulted.metrics.logical() == reference.metrics.logical()

    def test_aggregates_survive_crash_replay(self):
        # DisMIS uses a SumAggregator; the aborted sweep's contributions
        # must not double-count after rollback-and-replay
        graph = erdos_renyi(50, 150, seed=23)
        program = DisMISPregelProgram()
        reference = PregelEngine(_dgraph(graph.copy())).run(program)
        injector = FaultInjector(
            FaultPlan(crashes=(CrashSpec(superstep=2, worker=1, run=0),))
        )
        faulted = PregelEngine(_dgraph(graph.copy()), faults=injector).run(program)
        assert faulted.aggregates == reference.aggregates

    def test_superstep_limit_restores_states(self):
        graph = erdos_renyi(40, 120, seed=24)
        dgraph = _dgraph(graph)
        program = DisMISPregelProgram()
        states = {u: program.initial_state(dgraph, u)
                  for u in graph.vertices()}
        original = {u: s for u, s in states.items()}
        engine = PregelEngine(dgraph)
        with pytest.raises(SuperstepLimitExceeded):
            engine.run(program, states=states, max_supersteps=1)
        assert states == original


class TestMaintainerUnderFaults:
    def _fixpoint_states(self, graph, workers=2):
        ref = DOIMISMaintainer(graph.copy(), num_workers=workers)
        return {u: ref.contains(u) for u in graph.vertices()}

    def test_maintenance_stream_with_faults_matches(self):
        graph = erdos_renyi(40, 120, seed=31)
        from repro.bench.workloads import delete_reinsert_workload

        ops = delete_reinsert_workload(graph, 8, seed=2)
        reference = DOIMISMaintainer(graph.copy(), num_workers=4)
        reference.apply_stream(ops, batch_size=4)

        injector = FaultInjector(FaultPlan(
            seed=9, crash_prob=0.05, drop_prob=0.02, duplicate_prob=0.05,
        ))
        faulted = DOIMISMaintainer(graph.copy(), num_workers=4,
                                   faults=injector)
        faulted.apply_stream(ops, batch_size=4)

        assert injector.stats.total > 0
        assert faulted.independent_set() == reference.independent_set()
        assert (faulted.update_metrics.logical()
                == reference.update_metrics.logical())
        faulted.verify()

    def test_failed_batch_rolls_back_graph_and_set(self):
        # P4 path: deleting (0,1) flips vertex 1 into the set and must sync
        graph = path_graph(4)
        states = self._fixpoint_states(graph)
        injector = FaultInjector(FaultPlan(seed=1, drop_prob=1.0),
                                 max_retries=0)
        maintainer = DOIMISMaintainer(
            graph.copy(), num_workers=2, resume_states=states,
            faults=injector,
        )
        before_set = maintainer.independent_set()
        before_edges = maintainer.graph.sorted_edges()
        with pytest.raises(SyncRetryExhausted):
            maintainer.delete_edge(0, 1)
        # graph, set, and counters exactly as before the failed batch
        assert maintainer.graph.sorted_edges() == before_edges
        assert maintainer.independent_set() == before_set
        assert maintainer.updates_applied == 0
        assert maintainer.batches_applied == 0
        maintainer.verify()

    def test_failed_batch_removes_implicitly_created_vertices(self):
        graph = path_graph(4)
        states = self._fixpoint_states(graph)
        injector = FaultInjector(FaultPlan(seed=1, drop_prob=1.0),
                                 max_retries=0)
        maintainer = DOIMISMaintainer(
            graph.copy(), num_workers=2, resume_states=states,
            faults=injector,
        )
        with pytest.raises(SyncRetryExhausted):
            maintainer.insert_edge(0, 99)  # 99 would be auto-created
        assert not maintainer.graph.has_vertex(99)
        assert not maintainer.contains(99)
        maintainer.verify()

    def test_empty_plan_leaves_maintainer_untouched(self):
        graph = erdos_renyi(30, 90, seed=33)
        reference = MISMaintainer(graph.copy(), num_workers=3)
        faulted = MISMaintainer(graph.copy(), num_workers=3,
                                faults=FaultPlan())
        assert faulted.independent_set() == reference.independent_set()
        assert (faulted.init_metrics.logical()
                == reference.init_metrics.logical())
        assert not any(faulted.init_metrics.family("recovery_").values())


class TestChaosHarness:
    def test_presets_cover_fault_kinds(self):
        from repro.faults.chaos import PLAN_PRESETS

        assert set(PLAN_PRESETS) == {
            "none", "crash", "drop", "duplicate", "straggler", "reorder",
            "composed", "worker-loss", "cascading-loss", "loss-under-stream",
            "corrupt-guest", "drain-under-stream", "elastic",
            "drain-crash-race",
        }

    def test_unknown_preset_rejected(self):
        from repro.faults.chaos import chaos_suite, plan_for

        with pytest.raises(WorkloadError, match="unknown chaos preset"):
            plan_for("nope", 0)
        with pytest.raises(WorkloadError, match="unknown chaos preset"):
            chaos_suite(presets=("nope",))

    def test_cases_hold_oracle_on_small_workload(self):
        from repro.faults.chaos import ChaosWorkload, reference_run, run_chaos_case

        workload = ChaosWorkload(tag="AM", k=6, batch_size=3, workload_seed=1)
        reference = reference_run(workload)
        for preset in ("none", "crash", "composed"):
            result = run_chaos_case(workload, preset, seed=1,
                                    reference=reference)
            assert result.ok, result.failures
            if preset == "none":
                assert result.injected_total == 0
                assert sum(result.recovery.values()) == 0
            if preset == "crash":
                assert result.injected["crashes"] > 0
