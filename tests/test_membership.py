"""Tests for membership-aware failover and guest anti-entropy.

Permanent worker loss is the half of the failure model PR 3 left open: a
worker that never comes back.  The claims under test:

- the failure detector (phi-accrual heartbeats) distinguishes stragglers
  from dead workers — injected delays never raise suspicion;
- rendezvous reassignment is deterministic (``PYTHONHASHSEED``-proof),
  minimal (only the dead workers' vertices move), and composes with the
  rank-ordered adjacency cache's incremental repair;
- every lost host vertex reconstructs (surviving guest copy, delta log, or
  barrier checkpoint) and the run converges to the *bit-identical* fixpoint
  with bit-identical logical meters — all costs quarantined in
  ``recovery_*``;
- the anti-entropy auditor catches every injected ``corrupt_guest`` within
  its sampling window and read-repair leaves no copy diverged — costs in
  ``divergence_*``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.dismis import DisMISPregelProgram
from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.errors import CheckpointError, WorkloadError
from repro.faults import (
    FailoverCoordinator,
    FaultInjector,
    FaultPlan,
    LossSpec,
    MembershipConfig,
    MembershipView,
    StragglerSpec,
    rendezvous_worker,
    resolve_membership,
)
from repro.faults.membership import LOG10E
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.rank_cache import degree_rank_key
from repro.pregel.engine import PregelEngine
from repro.pregel.partition import HashPartitioner

_SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _dgraph(graph, workers=4):
    return DistributedGraph(graph, HashPartitioner(workers))


def _recovery_total(metrics):
    return sum(metrics.family("recovery_").values())


def _divergence_total(metrics):
    return sum(metrics.family("divergence_").values())


# ---------------------------------------------------------------------------
# rendezvous reassignment
# ---------------------------------------------------------------------------
class TestRendezvous:
    def test_minimal_on_candidate_removal(self):
        # HRW's defining property: removing a candidate moves only the
        # vertices it owned — every other vertex keeps its argmax
        candidates = [0, 1, 2, 3, 4, 5]
        before = {u: rendezvous_worker(u, candidates) for u in range(500)}
        for dead in candidates:
            survivors = [w for w in candidates if w != dead]
            for u in range(500):
                after = rendezvous_worker(u, survivors)
                if before[u] != dead:
                    assert after == before[u]
                else:
                    assert after in survivors

    def test_cascading_removals_compose(self):
        # killing {2} then {5} lands every vertex where killing {2, 5} does
        one_by_one = {}
        for u in range(300):
            w = rendezvous_worker(u, [0, 1, 3, 4, 5])
            one_by_one[u] = rendezvous_worker(u, [0, 1, 3, 4]) \
                if w == 5 else w
        at_once = {u: rendezvous_worker(u, [0, 1, 3, 4]) for u in range(300)}
        assert one_by_one == at_once

    def test_candidate_order_irrelevant(self):
        for u in range(50):
            assert rendezvous_worker(u, [3, 0, 2]) == \
                rendezvous_worker(u, [0, 2, 3])

    def test_salt_changes_placement(self):
        moved = sum(
            1 for u in range(200)
            if rendezvous_worker(u, [0, 1, 2, 3], salt=0)
            != rendezvous_worker(u, [0, 1, 2, 3], salt=1)
        )
        assert moved > 0

    def test_deterministic_across_hash_seeds(self):
        # the whole failover pipeline — rendezvous weights, audit slots,
        # reconstruction order — must be a pure function of ids, never of
        # Python's per-process hash randomization
        script = """
from repro.core.doimis import DOIMISMaintainer
from repro.faults import FaultInjector, FaultPlan, rendezvous_worker
from repro.graph.generators import erdos_renyi

print(",".join(
    str(rendezvous_worker(u, [0, 2, 4, 7, 9], salt=3)) for u in range(64)
))
graph = erdos_renyi(60, 180, seed=21)
injector = FaultInjector(FaultPlan(seed=7, loss_prob=0.02, corrupt_prob=0.01))
m = DOIMISMaintainer(graph, num_workers=10, faults=injector)
from repro.bench.workloads import delete_reinsert_workload
ops = delete_reinsert_workload(m.graph, 10, seed=4)
m.apply_stream(ops, batch_size=2)
m.final_audit()
m.verify()
print(",".join(map(str, sorted(m.independent_set()))))
print(",".join(map(str, m.failover.dead_workers)))
print(m.init_metrics.recovery_resync_bytes
      + m.update_metrics.recovery_resync_bytes,
      m.init_metrics.divergence_checks + m.update_metrics.divergence_checks)
"""
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = _SRC_ROOT
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=180,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1]  # non-empty independent set

    def test_composes_with_rank_cache_repair(self):
        # failover overlays placement only; the rank-ordered adjacency
        # cache keeps repairing incrementally under the update stream and
        # must stay equal to a fresh sort afterwards
        from repro.bench.workloads import delete_reinsert_workload

        graph = erdos_renyi(60, 180, seed=21)
        injector = FaultInjector(
            FaultPlan(losses=(LossSpec(superstep=0, worker=1, run=2),))
        )
        maintainer = DOIMISMaintainer(graph, num_workers=10, faults=injector)
        ops = delete_reinsert_workload(maintainer.graph, 12, seed=4)
        maintainer.apply_stream(ops, batch_size=3)
        assert injector.stats.losses == 1
        maintainer.verify()
        key = degree_rank_key(maintainer.graph)
        cache = maintainer.graph.rank_cache()
        for u in maintainer.graph.sorted_vertices():
            fresh = [v for _, v in sorted(
                (key(v), v) for v in maintainer.graph.neighbors(u)
            )]
            assert cache.ranked_neighbors(u) == fresh


# ---------------------------------------------------------------------------
# failure detector
# ---------------------------------------------------------------------------
class TestMembershipView:
    def _view(self, **overrides):
        config = MembershipConfig(**overrides)
        return MembershipView(range(4), config), config

    def test_phi_grows_with_silence(self):
        view, config = self._view()
        for _ in range(3):
            view.advance()
            for w in (0, 1, 2):
                view.heartbeat(w)
        assert view.phi(0) == 0.0
        assert view.phi(3) == pytest.approx(3 * LOG10E)
        assert view.suspects() == []
        # silence long enough to cross the threshold
        silent = int(config.phi_threshold / LOG10E) + 1
        for _ in range(silent):
            view.advance()
            for w in (0, 1, 2):
                view.heartbeat(w)
        assert view.suspects() == [3]

    def test_injected_delay_never_raises_suspicion(self):
        # the straggler/death discriminator: a delay the injector flagged
        # is excluded from phi entirely
        view, config = self._view()
        huge = 100 * config.detection_latency_s
        for _ in range(5):
            view.advance()
            view.heartbeat(0, delay_s=huge, injected=True)
            view.heartbeat(1, delay_s=huge, injected=False)
        assert view.phi(0) == 0.0
        assert view.phi(1) > config.phi_threshold
        assert view.suspects() == [1]

    def test_declare_dead_is_permanent(self):
        view, _ = self._view()
        view.declare_dead(2)
        assert view.is_dead(2)
        assert view.phi(2) == float("inf")
        view.heartbeat(2)  # a zombie heartbeat must not resurrect it
        assert view.is_dead(2)
        assert view.alive_workers() == [0, 1, 3]
        assert view.dead_workers() == [2]

    def test_detection_latency_closed_form(self):
        config = MembershipConfig(phi_threshold=8.0, heartbeat_interval_s=0.05)
        assert config.detection_latency_s == pytest.approx(
            8.0 / LOG10E * 0.05
        )

    def test_config_validation(self):
        with pytest.raises(WorkloadError, match="phi_threshold"):
            MembershipConfig(phi_threshold=0.0)
        with pytest.raises(WorkloadError, match="heartbeat_interval_s"):
            MembershipConfig(heartbeat_interval_s=-1.0)
        with pytest.raises(WorkloadError, match="delta_log_depth"):
            MembershipConfig(delta_log_depth=0)
        with pytest.raises(WorkloadError, match="audit_every"):
            MembershipConfig(audit_every=-1)

    def test_injected_stragglers_never_trigger_failover(self):
        # regression for the satellite-1 bug: chaos `straggler` delays are
        # fed to the detector flagged, so even delays far beyond the
        # detection latency must never kill a worker
        config = MembershipConfig()  # detection latency ~0.92 s
        delay = 50 * config.detection_latency_s
        plan = FaultPlan(stragglers=tuple(
            StragglerSpec(superstep=s, worker=1, delay_s=delay, run=0)
            for s in range(6)
        ))
        injector = FaultInjector(plan)
        maintainer = DOIMISMaintainer(
            erdos_renyi(40, 120, seed=5), num_workers=4,
            faults=injector, membership=config,
        )
        assert injector.stats.stragglers > 0
        assert maintainer.failover is not None
        assert maintainer.failover.dead_workers == []
        assert maintainer.failover.events == []
        assert maintainer.init_metrics.recovery_failovers == 0
        assert maintainer.init_metrics.recovery_straggler_s > 0

    def test_straggler_chaos_preset_zero_failovers(self):
        from repro.faults.chaos import ChaosWorkload, run_chaos_case

        workload = ChaosWorkload(tag="AM", k=6, batch_size=3, workload_seed=1)
        result = run_chaos_case(
            workload, "straggler", seed=0, membership=MembershipConfig()
        )
        assert result.ok, result.failures
        assert result.injected["stragglers"] > 0
        assert result.recovery["recovery_failovers"] == 0


# ---------------------------------------------------------------------------
# failover end-to-end (ScaleG)
# ---------------------------------------------------------------------------
class TestScaleGFailover:
    def test_explicit_loss_matches_fault_free(self):
        graph = erdos_renyi(60, 180, seed=21)
        reference = DOIMISMaintainer(graph.copy(), num_workers=10)
        injector = FaultInjector(
            FaultPlan(losses=(LossSpec(superstep=1, worker=3, run=0),))
        )
        faulted = DOIMISMaintainer(graph.copy(), num_workers=10,
                                   faults=injector)
        assert injector.stats.losses == 1
        assert faulted.failover is not None
        assert faulted.failover.dead_workers == [3]
        assert faulted.independent_set() == reference.independent_set()
        assert faulted.init_metrics.logical() == reference.init_metrics.logical()
        metrics = faulted.init_metrics
        assert metrics.recovery_failovers == 1
        assert metrics.recovery_replayed_supersteps == 1
        assert metrics.recovery_reassigned_vertices > 0
        assert metrics.recovery_reconstructed_vertices > 0
        assert metrics.recovery_reactivated_vertices > 0
        assert metrics.recovery_detection_s > 0
        assert metrics.recovery_resync_bytes > 0
        faulted.verify()
        (event,) = faulted.failover.events
        assert event.workers == (3,)
        assert sum(event.sources.values()) == event.reassigned

    def test_cascading_losses_match_fault_free(self):
        from repro.bench.workloads import delete_reinsert_workload

        graph = erdos_renyi(60, 180, seed=21)
        ops = delete_reinsert_workload(graph, 15, seed=4)
        reference = DOIMISMaintainer(graph.copy(), num_workers=10)
        reference.apply_stream(ops, batch_size=1)
        injector = FaultInjector(FaultPlan(seed=7, loss_prob=0.02))
        faulted = DOIMISMaintainer(graph.copy(), num_workers=10,
                                   faults=injector)
        faulted.apply_stream(ops, batch_size=1)
        assert injector.stats.losses >= 2  # genuinely cascading
        assert faulted.independent_set() == reference.independent_set()
        assert faulted.init_metrics.logical() == reference.init_metrics.logical()
        assert faulted.update_metrics.logical() == reference.update_metrics.logical()
        faulted.verify()

    def test_last_survivor_is_unkillable(self):
        # schedule every worker's death at once: min_survivors clamps the
        # schedule and the run still converges on the survivor
        graph = erdos_renyi(30, 90, seed=33)
        reference = DOIMISMaintainer(graph.copy(), num_workers=4)
        injector = FaultInjector(FaultPlan(losses=tuple(
            LossSpec(superstep=1, worker=w, run=0) for w in range(4)
        )))
        faulted = DOIMISMaintainer(graph.copy(), num_workers=4,
                                   faults=injector)
        assert injector.stats.losses == 3
        assert len(faulted.failover.alive_workers) == 1
        assert faulted.independent_set() == reference.independent_set()
        assert faulted.init_metrics.logical() == reference.init_metrics.logical()

    def test_isolated_vertex_reconstructs_from_checkpoint(self):
        # an isolated vertex has no guest copy anywhere and (never having
        # changed state) no delta-log entry: the persisted barrier
        # checkpoint is the only reconstruction source
        graph = erdos_renyi(40, 120, seed=5)
        iso = max(graph.sorted_vertices()) + 1
        graph.add_vertex(iso)
        probe = DOIMISMaintainer(graph.copy(), num_workers=4)
        worker = probe.dgraph.worker_of(iso)
        injector = FaultInjector(
            FaultPlan(losses=(LossSpec(superstep=1, worker=worker, run=0),))
        )
        faulted = DOIMISMaintainer(graph.copy(), num_workers=4,
                                   faults=injector)
        assert injector.stats.losses == 1
        assert faulted.independent_set() == probe.independent_set()
        (event,) = faulted.failover.events
        assert event.sources["checkpoint"] >= 1
        assert faulted.contains(iso)

    def test_dead_worker_cannot_crash_or_straggle(self):
        graph = erdos_renyi(40, 120, seed=5)
        plan = FaultPlan(
            losses=(LossSpec(superstep=0, worker=2, run=0),),
            crashes=tuple(),
            stragglers=(StragglerSpec(superstep=3, worker=2, delay_s=5.0,
                                      run=0),),
        )
        injector = FaultInjector(plan)
        maintainer = DOIMISMaintainer(graph, num_workers=4, faults=injector)
        assert injector.stats.losses == 1
        assert injector.stats.stragglers == 0
        assert maintainer.init_metrics.recovery_straggler_s == 0.0

    def test_losses_quarantined_from_logical_meters(self):
        # belt and braces on the metering invariant: the overlay must never
        # leak into the logical fingerprint, only into recovery_*
        graph = erdos_renyi(60, 180, seed=21)
        reference = DOIMISMaintainer(graph.copy(), num_workers=10)
        injector = FaultInjector(
            FaultPlan(losses=(LossSpec(superstep=0, worker=0, run=0),
                              LossSpec(superstep=2, worker=5, run=0)))
        )
        faulted = DOIMISMaintainer(graph.copy(), num_workers=10,
                                   faults=injector)
        assert faulted.init_metrics.logical() == reference.init_metrics.logical()
        assert _recovery_total(reference.init_metrics) == 0
        assert _recovery_total(faulted.init_metrics) > 0


# ---------------------------------------------------------------------------
# delta log
# ---------------------------------------------------------------------------
class TestDeltaLog:
    def _coordinator(self, depth=3):
        # single-worker placement: every vertex is solitary, so everything
        # changed lands in the log
        graph = erdos_renyi(12, 24, seed=1)
        dgraph = _dgraph(graph, workers=1)
        config = MembershipConfig(delta_log_depth=depth)
        return FailoverCoordinator(dgraph, config), graph

    def test_records_solitary_changes_and_charges_meters(self):
        from repro.pregel.metrics import RunMetrics

        coordinator, graph = self._coordinator()
        metrics = RunMetrics(num_workers=1)
        states = {u: True for u in graph.sorted_vertices()}
        coordinator.record_deltas([0, 1], states, lambda s: 1, metrics)
        assert coordinator.ledger_size == 2
        assert metrics.recovery_delta_log_records == 2
        assert metrics.recovery_delta_log_bytes > 0
        found, value = coordinator._ledger_lookup(0)
        assert found and value is True

    def test_depth_bound_compacts_oldest_frames(self):
        from repro.pregel.metrics import RunMetrics

        coordinator, graph = self._coordinator(depth=3)
        metrics = RunMetrics(num_workers=1)
        states = {u: False for u in graph.sorted_vertices()}
        for step in range(8):
            states[step % 4] = not states[step % 4]
            coordinator.record_deltas([step % 4], states, lambda s: 1,
                                      metrics)
        assert len(coordinator._frames) == 3
        # compacted base + live frames still resolve to the newest value
        for u in range(4):
            found, value = coordinator._ledger_lookup(u)
            assert found and value == states[u]

    def test_vertices_with_guest_copies_stay_out(self):
        from repro.pregel.metrics import RunMetrics

        graph = erdos_renyi(20, 60, seed=2)
        dgraph = _dgraph(graph, workers=4)
        coordinator = FailoverCoordinator(dgraph, MembershipConfig())
        metrics = RunMetrics(num_workers=4)
        states = {u: True for u in graph.sorted_vertices()}
        replicated = [
            u for u in graph.sorted_vertices() if dgraph.guest_machines(u)
        ]
        coordinator.record_deltas(replicated, states, lambda s: 1, metrics)
        assert coordinator.ledger_size == 0
        assert metrics.recovery_delta_log_records == 0


# ---------------------------------------------------------------------------
# anti-entropy auditor (satellite 4)
# ---------------------------------------------------------------------------
class TestGuestAuditor:
    @pytest.mark.parametrize("batch_size,k", [(1, 12), (5, 20)])
    def test_catches_every_corruption_within_window(self, batch_size, k):
        # Fig. 10 (single-update) and Fig. 11 (batched) shaped workloads:
        # every injected corrupt_guest must be resolved, and every repair
        # within audit_every audited supersteps of injection
        from repro.bench.workloads import delete_reinsert_workload

        graph = erdos_renyi(60, 180, seed=21)
        ops = delete_reinsert_workload(graph, k, seed=4)
        reference = DOIMISMaintainer(graph.copy(), num_workers=10)
        reference.apply_stream(ops, batch_size=batch_size)

        injector = FaultInjector(FaultPlan(seed=3, corrupt_prob=0.01))
        faulted = DOIMISMaintainer(graph.copy(), num_workers=10,
                                   faults=injector)
        faulted.apply_stream(ops, batch_size=batch_size)
        faulted.final_audit()

        assert injector.stats.corruptions > 0
        auditor = faulted.failover.auditor
        assert auditor.corrupted_pairs() == []  # nothing escaped
        assert len(auditor.findings) == injector.stats.corruptions
        window = faulted.failover.config.audit_every
        for finding in auditor.findings:
            assert finding.outcome in ("repaired", "destroyed")
            assert finding.resolved_clock - finding.injected_clock <= window

        # read-repair restored bit-identical members and logical meters
        assert faulted.independent_set() == reference.independent_set()
        assert faulted.update_metrics.logical() == reference.update_metrics.logical()
        assert _divergence_total(faulted.update_metrics) \
            + _divergence_total(faulted.init_metrics) > 0
        assert _divergence_total(reference.update_metrics) == 0

    def test_audit_disabled_by_config(self):
        injector = FaultInjector(FaultPlan(seed=3, corrupt_prob=0.01))
        maintainer = DOIMISMaintainer(
            erdos_renyi(40, 120, seed=5), num_workers=4, faults=injector,
            membership=MembershipConfig(audit_every=0),
        )
        assert maintainer.final_audit() == 0
        assert _divergence_total(maintainer.init_metrics) == 0

    def test_corrupt_guest_chaos_preset_holds_oracle(self):
        from repro.faults.chaos import ChaosWorkload, run_chaos_case

        workload = ChaosWorkload(tag="AM", k=6, batch_size=3, workload_seed=1)
        result = run_chaos_case(workload, "corrupt-guest", seed=0)
        assert result.ok, result.failures
        assert result.injected["corruptions"] > 0
        assert result.divergence["divergence_detected"] > 0
        assert (result.divergence["divergence_detected"]
                == result.divergence["divergence_repaired"])


# ---------------------------------------------------------------------------
# degraded Pregel counterpart
# ---------------------------------------------------------------------------
class TestPregelFailover:
    def test_loss_matches_fault_free(self):
        graph = erdos_renyi(60, 180, seed=21)
        program = DisMISPregelProgram()
        reference = PregelEngine(_dgraph(graph.copy())).run(program)
        injector = FaultInjector(
            FaultPlan(losses=(LossSpec(superstep=1, worker=2, run=0),))
        )
        engine = PregelEngine(_dgraph(graph.copy()), faults=injector)
        faulted = engine.run(program)
        assert injector.stats.losses == 1
        assert engine.failover is not None
        assert engine.failover.dead_workers == [2]
        assert (program.contract_members(faulted.states)
                == program.contract_members(reference.states))
        assert faulted.metrics.logical() == reference.metrics.logical()
        assert faulted.metrics.recovery_failovers == 1
        # degraded path: everything reloads from the barrier checkpoint
        (event,) = engine.failover.events
        assert event.sources["guest"] == 0
        assert event.sources["checkpoint"] == event.reassigned

    def test_injected_stragglers_never_trigger_failover(self):
        graph = erdos_renyi(50, 150, seed=22)
        program = DisMISPregelProgram()
        config = MembershipConfig()
        plan = FaultPlan(stragglers=tuple(
            StragglerSpec(superstep=s, worker=0,
                          delay_s=100 * config.detection_latency_s, run=0)
            for s in range(4)
        ))
        injector = FaultInjector(plan)
        engine = PregelEngine(_dgraph(graph.copy()), faults=injector,
                              membership=config)
        engine.run(program)
        assert injector.stats.stragglers > 0
        assert engine.failover.dead_workers == []
        assert engine.failover.events == []


# ---------------------------------------------------------------------------
# plumbing: resolve, streaming, checkpoints, hot-loop purity
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_resolve_membership_auto_attaches_on_loss_plans(self):
        graph = erdos_renyi(20, 60, seed=2)
        dgraph = _dgraph(graph)
        lossy = FaultInjector(FaultPlan(loss_prob=0.1))
        corrupting = FaultInjector(FaultPlan(corrupt_prob=0.1))
        transient = FaultInjector(FaultPlan(crash_prob=0.1))
        assert resolve_membership(None, lossy, dgraph) is not None
        assert resolve_membership(None, corrupting, dgraph) is not None
        assert resolve_membership(None, transient, dgraph) is None
        assert resolve_membership(None, None, dgraph) is None
        config = MembershipConfig(phi_threshold=4.0)
        coordinator = resolve_membership(config, None, dgraph)
        assert isinstance(coordinator, FailoverCoordinator)
        assert coordinator.config.phi_threshold == 4.0
        assert resolve_membership(coordinator, None, dgraph) is coordinator
        with pytest.raises(WorkloadError, match="membership"):
            resolve_membership(42, None, dgraph)

    def test_streaming_session_reports_failovers(self):
        from repro.bench.workloads import delete_reinsert_workload
        from repro.stream import StreamingSession

        graph = erdos_renyi(60, 180, seed=21)
        injector = FaultInjector(
            FaultPlan(losses=(LossSpec(superstep=0, worker=4, run=2),))
        )
        maintainer = DOIMISMaintainer(graph, num_workers=10, faults=injector)
        ops = delete_reinsert_workload(maintainer.graph, 12, seed=4)
        session = StreamingSession(maintainer, window_size=4)
        session.offer_many(ops)
        session.close()
        assert injector.stats.losses == 1
        totals = session.totals()
        assert totals["failovers"] == 1
        assert sum(r.failovers for r in session.history) == 1
        # the loss landed in exactly one window
        assert sorted(r.failovers for r in session.history)[-1] == 1

    def test_load_rejects_partition_mismatch(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        maintainer = MISMaintainer(erdos_renyi(30, 90, seed=33),
                                   num_workers=4)
        maintainer.save(path)
        resumed = MISMaintainer.load(path, num_workers=4)
        assert resumed.num_workers == 4
        with pytest.raises(CheckpointError) as excinfo:
            MISMaintainer.load(path, num_workers=8)
        message = str(excinfo.value)
        assert "partition mismatch" in message
        assert "4" in message and "8" in message
        # default: adopt the checkpoint's own count
        assert MISMaintainer.load(path).num_workers == 4

    def test_explicit_membership_without_faults_is_inert(self):
        # attaching a coordinator with no fault plan must leave the hot
        # loop byte-identical: same members, same logical meters, zero
        # recovery/divergence charges
        graph = erdos_renyi(40, 120, seed=5)
        reference = DOIMISMaintainer(graph.copy(), num_workers=4)
        attached = DOIMISMaintainer(graph.copy(), num_workers=4,
                                    membership=MembershipConfig())
        assert attached.failover is not None
        assert attached.independent_set() == reference.independent_set()
        assert attached.init_metrics.logical() == reference.init_metrics.logical()
        assert _recovery_total(attached.init_metrics) == 0
        assert _divergence_total(attached.init_metrics) == 0

    def test_loss_under_stream_preset_holds_oracle(self):
        from repro.faults.chaos import ChaosWorkload, run_chaos_case

        workload = ChaosWorkload(tag="AM", k=10, batch_size=1,
                                 workload_seed=1)
        result = run_chaos_case(workload, "loss-under-stream", seed=0)
        assert result.ok, result.failures
        assert result.injected["losses"] >= 1
        assert result.recovery["recovery_failovers"] >= 1
