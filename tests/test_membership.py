"""Tests for membership-aware failover.

Permanent worker loss is the half of the failure model transient crash
recovery leaves open: a worker that never comes back.  The claims under
test:

- stragglers are never declared dead — injected delays never fail over;
- rendezvous reassignment is deterministic (``PYTHONHASHSEED``-proof),
  minimal (only the dead workers' vertices move), and composes with the
  rank-ordered adjacency cache's incremental repair;
- every lost host vertex reconstructs (surviving guest copy or barrier
  checkpoint) and the run converges to the *bit-identical* fixpoint with
  bit-identical logical meters — all costs quarantined in ``recovery_*``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.errors import CheckpointError
from repro.faults import (
    DrainSpec,
    FailoverCoordinator,
    FaultInjector,
    FaultPlan,
    LossSpec,
    MembershipView,
    StragglerSpec,
    rendezvous_worker,
    resolve_membership,
)
from repro.faults.membership import DETECTION_LATENCY_S
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.rank_cache import degree_rank_key
from repro.pregel.partition import HashPartitioner

_SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _dgraph(graph, workers=4):
    return DistributedGraph(graph, HashPartitioner(workers))


def _recovery_total(metrics):
    return sum(metrics.family("recovery_").values())


#: a loss scheduled in a run that never starts: it attaches a failover
#: coordinator without ever firing
_DORMANT_LOSS = LossSpec(superstep=0, worker=0, run=10 ** 6)


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
        # the whole failover pipeline — rendezvous weights, reconstruction
        # order — must be a pure function of ids, never of
        # Python's per-process hash randomization
        script = """
from repro.core.doimis import DOIMISMaintainer
from repro.faults import FaultInjector, FaultPlan, rendezvous_worker
from repro.graph.generators import erdos_renyi

print(",".join(
    str(rendezvous_worker(u, [0, 2, 4, 7, 9], salt=3)) for u in range(64)
))
graph = erdos_renyi(60, 180, seed=21)
injector = FaultInjector(FaultPlan(seed=7, loss_prob=0.02))
m = DOIMISMaintainer(graph, num_workers=10, faults=injector)
from repro.bench.workloads import delete_reinsert_workload
ops = delete_reinsert_workload(m.graph, 10, seed=4)
m.apply_stream(ops, batch_size=2)
m.verify()
print(",".join(map(str, sorted(m.independent_set()))))
print(",".join(map(str, m.failover.dead_workers)))
print(m.init_metrics.recovery_resync_bytes
      + m.update_metrics.recovery_resync_bytes)
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
# membership view and stragglers
# ---------------------------------------------------------------------------
class TestMembershipView:
    def test_declare_dead_is_permanent(self):
        view = MembershipView(range(4))
        view.declare_dead(2)
        assert view.is_dead(2)
        assert not view.is_member(2)
        assert view.alive_workers() == [0, 1, 3]
        assert view.dead_workers() == [2]

    def test_detection_latency_closed_form(self):
        # a phi threshold of 8 over 0.05 s heartbeats, pinned bit-for-bit
        # so recovery_detection_s stays comparable across commits; every
        # failover charges it once per barrier
        assert DETECTION_LATENCY_S == 8.0 / 0.4342944819032518 * 0.05
        assert DETECTION_LATENCY_S == 0.9210340371976184
        injector = FaultInjector(
            FaultPlan(losses=(LossSpec(superstep=1, worker=3, run=0),))
        )
        maintainer = DOIMISMaintainer(
            erdos_renyi(40, 120, seed=5), num_workers=4, faults=injector,
        )
        assert injector.stats.losses == 1
        assert maintainer.init_metrics.recovery_detection_s \
            == DETECTION_LATENCY_S

    def test_injected_stragglers_never_trigger_failover(self):
        # a slow worker is not a dead one: even delays far beyond the
        # detection latency must never kill a worker, with a coordinator
        # attached and watching
        delay = 50 * DETECTION_LATENCY_S
        plan = FaultPlan(losses=(_DORMANT_LOSS,), stragglers=tuple(
            StragglerSpec(superstep=s, worker=1, delay_s=delay, run=0)
            for s in range(6)
        ))
        injector = FaultInjector(plan)
        maintainer = DOIMISMaintainer(
            erdos_renyi(40, 120, seed=5), num_workers=4, faults=injector,
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
        result = run_chaos_case(workload, "straggler", seed=0)
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
        # an isolated vertex has no guest copy anywhere: the persisted
        # barrier checkpoint is the only reconstruction source
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
# plumbing: resolve, streaming, checkpoints, hot-loop purity
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_resolve_membership_auto_attaches_on_loss_plans(self):
        graph = erdos_renyi(20, 60, seed=2)
        dgraph = _dgraph(graph)
        lossy = FaultInjector(FaultPlan(loss_prob=0.1))
        draining = FaultInjector(
            FaultPlan(drains=(DrainSpec(superstep=0, worker=1),))
        )
        transient = FaultInjector(FaultPlan(crash_prob=0.1))
        assert isinstance(resolve_membership(lossy, dgraph),
                          FailoverCoordinator)
        assert isinstance(resolve_membership(draining, dgraph),
                          FailoverCoordinator)
        assert resolve_membership(transient, dgraph) is None
        assert resolve_membership(None, dgraph) is None

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

    def test_loss_under_stream_preset_holds_oracle(self):
        from repro.faults.chaos import ChaosWorkload, run_chaos_case

        workload = ChaosWorkload(tag="AM", k=10, batch_size=1,
                                 workload_seed=1)
        result = run_chaos_case(workload, "loss-under-stream", seed=0)
        assert result.ok, result.failures
        assert result.injected["losses"] >= 1
        assert result.recovery["recovery_failovers"] >= 1
