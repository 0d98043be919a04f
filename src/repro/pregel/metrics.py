"""Cost model and run metrics for the simulated distributed engines.

The paper reports four quantities per experiment: *response time*,
*communication cost* (MB shipped between workers), *memory cost* (peak MB per
worker) and *superstep number*, plus *active vertex number* for the
optimization study (Table III).  Real wall-clock on a cluster is unavailable
in a single-process reproduction, so the engines charge every logical event
to an explicit, documented cost model and additionally expose a BSP makespan
model (:meth:`RunMetrics.simulated_time`) used by the scalability figures.

The byte constants below are the serialized sizes a straightforward C++
implementation would ship; their absolute values only scale the reported MB,
while every comparison in the paper's tables depends on *ratios*, which are
set by message counts and per-state payload sizes supplied by the vertex
programs themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List

#: Bytes of a vertex identifier on the wire (64-bit id).
VERTEX_ID_BYTES = 8
#: Bytes of a vertex degree value (32-bit int).
DEGREE_BYTES = 4
#: Bytes of a boolean / small-enum status value.
STATUS_BYTES = 1
#: Fixed framing overhead charged once per remote message / sync record.
MESSAGE_OVERHEAD_BYTES = 8
#: Bytes per remotely-activated vertex id piggybacked on a sync record
#: (ScaleG routes activation through the guest inverted index, so an
#: activation entry is a compact local offset, not a full id).
ACTIVATION_ENTRY_BYTES = 4

#: Modelled per-vertex bookkeeping overhead for the memory estimate
#: (hash-table slot + object header).
VERTEX_OVERHEAD_BYTES = 32
#: Modelled bytes per adjacency entry.
ADJACENCY_ENTRY_BYTES = 8
#: Modelled per-guest-copy overhead (directory slot + inverted index entry).
GUEST_OVERHEAD_BYTES = 16


@dataclass
class SuperstepRecord:
    """Everything measured during one superstep."""

    superstep: int
    active_vertices: int = 0
    #: neighbour-state reads / comparisons performed by vertex programs
    compute_work: int = 0
    #: total logical messages (including worker-local ones)
    messages: int = 0
    #: messages that crossed a worker boundary
    remote_messages: int = 0
    #: bytes shipped between workers this superstep
    bytes_sent: int = 0
    #: vertices whose state changed this superstep
    state_changes: int = 0
    #: per-worker compute work, for the BSP makespan model
    worker_work: List[int] = field(default_factory=list)


#: the logical meters — bit-identical across backends and under recovered
#: faults (recovery replays charge the ``recovery_*`` meters instead): the
#: chaos oracle compares them, and the ingestion service commits their
#: cumulative sums to the WAL as its crash-recovery oracle
LOGICAL_METERS = (
    "supersteps", "active_vertices", "state_changes",
    "messages", "remote_messages", "bytes_sent", "compute_work",
)


@dataclass
class RunMetrics:
    """Aggregate metrics for one engine run (or one maintenance session).

    The fields are the one meter registry: every numeric field but
    ``num_workers`` is a meter (:data:`METERS`), a ``recovery_`` /
    ``rebalance_`` name prefix puts it in a quarantined family
    (:data:`FAMILIES`), and merging, family summaries and logical
    fingerprints are derived from them.  A maintainer accumulates costs
    over an update stream by passing one instance to every engine run,
    the way the paper accumulates them over 100k updates.
    """

    num_workers: int = 1
    supersteps: int = 0
    active_vertices: int = 0
    compute_work: int = 0
    messages: int = 0
    remote_messages: int = 0
    bytes_sent: int = 0
    state_changes: int = 0
    wall_time_s: float = 0.0
    # -- recovery meter family (fault injection / recovery overhead) -----
    # Logical meters above describe the *committed* computation and stay
    # bit-identical whether or not faults were injected; everything a fault
    # costs extra — replayed sweeps, re-shipped sync records, backoff and
    # straggler time — is charged here so the overhead is measurable
    # instead of hidden.
    #: worker crashes detected and recovered at superstep barriers
    recovery_crashes: int = 0
    #: superstep attempts aborted and replayed after a crash
    recovery_replayed_supersteps: int = 0
    #: compute work of aborted superstep attempts (redundant on replay)
    recovery_compute_work: int = 0
    #: bytes re-shipped during recovery (retries, duplicates, guest rebuild)
    recovery_resync_bytes: int = 0
    #: remote records re-shipped during recovery
    recovery_resync_messages: int = 0
    #: failed sync-record attempts that were retried
    recovery_sync_retries: int = 0
    #: duplicated sync records discarded idempotently at the receiver
    recovery_sync_duplicates: int = 0
    #: supersteps whose sync/delivery order was adversarially permuted
    recovery_reorders: int = 0
    #: modelled wall time lost to straggling workers
    recovery_straggler_s: float = 0.0
    #: modelled wall time spent in retry exponential backoff
    recovery_backoff_s: float = 0.0
    #: workers declared permanently dead and failed over
    recovery_failovers: int = 0
    #: modelled wall time the barrier blocked until the silent workers
    #: were declared dead
    recovery_detection_s: float = 0.0
    #: host vertices whose partition moved to a surviving worker
    recovery_reassigned_vertices: int = 0
    #: lost host vertices whose state was rebuilt from a surviving guest
    #: copy or the barrier checkpoint
    recovery_reconstructed_vertices: int = 0
    #: vertices re-examined by the post-failover recovery sweep (the
    #: DOIMIS affected set around every reconstructed vertex)
    recovery_reactivated_vertices: int = 0
    # -- rebalance meter family (voluntary elasticity) -------------------
    # Planned membership transitions (joins/drains) are *chosen*, not
    # suffered, so their cost is quarantined separately from ``recovery_*``:
    # comparing the two families is how an operator decides whether a
    # rebalance was cheaper than riding out the skew.
    #: workers that voluntarily joined at a barrier
    rebalance_joins: int = 0
    #: workers that voluntarily drained at a barrier
    rebalance_drains: int = 0
    #: host vertices whose effective placement moved in a transition
    rebalance_moved_vertices: int = 0
    #: bytes streamed to re-establish moved hosts + their guest copies
    rebalance_resync_bytes: int = 0
    #: sync records streamed during transitions
    rebalance_resync_messages: int = 0
    #: rank-cache entries rebuilt on the receiving workers
    rebalance_rank_entries: int = 0
    #: modelled wall time the barrier stalled while transitions applied
    rebalance_stall_s: float = 0.0
    #: modelled peak bytes resident on the most-loaded worker
    peak_worker_memory_bytes: int = 0
    #: modelled total bytes across all workers
    total_memory_bytes: int = 0
    records: List[SuperstepRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    def observe(self, record: SuperstepRecord, keep_record: bool = True) -> None:
        """Fold one superstep's record into the aggregate."""
        self.supersteps += 1
        self.active_vertices += record.active_vertices
        self.compute_work += record.compute_work
        self.messages += record.messages
        self.remote_messages += record.remote_messages
        self.bytes_sent += record.bytes_sent
        self.state_changes += record.state_changes
        if keep_record:
            self.records.append(record)

    def observe_memory(self, per_worker_bytes: Dict[int, int]) -> None:
        """Record a memory snapshot (keeps the peak)."""
        if not per_worker_bytes:
            return
        peak = max(per_worker_bytes.values())
        total = sum(per_worker_bytes.values())
        self.peak_worker_memory_bytes = max(self.peak_worker_memory_bytes, peak)
        self.total_memory_bytes = max(self.total_memory_bytes, total)

    def merge_delta(self, delta: Dict[str, float]) -> None:
        """Apply one worker's per-superstep meter increments.

        Its one caller is :func:`repro.faults.recovery.fault_barrier`, which
        feeds each worker's fault charges through here **exactly once per
        worker per superstep**, in ascending worker order, so float meters
        (``recovery_straggler_s``, ``wall_time_s``) accumulate in one fixed
        order and stay bit-identical, not just approximately equal.  :data:`PEAK_METERS`
        are max-merged, every other meter is summed, and an unknown meter
        name raises ``ValueError`` so a typo can never silently drop (or
        double-count) a meter.
        """
        for name, value in delta.items():
            if name in PEAK_METERS:
                setattr(self, name, max(getattr(self, name), value))
            elif name in _METER_SET:
                setattr(self, name, getattr(self, name) + value)
            else:
                raise ValueError(f"unknown meter {name!r} in merge_delta")

    # ------------------------------------------------------------------
    @property
    def communication_mb(self) -> float:
        """Bytes shipped between workers, in MB (the paper's metric)."""
        return self.bytes_sent / (1024.0 * 1024.0)

    @property
    def memory_mb(self) -> float:
        """Modelled peak memory of the most-loaded worker, in MB."""
        return self.peak_worker_memory_bytes / (1024.0 * 1024.0)

    def simulated_time(
        self,
        work_per_second: float = 5e7,
        bandwidth_bytes_per_second: float = 1.25e8,
        superstep_latency_s: float = 1e-3,
    ) -> float:
        """BSP makespan under a simple machine model.

        Per superstep the cluster pays the *slowest* worker's compute time
        (``max_w work_w / work_per_second``), plus shipping the superstep's
        bytes over the interconnect, plus a fixed barrier latency.  Defaults
        approximate one 3 GHz core doing ~50M neighbour comparisons/s and
        Gigabit Ethernet, matching the paper's testbed flavour.  This model
        is what makes "more machines → faster but chattier" reproducible in
        one process (Fig. 12).
        """
        if not self.records:
            # Aggregate fallback (per-superstep records disabled, as over
            # long update streams): assume balanced work.
            workers = max(self.num_workers, 1)
            return (
                self.compute_work / (workers * work_per_second)
                + self.bytes_sent / bandwidth_bytes_per_second
                + self.supersteps * superstep_latency_s
            )
        total = 0.0
        for record in self.records:
            if record.worker_work:
                slowest = max(record.worker_work)
            else:
                # Fallback when per-worker detail was not kept: assume
                # perfectly balanced work.
                slowest = record.compute_work / max(self.num_workers, 1)
            total += slowest / work_per_second
            total += record.bytes_sent / bandwidth_bytes_per_second
            total += superstep_latency_s
        return total

    def logical(self) -> Dict[str, int]:
        """The :data:`LOGICAL_METERS` as a plain dict, in that order."""
        return {name: getattr(self, name) for name in LOGICAL_METERS}

    def family(self, prefix: str) -> Dict[str, float]:
        """One quarantined meter family (a :data:`FAMILIES` prefix) as a
        plain dict, in field order, float meters rounded to 6 places."""
        if prefix not in FAMILIES:
            raise ValueError(f"unknown meter family {prefix!r}")
        return {
            name: round(getattr(self, name), 6)
            if name in _FLOAT_METERS else getattr(self, name)
            for name in METERS
            if name.startswith(prefix)
        }

    def summary(self) -> Dict[str, float]:
        """Plain-dict summary used by the benchmark reporters."""
        summary = {
            "supersteps": self.supersteps,
            "active_vertices": self.active_vertices,
            "compute_work": self.compute_work,
            "messages": self.messages,
            "remote_messages": self.remote_messages,
            "communication_mb": round(self.communication_mb, 6),
            "memory_mb": round(self.memory_mb, 6),
            "wall_time_s": round(self.wall_time_s, 6),
            "state_changes": self.state_changes,
        }
        for prefix in FAMILIES:
            summary.update(self.family(prefix))
        return summary

    def to_json(self, include_records: bool = False) -> str:
        """Serialize for run logging (dashboards, regression archives).

        ``include_records`` adds the per-superstep trace (can be large on
        long runs; off by default).
        """
        import json

        payload = dict(self.summary())
        payload["num_workers"] = self.num_workers
        payload["total_memory_bytes"] = self.total_memory_bytes
        if include_records:
            payload["records"] = [
                {
                    "superstep": r.superstep,
                    "active_vertices": r.active_vertices,
                    "compute_work": r.compute_work,
                    "messages": r.messages,
                    "remote_messages": r.remote_messages,
                    "bytes_sent": r.bytes_sent,
                    "state_changes": r.state_changes,
                    "worker_work": list(r.worker_work),
                }
                for r in self.records
            ]
        return json.dumps(payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunMetrics(supersteps={self.supersteps}, "
            f"active={self.active_vertices}, comm={self.communication_mb:.3f}MB, "
            f"mem={self.memory_mb:.3f}MB, wall={self.wall_time_s:.4f}s)"
        )



#: every meter, in field order: the numeric fields except ``num_workers``,
#: which configures the run rather than measuring it
METERS = tuple(
    f.name for f in fields(RunMetrics)
    if isinstance(f.default, (int, float)) and f.name != "num_workers"
)
_METER_SET = frozenset(METERS)
_FLOAT_METERS = frozenset(
    f.name for f in fields(RunMetrics) if isinstance(f.default, float)
)
#: meters folded with ``max`` (snapshots, not sums); every other meter is
#: additive
PEAK_METERS = frozenset({"peak_worker_memory_bytes", "total_memory_bytes"})
#: name prefixes of the quarantined overhead families: a fault or a
#: membership transition may charge these meters, never the logical ones
FAMILIES = ("recovery_", "rebalance_")


def family_sum(prefix: str, *runs: RunMetrics) -> Dict[str, float]:
    """``prefix``'s family summed over ``runs``, each run rounded first as
    :meth:`RunMetrics.family` reports it."""
    total: Dict[str, float] = {}
    for run in runs:
        for name, value in run.family(prefix).items():
            total[name] = total.get(name, 0) + value
    return total
