"""Membership-aware failover: survive *permanent* worker loss.

The transient recovery of :mod:`repro.faults.recovery` treats every
failure as a crash: checkpoint, roll back, replay on the same worker set.
This module adds workers that never come back, and planned joins and
drains, from pieces the paper already pays for:

- **Membership** (:class:`MembershipView`): the member, dead, drained and
  joined sets, the queue of proposed voluntary transitions and the
  membership epoch.  Losses come from the fault injector; a straggler is
  never declared dead.
- **Partition reassignment** (:func:`rendezvous_worker` +
  :class:`FailoverCoordinator`): rendezvous (highest-random-weight) hashing
  over the surviving workers.  Deterministic (keyed blake2b, independent
  of ``PYTHONHASHSEED``), minimal (only vertices hosted on dead workers
  move, including under cascading losses), and stateless (the effective
  placement is a pure function of the base partitioner and the member
  set).
- **State reconstruction**: every host vertex lost with a dead worker is
  restored to its barrier value (the source is counted as a surviving
  guest copy, or the barrier checkpoint when every replica died with the
  host).  The DOIMIS affected set around every reconstructed vertex
  (Definition 4.1) is then re-examined by a recovery sweep.  Theorems
  4.2/6.1 make the maintained set the unique greedy fixpoint of ``≺``, so
  the run converges to the fault-free result.

Every cost here (detection latency, reconstruction shipping, guest-copy
re-establishment) lands on the quarantined ``recovery_*`` meter family,
and voluntary transitions on ``rebalance_*``, **never** the logical
meters.  Logical accounting deliberately keeps the *fault-free* placement:
the paper's cost model describes the computation, and the chaos oracle
asserts a failed-over run's logical meters are bit-identical to the
fault-free run's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import WorkerFailure, WorkloadError
from repro.pregel.metrics import MESSAGE_OVERHEAD_BYTES, VERTEX_ID_BYTES

#: modelled silence before a lost worker is declared dead: a phi-accrual
#: threshold of 8 over 0.05 s heartbeats, ``8 / log10(e) * 0.05`` seconds
DETECTION_LATENCY_S = 8.0 / 0.4342944819032518 * 0.05

#: modelled barrier stall while a voluntary transition batch applies
BARRIER_STALL_S = 0.05


def _weight(salt: int, vertex: int, worker: int) -> int:
    blob = f"{salt}|{vertex}|{worker}".encode("ascii")
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "big"
    )


def rendezvous_worker(vertex: int, candidates: Iterable[int], salt: int = 0) -> int:
    """Highest-random-weight (rendezvous) owner of ``vertex``.

    Each candidate worker's weight is a keyed blake2b of
    ``(salt, vertex, worker)`` — a pure function, independent of
    ``PYTHONHASHSEED`` and of candidate order.  Removing a candidate moves
    only the vertices it owned (the minimal-disruption property that makes
    cascading failovers cheap); every other vertex keeps its argmax.
    """
    best = -1
    best_weight = -1
    for w in sorted(candidates):
        weight = _weight(salt, vertex, w)
        if weight > best_weight:
            best, best_weight = w, weight
    if best < 0:
        raise WorkerFailure(
            None, None,
            f"no surviving worker to host vertex {vertex} "
            "(every candidate is dead)",
        )
    return best


class MembershipView:
    """The worker membership: members, dead/drained/joined sets, the
    pending transition queue and the membership epoch."""

    def __init__(self, workers: Iterable[int]):
        self._workers: List[int] = sorted(workers)
        self._dead: Set[int] = set()
        self._drained: Set[int] = set()
        #: workers that joined after construction
        self._joined: Set[int] = set()
        #: transitions proposed but not yet applied at a barrier
        self._pending_joins: List[int] = []
        self._pending_drains: List[int] = []
        #: membership epoch — bumped once per applied transition batch
        self._epoch = 0

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Membership epoch: applied voluntary transition batches so far."""
        return self._epoch

    def alive_workers(self) -> List[int]:
        """Current members: alive, not drained (joined workers included)."""
        return [
            w for w in self._workers
            if w not in self._dead and w not in self._drained
        ]

    def members(self) -> List[int]:
        """Alias of :meth:`alive_workers` — the current member set."""
        return self.alive_workers()

    def dead_workers(self) -> List[int]:
        return sorted(self._dead)

    def drained_workers(self) -> List[int]:
        return sorted(self._drained)

    def joined_workers(self) -> List[int]:
        """Workers that joined after construction and are still members."""
        return [
            w for w in sorted(self._joined)
            if w not in self._dead and w not in self._drained
        ]

    def is_dead(self, worker: int) -> bool:
        return worker in self._dead

    def is_drained(self, worker: int) -> bool:
        return worker in self._drained

    def is_member(self, worker: int) -> bool:
        return (worker in self._workers and worker not in self._dead
                and worker not in self._drained)

    # ------------------------------------------------------------------
    # voluntary transitions (take effect at the next superstep barrier)
    # ------------------------------------------------------------------
    def propose_join(self, worker: int) -> None:
        """Queue a voluntary join; it takes effect at the next barrier.

        A current or already-proposed member cannot join again; a
        previously drained worker may rejoin.
        """
        if self.is_member(worker) or worker in self._pending_joins:
            raise WorkloadError(
                f"worker {worker} is already a member (or a pending join)"
            )
        self._pending_joins.append(worker)

    def propose_drain(self, worker: int) -> None:
        """Queue a voluntary drain; it takes effect at the next barrier.

        Only a current member can drain, and the pending batch may never
        drain the membership below one worker.
        """
        if not self.is_member(worker):
            raise WorkloadError(
                f"worker {worker} is not a current member — cannot drain"
            )
        if worker in self._pending_drains:
            raise WorkloadError(f"worker {worker} is already draining")
        remaining = (len(self.alive_workers()) + len(self._pending_joins)
                     - len(self._pending_drains) - 1)
        if remaining < 1:
            raise WorkloadError(
                "draining the last member would leave nobody to host the "
                "graph"
            )
        self._pending_drains.append(worker)

    def pending_transitions(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(drains, joins)`` queued for the next barrier (a copy)."""
        return tuple(self._pending_drains), tuple(self._pending_joins)

    def take_pending(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Consume and return the queued ``(drains, joins)``."""
        drains = tuple(self._pending_drains)
        joins = tuple(self._pending_joins)
        self._pending_drains.clear()
        self._pending_joins.clear()
        return drains, joins

    def apply_join(self, worker: int) -> None:
        """Make ``worker`` a member now (called at a barrier)."""
        self._dead.discard(worker)
        self._drained.discard(worker)
        if worker not in self._workers:
            self._workers.append(worker)
            self._workers.sort()
        self._joined.add(worker)

    def apply_drain(self, worker: int) -> None:
        """Retire ``worker`` now (called at a barrier)."""
        self._drained.add(worker)

    def bump_epoch(self) -> None:
        self._epoch += 1

    def restore_epoch(self, epoch: int) -> None:
        """Fast-forward the epoch counter (recovery replays a WAL whose
        commits recorded transitions; the counter must keep ascending)."""
        self._epoch = max(self._epoch, int(epoch))

    def declare_dead(self, worker: int) -> None:
        """Remove ``worker`` from the membership for good."""
        self._dead.add(worker)


@dataclass(frozen=True)
class TransitionEvent:
    """One barrier's worth of applied voluntary transitions."""

    superstep: int
    joined: Tuple[int, ...]
    drained: Tuple[int, ...]
    #: host vertices whose effective placement moved
    moved: int
    #: membership epoch after the batch applied
    epoch: int
    #: modelled barrier stall while the batch applied
    stall_s: float


@dataclass(frozen=True)
class FailoverEvent:
    """One barrier's worth of permanent losses, for diagnostics/tests."""

    superstep: int
    workers: Tuple[int, ...]
    reassigned: int
    #: reconstruction sources: how many lost hosts were rebuilt from a
    #: surviving guest copy / the barrier checkpoint
    sources: Dict[str, int]


class FailoverCoordinator:
    """Owns the membership view and the placement overlay for one engine
    (persistent across runs).

    The *effective* placement (:meth:`worker_of`) is a pure overlay: a
    vertex whose base worker is alive stays put; a vertex whose base
    worker died is rendezvous-hashed over the survivors.  The
    :class:`~repro.graph.distributed_graph.DistributedGraph` — and with it
    every logical meter — keeps the fault-free base placement: the paper's
    cost model describes the computation, and the chaos oracle asserts the
    failed-over run's logical meters stay bit-identical.  Everything the
    overlay costs is charged to ``recovery_*``.
    """

    def __init__(self, dgraph):
        self._dgraph = dgraph
        self.view = MembershipView(range(dgraph.num_workers))
        self._alive: Tuple[int, ...] = tuple(self.view.alive_workers())
        self._member_set = frozenset(self._alive)
        self._joined_active = frozenset(self.view.joined_workers())
        self.events: List[FailoverEvent] = []
        self.transitions: List[TransitionEvent] = []

    # ------------------------------------------------------------------
    @property
    def dead_workers(self) -> List[int]:
        return self.view.dead_workers()

    @property
    def alive_workers(self) -> List[int]:
        return list(self._alive)

    @property
    def epoch(self) -> int:
        """Membership epoch (applied voluntary transition batches)."""
        return self.view.epoch

    def is_dead(self, worker: int) -> bool:
        return self.view.is_dead(worker)

    def _refresh_members(self) -> None:
        self._alive = tuple(self.view.alive_workers())
        self._member_set = frozenset(self._alive)
        self._joined_active = frozenset(self.view.joined_workers())

    def worker_of(self, u: int) -> int:
        """Effective worker of ``u`` under the failover + elastic overlay.

        Pure function of (base placement, member set, joined set):

        1. if any joined worker's rendezvous weight over the *whole* member
           set claims ``u``, it lives there (a join moves exactly the
           vertices whose member-set argmax is the joiner — HRW-minimal);
        2. otherwise ``u`` stays with its base worker while that worker is
           a member (alive, not drained);
        3. otherwise (base dead or drained) ``u`` is rendezvous-hashed over
           the members — the failover rule, drain-aware.
        """
        if self._joined_active:
            w = rendezvous_worker(u, self._alive)
            if w in self._joined_active:
                return w
        base = self._dgraph.worker_of(u)
        if base in self._member_set:
            return base
        return rendezvous_worker(u, self._alive)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def fail_over(self, lost_workers: Iterable[int], superstep: int,
                  checkpoint, states: Dict[int, Any], metrics,
                  sync_bytes_of) -> List[int]:
        """Handle permanent losses declared at this superstep's barrier.

        Declares the workers dead, reassigns their partitions to survivors
        (rendezvous, minimal), restores each lost host vertex to its
        barrier value, re-prices guest-copy re-establishment, and returns
        the DOIMIS affected set (lost hosts + their neighbours) for the
        engine's recovery sweep.  A lost host ships from a surviving guest
        copy (every copy is barrier-fresh: ScaleG syncs each change to
        every guest machine) or, when every replica died with it, from the
        barrier checkpoint.  All costs land on ``recovery_*``.
        """
        from repro.scaleg.guest import surviving_guest_machines

        lost = sorted(w for w in set(lost_workers) if not self.view.is_dead(w))
        if not lost:
            return []
        if len(self._alive) - len(lost) < 1:
            raise WorkerFailure(
                lost[0], superstep,
                "every worker died — nothing left to fail over to",
            )
        dgraph = self._dgraph
        old_eff: Dict[int, int] = {u: self.worker_of(u) for u in sorted(states)}
        # the barrier blocks once for all concurrent losses
        metrics.recovery_detection_s += DETECTION_LATENCY_S
        metrics.wall_time_s += DETECTION_LATENCY_S
        for w in lost:
            self.view.declare_dead(w)
        self._refresh_members()
        metrics.recovery_failovers += len(lost)
        lost_set = set(lost)
        lost_hosts = [u for u in sorted(states) if old_eff[u] in lost_set]
        affected = set(lost_hosts)
        for u in lost_hosts:
            if dgraph.has_vertex(u):
                affected.update(sorted(dgraph.neighbors(u)))
            state = checkpoint.states.get(u, states.get(u))
            metrics.recovery_resync_bytes += (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                + (sync_bytes_of(state) if state is not None else 8)
            )
            metrics.recovery_resync_messages += 1
        metrics.recovery_reassigned_vertices += len(lost_hosts)
        metrics.recovery_reconstructed_vertices += len(lost_hosts)
        sources = {"guest": 0, "checkpoint": 0}
        for u in lost_hosts:
            replicated = surviving_guest_machines(
                dgraph, u, old_eff.__getitem__, lost_set
            )
            sources["guest" if replicated else "checkpoint"] += 1

        # guest re-establishment: the new host of a reassigned vertex needs
        # guest copies of every remote neighbour it did not already hold
        for u in lost_hosts:
            if not dgraph.has_vertex(u):
                continue
            new_home = self.worker_of(u)
            for v in sorted(dgraph.neighbors(u)):
                if self.worker_of(v) == new_home:
                    continue
                held = {
                    old_eff[x]
                    for x in sorted(dgraph.neighbors(v)) if x in old_eff
                } - {old_eff[v]}
                if new_home in held:
                    continue  # the copy of v was already resident there
                state = states.get(v)
                metrics.recovery_resync_bytes += (
                    MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                    + (sync_bytes_of(state) if state is not None else 8)
                )
                metrics.recovery_resync_messages += 1
        reactivate = sorted(u for u in affected if dgraph.has_vertex(u))
        metrics.recovery_reactivated_vertices += len(reactivate)
        self.events.append(FailoverEvent(
            superstep=superstep,
            workers=tuple(lost),
            reassigned=sum(sources.values()),
            sources=sources,
        ))
        return reactivate

    # ------------------------------------------------------------------
    # voluntary elasticity (planned transitions applied at a barrier)
    # ------------------------------------------------------------------
    def propose_join(self, worker: int) -> None:
        """Queue a voluntary join for the next barrier."""
        self.view.propose_join(worker)

    def propose_drain(self, worker: int) -> None:
        """Queue a voluntary drain for the next barrier."""
        self.view.propose_drain(worker)

    def apply_transitions(
        self, drains: Iterable[int], joins: Iterable[int], superstep: int,
        states: Dict[int, Any], metrics, sync_bytes_of,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], List[int]]:
        """Apply one barrier's voluntary transition batch.

        Joins apply first (a simultaneous join+drain streams the drained
        partitions straight to the joiner), then drains; the membership
        epoch bumps once per batch.  Every moved host vertex is streamed
        from its *live* old host — state record, guest-copy
        re-establishment for its remote neighbours, and a rank-cache
        rebuild on the receiver — all charged to the ``rebalance_*``
        family.  The logical meters (and the
        :class:`~repro.graph.distributed_graph.DistributedGraph` base
        placement) never change, which is what keeps an elastic run
        bit-identical to a fixed-membership one.

        Returns ``(applied_drains, applied_joins, moved_vertices)``.
        """
        joins = [w for w in sorted(set(joins)) if not self.view.is_member(w)]
        drains = [
            w for w in sorted(set(drains))
            if self.view.is_member(w) and w not in joins
        ]
        if not joins and not drains:
            return (), (), []
        if not (set(self._member_set) | set(joins)) - set(drains):
            raise WorkerFailure(
                drains[0], superstep,
                "draining every member would leave nobody to host the graph",
            )

        dgraph = self._dgraph
        # effective placement *before* the batch — the movement set is the
        # diff against it
        old_eff: Dict[int, int] = {u: self.worker_of(u) for u in sorted(states)}
        for w in joins:
            self.view.apply_join(w)
        for w in drains:
            self.view.apply_drain(w)
        self.view.bump_epoch()
        self._refresh_members()

        moved = [u for u in sorted(states) if self.worker_of(u) != old_eff[u]]
        for u in moved:
            # the new home streams u's state from its live old host —
            # never from a checkpoint
            state = states.get(u)
            metrics.rebalance_resync_bytes += (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                + (sync_bytes_of(state) if state is not None else 8)
            )
            metrics.rebalance_resync_messages += 1
            if not dgraph.has_vertex(u):
                continue
            new_home = self.worker_of(u)
            degree = 0
            for v in sorted(dgraph.neighbors(u)):
                degree += 1
                if self.worker_of(v) == new_home:
                    continue
                # guest copies move with the host: the new home takes a
                # copy of each remote neighbour (and ships back its own)
                vstate = states.get(v)
                metrics.rebalance_resync_bytes += (
                    MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                    + (sync_bytes_of(vstate) if vstate is not None else 8)
                )
                metrics.rebalance_resync_messages += 1
            # the receiver rebuilds u's rank-ordered adjacency entries
            metrics.rebalance_rank_entries += degree
        metrics.rebalance_joins += len(joins)
        metrics.rebalance_drains += len(drains)
        metrics.rebalance_moved_vertices += len(moved)
        metrics.rebalance_stall_s += BARRIER_STALL_S
        metrics.wall_time_s += BARRIER_STALL_S
        self.transitions.append(TransitionEvent(
            superstep=superstep, joined=tuple(joins), drained=tuple(drains),
            moved=len(moved), epoch=self.view.epoch, stall_s=BARRIER_STALL_S,
        ))
        return tuple(drains), tuple(joins), moved

    def barrier_transitions(
        self, superstep: int, states: Dict[int, Any], metrics,
        sync_bytes_of, injector=None,
    ) -> List[int]:
        """Collect and apply every transition due at this barrier.

        Merges the proposed queue (:meth:`propose_join` /
        :meth:`propose_drain`) with the injector's scheduled transitions
        (fire-once — a crash rollback replaying this barrier never applies
        a batch twice), applies them, and tells the injector which workers
        drained so they are never again drawn for faults.  Returns the
        moved vertices.
        """
        drains, joins = self.view.take_pending()
        if injector is not None:
            sched_drains, sched_joins = injector.membership_transitions(
                superstep
            )
            drains += sched_drains
            joins += sched_joins
        if not drains and not joins:
            return []
        applied_drains, applied_joins, moved = self.apply_transitions(
            drains, joins, superstep, states, metrics, sync_bytes_of
        )
        if injector is not None:
            for w in applied_drains:
                injector.mark_drained(w)
            for w in applied_joins:
                injector.mark_joined(w)
        return moved


def resolve_membership(injector, dgraph) -> Optional[FailoverCoordinator]:
    """The failover coordinator an engine attaches under ``injector``.

    One exactly when the fault plan can declare a loss or schedules a
    join or drain (there must be *someone* to handle them), else ``None``
    — the hot loop then stays byte-identical to the fault-free build.
    """
    if injector is not None and (
        injector.plan.schedules_loss or injector.plan.schedules_transitions
    ):
        return FailoverCoordinator(dgraph)
    return None
